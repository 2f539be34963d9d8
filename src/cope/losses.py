"""Training losses; each runs on ndarrays or tape Vars unchanged."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .autodiff import Var, softplus

DEFAULT_BANDWIDTH_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


def mse_loss(pred, target):
    """Mean over every entry of the squared difference."""
    if tuple(pred.shape) != tuple(np.shape(target)):
        raise ValueError(
            f"prediction shape {tuple(pred.shape)} does not match "
            f"target {tuple(np.shape(target))}"
        )
    diff = pred - target
    return (diff * diff).mean()


def pairwise_sq_dists(x, y):
    """(k, n, m) squared distances between each class's columns of (d, k, n)
    and (d, k, m) plain batches. The difference form, not the Gram
    expansion, so `dyy` and the bandwidths read from it keep their bytes."""
    d, k, n, m = *x.shape, y.shape[2]
    diff = x.reshape((d, k, n, 1)) - y.reshape((d, k, 1, m))
    return (diff * diff).sum(axis=0)


@lru_cache(maxsize=16)
def _upper_triangle(n: int):
    """Read-only row and column indices above the diagonal of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def rbf_bandwidths(dyy):
    """Each class's bandwidth ladder, (k, B), scaled by the median pairwise
    distance of its real samples (1.0 when that is 0 or there is one
    sample); `dyy` is `pairwise_sq_dists(real, real)`."""
    med, m = np.ones(len(dyy)), dyy.shape[-1]
    if m >= 2:
        rows, cols = _upper_triangle(m)
        med = np.sqrt(np.maximum(np.median(dyy[:, rows, cols], axis=1), 0.0))
    return np.where(med > 0.0, med, 1.0)[:, None] * DEFAULT_BANDWIDTH_FACTORS


def mmd_loss(x, y, bandwidths, dyy):
    """Biased squared MMD of each class, summed over its RBF bandwidths: a
    (k,) vector for (d, k, n) fakes `x` against (d, k, m) reals `y`, with
    one (k, B) bandwidth ladder per class and `dyy` the reals'
    `pairwise_sq_dists(y, y)`.

    A V-statistic with all pair terms kept, so identical batches give
    exactly zero and no value is negative (up to rounding). The kernels run
    on plain arrays; for a Var `x` the (k,) result is one tape node whose
    VJP backprops through the distances with batched matmuls. `y` and
    `dyy` are plain arrays.
    """
    if x.ndim != 3 or y.ndim != 3 or y.shape[:2] != x.shape[:2] or 0 in x.shape + y.shape:
        raise ValueError(f"mmd_loss: unequal or empty batches {x.shape}, {y.shape}")
    (_, k, n), m = x.shape, y.shape[2]
    bw = np.asarray(bandwidths, dtype=np.float64)
    if bw.ndim != 2 or len(bw) != k or bw.size == 0 or np.any(bw <= 0.0):
        raise ValueError(f"bandwidths must be positive, one ladder per class: {bw}")
    # coefficients -0.5 / sigma^2 on a (B, k, 1, 1) grid: one exp over a
    # (B, k, n, m) product evaluates every class and every bandwidth
    coefs = (-0.5 / (bw * bw)).T[:, :, None, None]
    xv = x.value if isinstance(x, Var) else x
    kxx = np.exp(pairwise_sq_dists(xv, xv) * coefs)
    kxy = np.exp(pairwise_sq_dists(xv, y) * coefs)
    value = (
        kxx.sum(axis=(0, 2, 3)) * (1.0 / (n * n))
        + np.exp(dyy * coefs).sum(axis=(0, 2, 3)) * (1.0 / (m * m))
        - kxy.sum(axis=(0, 2, 3)) * (2.0 / (n * m))
    )
    if not isinstance(x, Var):
        return value

    def vjp(g):
        # d loss / d distance, the bandwidths summed: (k, n, n) and (k, n, m).
        # kxx is exactly symmetric, so x_i's weight from either side of its
        # pairs, G + G.T, is 2 G.
        c = coefs[:, :, 0, 0] * g
        gxx = np.einsum("bkij,bk->kij", kxx, c * (2.0 / (n * n)))
        gxy = np.einsum("bkij,bk->kij", kxy, c * (-2.0 / (n * m)))
        # per class, d |x_i - y_j|^2 / d x_i = 2 (x_i - y_j): (k, d, n) batches
        xk, yk = xv.transpose(1, 0, 2), y.transpose(1, 0, 2)
        rows = (gxx.sum(axis=2) + gxy.sum(axis=2))[:, None, :]
        gx = xk * rows - xk @ gxx - yk @ gxy.transpose(0, 2, 1)
        return (2.0 * gx.transpose(1, 0, 2),)

    return x.tape.custom(value, [x], vjp)


def discriminator_loss(logits):
    """Non-saturating discriminator loss of (1, 2n) logits, n reals then n
    fakes: mean softplus(-real) + mean softplus(fake)."""
    n = logits.shape[1] // 2
    sign = np.repeat([-1.0, 1.0], n)
    return softplus(logits * sign).sum() * (1.0 / n)


def generator_loss(fake_logits):
    """Non-saturating generator loss: mean softplus(-fake)."""
    return softplus(-fake_logits).mean()


def diversity_regularizer(out_a, out_b, z_a, z_b, cap: float = 10.0) -> float:
    """Output spread per unit of noise spread, clamped at `cap`.

    The ratio ||out_a - out_b||_1 / ||z_a - z_b||_1 rewards generators that
    move when their noise does; identical noise draws are rejected.
    """
    if isinstance(out_a, Var) or isinstance(out_b, Var):
        raise TypeError("diversity_regularizer is a plain-array diagnostic")
    out_a, out_b = np.asarray(out_a, np.float64), np.asarray(out_b, np.float64)
    z_a, z_b = np.asarray(z_a, np.float64), np.asarray(z_b, np.float64)
    gap = float(np.sum(np.abs(z_a - z_b)))
    if gap == 0.0:
        raise ValueError("noise draws are identical; the ratio is undefined")
    return min(float(np.sum(np.abs(out_a - out_b))) / gap, float(cap))
