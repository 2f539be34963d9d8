"""Training losses; each runs on ndarrays or tape Vars unchanged."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .autodiff import Var, exp, softplus

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
    """Squared Euclidean distances between column samples: (n, m) matrix."""
    xx = (x * x).sum(axis=0, keepdims=True)
    yy = (y * y).sum(axis=0, keepdims=True)
    return xx.T + yy - 2.0 * (x.T @ y)


@lru_cache(maxsize=16)
def _upper_triangle(n: int):
    """Read-only row and column indices above the diagonal of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def median_pairwise_distance(x) -> float:
    """Median off-diagonal distance of a column batch; 1.0 as a degenerate
    fallback (single sample or all samples identical)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[1]
    if n < 2:
        return 1.0
    d2 = pairwise_sq_dists(x, x)
    upper = d2[_upper_triangle(n)]
    med = float(np.sqrt(np.maximum(np.median(upper), 0.0)))
    return med if med > 0.0 else 1.0


def rbf_bandwidths(real) -> tuple[float, ...]:
    """Bandwidth ladder scaled by the real batch's median pairwise distance."""
    med = median_pairwise_distance(real)
    return tuple(f * med for f in DEFAULT_BANDWIDTH_FACTORS)


def _kernel_sum(d2, coefs):
    """Sum of exp(c * d2) over every entry and every coefficient c."""
    return exp(d2.reshape((1,) + d2.shape) * coefs).sum()


def mmd_loss(x, y, bandwidths):
    """Biased squared maximum mean discrepancy, summed over RBF bandwidths.

    V-statistic with all pair terms kept, so identical batches give exactly
    zero and the value is never negative (up to rounding).
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"feature dims differ: {x.shape[0]} vs {y.shape[0]}"
        )
    if x.shape[1] == 0 or y.shape[1] == 0:
        raise ValueError("mmd_loss needs nonempty batches")
    bandwidths = tuple(float(s) for s in bandwidths)
    if not bandwidths or any(s <= 0.0 for s in bandwidths):
        raise ValueError(f"bandwidths must be positive, got {bandwidths}")
    # one leading axis of kernel coefficients -0.5 / sigma^2 evaluates every
    # bandwidth in one exp, so a distance matrix costs one kernel node
    coefs = np.array([-0.5 / (s * s) for s in bandwidths]).reshape(-1, 1, 1)
    n, m = x.shape[1], y.shape[1]
    return (
        _kernel_sum(pairwise_sq_dists(x, x), coefs) * (1.0 / (n * n))
        + _kernel_sum(pairwise_sq_dists(y, y), coefs) * (1.0 / (m * m))
        - _kernel_sum(pairwise_sq_dists(x, y), coefs) * (2.0 / (n * m))
    )


def nonsat_gan_losses(real_logits, fake_logits):
    """Non-saturating losses: (discriminator, generator)."""
    loss_d = softplus(-real_logits).mean() + softplus(fake_logits).mean()
    loss_g = softplus(-fake_logits).mean()
    return loss_d, loss_g


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
