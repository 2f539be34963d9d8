"""Brute-force evaluators for the full multivariate polynomial expansion.

Every output is computed by materializing each coefficient tensor and
contracting it mode by mode, with no factorization shortcuts. Sizes are
capped (dims and rank at most 8, order at most 4) because tensor storage
grows as out_dim * d^order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ChainBlock
from .tensors import khatri_rao, mode_m_fold, mode_m_vec_product

MAX_DIM = 8
MAX_ORDER = 4


def expansion_term_keys(order: int, n_variables: int):
    """Index tuples of every coefficient tensor in the expansion.

    Two variables: (n, rho) with rho in [1, n+1]; modes [2, rho] contract
    the first variable and modes [rho+1, n+1] the second. Three variables:
    (n, rho, delta) with rho <= delta <= n+1; modes (rho, delta] contract
    the second variable and modes (delta, n+1] the third.
    """
    keys = []
    for n in range(1, order + 1):
        for rho in range(1, n + 2):
            if n_variables == 2:
                keys.append((n, rho))
            else:
                keys.extend((n, rho, delta) for delta in range(rho, n + 2))
    return keys


def _term_shape(key, input_dims, output_dim):
    if len(key) == 2:
        n, rho = key
        per_mode = (rho - 1) * (input_dims[0],) + (n + 1 - rho) * (input_dims[1],)
    else:
        n, rho, delta = key
        per_mode = (
            (rho - 1) * (input_dims[0],)
            + (delta - rho) * (input_dims[1],)
            + (n + 1 - delta) * (input_dims[2],)
        )
    return (output_dim,) + per_mode


def _variable_for_mode(key, mode):
    if len(key) == 2:
        return 0 if mode <= key[1] else 1
    _, rho, delta = key
    if mode <= rho:
        return 0
    return 1 if mode <= delta else 2


@dataclass
class OracleParams:
    """Full coefficient tensors of one expansion, keyed by term index."""

    order: int
    input_dims: tuple[int, ...]
    output_dim: int
    tensors: dict
    bias: np.ndarray

    def __post_init__(self):
        self.input_dims = tuple(int(d) for d in self.input_dims)
        if len(self.input_dims) not in (2, 3):
            raise ValueError(
                f"expected 2 or 3 input variables, got {len(self.input_dims)}"
            )
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(
                f"order {self.order} outside the supported range [1, {MAX_ORDER}]"
            )
        for d in self.input_dims + (self.output_dim,):
            if not 1 <= d <= MAX_DIM:
                raise ValueError(
                    f"dimension {d} outside the supported range [1, {MAX_DIM}]"
                )
        expected = set(expansion_term_keys(self.order, len(self.input_dims)))
        got = set(self.tensors)
        if got != expected:
            raise ValueError(
                f"term keys mismatch: missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected)}"
            )
        for key in sorted(self.tensors):
            self.tensors[key] = np.asarray(self.tensors[key], dtype=np.float64)
            want = _term_shape(key, self.input_dims, self.output_dim)
            if self.tensors[key].shape != want:
                raise ValueError(
                    f"tensor {key} has shape {self.tensors[key].shape}, expected {want}"
                )
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.shape != (self.output_dim,):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_dim {self.output_dim}"
            )


def eval_explicit(params: OracleParams, inputs) -> np.ndarray:
    """Evaluate the expansion by contracting every tensor mode by mode.

    Terms are accumulated in ascending key order so summation is
    reproducible bit for bit.
    """
    inputs = [np.asarray(z, dtype=np.float64) for z in inputs]
    if len(inputs) != len(params.input_dims):
        raise ValueError(
            f"expected {len(params.input_dims)} inputs, got {len(inputs)}"
        )
    for i, (z, d) in enumerate(zip(inputs, params.input_dims)):
        if z.shape != (d,):
            raise ValueError(f"input {i} has shape {z.shape}, expected ({d},)")
    out = params.bias.copy()
    for key in sorted(params.tensors):
        term = params.tensors[key]
        n = key[0]
        for mode in range(n + 1, 1, -1):
            term = mode_m_vec_product(term, mode, inputs[_variable_for_mode(key, mode)])
        out = out + term
    return out


@dataclass
class SecondOrderWeights:
    """Raw coefficients of a scalar two-variable expansion up to degree 2.

    The single cross matrix pairs z_noise on its rows with z_cond on its
    columns; there is no separate transposed cross term.
    """

    lin_noise: np.ndarray
    lin_cond: np.ndarray
    quad_noise: np.ndarray
    quad_cond: np.ndarray
    quad_cross: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.lin_noise = np.asarray(self.lin_noise, dtype=np.float64)
        self.lin_cond = np.asarray(self.lin_cond, dtype=np.float64)
        self.quad_noise = np.asarray(self.quad_noise, dtype=np.float64)
        self.quad_cond = np.asarray(self.quad_cond, dtype=np.float64)
        self.quad_cross = np.asarray(self.quad_cross, dtype=np.float64)
        d = self.lin_noise.shape[0]
        shapes = {
            "lin_cond": (self.lin_cond.shape, (d,)),
            "quad_noise": (self.quad_noise.shape, (d, d)),
            "quad_cond": (self.quad_cond.shape, (d, d)),
            "quad_cross": (self.quad_cross.shape, (d, d)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")


def eval_scalar_second_order(w: SecondOrderWeights, z_noise, z_cond) -> float:
    """Direct double-loop-equivalent evaluation of the scalar coefficients."""
    z_noise = np.asarray(z_noise, dtype=np.float64)
    z_cond = np.asarray(z_cond, dtype=np.float64)
    d = w.lin_noise.shape[0]
    if z_noise.shape != (d,) or z_cond.shape != (d,):
        raise ValueError(
            f"inputs must both have shape ({d},), got {z_noise.shape} and {z_cond.shape}"
        )
    return float(
        w.offset
        + w.lin_cond @ z_cond
        + w.lin_noise @ z_noise
        + z_cond @ w.quad_cond @ z_cond
        + z_noise @ w.quad_noise @ z_noise
        + z_noise @ w.quad_cross @ z_cond
    )


def second_order_oracle(w: SecondOrderWeights) -> OracleParams:
    """Single-output tensor form of the scalar coefficient set."""
    d = w.lin_noise.shape[0]
    return OracleParams(
        order=2,
        input_dims=(d, d),
        output_dim=1,
        tensors={
            (1, 1): w.lin_cond[None, :],
            (1, 2): w.lin_noise[None, :],
            (2, 1): w.quad_cond[None, :, :],
            (2, 2): w.quad_cross[None, :, :],
            (2, 3): w.quad_noise[None, :, :],
        },
        bias=np.array([w.offset]),
    )


def build_order2_coupled_tensors(p: ChainBlock) -> OracleParams:
    """Fold an order-2 two-variable ccp block into its full tensors.

    The cross tensor is the sum of both mixed products; evaluated against
    (z_noise, z_cond) it contributes
    C [(U2_I^T z_noise) * (U1_II^T z_cond) + (U1_I^T z_noise) * (U2_II^T z_cond)].
    """
    if p.kind != "ccp" or p.order != 2 or p.n_variables != 2:
        raise ValueError("expected a two-variable ccp block of order 2")
    if p.rank > MAX_DIM:
        raise ValueError(f"rank {p.rank} outside the supported range [1, {MAX_DIM}]")
    u1_n, u1_c = p.factor(1, 0), p.factor(1, 1)
    u2_n, u2_c = p.factor(2, 0), p.factor(2, 1)
    c = p.params["head"]
    d_n, d_c = p.input_dims
    o = p.out_dim
    cross = c @ (khatri_rao(u1_c, u2_n) + khatri_rao(u2_c, u1_n)).T
    return OracleParams(
        order=2,
        input_dims=(d_n, d_c),
        output_dim=o,
        tensors={
            (1, 1): c @ u1_c.T,
            (1, 2): c @ u1_n.T,
            (2, 1): mode_m_fold(c @ khatri_rao(u2_c, u1_c).T, 1, (o, d_c, d_c)),
            (2, 2): mode_m_fold(cross, 1, (o, d_n, d_c)),
            (2, 3): mode_m_fold(c @ khatri_rao(u2_n, u1_n).T, 1, (o, d_n, d_n)),
        },
        bias=np.array(p.params["head_bias"], dtype=np.float64),
    )


def degree_probe(f, base, direction, max_order: int, rel_tol: float = 1e-6) -> int:
    """Numerical polynomial degree of t -> sum(f(base + t * direction)).

    Samples integer nodes t = 0..max_order+1 (exact for polynomials up to
    rounding), builds the forward-difference table, and returns the least D
    whose (D+1)-th differences vanish while the D-th do not. A level counts
    as vanished only if it is below rel_tol of the largest difference AND
    consistent with the rounding floor 2^level * eps * max|g|; composed
    blocks have leading coefficients far below the value scale, and the
    floor keeps such small-but-real levels from being read as noise.
    Returns max_order when no level vanishes (degree at least max_order)
    and 0 for the zero function.
    """
    base = np.asarray(base, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if base.shape != direction.shape:
        raise ValueError(
            f"base shape {base.shape} does not match direction {direction.shape}"
        )
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    values = np.array(
        [np.sum(f(base + t * direction)) for t in range(max_order + 2)]
    )
    if not np.isfinite(values).all():
        raise ValueError("degree probe hit a non-finite value")
    level = values
    magnitudes = [float(np.max(np.abs(level)))]
    for _ in range(max_order + 1):
        level = np.diff(level)
        magnitudes.append(float(np.max(np.abs(level))))
    scale = max(magnitudes)
    if scale == 0.0:
        return 0
    eps = float(np.finfo(np.float64).eps)

    def vanished(level: int) -> bool:
        floor = 256.0 * (2.0**level) * eps * magnitudes[0]
        return magnitudes[level] < rel_tol * scale and magnitudes[level] <= floor

    for degree in range(max_order + 1):
        if vanished(degree + 1) and not vanished(degree):
            return degree
    return max_order
