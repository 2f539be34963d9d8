"""Brute-force evaluators for the full multivariate polynomial expansion.

Every output is computed by materializing each coefficient tensor and
contracting it mode by mode, with no factorization shortcuts. Sizes are
capped (dims and rank at most 8, order at most 4) because tensor storage
grows as out_dim * d^order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .models import ChainBlock
from .tensors import khatri_rao_chain, mode_m_fold

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


def mode_variables(key):
    """Input variable contracted by each of modes 2..n+1 of term `key`.

    The key's entries after n bound the variables' runs of modes, so the
    count of variable j's modes is the gap between consecutive bounds.
    """
    bounds = key[1:] + (key[0] + 1,)
    out = ()
    lo = 1
    for phi, hi in enumerate(bounds):
        out += (phi,) * (hi - lo)
        lo = hi
    return out


def _check_limits(n_variables, order, dims, ranks=()):
    """Reject sizes whose dense tensors the oracle does not materialize."""
    if n_variables not in (2, 3):
        raise ValueError(f"expected 2 or 3 input variables, got {n_variables}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order {order} outside the supported range [1, {MAX_ORDER}]")
    named = [("dimension", d) for d in dims] + [("rank", r) for r in ranks]
    for what, d in named:
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"{what} {d} outside the supported range [1, {MAX_DIM}]")


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
        _check_limits(
            len(self.input_dims), self.order, self.input_dims + (self.output_dim,)
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
            want = (self.output_dim,) + tuple(
                self.input_dims[phi] for phi in mode_variables(key)
            )
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
        # contract the last mode each time, as np.tensordot does it
        for phi in reversed(mode_variables(key)):
            z = inputs[phi]
            term = np.dot(term.reshape(-1, z.shape[0]), z.reshape(-1, 1)).reshape(
                term.shape[:-1]
            )
        out = out + term
    return out


def build_coupled_tensors(blk: ChainBlock) -> OracleParams:
    """Fold a ccp block over two or three variables into its full tensors.

    Expands y_N = m_1 * prod_{n>=2} (1 + m_n), m_n = sum_phi U_n,phi^T z_phi:
    level 1 joined with each subset of levels 2..N, under each assignment
    of a variable to every level, is one rank-wise product. Its (variable,
    level) pairs, sorted, are the term's modes 2.. in order; the Khatri-Rao
    chain runs over them in reverse so that mode 2 varies fastest, as in
    the mode-1 unfolding.
    """
    if blk.kind != "ccp":
        raise ValueError(f"expected a ccp block, got kind '{blk.kind}'")
    n_vars, order, dims = blk.n_variables, blk.order, blk.input_dims
    _check_limits(n_vars, order, dims + (blk.out_dim,), ranks=(blk.rank,))
    chains = {}
    for size in range(order):
        for extra in itertools.combinations(range(2, order + 1), size):
            levels = (1,) + extra
            for phis in itertools.product(range(n_vars), repeat=len(levels)):
                pairs = sorted(zip(phis, levels))
                key = (len(levels),) + tuple(
                    1 + sum(phi <= j for phi in phis) for j in range(n_vars - 1)
                )
                kr = khatri_rao_chain(blk.factor(n, phi) for phi, n in reversed(pairs))
                chains[key] = chains[key] + kr if key in chains else kr
    c, o = blk.params["head"], blk.out_dim
    tensors = {}
    for key, kr in chains.items():
        shape = (o,) + tuple(dims[phi] for phi in mode_variables(key))
        tensors[key] = mode_m_fold(c @ kr.T, 1, shape)
    return OracleParams(
        order, dims, o, tensors, np.array(blk.params["head_bias"], dtype=np.float64)
    )


def degree_probe(f, base, direction, max_order: int) -> int:
    """Numerical polynomial degree of t -> sum(f(base + t * direction)).

    Samples integer nodes t = 0..max_order+1 (exact for polynomials up to
    rounding), builds the forward-difference table, and returns the least D
    whose (D+1)-th differences vanish while the D-th do not. A level counts
    as vanished only if it is below 1e-6 of the largest difference AND
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
        return magnitudes[level] < 1e-6 * scale and magnitudes[level] <= floor

    for degree in range(max_order + 1):
        if vanished(degree + 1) and not vanished(degree):
            return degree
    return max_order
