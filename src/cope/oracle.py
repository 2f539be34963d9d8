"""Brute-force evaluators for the full multivariate polynomial expansion.

Every output is computed by materializing each coefficient tensor and
contracting it mode by mode, with no factorization shortcuts. Sizes are
capped (dims and rank at most 8, order at most 4) because tensor storage
grows as out_dim * d^order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .models import ChainBlock, _dim, _prep_inputs
from .tensors import khatri_rao_chain, mode1_fold

MAX_DIM = 8
MAX_ORDER = 4
# degree_probe's rounding floor at level k, 256 * 2^k * eps * max|g| =
# 2^(k-44) * max|g|, reaches the values themselves from level 44 on; the
# probe reads levels up to max_order + 1, so max_order stops at 42
MAX_PROBE_ORDER = 42


def expansion_term_keys(order: int, n_variables: int):
    """Keys of every coefficient tensor in the expansion, in summation order.

    A term's key lists the variable each of its modes 2.. contracts, in
    ascending order: (0, 1, 1) is the order-3 term with one z_0 mode and
    two z_1 modes. Within an order the keys run from the last variable's
    pure term down to the first's; `make_poly_regression` draws its target
    tensors in this order, so the order fixes each seed's target.
    """
    return [
        key
        for n in range(1, order + 1)
        for key in reversed(
            list(itertools.combinations_with_replacement(range(n_variables), n))
        )
    ]


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
    """Full coefficient tensors of one expansion, keyed as `expansion_term_keys`.
    The order is the longest key, the variables every index the keys name;
    input phi is as wide as axis 1 of `tensors[(phi,)]`, the output as `bias`."""

    tensors: dict
    bias: np.ndarray
    order: int = field(init=False)
    input_dims: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        tuples = [key for key in self.tensors if isinstance(key, tuple)]
        self.order = max(map(len, tuples), default=0)
        n_vars = 1 + max((i for i in set().union(*tuples) if isinstance(i, int)), default=-1)
        # before the expected keys are built, whose count grows as order^n_vars
        _check_limits(n_vars, self.order, ())
        keys = expansion_term_keys(self.order, n_vars)
        expected, got = set(keys), set(self.tensors)
        if got != expected:
            raise ValueError(
                f"term keys mismatch: missing {sorted(expected - got)}, "
                f"unexpected {sorted(got - expected, key=repr)}"
            )
        # a new dict, in summation order: the caller's is left as it was
        self.tensors = {
            key: np.asarray(self.tensors[key], dtype=np.float64) for key in keys
        }
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.ndim != 1:
            raise ValueError(f"bias must be a vector, got shape {self.bias.shape}")
        dims = self.input_dims = tuple(_dim(self.tensors, (phi,), 1) for phi in range(n_vars))
        _check_limits(n_vars, self.order, dims + (self.output_dim,))
        for key, t in self.tensors.items():
            want = (self.output_dim, *map(dims.__getitem__, key))
            if t.shape != want:
                raise ValueError(f"tensor {key} has shape {t.shape}, expected {want}")

    @property
    def output_dim(self) -> int:
        return self.bias.size


def eval_explicit(params: OracleParams, inputs) -> np.ndarray:
    """Evaluate the expansion by contracting every tensor mode by mode.

    `inputs` are column batches, as for `product_compose`. Each mode is
    one matrix-vector product per column, batch axis first, so a column
    evaluates as it would alone. Terms are accumulated in key order so
    summation is reproducible bit for bit.
    """
    cols = _prep_inputs(inputs, params.input_dims, "eval_explicit")
    # each column contiguous: a strided one can round unlike the column alone
    zs = [np.ascontiguousarray(z.T)[:, :, None] for z in cols]
    out = params.bias
    for key, term in params.tensors.items():
        term = term[None]
        # contract the last mode each time, as np.tensordot does it
        for phi in reversed(key):
            z = zs[phi]
            term = np.matmul(term.reshape(term.shape[0], -1, z.shape[1]), z).reshape(
                (z.shape[0],) + term.shape[1:-1]
            )
        out = out + term
    return np.ascontiguousarray(out.T)


def build_coupled_tensors(blk: ChainBlock) -> OracleParams:
    """Fold a ccp block over two or three variables into its full tensors.

    Expands y_N = m_1 * prod_{n>=2} (1 + m_n), m_n = sum_phi U_n,phi^T z_phi:
    level 1 joined with each subset of levels 2..N, under each assignment
    of a variable to every level, is one rank-wise product. Its (variable,
    level) pairs, sorted, are the term's modes 2.. in order, so its key is
    its variables, sorted; the Khatri-Rao chain runs over the pairs in
    reverse so that mode 2 varies fastest, as in the mode-1 unfolding.
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
                key = tuple(sorted(phis))
                kr = khatri_rao_chain(blk.factor(n, phi) for phi, n in reversed(pairs))
                chains[key] = chains[key] + kr if key in chains else kr
    c, o = blk.params["head"], blk.out_dim
    tensors = {
        key: mode1_fold(c @ kr.T, (o,) + tuple(dims[phi] for phi in key))
        for key, kr in chains.items()
    }
    return OracleParams(tensors, np.array(blk.params["head_bias"], dtype=np.float64))


# The float answer D is redone exactly when level D, the last that did not
# vanish, is under 1024 of its rounding floors, or level D+1, the first that
# did, is over 1/32 of its floor. On the degree-law rays of seeds 0-999,
# each evaluated as one batch of nodes, noise reached 0.58 floors while real
# leading levels fell to 0.00083 floors, so no cut on one level parts them.
# This window caught all 48 misread rays and sent 1,242 of 200,000 rays
# down the exact path.
_EXACT_WINDOW = (1.0 / 32.0, 1024.0)


def as_fractions(a) -> np.ndarray:
    """Elementwise exact Fractions of a float array, as an object array."""
    # imported here: only the exact path needs it, and the import would
    # add milliseconds to the start of every command
    from fractions import Fraction

    return np.frompyfunc(Fraction, 1, 1)(a)


def degree_probe(f, base, direction, max_order: int, exact=None) -> int:
    """Numerical polynomial degree of t -> sum(f(base + t * direction)).

    Samples integer nodes t = 0..max_order+1 (exact for polynomials up to
    rounding), builds the forward-difference table, and returns the least D
    whose (D+1)-th differences vanish while the D-th do not. A level counts
    as vanished only if it is below 1e-6 of the largest difference AND
    consistent with the rounding floor 256 * 2^level * eps * max|g|; composed
    blocks have leading coefficients far below the value scale, and the
    floor keeps such small-but-real levels from being read as noise.
    Returns max_order when no level vanishes (degree at least max_order)
    and 0 for the zero function. `max_order` lies in [0, MAX_PROBE_ORDER].

    `f` is called once, on every node at once: it gets a `(dim, nodes)`
    matrix whose column t is base + t * direction, and returns an
    `(out, nodes)` matrix whose column t is the output at node t.

    `exact`, if given, is f over Fraction object arrays. When either level
    that decides D sits too near its floor to tell signal from rounding (see
    `_EXACT_WINDOW`), the ray is redone in rational arithmetic, where a
    vanished level is exactly zero: one call of `exact` on the same nodes.
    """
    base = np.asarray(base, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if base.shape != direction.shape:
        raise ValueError(
            f"base shape {base.shape} does not match direction {direction.shape}"
        )
    if base.ndim != 1:
        raise ValueError(f"base must be a vector, got shape {base.shape}")
    if not 0 <= max_order <= MAX_PROBE_ORDER:
        raise ValueError(f"max_order must be in [0, {MAX_PROBE_ORDER}], got {max_order}")
    values = _node_values(f, base, direction, max_order + 2)
    if not np.isfinite(values).all():
        raise ValueError("degree probe hit a non-finite value")
    magnitudes = [float(np.max(np.abs(level))) for level in _levels(values)]
    scale = max(magnitudes)
    if scale == 0.0:
        return 0
    eps = float(np.finfo(np.float64).eps)
    floors = [256.0 * (2.0**k) * eps * magnitudes[0] for k in range(len(magnitudes))]

    def vanished(level: int) -> bool:
        return magnitudes[level] < 1e-6 * scale and magnitudes[level] <= floors[level]

    degree = next(
        (d for d in range(max_order + 1) if vanished(d + 1) and not vanished(d)),
        max_order,
    )
    lo, hi = _EXACT_WINDOW
    near_floor = (
        magnitudes[degree] < hi * floors[degree]
        or magnitudes[degree + 1] > lo * floors[degree + 1]
    )
    if exact is None or not near_floor:
        return degree
    values = _node_values(
        exact, as_fractions(base), as_fractions(direction), max_order + 2
    )
    nonzero = [k for k, level in enumerate(_levels(values)) if any(level != 0)]
    return min(max(nonzero, default=0), max_order)


def _node_values(f, base, direction, n_nodes: int) -> np.ndarray:
    """sum(f(base + t * direction)) at t = 0..n_nodes-1, from one call of
    `f` on the nodes as columns."""
    t = np.arange(n_nodes)
    out = f(base[:, None] + t * direction[:, None])
    if np.ndim(out) != 2 or np.shape(out)[1] != n_nodes:
        raise ValueError(
            f"f must return one column per node, (out, {n_nodes}); "
            f"got shape {np.shape(out)}"
        )
    return np.sum(out, axis=0)


def _levels(values):
    """The forward-difference table of `values`: level 0 is `values`."""
    levels = [np.asarray(values)]
    for _ in range(len(values) - 1):
        levels.append(np.diff(levels[-1]))
    return levels
