"""Coupled low-rank polynomial generators and their ablation baselines.

A block is a `ChainBlock`: its kind, wiring and sharing, plus an ordered
name -> array dict of its parameters. Every forward runs on column batches
(features x batch) and is written against the operator set shared by
ndarrays and autodiff Vars, so the same code is evaluated by the
brute-force oracles and differentiated during training. `product_compose`
also accepts plain 1-D vectors.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Var, tanh

_BLOCK_KINDS = ("ccp", "ncp", "additive")
# The gated recursion's Hadamard, or the sum that replaces it in the ablation.
_COMBINE = {"ncp": operator.mul, "additive": operator.add}


def _shape(x):
    return tuple(x.shape)


@dataclass
class ChainBlock:
    """One polynomial block of a chain.

    Inputs are the previous block's output (if `consume_prev`) followed by
    the model variables listed in `consume_vars`. `params` maps the names
    of `_layout` to arrays: `in{n}.v{phi}` is the order-n factor of input
    phi, then (ncp and additive only) `state{n}`, `off{n}` and `seed{n}`,
    then `head` and `head_bias`. A block with `share_conditional` has one
    conditional factor, `in1.v1`, read by every order.
    """

    kind: str
    params: dict
    consume_prev: bool
    consume_vars: tuple[int, ...]
    share_conditional: bool = False

    def __post_init__(self):
        self.consume_vars = tuple(int(j) for j in self.consume_vars)

    @property
    def order(self):
        return sum(1 for name in self.params if name.endswith(".v0"))

    @property
    def n_variables(self):
        return int(self.consume_prev) + len(self.consume_vars)

    @property
    def rank(self):
        return self.params["head"].shape[1]

    @property
    def out_dim(self):
        return self.params["head"].shape[0]

    @property
    def input_dims(self):
        return tuple(
            self.params[f"in1.v{phi}"].shape[0] for phi in range(self.n_variables)
        )

    def factor(self, n, phi):
        """Order-n factor of input phi (both counted as in the names)."""
        if phi == 1 and self.share_conditional:
            n = 1
        return self.params[f"in{n}.v{phi}"]


def _layout(kind, order, input_dims, rank, width, out_dim, share):
    """Block-local parameter names in canonical order, with their shapes."""
    shapes = {
        f"in{n}.v{phi}": (d, rank)
        for n in range(1, order + 1)
        for phi, d in enumerate(input_dims)
        if not (share and n > 1 and phi == 1)
    }
    if kind != "ccp":
        shapes.update({f"state{n}": (rank, rank) for n in range(2, order + 1)})
        shapes.update({f"off{n}": (width, rank) for n in range(1, order + 1)})
        shapes.update({f"seed{n}": (width,) for n in range(1, order + 1)})
    shapes["head"] = (out_dim, rank)
    shapes["head_bias"] = (out_dim,)
    return shapes


def _check_block(blk: ChainBlock, input_dims, who):
    """Reject a block whose parameter names or shapes do not fit its kind,
    order (the number of `in{n}.v0` factors), input dims and sharing."""
    if blk.kind not in _BLOCK_KINDS:
        raise ValueError(f"{who}: unknown block kind '{blk.kind}'")
    share = blk.share_conditional
    if share and len(input_dims) < 2:
        raise ValueError(f"{who}: share_conditional needs a second variable")
    order = blk.order
    if order < 1:
        raise ValueError(f"{who} needs at least one order")
    p = blk.params
    want = _layout(blk.kind, order, input_dims, 0, 0, 0, share)
    if set(want) != set(p):
        missing = [name for name in want if name not in p]
        unexpected = [name for name in p if name not in want]
        raise ValueError(
            f"{who}: missing parameter(s) {missing}, unexpected {unexpected}"
        )
    for name, shape in want.items():
        if np.ndim(p[name]) != len(shape):
            raise ValueError(
                f"{who}: parameter '{name}' has shape {_shape(p[name])}, "
                f"expected {len(shape)} dimension(s)"
            )
    width = p["seed1"].shape[0] if "seed1" in p else 0
    rank, out_dim = p["in1.v0"].shape[1], p["head"].shape[0]
    for name, shape in _layout(
        blk.kind, order, input_dims, rank, width, out_dim, share
    ).items():
        if _shape(p[name]) != shape:
            raise ValueError(
                f"{who}: parameter '{name}' has shape {_shape(p[name])}, "
                f"expected {shape}"
            )


def _prep_inputs(inputs, dims, who):
    """Validate arity/shapes; return column batches plus a squeeze flag."""
    inputs = list(inputs)
    if len(inputs) != len(dims):
        raise ValueError(f"{who} expects {len(dims)} input(s), got {len(inputs)}")
    if any(isinstance(z, Var) for z in inputs):
        cols, squeeze = list(inputs), False
    else:
        arrays = [np.asarray(z, dtype=np.float64) for z in inputs]
        ndims = {a.ndim for a in arrays}
        if ndims == {1}:
            cols, squeeze = [a[:, None] for a in arrays], True
        elif ndims == {2}:
            cols, squeeze = arrays, False
        else:
            raise ValueError(f"{who} got a mix of vectors and batches")
    for i, (z, d) in enumerate(zip(cols, dims)):
        if z.ndim != 2 or z.shape[0] != d:
            raise ValueError(
                f"{who} input {i} has shape {_shape(z)}, expected ({d}, batch)"
            )
        if z.shape[1] != cols[0].shape[1]:
            raise ValueError(f"{who} inputs disagree on batch size")
    return cols, squeeze


def _col(vec):
    return vec.reshape((vec.shape[0], 1))


def _linear_mix(blk, n, inputs):
    acc = blk.factor(n, 0).T @ inputs[0]
    for phi in range(1, len(inputs)):
        acc = acc + blk.factor(n, phi).T @ inputs[phi]
    return acc


def ccp_forward_cols(blk: ChainBlock, inputs):
    """Multiplicative-skip recursion y_n = y_{n-1} + (sum_phi U_n,phi^T z_phi) * y_{n-1};
    with one input variable it is the Pi-net recursion."""
    p = blk.params
    y = _linear_mix(blk, 1, inputs)
    for n in range(2, blk.order + 1):
        y = y + _linear_mix(blk, n, inputs) * y
    return p["head"] @ y + _col(p["head_bias"])


def ncp_forward_cols(blk: ChainBlock, inputs, combine):
    """Gated recursion y_n = (sum_phi A_n,phi^T z_phi) * (V_n^T y_{n-1} + B_n^T b_n),
    with `combine` as the `*`; `operator.add` gives the additive ablation."""
    p = blk.params
    y = combine(_linear_mix(blk, 1, inputs), p["off1"].T @ _col(p["seed1"]))
    for n in range(2, blk.order + 1):
        y = combine(
            _linear_mix(blk, n, inputs),
            p[f"state{n}"].T @ y + p[f"off{n}"].T @ _col(p[f"seed{n}"]),
        )
    return p["head"] @ y + _col(p["head_bias"])


def spade_forward_cols(blk: ChainBlock, z_noise, z_cond):
    """Conditioning-by-gating recursion: the first layer consumes the noise
    alone and has no offset factor; later layers gate with the conditional
    input only."""
    p = blk.params
    y = p["in1.v0"].T @ z_noise
    for n in range(2, blk.order + 1):
        y = (blk.factor(n, 1).T @ z_cond) * (
            p[f"state{n}"].T @ y + p[f"off{n}"].T @ _col(p[f"seed{n}"])
        )
    return p["head"] @ y + _col(p["head_bias"])


def concat_linear_forward(weights, inputs):
    """Affine baseline on vectors: stack the inputs and apply one linear map."""
    stacked = np.concatenate([np.asarray(z, dtype=np.float64) for z in inputs])
    if stacked.shape[0] != weights.shape[0]:
        raise ValueError(
            f"concat_linear_forward weights expect {weights.shape[0]} stacked "
            f"rows, got {stacked.shape[0]}"
        )
    return (weights.T @ stacked[:, None])[:, 0]


@dataclass
class ModelSpec:
    """Chain of polynomial blocks; degrees multiply along the chain."""

    var_dims: tuple[int, ...]
    blocks: list[ChainBlock]
    output_activation: str = "none"
    centering: str = "none"

    def __post_init__(self):
        self.var_dims = tuple(int(d) for d in self.var_dims)
        if not self.blocks:
            raise ValueError("ModelSpec needs at least one block")
        if self.output_activation not in ("none", "tanh"):
            raise ValueError(f"unknown output_activation '{self.output_activation}'")
        if self.centering not in ("none", "batch_mean"):
            raise ValueError(f"unknown centering '{self.centering}'")
        if self.blocks[0].consume_prev:
            raise ValueError("block 0 has no predecessor to consume")
        prev_out = None
        for i, blk in enumerate(self.blocks):
            if not blk.consume_prev and not blk.consume_vars:
                raise ValueError(f"block {i} consumes nothing")
            for j in blk.consume_vars:
                if not 0 <= j < len(self.var_dims):
                    raise ValueError(f"block {i} consumes unknown variable {j}")
            dims = ([prev_out] if blk.consume_prev else []) + [
                self.var_dims[j] for j in blk.consume_vars
            ]
            _check_block(blk, dims, f"block {i}")
            prev_out = blk.out_dim

    @property
    def out_dim(self):
        return self.blocks[-1].out_dim


def product_compose(spec: ModelSpec, inputs):
    """Run the block chain; optional batch-mean centering between blocks.

    Centering subtracts the per-feature mean across the batch axis, so a
    batch of one collapses to zeros; it is meant for training batches.
    """
    cols, squeeze = _prep_inputs(inputs, spec.var_dims, "product_compose")
    x = None
    last = len(spec.blocks) - 1
    for i, blk in enumerate(spec.blocks):
        ins = ([x] if blk.consume_prev else []) + [cols[j] for j in blk.consume_vars]
        if blk.kind == "ccp":
            x = ccp_forward_cols(blk, ins)
        else:
            x = ncp_forward_cols(blk, ins, _COMBINE[blk.kind])
        if spec.centering == "batch_mean" and i < last:
            x = x - x.sum(axis=1, keepdims=True) * (1.0 / x.shape[1])
    if spec.output_activation == "tanh":
        x = tanh(x)
    return x[:, 0] if squeeze else x


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape)


def _input_factors(rng, input_dims, rank, order, share, scale):
    # A shared block still draws the conditional factors it drops, so
    # sharing does not shift the stream for the parameters drawn after.
    factors = {}
    for n in range(1, order + 1):
        for phi, d in enumerate(input_dims):
            m = _uniform(rng, (d, rank), scale)
            if not (share and n > 1 and phi == 1):
                factors[f"in{n}.v{phi}"] = m
    return factors


def init_ccp(rng, input_dims, rank, out_dim, order, share_conditional=False):
    """A ccp block that consumes variables 0..len(input_dims)-1, drawn
    uniformly in +-1/sqrt(rank)."""
    scale = 1.0 / np.sqrt(rank)
    params = _input_factors(rng, input_dims, rank, order, share_conditional, scale)
    params["head"] = _uniform(rng, (out_dim, rank), scale)
    params["head_bias"] = np.zeros(out_dim)
    return ChainBlock(
        "ccp", params, False, tuple(range(len(input_dims))), share_conditional
    )


def init_ncp(rng, input_dims, rank, out_dim, order, share_conditional=False):
    """An ncp block that consumes variables 0..len(input_dims)-1, drawn
    uniformly in +-1/sqrt(rank); its offsets are `rank` wide."""
    scale = 1.0 / np.sqrt(rank)
    params = _input_factors(rng, input_dims, rank, order, share_conditional, scale)
    for n in range(2, order + 1):
        params[f"state{n}"] = _uniform(rng, (rank, rank), scale)
    for n in range(1, order + 1):
        params[f"off{n}"] = _uniform(rng, (rank, rank), scale)
    for n in range(1, order + 1):
        params[f"seed{n}"] = np.ones(rank)
    params["head"] = _uniform(rng, (out_dim, rank), scale)
    params["head_bias"] = np.zeros(out_dim)
    return ChainBlock(
        "ncp", params, False, tuple(range(len(input_dims))), share_conditional
    )


def init_concat_linear(rng, input_dims, out_dim):
    total = int(sum(input_dims))
    return _uniform(rng, (total, out_dim), 1.0 / np.sqrt(total))


def init_chain(
    rng,
    var_dims,
    block_orders,
    rank,
    hidden_dim,
    out_dim,
    kind="ccp",
    reconsume_conditional=True,
    share_conditional=False,
    output_activation="none",
    centering="none",
):
    """Standard chain: block 0 sees every variable, later blocks see the
    previous output plus (optionally) the conditional variables again."""
    var_dims = tuple(int(d) for d in var_dims)
    cond_vars = tuple(range(1, len(var_dims)))
    init = init_ccp if kind == "ccp" else init_ncp
    blocks = []
    prev = None
    for i, order in enumerate(block_orders):
        if i == 0:
            consume_prev, consume_vars = False, tuple(range(len(var_dims)))
        else:
            consume_prev = True
            consume_vars = cond_vars if reconsume_conditional else ()
        dims = ([prev] if consume_prev else []) + [var_dims[j] for j in consume_vars]
        width = out_dim if i == len(block_orders) - 1 else hidden_dim
        share = share_conditional and len(dims) >= 2
        blocks.append(
            replace(
                init(rng, dims, rank, width, order, share_conditional=share),
                kind=kind,
                consume_prev=consume_prev,
                consume_vars=consume_vars,
            )
        )
        prev = width
    return ModelSpec(
        var_dims=var_dims,
        blocks=blocks,
        output_activation=output_activation,
        centering=centering,
    )


def spade_config(blk: ChainBlock) -> ChainBlock:
    """Unshared ncp block whose gated forward collapses to
    spade_forward_cols(blk, ...).

    Zeroes the factors spade_forward_cols never reads and pins the first
    offset pair so its product is the all-ones vector (first seed entry 1,
    first offset row 1), making the first-layer Hadamard an exact identity.
    """
    if blk.kind == "ccp" or blk.n_variables != 2:
        raise ValueError("spade_config expects a two-variable ncp block")
    p = blk.params
    params = {"in1.v0": np.array(p["in1.v0"]), "in1.v1": np.zeros_like(p["in1.v1"])}
    for n in range(2, blk.order + 1):
        params[f"in{n}.v0"] = np.zeros_like(p[f"in{n}.v0"])
        params[f"in{n}.v1"] = np.array(blk.factor(n, 1))
    params.update({k: np.array(a) for k, a in p.items() if not k.startswith("in")})
    params["off1"] = np.zeros_like(p["off1"])
    params["off1"][0, :] = 1.0
    params["seed1"] = np.zeros_like(p["seed1"])
    params["seed1"][0] = 1.0
    return replace(blk, kind="ncp", params=params, share_conditional=False)


def init_discriminator(rng, in_dim, hidden):
    """Two-hidden-layer tanh scorer used by the adversarial demo."""
    s2 = 1.0 / np.sqrt(hidden)
    return {
        "w1": _uniform(rng, (hidden, in_dim), 1.0 / np.sqrt(in_dim)),
        "b1": np.zeros(hidden),
        "w2": _uniform(rng, (hidden, hidden), s2),
        "b2": np.zeros(hidden),
        "w3": _uniform(rng, (1, hidden), s2),
        "b3": np.zeros(1),
    }


def discriminator_forward(params, x):
    h = tanh(params["w1"] @ x + _col(params["b1"]))
    h = tanh(params["w2"] @ h + _col(params["b2"]))
    return params["w3"] @ h + _col(params["b3"])


def model_parameters(model) -> dict:
    """Named parameter arrays of a ModelSpec (block i's names prefixed by
    `b{i}.`), a ChainBlock or a plain dict, in order; a shared conditional
    factor appears once."""
    if isinstance(model, ModelSpec):
        return {
            f"b{i}.{name}": arr
            for i, blk in enumerate(model.blocks)
            for name, arr in blk.params.items()
        }
    if isinstance(model, ChainBlock):
        return dict(model.params)
    return dict(model)


def with_parameters(model, values: dict):
    """Copy of `model` whose parameters are `values[name]`, named as by
    `model_parameters`. The structure is not validated again."""
    if isinstance(model, ModelSpec):
        out = copy.copy(model)
        out.blocks = [
            replace(blk, params={name: values[f"b{i}.{name}"] for name in blk.params})
            for i, blk in enumerate(model.blocks)
        ]
        return out
    if isinstance(model, ChainBlock):
        return replace(model, params={name: values[name] for name in model.params})
    return {name: values[name] for name in model}


def lift_model(tape: Tape, model):
    """Copy of `model` whose parameters are tape leaves of the same names."""
    return with_parameters(
        model,
        {name: tape.param(name, arr) for name, arr in model_parameters(model).items()},
    )
