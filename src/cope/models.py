"""Coupled low-rank polynomial generators and their ablation baselines.

A block is a `ChainBlock`: its kind and an ordered name -> array dict of
its parameters, whose names also say its order, inputs and sharing. Every
forward runs on column batches (features x batch), and the same code is
evaluated by the brute-force oracles and differentiated during training:
the ccp and ncp recursions compute on plain arrays and, given Vars, push
one tape node with a hand-written VJP; the rest is written against the
operator set shared by ndarrays and autodiff Vars. No forward mixes the
columns of a batch, so a column of a batch is the model on that column
alone. On plain arrays the forwards also take parameters with one leading
copy axis, for a batch of models over the same inputs: copy c of the
output is the model made of each parameter's slice c.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Var, tanh, tmatmul

_BLOCK_KINDS = ("ccp", "ncp", "additive")
# The gated recursion's Hadamard, or the sum that replaces it in the ablation.
_COMBINE = {"ncp": operator.mul, "additive": operator.add}


def _shape(x):
    return tuple(x.shape)


@dataclass
class ChainBlock:
    """One polynomial block of a chain.

    `params` maps the names of `_layout` to arrays: `in{n}.v{phi}` is the
    order-n factor of input phi, then (ncp and additive only) `state{n}`,
    `off{n}` and `seed{n}`, then `head` and `head_bias`. The names say the
    rest: the order is the count of `in{n}.v0`, the inputs the count of
    `in1.v{phi}`, and a block of order >= 2 over two or more inputs with no
    `in2.v1` shares one conditional factor, `in1.v1`, across its orders.
    """

    kind: str
    params: dict

    @property
    def order(self):
        return sum(1 for name in self.params if name.endswith(".v0"))

    @property
    def n_variables(self):
        return sum(1 for name in self.params if name.startswith("in1."))

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
        return self.params[_factor_name(self.params, n, phi)]


def _factor_name(params, n, phi):
    """Name of the order-n factor of input phi in `params`; without
    `in{n}.v1`, input 1's factor is the shared `in1.v1`."""
    name = f"in{n}.v{phi}"
    return "in1.v1" if phi == 1 and name not in params else name


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


def _check_block(blk: ChainBlock, i, dims):
    """Reject block `i` of a chain if its parameter names or shapes do not
    fit its kind, order (the number of `in{n}.v0` factors), inputs and
    sharing (no `in2.v1`, which changes no name at order 1 or over one
    input). `dims` are the chain's inputs there: block 0 reads every
    variable; a later block reads the previous output, then every
    conditional variable or none."""
    who = f"block {i}"
    if blk.kind not in _BLOCK_KINDS:
        raise ValueError(f"{who}: unknown block kind '{blk.kind}'")
    order, n = blk.order, blk.n_variables
    if order < 1:
        raise ValueError(f"{who} needs at least one order")
    if n != len(dims) and not (i and n == 1):
        raise ValueError(
            f"{who} reads {n} input(s), expected {len(dims)}" + (" or 1" if i else "")
        )
    p = blk.params
    # 0 where absent or short of dimensions; read only once the names and
    # dimension counts have passed
    rank, width, out_dim = (
        (*np.shape(p.get(name, ())), 0, 0)[axis]
        for name, axis in (("in1.v0", 1), ("seed1", 0), ("head", 0))
    )
    share = "in2.v1" not in p
    want = _layout(blk.kind, order, dims[:n], rank, width, out_dim, share)
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
    for name, shape in want.items():
        if _shape(p[name]) != shape:
            raise ValueError(
                f"{who}: parameter '{name}' has shape {_shape(p[name])}, "
                f"expected {shape}"
            )


def _prep_inputs(inputs, dims, who):
    """Validate arity and shapes; return the inputs as column batches."""
    inputs = list(inputs)
    if len(inputs) != len(dims):
        raise ValueError(f"{who} expects {len(dims)} input(s), got {len(inputs)}")
    # Vars and object arrays (exact Fractions) stay as they are
    inputs = [z if isinstance(z, Var) else np.asarray(z) for z in inputs]
    inputs = [
        z if isinstance(z, Var) or z.dtype == object else np.asarray(z, np.float64)
        for z in inputs
    ]
    for i, (z, d) in enumerate(zip(inputs, dims)):
        if z.ndim != 2 or z.shape[0] != d:
            raise ValueError(
                f"{who} input {i} has shape {_shape(z)}, expected ({d}, batch)"
            )
        if z.shape[1] != inputs[0].shape[1]:
            raise ValueError(f"{who} inputs disagree on batch size")
    return inputs


def _col(vec):
    """`vec` as one column, past any leading copy axis."""
    return vec.reshape((*vec.shape, 1))


def _value(x):
    return x.value if isinstance(x, Var) else x


def _plain(blk, inputs):
    """`blk`'s parameters and `inputs` as plain arrays, and the Vars among
    them: parameters keyed by name, inputs by position. Plain arguments
    come back as they are, at the cost of one scan."""
    named = (*blk.params.items(), *enumerate(inputs))
    leaves = {key: v for key, v in named if isinstance(v, Var)}
    if not leaves:
        return blk.params, inputs, leaves
    p = {name: _value(a) for name, a in blk.params.items()}
    return p, [_value(z) for z in inputs], leaves


def _mix(p, zs, n):
    """sum_phi U_n,phi^T z_phi."""
    acc = p[f"in{n}.v0"].swapaxes(-1, -2) @ zs[0]
    for phi in range(1, len(zs)):
        acc = acc + p[_factor_name(p, n, phi)].swapaxes(-1, -2) @ zs[phi]
    return acc


def _plus(prev, contrib):
    return contrib if prev is None else prev + contrib


def _mix_vjp(p, zs, n, g, grads):
    """Sum the order-n mix's factor and input gradients into `grads`, the
    last input first. Called for n = N..1, this is the order in which a
    tape of single ops would sum a shared factor's or an input's parts,
    so the sums round alike."""
    for phi in range(len(zs) - 1, -1, -1):
        name = _factor_name(p, n, phi)
        if name in grads:
            grads[name] = _plus(grads[name], (g @ zs[phi].T).T)
        if phi in grads:
            grads[phi] = _plus(grads[phi], p[name] @ g)


def _head_vjp(p, y, g, grads):
    """Fill the gradients of `head @ y + head_bias`; return y's."""
    if "head_bias" in grads:
        grads["head_bias"] = g.sum(axis=1)
    if "head" in grads:
        grads["head"] = g @ y.T
    return p["head"].T @ g


def _block_node(leaves, out, vjp):
    """`out` as one tape node over the Vars `leaves`; `vjp(grads, g)` fills
    a dict keyed as `leaves` with their gradients. No closure here holds a
    Var: one that reached its own tape would keep it alive until a GC pass."""
    keys = list(leaves)

    def rule(g):
        grads = dict.fromkeys(keys)
        vjp(grads, g)
        return tuple(grads.values())

    vars_ = list(leaves.values())
    return vars_[0].tape.custom(out, vars_, rule)


def ccp_forward_cols(blk: ChainBlock, inputs):
    """Multiplicative-skip recursion y_n = y_{n-1} + (sum_phi U_n,phi^T z_phi) * y_{n-1};
    with one input variable it is the Pi-net recursion. When any parameter
    or input is a Var, one tape node whose VJP runs the recursion backwards."""
    p, zs, leaves = _plain(blk, inputs)
    order = blk.order
    ys, mixes = [_mix(p, zs, 1)], [None]
    for n in range(2, order + 1):
        mixes.append(_mix(p, zs, n))
        ys.append(ys[-1] + mixes[-1] * ys[-1])
    out = p["head"] @ ys[-1] + _col(p["head_bias"])
    if not leaves:
        return out

    def vjp(grads, g):
        g_y = _head_vjp(p, ys[-1], g, grads)
        for n in range(order, 1, -1):
            _mix_vjp(p, zs, n, g_y * ys[n - 2], grads)
            g_y = g_y + g_y * mixes[n - 1]
        _mix_vjp(p, zs, 1, g_y, grads)

    return _block_node(leaves, out, vjp)


def ncp_forward_cols(blk: ChainBlock, inputs):
    """Gated recursion y_n = (sum_phi A_n,phi^T z_phi) * (V_n^T y_{n-1} + B_n^T b_n);
    an additive block sums where an ncp block takes the Hadamard product.
    When any parameter or input is a Var, one tape node whose VJP runs the
    recursion backwards."""
    combine = _COMBINE[blk.kind]
    p, zs, leaves = _plain(blk, inputs)
    order = blk.order
    ys, lefts, rights = [], [], []
    for n in range(1, order + 1):
        lefts.append(_mix(p, zs, n))
        offset = p[f"off{n}"].swapaxes(-1, -2) @ _col(p[f"seed{n}"])
        rights.append(
            offset if n == 1 else p[f"state{n}"].swapaxes(-1, -2) @ ys[-1] + offset
        )
        ys.append(combine(lefts[-1], rights[-1]))
    out = p["head"] @ ys[-1] + _col(p["head_bias"])
    if not leaves:
        return out

    def vjp(grads, g):
        g_y = _head_vjp(p, ys[-1], g, grads)
        for n in range(order, 0, -1):
            g_left, g_right = g_y, g_y
            if combine is operator.mul:
                g_left, g_right = g_y * rights[n - 1], g_y * lefts[n - 1]
            # the offset is one column, broadcast over the batch
            g_off = g_right.sum(axis=1, keepdims=True)
            off, seed = f"off{n}", f"seed{n}"
            if off in grads:
                grads[off] = (g_off @ _col(p[seed]).T).T
            if seed in grads:
                grads[seed] = np.reshape(p[off] @ g_off, p[seed].shape)
            if n > 1:
                if f"state{n}" in grads:
                    grads[f"state{n}"] = (g_right @ ys[n - 2].T).T
                g_y = p[f"state{n}"] @ g_right
            _mix_vjp(p, zs, n, g_left, grads)

    return _block_node(leaves, out, vjp)


def spade_forward_cols(blk: ChainBlock, z_noise, z_cond):
    """Conditioning-by-gating recursion: the first layer consumes the noise
    alone and has no offset factor; later layers gate with the conditional
    input only."""
    p = blk.params
    y = tmatmul(p["in1.v0"], z_noise)
    for n in range(2, blk.order + 1):
        y = tmatmul(blk.factor(n, 1), z_cond) * (
            tmatmul(p[f"state{n}"], y) + tmatmul(p[f"off{n}"], _col(p[f"seed{n}"]))
        )
    return p["head"] @ y + _col(p["head_bias"])


@dataclass
class ModelSpec:
    """Chain of polynomial blocks; degrees multiply along the chain."""

    var_dims: tuple[int, ...]
    blocks: list[ChainBlock]
    output_activation: str = "none"

    def __post_init__(self):
        self.var_dims = tuple(int(d) for d in self.var_dims)
        if not self.blocks:
            raise ValueError("ModelSpec needs at least one block")
        if self.output_activation not in ("none", "tanh"):
            raise ValueError(f"unknown output_activation '{self.output_activation}'")
        dims = self.var_dims
        for i, blk in enumerate(self.blocks):
            _check_block(blk, i, dims)
            dims = (blk.out_dim, *self.var_dims[1:])

    @property
    def out_dim(self):
        return self.blocks[-1].out_dim


def product_compose(spec: ModelSpec, inputs):
    """Run the block chain; each output column depends on its own input
    column alone."""
    cols = _prep_inputs(inputs, spec.var_dims, "product_compose")
    x = None
    for blk in spec.blocks:
        ins = cols
        if x is not None:
            # a later block has the conditional variables' factors or none
            ins = [x, *cols[1:]] if "in1.v1" in blk.params else [x]
        forward = ccp_forward_cols if blk.kind == "ccp" else ncp_forward_cols
        x = forward(blk, ins)
    if spec.output_activation == "tanh":
        x = tanh(x)
    return x


def _uniform(rng, shape, scale):
    return rng.uniform(-scale, scale, size=shape)


def init_block(rng, kind, input_dims, rank, out_dim, order, share_conditional=False):
    """A `kind` block over inputs of `input_dims`, drawn in the order of its
    unshared `_layout`: factors, states, offsets and head uniformly in
    +-1/sqrt(rank), seeds ones, head bias zeros; its offsets are `rank`
    wide. A shared block still draws the conditional factors it drops, so
    sharing does not shift the stream for the parameters drawn after; over
    one input there is nothing to share."""
    scale = 1.0 / np.sqrt(rank)
    params = {}
    layout = _layout(kind, order, input_dims, rank, rank, out_dim, False)
    for name, shape in layout.items():
        if name.startswith("seed"):
            params[name] = np.ones(shape)
        elif name == "head_bias":
            params[name] = np.zeros(shape)
        else:
            params[name] = _uniform(rng, shape, scale)
    if share_conditional:
        kept = _layout(kind, order, input_dims, 0, 0, 0, True)
        params = {name: params[name] for name in kept}
    return ChainBlock(kind, params)


def init_concat_linear(rng, input_dims, out_dim):
    """The concat baseline W^T [z_0; z_1; ...] as the order-1 ccp block with
    an identity head: one W drawn uniformly in +-1/sqrt(sum(input_dims)),
    its rows split into the inputs' factors."""
    total = int(sum(input_dims))
    w = _uniform(rng, (total, out_dim), 1.0 / np.sqrt(total))
    params = {
        f"in1.v{phi}": rows
        for phi, rows in enumerate(np.split(w, np.cumsum(input_dims)[:-1]))
    }
    params.update(head=np.eye(out_dim), head_bias=np.zeros(out_dim))
    return ChainBlock("ccp", params)


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
):
    """Standard chain: block 0 sees every variable, later blocks see the
    previous output plus (optionally) the conditional variables again."""
    var_dims = tuple(int(d) for d in var_dims)
    blocks, dims = [], var_dims
    for i, order in enumerate(block_orders):
        width = out_dim if i == len(block_orders) - 1 else hidden_dim
        blocks.append(init_block(rng, kind, dims, rank, width, order, share_conditional))
        dims = (width, *var_dims[1:]) if reconsume_conditional else (width,)
    return ModelSpec(var_dims=var_dims, blocks=blocks, output_activation=output_activation)


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
    return ChainBlock("ncp", params)


def init_discriminator(rng, x_dim, c_dim, hidden):
    """Two-hidden-layer tanh scorer of a (sample, label) pair, used by the
    adversarial demo. The first layer's matrix is drawn over the stacked
    input and kept as its sample and label column blocks."""
    s2 = 1.0 / np.sqrt(hidden)
    w1 = _uniform(rng, (hidden, x_dim + c_dim), 1.0 / np.sqrt(x_dim + c_dim))
    return {
        "w1x": w1[:, :x_dim].copy(),
        "w1c": w1[:, x_dim:].copy(),
        "b1": np.zeros(hidden),
        "w2": _uniform(rng, (hidden, hidden), s2),
        "b2": np.zeros(hidden),
        "w3": _uniform(rng, (1, hidden), s2),
        "b3": np.zeros(1),
    }


def discriminator_forward(params, x, c):
    """(1, n) logits of the n sample columns of `x` under the label columns of `c`."""
    h = tanh(params["w1x"] @ x + params["w1c"] @ c + _col(params["b1"]))
    h = tanh(params["w2"] @ h + _col(params["b2"]))
    return params["w3"] @ h + _col(params["b3"])


def _parameter_dicts(model):
    """(name prefix, dict) pairs that hold the parameter arrays of a
    ModelSpec, a ChainBlock or a plain name -> array dict."""
    if isinstance(model, ModelSpec):
        return [(f"b{i}.", blk.params) for i, blk in enumerate(model.blocks)]
    if isinstance(model, ChainBlock):
        return [("", model.params)]
    return [("", model)]


def model_parameters(model) -> dict:
    """Named parameter arrays of a ModelSpec (block i's names prefixed by
    `b{i}.`), a ChainBlock or a plain dict, in order; a shared conditional
    factor appears once."""
    return {
        prefix + name: arr
        for prefix, params in _parameter_dicts(model)
        for name, arr in params.items()
    }


def flatten_parameters(model):
    """Copy every parameter of `model` into one float64 vector, in the order
    of `model_parameters`, and rebind the model's own dicts in place to
    reshaped views of it. Returns the vector and each name's (start, stop)."""
    flat = np.concatenate(
        [np.ravel(a) for a in model_parameters(model).values()], dtype=np.float64
    )
    layout, start = {}, 0
    for prefix, params in _parameter_dicts(model):
        for name, arr in params.items():
            stop = start + np.size(arr)
            params[name] = flat[start:stop].reshape(np.shape(arr))
            layout[prefix + name] = (start, stop)
            start = stop
    return flat, layout


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
