"""Each polynomial block is one tape node with a hand-written VJP. Its
output and every gradient must be the bytes of the same recursion recorded
one op at a time, which this file keeps as the reference."""

import gc
import operator
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cope.autodiff import Tape, backward, finite_diff_check, tanh, tmatmul
from cope.config import ExperimentConfig
from cope.models import (
    ccp_forward_cols,
    init_block,
    init_chain,
    lift_model,
    model_parameters,
    ncp_forward_cols,
    product_compose,
    with_parameters,
)

COMBINE = {"ncp": operator.mul, "additive": operator.add}


def _col(vec):
    return vec.reshape((vec.shape[0], 1))


def ref_mix(blk, n, inputs):
    acc = tmatmul(blk.factor(n, 0), inputs[0])
    for phi in range(1, len(inputs)):
        acc = acc + tmatmul(blk.factor(n, phi), inputs[phi])
    return acc


def ref_ccp(blk, inputs):
    p = blk.params
    y = ref_mix(blk, 1, inputs)
    for n in range(2, blk.order + 1):
        y = y + ref_mix(blk, n, inputs) * y
    return p["head"] @ y + _col(p["head_bias"])


def ref_ncp(blk, inputs, combine):
    p = blk.params
    y = combine(ref_mix(blk, 1, inputs), tmatmul(p["off1"], _col(p["seed1"])))
    for n in range(2, blk.order + 1):
        y = combine(
            ref_mix(blk, n, inputs),
            tmatmul(p[f"state{n}"], y) + tmatmul(p[f"off{n}"], _col(p[f"seed{n}"])),
        )
    return p["head"] @ y + _col(p["head_bias"])


def ref_block(blk, inputs):
    if blk.kind == "ccp":
        return ref_ccp(blk, inputs)
    return ref_ncp(blk, inputs, COMBINE[blk.kind])


def ref_compose(spec, cols):
    """Block 0 reads every variable; a later block reads the previous
    output, then the conditional variables when it has their factors."""
    x = ref_block(spec.blocks[0], cols)
    for blk in spec.blocks[1:]:
        x = ref_block(blk, [x, *cols[1:]][: blk.n_variables])
    if spec.output_activation == "tanh":
        x = tanh(x)
    return x


def fused_block(blk, inputs):
    if blk.kind == "ccp":
        return ccp_forward_cols(blk, inputs)
    return ncp_forward_cols(blk, inputs)


def _draw(rng, kind, dims, order, share):
    rank, out_dim = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    blk = init_block(rng, kind, dims, rank, out_dim, order, share)
    blk.params["head_bias"] = rng.uniform(-1.0, 1.0, blk.out_dim)
    return blk


def _run(forward, model, values, on_tape, seed):
    """Output and gradients of `forward(model', cols)`, where model' and the
    inputs take `values`; the names in `on_tape` are tape leaves."""
    tape = Tape()
    lifted = {
        name: tape.param(name, v) if name in on_tape else v for name, v in values.items()
    }
    out = forward(with_parameters(model, lifted), lifted)
    return out.value, backward(tape, out, seed)


def _assert_same_bytes(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].keys() == want[1].keys()
    for name in want[1]:
        assert got[1][name].tobytes() == want[1][name].tobytes(), name


def _compare_block(rng, kind, order, n_vars, share, mixed, var_inputs):
    dims = tuple(int(d) for d in rng.integers(1, 5, size=n_vars))
    blk = _draw(rng, kind, dims, order, share)
    batch = int(rng.integers(1, 6))
    values = dict(model_parameters(blk))
    inputs = [f"z{phi}" for phi in range(n_vars)]
    values.update({z: rng.uniform(-1.0, 1.0, (d, batch)) for z, d in zip(inputs, dims)})
    on_tape = {name for name in blk.params if not (mixed and rng.random() < 0.5)}
    if not on_tape:
        on_tape = {"head"}
    if var_inputs:
        on_tape |= set(inputs)
    seed = rng.standard_normal((blk.out_dim, batch))

    def forward(fn):
        return lambda m, v: fn(m, [v[z] for z in inputs])

    got = _run(forward(fused_block), blk, values, on_tape, seed)
    want = _run(forward(ref_block), blk, values, on_tape, seed)
    _assert_same_bytes(got, want)
    assert set(got[1]) == on_tape


@pytest.mark.parametrize("kind", ["ccp", "ncp", "additive"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_block_node_is_the_per_op_tape_bitwise(kind, order):
    rng = np.random.default_rng(order * 10 + len(kind))
    for n_vars in (1, 2, 3):
        for share in (False, True) if n_vars >= 2 else (False,):
            for mixed in (False, True):
                for var_inputs in (False, True):
                    _compare_block(rng, kind, order, n_vars, share, mixed, var_inputs)


@pytest.mark.parametrize("kind", ["ccp", "ncp", "additive"])
def test_chain_of_block_nodes_is_the_per_op_tape_bitwise(kind):
    rng = np.random.default_rng(97)
    # ccp shares and reads the label again, ncp does not share, and the
    # additive chain's later blocks read the previous output alone
    spec = init_chain(
        rng, (3, 2), (2, 3, 1), rank=4, hidden_dim=3, out_dim=2, kind=kind,
        share_conditional=kind != "ncp", reconsume_conditional=kind != "additive",
        output_activation="tanh",
    )
    values = dict(model_parameters(spec))
    values.update({"z0": rng.uniform(-1.0, 1.0, (3, 5)), "z1": rng.uniform(-1, 1, (2, 5))})
    seed = rng.standard_normal((2, 5))
    # The inputs stay plain, as in training: a Var read by several blocks
    # gets one sum per block, whose rounding the op-by-op tape's single
    # running sum need not share.
    on_tape = set(model_parameters(spec))

    def forward(compose):
        return lambda m, v: compose(m, [v["z0"], v["z1"]])

    got = _run(forward(product_compose), spec, values, on_tape, seed)
    want = _run(forward(ref_compose), spec, values, on_tape, seed)
    _assert_same_bytes(got, want)


def test_plain_arrays_push_nothing():
    rng = np.random.default_rng(5)
    blk = init_block(rng, "ncp", (2, 3), 3, 2, order=3)
    z = [rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (3, 4))]
    out = ncp_forward_cols(blk, z)
    assert type(out) is np.ndarray
    tape = Tape()
    ref = ref_ncp(lift_model(tape, blk), z, operator.mul)
    assert out.tobytes() == ref.value.tobytes()


@pytest.mark.parametrize("kind", ["ccp", "ncp"])
def test_a_block_node_frees_its_tape_without_a_gc_pass(kind):
    # a VJP closure that held a Var would make a cycle through the tape
    rng = np.random.default_rng(7)
    blk = _draw(rng, kind, (2, 3), 2, True)
    z = [rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (3, 4))]
    gc.disable()
    try:
        tape = Tape()
        out = fused_block(lift_model(tape, blk), z)
        backward(tape, out.sum())
        freed = weakref.ref(tape)
        del tape, out
        assert freed() is None
    finally:
        gc.enable()


def test_ncp_forward_combines_by_the_block_kind():
    # one draw read as an ncp and as an additive block: the kind alone
    # picks the Hadamard product or the sum
    rng = np.random.default_rng(0)
    blk = init_block(rng, "ncp", (2, 3), 3, 2, order=3)
    z = [rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (3, 4))]
    outs = {}
    for kind, combine in COMBINE.items():
        outs[kind] = ncp_forward_cols(replace(blk, kind=kind), z)
        ref = ref_ncp(lift_model(Tape(), blk), z, combine)
        assert outs[kind].tobytes() == ref.value.tobytes(), kind
    assert not np.allclose(outs["ncp"], outs["additive"])


@pytest.mark.parametrize("kind", ["ccp", "ncp", "additive"])
def test_block_node_matches_finite_differences(kind):
    rng = np.random.default_rng(61)
    blk = _draw(rng, kind, (3, 2), 3, False)
    for arr in blk.params.values():
        arr *= 0.5
    values = dict(model_parameters(blk))
    values["z0"] = rng.uniform(-0.5, 0.5, (3, 4))
    z1 = rng.uniform(-0.5, 0.5, (2, 4))

    def f(v):
        out = fused_block(with_parameters(blk, v), [v["z0"], z1])
        return (out * out).sum(axis=(-2, -1))

    assert finite_diff_check(f, values, h=1e-3)[0] < 1e-5


@pytest.mark.parametrize("kind, nodes", [("ccp", 13), ("additive", 21)])
def test_regression_step_tape_nodes(kind, nodes, tmp_path, monkeypatch):
    # the benchmark's regression: an order-3 block over two 2-dim variables
    import cope.training

    tapes = []

    def recorded(tape, out, *rest):
        tapes.append(len(tape.nodes))
        return backward(tape, out, *rest)

    monkeypatch.setattr(cope.training, "backward", recorded)
    rng = np.random.default_rng(3)
    spec = init_chain(rng, (2, 2), (3,), rank=5, hidden_dim=1, out_dim=1, kind=kind)
    inputs = [rng.uniform(-1, 1, (2, 16)), rng.uniform(-1, 1, (2, 16))]
    cope.training.train_regression(
        spec, inputs, rng.uniform(-1, 1, (1, 16)), ExperimentConfig(steps=1), tmp_path
    )
    assert tapes == [nodes]
