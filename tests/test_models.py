import hashlib
from fractions import Fraction

import numpy as np
import pytest

from cope.models import (
    ChainBlock,
    ModelSpec,
    ccp_forward_cols,
    discriminator_forward,
    init_block,
    init_chain,
    init_concat_linear,
    init_discriminator,
    lift_model,
    model_parameters,
    ncp_forward_cols,
    product_compose,
    spade_config,
    spade_forward_cols,
    with_parameters,
)
from cope.autodiff import Tape, Var
from cope.oracle import as_fractions, degree_probe


def ones_block(kind, order, n_vars=2, d=1, k=1, o=1, width=1):
    params = {
        f"in{n}.v{phi}": np.ones((d, k))
        for n in range(1, order + 1)
        for phi in range(n_vars)
    }
    if kind != "ccp":
        params.update({f"state{n}": np.ones((k, k)) for n in range(2, order + 1)})
        params.update({f"off{n}": np.ones((width, k)) for n in range(1, order + 1)})
        params.update({f"seed{n}": np.ones(width) for n in range(1, order + 1)})
    params["head"] = np.ones((o, k))
    params["head_bias"] = np.zeros(o)
    return ChainBlock(kind, params)


def run(blk, inputs):
    return product_compose(ModelSpec([blk]), inputs)


def col(*values):
    """`values` as a one-column batch."""
    return np.array(values)[:, None]


class TestScalarUnrolls:
    def test_ccp_order1(self):
        assert run(ones_block("ccp", 1), [col(2.0), col(3.0)]) == pytest.approx(col(5.0))

    def test_ccp_order2(self):
        # y1 = 5, y2 = 5 + 5*5 = 30
        assert run(ones_block("ccp", 2), [col(2.0), col(3.0)]) == pytest.approx(col(30.0))

    def test_ncp_order2(self):
        # y1 = 5*1, y2 = 5*(5+1) = 30
        assert run(ones_block("ncp", 2), [col(2.0), col(3.0)]) == pytest.approx(col(30.0))

    def test_ncp_zero_seeds_order1_returns_bias(self):
        p = ones_block("ncp", 1)
        p.params["seed1"] = np.zeros(1)
        p.params["head_bias"] = np.array([7.5])
        assert run(p, [col(2.0), col(3.0)]) == pytest.approx(col(7.5))

    def test_pinet_order2(self):
        # the Pi-net recursion is the one-variable ccp block
        p = ones_block("ccp", 2, n_vars=1, d=2)
        # y1 = 5, y2 = 5 + 5*5 = 30
        assert run(p, [col(2.0, 3.0)]) == pytest.approx(col(30.0))

    def test_additive_order2(self):
        # y1 = 5 + 1 = 6, y2 = 5 + (6 + 1) = 12
        out = run(ones_block("additive", 2), [col(2.0), col(3.0)])
        assert out == pytest.approx(col(12.0))

    def test_concat_linear(self):
        # the order-1 ccp block with an identity head is W^T [z1; z2], with
        # W drawn as one uniform (d1 + d2, o) matrix
        blk = init_concat_linear(np.random.default_rng(5), (2, 1), 2)
        scale = 1.0 / np.sqrt(3)
        weights = np.random.default_rng(5).uniform(-scale, scale, (3, 2))
        assert (blk.kind, blk.order, blk.input_dims) == ("ccp", 1, (2, 1))
        z1, z2 = col(1.0, 2.0), col(3.0)
        expected = weights.T @ col(1.0, 2.0, 3.0)
        np.testing.assert_allclose(run(blk, [z1, z2]), expected, rtol=1e-12, atol=0.0)


class TestBatchSemantics:
    def test_columns_match_vector_loop(self):
        # the diagnostics batch their one-column forwards on the chains:
        # each column of a batch is that column run alone
        rng = np.random.default_rng(30)
        specs = [ModelSpec([init_block(rng, "ccp", (3, 4), 4, 2, order=3)])] + [
            init_chain(
                rng, (3, 4), (2, 2), rank=3, hidden_dim=3, out_dim=2, kind=kind,
                output_activation="tanh",
            )
            for kind in ("ccp", "ncp", "additive")
        ]
        z1 = rng.uniform(-1, 1, (3, 7))
        z2 = rng.uniform(-1, 1, (4, 7))
        for spec in specs:
            batch = product_compose(spec, [z1, z2])
            for b in range(7):
                np.testing.assert_allclose(
                    batch[:, b : b + 1],
                    product_compose(spec, [z1[:, b : b + 1], z2[:, b : b + 1]]),
                    rtol=0, atol=1e-13,
                )

    def test_arity_and_shape_errors(self):
        spec = ModelSpec([ones_block("ccp", 1)])
        with pytest.raises(ValueError, match="expects 2 input"):
            product_compose(spec, [col(1.0)])
        with pytest.raises(ValueError, match=r"input 1 has shape \(2, 1\)"):
            product_compose(spec, [col(1.0), col(1.0, 2.0)])
        with pytest.raises(ValueError, match="batch size"):
            product_compose(spec, [np.ones((1, 2)), np.ones((1, 3))])

    def test_vectors_are_rejected(self):
        # column batches are the one input form: a vector is not one column
        spec = ModelSpec([ones_block("ccp", 1, d=2)])
        with pytest.raises(
            ValueError,
            match=r"product_compose input 0 has shape \(2,\), expected \(2, batch\)",
        ):
            product_compose(spec, [np.ones(2), np.ones(2)])

    def test_array_input_beside_a_tape_input_is_checked_as_a_batch(self):
        spec = ModelSpec([ones_block("ccp", 1, d=2)])
        tape = Tape()
        z = tape.param("z", col(1.0, 2.0))
        out = product_compose(lift_model(tape, spec), [z, [[3.0], [4.0]]])
        np.testing.assert_array_equal(
            out.value, product_compose(spec, [col(1.0, 2.0), col(3.0, 4.0)])
        )
        with pytest.raises(ValueError, match=r"input 1 has shape \(2,\), expected"):
            product_compose(lift_model(Tape(), spec), [z, [3.0, 4.0]])


def stacked(models):
    """The first of `models` with each parameter stacked over all of them,
    copy axis first."""
    arrays = [model_parameters(m) for m in models]
    return with_parameters(
        models[0], {name: np.stack([a[name] for a in arrays]) for name in arrays[0]}
    )


class TestCopyAxis:
    """The plain-array forwards take parameters with one leading copy axis,
    as the finite-difference checker hands them; copy c is the model made
    of each parameter's slice c."""

    COPIES = 5

    @pytest.mark.parametrize("kind", ["ccp", "ncp", "additive", "spade"])
    def test_block_copies_match_unbatched_calls(self, kind):
        rng = np.random.default_rng(45)
        draw = "ncp" if kind == "spade" else kind
        blocks = [init_block(rng, draw, (3, 2), 3, 2, order=3) for _ in range(self.COPIES)]
        z = [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 4))]
        forward = {
            "ccp": ccp_forward_cols,
            "ncp": ncp_forward_cols,
            "additive": ncp_forward_cols,
            "spade": lambda blk, z: spade_forward_cols(blk, *z),
        }[kind]
        out = forward(stacked(blocks), z)
        assert out.shape == (self.COPIES, 2, 4)
        for c, blk in enumerate(blocks):
            np.testing.assert_allclose(out[c], forward(blk, z), rtol=1e-13, atol=0.0)

    def test_chain_copies_match_unbatched_calls(self):
        rng = np.random.default_rng(46)
        chains = [
            init_chain(rng, (3, 2), (2, 2), rank=3, hidden_dim=3, out_dim=2,
                       output_activation="tanh")
            for _ in range(self.COPIES)
        ]
        z = [rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 4))]
        out = product_compose(stacked(chains), z)
        assert out.shape == (self.COPIES, 2, 4)
        for c, chain in enumerate(chains):
            np.testing.assert_allclose(
                out[c], product_compose(chain, z), rtol=1e-13, atol=0.0
            )

    @pytest.mark.parametrize("kind", ["ccp", "ncp"])
    def test_fraction_block_stays_exact(self, kind):
        # y1 = 1/3 + 1/2 = 5/6, then y2 = y1 + y1 y1 for ccp and
        # y2 = (1/3 + 1/2)(y1 + 1) for ncp, both 55/36
        blk = ones_block(kind, 2)
        exact = with_parameters(
            blk, {name: as_fractions(a) for name, a in blk.params.items()}
        )
        z = [col(Fraction(1, 3)), col(Fraction(1, 2))]
        out = run(exact, z)
        assert out.dtype == object
        assert out.tolist() == [[Fraction(55, 36)]]


class TestReductions:
    def test_ccp_with_zero_conditional_is_single_input_recursion(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = init_block(rng, "ccp", (3, 2), 4, 2, order=3)
            for n in range(1, 4):
                p.params[f"in{n}.v1"] = np.zeros_like(p.params[f"in{n}.v1"])
            single = ChainBlock(
                "ccp", {k: v for k, v in p.params.items() if not k.endswith(".v1")}
            )
            z = rng.uniform(-1, 1, (3, 1))
            np.testing.assert_allclose(
                run(p, [z, np.zeros((2, 1))]), run(single, [z]), atol=1e-12
            )

    def test_three_variable_ccp_with_zero_third_collapses(self):
        rng = np.random.default_rng(32)
        p3 = init_block(rng, "ccp", (3, 2, 2), 4, 2, order=3)
        for n in range(1, 4):
            p3.params[f"in{n}.v2"] = np.zeros_like(p3.params[f"in{n}.v2"])
        p2 = ChainBlock(
            "ccp", {k: v for k, v in p3.params.items() if not k.endswith(".v2")}
        )
        z1, z2 = rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, (2, 1))
        np.testing.assert_array_equal(
            run(p3, [z1, z2, np.zeros((2, 1))]), run(p2, [z1, z2])
        )

    def test_gated_forward_in_spade_configuration(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            p = init_block(rng, "ncp", (3, 2), 4, 2, order=3)
            cfg = spade_config(p)
            zn, zc = rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, (2, 1))
            np.testing.assert_allclose(
                run(cfg, [zn, zc]), spade_forward_cols(p, zn, zc), atol=1e-12
            )

    def test_spade_degree_split(self):
        rng = np.random.default_rng(34)
        p = init_block(rng, "ncp", (3, 3), 4, 2, order=3)
        base_n, base_c = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)

        def held(base, z):
            """`base` as one column beside each column of `z`."""
            return np.broadcast_to(base[:, None], z.shape)

        deg_noise = degree_probe(
            lambda z: spade_forward_cols(p, z, held(base_c, z)),
            base_n, rng.uniform(-1, 1, 3), 5,
        )
        deg_cond = degree_probe(
            lambda z: spade_forward_cols(p, held(base_n, z), z),
            base_c, rng.uniform(-1, 1, 3), 5,
        )
        assert deg_noise == 1
        assert deg_cond == p.order - 1


class TestSharing:
    def test_alias_required(self):
        # a block without `in2.v1` shares `in1.v1`, read by every order
        p = ones_block("ccp", 3, d=2, k=3)
        del p.params["in2.v1"]
        with pytest.raises(ValueError, match=r"parameter\(s\) \[\], unexpected \['in3.v1'\]"):
            ModelSpec([p])

    def test_sharing_is_identity_when_factors_already_equal(self):
        rng = np.random.default_rng(35)
        free = init_block(rng, "ccp", (3, 2), 4, 2, order=3)
        cond = free.params["in1.v1"]
        for n in range(2, 4):
            free.params[f"in{n}.v1"] = cond.copy()
        shared = init_block(rng, "ccp", (3, 2), 4, 2, order=3, share_conditional=True)
        assert shared.params.keys() == free.params.keys() - {"in2.v1", "in3.v1"}
        for name in shared.params:
            shared.params[name] = free.params[name]
        z1, z2 = rng.uniform(-1, 1, (3, 1)), rng.uniform(-1, 1, (2, 1))
        np.testing.assert_array_equal(run(shared, [z1, z2]), run(free, [z1, z2]))

    def test_shared_factor_listed_once(self):
        rng = np.random.default_rng(36)
        p = init_block(rng, "ccp", (3, 2), 4, 2, order=3, share_conditional=True)
        names = model_parameters(p)
        assert "in1.v1" in names
        assert "in2.v1" not in names and "in3.v1" not in names
        # unshared noise factors are all present
        assert {"in1.v0", "in2.v0", "in3.v0"} <= set(names)

    def test_sharing_needs_a_second_variable(self):
        # over one variable there is no conditional factor, so asking for
        # sharing draws the unshared block
        shared, free = (
            init_block(np.random.default_rng(47), "ccp", (3,), 4, 2, 3, share_conditional=s)
            for s in (True, False)
        )
        assert list(shared.params) == list(free.params)
        for name, a in free.params.items():
            np.testing.assert_array_equal(shared.params[name], a)
        assert shared.n_variables == 1 and ModelSpec([shared]).var_dims == (3,)


def _drop(params, *names):
    return {k: v for k, v in params.items() if k not in names}


class TestBlockValidation:
    @pytest.mark.parametrize(
        "kind,edit,match",
        [
            ("spam", lambda p: p, "unknown block kind 'spam'"),
            ("ncp", lambda p: _drop(p, "state2"), r"missing parameter\(s\) \['state2'\]"),
            ("ccp", lambda p: p, r"unexpected \['state2', 'off1'"),
            ("ncp", lambda p: {**p, "bogus": np.ones(1)}, r"unexpected \['bogus'\]"),
            ("ncp", lambda p: {**p, "head": np.ones(3)}, "'head' has shape .*2 dim"),
            ("ncp", lambda p: {**p, "in2.v0": np.ones((3, 5))}, r"\(3, 5\), expected \(3, 4"),
            ("ncp", lambda p: {**p, "head_bias": np.ones(3)}, r"\(3,\), expected \(2,\)"),
            ("ncp", lambda p: {**p, "seed2": np.ones(5)}, r"\(5,\), expected \(4,\)"),
            ("ncp", lambda p: _drop(p, "in1.v0", "in2.v0"), "needs at least one order"),
        ],
    )
    def test_rejects_names_or_shapes_that_do_not_fit(self, kind, edit, match):
        p = init_block(np.random.default_rng(44), "ncp", (3, 2), 4, 2, order=2)
        blk = ChainBlock(kind, edit(dict(p.params)))
        with pytest.raises(ValueError, match=f"^block 0.*{match}"):
            ModelSpec([blk])


class TestInputDims:
    @pytest.mark.parametrize(
        "kind,dims,share",
        [
            ("ccp", (3, 2), False),
            ("ncp", (3, 2), False),
            ("additive", (3, 2, 4), False),
            ("ncp", (3, 2), True),
            ("ccp", (5,), False),
        ],
    )
    def test_a_model_reads_its_variables_from_block_0(self, kind, dims, share):
        blk = init_block(np.random.default_rng(50), kind, dims, 4, 2, 3, share)
        assert ModelSpec([blk]).var_dims == blk.input_dims == dims


class TestChains:
    def test_degree_multiplies(self):
        rng = np.random.default_rng(37)
        spec = init_chain(
            rng, (3, 2), block_orders=(2, 2), rank=4, hidden_dim=3, out_dim=2
        )
        joint = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2)])
        direction = rng.uniform(-1, 1, 5)

        def f(x):
            return product_compose(spec, [x[:3], x[3:]])

        assert degree_probe(f, joint, direction, max_order=6) == 4

    def test_tanh_keeps_outputs_bounded(self):
        rng = np.random.default_rng(38)
        spec = init_chain(
            rng,
            (3, 2),
            block_orders=(2, 2),
            rank=4,
            hidden_dim=3,
            out_dim=2,
            output_activation="tanh",
        )
        z1 = rng.uniform(-1, 1, (3, 64))
        z2 = rng.uniform(-1, 1, (2, 64))
        out = product_compose(spec, [z1, z2])
        assert np.all(np.abs(out) <= 1.0)

    def test_chain_validation(self):
        rng = np.random.default_rng(40)
        good = init_chain(rng, (3, 2), (2, 2), rank=4, hidden_dim=5, out_dim=2)
        first, second = good.blocks
        # without its conditional factors block 0 makes a one-variable
        # model, whose block 1 has no conditional variable to read again
        alone_first = ChainBlock("ccp", _drop(first.params, "in1.v1", "in2.v1"))
        with pytest.raises(ValueError, match=r"^block 1 reads 2 input\(s\), expected 1$"):
            ModelSpec([alone_first, second])
        # block 1 reads block 0's 5 outputs, not the 3 of variable 0
        with pytest.raises(
            ValueError, match=r"block 1: parameter 'in1.v0' has shape \(3, 4\), "
        ):
            ModelSpec([first, first])
        # a later block may read the previous output alone
        without = ChainBlock("ccp", _drop(second.params, "in1.v1", "in2.v1"))
        ModelSpec([first, without])

    def test_a_later_block_reads_every_conditional_variable_or_none(self):
        good = init_chain(
            np.random.default_rng(48), (3, 2, 2), (2, 2), rank=4, hidden_dim=3, out_dim=2
        )
        first, second = good.blocks
        two_of_three = ChainBlock("ccp", _drop(second.params, "in1.v2", "in2.v2"))
        with pytest.raises(
            ValueError, match=r"^block 1 reads 2 input\(s\), expected 3 or 1$"
        ):
            ModelSpec([first, two_of_three])

    def test_a_one_variable_chain_expects_one_input(self):
        rng = np.random.default_rng(49)
        first, _ = init_chain(rng, (3,), (2, 2), rank=4, hidden_dim=5, out_dim=2).blocks
        two_inputs = init_block(rng, "ccp", (5, 2), 4, 2, order=2)
        with pytest.raises(ValueError, match=r"^block 1 reads 2 input\(s\), expected 1$"):
            ModelSpec([first, two_inputs])

    def test_blocks_without_reconsume(self):
        rng = np.random.default_rng(41)
        spec = init_chain(
            rng,
            (3, 2),
            (2, 2),
            rank=4,
            hidden_dim=3,
            out_dim=2,
            reconsume_conditional=False,
        )
        assert spec.blocks[1].n_variables == 1
        out = product_compose(spec, [np.ones((3, 1)), np.ones((2, 1))])
        assert out.shape == (2, 1)


class TestParameterWalk:
    def test_lift_preserves_values_and_aliasing(self):
        rng = np.random.default_rng(42)
        spec = init_chain(
            rng, (3, 2), (2, 2), rank=4, hidden_dim=3, out_dim=2,
            share_conditional=True,
        )
        tape = Tape()
        lifted = lift_model(tape, spec)
        for blk, orig in zip(lifted.blocks, spec.blocks):
            assert "in1.v1" in blk.params and "in2.v1" not in blk.params
            assert list(blk.params) == list(orig.params)
            assert all(isinstance(v, Var) for v in blk.params.values())
        z1, z2 = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 4))
        np.testing.assert_array_equal(
            product_compose(lifted, [z1, z2]).value,
            product_compose(spec, [z1, z2]),
        )

    def test_names_are_block_scoped(self):
        rng = np.random.default_rng(43)
        spec = init_chain(rng, (3, 2), (2, 2), rank=4, hidden_dim=3, out_dim=2)
        names = set(model_parameters(spec))
        assert "b0.in1.v0" in names and "b1.head" in names

    def test_plain_dict_walk(self):
        disc = init_discriminator(np.random.default_rng(45), 2, 1, 4)
        assert list(model_parameters(disc)) == list(disc)
        lifted = lift_model(Tape(), disc)
        assert list(lifted) == list(disc)
        assert all(isinstance(v, Var) for v in lifted.values())
        values = {k: v * 2.0 for k, v in disc.items()}
        assert with_parameters(disc, values) == values

    def test_with_parameters_swaps_values_not_structure(self):
        rng = np.random.default_rng(46)
        spec = init_chain(rng, (3, 2), (2, 2), rank=4, hidden_dim=3, out_dim=2)
        values = {k: np.zeros_like(v) for k, v in model_parameters(spec).items()}
        swapped = with_parameters(spec, values)
        assert [b.params.keys() for b in swapped.blocks] == [
            b.params.keys() for b in spec.blocks
        ]
        z = [np.ones((3, 1)), np.ones((2, 1))]
        np.testing.assert_array_equal(product_compose(swapped, z), np.zeros((2, 1)))
        assert np.any(product_compose(spec, z) != 0)


def _draw_digest(model, rng):
    """Leading 16 hex digits of a sha256 over each parameter's name and
    float64 bytes, in order, then the stream's next draw, so both the
    values and where the draws left the stream are pinned."""
    h = hashlib.sha256()
    for name, arr in model_parameters(model).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, np.float64).tobytes())
    h.update(rng.random(1).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "kind, dims, share, digest",
    [
        ("ccp", (3, 2), False, "8c428cde606c7d9f"),
        ("ccp", (3, 2), True, "2d9cf3d2370256d1"),
        ("ccp", (3, 2, 4), False, "3c9dd58d331fb8a0"),
        ("ccp", (3, 2, 4), True, "1a7c6d56d67b683d"),
        ("ncp", (3, 2), False, "9bf72e435e6e0631"),
        ("ncp", (3, 2), True, "d50161b9061a8fad"),
        ("ncp", (3, 2, 4), False, "5cdbe772d864855f"),
        ("ncp", (3, 2, 4), True, "185966b57c87e01f"),
        # an additive block draws the arrays of the ncp block of its shape
        ("additive", (3, 2), False, "9bf72e435e6e0631"),
        ("additive", (3, 2, 4), True, "185966b57c87e01f"),
    ],
    # the ccp and ncp ids read as in earlier runs, when each kind had an init function
    ids=lambda v: f"init_{v}" if v in ("ccp", "ncp") else None,
)
def test_block_draw_order_is_pinned(kind, dims, share, digest):
    # verify draws its trial blocks from this stream, so it must not move
    rng = np.random.default_rng(5)
    block = init_block(rng, kind, dims, 3, 2, 3, share_conditional=share)
    assert _draw_digest(block, rng) == digest


@pytest.mark.parametrize(
    "share, digest",
    [
        (False, "9109bef756bfb4fe"),
        (True, "21c0af01d482d96d"),
    ],
)
def test_additive_chain_draw_order_is_pinned(share, digest):
    rng = np.random.default_rng(5)
    spec = init_chain(
        rng, (3, 2), (2, 3), rank=3, hidden_dim=4, out_dim=2, kind="additive",
        share_conditional=share,
    )
    assert [b.kind for b in spec.blocks] == ["additive", "additive"]
    assert _draw_digest(spec, rng) == digest


def test_discriminator_draws_and_reads_the_stacked_first_layer():
    # the first layer is drawn over (sample; label), then split by columns
    rng = np.random.default_rng(5)
    disc = init_discriminator(rng, 2, 3, 4)
    replay = np.random.default_rng(5)
    w1 = replay.uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), (4, 5))
    w2 = replay.uniform(-0.5, 0.5, (4, 4))
    w3 = replay.uniform(-0.5, 0.5, (1, 4))
    np.testing.assert_array_equal(np.hstack([disc["w1x"], disc["w1c"]]), w1)
    np.testing.assert_array_equal(disc["w2"], w2)
    np.testing.assert_array_equal(disc["w3"], w3)
    assert rng.random() == replay.random()
    disc = {k: v + 0.1 for k, v in disc.items()}  # nonzero biases
    x, c = rng.uniform(-1.0, 1.0, (2, 6)), rng.uniform(0.0, 1.0, (3, 6))
    h = np.tanh((w1 + 0.1) @ np.vstack([x, c]) + disc["b1"][:, None])
    h = np.tanh(disc["w2"] @ h + disc["b2"][:, None])
    np.testing.assert_allclose(
        discriminator_forward(disc, x, c), disc["w3"] @ h + disc["b3"][:, None],
        rtol=1e-13, atol=1e-15,
    )
