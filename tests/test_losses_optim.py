import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cope.autodiff import Tape, Var, backward, finite_diff_check
from cope.losses import (
    DEFAULT_BANDWIDTH_FACTORS,
    discriminator_loss,
    diversity_regularizer,
    generator_loss,
    mmd_loss,
    mse_loss,
    pairwise_sq_dists,
    rbf_bandwidths,
)
from cope.models import (
    discriminator_forward,
    flatten_parameters,
    init_chain,
    init_discriminator,
    model_parameters,
    product_compose,
    with_parameters,
)
from cope.optim import adam_init, adam_step
from cope.tasks import one_hot


def one_copy_at_a_time(f):
    """`f`, which takes no copy axis, as finite_diff_check calls it: the
    tape model goes through once, and a batch of perturbed copies is
    evaluated copy by copy, one value each."""

    def per_copy(model):
        arrays = model_parameters(model)
        first = next(iter(arrays.values()))
        if isinstance(first, Var):
            return f(model)
        return np.array([
            f(with_parameters(model, {name: a[c] for name, a in arrays.items()}))
            for c in range(len(first))
        ])

    return per_copy


class TestMse:
    def test_single_pair(self):
        assert mse_loss(np.array([[0.0]]), np.array([[2.0]])) == pytest.approx(4.0)

    def test_mean_over_entries(self):
        pred = np.array([[0.0, 2.0], [1.0, 1.0]])
        target = np.zeros((2, 2))
        assert mse_loss(pred, target) == pytest.approx((0 + 4 + 1 + 1) / 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            mse_loss(np.zeros((1, 2)), np.zeros((2, 1)))


def mmd(x, y, bandwidths):
    """`mmd_loss` with the reals' distances built as training builds them."""
    return mmd_loss(x, y, bandwidths, pairwise_sq_dists(y, y))


def ladders(real):
    return rbf_bandwidths(pairwise_sq_dists(real, real))


class TestMmd:
    """One class: (d, 1, n) batches and a (1, B) ladder."""

    def test_identical_batches_vanish(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((2, 1, 10))
        assert abs(mmd(x, x.copy(), [[0.5, 1.0]])[0]) < 1e-12

    def test_point_masses_closed_form(self):
        x = np.zeros((2, 1, 1))
        y = np.array([[[3.0]], [[4.0]]])  # distance 5
        sigma = 2.0
        got = mmd(x, y, [[sigma]])
        want = 2.0 * (1.0 - np.exp(-25.0 / (2.0 * sigma**2)))
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((3, 1, 8))
        y = rng.standard_normal((3, 1, 5))
        bw = ladders(y)
        assert mmd(x, y, bw)[0] == pytest.approx(mmd(y, x, bw)[0], abs=1e-12)
        assert mmd(x, y, bw)[0] > -1e-12

    def test_gradient_reaches_generator_side(self):
        rng = np.random.default_rng(62)
        tape = Tape()
        x = tape.param("x", rng.standard_normal((2, 1, 6)))
        y = rng.standard_normal((2, 1, 7))
        loss = mmd(x, y, [[1.0, 2.0]])
        grads = backward(tape, loss)
        assert np.isfinite(grads["x"]).all()
        assert np.any(grads["x"] != 0.0)

    def test_bandwidth_validation(self):
        x = np.ones((1, 1, 2))
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            mmd(x, x, [[0.0]])
        with pytest.raises(ValueError, match="one ladder per class"):
            mmd(x, x, [1.0, 2.0])  # a flat ladder

    def test_batches_have_a_class_axis(self):
        with pytest.raises(ValueError, match="unequal or empty batches"):
            mmd_loss(np.ones((1, 2)), np.ones((1, 1, 2)), [[1.0]], np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="unequal or empty batches"):
            mmd(np.ones((1, 1, 0)), np.ones((1, 1, 2)), [[1.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_separated_batches_score_higher_than_jittered(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 1, 16))
        near = x + 0.01 * rng.standard_normal((2, 1, 16))
        far = x + 10.0
        bw = ladders(x)
        assert mmd(x, far, bw)[0] > mmd(x, near, bw)[0]


class TestBatchedMmd:
    """The (d, k, n) call scores every class at once; it must agree with k
    separate one-class calls, each with its own bandwidth ladder."""

    @staticmethod
    def _batches():
        rng = np.random.default_rng(63)
        x = rng.standard_normal((2, 3, 5))
        y = rng.standard_normal((2, 3, 7))
        y[:, 1, :] = 0.25  # one class's reals coincide: the 1.0 fallback
        return x, y

    def test_matches_per_class_calls(self):
        x, y = self._batches()
        bw = ladders(y)
        assert bw.shape == (3, 5)
        np.testing.assert_array_equal(bw[1], DEFAULT_BANDWIDTH_FACTORS)
        got = mmd(x, y, bw)
        assert got.shape == (3,)
        for c in range(3):
            one = slice(c, c + 1)
            np.testing.assert_array_equal(bw[one], ladders(y[:, one]))
            want = mmd(x[:, one], y[:, one], ladders(y[:, one]))
            np.testing.assert_allclose(got[c], want[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            got.sum(),
            sum(mmd(x[:, c:c + 1], y[:, c:c + 1], bw[c:c + 1])[0] for c in range(3)),
            rtol=1e-12,
            atol=0.0,
        )

    def test_bandwidths_scale_with_the_median_real_distance(self):
        x, y = self._batches()
        dyy = pairwise_sq_dists(y, y)
        assert dyy.shape == (3, 7, 7)
        for c, ladder in enumerate(rbf_bandwidths(dyy)):
            dists = [
                np.linalg.norm(y[:, c, i] - y[:, c, j])
                for i in range(7) for j in range(i + 1, 7)
            ]
            scale = np.median(dists) or 1.0  # 21 pairs: the median is one of them
            np.testing.assert_allclose(
                ladder, scale * np.array(DEFAULT_BANDWIDTH_FACTORS), rtol=1e-12
            )

    def test_ladder_count_checked(self):
        x, y = self._batches()
        with pytest.raises(ValueError, match="one ladder per class"):
            mmd(x, y, np.ones((2, 5)))

    def test_finite_differences(self):
        x, y = self._batches()
        bw = ladders(y)
        f = one_copy_at_a_time(lambda p: mmd(p["x"], y, bw).sum())
        assert finite_diff_check(f, {"x": x})[0] < 1e-5


def ref_exp(v):
    """The elementwise exp recorded as its own node: VJP g * exp(v)."""
    out = np.exp(v.value)
    return v.tape.custom(out, [v], lambda g: (g * out,))


def ref_pairwise_sq_dists(x, y):
    d, k, n, m = *x.shape, y.shape[2]
    diff = x.reshape((d, k, n, 1)) - y.reshape((d, k, 1, m))
    return (diff * diff).sum(axis=0)


def ref_mmd(x, y, bandwidths, dyy):
    """The MMD composed one op at a time on a tape: difference distances,
    `exp`, `sum` and `mul` over the (B, k, n, m) kernel grid."""
    (_, k, n), m = x.shape, y.shape[2]
    bw = np.asarray(bandwidths, dtype=np.float64)
    coefs = (-0.5 / (bw * bw)).T[:, :, None, None]

    def kernel_sums(d2):
        e = ref_exp(d2 * coefs) if isinstance(d2, Var) else np.exp(d2 * coefs)
        return e.sum(axis=(0, 2, 3))

    return (
        kernel_sums(ref_pairwise_sq_dists(x, x)) * (1.0 / (n * n))
        + kernel_sums(dyy) * (1.0 / (m * m))
        - kernel_sums(ref_pairwise_sq_dists(x, y)) * (2.0 / (n * m))
    )


class TestMmdNode:
    """On a Var, `mmd_loss` is one tape node with a hand-written VJP. Its
    value must be the bytes of the op-by-op reference above, and its
    gradient that reference's to rounding."""

    @pytest.mark.parametrize("k,n,m,n_bw", [
        (1, 5, 7, 1), (1, 6, 4, 5), (4, 6, 9, 1), (4, 8, 5, 5),
    ])
    def test_matches_the_op_by_op_tape(self, k, n, m, n_bw):
        rng = np.random.default_rng(100 * k + 10 * n + m)
        xv = rng.standard_normal((3, k, n))
        y = rng.standard_normal((3, k, m))
        dyy = pairwise_sq_dists(y, y)
        bw = ladders(y) if n_bw == 5 else rng.uniform(0.5, 2.0, (k, 1))
        assert bw.shape == (k, n_bw)

        tape, ref_tape = Tape(), Tape()
        got = mmd_loss(tape.param("x", xv), y, bw, dyy)
        want = ref_mmd(ref_tape.param("x", xv), y, bw, dyy)
        assert [node.op for node in tape.nodes] == ["leaf", "custom"]
        np.testing.assert_array_equal(got.value, want.value)

        seed = rng.standard_normal(k)
        np.testing.assert_allclose(
            backward(tape, got, seed)["x"], backward(ref_tape, want, seed)["x"],
            rtol=1e-12, atol=0.0,
        )

        plain = mmd_loss(xv, y, bw, dyy)
        assert type(plain) is np.ndarray
        np.testing.assert_array_equal(plain, got.value)


class TestLossGradients:
    """Tape gradients of the losses training differentiates, against central
    differences at the 1e-5 tolerance of the `gradients` suite. The seeds
    are fixed: a coordinate whose gradient is near 1e-6 would show rounding
    noise, not a wrong rule."""

    def test_mmd_five_bandwidths_unequal_batches(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((2, 1, 5))
        y = rng.standard_normal((2, 1, 7))
        bw = ladders(y)
        assert bw.shape == (1, 5)
        f = one_copy_at_a_time(lambda p: mmd(p["x"], y, bw))
        assert finite_diff_check(f, {"x": x})[0] < 1e-5

    def test_mmd_through_tanh_chain(self):
        rng = np.random.default_rng(71)
        chain = init_chain(
            rng, (3, 4), (2, 2), rank=4, hidden_dim=3, out_dim=2,
            output_activation="tanh",
        )
        noise = rng.uniform(-1.0, 1.0, (3, 6))
        labels = one_hot(4, 1, 6)
        real = rng.uniform(-0.5, 0.5, (2, 1, 6))
        bw = ladders(real)

        def f(values):
            fake = product_compose(with_parameters(chain, values), [noise, labels])
            return mmd(fake.reshape(real.shape), real, bw)

        assert finite_diff_check(one_copy_at_a_time(f), model_parameters(chain))[0] < 1e-5

    @staticmethod
    def _gan_setup():
        rng = np.random.default_rng(71)
        labels = np.concatenate([one_hot(3, c, 2) for c in range(3)], axis=1)
        real = rng.uniform(-0.5, 0.5, (2, 6))
        noise = rng.uniform(-1.0, 1.0, (3, 6))
        gen = init_chain(rng, (3, 3), (2,), rank=3, hidden_dim=3, out_dim=2)
        disc = init_discriminator(rng, 2, 3, 4)
        return labels, real, noise, gen, disc

    def test_discriminator_loss(self):
        labels, real, noise, gen, disc = self._gan_setup()
        x = np.concatenate([real, product_compose(gen, [noise, labels])], axis=1)
        c = np.concatenate([labels, labels], axis=1)

        def f(p):
            return discriminator_loss(discriminator_forward(p, x, c))

        assert finite_diff_check(one_copy_at_a_time(f), disc)[0] < 1e-5

    def test_generator_loss_through_discriminator(self):
        labels, real, noise, gen, disc = self._gan_setup()

        def f(model):
            fake = product_compose(model, [noise, labels])
            return generator_loss(discriminator_forward(disc, fake, labels))

        assert finite_diff_check(one_copy_at_a_time(f), gen)[0] < 1e-5


class TestGanLosses:
    def test_zero_logits(self):
        assert discriminator_loss(np.zeros((1, 8))) == pytest.approx(2.0 * np.log(2.0))
        assert generator_loss(np.zeros((1, 4))) == pytest.approx(np.log(2.0))

    def test_confident_discriminator_drives_generator_loss_up(self):
        real = np.full((1, 4), 5.0)
        fake = np.full((1, 4), -5.0)
        assert discriminator_loss(np.concatenate([real, fake], axis=1)) < 0.1
        assert generator_loss(fake) > 4.0

    def test_discriminator_loss_is_the_two_means(self):
        rng = np.random.default_rng(72)
        real, fake = rng.normal(0.0, 3.0, (2, 1, 5))
        expected = np.logaddexp(0.0, -real).mean() + np.logaddexp(0.0, fake).mean()
        logits = np.concatenate([real, fake], axis=1)
        assert discriminator_loss(logits) == pytest.approx(expected, rel=1e-14)


class TestDiversity:
    def test_identical_outputs_score_zero(self):
        out = np.array([1.0, 2.0])
        assert diversity_regularizer(out, out, [0.0], [1.0]) == 0.0

    def test_ratio_value(self):
        got = diversity_regularizer([0.0, 0.0], [1.0, 3.0], [0.0], [2.0])
        assert got == pytest.approx(2.0)

    def test_cap_applies(self):
        got = diversity_regularizer([0.0], [100.0], [0.0], [2.0], cap=10.0)
        assert got == 10.0

    def test_identical_noise_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            diversity_regularizer([0.0], [1.0], [0.5], [0.5])


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -1.0])}
        grads = {"w": np.array([2.0, -3.0])}
        state = adam_init(params, lr=0.1)
        adam_step(state, grads)
        np.testing.assert_allclose(params["w"], [0.9, -0.9], atol=1e-8)

    def test_constant_gradient_two_steps_match_hand_values(self):
        # by hand: m_hat = g and v_hat = g^2 at both steps, so updates equal
        lr, g = 0.1, np.array([2.0])
        params = {"w": np.array([0.0])}
        state = adam_init(params, lr=lr)
        adam_step(state, {"w": g})
        first = -params["w"][0]
        adam_step(state, {"w": g})
        second = -params["w"][0] - first
        hand = lr * 2.0 / (2.0 + 1e-8)
        assert first == pytest.approx(hand, rel=1e-12)
        assert second == pytest.approx(hand, rel=1e-9)
        assert abs(second) <= abs(first) + 1e-12

    def test_zero_gradient_fresh_state_is_identity(self):
        params = {"w": np.array([3.0, -4.0])}
        state = adam_init(params)
        adam_step(state, {"w": np.zeros(2)})
        np.testing.assert_array_equal(params["w"], [3.0, -4.0])
        assert state.step == 1

    def test_updates_in_place_preserving_aliases(self):
        # adam_init rebinds the model's own arrays to views of one vector;
        # from then on every step lands in those arrays, in place
        spec = init_chain(
            np.random.default_rng(5), (2, 2), (2,), rank=3, hidden_dim=3, out_dim=2
        )
        state = adam_init(spec, lr=0.5)
        params = state.params
        held = spec.blocks[0].params
        for _ in range(2):
            before = {name: a.copy() for name, a in params.items()}
            adam_step(state, {name: np.ones_like(a) for name, a in params.items()})
            for name, a in model_parameters(spec).items():
                assert a is params[name] and a is held[name.split(".", 1)[1]]
                assert np.shares_memory(a, state.flat)
                assert (a != before[name]).all(), name

    def test_flatten_views_are_the_models_own_arrays(self):
        spec = init_chain(
            np.random.default_rng(7), (2, 3), (2, 1), rank=3, hidden_dim=2, out_dim=2,
            share_conditional=True,
        )
        before = {name: a.copy() for name, a in model_parameters(spec).items()}
        flat, views = flatten_parameters(spec)
        held = model_parameters(spec)
        assert list(views) == list(held) == list(before)
        for name, view in views.items():
            assert view is held[name], name
            assert np.shares_memory(view, flat), name
            assert view.tobytes() == before[name].tobytes(), name

    def test_plain_dict_is_rebound_to_views(self):
        params = {"w": np.ones(3), "b": np.zeros((2, 1))}
        state = adam_init(params, lr=0.5)
        w = params["w"]
        adam_step(state, {"w": np.ones(3), "b": -np.ones((2, 1))})
        assert params["w"] is w and params["b"].shape == (2, 1)
        # the first step moves every entry by lr against its gradient's sign
        np.testing.assert_allclose(state.flat, [0.5, 0.5, 0.5, 0.5, 0.5], atol=1e-8)
        np.testing.assert_array_equal(state.flat, np.concatenate([w, params["b"][:, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 4), min_size=0, max_size=3), min_size=1, max_size=6
        ),
        steps=st.integers(1, 5),
        lr=st.floats(1e-4, 1.0),
        beta1=st.floats(0.0, 0.99),
        beta2=st.floats(0.5, 0.9999),
        eps=st.floats(1e-12, 1e-4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flat_update_is_bitwise_the_per_array_formula(
        self, shapes, steps, lr, beta1, beta2, eps, seed
    ):
        rng = np.random.default_rng(seed)
        params = {f"p{i}": rng.standard_normal(shape) for i, shape in enumerate(shapes)}
        ref = {name: np.array(a) for name, a in params.items()}
        m = {name: np.zeros_like(a) for name, a in ref.items()}
        v = {name: np.zeros_like(a) for name, a in ref.items()}
        state = adam_init(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for t in range(1, steps + 1):
            grads = {name: rng.standard_normal(a.shape) for name, a in ref.items()}
            adam_step(state, grads)
            for name, p in ref.items():  # one array at a time, as before the flat vector
                g = grads[name]
                m[name] *= beta1
                m[name] += (1.0 - beta1) * g
                v[name] *= beta2
                v[name] += (1.0 - beta2) * g * g
                m_hat = m[name] / (1.0 - beta1**t)
                v_hat = v[name] / (1.0 - beta2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for name, p in ref.items():
                assert params[name].tobytes() == p.tobytes(), (name, t)

    def test_shared_conditional_factor_is_one_slice(self):
        spec = init_chain(
            np.random.default_rng(6), (3, 2), (3,), rank=4, hidden_dim=3, out_dim=2,
            share_conditional=True,
        )
        state = adam_init(spec)
        blk = spec.blocks[0]
        shared = state.params["b0.in1.v1"]
        assert not any(".v1" in name for name in state.params if name != "b0.in1.v1")
        assert state.flat.size == sum(a.size for a in model_parameters(spec).values())
        adam_step(state, {name: np.ones_like(a) for name, a in state.params.items()})
        for n in range(1, blk.order + 1):
            assert blk.factor(n, 1) is shared
        # the one slice of flat that no other parameter's view overlaps
        others = [a for name, a in state.params.items() if name != "b0.in1.v1"]
        assert not any(np.shares_memory(shared, a) for a in others)
        assert np.shares_memory(shared, state.flat)

    def test_missing_gradient_named(self):
        params = {"w": np.ones(1)}
        state = adam_init(params)
        with pytest.raises(KeyError, match="'w'"):
            adam_step(state, {})

    def test_shape_mismatch_named(self):
        params = {"w": np.ones(2)}
        state = adam_init(params)
        with pytest.raises(ValueError, match="gradient for 'w'"):
            adam_step(state, {"w": np.ones(3)})
