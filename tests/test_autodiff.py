import numpy as np
import pytest

from cope.autodiff import (
    Node,
    Tape,
    Var,
    backward,
    finite_diff_check,
    softplus,
    tanh,
    tmatmul,
)
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


class TestOpValues:
    def test_duck_typed_expression_matches_numpy(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        c = rng.standard_normal((3, 1))

        def expr(a, b, c):
            h = tanh(a @ b + c)
            return (h * h).sum(axis=0, keepdims=True).reshape((2, 1)) - 0.5

        tape = Tape()
        got = expr(tape.param("a", a), tape.param("b", b), tape.param("c", c))
        np.testing.assert_array_equal(got.value, expr(a, b, c))

    def test_constant_operand_sides(self):
        tape = Tape()
        x = tape.param("x", np.array([[2.0]]))
        assert (x - 1.0).value == pytest.approx(1.0)
        assert (3.0 * x).value == pytest.approx(6.0)
        assert (np.ones((1, 1)) @ x).value == pytest.approx(2.0)

    def test_softplus_is_stable(self):
        tape = Tape()
        x = tape.param("x", np.array([[800.0, -800.0]]))
        out = softplus(x)
        np.testing.assert_allclose(out.value, [[800.0, 0.0]], atol=1e-12)


class TestBackward:
    def test_matmul_chain_grads(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        tape = Tape()
        va, vb = tape.param("a", a), tape.param("b", b)
        out = (va @ vb).sum()
        grads = backward(tape, out)
        np.testing.assert_allclose(grads["a"], np.ones((2, 2)) @ b.T, atol=1e-12)
        np.testing.assert_allclose(grads["b"], a.T @ np.ones((2, 2)), atol=1e-12)

    def test_broadcast_bias_grad_sums_over_batch(self):
        tape = Tape()
        x = tape.param("x", np.zeros((3, 5)))
        b = tape.param("b", np.zeros((3, 1)))
        out = (x + b).sum()
        grads = backward(tape, out)
        np.testing.assert_array_equal(grads["b"], np.full((3, 1), 5.0))

    def test_unused_parameter_gets_zero_grad(self):
        tape = Tape()
        x = tape.param("x", np.ones((2, 2)))
        unused = tape.param("unused", np.ones((3, 3)))
        grads = backward(tape, (x * x).sum())
        np.testing.assert_array_equal(grads["unused"], np.zeros((3, 3)))
        assert grads["x"].shape == (2, 2)

    def test_gradient_is_linear_in_seed(self):
        rng = np.random.default_rng(52)
        tape = Tape()
        x = tape.param("x", rng.standard_normal((2, 3)))
        out = tanh(x) * x + x
        u = rng.standard_normal(out.value.shape)
        v = rng.standard_normal(out.value.shape)
        gu = backward(tape, out, u)["x"]
        gv = backward(tape, out, v)["x"]
        gboth = backward(tape, out, 2.0 * u - 3.0 * v)["x"]
        np.testing.assert_allclose(gboth, 2.0 * gu - 3.0 * gv, atol=1e-12)

    def test_seed_shape_checked(self):
        tape = Tape()
        x = tape.param("x", np.ones((2, 2)))
        with pytest.raises(ValueError, match="seed shape"):
            backward(tape, x.sum(), np.ones(3))

    def test_unregistered_op_named_in_error(self):
        tape = Tape()
        x = tape.param("x", np.ones((1, 1)))
        tape.nodes.append(Node("mystery_op", np.ones((1, 1)), (x.nid,)))
        from cope.autodiff import Var

        bad = Var(tape, len(tape.nodes) - 1)
        with pytest.raises(ValueError, match="no backward rule .* 'mystery_op'"):
            backward(tape, bad)

    def test_repeated_runs_are_bitwise_identical(self):
        rng = np.random.default_rng(53)
        p = init_block(rng, "ccp", (3, 2), 4, 2, order=3)
        z = [rng.uniform(-1, 1, (3, 8)), rng.uniform(-1, 1, (2, 8))]

        def run():
            tape = Tape()
            lifted = lift_model(tape, p)
            from cope.models import ccp_forward_cols

            out = ccp_forward_cols(lifted, z)
            return backward(tape, (out * out).sum())

        g1, g2 = run(), run()
        assert g1.keys() == g2.keys()
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_tape_param_names_unique(self):
        tape = Tape()
        tape.param("w", np.ones(1))
        with pytest.raises(ValueError, match="already registered"):
            tape.param("w", np.ones(1))


class TestTransposedMatmul:
    """`tmatmul(a, b)` is one node for `a.T @ b`; its value and gradients
    are the bytes of the transpose + matmul pair it replaces."""

    @staticmethod
    def _pair(a, b, seed, on_tape):
        # the pair: a matmul node fed the transposed matrix, whose gradient
        # is then transposed back, as the transpose node's rule did
        tape = Tape()
        at = tape.param("a", a.T) if on_tape[0] else a.T
        vb = tape.param("b", b) if on_tape[1] else b
        out = at @ vb
        grads = backward(tape, out, seed)
        return out.value, grads.get("a", np.zeros(a.T.shape)).T, grads.get("b")

    @staticmethod
    def _fused(a, b, seed, on_tape):
        tape = Tape()
        va = tape.param("a", a) if on_tape[0] else a
        vb = tape.param("b", b) if on_tape[1] else b
        out = tmatmul(va, vb)
        assert [n.op for n in tape.nodes].count("tmatmul") == 1
        assert "transpose" not in [n.op for n in tape.nodes]
        grads = backward(tape, out, seed)
        return out.value, grads.get("a", np.zeros(a.shape)), grads.get("b")

    @pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True)])
    def test_bytes_match_the_transpose_matmul_pair(self, on_tape):
        rng = np.random.default_rng(59)
        for _ in range(20):
            d, r, n = rng.integers(1, 9, size=3)
            a = rng.standard_normal((d, r))
            b = rng.standard_normal((d, n))
            seed = rng.standard_normal((r, n))
            fused = self._fused(a, b, seed, on_tape)
            pair = self._pair(a, b, seed, on_tape)
            np.testing.assert_array_equal(fused[0], a.T @ b)
            for got, want in zip(fused, pair):
                assert (got is None) == (want is None)
                if got is not None:
                    assert np.array_equal(got, want)

    def test_plain_arrays_stay_off_the_tape(self):
        rng = np.random.default_rng(60)
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
        np.testing.assert_array_equal(tmatmul(a, b), a.T @ b)

    def test_finite_differences(self):
        rng = np.random.default_rng(61)
        c = rng.standard_normal((2, 4))

        def f(p):
            return (tanh(tmatmul(p["a"], p["b"])) * c).sum(axis=(-2, -1))

        params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 4))}
        assert finite_diff_check(f, params)[0] < 1e-7

    def test_rejects_non_matrices(self):
        tape = Tape()
        with pytest.raises(ValueError, match="tmatmul expects matrices"):
            tmatmul(tape.param("a", np.ones(3)), np.ones((3, 2)))


class TestGradientAccumulation:
    """Fan-out sums every contribution into a fresh array: the first one
    may be a read-only broadcast view or an object another slot holds."""

    def test_read_only_broadcast_first_then_second_use(self):
        rng = np.random.default_rng(56)
        w = rng.standard_normal((2, 3))
        tape = Tape()
        x = tape.param("x", rng.standard_normal((2, 3)))
        # x.sum() comes last, so its broadcast view reaches x first
        out = (x * w).sum() + x.sum()
        np.testing.assert_array_equal(backward(tape, out)["x"], w + 1.0)

    def test_keepdims_sum_view_then_second_use(self):
        tape = Tape()
        x = tape.param("x", np.arange(6.0).reshape(2, 3))
        out = (x * 3.0 + x.sum(axis=1, keepdims=True)).sum()
        np.testing.assert_array_equal(backward(tape, out)["x"], np.full((2, 3), 6.0))

    def test_x_plus_x(self):
        tape = Tape()
        x = tape.param("x", np.ones((2, 2)))
        seed = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(backward(tape, x + x, seed)["x"], 2.0 * seed)

    def test_x_times_x(self):
        rng = np.random.default_rng(57)
        x0 = rng.standard_normal((3, 2))
        seed = rng.standard_normal((3, 2))
        tape = Tape()
        x = tape.param("x", x0)
        np.testing.assert_allclose(
            backward(tape, x * x, seed)["x"], 2.0 * x0 * seed, rtol=1e-15
        )

    def test_backward_mutates_no_node_value_nor_seed(self):
        rng = np.random.default_rng(58)
        tape = Tape()
        x = tape.param("x", rng.standard_normal((2, 3)))
        b = tape.param("b", rng.standard_normal((2, 1)))
        y = x + b
        # the last add hands the seed itself to x, which fans out further
        out = (
            (y + y) * x
            + x.sum(axis=0, keepdims=True)
            - tanh(x).reshape((3, 2)).reshape((2, 3))
            + x
        )
        seed = rng.standard_normal(out.shape)
        seed_before = seed.copy()
        values_before = [n.value.copy() for n in tape.nodes]
        backward(tape, out, seed)
        np.testing.assert_array_equal(seed, seed_before)
        for node, before in zip(tape.nodes, values_before):
            np.testing.assert_array_equal(node.value, before)

    def test_returned_gradients_are_writable_and_unshared(self):
        tape = Tape()
        x = tape.param("x", np.ones((2, 2)))
        b = tape.param("b", np.ones((2, 2)))
        seed = np.ones((2, 2))
        grads = backward(tape, x + b, seed)
        for g in grads.values():
            assert g.flags.writeable
            assert not np.shares_memory(g, seed)
        assert not np.shares_memory(grads["x"], grads["b"])


class TestFiniteDiffCheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(54)
        c = rng.standard_normal((1, 4))

        def f(p):
            return (p["w"] * c).sum(axis=(-2, -1))

        err, _ = finite_diff_check(f, {"w": rng.standard_normal((1, 4))}, h=1e-5)
        assert err < 1e-10

    def test_cubic_truncation_error(self):
        # central difference of x^3 at 1 is 3 + h^2
        def f(p):
            x = p["x"]
            return (x * x * x).sum(axis=(-2, -1))

        err, _ = finite_diff_check(f, {"x": np.ones((1, 1))}, h=1e-4)
        assert err == pytest.approx(1e-8 / 3.0, rel=1e-2)

    def test_truncation_past_the_tolerance_is_redone(self):
        # at h = 1e-2 the central difference of x^3 at 1 is 3 + 1e-4, a
        # 3.3e-5 error; the Richardson difference of a cubic is exact
        def f(p):
            x = p["x"]
            return (x * x * x).sum(axis=(-2, -1))

        err, _ = finite_diff_check(f, {"x": np.ones((1, 1))}, h=1e-2)
        assert err < 1e-9

    def test_a_wrong_gradient_still_fails_after_the_redo(self):
        # the tape's gradient of x^3 at 1 is 1e-4 off; the central difference
        # alone would read 6.7e-5, the redone one reads the full 1e-4
        def f(p):
            x = p["x"]
            scale = 1.0 + 1e-4 if hasattr(x, "value") else 1.0
            return (x * x * x * scale).sum(axis=(-2, -1))

        err, _ = finite_diff_check(f, {"x": np.ones((1, 1))}, h=1e-2)
        assert err == pytest.approx(1e-4, rel=1e-3)

    def test_noise_floor_still_sees_a_wrong_gradient(self):
        # a large |f| raises the rounding floor to about 4e-4; a gradient of
        # size 2 that is 1e-4 off is still read at its full relative error
        def f(p):
            w = p["w"]
            scale = 1.0 if hasattr(w, "value") else 1.0 + 1e-4
            return (w * w * scale).sum(axis=(-2, -1)) + 100.0

        err, _ = finite_diff_check(f, {"w": np.ones((1, 3))}, h=1e-5)
        assert err == pytest.approx(1e-4, rel=1e-3)

    def test_gradient_at_the_rounding_noise_is_held_to_that_noise(self):
        # d/dw of 1 + 1e-9 w is far below what a central difference of a
        # value near 1 resolves at h = 1e-5 (eps / h, about 2e-11)
        def f(p):
            return (p["w"] * 1e-9).sum(axis=(-2, -1)) + 1.0

        err, _ = finite_diff_check(f, {"w": np.ones((1, 4))}, h=1e-5)
        assert err < 1e-5

    def test_a_nan_gradient_reads_nan(self):
        # a custom node whose VJP is NaN in the first coordinate and right in
        # the others: the NaN error is neither passed as small nor dropped by
        # the later, smaller ones
        def f(p):
            x = p["x"]
            if not hasattr(x, "value"):
                return (x * 2.0).sum(axis=(-2, -1))

            def vjp(g):
                grad = 2.0 * g
                grad[0, 0] = np.nan
                return [grad]

            return x.tape.custom(2.0 * x.value, [x], vjp).sum()

        err, coordinate = finite_diff_check(f, {"x": np.ones((1, 3))}, h=1e-5)
        assert np.isnan(err)
        assert coordinate == "x[0]"

    def test_nonfinite_perturbation_names_coordinate(self):
        def f(p):
            x = p["x"]
            if not hasattr(x, "value"):
                bad = np.where(np.asarray(x) > 1.5, np.inf, 0.0)
                return np.sum(bad, axis=(-2, -1))
            return x.sum()

        with pytest.raises(ValueError, match=r"perturbing x\[1\]"):
            finite_diff_check(f, {"x": np.array([[1.0, 1.49999]])}, h=1e-4)

    def test_batched_differences_are_the_per_coordinate_loop_bitwise(self):
        # the `gradients` suite's ncp case: an order-3 block over (3, 2)
        # inputs, rank 3, two outputs, at half scale, a batch of 3, h = 1e-3
        rng = np.random.default_rng(62)
        blk = init_block(rng, "ncp", (3, 2), 3, 2, order=3)
        for arr in blk.params.values():
            arr *= 0.5
        z = [rng.uniform(-0.5, 0.5, (3, 3)), rng.uniform(-0.5, 0.5, (2, 3))]
        h = 1e-3
        plain_calls = []

        def f(m):
            out = ncp_forward_cols(m, z)
            value = (out * out).sum(axis=(-2, -1))
            if not isinstance(value, Var):
                plain_calls.append(value)
            return value

        finite_diff_check(f, blk, h=h)
        # the first plain call holds every +h copy, then every -h copy
        values = plain_calls[0]
        n = values.size // 2
        batched = (values[:n] - values[n:]) / (2.0 * h)

        params = model_parameters(blk)
        flat = np.concatenate([a.ravel() for a in params.values()])
        stops = np.cumsum([a.size for a in params.values()])
        assert n == flat.size
        loop = np.empty(n)
        for i in range(n):
            ends = []
            for x in (flat[i] + h, flat[i] - h):
                moved = flat.copy()
                moved[i] = x
                pieces = np.split(moved, stops[:-1])
                arrays = {
                    name: piece.reshape(a.shape)
                    for (name, a), piece in zip(params.items(), pieces)
                }
                out = ncp_forward_cols(with_parameters(blk, arrays), z)
                ends.append(float((out * out).sum()))
            loop[i] = (ends[0] - ends[1]) / (2.0 * h)
        assert batched.tobytes() == loop.tobytes()

    def test_names_the_worst_coordinate(self):
        # only w[2] has a wrong gradient, 1e-3 off
        def f(p):
            w = p["w"]
            scale = np.array([1.0, 1.0, 1.0 + 1e-3]) if hasattr(w, "value") else 1.0
            return (w * w * scale).sum(axis=(-2, -1))

        err, coordinate = finite_diff_check(f, {"w": np.ones((1, 3))}, h=1e-5)
        assert err == pytest.approx(1e-3, rel=1e-2)
        assert coordinate == "w[2]"

    @pytest.mark.parametrize("whole", [True, False], ids=["model", "block"])
    def test_a_model_is_checked_on_a_copy(self, whole):
        # f gets a model of the caller's kind, never the caller's own; the
        # caller's arrays stay the same objects with the same bytes
        rng = np.random.default_rng(56)
        spec = init_chain(rng, (3, 2), (2, 2), rank=3, hidden_dim=3, out_dim=2)
        model = spec if whole else spec.blocks[0]
        z = [rng.uniform(-0.5, 0.5, (3, 4)), rng.uniform(-0.5, 0.5, (2, 4))]
        forward = product_compose if whole else ccp_forward_cols
        arrays = model_parameters(model)
        before = {name: a.tobytes() for name, a in arrays.items()}
        seen = []

        def f(m):
            seen.append(m)
            out = forward(m, z)
            return (out * out).sum(axis=(-2, -1))

        assert finite_diff_check(f, model, h=1e-4)[0] < 1e-5
        assert all(type(m) is type(model) and m is not model for m in seen)
        after = model_parameters(model)
        assert after.keys() == arrays.keys()
        for name, a in arrays.items():
            assert after[name] is a
            assert a.tobytes() == before[name]

    def test_hadamard_heavy_chain_stays_finite(self):
        rng = np.random.default_rng(55)
        spec = init_chain(
            rng, (3, 2), (2, 3), rank=4, hidden_dim=3, out_dim=2,
        )
        z = [rng.uniform(-1, 1, (3, 16)), rng.uniform(-1, 1, (2, 16))]
        tape = Tape()
        lifted = lift_model(tape, spec)
        out = product_compose(lifted, z)
        loss = (out * out).mean()
        grads = backward(tape, loss)
        assert np.isfinite(loss.value)
        assert all(np.isfinite(g).all() for g in grads.values())
