import itertools
from fractions import Fraction

import numpy as np
import pytest

from cope.models import ChainBlock, ModelSpec, init_block, product_compose
from cope.oracle import (
    OracleParams,
    build_coupled_tensors,
    degree_probe,
    eval_explicit,
    expansion_term_keys,
)


def term_shape(key, input_dims, output_dim):
    return (output_dim,) + tuple(input_dims[phi] for phi in key)


def ones_oracle(order, input_dims, output_dim=1, n_vars=2):
    tensors = {
        key: np.ones(term_shape(key, input_dims, output_dim))
        for key in expansion_term_keys(order, n_vars)
    }
    return OracleParams(
        order=order,
        input_dims=input_dims,
        output_dim=output_dim,
        tensors=tensors,
        bias=np.zeros(output_dim),
    )


def ones_ccp(order, n_vars):
    """Scalar ccp block whose every factor, head included, is 1."""
    names = [f"in{n}.v{phi}" for n in range(1, order + 1) for phi in range(n_vars)]
    params = {name: np.ones((1, 1)) for name in names + ["head"]}
    params["head_bias"] = np.zeros(1)
    return ChainBlock("ccp", params)


class TestEvalExplicit:
    def test_first_order_identity_tensors_add_inputs(self):
        d = 3
        params = OracleParams(
            order=1,
            input_dims=(d, d),
            output_dim=d,
            tensors={(1,): np.eye(d), (0,): np.eye(d)},
            bias=np.zeros(d),
        )
        z1 = np.array([[1.0], [2.0], [3.0]])
        z2 = np.array([[10.0], [20.0], [30.0]])
        np.testing.assert_array_equal(eval_explicit(params, [z1, z2]), z1 + z2)

    def test_scalar_all_ones_order2(self):
        params = ones_oracle(2, (1, 1))
        # 3 + 2 + 9 + 6 + 4 with z_noise=2, z_cond=3
        assert eval_explicit(params, [[[2.0]], [[3.0]]]) == pytest.approx(24.0)

    def test_scalar_all_ones_three_variables(self):
        params = ones_oracle(2, (1, 1, 1), n_vars=3)
        # (5+3+2) + (25+15+9+10+6+4) with inputs 2, 3, 5
        out = eval_explicit(params, [[[2.0]], [[3.0]], [[5.0]]])
        assert out == pytest.approx(79.0)

    def test_three_variable_reduces_to_two(self):
        rng = np.random.default_rng(21)
        d1, d2, d3, o, order = 2, 3, 2, 2, 2
        tensors3 = {}
        tensors2 = {}
        for key in expansion_term_keys(order, 3):
            shape = term_shape(key, (d1, d2, d3), o)
            if 2 not in key:
                t = rng.standard_normal(shape)
                tensors3[key] = t
                tensors2[key] = t
            else:
                tensors3[key] = np.zeros(shape)
        bias = rng.standard_normal(o)
        p3 = OracleParams(order, (d1, d2, d3), o, tensors3, bias)
        p2 = OracleParams(order, (d1, d2), o, tensors2, bias)
        z1, z2, z3 = (rng.standard_normal((d, 1)) for d in (d1, d2, d3))
        np.testing.assert_array_equal(
            eval_explicit(p3, [z1, z2, z3]), eval_explicit(p2, [z1, z2])
        )

    def test_linear_in_each_tensor(self):
        rng = np.random.default_rng(22)
        base = ones_oracle(2, (2, 2), output_dim=2)
        for key in base.tensors:
            base.tensors[key] = rng.standard_normal(base.tensors[key].shape)
        z = [rng.standard_normal((2, 1)), rng.standard_normal((2, 1))]
        y0 = eval_explicit(base, z)
        doubled = OracleParams(
            2,
            (2, 2),
            2,
            {k: (2.0 * v if k == (0, 1) else v) for k, v in base.tensors.items()},
            base.bias,
        )
        extra_key_only = OracleParams(
            2,
            (2, 2),
            2,
            {k: (v if k == (0, 1) else np.zeros_like(v)) for k, v in base.tensors.items()},
            np.zeros(2),
        )
        np.testing.assert_allclose(
            eval_explicit(doubled, z),
            y0 + eval_explicit(extra_key_only, z),
            atol=1e-12,
        )

    def test_input_validation(self):
        # the checks and messages of the models' input contract
        params = ones_oracle(1, (2, 2))
        with pytest.raises(ValueError, match=r"expects 2 input\(s\), got 3"):
            eval_explicit(params, [np.zeros((2, 1))] * 3)
        with pytest.raises(ValueError, match=r"input 1 has shape \(3, 1\)"):
            eval_explicit(params, [np.zeros((2, 1)), np.zeros((3, 1))])
        # column batches are the one input form: a vector is not one column
        with pytest.raises(
            ValueError, match=r"input 0 has shape \(2,\), expected \(2, batch\)"
        ):
            eval_explicit(params, [np.zeros(2), np.zeros(2)])


class TestOracleParamsValidation:
    def test_size_guardrails(self):
        with pytest.raises(ValueError, match=r"dimension 9 outside"):
            ones_oracle(1, (9, 2))
        with pytest.raises(ValueError, match=r"order 5 outside"):
            ones_oracle(5, (2, 2))

    def test_missing_term_key(self):
        good = ones_oracle(2, (2, 2))
        bad = dict(good.tensors)
        del bad[(0, 1)]
        with pytest.raises(ValueError, match=r"missing \[\(0, 1\)\]"):
            OracleParams(2, (2, 2), 1, bad, np.zeros(1))

    def test_wrong_tensor_shape(self):
        good = ones_oracle(2, (2, 3))
        bad = dict(good.tensors)
        bad[(0, 1)] = np.ones((1, 3, 2))
        with pytest.raises(ValueError, match=r"tensor \(0, 1\) has shape"):
            OracleParams(2, (2, 3), 1, bad, np.zeros(1))

    def test_leaves_the_callers_dict_untouched(self):
        keys = expansion_term_keys(2, 2)
        given = {key: np.ones(term_shape(key, (2, 3), 1), dtype=int) for key in keys[::-1]}
        arrays = dict(given)
        params = OracleParams(2, (2, 3), 1, given, np.zeros(1))
        assert list(given) == keys[::-1]
        assert all(given[key] is arrays[key] for key in keys)
        assert all(a.dtype == int and (a == 1).all() for a in given.values())
        # the params hold float64 copies, in summation order
        assert params.tensors is not given and list(params.tensors) == keys
        assert all(t.dtype == np.float64 for t in params.tensors.values())


class TestScalarSecondOrder:
    def test_matches_tensor_form(self):
        # (1,) and (1, 1) contract the second variable only, (0, 0) the
        # first only, and the cross matrix (0, 1) has the first on its rows.
        rng = np.random.default_rng(23)
        d = 4
        lin_a, lin_b = rng.standard_normal(d), rng.standard_normal(d)
        quad_a, quad_b, cross = (rng.standard_normal((d, d)) for _ in range(3))
        offset = float(rng.standard_normal())
        params = OracleParams(
            order=2,
            input_dims=(d, d),
            output_dim=1,
            tensors={
                (1,): lin_b[None, :],
                (0,): lin_a[None, :],
                (1, 1): quad_b[None, :, :],
                (0, 1): cross[None, :, :],
                (0, 0): quad_a[None, :, :],
            },
            bias=np.array([offset]),
        )
        for _ in range(10):
            z_a, z_b = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            direct = (
                offset
                + lin_a @ z_a
                + lin_b @ z_b
                + z_a @ quad_a @ z_a
                + z_b @ quad_b @ z_b
                + z_a @ cross @ z_b
            )
            np.testing.assert_allclose(
                eval_explicit(params, [z_a[:, None], z_b[:, None]]), [[direct]], atol=1e-12
            )


class TestTermKeys:
    def test_term_keys_are_pinned(self):
        # the order the oracle sums its terms in, and the order
        # make_poly_regression draws its target tensors in
        assert expansion_term_keys(2, 2) == [(1,), (0,), (1, 1), (0, 1), (0, 0)]
        assert expansion_term_keys(2, 3) == [
            (2,), (1,), (0,),
            (2, 2), (1, 2), (1, 1), (0, 2), (0, 1), (0, 0),
        ]
        assert expansion_term_keys(3, 2) == [
            (1,), (0,), (1, 1), (0, 1), (0, 0),
            (1, 1, 1), (0, 1, 1), (0, 0, 1), (0, 0, 0),
        ]

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_each_order_has_every_sorted_variable_tuple_once(self, n_vars):
        keys = expansion_term_keys(4, n_vars)
        assert [len(k) for k in keys] == sorted(len(k) for k in keys)
        for n in range(1, 5):
            got = [k for k in keys if len(k) == n]
            want = {
                k for k in itertools.product(range(n_vars), repeat=n)
                if list(k) == sorted(k)
            }
            assert len(got) == len(set(got)) == len(want)
            assert set(got) == want
            assert expansion_term_keys(n, n_vars) == [k for k in keys if len(k) <= n]


class TestCoupledTensorBuild:
    def test_all_ones_cross_tensor_is_two(self):
        oracle = build_coupled_tensors(ones_ccp(2, 2))
        assert oracle.tensors[(0, 1)][0, 0, 0] == pytest.approx(2.0)
        assert eval_explicit(oracle, [[[2.0]], [[3.0]]]) == pytest.approx(30.0)

    def test_all_ones_order3_closed_form(self):
        # m = 2 + 3 at every level: 5 * (1 + 5) * (1 + 5)
        oracle = build_coupled_tensors(ones_ccp(3, 2))
        assert eval_explicit(oracle, [[[2.0]], [[3.0]]]) == pytest.approx(180.0)

    def test_matches_recursion_on_random_draws(self):
        rng = np.random.default_rng(24)
        for i in range(48):
            order, n_vars = 1 + i % 4, 2 + (i // 4) % 2
            dims = tuple(int(d) for d in rng.integers(1, 5, size=n_vars))
            k, o = (int(v) for v in rng.integers(1, 5, size=2))
            share = (i // 8) % 2 == 1
            p = init_block(rng, "ccp", dims, k, o, order, share_conditional=share)
            p.params["head_bias"] = rng.uniform(-1, 1, o)
            oracle = build_coupled_tensors(p)
            spec = ModelSpec(dims, [p])
            draws = [[rng.uniform(-1, 1, (d, 1)) for d in dims] for _ in range(3)]
            for zs in draws:
                np.testing.assert_allclose(
                    eval_explicit(oracle, zs), product_compose(spec, zs), atol=1e-9
                )
            # the three draws as one column batch: each column as it was alone
            batch = [np.hstack(z) for z in zip(*draws)]
            np.testing.assert_array_equal(
                eval_explicit(oracle, batch),
                np.hstack([eval_explicit(oracle, zs) for zs in draws]),
            )

    def test_rejects_higher_order(self):
        rng = np.random.default_rng(25)
        with pytest.raises(ValueError, match="order 5 outside"):
            build_coupled_tensors(init_block(rng, "ccp", (2, 2), 3, 1, order=5))

    def test_rejects_other_kinds_arities_and_ranks(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError, match="expected a ccp block"):
            build_coupled_tensors(init_block(rng, "ncp", (2, 2), 3, 1, order=2))
        with pytest.raises(ValueError, match="expected 2 or 3 input variables, got 1"):
            build_coupled_tensors(init_block(rng, "ccp", (2,), 3, 1, order=2))
        with pytest.raises(ValueError, match="rank 9 outside"):
            build_coupled_tensors(init_block(rng, "ccp", (2, 2), 9, 1, order=2))


class TestDegreeProbe:
    def test_polynomials_of_known_degree(self):
        for degree in range(5):
            coef = np.zeros(degree + 1)
            coef[degree] = 1.0
            if degree:
                coef[0] = -0.5

            def f(x, c=coef):
                return np.array([np.polyval(c[::-1], x[0])])

            assert degree_probe(f, np.zeros(1), np.ones(1), max_order=6) == degree

    def test_zero_function(self):
        def f(x):
            return np.zeros((3, x.shape[1]))

        assert degree_probe(f, np.zeros(2), np.ones(2), 4) == 0

    def test_f_gets_every_node_as_one_column_batch(self):
        calls = []

        def f(x):
            calls.append(x)
            return x[:1] ** 2

        assert degree_probe(f, np.array([1.0, 5.0]), np.array([0.5, 0.0]), 3) == 2
        assert len(calls) == 1
        t = np.arange(5.0)
        np.testing.assert_array_equal(calls[0], [1.0 + 0.5 * t, np.full(5, 5.0)])

    def test_exact_is_called_once_and_only_near_the_floor(self):
        # the same quintic as below: its 5th difference sits under the floor
        c = 2.0**-44
        calls = {"f": 0, "exact": 0}

        def f(x):
            calls["f"] += 1
            return x[:1] + c * x[:1] ** 5

        def exact(x):
            calls["exact"] += 1
            return x[:1] + Fraction(c) * x[:1] ** 5

        assert degree_probe(f, np.zeros(1), np.ones(1), 7, exact=exact) == 5
        assert calls == {"f": 1, "exact": 1}
        # at c = 1 the quintic's 5th difference is far above its floor
        calls.update(f=0, exact=0)
        c = 1.0
        assert degree_probe(f, np.zeros(1), np.ones(1), 7, exact=exact) == 5
        assert calls == {"f": 1, "exact": 0}

    def test_f_must_return_one_column_per_node(self):
        with pytest.raises(ValueError, match=r"one column per node, \(out, 4\)"):
            degree_probe(lambda x: np.zeros(3), np.zeros(2), np.ones(2), 2)

    def test_exact_path_reads_a_level_below_the_rounding_floor(self):
        # the quintic's 5th difference, 120 * 2^-44, sits under its floor
        c = 2.0**-44

        def f(x):
            return x[:1] + c * x[:1] ** 5

        def exact(x):
            return x[:1] + Fraction(c) * x[:1] ** 5

        assert degree_probe(f, np.zeros(1), np.ones(1), max_order=7) == 4
        assert degree_probe(f, np.zeros(1), np.ones(1), 7, exact=exact) == 5

    def test_exact_path_saturates_at_max_order(self):
        c = 2.0**-60

        def f(x):
            return c * x[:1] ** 9

        def exact(x):
            return Fraction(c) * x[:1] ** 9

        assert degree_probe(f, np.zeros(1), np.ones(1), 3, exact=exact) == 3

    def test_saturates_at_max_order(self):
        def f(x):
            return np.array([x[0] ** 5])

        assert degree_probe(f, np.zeros(1), np.ones(1), max_order=3) == 3

    def test_multi_output_sums_components(self):
        def f(x):
            return np.array([x[0] ** 2, -(x[0] ** 2) + x[0]])

        # components cancel the quadratic, leaving degree 1
        assert degree_probe(f, np.zeros(1), np.ones(1), max_order=4) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match direction"):
            degree_probe(lambda x: x, np.zeros(2), np.ones(3), 2)
        with pytest.raises(ValueError, match="must be a vector"):
            degree_probe(lambda x: x, np.zeros((2, 1)), np.ones((2, 1)), 2)
