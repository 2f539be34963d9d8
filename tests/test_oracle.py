import numpy as np
import pytest

from cope.models import ChainBlock, ModelSpec, init_ccp, product_compose
from cope.oracle import (
    OracleParams,
    SecondOrderWeights,
    build_order2_coupled_tensors,
    degree_probe,
    eval_explicit,
    eval_scalar_second_order,
    expansion_term_keys,
    second_order_oracle,
)


def ones_oracle(order, input_dims, output_dim=1, n_vars=2):
    keys = expansion_term_keys(order, n_vars)
    tensors = {}
    for key in keys:
        n = key[0]
        if n_vars == 2:
            _, rho = key
            shape = (output_dim,) + (rho - 1) * (input_dims[0],) + (n + 1 - rho) * (
                input_dims[1],
            )
        else:
            _, rho, delta = key
            shape = (
                (output_dim,)
                + (rho - 1) * (input_dims[0],)
                + (delta - rho) * (input_dims[1],)
                + (n + 1 - delta) * (input_dims[2],)
            )
        tensors[key] = np.ones(shape)
    return OracleParams(
        order=order,
        input_dims=input_dims,
        output_dim=output_dim,
        tensors=tensors,
        bias=np.zeros(output_dim),
    )


class TestEvalExplicit:
    def test_first_order_identity_tensors_add_inputs(self):
        d = 3
        params = OracleParams(
            order=1,
            input_dims=(d, d),
            output_dim=d,
            tensors={(1, 1): np.eye(d), (1, 2): np.eye(d)},
            bias=np.zeros(d),
        )
        z1 = np.array([1.0, 2.0, 3.0])
        z2 = np.array([10.0, 20.0, 30.0])
        np.testing.assert_array_equal(eval_explicit(params, [z1, z2]), z1 + z2)

    def test_scalar_all_ones_order2(self):
        params = ones_oracle(2, (1, 1))
        # 3 + 2 + 9 + 6 + 4 with z_noise=2, z_cond=3
        assert eval_explicit(params, [[2.0], [3.0]]) == pytest.approx(24.0)

    def test_scalar_all_ones_three_variables(self):
        params = ones_oracle(2, (1, 1, 1), n_vars=3)
        # (5+3+2) + (25+15+9+10+6+4) with inputs 2, 3, 5
        out = eval_explicit(params, [[2.0], [3.0], [5.0]])
        assert out == pytest.approx(79.0)

    def test_three_variable_reduces_to_two(self):
        rng = np.random.default_rng(21)
        d1, d2, d3, o, order = 2, 3, 2, 2, 2
        tensors3 = {}
        tensors2 = {}
        for key in expansion_term_keys(order, 3):
            n, rho, delta = key
            shape = (
                (o,)
                + (rho - 1) * (d1,)
                + (delta - rho) * (d2,)
                + (n + 1 - delta) * (d3,)
            )
            if delta == n + 1:
                t = rng.standard_normal(shape)
                tensors3[key] = t
                tensors2[(n, rho)] = t
            else:
                tensors3[key] = np.zeros(shape)
        bias = rng.standard_normal(o)
        p3 = OracleParams(order, (d1, d2, d3), o, tensors3, bias)
        p2 = OracleParams(order, (d1, d2), o, tensors2, bias)
        z1, z2, z3 = rng.standard_normal(d1), rng.standard_normal(d2), rng.standard_normal(d3)
        np.testing.assert_array_equal(
            eval_explicit(p3, [z1, z2, z3]), eval_explicit(p2, [z1, z2])
        )

    def test_linear_in_each_tensor(self):
        rng = np.random.default_rng(22)
        base = ones_oracle(2, (2, 2), output_dim=2)
        for key in base.tensors:
            base.tensors[key] = rng.standard_normal(base.tensors[key].shape)
        z = [rng.standard_normal(2), rng.standard_normal(2)]
        y0 = eval_explicit(base, z)
        doubled = OracleParams(
            2,
            (2, 2),
            2,
            {k: (2.0 * v if k == (2, 2) else v) for k, v in base.tensors.items()},
            base.bias,
        )
        extra_key_only = OracleParams(
            2,
            (2, 2),
            2,
            {k: (v if k == (2, 2) else np.zeros_like(v)) for k, v in base.tensors.items()},
            np.zeros(2),
        )
        np.testing.assert_allclose(
            eval_explicit(doubled, z),
            y0 + eval_explicit(extra_key_only, z),
            atol=1e-12,
        )

    def test_input_validation(self):
        params = ones_oracle(1, (2, 2))
        with pytest.raises(ValueError, match="expected 2 inputs, got 3"):
            eval_explicit(params, [np.zeros(2)] * 3)
        with pytest.raises(ValueError, match=r"input 1 has shape \(3,\)"):
            eval_explicit(params, [np.zeros(2), np.zeros(3)])


class TestOracleParamsValidation:
    def test_size_guardrails(self):
        with pytest.raises(ValueError, match=r"dimension 9 outside"):
            ones_oracle(1, (9, 2))
        with pytest.raises(ValueError, match=r"order 5 outside"):
            ones_oracle(5, (2, 2))

    def test_missing_term_key(self):
        good = ones_oracle(2, (2, 2))
        bad = dict(good.tensors)
        del bad[(2, 2)]
        with pytest.raises(ValueError, match=r"missing \[\(2, 2\)\]"):
            OracleParams(2, (2, 2), 1, bad, np.zeros(1))

    def test_wrong_tensor_shape(self):
        good = ones_oracle(2, (2, 3))
        bad = dict(good.tensors)
        bad[(2, 2)] = np.ones((1, 3, 2))
        with pytest.raises(ValueError, match=r"tensor \(2, 2\) has shape"):
            OracleParams(2, (2, 3), 1, bad, np.zeros(1))


class TestScalarSecondOrder:
    def test_all_ones_value(self):
        d = 1
        w = SecondOrderWeights(
            lin_noise=np.ones(d),
            lin_cond=np.ones(d),
            quad_noise=np.ones((d, d)),
            quad_cond=np.ones((d, d)),
            quad_cross=np.ones((d, d)),
        )
        assert eval_scalar_second_order(w, [2.0], [3.0]) == pytest.approx(24.0)

    def test_matches_tensor_form(self):
        rng = np.random.default_rng(23)
        d = 4
        w = SecondOrderWeights(
            lin_noise=rng.standard_normal(d),
            lin_cond=rng.standard_normal(d),
            quad_noise=rng.standard_normal((d, d)),
            quad_cond=rng.standard_normal((d, d)),
            quad_cross=rng.standard_normal((d, d)),
            offset=float(rng.standard_normal()),
        )
        oracle = second_order_oracle(w)
        for _ in range(10):
            zn, zc = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
            direct = eval_scalar_second_order(w, zn, zc)
            tensorized = eval_explicit(oracle, [zn, zc])
            np.testing.assert_allclose(tensorized, [direct], atol=1e-12)


class TestCoupledTensorBuild:
    def test_all_ones_cross_tensor_is_two(self):
        names = ("in1.v0", "in1.v1", "in2.v0", "in2.v1", "head")
        p = ChainBlock(
            "ccp",
            {**{n: np.ones((1, 1)) for n in names}, "head_bias": np.zeros(1)},
            False,
            (0, 1),
        )
        oracle = build_order2_coupled_tensors(p)
        assert oracle.tensors[(2, 2)][0, 0, 0] == pytest.approx(2.0)
        assert eval_explicit(oracle, [[2.0], [3.0]]) == pytest.approx(30.0)

    def test_matches_recursion_on_random_draws(self):
        rng = np.random.default_rng(24)
        for i in range(25):
            d1, d2, k, o = rng.integers(1, 6, size=4)
            share = i % 2 == 1
            p = init_ccp(
                rng, (int(d1), int(d2)), int(k), int(o), order=2, share_conditional=share
            )
            oracle = build_order2_coupled_tensors(p)
            spec = ModelSpec((int(d1), int(d2)), [p])
            for _ in range(5):
                z1, z2 = rng.uniform(-1, 1, int(d1)), rng.uniform(-1, 1, int(d2))
                np.testing.assert_allclose(
                    eval_explicit(oracle, [z1, z2]),
                    product_compose(spec, [z1, z2]),
                    atol=1e-9,
                )

    def test_rejects_higher_order(self):
        rng = np.random.default_rng(25)
        p = init_ccp(rng, (2, 2), 3, 1, order=3)
        with pytest.raises(ValueError, match="order 2"):
            build_order2_coupled_tensors(p)


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
        assert degree_probe(lambda x: np.zeros(3), np.zeros(2), np.ones(2), 4) == 0

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
