"""Verification suites: brute-force oracles against factorized forwards.

Each suite draws its own seeded stream, so adding or reordering suites
never changes another suite's trials.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .models import (
    ChainBlock,
    ModelSpec,
    ccp_forward_cols,
    init_block,
    init_chain,
    init_concat_linear,
    model_parameters,
    ncp_forward_cols,
    product_compose,
    spade_config,
    spade_forward_cols,
    with_parameters,
)
from .autodiff import finite_diff_check
from .oracle import (
    MAX_ORDER,
    as_fractions,
    build_coupled_tensors,
    degree_probe,
    eval_explicit,
)
from .rng import stream
from .tensors import hadamard, khatri_rao_chain


@dataclass
class SuiteResult:
    suite: str
    trials: int
    max_deviation: float
    tolerance: float
    passed: bool
    seconds: float
    details: dict

    def report_row(self) -> dict:
        row = {k: v for k, v in vars(self).items() if k != "passed"}
        verdict = "pass" if self.passed else "fail"
        return {**row, "verdict": verdict, "seconds": round(self.seconds, 3)}


@dataclass
class Worst:
    """A suite's trial count, its largest deviation and the witness of the
    first trial that reached it. A NaN deviation counts as the largest, and
    the first NaN is the one kept."""

    trials: int = 0
    deviation: float = 0.0
    witness: dict | None = None

    def add(self, dev, **witness) -> None:
        """Count one trial whose deviation is `dev`, named by `witness`."""
        self.trials += 1
        dev = float(dev)
        # `not dev <= max` holds for a larger dev and for NaN; a NaN max stays
        if self.trials == 1 or not (math.isnan(self.deviation) or dev <= self.deviation):
            self.deviation, self.witness = dev, witness


SUITES = {}


def _suite(name: str, stream_index: int, tolerance: float):
    """Register the decorated body as suite `name` and return its runner.

    The runner takes `seed` and the body's size keywords. It hands the body
    `stream(seed, "verify", stream_index)` and a `Worst` to report each
    trial to, and times the run. A body may return `(details, holds)`: extra
    report details and a further condition the suite must meet. The suite
    passes when its largest deviation is below `tolerance` or exactly 0,
    so a tolerance of 0 means exact and a NaN fails.
    """

    def register(body):
        @functools.wraps(body)
        def run(seed: int = 0, **sizes) -> SuiteResult:
            t0 = time.perf_counter()
            worst = Worst()
            rng = stream(seed, "verify", stream_index)
            details, holds = body(rng, worst, **sizes) or ({}, True)
            dev = worst.deviation
            passed = holds and (dev < tolerance or dev == 0.0)
            seconds = time.perf_counter() - t0
            details = {**details, "worst": worst.witness}
            return SuiteResult(name, worst.trials, dev, tolerance, passed, seconds, details)

        SUITES[name] = run
        return run

    return register


@_suite("claim1-equivalence", 0, 1e-9)
def run_claim1(rng, worst, draws: int = 100, pairs: int = 20):
    """Coupled ccp blocks of every order over two or three variables equal
    their materialized tensors."""
    for i in range(draws):
        order = int(rng.integers(1, MAX_ORDER + 1))
        n_vars = int(rng.integers(2, 4))
        dims = tuple(int(v) for v in rng.integers(1, 6, size=n_vars))
        k, o = (int(v) for v in rng.integers(1, 6, size=2))
        p = init_block(rng, "ccp", dims, k, o, order, share_conditional=i % 2 == 1)
        p.params["head_bias"] = rng.uniform(-1.0, 1.0, o)
        oracle = build_coupled_tensors(p)
        # row j holds pair j's variables in turn, as drawn one pair at a time
        x = rng.uniform(-1, 1, (pairs, sum(dims)))
        zs = np.split(x.T, np.cumsum(dims)[:-1])
        diff = eval_explicit(oracle, zs) - product_compose(ModelSpec([p]), zs)
        for j, dev in enumerate(np.max(np.abs(diff), axis=0)):
            worst.add(dev, draw=i, pair=j, order=order, dims=dims)


@_suite("lemma1", 1, 1e-10)
def run_lemma1(rng, worst, trials: int = 100):
    """Khatri-Rao transpose products collapse to Hadamard chains."""
    for t in range(trials):
        n = int(rng.integers(2, 4))
        rows = rng.integers(1, 7, size=n)
        k, l = (int(v) for v in rng.integers(1, 7, size=2))
        a = [rng.uniform(-1, 1, (int(r), k)) for r in rows]
        b = [rng.uniform(-1, 1, (int(r), l)) for r in rows]
        lhs = khatri_rao_chain(a).T @ khatri_rao_chain(b)
        rhs = reduce(hadamard, (ai.T @ bi for ai, bi in zip(a, b)))
        worst.add(np.max(np.abs(lhs - rhs)), trial=t, rows=rows.tolist())


def degree_ray(spec: ModelSpec):
    """`f` and `exact` for `degree_probe` along `spec`'s stacked inputs:
    `product_compose` on a float column batch split along axis 0 by
    `var_dims`, and the same on Fraction batches with every parameter a
    Fraction. `exact` is None when a tanh output keeps the model from being
    a polynomial in exact arithmetic."""
    splits = np.cumsum(spec.var_dims)[:-1]

    def f(x):
        return product_compose(spec, np.split(x, splits))

    if spec.output_activation != "none":
        return f, None

    @functools.cache
    def rational():
        values = model_parameters(spec).items()
        return with_parameters(spec, {name: as_fractions(a) for name, a in values})

    return f, lambda x: product_compose(rational(), np.split(x, splits))


@_suite("degree-law", 2, 0.0)
def run_degree_law(rng, worst, instances: int = 20):
    """Recursion depth sets the polynomial degree; chained blocks multiply it."""
    mismatches = []

    def check(label, spec, expected):
        """Probe `spec` along one random joint input ray."""
        base = rng.uniform(-1, 1, sum(spec.var_dims))
        direction = rng.uniform(-1, 1, sum(spec.var_dims))
        f, exact = degree_ray(spec)
        got = degree_probe(f, base, direction, max_order=expected + 2, exact=exact)
        worst.add(abs(got - expected), case=label)
        if got != expected:
            mismatches.append({"case": label, "expected": expected, "got": got})

    for order in range(1, 5):
        for i in range(instances):
            d1, d2 = (int(v) for v in rng.integers(2, 5, size=2))
            k = int(rng.integers(2, 6))
            o = int(rng.integers(1, 4))
            for kind in ("ccp", "ncp"):
                spec = ModelSpec([init_block(rng, kind, (d1, d2), k, o, order)])
                check(f"{kind} order {order} [{i}]", spec, order)
    for block_orders in ((2, 2), (2, 2, 2)):
        expected = int(np.prod(block_orders))
        for i in range(instances):
            spec = init_chain(
                rng, (2, 2), block_orders, rank=3, hidden_dim=3, out_dim=2
            )
            check(f"chain {block_orders} [{i}]", spec, expected)
    return ({"mismatches": mismatches} if mismatches else {}), True


def _silence_last_input(blk: ChainBlock) -> ChainBlock:
    """Zero the factors of `blk`'s last input in place; return the ccp
    block without that input, sharing the other arrays."""
    phi = blk.n_variables - 1
    for n in range(1, blk.order + 1):
        blk.params[f"in{n}.v{phi}"] = np.zeros_like(blk.params[f"in{n}.v{phi}"])
    return ChainBlock(
        "ccp",
        {name: a for name, a in blk.params.items() if not name.endswith(f".v{phi}")},
    )


@_suite("reductions", 3, 1e-12)
def run_reductions(rng, worst, instances: int = 50):
    """Zeroed or renormalized couplings collapse to the simpler recursions."""
    for i in range(instances):
        d1, d2, k, o = (int(v) for v in rng.integers(2, 5, size=4))
        order = int(rng.integers(2, 4))
        # multiplicative-skip recursion with a silent second input: the
        # one-variable ccp block, which is the Pi-net recursion
        p = init_block(rng, "ccp", (d1, d2), k, o, order)
        two, one = ModelSpec([p]), ModelSpec([_silence_last_input(p)])
        # three-variable recursion with a silent third input
        p3 = init_block(rng, "ccp", (d1, d2, d2), k, o, order)
        three, first_two = ModelSpec([p3]), ModelSpec([_silence_last_input(p3)])
        # gated recursion pinned to the conditioning-by-gating layout
        g = init_block(rng, "ncp", (d1, d2), k, o, order)
        cfg = ModelSpec([spade_config(g)])
        # column j holds draw j's inputs, as drawn one draw at a time
        x = rng.uniform(-1, 1, (3, d1 + d2))
        z1, z2 = x[:, :d1].T, x[:, d1:].T
        diffs = [
            product_compose(two, [z1, z2 * 0]) - product_compose(one, [z1]),
            product_compose(three, [z1, z2, np.zeros_like(z2)])
            - product_compose(first_two, [z1, z2]),
            product_compose(cfg, [z1, z2]) - spade_forward_cols(g, z1, z2),
        ]
        devs = np.max(np.abs(np.stack(diffs)), axis=1)  # (reduction, draw)
        for j in range(3):
            r = int(np.argmax(devs[:, j]))  # the first NaN, if any
            reduction = ("pi-net", "two-variable", "spade")[r]
            worst.add(devs[r, j], instance=i, draw=j, reduction=reduction)


@_suite("affineness", 4, 1e-9)
def run_affineness(rng, worst, rays: int = 50):
    """The additive baseline and the concat baseline, an order-1 ccp block,
    have vanishing second differences on every ray; a generic
    multiplicative recursion of order >= 2 does not."""
    d1, d2, k, o = 4, 3, 5, 3
    curved = 0
    for r in range(rays):
        order = int(rng.integers(2, 4))
        add = ModelSpec([init_block(rng, "additive", (d1, d2), k, o, order)])
        lin = ModelSpec([init_concat_linear(rng, (d1, d2), o)])
        ccp = ModelSpec([init_block(rng, "ccp", (d1, d2), k, o, order)])
        base = rng.uniform(-1, 1, d1 + d2)
        direction = rng.uniform(-1, 1, d1 + d2)
        # the ray's points base + t * direction, t = 0, 1, 2, as columns
        x = base[:, None] + np.arange(3.0) * direction[:, None]

        def second_diff(spec):
            vals = product_compose(spec, [x[:d1], x[d1:]]).sum(axis=0)
            return abs(vals[0] - 2.0 * vals[1] + vals[2])

        baselines = [second_diff(add), second_diff(lin)]
        b = int(np.argmax(baselines))  # the first NaN, if any
        worst.add(baselines[b], ray=r, baseline=("additive", "concat")[b])
        if second_diff(ccp) > 1e-3:
            curved += 1
    fraction = curved / rays
    return {"curved_fraction": fraction}, fraction >= 0.95


@_suite("gradients", 5, 1e-5)
def run_gradients(rng, worst, instances: int = 20):
    """Tape gradients agree with central differences for every variant.

    Parameters and inputs are drawn at half scale. Each parameter of the
    five polynomial variants enters one level once, so their outputs are
    affine and the squared-output loss quadratic in every coordinate:
    central differences are exact there up to rounding noise eps*|f|/h,
    and the step 1e-3 only shrinks that noise. A wrong analytic gradient
    still shows in full. The tanh chain has truncation error and keeps
    the step 1e-5. The worst trial names its coordinate.
    """
    batch = 3
    for i in range(instances):
        d1, d2, k, o = 3, 2, 3, 2
        z = [rng.uniform(-0.5, 0.5, (d1, batch)), rng.uniform(-0.5, 0.5, (d2, batch))]
        zs = rng.uniform(-0.5, 0.5, (d1, batch))
        cases = {  # name: (model, forward)
            "ccp": (init_block(rng, "ccp", (d1, d2), k, o, order=3),
                    lambda m: ccp_forward_cols(m, z)),
            "ncp": (init_block(rng, "ncp", (d1, d2), k, o, order=3),
                    lambda m: ncp_forward_cols(m, z)),
            "pi-net": (init_block(rng, "ccp", (d1,), k, o, order=3),
                       lambda m: ccp_forward_cols(m, [zs])),
            "additive": (init_block(rng, "additive", (d1, d2), k, o, order=3),
                         lambda m: ncp_forward_cols(m, z)),
            "spade": (init_block(rng, "ncp", (d1, d2), k, o, order=3),
                      lambda m: spade_forward_cols(m, z[0], z[1])),
            "tanh chain": (init_chain(rng, (d1, d2), (2, 2), rank=k, hidden_dim=3,
                                      out_dim=o, output_activation="tanh"),
                           lambda m: product_compose(m, z)),
        }
        for case, (model, forward) in cases.items():
            h = 1e-5 if case == "tanh chain" else 1e-3
            for arr in model_parameters(model).values():
                arr *= 0.5

            def f(m, forward=forward):
                out = forward(m)
                return (out * out).sum(axis=(-2, -1))

            dev, coordinate = finite_diff_check(f, model, h=h)
            worst.add(dev, case=case, instance=i, coordinate=coordinate)


def run_suites(names=None, seed: int = 0) -> list[SuiteResult]:
    names = list(names) if names else list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {unknown}; available: {list(SUITES)}"
        )
    return [SUITES[n](seed=seed) for n in names]
