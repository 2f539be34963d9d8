"""Seeds on which a verify suite once failed, each pin naming the defect it
guards against (every suite must pass on every seed); the frame every suite
shares; and the seed sweep script."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cope import verify
from cope.oracle import degree_probe
from cope.verify import (
    SUITES, run_claim1, run_degree_law, run_gradients, run_reductions, run_suites,
)


# A (2, 2, 2) chain's degree-8 level sat below the float probe's rounding
# floor and was read as degree 7 (6 on some seeds); the exact path decides.
@pytest.mark.parametrize("seed", [16, 21, 55, 302, 303])
def test_degree_law_passes(seed):
    result = run_degree_law(seed)
    assert result.passed, result.details


# The probe evaluates a ray's nodes as one column batch, whose forward can
# round unlike one node alone; on these seeds every degree-law ray reads the
# degree that one forward per node reads, the float f runs once a ray and
# the exact f at most once. Seeds 0, 55 and 302 send rays down the exact
# path too.
@pytest.mark.parametrize("seed", [0, 55, 302])
def test_batched_probe_reads_the_per_node_degree(monkeypatch, seed):
    def per_node(f):
        """`f` run on each node alone, as a contiguous one-column batch."""
        def g(x):
            cols = [f(np.ascontiguousarray(x[:, t : t + 1])) for t in range(x.shape[1])]
            return np.concatenate(cols, axis=1)
        return g

    def counted(f, calls):
        def g(x):
            calls.append(x.shape)
            return f(x)
        return g

    rays = []

    def probe(f, base, direction, max_order, exact):
        calls, exact_calls = [], []
        got = degree_probe(
            counted(f, calls), base, direction, max_order,
            exact and counted(exact, exact_calls),
        )
        ref = degree_probe(
            per_node(f), base, direction, max_order, exact and per_node(exact)
        )
        rays.append((got, ref, len(calls), len(exact_calls)))
        return got

    monkeypatch.setattr(verify, "degree_probe", probe)
    assert run_degree_law(seed).passed
    assert len(rays) == 200
    assert all(got == ref for got, ref, _, _ in rays)
    assert all(n == 1 and n_exact <= 1 for _, _, n, n_exact in rays)


# The tanh chain's smallest gradients (about 1e-8) sat at the central
# difference's rounding noise, which the fixed 1e-8 floor read as a 1.2e-5
# relative error. On seed 1685 the difference's h^2 truncation read 1.25e-5;
# the Richardson redo of that coordinate removes it.
@pytest.mark.parametrize("seed", [225, 537, 584, 1251, 1685])
def test_gradients_pass(seed):
    result = run_gradients(seed)
    assert result.passed, result.max_deviation


# -- the shared frame: one worst-trial record for every suite --------------


def test_a_nan_deviation_fails_and_names_the_first_nan_trial(monkeypatch):
    # calls 2 and 7 are pi-net in instance 0 and ncp in instance 1; a larger
    # finite deviation after the first NaN does not displace it. Call k
    # names coordinate x[k] as its worst.
    devs = [1e-6, 0.0, math.nan, 0.0, 0.0, 1.0, 0.0, math.nan] + [0.0] * 4
    values = iter((dev, f"x[{k}]") for k, dev in enumerate(devs))
    monkeypatch.setattr(verify, "finite_diff_check", lambda *a, **k: next(values))
    result = run_gradients(0, instances=2)
    assert result.trials == 12
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert result.details["worst"] == {"case": "pi-net", "instance": 0, "coordinate": "x[2]"}


def test_a_nan_forward_fails_claim1(monkeypatch):
    monkeypatch.setattr(verify, "eval_explicit", lambda oracle, zs: math.nan)
    result = run_claim1(seed=0, draws=3, pairs=2)
    assert (result.trials, result.passed) == (6, False)
    assert math.isnan(result.max_deviation)
    assert {"draw": 0, "pair": 0}.items() <= result.details["worst"].items()


def test_reductions_names_its_worst_reduction():
    worst = run_reductions(seed=3).report_row()["details"]["worst"]
    assert worst.keys() == {"instance", "draw", "reduction"}
    assert worst["reduction"] in ("pi-net", "two-variable", "spade")


def test_gradients_names_its_worst_coordinate():
    worst = run_gradients(seed=0, instances=2).details["worst"]
    assert worst.keys() == {"case", "instance", "coordinate"}
    assert re.fullmatch(r"(b\d+\.)?[a-z_]+\d*(\.v\d)?\[\d+\]", worst["coordinate"])


def test_suite_order_changes_no_suite_row():
    def rows(names):
        return [
            {k: v for k, v in r.report_row().items() if k != "seconds"}
            for r in run_suites(names, seed=4)
        ]

    forward, backward = rows(["gradients", "lemma1"]), rows(["lemma1", "gradients"])
    assert [r["suite"] for r in forward] == ["gradients", "lemma1"]
    assert forward == backward[::-1]


def test_sweep_writes_one_row_per_seed_and_suite_and_reruns_identically(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "sweep"

    def sweep():
        subprocess.run(
            [sys.executable, str(root / "scripts" / "verify_sweep.py"),
             "2", "2-2", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        return (out / "verify_sweep.csv").read_bytes()

    first = sweep()
    rows = list(csv.DictReader(first.decode().splitlines()))
    assert [r["suite"] for r in rows] == list(SUITES)
    assert {r["seed"] for r in rows} == {"2"}
    assert all(r["verdict"] == "pass" for r in rows)
    assert all(isinstance(json.loads(r["worst"]), dict) for r in rows)
    os.link(out / "verify_sweep.csv", tmp_path / "old.csv")
    assert sweep() == first
    # a rerun writes a fresh file instead of truncating the old one in place
    assert not os.path.samefile(tmp_path / "old.csv", out / "verify_sweep.csv")
