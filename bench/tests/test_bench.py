"""Tests of the benchmark itself: its contract file, exact counts, and
that tracing does not change what the program writes.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layer_trace  # noqa: E402
import run  # noqa: E402
from workloads import DIFFERS, WORKLOADS, write_configs  # noqa: E402

run.import_cope()
from cope.checkpoint import load_model  # noqa: E402
from cope.cli import main as cli_main  # noqa: E402

# Short training runs: every step builds the same graph, so per-call counts
# and byte-identity do not depend on the length.
SHORT_STEPS = 12


def _short(workload):
    return replace(workload, commands=tuple(
        replace(c, steps=SHORT_STEPS) if c.steps else c for c in workload.commands
    ))


def _runner(name, seed, work_dir):
    workload = _short(WORKLOADS[name])
    work_dir.mkdir(parents=True)
    write_configs(workload, work_dir)
    return run.WorkloadRunner(workload, seed, work_dir, cli_main, load_model)


def _traced_metrics(name, seed, work_dir):
    runner = _runner(name, seed, work_dir)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        runner.repeat(tracer)
    finally:
        tracer.restore()
    return tracer.layer_metrics()


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == [BENCH.name]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "steps_per_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    want = [*layer_trace.TIMINGS, *layer_trace.COUNTS, "trace.overhead_steps_per_s"]
    assert list(per_layer) == want
    for name in want[:-1]:
        assert per_layer[name] == layer_trace.unit_of(name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_across_runs_and_seeds(name, tmp_path):
    first = _traced_metrics(name, 0, tmp_path / "a")
    again = _traced_metrics(name, 0, tmp_path / "b")
    other = _traced_metrics(name, 7, tmp_path / "c")
    exact = [m for m in layer_trace.COUNTS if m != "checkpoint.bytes"]
    assert first["autodiff.tape_nodes"] > 0
    for m in exact:
        assert first[m] == again[m] == other[m], m
    # float reprs differ in length from seed to seed, so the checkpoint
    # size is exact per seed only
    assert first["checkpoint.bytes"] == again["checkpoint.bytes"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_repeats_write_the_same_outputs(name, tmp_path):
    runner = _runner(name, 3, tmp_path / "w")
    runner.repeat()
    untraced = dict(runner.reference)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        runner.repeat(tracer)
    finally:
        tracer.restore()
    assert all(untraced.values())
    assert not [f for f in runner.failures if DIFFERS in f]
    for cmd in runner.workload.commands:
        if cmd.command != "verify":
            metrics = (tmp_path / "w" / cmd.label / "metrics.csv").read_bytes()
            assert metrics == untraced[cmd.label]


def test_tracer_restores_every_name():
    import cope.training
    import cope.verify

    before = dict(vars(cope.training)), dict(cope.verify.SUITES)
    tracer = layer_trace.Tracer()
    tracer.install()
    assert cope.training.backward is not before[0]["backward"]
    tracer.restore()
    assert dict(vars(cope.training)) == before[0]
    assert dict(cope.verify.SUITES) == before[1]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_a_run_prints_every_metric_of_its_mode(trace, section):
    done = _bench(ROOT, "--workload", "cond-gan", "--seed", "5", "--seconds", "1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in doc[section]
    }


def test_without_sources_the_bench_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "verify", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
