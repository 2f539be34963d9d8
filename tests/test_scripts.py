"""The demo scripts under scripts/ run end to end through `cope.cli`:
each exits 0, prints its summary and leaves the command's artifacts, and
exits as `cope` does when its config is rejected."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cope.checkpoint import load_model
from cope.training import count_parameters, matched_additive_rank

ROOT = Path(__file__).resolve().parents[1]
REGRESSION_FILES = ["checkpoint.json", "metrics.csv", "resolved_config.json"]
CONDITIONAL_FILES = sorted(REGRESSION_FILES + ["samples.csv", "sweep.csv"])
NUMBER = r"[0-9.e+-]+"


def _script(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )


def _run(script, out):
    """stdout lines of `script --steps 3 --out out`, which must exit 0."""
    done = _script(script, "--steps", 3, "--out", out)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_regression_gap_runs_both_chains_at_matched_size(tmp_path):
    lines = _run("regression_gap.py", tmp_path)
    ccp_params = count_parameters(load_model(tmp_path / "ccp" / "checkpoint.json"))
    rank = matched_additive_rank((2, 2), 3, 1, ccp_params)
    add_params = count_parameters(load_model(tmp_path / "additive" / "checkpoint.json"))
    assert re.fullmatch(
        rf"ccp      rank  16 +{ccp_params} params  mse {NUMBER}  \(3 steps\)", lines[-4]
    )
    assert re.fullmatch(
        rf"additive rank +{rank} +{add_params} params  mse {NUMBER}  \(3 steps\)", lines[-3]
    )
    assert lines[-2] == "affine   least-squares optimum  mse 5.758e-01"
    assert re.fullmatch(
        rf"gap: {NUMBER}x   artifacts in {re.escape(str(tmp_path))}", lines[-1]
    )
    assert _files(tmp_path) == ["additive", "ccp"]
    for variant, want_rank in (("ccp", 16), ("additive", rank)):
        assert _files(tmp_path / variant) == REGRESSION_FILES
        resolved = json.loads((tmp_path / variant / "resolved_config.json").read_text())
        got = (resolved["variant"], resolved["rank"], resolved["steps"])
        assert got == (variant, want_rank, 3)


def test_conditional_clusters_scores_its_samples(tmp_path):
    lines = _run("conditional_clusters.py", tmp_path)
    assert re.fullmatch(rf"final loss {NUMBER} after 3 steps", lines[-3])
    assert re.fullmatch(rf"nearest-center accuracy {NUMBER} on 4000 samples", lines[-2])
    assert lines[-1] == f"artifacts in {tmp_path}"
    assert _files(tmp_path) == CONDITIONAL_FILES


def test_gan_demo_trains_the_adversarial_generator(tmp_path):
    lines = _run("gan_demo.py", tmp_path)
    assert re.fullmatch(rf"final generator loss {NUMBER} after 3 steps", lines[-2])
    assert lines[-1] == f"artifacts in {tmp_path} (metrics.csv has the discriminator trace)"
    assert _files(tmp_path) == CONDITIONAL_FILES
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["loss"] == "gan"


@pytest.mark.parametrize(
    "script", ["regression_gap.py", "conditional_clusters.py", "gan_demo.py"]
)
def test_rejected_config_exits_2_and_writes_nothing(tmp_path, script):
    out = tmp_path / "run"
    done = _script(script, "--steps", 0, "--out", out)
    assert done.returncode == 2
    assert "config error: field 'steps'" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_verify_sweep_out_under_a_file_exits_1_without_traceback(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    done = _script("verify_sweep.py", 0, "--out", taken / "sweep")
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("seeds", [str(2**64), f"0-{2**64}"])
def test_verify_sweep_seed_past_u64_exits_2_and_writes_nothing(tmp_path, seeds):
    out = tmp_path / "sweep"
    done = _script("verify_sweep.py", seeds, "--out", out)
    assert done.returncode == 2
    assert "is not within [0, 2**64)" in done.stderr
    assert not out.exists()


def test_degree_report_runs_its_preset(tmp_path):
    done = _script("degree_report.py", "--orders", 2, 3, "--out", tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "degree_report.json").read_text())
    assert report["block_orders"] == [2, 3]
    assert report["degrees"]["joint"] == 6
    assert _files(tmp_path) == ["degree_report.json", "resolved_config.json"]
