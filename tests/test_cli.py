import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cope.checkpoint import load_model
from cope.cli import _RUNNERS, build_parser, exit_status, main, resolve_output_dir
from cope.config import COMMANDS, resolve

# a conditional generator small enough for a step to take milliseconds
_TINY_GENERATOR = {
    "batch_size": 6,
    "rank": 4,
    "hidden_dim": 4,
    "eval_samples": 5,
    "sweep_points": 3,
}


def test_verify_subset_writes_report(tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--suite", "lemma1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert [r["suite"] for r in report["results"]] == ["lemma1"]
    assert report["results"][0]["verdict"] == "pass"
    assert {"trials", "max_deviation", "tolerance", "seconds"} <= set(
        report["results"][0]
    )
    assert report["results"][0]["details"]["worst"].keys() == {"trial", "rows"}
    assert (out / "resolved_config.json").exists()
    assert "lemma1: PASS" in capsys.readouterr().out


def test_unknown_suite_named_in_error(tmp_path, capsys):
    code = main(["verify", "--suite", "nope", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "nope" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a removed option is rejected like any other unknown key
    for key, value in (("spam", 1), ("centering", "none")):
        cfgfile = tmp_path / f"{key}.json"
        cfgfile.write_text(json.dumps({key: value}))
        out = tmp_path / key
        code = main(["verify", "--config", str(cfgfile), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


def test_invalid_field_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"rank": 0}')
    code = main(["verify", "--config", str(cfgfile)])
    assert code == 2
    assert "rank" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, field",
    [
        ({"target_degree": 5}, "target_degree"),
        ({"input_dim": 9}, "input_dim"),
        ({"task": "downsample-1d", "signal_length": 30}, "signal_length"),
        ({"sweep_points": "9"}, "sweep_points"),
        ({"sweep_points": 2.5}, "sweep_points"),
        ({"probe_max_order": "8"}, "probe_max_order"),
        ({"probe_max_order": 2.5}, "probe_max_order"),
        ({"stop_mse": True}, "stop_mse"),
        # json.dumps writes these as the bare NaN and Infinity that json reads
        ({"rank": math.nan}, "rank"),
        ({"seed": math.inf}, "seed"),
        ({"lr": math.nan}, "lr"),
        ({"cluster_std": math.nan}, "cluster_std"),
        ({"eps": math.inf}, "eps"),
        ({"stop_mse": math.nan}, "stop_mse"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": ["a"]}, "output_dir"),
        ({"rank": 8.0}, "rank"),
        ({"lr": 10**400}, "lr"),  # an int too large for a float
    ],
)
def test_out_of_range_config_exits_2_and_writes_nothing(tmp_path, capsys, values, field):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(values))
    out = tmp_path / "run"
    out.mkdir()
    code = main(["train-regression", "--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "values", [{"cluster_std": 0.5}, {"cluster_radius": 0.01}, {"n_classes": 40}]
)
def test_overlapping_clusters_exit_2_and_write_nothing(tmp_path, capsys, values):
    out = tmp_path / "run"
    out.mkdir()
    assert _tiny_run(tmp_path, "train-conditional", out, **values) == 2
    assert f"'{next(iter(values))}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_class_count_too_large_to_allocate_exits_2_and_writes_nothing(tmp_path, capsys):
    # the circle's neighbour gap rejects it before n_classes means exist
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, "train-conditional", out, n_classes=10**13) == 2
    assert "'n_classes'" in capsys.readouterr().err
    assert not out.exists()


def test_train_regression_run_and_flags_override_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression",
        "train_samples": 16,
        "rank": 3,
        "steps": 500,
    }))
    out = tmp_path / "run"
    code = main([
        "train-regression", "--config", str(cfgfile), "--steps", "4",
        "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["steps"] == 4  # flag beat the file value
    assert resolved["seed"] == 11
    assert (out / "metrics.csv").read_text().count("\n") == 5
    assert (out / "checkpoint.json").exists()
    assert "final mse" in capsys.readouterr().out


def test_train_regression_defaults_to_poly_task(tmp_path):
    out = tmp_path / "run"
    code = main(["train-regression", "--steps", "2", "--out", str(out)])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["task"] == "poly-regression"


def test_conditional_task_guard(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text('{"task": "poly-regression"}')
    code = main([
        "train-conditional", "--config", str(cfgfile), "--steps", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "poly-regression" in capsys.readouterr().err


def test_train_conditional_smoke(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "batch_size": 6,
        "rank": 4,
        "hidden_dim": 4,
        "eval_samples": 5,
        "sweep_points": 3,
    }))
    out = tmp_path / "run"
    code = main([
        "train-conditional", "--config", str(cfgfile), "--steps", "2",
        "--out", str(out),
    ])
    assert code == 0
    for name in ("metrics.csv", "samples.csv", "sweep.csv", "checkpoint.json"):
        assert (out / name).exists(), name


def test_train_conditional_honours_stop_mse(tmp_path):
    out = tmp_path / "run"
    code = _tiny_run(tmp_path, "train-conditional", out, "--steps", "3", stop_mse=1e9)
    assert code == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 2  # the header and step 1, whose loss is below 1e9
    assert rows[1].startswith("1,")


def test_single_class_run_writes_a_header_only_sweep(tmp_path):
    # one class has no pair to interpolate between
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, "train-conditional", out, n_classes=1) == 0
    assert (out / "sweep.csv").read_text() == "class_a,class_b,t,x0,x1\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_exits_1(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression", "train_samples": 16, "lr": 1e150,
    }))
    code = main([
        "train-regression", "--config", str(cfgfile), "--steps", "10",
        "--out", str(tmp_path / "run"),
    ])
    assert code == 1
    assert "diverged" in capsys.readouterr().err


def test_value_error_during_a_run_exits_1(tmp_path, capsys, monkeypatch):
    def broken_trainer(*args, **kwargs):
        raise ValueError("broken trainer")

    monkeypatch.setattr("cope.cli.train_regression", broken_trainer)
    code = main(["train-regression", "--steps", "1", "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: broken trainer" in err and "config error" not in err


def test_memory_error_during_a_run_exits_1(capsys):
    # a raise, not a real allocation: one too large could be granted and
    # then kill the process on a machine that overcommits memory
    def out_of_memory():
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    assert exit_status(out_of_memory) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 7.28 TiB for an array\n"


def test_degree_report_matches_nominal_order(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "block_orders": [2, 2], "rank": 3, "hidden_dim": 3, "noise_dim": 3,
    }))
    out = tmp_path / "run"
    code = main(["degree-report", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "degree_report.json").read_text())
    assert report["nominal_order"] == 4
    assert report["degrees"]["joint"] == 4
    assert "degree along joint ray: 4" in capsys.readouterr().out


def test_downsample_task_trains_and_reports_its_degree(tmp_path):
    values = {"task": "downsample-1d", "block_orders": [2, 2]}
    out = tmp_path / "train"
    assert _tiny_run(tmp_path, "train-regression", out, "--steps", "3", **values) == 0
    assert (out / "metrics.csv").read_text().count("\n") == 4  # the header and 3 steps
    assert load_model(out / "checkpoint.json").var_dims == (8,)
    report = tmp_path / "report"
    assert _tiny_run(tmp_path, "degree-report", report, **values) == 0
    degrees = json.loads((report / "degree_report.json").read_text())["degrees"]
    assert degrees == {"joint": 4, "input0": 4}


def test_degree_report_reads_a_deep_chain_exactly(tmp_path):
    # on seed 125 the float probe alone reads this chain's joint ray as 7
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "block_orders": [2, 2, 2], "rank": 3, "hidden_dim": 3, "probe_max_order": 10,
    }))
    out = tmp_path / "run"
    argv = ["degree-report", "--config", str(cfgfile), "--seed", "125", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "degree_report.json").read_text())
    assert report["degrees"] == {"joint": 8, "input0": 8, "input1": 8}


def test_degree_report_past_the_probe_cap_exits_2_and_writes_nothing(tmp_path, capsys):
    # a table this deep is never built: the config is rejected first
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"probe_max_order": 43}))
    out = tmp_path / "run"
    assert main(["degree-report", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "field 'probe_max_order'" in capsys.readouterr().err
    assert not out.exists()


def test_cope_out_env_is_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("COPE_OUT", str(tmp_path / "root"))
    cfg = resolve({}, {"command": "verify", "seed": 3})
    assert resolve_output_dir(cfg) == tmp_path / "root" / "verify-seed3"
    monkeypatch.delenv("COPE_OUT")
    assert str(resolve_output_dir(cfg)).startswith("cope_runs")


def test_explicit_out_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COPE_OUT", str(tmp_path / "root"))
    cfg = resolve({}, {"command": "verify", "output_dir": str(tmp_path / "here")})
    assert resolve_output_dir(cfg) == tmp_path / "here"


def test_cli_reruns_byte_identical(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "task": "poly-regression", "train_samples": 16, "rank": 3,
    }))
    for sub in ("a", "b"):
        assert main([
            "train-regression", "--config", str(cfgfile), "--steps", "6",
            "--out", str(tmp_path / sub),
        ]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()


def _tiny_run(tmp_path, command, out, *extra, **values):
    """Runs `command` into `out` with tiny settings; returns the exit code."""
    cfgfile = tmp_path / f"{command}.json"
    cfgfile.write_text(json.dumps(
        {**(_TINY_GENERATOR if command == "train-conditional" else {}), **values}
    ))
    argv = [command, "--config", str(cfgfile), "--out", str(out)]
    if command.startswith("train"):
        argv += ["--steps", "1" if command == "train-conditional" else "2"]
    if command == "verify":
        argv += ["--suite", "lemma1"]
    return main(argv + list(extra))  # a repeated flag's last value wins


def _artifacts(command):
    return ("resolved_config.json", *COMMANDS[command].artifacts)


@pytest.mark.parametrize("command", COMMANDS)
def test_artifact_table_lists_exactly_what_each_command_writes(tmp_path, command):
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, command, out) == 0
    assert sorted(os.listdir(out)) == sorted(_artifacts(command))


def test_every_command_has_a_runner():
    assert list(_RUNNERS) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_flags_follow_the_command_record(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    flags = [f for a in sub._actions for f in a.option_strings if f not in ("-h", "--help")]
    extra = {"steps": "--steps", "suites": "--suite"}
    assert flags == ["--config", "--seed", "--out"] + [
        extra[field] for field in COMMANDS[command].flags
    ]


def test_rerun_writes_fresh_files_not_in_place(tmp_path):
    out, side = tmp_path / "run", tmp_path / "side"
    side.mkdir()
    assert _tiny_run(tmp_path, "train-conditional", out, "--seed", "1") == 0
    old = {}
    for name in _artifacts("train-conditional"):
        os.link(out / name, side / name)
        old[name] = (side / name).read_bytes()
    assert _tiny_run(tmp_path, "train-conditional", out, "--seed", "2") == 0
    for name, data in old.items():
        assert (side / name).read_bytes() == data, name
        assert not os.path.samefile(side / name, out / name), name


def test_script_rerun_writes_fresh_files_not_in_place(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out, link = tmp_path / "run", tmp_path / "old_checkpoint.json"

    def run():
        subprocess.run(
            [sys.executable, str(root / "scripts" / "gan_demo.py"),
             "--steps", "2", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )

    run()
    os.link(out / "checkpoint.json", link)
    old = link.read_bytes()
    run()
    assert link.read_bytes() == old
    assert not os.path.samefile(link, out / "checkpoint.json")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_rerun_leaves_no_stale_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert _tiny_run(tmp_path, "train-conditional", out, "--steps", "5") == 0
    code = _tiny_run(
        tmp_path, "train-conditional", out, "--steps", "5", "--seed", "0", lr=1e300
    )
    assert code == 1
    assert "at step 2" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["metrics.csv", "resolved_config.json"]


def test_rerun_keeps_files_that_are_not_artifacts(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    (out / "samples.csv").write_text("not written by train-regression\n")
    for _ in range(2):
        assert _tiny_run(tmp_path, "train-regression", out) == 0
    assert (out / "notes.txt").read_text() == "mine\n"
    assert (out / "samples.csv").read_text() == "not written by train-regression\n"


@pytest.mark.parametrize(
    "command, task",
    [("train-conditional", "poly-regression"), ("train-regression", "cond-point-cloud")],
)
def test_task_command_mismatch_exits_2_and_writes_nothing(tmp_path, capsys, command, task):
    out = tmp_path / "run"
    out.mkdir()
    assert _tiny_run(tmp_path, command, out, task=task) == 2
    err = capsys.readouterr().err
    assert "field 'task'" in err and task in err
    assert list(out.iterdir()) == []


def test_out_naming_a_file_exits_1_without_traceback(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert main(["degree-report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "a file, not a directory\n"


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "--config", str(missing), "--out", str(tmp_path / "v")]) == 2
    assert "missing.json cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("libc,want", [
    (("glibc", "2.36"), [(-3, 33554432), (-1, 134217728)]),
    (("", ""), []),
])
def test_a_command_sets_the_allocator_thresholds_under_glibc_only(
    tmp_path, monkeypatch, libc, want
):
    import ctypes
    import platform

    calls = []

    class Libc:
        def __init__(self, name):
            assert name is None

        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(ctypes, "CDLL", Libc)
    monkeypatch.setattr(platform, "libc_ver", lambda *args, **kwargs: libc)
    assert main(["verify", "--suite", "lemma1", "--out", str(tmp_path)]) == 0
    assert calls == want


def test_importing_the_cli_sets_no_allocator_threshold():
    root = Path(__file__).resolve().parents[1]
    code = (
        "import ctypes\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
        "import cope.cli\n"
        "assert calls == [], calls\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True,
    )
