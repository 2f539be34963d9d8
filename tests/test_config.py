import dataclasses
import json

import pytest

from cope.cli import main
from cope.config import (
    _KINDS,
    ConfigError,
    ExperimentConfig,
    _typed,
    dump_resolved,
    load_file,
    resolve,
)


def test_defaults_resolve():
    cfg = resolve({}, {})
    assert cfg.command == "verify"
    assert cfg.block_orders == (2,)


@pytest.mark.parametrize(
    "command, task",
    [("verify", "cond-point-cloud"), ("train-regression", "poly-regression"),
     ("train-conditional", "cond-point-cloud"), ("degree-report", "cond-point-cloud")],
)
def test_resolve_fills_the_command_default_task(command, task):
    assert resolve({}, {"command": command}).task == task


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="unknown config field\\(s\\): ranks"):
        resolve({"ranks": 4}, {})


def test_zero_rank_rejected_by_name():
    with pytest.raises(ConfigError, match="'rank'"):
        resolve({"rank": 0}, {})


def test_bad_enum_rejected_by_name():
    with pytest.raises(ConfigError, match="'variant'"):
        resolve({"variant": "transformer"}, {})


def test_bad_block_orders_rejected():
    with pytest.raises(ConfigError, match="block_orders"):
        resolve({"block_orders": [2, 0]}, {})
    with pytest.raises(ConfigError, match="block_orders"):
        resolve({"block_orders": 2}, {})


def test_probe_max_order_is_capped_where_the_probe_floor_meets_the_values():
    assert resolve({"probe_max_order": 42}, {}).probe_max_order == 42
    with pytest.raises(ConfigError, match=r"field 'probe_max_order' must be in \[1, 43\)"):
        resolve({"probe_max_order": 43}, {})


def test_overrides_beat_file_values():
    cfg = resolve({"seed": 7, "rank": 3}, {"seed": 9})
    assert cfg.seed == 9
    assert cfg.rank == 3


def test_stop_mse_accepts_null_and_rejects_nonpositive():
    assert resolve({"stop_mse": None}, {}).stop_mse is None
    assert resolve({"stop_mse": 1e-4}, {}).stop_mse == 1e-4
    with pytest.raises(ConfigError, match="stop_mse"):
        resolve({"stop_mse": -1.0}, {})


def test_seed_range_checked():
    with pytest.raises(ConfigError, match="seed"):
        resolve({"seed": -1}, {})
    with pytest.raises(ConfigError, match="seed"):
        resolve({"seed": 2**64}, {})


def test_load_file_rejects_non_object(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_file(p)
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_file(p)
    p.write_bytes(b'{"lr": \xff}')
    with pytest.raises(ConfigError, match="JSON"):
        load_file(p)
    # json refuses an integer of over 4,300 digits (a ValueError) where
    # Python limits int parsing; elsewhere it is too large for a float
    p.write_text('{"lr": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError):
        resolve(load_file(p), {})


def test_dump_resolved_round_trips(tmp_path):
    cfg = resolve({"rank": 5, "block_orders": [2, 3]}, {"command": "degree-report"})
    path = tmp_path / "resolved.json"
    dump_resolved(cfg, path)
    doc = json.loads(path.read_text())
    # every field materialized, and feeding the dump back reproduces cfg
    assert set(doc) == {f.name for f in ExperimentConfig.__dataclass_fields__.values()}
    again = resolve(doc, {})
    assert again == cfg


def test_beta_fields_accept_json_integers():
    cfg = resolve({"beta1": 0, "beta2": 0}, {})
    assert (cfg.beta1, cfg.beta2) == (0, 0)
    for name in ("beta1", "beta2"):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            resolve({name: 1}, {})
        with pytest.raises(ConfigError, match=f"'{name}'"):
            resolve({name: True}, {})


@pytest.mark.parametrize(
    "values, field",
    [
        ({"target_degree": 5}, "target_degree"),
        ({"input_dim": 9}, "input_dim"),
        ({"output_dim": 9}, "output_dim"),
    ],
)
def test_oracle_limits_checked_for_poly_regression(values, field):
    with pytest.raises(ConfigError, match=f"'{field}' must be at most"):
        resolve({"task": "poly-regression", **values}, {})
    # the fields mean nothing to the other tasks
    resolve({"task": "cond-point-cloud", **values}, {})


def test_signal_length_must_divide_by_factor():
    with pytest.raises(ConfigError, match="'signal_length'.*'downsample_factor'"):
        resolve({"task": "downsample-1d", "signal_length": 30}, {})
    resolve({"task": "downsample-1d", "signal_length": 32, "downsample_factor": 8}, {})


def test_a_suite_named_twice_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"'suites' names suite\(s\) \['lemma1'\] more"):
        resolve({"suites": ["lemma1", "gradients", "lemma1"]}, {})
    out = tmp_path / "verify"
    argv = ["verify", "--suite", "lemma1", "--suite", "lemma1", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_every_field_declares_a_type_the_gate_checks():
    defaults = ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        assert f.type.removesuffix(" | None") in _KINDS, (f.name, f.type)
        assert _typed(f.name, getattr(defaults, f.name)) == getattr(defaults, f.name)
