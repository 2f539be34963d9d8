"""One cold set-up of a workload's first command, in a fresh interpreter.

Times importing cope, resolving the command's config and building its task
and model with the helpers `cope.cli` uses before its first step, and
prints the seconds on stdout. run.py starts this several times per run
and reports the median as `setup_s`.

usage: python3 setup_probe.py SRC_DIR CONFIG_JSON COMMAND SEED
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(src, config_path, command, seed):
    sys.path.insert(0, src)
    from cope.cli import _build_chain, _regression_data
    from cope.config import load_file, resolve
    from cope.tasks import make_cond_point_cloud

    file_values = load_file(config_path) if config_path != "-" else {}
    cfg = resolve(file_values, {"command": command, "seed": int(seed)})
    if command == "train-regression":
        var_dims, _, targets = _regression_data(cfg)
        _build_chain(cfg, var_dims, targets.shape[0])
    elif command == "train-conditional":
        make_cond_point_cloud(cfg.n_classes, cfg.cluster_radius, cfg.cluster_std)
        _build_chain(cfg, (cfg.noise_dim, cfg.n_classes), 2)


if __name__ == "__main__":
    main(*sys.argv[1:5])
    print(json.dumps(time.perf_counter() - T0))
