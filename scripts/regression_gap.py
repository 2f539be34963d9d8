#!/usr/bin/env python3
"""Fit a random cubic with a multiplicative chain and with an additive
chain at matched parameter count, then print the MSE gap and the least MSE
any affine map reaches, which bounds every additive model."""

import argparse
import csv
import sys
from pathlib import Path

from cope.checkpoint import load_model
from cope.cli import _regression_data, exit_status, run_experiment, runs_root
from cope.config import resolve
from cope.tasks import best_affine_mse
from cope.training import count_parameters, matched_additive_rank


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--rank", type=int, default=16)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--out", type=Path, default=runs_root() / "regression_gap")
    args = ap.parse_args()

    def fit(variant, rank):
        """`cope train-regression` into out/<variant>; returns its resolved
        config, the model's parameter count and metrics.csv's last (step,
        mse) row."""
        out = args.out / variant
        values = {
            "command": "train-regression", "task": "poly-regression",
            "target_degree": args.degree, "input_dim": 2, "output_dim": 1,
            "train_samples": 256, "variant": variant, "block_orders": [args.degree],
            "rank": rank, "hidden_dim": 8, "stop_mse": 5e-5,
        }
        cfg = resolve(values, {
            "seed": args.seed, "steps": args.steps, "output_dir": str(out),
        })
        run_experiment(cfg)
        step, mse = list(csv.reader((out / "metrics.csv").read_text().splitlines()))[-1]
        params = count_parameters(load_model(out / "checkpoint.json"))
        return cfg, params, int(step), float(mse)

    cfg, ccp_params, ccp_steps, ccp_mse = fit("ccp", args.rank)
    add_rank = matched_additive_rank((2, 2), args.degree, 1, ccp_params)
    _, add_params, add_steps, add_mse = fit("additive", add_rank)
    _, inputs, targets = _regression_data(cfg)

    print(f"ccp      rank {args.rank:3d}  {ccp_params:4d} params  "
          f"mse {ccp_mse:.3e}  ({ccp_steps} steps)")
    print(f"additive rank {add_rank:3d}  {add_params:4d} params  "
          f"mse {add_mse:.3e}  ({add_steps} steps)")
    print(f"affine   least-squares optimum  mse {best_affine_mse(inputs, targets):.3e}")
    print(f"gap: {add_mse / ccp_mse:.0f}x   artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_status(main))
