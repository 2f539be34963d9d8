#!/usr/bin/env python3
"""Adversarial variant of the cluster task: same conditional generator,
trained against a small two-hidden-layer discriminator instead of MMD."""

import argparse
import csv
import sys
from pathlib import Path

from cope.cli import exit_status, run_experiment, runs_root
from cope.config import resolve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--disc-hidden", type=int, default=32)
    ap.add_argument("--out", type=Path, default=runs_root() / "gan_demo")
    args = ap.parse_args()

    values = {
        "command": "train-conditional", "block_orders": [2, 2], "rank": 16,
        "hidden_dim": 8, "output_activation": "tanh", "loss": "gan", "batch_size": 64,
        "disc_hidden": args.disc_hidden,
    }
    run_experiment(resolve(values, {
        "seed": args.seed, "steps": args.steps, "output_dir": str(args.out),
    }))

    step, loss = list(csv.reader((args.out / "metrics.csv").read_text().splitlines()))[-1][:2]
    print(f"final generator loss {float(loss):.4e} after {step} steps")
    print(f"artifacts in {args.out} (metrics.csv has the discriminator trace)")
    return 0


if __name__ == "__main__":
    sys.exit(exit_status(main))
