#!/usr/bin/env python3
"""Train a class-conditional generator on K Gaussian clusters with the MMD
loss, then score generated samples by nearest cluster center."""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from cope.cli import cluster_task, exit_status, run_experiment, runs_root
from cope.config import resolve
from cope.tasks import nearest_center


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--noise-dim", type=int, default=4)
    ap.add_argument("--out", type=Path, default=runs_root() / "conditional_clusters")
    args = ap.parse_args()

    values = {
        "command": "train-conditional", "n_classes": args.classes,
        "noise_dim": args.noise_dim, "block_orders": [2, 2], "rank": 16,
        "hidden_dim": 8, "output_activation": "tanh", "loss": "mmd", "batch_size": 64,
    }
    cfg = resolve(values, {
        "seed": args.seed, "steps": args.steps, "output_dir": str(args.out),
    })
    run_experiment(cfg)

    step, loss = list(csv.reader((args.out / "metrics.csv").read_text().splitlines()))[-1][:2]
    rows = list(csv.reader((args.out / "samples.csv").read_text().splitlines()))[1:]
    cls = np.array([int(r[0]) for r in rows])
    pts = np.array([[float(r[1]), float(r[2])] for r in rows]).T
    accuracy = float(np.mean(nearest_center(cluster_task(cfg), pts) == cls))
    print(f"final loss {float(loss):.4e} after {step} steps")
    print(f"nearest-center accuracy {accuracy:.4f} on {len(cls)} samples")
    print(f"artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_status(main))
