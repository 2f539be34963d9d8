#!/usr/bin/env python3
"""Train a class-conditional generator on K Gaussian clusters with the MMD
loss, then score generated samples by nearest cluster center."""

import argparse
import csv
import os
from pathlib import Path

import numpy as np

from cope.cli import clear_artifacts
from cope.models import init_chain
from cope.rng import stream
from cope.tasks import make_cond_point_cloud, nearest_center
from cope.training import train_conditional


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--classes", type=int, default=4)
    ap.add_argument("--noise-dim", type=int, default=4)
    ap.add_argument("--out", type=Path,
                    default=Path(os.environ.get("COPE_OUT", "cope_runs")) / "conditional_clusters")
    args = ap.parse_args()

    task = make_cond_point_cloud(args.classes, 0.6, 0.05)
    spec = init_chain(
        stream(args.seed, "init"), (args.noise_dim, args.classes), (2, 2),
        rank=16, hidden_dim=8, out_dim=2, output_activation="tanh",
    )
    clear_artifacts(args.out, "train-conditional")
    result = train_conditional(
        spec, task, steps=args.steps, batch_size=64, seed=args.seed,
        out_dir=args.out, loss_kind="mmd", noise_dim=args.noise_dim,
        eval_samples=1000, sweep_points=9,
    )

    rows = list(csv.reader(open(args.out / "samples.csv")))[1:]
    cls = np.array([int(r[0]) for r in rows])
    pts = np.array([[float(r[1]), float(r[2])] for r in rows]).T
    accuracy = float(np.mean(nearest_center(task, pts) == cls))
    print(f"final loss {result.final_loss:.4e} after {result.steps_run} steps")
    print(f"nearest-center accuracy {accuracy:.4f} on {len(cls)} samples")
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
