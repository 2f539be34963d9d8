#!/usr/bin/env python3
"""Adversarial variant of the cluster task: same conditional generator,
trained against a small two-hidden-layer discriminator instead of MMD."""

import argparse
import os
from pathlib import Path

from cope.cli import clear_artifacts
from cope.models import init_chain
from cope.rng import stream
from cope.tasks import make_cond_point_cloud
from cope.training import train_conditional


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--disc-hidden", type=int, default=32)
    ap.add_argument("--out", type=Path,
                    default=Path(os.environ.get("COPE_OUT", "cope_runs")) / "gan_demo")
    args = ap.parse_args()

    task = make_cond_point_cloud(4, 0.6, 0.05)
    spec = init_chain(
        stream(args.seed, "init"), (4, 4), (2, 2), rank=16, hidden_dim=8,
        out_dim=2, output_activation="tanh",
    )
    clear_artifacts(args.out, "train-conditional")
    result = train_conditional(
        spec, task, steps=args.steps, batch_size=64, seed=args.seed,
        out_dir=args.out, loss_kind="gan", noise_dim=4,
        disc_hidden=args.disc_hidden, eval_samples=1000, sweep_points=9,
    )
    print(f"final generator loss {result.final_loss:.4e} after {result.steps_run} steps")
    print(f"artifacts in {args.out} (metrics.csv has the discriminator trace)")


if __name__ == "__main__":
    main()
