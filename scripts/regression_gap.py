#!/usr/bin/env python3
"""Fit a random cubic with a multiplicative chain and with an additive
chain at matched parameter count, then print the MSE gap."""

import argparse
import os
from pathlib import Path

from cope.cli import clear_artifacts
from cope.models import init_chain
from cope.rng import stream
from cope.tasks import make_poly_regression
from cope.training import count_parameters, matched_additive_rank, train_regression


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--rank", type=int, default=16)
    ap.add_argument("--degree", type=int, default=3)
    ap.add_argument("--out", type=Path,
                    default=Path(os.environ.get("COPE_OUT", "cope_runs")) / "regression_gap")
    args = ap.parse_args()

    task = make_poly_regression(stream(args.seed, "data"), args.degree, 2, 1, 256)

    def fit(kind, rank, sub):
        spec = init_chain(
            stream(args.seed, "init"), (2, 2), (args.degree,), rank=rank,
            hidden_dim=8, out_dim=1, kind=kind,
        )
        clear_artifacts(args.out / sub, "train-regression")
        result = train_regression(
            spec, task.inputs, task.outputs, steps=args.steps,
            out_dir=args.out / sub, stop_loss=5e-5,
        )
        return count_parameters(spec), result

    ccp_params, ccp = fit("ccp", args.rank, "ccp")
    add_rank = matched_additive_rank((2, 2), args.degree, 1, ccp_params)
    add_params, add = fit("additive", add_rank, "additive")

    print(f"ccp      rank {args.rank:3d}  {ccp_params:4d} params  "
          f"mse {ccp.final_loss:.3e}  ({ccp.steps_run} steps)")
    print(f"additive rank {add_rank:3d}  {add_params:4d} params  "
          f"mse {add.final_loss:.3e}  ({add.steps_run} steps)")
    print(f"gap: {add.final_loss / ccp.final_loss:.0f}x   artifacts in {args.out}")


if __name__ == "__main__":
    main()
