#!/usr/bin/env python3
"""Probe the polynomial degree of a randomly initialized chain along its
joint input ray and along each per-variable ray. A preset
`cope degree-report` run."""

import argparse
import sys

from cope.cli import exit_status, run_experiment
from cope.config import resolve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--variant", default="ccp")
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 2])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    values = {"command": "degree-report", "variant": args.variant, "block_orders": args.orders}
    overrides = {"seed": args.seed}
    if args.out:
        overrides["output_dir"] = args.out
    return run_experiment(resolve(values, overrides))


if __name__ == "__main__":
    sys.exit(exit_status(main))
