#!/usr/bin/env python3
"""Probe the polynomial degree of a randomly initialized chain along its
joint input ray and along each per-variable ray. Thin wrapper over the CLI."""

import argparse
import json
import os
import sys
import tempfile

from cope.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--variant", default="ccp")
    ap.add_argument("--orders", type=int, nargs="+", default=[2, 2])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"variant": args.variant, "block_orders": args.orders}, fh)
        cfg = fh.name
    argv = ["degree-report", "--config", cfg, "--seed", str(args.seed)]
    if args.out:
        argv += ["--out", args.out]
    try:
        return cli_main(argv)
    finally:
        os.remove(cfg)


if __name__ == "__main__":
    sys.exit(main())
