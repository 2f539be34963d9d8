#!/usr/bin/env python3
"""Run every verify suite on each seed and write one CSV row per seed and
suite to DIR/verify_sweep.csv: the seed, the suite, the verdict, the
trials, the max deviation, the tolerance and the worst trial as compact
JSON. No timings are written, so a rerun gives the same bytes. Exits 1 if
any row fails.

    python scripts/verify_sweep.py 0-49 55 225 --out sweep
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from cope.cli import exit_status, runs_root
from cope.verify import run_suites

FIELDS = ("seed", "suite", "verdict", "trials", "max_deviation", "tolerance", "worst")


def seed_range(arg: str) -> range:
    """`N` or `A-B`, both ends included, of the seeds `cope` takes: [0, 2**64)."""
    lo, _, hi = arg.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {arg!r}")
    if seeds[-1] >= 2**64:
        raise argparse.ArgumentTypeError(f"seed range {arg!r} is not within [0, 2**64)")
    return seeds


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("seeds", nargs="+", type=seed_range, metavar="SEEDS",
                    help="a seed or an inclusive range such as 0-49")
    ap.add_argument("--out", type=Path, default=runs_root() / "verify_sweep")
    args = ap.parse_args()
    seeds = list(dict.fromkeys(s for r in args.seeds for s in r))

    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "verify_sweep.csv"
    # a fresh file, never one truncated in place
    path.unlink(missing_ok=True)
    failed = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        for seed in seeds:
            for r in run_suites(seed=seed):
                row = r.report_row()
                worst = json.dumps(row["details"]["worst"], separators=(",", ":"),
                                   sort_keys=True)
                writer.writerow([seed] + [row[k] for k in FIELDS[1:-1]] + [worst])
                if not r.passed:
                    failed += 1
                    print(f"seed {seed} {r.suite}: FAIL max_dev={r.max_deviation:.3e} "
                          f"worst {worst}", file=sys.stderr)
            fh.flush()
    print(f"{len(seeds)} seeds, {failed} failing rows; {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(exit_status(main))
