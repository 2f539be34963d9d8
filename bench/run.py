#!/usr/bin/env python3
"""The cope benchmark: one workload, one seed, one measured run.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's `cope` commands through `cope.cli.main` in this process,
one at a time, again and again for S seconds, and checks every repeat's
outputs. With --trace 0 it reports the end-to-end metrics; with --trace 1 it
spends half the time untraced and half traced, and reports the per-layer
metrics. The last line of stdout is one JSON object; the exit code is 0
only when no command failed. Run it from the root of a source checkout:
cope is imported from ./src, never from an installed copy.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layer_trace
from workloads import WORKLOADS, check_repeat, run_command, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_cope():
    """Import cope from this checkout's src/, refusing any other copy."""
    if not (SRC / "cope" / "__init__.py").is_file():
        sys.exit(f"bench: no cope sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import cope

    if Path(cope.__file__).resolve().parent != (SRC / "cope").resolve():
        sys.exit(f"bench: imported cope from {cope.__file__}, not {SRC}")
    return cope


def blas_info() -> dict:
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    # numpy's bundled OpenBLAS, found among this process's own mappings
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_record(args, cope) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cope": cope.__version__,
        "blas": blas_info(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def setup_probe(workload, seed, work_dir):
    """One cold set-up of the workload's first command in a fresh
    interpreter; returns its seconds, or None if the probe failed."""
    cmd = workload.commands[0]
    config = work_dir / f"{cmd.label}.config.json" if cmd.config else "-"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
         str(config), cmd.command, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        print(f"set-up probe failed: {done.stderr.strip()}", file=sys.stderr)
        return None
    return float(done.stdout.strip().splitlines()[-1])


class WorkloadRunner:
    """Repeats of one workload in this process, with their gates."""

    def __init__(self, workload, seed, work_dir, cli_main, load_model):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cli_main = cli_main
        self.load_model = load_model
        self.reference = {}  # command label -> first repeat's fingerprint
        self.attempted = 0
        self.failed = 0
        self.failures = []  # messages, one or more per failed operation
        self.info = {}

    def repeat(self, tracer=None):
        """One pass over the workload's commands; returns (steps, seconds)."""
        main, load = self.cli_main, self.load_model
        if tracer is not None:
            main = tracer.wrap(main, "cli.main")
            load = tracer.wrap(load, "checkpoint.load")
        runs = [run_command(main, c, self.seed, self.work_dir)
                for c in self.workload.commands]
        check_repeat(self.workload, runs, self.reference, load)
        for r in runs:
            self.attempted += 1
            self.failed += bool(r.failures)
            self.failures += [f"{r.label}: {f}" for f in r.failures]
            self.info.update({f"{r.label}.{k}": v for k, v in r.info.items()})
        return sum(r.steps for r in runs), sum(r.seconds for r in runs)

    def run_for(self, budget, tracer=None, before_each=None):
        """Repeat while another repeat would end less than half a repeat
        past `budget` seconds (at least once); returns (steps, seconds) of
        each repeat."""
        repeats, t0 = [], time.perf_counter()
        while True:
            if before_each is not None:
                before_each()
            repeats.append(self.repeat(tracer))
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / len(repeats) >= budget:
                return repeats


def steps_per_s(repeats) -> float:
    """All steps over all command wall time: the machine's speed drifts
    from second to second, and the total averages it where a median of a
    few repeats would pick one phase."""
    return sum(n for n, _ in repeats) / sum(t for _, t in repeats)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS threads are pinned for the bench process and its set-up probes
    # before numpy loads; the library itself sets nothing.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cope = import_cope()
    from cope.checkpoint import load_model
    from cope.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    write_configs(workload, work_dir)
    record = run_record(args, cope)
    (work_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    print("run record: " + json.dumps(record, sort_keys=True))

    runner = WorkloadRunner(workload, args.seed, work_dir, cli_main, load_model)
    metrics = {}
    if args.trace == 0:
        probes = []

        def probe():
            probes.append(setup_probe(workload, args.seed, work_dir))

        # probes interleave with the repeats so that both see the same
        # stretch of machine time
        repeats = runner.run_for(args.seconds, before_each=probe)
        while len(probes) < SETUP_PROBES:
            probe()
        setup = [t for t in probes if t is not None]
        runner.attempted += len(probes)
        runner.failed += len(probes) - len(setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setup) if setup else 0.0, "s"),
            "steps_per_s": metric(steps_per_s(repeats), "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        print(f"steps_per_s of {len(repeats)} repeats: {[n / t for n, t in repeats]}")
        print(f"setup_s of {len(setup)} probes: {setup}")
    else:
        plain = runner.run_for(args.seconds / 2)
        tracer = layer_trace.Tracer()
        tracer.install()
        try:
            traced = runner.run_for(args.seconds / 2, tracer)
        finally:
            tracer.restore()
        for name in tracer.missing:
            print(f"trace: {name} not found; its layer reads 0", file=sys.stderr)
        metrics = {
            name: metric(value, layer_trace.unit_of(name))
            for name, value in tracer.layer_metrics().items()
        }
        rate_plain, rate_traced = steps_per_s(plain), steps_per_s(traced)
        metrics["trace.overhead_steps_per_s"] = metric(rate_traced - rate_plain, "1/s")
        shares = tracer.shares("cli.main")
        tracer.write_spans(work_dir / "spans.csv")
        (work_dir / "trace_summary.json").write_text(json.dumps(
            {"shares": shares, "metrics": metrics,
             "untraced_steps_per_s": rate_plain, "traced_steps_per_s": rate_traced},
            indent=1) + "\n")
        print(f"repeats: {len(plain)} untraced, {len(traced)} traced; "
              "self-time shares of the traced commands:")
        for name, share in shares.items():
            print(f"  {name:32s} {100 * share:6.2f}%")

    failed = runner.failed
    for f in runner.failures:
        print(f"FAILED {f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, value in sorted(runner.info.items()):
        print(f"{name} {value!r}")
    print(f"error_rate {failed / runner.attempted!r} ratio "
          f"({failed} of {runner.attempted} operations failed)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
