"""Outside-in tracing of the cope layers.

`Tracer.install` replaces the public functions that the real program calls,
under the names it imported them by, with timing wrappers, and
`Tracer.restore` puts the originals back. Nothing under `src/cope` changes,
and the trace keeps following the program when a step is restructured, as
long as the calls still go through these names.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once at the end. A layer's self time is its span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import os
import statistics
import time
from array import array
from collections import Counter

FORWARD = "models.forward"  # renamed to forward_tape or forward_plain per call
HOOKS_SPAN = "bench.trace_counting"

# (module, attribute path, layer): the names as the program imported them.
PATCHES = [
    ("cope.cli", "resolve", "config.resolve"),
    ("cope.cli", "make_poly_regression", "tasks.build"),
    ("cope.cli", "make_cond_point_cloud", "tasks.build"),
    ("cope.cli", "init_chain", "models.init"),
    ("cope.cli", "train_regression", "training.loop"),
    ("cope.cli", "train_conditional", "training.loop"),
    ("cope.cli", "run_suites", "verify.run_suites"),
    ("cope.training", "lift_model", "models.lift"),
    ("cope.training", "product_compose", FORWARD),
    ("cope.training", "discriminator_forward", "models.discriminator"),
    ("cope.training", "mse_loss", "losses.mse"),
    ("cope.training", "mmd_loss", "losses.mmd"),
    ("cope.training", "rbf_bandwidths", "losses.rbf_bandwidths"),
    ("cope.training", "nonsat_gan_losses", "losses.gan"),
    ("cope.training", "diversity_regularizer", "losses.diversity"),
    ("cope.training", "backward", "autodiff.backward"),
    ("cope.training", "adam_step", "optim.adam"),
    ("cope.training", "save_model", "checkpoint.save"),
    ("cope.training", "MetricsWriter.row", "training.metrics_row"),
    ("cope.tasks", "CondPointCloud.sample", "tasks.sample"),
    # finite_diff_check reaches backward through its own module's global
    ("cope.autodiff", "backward", "autodiff.backward"),
    ("cope.verify", "finite_diff_check", "autodiff.finite_diff_check"),
    ("cope.verify", "with_parameters", "models.with_parameters"),
    ("cope.verify", "build_order2_coupled_tensors", "oracle.build_order2"),
    ("cope.verify", "eval_explicit", "oracle.eval_explicit"),
    ("cope.verify", "degree_probe", "oracle.degree_probe"),
    ("cope.verify", "khatri_rao_chain", "tensors.khatri_rao_chain"),
] + [
    ("cope.verify", name, FORWARD)
    for name in (
        "product_compose", "ccp_forward", "ncp_forward", "pinet_forward",
        "spade_forward", "ccp_forward_cols", "ncp_forward_cols",
        "additive_forward_cols", "pinet_forward_cols", "spade_forward_cols",
        "concat_linear_forward",
    )
]

VERIFY_SUITES = (
    "claim1-equivalence", "lemma1", "degree-law", "reductions", "affineness",
    "gradients",
)

# Op kinds counted on every tape handed to backward; others go to "other".
TAPE_OPS = (
    "leaf", "add", "add_const", "sub", "sub_const", "rsub_const", "mul",
    "mul_const", "neg", "matmul", "transpose", "tanh", "exp", "softplus",
    "sum", "reshape", "concat_rows", "other",
)

# Per-layer timings: metric name -> (layer, percentile of self time per call).
# The unit is the name's suffix.
TIMINGS = {
    "autodiff.backward_us": ("autodiff.backward", 50),
    "autodiff.backward_p90_us": ("autodiff.backward", 90),
    "autodiff.finite_diff_check_ms": ("autodiff.finite_diff_check", 50),
    "models.lift_us": ("models.lift", 50),
    "models.forward_tape_us": ("models.forward_tape", 50),
    "models.forward_plain_us": ("models.forward_plain", 50),
    "models.with_parameters_us": ("models.with_parameters", 50),
    "models.discriminator_us": ("models.discriminator", 50),
    "models.init_ms": ("models.init", 50),
    "losses.mse_us": ("losses.mse", 50),
    "losses.mmd_us": ("losses.mmd", 50),
    "losses.rbf_bandwidths_us": ("losses.rbf_bandwidths", 50),
    "losses.gan_us": ("losses.gan", 50),
    "losses.diversity_us": ("losses.diversity", 50),
    "optim.adam_us": ("optim.adam", 50),
    "tasks.sample_us": ("tasks.sample", 50),
    "tasks.build_ms": ("tasks.build", 50),
    "config.resolve_ms": ("config.resolve", 50),
    "training.metrics_row_us": ("training.metrics_row", 50),
    "checkpoint.save_ms": ("checkpoint.save", 50),
    "checkpoint.load_ms": ("checkpoint.load", 50),
    **{f"verify.{s}_s": (f"verify.{s}", 50) for s in VERIFY_SUITES},
    "oracle.build_order2_us": ("oracle.build_order2", 50),
    "oracle.eval_explicit_us": ("oracle.eval_explicit", 50),
    "oracle.degree_probe_ms": ("oracle.degree_probe", 50),
    "tensors.khatri_rao_chain_us": ("tensors.khatri_rao_chain", 50),
}

# Exact counts, averaged per call of a layer:
# metric name -> (counter, layer, unit).
COUNTS = {
    "autodiff.tape_nodes": ("tape_nodes", "autodiff.backward", "count"),
    **{
        f"autodiff.tape_nodes.{op}": (f"tape_nodes.{op}", "autodiff.backward", "count")
        for op in TAPE_OPS
    },
    "autodiff.tape_bytes": ("tape_bytes", "autodiff.backward", "bytes"),
    "optim.param_arrays": ("param_arrays", "optim.adam", "count"),
    "optim.param_count": ("param_count", "optim.adam", "count"),
    "checkpoint.bytes": ("checkpoint_bytes", "checkpoint.save", "bytes"),
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def unit_of(metric: str) -> str:
    if metric in COUNTS:
        return COUNTS[metric][2]
    return metric.rsplit("_", 1)[1]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list = []
        self.missing: list[str] = []
        self._var = importlib.import_module("cope.autodiff").Var

    # -- spans -------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _hook(self, hook, args) -> None:
        # counting is tracing overhead; its own span keeps it out of the
        # calling layer's self time
        idx = self.open(HOOKS_SPAN)
        try:
            hook(self, args)
        finally:
            self.close(idx)

    def rename(self, idx: int, name: str) -> None:
        self.name_id[idx] = self._id(name)

    def wrap(self, fn, layer: str):
        """`fn` with every call recorded as a span of `layer`."""
        before, after = _HOOKS.get(layer, (None, None))

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            idx = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if layer == FORWARD:
                kind = "tape" if isinstance(out, self._var) else "plain"
                self.rename(idx, f"models.forward_{kind}")
            if after is not None:
                self._hook(after, args)
            return out

        return traced

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every name in PATCHES and every verify suite."""
        self._saved = []
        self.missing = []
        for module, path, layer in PATCHES:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, layer))
        suites = importlib.import_module("cope.verify").SUITES
        for name, fn in list(suites.items()):
            self._saved.append((suites, name, fn))
            suites[name] = self.wrap(fn, f"verify.{name}")

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._saved = []

    # -- results -------------------------------------------------------------
    def self_seconds(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_layer(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for nid, t in zip(self.name_id, self.self_seconds()):
            out.setdefault(self.names[nid], []).append(t)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every TIMINGS and COUNTS metric; 0 for a layer that never ran."""
        layers = self.by_layer()
        out = {}
        for metric, (layer, pct) in TIMINGS.items():
            times = layers.get(layer)
            scale = _SCALE[unit_of(metric)]
            out[metric] = _percentile(times, pct) * scale if times else 0.0
        for metric, (counter, layer, _) in COUNTS.items():
            calls = len(layers.get(layer, ()))
            out[metric] = self.counters[counter] / calls if calls else 0.0
        return out

    def shares(self, root: str) -> dict[str, float]:
        """Each layer's total self time as a share of the `root` spans' time."""
        layers = self.by_layer()
        total = sum(
            e - s for nid, s, e in zip(self.name_id, self.start, self.end)
            if self.names[nid] == root
        )
        return {
            name: sum(ts) / total
            for name, ts in sorted(layers.items(), key=lambda kv: -sum(kv[1]))
        } if total > 0 else {}

    def write_spans(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "name", "start_us", "end_us", "parent"])
            for i, (nid, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                w.writerow([i, self.names[nid], round((s - t0) * 1e6, 3),
                            round((e - t0) * 1e6, 3), p])


def _percentile(values, pct: int) -> float:
    if pct == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _count_tape(tracer: Tracer, args) -> None:
    nodes = args[0].nodes
    c = tracer.counters
    c["tape_nodes"] += len(nodes)
    ops = Counter(n.op for n in nodes)
    for op, k in ops.items():
        c[f"tape_nodes.{op if op in TAPE_OPS else 'other'}"] += k
    c["tape_bytes"] += sum(n.value.nbytes for n in nodes)


def _count_params(tracer: Tracer, args) -> None:
    params = args[1]
    tracer.counters["param_arrays"] += len(params)
    tracer.counters["param_count"] += sum(int(p.size) for p in params.values())


def _count_checkpoint(tracer: Tracer, args) -> None:
    tracer.counters["checkpoint_bytes"] += os.path.getsize(args[0])


# layer -> (hook before the call, hook after it); hooks run outside the span
_HOOKS = {
    "autodiff.backward": (_count_tape, None),
    "optim.adam": (_count_params, None),
    "checkpoint.save": (None, _count_checkpoint),
}
