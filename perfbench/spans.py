"""Span recording around spinchain's public layer functions, and the
per-layer metrics derived from the spans.

The recorder wraps each target wherever a spinchain module has bound it
(a function imported into runs.py is wrapped there as well as in its
home module; a method is wrapped on its class).  A target that a later
refactor removes is listed as missing and the run goes on.  Spans stay
in memory and the child writes them out when the invocation ends; each
is [name, start, end, parent index, attrs] on the monotonic clock.

quench-n16 makes 2,400 SectorHamiltonian.apply calls per invocation,
each with a nested matrix() call, so its trace holds about 4,800 spans;
that is why the end-to-end metrics come from untraced invocations only.
wrapper_cost() measures what one wrapped call adds.
"""

import functools
import importlib
import math
import statistics
import sys
import time

# Targets as "<module>.<attribute path>".  A class target records its
# construction (EntropyTablePlan: the plan build).
TARGETS = (
    "propagate.evolve",
    "model.SectorHamiltonian.matrix",
    "model.SectorHamiltonian.apply",
    "entropy.EntropyTablePlan",
    "entropy.EntropyTablePlan.evaluate",
    "partitions.enumerate_partitions",
    "partitions.PartitionSet.tmi_values",
    "onebody.onebody_tmi_scan",
    "entropy.tmi",
    "datasets.Dataset.write",
)


def _csr_attrs(args, mat):
    ham = args[0]
    if getattr(ham, "_traced_build", False):
        return None  # later calls return the cached matrix
    ham._traced_build = True
    return {"nnz": int(mat.nnz),
            "bytes": int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)}


def _trajectory_attrs(args, traj):
    import numpy as np
    states = traj.states
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    return {"points": len(states), "bytes": int(states.nbytes),
            "norm_drift": float(drift.max())}


def _plan_attrs(args, _):
    plan = args[0]
    index_bytes = sum(idx.nbytes + ids.nbytes for idx, ids in plan.groups)
    return {"reps": len(plan.reps), "groups": len(plan.groups),
            "index_bytes": int(index_bytes)}


def _written_bytes(args, paths):
    import os
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


# What each span records about its call, read from the arguments and the
# result once the span has closed.
_ATTRS = {
    "model.SectorHamiltonian.matrix": _csr_attrs,
    "propagate.evolve": _trajectory_attrs,
    "entropy.EntropyTablePlan": _plan_attrs,
    "partitions.enumerate_partitions": lambda args, pset: {"triples": len(pset)},
    "onebody.onebody_tmi_scan": lambda args, scan: {"points": len(scan.min_values)},
    "datasets.Dataset.write": _written_bytes,
}


class Tracer:
    """Records nested spans around the wrapped targets of one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def install(self):
        """Wrap every target found in the imported spinchain modules."""
        for target in TARGETS:
            module_name, _, path = target.partition(".")
            try:
                owner = importlib.import_module(f"spinchain.{module_name}")
            except ImportError:
                self.missing.append(target)
                continue
            *owner_path, leaf = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            obj = getattr(owner, leaf, None)
            if obj is None:
                self.missing.append(target)
                continue
            attrs = _ATTRS.get(target)
            if isinstance(obj, type):
                obj.__init__ = self._wrap(target, obj.__init__, attrs)
            elif isinstance(owner, type):
                setattr(owner, leaf, self._wrap(target, obj, attrs))
            else:
                self._rebind(obj, self._wrap(target, obj, attrs))

    @staticmethod
    def _rebind(original, wrapped):
        for name, module in list(sys.modules.items()):
            if name != "spinchain" and not name.startswith("spinchain."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    spans[index][4] = attrs(args, result)
                except (AttributeError, TypeError, ValueError) as exc:
                    # a refactor changed what the call returns
                    spans[index][4] = {"attrs_error": repr(exc)}
            return result

        return traced

    @staticmethod
    def wrapper_cost(calls=5000) -> float:
        """Seconds one wrapped call adds, timed on a no-op in a throwaway tracer."""
        def noop():
            return None
        wrapped = Tracer()._wrap("probe", noop, None)
        times = []
        for fn in (noop, wrapped):
            start = time.monotonic()
            for _ in range(calls):
                fn()
            times.append(time.monotonic() - start)
        return max(times[1] - times[0], 0.0) / calls

    def open_root(self, start):
        """Open the root span "runs": from config loaded to the end of main."""
        self._stack.append(len(self.spans))
        self.spans.append(["runs", start, None, None, None])

    def close_root(self, end):
        self.spans[self._stack.pop(0)][2] = end
        self._stack.clear()


# -- post-processing -----------------------------------------------------------

LAYERS = ("model", "propagate", "entropy", "partitions", "onebody",
          "datasets", "runs")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("config.load_s", "s"),
    ("model.hamiltonian_s", "s"),
    ("model.csr_nnz", "count"),
    ("model.csr_mb", "MB"),
    ("model.matvecs", "count"),
    ("model.matvec_s", "s"),
    ("propagate.evolve_s", "s"),
    ("propagate.ms_per_point", "ms"),
    ("propagate.norm_drift", "1"),
    ("propagate.trajectory_mb", "MB"),
    ("entropy.plan_build_s", "s"),
    ("entropy.plan_reps", "count"),
    ("entropy.plan_groups", "count"),
    ("entropy.plan_index_mb", "MB"),
    ("entropy.eval_ms_per_state", "ms"),
    ("entropy.eval_ms_per_state_tail", "ms"),
    ("entropy.eval_samples", "count"),
    ("partitions.enumerate_s", "s"),
    ("partitions.n_triples", "count"),
    ("partitions.gather_ms_per_state", "ms"),
    ("onebody.scan_s", "s"),
    ("onebody.ms_per_point", "ms"),
    ("datasets.write_s", "s"),
    ("datasets.bytes", "B"),
    ("runs.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.run_s", "s"),
    ("trace.coverage", "1"),
    ("trace.wrapper_s", "s"),
    ("trace.missing", "count"),
    ("model.self_s", "s"),
    ("entropy.self_s", "s"),
    ("partitions.self_s", "s"),
)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, covered)]


def tail_rank(n):
    """The highest whole percentile of n samples with >= 10 samples beyond it."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else None


def _tail(values):
    p = tail_rank(len(values))
    return statistics.quantiles(values, n=100)[p - 1] if p else 0.0


def check_spans(spans, marks) -> list:
    """Problems with the span tree: an unclosed span, a child escaping its
    parent, or self times that do not sum to the traced run_s."""
    problems = []
    roots = [i for i, s in enumerate(spans) if s[3] is None]
    if [spans[i][0] for i in roots] != ["runs"]:
        problems.append(f"expected one root span 'runs', got {[spans[i][0] for i in roots]}")
    for name, start, end, parent, _ in spans:
        if end is None or end < start:
            problems.append(f"span {name} is not closed")
        elif parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {name} escapes its parent {spans[parent][0]}")
    if not problems:
        run_s = marks["end"] - marks["config_loaded"]
        covered = sum(self_times(spans))
        if abs(covered - run_s) > 1e-6 * run_s:
            problems.append(f"self times sum to {covered} s, the traced run took {run_s} s")
    return problems


def invocation_metrics(spans, marks, missing, wrapper_cost) -> dict:
    """Per-layer metrics of one traced invocation (overhead filled in later)."""
    selfs = self_times(spans)
    by_name = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[0], []).append((span[2] - span[1], own, span[4] or {}))

    def total(name, column=0):
        return sum((rec[column] for rec in by_name.get(name, ())), 0.0)

    def attr_values(name, key):
        return [rec[2][key] for rec in by_name.get(name, ()) if key in rec[2]]

    matrix = "model.SectorHamiltonian.matrix"
    builds = [rec[0] for rec in by_name.get(matrix, ()) if "nnz" in rec[2]]
    evolve_points = sum(attr_values("propagate.evolve", "points"))
    evals = [rec[0] * 1e3 for rec in by_name.get("entropy.EntropyTablePlan.evaluate", ())]
    gathers = [rec[0] * 1e3 for rec in by_name.get("partitions.PartitionSet.tmi_values", ())]
    scan_points = sum(attr_values("onebody.onebody_tmi_scan", "points"))
    run_s = marks["end"] - marks["config_loaded"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        layer_self[span[0].split(".")[0]] += own

    m = {
        "config.load_s": marks["config_loaded"] - marks["load_start"],
        "model.hamiltonian_s": sum(builds, 0.0),
        "model.csr_nnz": max(attr_values(matrix, "nnz"), default=0),
        "model.csr_mb": max(attr_values(matrix, "bytes"), default=0) / 1e6,
        "model.matvecs": len(by_name.get("model.SectorHamiltonian.apply", ())),
        "model.matvec_s": total("model.SectorHamiltonian.apply"),
        "propagate.evolve_s": total("propagate.evolve", 1),
        "propagate.ms_per_point": (total("propagate.evolve") * 1e3 / evolve_points
                                   if evolve_points else 0.0),
        "propagate.norm_drift": max(attr_values("propagate.evolve", "norm_drift"), default=0.0),
        "propagate.trajectory_mb": max(attr_values("propagate.evolve", "bytes"), default=0) / 1e6,
        "entropy.plan_build_s": total("entropy.EntropyTablePlan"),
        "entropy.plan_reps": sum(attr_values("entropy.EntropyTablePlan", "reps")),
        "entropy.plan_groups": sum(attr_values("entropy.EntropyTablePlan", "groups")),
        "entropy.plan_index_mb": sum(attr_values("entropy.EntropyTablePlan", "index_bytes")) / 1e6,
        "entropy.eval_ms_per_state": statistics.median(evals) if evals else 0.0,
        "entropy.eval_ms_per_state_tail": _tail(evals),
        "entropy.eval_samples": len(evals),
        "partitions.enumerate_s": total("partitions.enumerate_partitions"),
        "partitions.n_triples": max(attr_values("partitions.enumerate_partitions", "triples"),
                                    default=0),
        "partitions.gather_ms_per_state": statistics.median(gathers) if gathers else 0.0,
        "onebody.scan_s": total("onebody.onebody_tmi_scan"),
        "onebody.ms_per_point": (total("onebody.onebody_tmi_scan") * 1e3 / scan_points
                                 if scan_points else 0.0),
        "datasets.write_s": total("datasets.Dataset.write"),
        "datasets.bytes": sum(attr_values("datasets.Dataset.write", "bytes")),
        "runs.self_s": layer_self["runs"],
        "trace.run_s": run_s,
        "trace.coverage": sum(selfs) / run_s,
        "trace.wrapper_s": len(spans) * wrapper_cost,
        "trace.missing": len(missing),
    }
    for layer in ("model", "entropy", "partitions"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def layer_table(spans) -> dict:
    """Self seconds and call count per span name."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += span[2] - span[1]
    return table
