"""Spans around graphtop's public functions, and the per-layer metrics.

The tracer replaces each traced function in every graphtop module that
holds it, including modules that imported it by value (`from .x import f`),
so calls made through either route are seen.  A span records id, parent,
name, start, end, an optional count taken from the result, and the run id
(the index of the CLI call it belongs to).  Generator layers get one span
per next(), because a wrapper around the generator function itself would
return at once and record nothing.

Spans are kept in memory.  A Pool worker forked while a span is open
inherits the tracer; its spans keep the open span as parent, and each time
a top-level span of the worker closes they are appended to a per-process
file in the spill directory, because a terminated worker never runs exit
hooks.
"""

import functools
import importlib
import math
import os
import pickle
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name, how a result is counted)
TARGETS = (
    ("graphtop.cli", "main", "cli.main", None),
    ("graphtop.aggregate", "aggregate_counts", "aggregate.aggregate_counts", None),
    ("graphtop.aggregate", "graphs_up_to_iso", "graphs.classes", len),
    ("graphtop.aggregate", "class_counts", "aggregate.class_counts", None),
    ("graphtop.enumeration", "tau", "enumeration.tau", int),
    ("graphtop.enumeration", "h_burnside", "enumeration.h_burnside", None),
    ("graphtop.enumeration", "fix_count", "enumeration.fix_count", None),
    ("graphtop.enumeration", "h_classes", "enumeration.h_classes", None),
    ("graphtop.enumeration", "counts_for", "enumeration.counts_for", None),
    ("graphtop.enumeration", "enumerate_transitive_digraphs", "enumeration.stream", "next"),
    ("graphtop.enumeration", "stream_masks", "enumeration.stream", "next"),
    ("graphtop.topology", "transitive_masks", "topology.transitive_masks", None),
    ("graphtop.canon", "graph_code", "canon.graph_code", None),
    ("graphtop.canon", "digraph_code", "canon.digraph_code", None),
    ("graphtop.canon", "automorphisms", "canon.automorphisms", len),
    ("graphtop.formulas", "formula_for_graph", "formulas.formula_for_graph", None),
    ("graphtop.formulas", "union_counts", "formulas.union_counts", None),
)

LAYER_UNITS = {
    "enumeration.fix_count_s": "s",
    "enumeration.fix_count_calls": "count",
    "enumeration.fix_count_ms_p50": "ms",
    "enumeration.fix_count_ms_p90": "ms",
    "canon.aut_order_sum": "count",
    "canon.automorphisms_s": "s",
    "canon.digraph_code_calls": "count",
    "canon.digraph_code_us_per_call": "us",
    "enumeration.h_classes_s": "s",
    "enumeration.stream_s": "s",
    "enumeration.leaves": "count",
    "enumeration.us_per_leaf": "us",
    "enumeration.tau_s": "s",
    "topology.transitive_masks_calls": "count",
    "topology.transitive_masks_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "graphs.classes_s": "s",
    "graphs.classes": "count",
    "canon.graph_code_calls": "count",
    "canon.graph_code_s": "s",
    "aggregate.class_counts_ms_p50": "ms",
    "aggregate.class_counts_ms_p90": "ms",
    "aggregate.class_counts_ms_max": "ms",
    "aggregate.fanout_utilization": "ratio",
    "aggregate.fanout_speedup": "ratio",
    "enumeration.counts_for_calls": "count",
    "enumeration.memo_hit_ratio": "ratio",
    "formulas.formula_for_graph_s": "s",
    "formulas.union_counts_s": "s",
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
}


class Tracer:
    def __init__(self, spill_dir):
        self.spans = []  # (id, parent, name, start, end, count, run id)
        self.stack = [0]
        self.run_id = 0
        self.main_pid = self.pid = os.getpid()
        self.counter = 0
        self.base_depth = 1
        self.spill_dir = Path(spill_dir)
        self.missing = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.pid = os.getpid()
        self.counter = 0
        self.spans = []
        self.base_depth = len(self.stack)

    def _open(self):
        self.counter += 1
        sid = self.pid << 32 | self.counter
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, count):
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, count, self.run_id))
        if self.pid != self.main_pid and len(self.stack) == self.base_depth:
            with (self.spill_dir / f"spans-{self.pid}.pickle").open("ab") as fh:
                pickle.dump(self.spans, fh, pickle.HIGHEST_PROTOCOL)
            self.spans = []

    def wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                count = measure(result) if measure and result is not None else None
                tracer._close(sid, parent, name, start, end, count)

        return traced

    def wrap_next(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                sid, parent = tracer._open()
                start = perf_counter()
                got = 0
                try:
                    item = next(it)
                    got = 1
                except StopIteration:
                    return
                finally:
                    tracer._close(sid, parent, name, start, perf_counter(), got)
                yield item

        return traced

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in self.missing and its metrics read 0."""
        for modname, attr, name, measure in TARGETS:
            try:
                orig = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                orig = None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if measure == "next":
                wrapped = self.wrap_next(name, orig)
            else:
                wrapped = self.wrap(name, orig, measure)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").partition(".")[0] != "graphtop":
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def collect(self):
        """All spans, the workers' spilled ones included."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.pickle")):
            with path.open("rb") as fh:  # written by this tracer's own workers
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            path.unlink()
        return spans


def _union(intervals, lo=-math.inf, hi=math.inf):
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _pct(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Span names whose self time some reported metric holds; the self time of
# every other span counts as untraced.
ATTRIBUTED = frozenset((
    "cli.main", "enumeration.fix_count", "canon.automorphisms", "canon.digraph_code",
    "enumeration.h_classes", "enumeration.stream", "enumeration.tau",
    "topology.transitive_masks", "graphs.classes", "canon.graph_code",
    "formulas.formula_for_graph", "formulas.union_counts",
))
# A traced pass is flagged when more than this share of its wall time is
# untraced; the baseline passes read about 2% on aggregate-n6-w2 and under
# 0.5% on the serial workloads.
UNTRACED_FLAG_SHARE = 0.05


def layer_metrics(spans, wall, main_pid, speed):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the union of its children's
    intervals.  `*_s` metrics are summed self times, except
    enumeration.h_classes_s, which is inclusive: the canonical-code route
    (its stream and its digraph codes) as one number.  Worker spans count
    in full, so on a fan-out workload layer times are busy time summed
    over processes and can exceed the wall time.

    trace.untraced_s is the residual: the wall time that no span of the
    pass process covers, plus the self time of the spans outside
    ATTRIBUTED (aggregate_counts, class_counts, h_burnside, counts_for).
    On a serial workload the self times of the ATTRIBUTED spans plus
    trace.untraced_s add up to the wall time.  When a hot function stops going through its
    wrapped name, its cost lands in one of those unreported spans or in no
    span, and trace.untraced_s grows.  Times are returned in reference
    seconds (multiplied by the host speed factor).
    """
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))
    selfs, incl, calls, counts, has_tau_child = {}, {}, {}, {}, set()
    for sid, parent, name, start, end, count, _ in spans:
        dur = end - start
        own = dur - _union(children.get(sid, ()), start, end)
        selfs[name] = selfs.get(name, 0.0) + own
        incl.setdefault(name, []).append(dur)
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name == "enumeration.tau":
            has_tau_child.add(parent)

    def own(name):
        return selfs.get(name, 0.0)

    main_ids = {s[0] for s in spans if s[0] >> 32 == main_pid}
    roots = [(s[3], s[4]) for s in spans if s[0] in main_ids and s[1] not in main_ids]
    untraced = (wall - _union(roots)
                + sum(t for name, t in selfs.items() if name not in ATTRIBUTED))
    leaves = counts.get("enumeration.stream", 0) + counts.get("enumeration.tau", 0)
    search_s = own("enumeration.stream") + own("enumeration.tau")
    fix_ms = [d * 1e3 for d in incl.get("enumeration.fix_count", [])]
    class_ms = [d * 1e3 for d in incl.get("aggregate.class_counts", [])]
    memo_calls = [s[0] for s in spans if s[2] == "enumeration.counts_for"]
    dcode_calls = calls.get("canon.digraph_code", 0)
    metrics = {
        "enumeration.fix_count_s": own("enumeration.fix_count"),
        "enumeration.fix_count_calls": calls.get("enumeration.fix_count", 0),
        "enumeration.fix_count_ms_p50": _pct(fix_ms, 0.5),
        "enumeration.fix_count_ms_p90": _pct(fix_ms, 0.9),
        "canon.aut_order_sum": counts.get("canon.automorphisms", 0),
        "canon.automorphisms_s": own("canon.automorphisms"),
        "canon.digraph_code_calls": dcode_calls,
        "canon.digraph_code_us_per_call":
            own("canon.digraph_code") / dcode_calls * 1e6 if dcode_calls else 0.0,
        "enumeration.h_classes_s": sum(incl.get("enumeration.h_classes", [])),
        "enumeration.stream_s": own("enumeration.stream"),
        "enumeration.leaves": leaves,
        "enumeration.us_per_leaf": search_s / leaves * 1e6 if leaves else 0.0,
        "enumeration.tau_s": own("enumeration.tau"),
        "topology.transitive_masks_calls": calls.get("topology.transitive_masks", 0),
        "topology.transitive_masks_s": own("topology.transitive_masks"),
        "cli.self_s": own("cli.main"),
        "graphs.classes_s": own("graphs.classes"),
        "graphs.classes": counts.get("graphs.classes", 0),
        "canon.graph_code_calls": calls.get("canon.graph_code", 0),
        "canon.graph_code_s": own("canon.graph_code"),
        "aggregate.class_counts_ms_p50": _pct(class_ms, 0.5),
        "aggregate.class_counts_ms_p90": _pct(class_ms, 0.9),
        "aggregate.class_counts_ms_max": max(class_ms, default=0.0),
        "enumeration.counts_for_calls": len(memo_calls),
        "enumeration.memo_hit_ratio":
            sum(1 for i in memo_calls if i not in has_tau_child) / len(memo_calls)
            if memo_calls else 0.0,
        "formulas.formula_for_graph_s": own("formulas.formula_for_graph"),
        "formulas.union_counts_s": own("formulas.union_counts"),
        "trace.untraced_s": untraced,
    }
    for name in metrics:
        if LAYER_UNITS[name] in ("s", "ms", "us"):
            metrics[name] *= speed
    return metrics

