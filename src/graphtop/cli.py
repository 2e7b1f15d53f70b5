"""Command-line interface: count, enumerate, aggregate, verify.

Machine-readable results go to stdout (a single JSON document under
--json); timing and diagnostics go to stderr.  Exit codes: 0 success,
1 usage or input error or a worker process lost, 2 verification failure or
internal inconsistency.
"""

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import count
from operator import getitem

from .aggregate import aggregate_counts, labeled_copies
from .canon import _bits
from .decomposition import tree_counts
from .enumeration import stream_batches
from .errors import MAX_CLASS_VERTICES, GraphTopError, InternalCheckError
from .expr import build_graph, parse_graph_expr
from .formulas import formula_for_graph
from .graphs import canonical_code, load_edge_list
from .verify import run_verify


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _int(text):
    """An int option: ASCII decimal digits with an optional sign (int()
    alone also reads other scripts' digits, underscores and spaces)."""
    if not re.fullmatch(r"[-+]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _int_at_least(text, least=0):
    """An int option of at least `least` (0 for --budget-edges)."""
    value = _int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _workers(text):
    """--workers: a positive count, clamped to the CPUs this process may
    run on (its affinity mask where the platform has one: a cpuset or
    taskset can leave it fewer than the host's)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(_int_at_least(text, 1), cpus)


def _code_str(code):
    n, bits = code
    return f"{n}:{bits:x}"


def _graph_from_args(args):
    if (args.expr is None) == (args.file is None):
        raise _UsageError("give exactly one of an expression or --file")
    if args.file is not None:
        return load_edge_list(args.file)
    return build_graph(parse_graph_expr(args.expr))


def _cmd_count(args):
    g = _graph_from_args(args)
    t0 = time.perf_counter()
    _, t, h = tree_counts(g)
    elapsed = time.perf_counter() - t0
    if t < h or (h == 0) != (t == 0):
        raise InternalCheckError(f"inconsistent report: tau={t} h={h}")
    code = _code_str(canonical_code(g))
    formula = formula_for_graph(g)
    if (
        formula is not None
        and formula.tau is not None
        and (formula.tau, formula.h) != (t, h)
    ):
        raise InternalCheckError(
            f"closed form {formula.theorem} gives ({formula.tau},{formula.h}), "
            f"the tree gives ({t},{h})"
        )
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if args.json:
        doc = {
            "graph": code,
            "n": g.n,
            "edges": g.edge_count,
            "tau": t,
            "h": h,
            "method": "enumeration",
        }
        if formula is not None:
            doc["formula"] = formula.as_json_dict()
        print(_dump(doc))
    else:
        line = f"graph {code} n={g.n} edges={g.edge_count} tau={t} h={h}"
        if formula is not None:
            line += f" (closed form: {formula.theorem})"
        print(line)
    return 0


class _RowText(dict):
    """Out-mask -> the arcs out of vertex u as text, v ascending: the order
    Digraph.arcs() sorts to.  Rows recur across leaves, so each is made once."""

    def __init__(self, u, arc):
        self.u, self.arc = u, arc

    def __missing__(self, mask):
        arcs = (self.arc.format(self.u, v) for v in _bits(mask))
        text = self[mask] = "".join(arcs)
        return text


def _cmd_enumerate(args):
    g = _graph_from_args(args)
    # a bidirected pair renders as two arcs; a JSON arc leads with its comma
    arc = "  {} -> {};\n" if args.dot else ",[{},{}]"
    rows = [_RowText(u, arc) for u in range(g.n)]
    if args.dot:
        nodes = "".join(f"  {v};\n" for v in range(g.n))
        index = count()  # runs on across batches; zip takes a leaf first

        def render(batch):
            return "".join([
                f"digraph d{i} {{\n{nodes}{''.join(map(getitem, rows, masks))}}}\n"
                for masks, i in zip(batch, index)
            ])
    else:
        tail = f'],"n":{g.n}}}\n'

        def render(batch):
            return "".join([
                f'{{"arcs":[{"".join(map(getitem, rows, masks))[1:]}{tail}'
                for masks in batch
            ])

    # one write per checked batch; the batch before an error is written first
    sys.stdout.writelines(map(render, stream_batches(g, args.budget_edges)))
    return 0


def _cmd_aggregate(args):
    n = args.n
    if n < 1 or n > MAX_CLASS_VERTICES:
        raise _UsageError(f"-n must be between 1 and {MAX_CLASS_VERTICES}")
    if n >= 7 and not args.allow_large:
        raise _UsageError(f"aggregate -n {n} is expensive; pass --allow-large")
    tau_n, h_n, table = aggregate_counts(n, workers=args.workers)
    if n >= 7:
        for idx, e in enumerate(table.entries):
            print(f"class {idx}: {e.seconds:.3f}s", file=sys.stderr)
    rows = [
        {
            "class_index": idx,
            "edge_count": e.graph.edge_count,
            "aut_order": e.aut_order,
            "tau": e.tau,
            "h": e.h,
            "labeled_copies": labeled_copies(n, e.aut_order),
        }
        for idx, e in enumerate(table.entries)
    ]
    if args.json:
        print(_dump({"n": n, "tau_n": tau_n, "h_n": h_n, "classes": rows}))
    else:
        print("class_index,edge_count,aut_order,tau,h,labeled_copies")
        for row in rows:
            print(
                f"{row['class_index']},{row['edge_count']},{row['aut_order']},"
                f"{row['tau']},{row['h']},{row['labeled_copies']}"
            )
        print(_dump({"n": n, "tau_n": tau_n, "h_n": h_n}))
    return 0


def _cmd_verify(args):
    return run_verify()


@functools.cache  # one per process: it holds constants, and each parse makes a new namespace
def _build_parser():
    parser = _ArgumentParser(prog="graphtop")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="tau and h for one graph")
    count.add_argument("expr", nargs="?", help="graph expression, e.g. box(K2,C4)")
    count.add_argument("--file", help="edge-list file instead of an expression")
    count.add_argument("--json", action="store_true")
    count.set_defaults(func=_cmd_count)

    enum = sub.add_parser("enumerate", help="stream the transitive digraphs")
    enum.add_argument("expr", nargs="?")
    enum.add_argument("--file")
    enum.add_argument("--budget-edges", type=_int_at_least, dest="budget_edges")
    enum.add_argument("--dot", action="store_true", help="DOT in place of JSON lines")
    enum.set_defaults(func=_cmd_enumerate)

    agg = sub.add_parser("aggregate", help="sum over all n-vertex graph classes")
    agg.add_argument("-n", type=_int, required=True)
    agg.add_argument("--allow-large", action="store_true")
    agg.add_argument("--workers", type=_workers, default=1)
    agg.add_argument("--json", action="store_true")
    agg.set_defaults(func=_cmd_aggregate)

    ver = sub.add_parser("verify", help="run the differential check suites")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (GraphTopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
