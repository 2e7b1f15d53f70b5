"""Command-line interface: count, enumerate, aggregate, verify.

Machine-readable results go to stdout (a single JSON document under
--json); timing and diagnostics go to stderr.  Exit codes: 0 success,
1 usage or input error or a worker process lost, 2 verification failure or
internal inconsistency.

The arguments are read by one walk over the _COMMANDS table, with no
argparse: an option is spelled --opt value, --opt=value, or by a unique
prefix of --opt; -n takes -n 3, -n3 or -n=3; -- ends the options; and a
value may start with - (--budget-edges -1 reaches its range check).  -h
or --help prints a usage line to stdout and exits 0.
"""

import json
import os
import sys
import time
from itertools import count
from operator import getitem
from types import SimpleNamespace

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


class _Help(Exception):
    """-h or --help: main prints the usage text and exits 0."""


def _dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _int(text):
    """An int option: ASCII decimal digits with an optional sign (int()
    alone also reads other scripts' digits, underscores and spaces)."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _int_at_least(text, least=0):
    """An int option of at least `least` (0 for --budget-edges)."""
    value = _int(text)
    if value < least:
        raise ValueError(f"must be at least {least}, got {value}")
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


_REQUIRED = object()  # the default of an option that must be given

# command -> (help line, handler, takes an expression, options); an option
# is (name, dest, converter, default), where the converter None marks a
# flag, which is False until given
_COMMANDS = {
    "count": (
        "tau and h for one graph: an expression such as box(K2,C4), or an edge-list --file",
        _cmd_count,
        True,
        (("--file", "file", str, None), ("--json", "json", None, False)),
    ),
    "enumerate": (
        "stream the transitive digraphs as JSON lines, or as DOT with --dot",
        _cmd_enumerate,
        True,
        (
            ("--file", "file", str, None),
            ("--budget-edges", "budget_edges", _int_at_least, None),
            ("--dot", "dot", None, False),
        ),
    ),
    "aggregate": (
        "sum over all n-vertex graph classes",
        _cmd_aggregate,
        False,
        (
            ("-n", "n", _int, _REQUIRED),
            ("--allow-large", "allow_large", None, False),
            ("--workers", "workers", _workers, 1),
            ("--json", "json", None, False),
        ),
    ),
    "verify": ("run the differential check suites", _cmd_verify, False, ()),
}
_HELP = (("-h", None, None, False), ("--help", None, None, False))
_CHOICES = ", ".join(map(repr, _COMMANDS))


def _usage(command):
    help_line, _, takes_expr, options = _COMMANDS[command]
    words = [f"usage: graphtop {command} [-h]"]
    for name, dest, convert, default in options:
        word = name if convert is None else f"{name} {dest.upper()}"
        words.append(word if default is _REQUIRED else f"[{word}]")
    if takes_expr:
        words.append("[expr]")
    return f"{' '.join(words)}\n\n{help_line}\n"


def _top_usage():
    lines = [f"  {command:<10} {entry[0]}" for command, entry in _COMMANDS.items()]
    return (
        f"usage: graphtop [-h] {{{','.join(_COMMANDS)}}} ...\n\n"
        + "\n".join(lines)
        + "\n\nRun graphtop <command> -h for its options.\n"
    )


def _is_option(item):
    # "-" alone and negative numbers are values, as in argparse
    return len(item) > 1 and item[0] == "-" and not item[1].isdigit()


def _option(item, options, where):
    """The option row that `item` names, and the value written into it
    (None if none): --opt or a unique prefix of it, each with an optional
    =value; a short option with its value glued on (-n3, -n=3)."""
    if item[:2] == "--":
        given, eq, value = item.partition("=")
        value = value if eq else None
        rows = [o for o in options if o[0] == given] or [
            o for o in options if given != "--" and o[0].startswith(given)
        ]
    else:
        given, value = item[:2], (item[2:].removeprefix("=") if len(item) > 2 else None)
        rows = [o for o in options if o[0] == given]
    if len(rows) != 1:
        raise _UsageError(
            f"argument {given}: not an option of {where}, nor a unique prefix of one"
        )
    return rows[0], value


def _parse(argv):
    """A fresh namespace for argv: command, func, expr if the command takes
    one, and one field per option of that command alone."""
    if not argv:
        raise _UsageError(f"argument command: required (choose from {_CHOICES})")
    command, items = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        if not _is_option(command):
            raise _UsageError(
                f"argument command: invalid choice: {command!r} (choose from {_CHOICES})"
            )
        _option(command, _HELP, "graphtop")  # refuses all but -h and --help
        raise _Help(_top_usage())
    _, func, takes_expr, options = _COMMANDS[command]
    args = SimpleNamespace(command=command, func=func)
    for _, dest, _, default in options:
        setattr(args, dest, default)
    positionals = []
    for item in items:
        if item == "--":
            positionals += items  # the rest of argv
        elif not _is_option(item):
            positionals.append(item)
        else:
            (name, dest, convert, _), value = _option(item, options + _HELP, command)
            if convert is None:  # a flag, or help
                if value is not None:
                    raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
                if dest is None:
                    raise _Help(_usage(command))
                setattr(args, dest, True)
                continue
            if value is None:
                value = next(items, None)
                if value is None or _is_option(value):
                    raise _UsageError(f"argument {name}: expected one argument")
            try:
                setattr(args, dest, convert(value))
            except ValueError as exc:
                raise _UsageError(f"argument {name}: {exc}") from None
    for name, dest, _, default in options:
        if getattr(args, dest) is _REQUIRED:
            raise _UsageError(f"argument {name}: required")
    if len(positionals) > takes_expr:
        takes = "one expression" if takes_expr else "no expression"
        extra = positionals[takes_expr]
        raise _UsageError(f"argument {extra}: unexpected, {command} takes {takes}")
    if takes_expr:
        args.expr = positionals[0] if positionals else None
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except _Help as exc:
        sys.stdout.write(str(exc))
        return 0
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
