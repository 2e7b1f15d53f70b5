"""Workload inputs, frozen references and output checks.

Inputs come from the workload name and the seed alone; graphtop only ever
sees the resulting command lines and edge-list files.  Every check
compares against the frozen values in reference.json with code of this
package, never with graphtop, so a defect in the program cannot vouch for
its own output.  Nothing here imports graphtop except derive_pool, the
self-check that re-derives the count-dense pool.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("aggregate-n6", "aggregate-n6-w2", "count-dense", "enumerate-stream")


def load_reference():
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Op:
    """One call of graphtop.cli.main and what its output must be."""

    label: str
    argv: list
    kind: str  # "aggregate", "count" or "stream"
    expect: dict
    inverse: tuple = ()  # maps relabeled vertices back to the frozen labels


def _relabel(rng, n, edges):
    """A seed-drawn relabeling: vertex v becomes perm[v]; edge order and
    endpoint order are shuffled too."""
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(moved)
    moved = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in moved]
    inverse = [0] * n
    for v, image in enumerate(perm):
        inverse[image] = v
    return tuple(inverse), moved


def _write_edge_list(path, n, edges):
    lines = [f"n {n}"] + [f"e {u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def edges_of(n, adj):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def ops_per_pass(workload, ref):
    if workload == "count-dense":
        return len(ref["count-dense"]["graphs"])
    if workload == "enumerate-stream":
        return len(ref["enumerate-stream"]["graphs"])
    return 1


def build_ops(workload, seed, workdir, ref):
    """The ops of one pass; edge-list inputs are written into workdir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("aggregate-n6", "aggregate-n6-w2"):
        argv = ["aggregate", "-n", "6", "--json"]
        if workload == "aggregate-n6-w2":
            argv += ["--workers", "2"]
        return [Op(workload, argv, "aggregate", ref["aggregate-n6"])]
    if workload == "count-dense":
        cases, argv, kind = ref["count-dense"]["graphs"], ["count", "--json"], "count"
    elif workload == "enumerate-stream":
        cases, argv, kind = ref["enumerate-stream"]["graphs"], ["enumerate"], "stream"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = list(range(len(cases)))
    rng.shuffle(order)
    ops = []
    for k in order:
        case = cases[k]
        n = len(case["adj"])
        inverse, edges = _relabel(rng, n, edges_of(n, case["adj"]))
        path = workdir / f"{workload}-{k}.txt"
        _write_edge_list(path, n, edges)
        ops.append(Op(case["name"], argv[:1] + ["--file", str(path)] + argv[1:],
                      kind, case, inverse))
    return ops


def stream_digest(lines, inverse):
    """(line count, digest) of an enumerate stream, independent of line
    order, over the digraphs mapped back through the inverse relabeling."""
    total = 0
    count = 0
    for line in lines:
        doc = json.loads(line)
        arcs = sorted((inverse[u], inverse[v]) for u, v in doc["arcs"])
        key = repr((doc["n"], arcs)).encode()
        total += int.from_bytes(hashlib.sha256(key).digest(), "big")
        count += 1
    return count, format(total % (1 << 256), "064x")


def check_op(op, exit_code, error, out_path, out_sha256):
    """None when the op's output matches the frozen reference, else why not."""
    if error is not None:
        return f"escaped exception: {error}"
    if exit_code != 0:
        return f"exit code {exit_code}"
    exp = op.expect
    try:
        if op.kind == "aggregate":
            if out_sha256 != exp["sha256"]:
                return f"stdout sha256 {out_sha256} != frozen {exp['sha256']}"
            doc = json.loads(out_path.read_bytes())
            got = (doc["tau_n"], doc["h_n"])
            want = (exp["tau_n"], exp["h_n"])
        elif op.kind == "count":
            doc = json.loads(out_path.read_bytes())
            got = (doc["n"], doc["edges"], doc["tau"], doc["h"])
            want = (len(exp["adj"]), exp["edges"], exp["tau"], exp["h"])
        else:
            with out_path.open("r", encoding="utf-8") as fh:
                got = stream_digest(fh, op.inverse)
            want = (exp["tau"], exp["digest"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None if got == want else f"got {got}, frozen {want}"


# ---------------------------------------------------------------------------
# count-dense pool self-check


def count_isomorphisms(n, a, b, first_only=False):
    """Number of bijections mapping graph a onto graph b (adjacency masks).

    Plain backtracking with degree matching; independent of graphtop.
    """
    deg_a = [bin(r).count("1") for r in a]
    deg_b = [bin(r).count("1") for r in b]
    if sorted(deg_a) != sorted(deg_b):
        return 0
    image = [-1] * n
    used = [False] * n
    found = 0

    def place(v):
        nonlocal found
        if v == n:
            found += 1
            return first_only
        for w in range(n):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            if any((a[v] >> u & 1) != (b[w] >> image[u] & 1) for u in range(v)):
                continue
            image[v], used[w] = w, True
            stop = place(v + 1)
            image[v], used[w] = -1, False
            if stop:
                return True
        return False

    place(0)
    return found


def derive_pool(ref):
    """Re-derive the count-dense pool from graphs_up_to_iso(7) by the frozen
    rule and check the n=7 labeled-count identity; returns a list of
    problems, empty when everything matches."""
    from graphtop import graphs_up_to_iso, tau

    rule = ref["count-dense"]["rule"]
    n = rule["n"]
    problems = []
    table = graphs_up_to_iso(n)
    entries = [e.graph for e in table.entries]
    if len(entries) != rule["classes"]:
        problems.append(f"{len(entries)} classes on {n} vertices, expected {rule['classes']}")
    auts = [count_isomorphisms(n, g.adj, g.adj) for g in entries]
    labeled = sum(factorial(n) // a for a in auts)
    if labeled != 2 ** (n * (n - 1) // 2):
        problems.append(f"sum of {n}!/|Aut| is {labeled}, expected 2^{n * (n - 1) // 2}")
    kn = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    derived = []
    for g, a in zip(entries, auts):
        if a < rule["min_aut_order"] or count_isomorphisms(n, g.adj, kn, True):
            continue
        t = tau(g)
        if t >= rule["min_tau"]:
            derived.append((g.adj, a, t))
    frozen = list(ref["count-dense"]["graphs"])
    for adj, a, t in derived:
        match = next(
            (f for f in frozen
             if (f["aut_order"], f["tau"]) == (a, t)
             and count_isomorphisms(n, adj, f["adj"], True)),
            None,
        )
        if match is None:
            problems.append(f"derived class {list(adj)} (|Aut|={a}, tau={t}) is not frozen")
        else:
            frozen.remove(match)
    for f in frozen:
        problems.append(f"frozen class {f['name']} was not derived")
    return problems

