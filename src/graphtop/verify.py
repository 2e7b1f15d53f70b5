"""Differential verification harness.

Runs the closed forms against the enumeration engine and the engine
against independent brute-force identities, printing one PASS/FAIL line
per check with both values.  Exit status 2 on any failure; nothing is
ever patched over.
"""

import itertools
import sys

from . import formulas
from .aggregate import aggregate_counts, graphs_up_to_iso
from .canon import digraph_code, generators
from .decomposition import tree_counts
from .enumeration import (
    _orbit_count,
    burnside,
    enumerate_transitive_digraphs,
    stream_masks,
    tau,
)
from .errors import InternalCheckError
from .graphs import (
    Graph,
    amalgamate,
    automorphism_group,
    canonical_code,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    induced_subgraph,
    is_bipartite,
    is_connected,
    null_graph,
    path_graph,
    wheel_graph,
)
from .topology import (
    all_preorders,
    canonical_code_digraph,
    digraph_to_preorder,
    dual_topology,
    is_continuous,
    preorder_from_topology,
    preorder_to_digraph,
    topology_from_preorder,
)


class _Report:
    def __init__(self, out):
        self.out = out
        self.failures = 0
        self.count = 0

    def check(self, name, lhs, rhs):
        ok = lhs == rhs
        self.count += 1
        if not ok:
            self.failures += 1
        op = "==" if ok else "!="
        print(f"{'PASS' if ok else 'FAIL'} {name}: {lhs} {op} {rhs}", file=self.out)
        return ok


def _engine_counts(report, name, g):
    """(tau, h) from the engine, with the three class counters compared:
    Burnside over the listed group, every term counted over the listed
    stream, against the distinct canonical digraph codes of the stream,
    and those codes against the stream's Aut(g)-orbits under canon's
    generators.  The stream is walked and Aut(g) is listed once.
    The tree's (|Aut|, tau, h) is compared with the listed group's order,
    the stream length and the code count.  The search admits g's own edge
    count: every graph checked here is built by this module."""
    stream = list(stream_masks(g, g.edge_count))
    by_codes = len({digraph_code(g.n, masks) for masks in stream})
    t, by_stream_orbits = _orbit_count(g.n, stream, generators(g.n, g.adj))
    auts = automorphism_group(g)
    by_orbits = burnside(auts, stream)
    report.check(f"{name}-orbit-agreement", by_orbits, by_codes)
    report.check(f"{name}-code-agreement", by_codes, by_stream_orbits)
    report.check(f"{name}-tree-agreement", tree_counts(g), (len(auts), t, by_codes))
    return t, by_codes


def _check_formula(report, name, g, result):
    engine = _engine_counts(report, name, g)
    report.check(name, (result.tau, result.h), engine)


def paw():
    """A triangle with a pendant edge at vertex 0."""
    return amalgamate(complete_graph(3), 0, complete_graph(2), 0)


def bowtie():
    """Two triangles sharing vertex 0."""
    return amalgamate(complete_graph(3), 0, complete_graph(3), 0)


def star(leaves):
    """Hub 0 joined to `leaves` leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _suite_formulas(report):
    for n in range(1, 6):
        _check_formula(
            report, f"complete-{n}", complete_graph(n), formulas.complete_counts(n)
        )
    for n in range(3, 9):
        _check_formula(report, f"cycle-{n}", cycle_graph(n), formulas.cycle_counts(n))
    for n in range(4, 9):
        _check_formula(report, f"wheel-{n}", wheel_graph(n), formulas.wheel_counts(n))

    # connected bipartite graphs on up to 8 vertices, one check each
    for n in range(2, 9):
        table = graphs_up_to_iso(n, keep=is_bipartite, max_vertices=8)
        for idx, entry in enumerate(table.entries):
            g = entry.graph
            if not is_connected(g):
                continue
            _check_formula(
                report, f"bipartite-{n}-{idx}", g, formulas.bipartite_counts(g)
            )

    products = [
        ("product-k2-c3", complete_graph(2), cycle_graph(3)),
        ("product-c3-c3", cycle_graph(3), cycle_graph(3)),
        ("product-k2-c4", complete_graph(2), cycle_graph(4)),
        ("product-k2-p3", complete_graph(2), path_graph(3)),
        ("product-k2-star3", complete_graph(2), star(3)),
        ("product-c4-c4", cycle_graph(4), cycle_graph(4)),
    ]
    for name, g, h in products:
        result = formulas.product_counts(g, h)
        _check_formula(report, name, cartesian_product(g, h), result)

    unions = [
        ("union-2k2", [(complete_graph(2), 2)]),
        ("union-3c4", [(cycle_graph(4), 3)]),
        ("union-k2-n1", [(complete_graph(2), 1), (null_graph(1), 1)]),
        ("union-2k3", [(complete_graph(3), 2)]),
        ("union-k3-k2", [(complete_graph(3), 1), (complete_graph(2), 1)]),
        ("union-c4-k3", [(cycle_graph(4), 1), (complete_graph(3), 1)]),
        ("union-paw-k2", [(paw(), 1), (complete_graph(2), 1)]),
        ("union-2paw", [(paw(), 2)]),
    ]
    for name, parts in unions:
        built = None
        for g, mult in parts:
            for _ in range(mult):
                built = g if built is None else disjoint_union(built, g)
        _check_formula(report, name, built, formulas.union_counts(parts))

    pieces = {
        "k2": complete_graph(2),
        "k3": complete_graph(3),
        "c4": cycle_graph(4),
        "k4": complete_graph(4),
    }
    names = list(pieces)
    for i, a in enumerate(names):
        for b in names[i:]:
            g, h = pieces[a], pieces[b]
            glued = amalgamate(g, 0, h, 0)
            _check_formula(
                report,
                f"amalgam-{a}-{b}",
                glued,
                formulas.amalgam_counts(g, 0, h, 0),
            )
            cut = formulas.cut_vertex_counts(glued, 0)
            _check_formula(report, f"cut-vertex-{a}-{b}", glued, cut)

    for name, g, v in [
        ("cut-vertex-p2", path_graph(2), 1),
        ("cut-vertex-paw", paw(), 0),
        ("cut-vertex-bowtie", bowtie(), 0),
    ]:
        _check_formula(report, name, g, formulas.cut_vertex_counts(g, v))


def _suite_oracles(report):
    expected_preorders = {1: 1, 2: 4, 3: 29}
    for n, want in expected_preorders.items():
        preorders = all_preorders(n)
        report.check(f"preorder-count-{n}", len(preorders), want)
        bad_roundtrip = 0
        for r in preorders:
            t = topology_from_preorder(r)
            if preorder_from_topology(t) != r:
                bad_roundtrip += 1
            d = preorder_to_digraph(r)
            if (d.out != tuple(r.rel[x] & ~(1 << x) for x in range(n))) or any(
                d.out[x] >> x & 1 for x in range(n)
            ):
                bad_roundtrip += 1
        report.check(f"preorder-roundtrip-{n}", bad_roundtrip, 0)
        topologies = {topology_from_preorder(r) for r in preorders}
        report.check(f"topology-count-{n}", len(topologies), want)

    spaces = [topology_from_preorder(r) for r in all_preorders(3)]
    mismatches = 0
    maps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for tx in spaces:
        for ty in spaces:
            for f in maps:
                try:
                    is_continuous(f, tx, ty)
                except InternalCheckError:
                    mismatches += 1
    report.check("continuity-route-agreement-3", mismatches, 0)

    brute = {1: (1, 1), 2: (4, 3), 3: (29, 9), 4: (355, 33)}
    for n in range(1, 5):
        preorders = all_preorders(n)
        codes = {
            canonical_code_digraph(preorder_to_digraph(r)) for r in preorders
        }
        tau_n, h_n, _ = aggregate_counts(n)
        report.check(f"aggregate-vs-brute-{n}", (tau_n, h_n), brute[n])
        report.check(
            f"brute-preorders-{n}", (len(preorders), len(codes)), brute[n]
        )

    from math import factorial

    for n in range(1, 7):
        table = graphs_up_to_iso(n)
        total = sum(
            factorial(n) // len(automorphism_group(e.graph)) for e in table.entries
        )
        report.check(f"labeled-count-{n}", total, 2 ** (n * (n - 1) // 2))

    for n in range(1, 6):
        report.check(
            f"ordered-partition-oracle-{n}",
            formulas.complete_counts(n).tau,
            count_ordered_partitions(n),
        )
    for n in range(1, 11):
        report.check(
            f"composition-oracle-{n}",
            formulas.complete_counts(n).h,
            count_compositions(n),
        )

    bad_dual = 0
    for n in (1, 2, 3):
        for r in all_preorders(n):
            t = topology_from_preorder(r)
            if dual_topology(dual_topology(t)) != t:
                bad_dual += 1
            d = preorder_to_digraph(r)
            if d.reverse().reverse() != d:
                bad_dual += 1
            # closed sets of t = opens of the arc-reversed relation
            reversed_preorder = digraph_to_preorder(d.reverse())
            if dual_topology(t) != topology_from_preorder(reversed_preorder):
                bad_dual += 1
    report.check("duality-involution", bad_dual, 0)

    bad_reversal = 0
    for g in [
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        wheel_graph(5),
        paw(),
    ]:
        stream = set()
        reversed_stream = set()
        for d in enumerate_transitive_digraphs(g):
            stream.add(d.out)
            reversed_stream.add(d.reverse().out)
        if stream != reversed_stream:
            bad_reversal += 1
    report.check("reversal-closure", bad_reversal, 0)

    taus = {}  # the search's tau, by canonical code

    def search_tau(g):
        code = canonical_code(g)
        if code not in taus:
            taus[code] = tau(g)
        return taus[code]

    for n in range(1, 7):
        bad = 0
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            vanish = [
                search_tau(induced_subgraph(g, s)) == 0
                for k in range(1, g.n + 1)
                for s in itertools.combinations(range(g.n), k)
            ]
            if any(vanish) != (search_tau(g) == 0):
                bad += 1
        report.check(f"hereditary-vanishing-{n}", bad, 0)


def count_ordered_partitions(n):
    """Ordered set partitions of {0..n-1}, counted by direct recursion."""

    def go(remaining):
        if not remaining:
            return 1
        total = 0
        items = sorted(remaining)
        for k in range(1, len(items) + 1):
            for block in itertools.combinations(items, k):
                total += go(remaining - set(block))
        return total

    return go(set(range(n)))


def count_compositions(n):
    """Compositions of n, counted by direct recursion."""

    def go(remaining):
        if remaining == 0:
            return 1
        return sum(go(remaining - first) for first in range(1, remaining + 1))

    return go(n)


def run_verify():
    """Run both suites; returns 0 when every check passed, 2 otherwise."""
    report = _Report(sys.stdout)
    _suite_formulas(report)
    _suite_oracles(report)
    status = "ok" if report.failures == 0 else "FAILED"
    print(f"{report.count} checks, {report.failures} failures: {status}")
    return 0 if report.failures == 0 else 2
