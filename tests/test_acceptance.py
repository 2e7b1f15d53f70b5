"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
criterion is expected to pass at exact tolerance within its stated time
budget.  The circulating case table's 5-wheel row, (8, 4), is kept as
published and recorded as an erratum: criterion 3 asserts that the
engine-free brute-force oracle in conftest refutes it with (6, 3), the
value the engine and wheel_counts give (see the wheel_counts docstring).
"""

import contextlib
import io
import itertools
import json
import os
import time
from math import factorial

import pytest

from graphtop import (
    amalgam_counts,
    amalgamate,
    canonical_code,
    cartesian_product,
    complete_counts,
    complete_graph,
    cut_vertex_counts,
    cycle_counts,
    cycle_graph,
    disjoint_union,
    enumerate_transitive_digraphs,
    graphs_up_to_iso,
    h_burnside,
    induced_subgraph,
    null_graph,
    path_graph,
    product_counts,
    stirling2,
    stream_counts,
    tau,
    union_counts,
    wheel_counts,
    wheel_graph,
)
from graphtop.aggregate import aggregate_counts
from graphtop.cli import main
from graphtop.topology import (
    all_preorders,
    dual_topology,
    preorder_from_topology,
    preorder_to_digraph,
    topology_from_preorder,
)

from conftest import (
    assert_no_child_left,
    bowtie,
    brute_automorphisms,
    brute_transitive_digraphs,
    deadline,
    paw,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def test_criterion_1_golden_aggregates():
    t0 = time.perf_counter()
    got = {}
    for n in (2, 3, 4):
        code, out = run_cli("aggregate", "-n", str(n), "--json")
        assert code == 0
        doc = json.loads(out)
        got[n] = (doc["tau_n"], doc["h_n"])
    elapsed = time.perf_counter() - t0
    assert got == {2: (4, 3), 3: (29, 9), 4: (355, 33)}
    assert elapsed < 1.0
    print(f"PASS A1 aggregate n=2,3,4 -> (4,3),(29,9),(355,33) ({elapsed:.2f}s)")


def test_criterion_2_complete_graphs():
    t0 = time.perf_counter()
    k4 = complete_graph(4)
    assert tau(k4) == 75
    assert h_burnside(k4) == 8 and stream_counts(k4)[1] == 8
    formula4 = complete_counts(4)
    assert (formula4.tau, formula4.h) == (75, 8)

    by_formula = sum(stirling2(5, k) * factorial(k) for k in range(1, 6))
    assert tau(complete_graph(5)) == 541 == by_formula
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS A2 K4=(75,8) both routes, K5 tau=541 both routes ({elapsed:.2f}s)")


def _brute_counts(g):
    """(tau, h) from the conftest oracles alone: 3^m edge states, then
    orbits under every automorphism found by trying all n! permutations."""
    digraphs = brute_transitive_digraphs(g)
    auts = brute_automorphisms(g)
    orbits = {
        min(tuple(sorted((p[u], p[v]) for u, v in arcs)) for p in auts)
        for arcs in digraphs
    }
    return len(digraphs), len(orbits)


def test_criterion_3_cycles_and_wheels():
    published_cycles = {3: (13, 4), 4: (2, 1), 5: (0, 0), 6: (2, 1), 7: (0, 0), 8: (2, 1)}
    published_wheels = {4: (75, 8), 5: (8, 4), 6: (0, 0), 7: (4, 2), 8: (0, 0)}
    # Published rows that brute force refutes, with the corrected values.
    errata = {("W", 5): (6, 3)}
    tables = (
        ("C", cycle_graph, cycle_counts, published_cycles),
        ("W", wheel_graph, wheel_counts, published_wheels),
    )
    t0 = time.perf_counter()
    mismatches = []
    refuted = []
    for kind, make, formula, published in tables:
        for n, want in published.items():
            g = make(n)
            got = stream_counts(g)
            corrected = errata.get((kind, n))
            if corrected is None:
                if got != want:
                    mismatches.append(f"{kind}{n}: enumeration {got} != published {want}")
                continue
            oracle = _brute_counts(g)
            assert oracle != want, (
                f"{kind}{n}: brute force {oracle} agrees with published {want}; "
                "the erratum is stale"
            )
            assert oracle == corrected, f"{kind}{n}: brute force {oracle} != erratum {corrected}"
            assert got == corrected, f"{kind}{n}: enumeration {got} != erratum {corrected}"
            assert h_burnside(g) == corrected[1], f"{kind}{n}: burnside disagrees"
            by_formula = formula(n)
            assert (by_formula.tau, by_formula.h) == corrected, f"{kind}{n}: formula disagrees"
            refuted.append(f"published {kind}{n} {want} refuted by brute force: {oracle}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    if mismatches:
        print(f"FAIL A3 cycle/wheel tables ({elapsed:.2f}s): " + "; ".join(mismatches))
        pytest.fail("published case table not reproducible: " + "; ".join(mismatches))
    print(f"PASS A3 cycle/wheel tables n=3..8 / 4..8; {'; '.join(refuted)} ({elapsed:.2f}s)")


def test_criterion_4_products():
    t0 = time.perf_counter()
    prism = cartesian_product(complete_graph(2), cycle_graph(3))
    assert tau(prism) == 0
    cube = cartesian_product(complete_graph(2), cycle_graph(4))
    got = stream_counts(cube)
    assert got == (2, 1)
    formula = product_counts(complete_graph(2), cycle_graph(4))
    assert (formula.tau, formula.h) == got
    zero = product_counts(complete_graph(2), cycle_graph(3))
    assert (zero.tau, zero.h) == (0, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS A4 K2xC3 -> 0, K2xC4 -> (2,1) formula==enumeration ({elapsed:.2f}s)")


def test_criterion_5_correspondence_oracle():
    t0 = time.perf_counter()
    expected = {1: 1, 2: 4, 3: 29}
    spaces = []
    for n, want in expected.items():
        preorders = all_preorders(n)
        assert len(preorders) == want
        topologies = set()
        for r in preorders:
            t = topology_from_preorder(r)
            topologies.add(t)
            assert preorder_from_topology(t) == r
            d = preorder_to_digraph(r)
            assert d.out == tuple(r.rel[x] & ~(1 << x) for x in range(n))
            if n == 3:
                spaces.append((t, r))
        assert len(topologies) == want

    maps = list(itertools.product(range(3), repeat=3))
    for tx, rx in spaces:
        opens_x = tx.opens
        for ty, ry in spaces:
            for f in maps:
                by_preimage = True
                for m in ty.opens:
                    pre = 0
                    if m >> f[0] & 1:
                        pre |= 1
                    if m >> f[1] & 1:
                        pre |= 2
                    if m >> f[2] & 1:
                        pre |= 4
                    if pre not in opens_x:
                        by_preimage = False
                        break
                by_relation = True
                for x in range(3):
                    row = rx.rel[x]
                    target = ry.rel[f[x]]
                    for y in range(3):
                        if row >> y & 1 and not target >> f[y] & 1:
                            by_relation = False
                            break
                    if not by_relation:
                        break
                assert by_preimage == by_relation
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"PASS A5 29 preorders round-trip; 29*29*27 continuity routes agree "
        f"({elapsed:.2f}s)"
    )


def test_criterion_6_burnside_canonical_agreement():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            assert h_burnside(g) == stream_counts(g)[1], f"disagreement on {g!r}"
            checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34

    for g in (bowtie(), paw()):
        assert h_burnside(g) == stream_counts(g)[1]

    trio = {
        "P2": (path_graph(2), 1, amalgam_counts(complete_graph(2), 1, complete_graph(2), 0)),
        "paw": (paw(), 0, amalgam_counts(complete_graph(3), 0, complete_graph(2), 0)),
        "bowtie": (bowtie(), 0, amalgam_counts(complete_graph(3), 0, complete_graph(3), 0)),
    }
    for name, (g, cut, formula) in trio.items():
        engine = stream_counts(g)
        assert (formula.tau, formula.h) == engine, name
        by_cut = cut_vertex_counts(g, cut)
        assert (by_cut.tau, by_cut.h) == engine, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"PASS A6 burnside==codes on 52 classes + amalgams; "
        f"amalgam/cut-vertex formulas match enumeration ({elapsed:.2f}s)"
    )


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    k2, c4 = complete_graph(2), cycle_graph(4)

    cases = [
        ([(k2, 2)], disjoint_union(k2, k2)),
        ([(c4, 3)], disjoint_union(disjoint_union(c4, c4), c4)),
        ([(k2, 1), (null_graph(1), 1)], disjoint_union(k2, null_graph(1))),
    ]
    for parts, whole in cases:
        formula = union_counts(parts)
        assert (formula.tau, formula.h) == stream_counts(whole)
    h_formula = union_counts([(k2, 1), (null_graph(1), 1)])
    assert (h_formula.tau, h_formula.h) == (3, 2)

    for n in (1, 2, 3):
        for r in all_preorders(n):
            t = topology_from_preorder(r)
            assert dual_topology(dual_topology(t)) == t
            d = preorder_to_digraph(r)
            assert d.reverse().reverse() == d

    for g in (cycle_graph(3), c4, complete_graph(4), wheel_graph(5), paw(), bowtie()):
        stream = {d.out for d in enumerate_transitive_digraphs(g)}
        assert {d.reverse().out for d in enumerate_transitive_digraphs(g)} == stream

    taus = {}  # the search's tau, by canonical code

    def search_tau(g):
        code = canonical_code(g)
        if code not in taus:
            taus[code] = tau(g)
        return taus[code]

    for n in range(1, 6):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            t = search_tau(g)
            sub_vanishes = False
            for size in range(1, g.n + 1):
                for subset in itertools.combinations(range(g.n), size):
                    if search_tau(induced_subgraph(g, subset)) == 0:
                        sub_vanishes = True
                        break
                if sub_vanishes:
                    break
            assert sub_vanishes == (t == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS A7 union formulas, duality involution, reversal closure, "
        f"hereditary vanishing n<=5 ({elapsed:.2f}s)"
    )


def test_criterion_8_worker_determinism(monkeypatch, worker_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --workers 8 clamps to 2
    t0 = time.perf_counter()
    runs = {}
    for workers in ("1", "8"):
        with deadline(60):
            code, out = run_cli("aggregate", "-n", "5", "--json", "--workers", workers)
        assert code == 0
        runs[workers] = out.encode()
    assert runs["1"] == runs["8"]
    assert worker_starts == [2]  # the serial run forks none
    assert_no_child_left()
    elapsed = time.perf_counter() - t0
    print(
        f"PASS A8 aggregate -n 5 byte-identical for workers 1 and 8, "
        f"the second over 2 forked workers ({elapsed:.2f}s)"
    )


def test_scalability_gate_n6():
    t0 = time.perf_counter()
    tau6, h6, table = aggregate_counts(6)  # raises on burnside/codes disagreement
    elapsed = time.perf_counter() - t0
    assert len(table.entries) == 156
    assert (tau6, h6) == (209527, 718)
    assert elapsed < 120.0
    print(
        f"PASS gate aggregate n=6 -> (209527, 718), 156 classes, "
        f"burnside==codes throughout ({elapsed:.2f}s)"
    )
