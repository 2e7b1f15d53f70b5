"""tau and Fix(sigma) from the modular-decomposition tree."""

import io
import json
import os
import random

import pytest

from graphtop import (
    Graph,
    automorphism_group,
    burnside,
    canon,
    complete_counts,
    complete_graph,
    cycle_counts,
    cycle_graph,
    enumeration,
    fix_count,
    graphs_up_to_iso,
    path_graph,
    tau,
    verify,
    wheel_counts,
    wheel_graph,
)
from graphtop.aggregate import class_counts
from graphtop.cli import main
from graphtop.decomposition import fix_tree, tau_tree
from graphtop.errors import InternalCheckError, NotAnAutomorphism

from conftest import paw, random_graph, twin_blow_up


@pytest.fixture
def no_search(monkeypatch):
    """Make any call into the transitive-digraph search raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    for name in ("_Search", "_gen_masks", "_walk"):
        monkeypatch.setattr(enumeration, name, refuse)


def complete_bipartite(m, n):
    return Graph.from_edges(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def complete_minus_edge(n):
    """K_n without the edge {0, 1}: a twin class of n - 2 universal vertices."""
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    )


def cycle_complement(n):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 2, n) if v - u != n - 1]
    )


@pytest.mark.parametrize("n", range(7))
def test_tree_matches_the_search_on_every_class(n):
    for entry in graphs_up_to_iso(n).entries:
        assert tau_tree(entry.graph) == tau(entry.graph), entry.graph


def test_complete_graphs_need_no_search(no_search):
    for n in range(1, 17):
        assert tau_tree(complete_graph(n)) == complete_counts(n).tau
    with pytest.raises(AssertionError, match="the search ran"):
        tau(complete_graph(3))


def test_hand_cases(no_search):
    assert tau_tree(Graph(0, ())) == 1
    for n in range(3, 12):
        assert tau_tree(cycle_graph(n)) == cycle_counts(n).tau  # odd n >= 5: 0
    for n in range(4, 12):
        assert tau_tree(wheel_graph(n)) == wheel_counts(n).tau  # W5: 3! = 6
    assert tau_tree(cycle_complement(7)) == 0  # prime, not a comparability graph
    assert tau_tree(path_graph(3)) == 2  # P4 is prime: one orientation and its reverse
    assert tau_tree(complete_bipartite(1, 1)) == 3  # K2: one twin class of size 2
    for m in range(1, 5):
        for n in range(max(m, 2), 6):
            assert tau_tree(complete_bipartite(m, n)) == 2  # series node, 2 children
    # K_n minus an edge: a series node with 2 children, one of them a twin
    # class of size s = n - 2, giving 2! * sum_k S(s, k) (k + 1)! / 2!
    assert [tau_tree(complete_minus_edge(n)) for n in (3, 4, 5, 6)] == [2, 8, 44, 308]
    assert tau_tree(paw()) == 6  # twins {1, 2} under a parallel node: 2! * 3


def test_tree_matches_the_search_on_twin_blow_ups():
    rng = random.Random(2026)
    checked = 0
    while checked < 12:
        g = twin_blow_up(rng, rng.randint(7, 10))
        if g.edge_count <= 18:  # keeps the search, the reference here, small
            assert tau_tree(g) == tau(g), g
            checked += 1


def test_a_disagreeing_tree_is_reported(monkeypatch):
    monkeypatch.setattr("graphtop.aggregate.tau_tree", lambda g: tau(g) + 1)
    with pytest.raises(InternalCheckError, match="tree="):
        class_counts(complete_graph(3))
    monkeypatch.setattr(verify, "tau_tree", lambda g: -1)
    report = verify._Report(io.StringIO())
    verify._engine_counts(report, "k3", complete_graph(3))
    assert report.failures == 1
    assert "FAIL k3-tree-agreement: -1 != 13" in report.out.getvalue()


@pytest.mark.parametrize("expr", ["box(K2,C4)", "W5"])
def test_count_with_two_workers_matches_serial(capsys, monkeypatch, expr):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outs = []
    for workers in ("1", "2"):
        assert main(["count", expr, "--json", "--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["tau"] == {"box(K2,C4)": 2, "W5": 6}[expr]


def _class_reps(g):
    return [rep for rep, _ in canon.conjugacy_classes(automorphism_group(g))]


def test_fix_tree_matches_the_search_on_every_small_class():
    """Every conjugacy class of Aut(G), the identity included, for every
    class with n <= 6."""
    for n in range(7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            reps = _class_reps(g)
            assert fix_tree(g, reps) == [fix_count(g, r) for r in reps], g


def test_fix_tree_matches_the_search_on_larger_graphs():
    rng = random.Random(909)
    checked = 0
    while checked < 24:
        n = rng.randint(8, 10)
        g = twin_blow_up(rng, n) if checked % 3 else random_graph(rng, n)
        if g.edge_count > 18:  # keeps the search, the reference here, small
            continue
        reps = _class_reps(g)
        assert fix_tree(g, reps) == [fix_count(g, r) for r in reps], g
        checked += 1


def test_fix_tree_hand_cases(no_search):
    k2, k3 = complete_graph(2), complete_graph(3)
    assert fix_tree(k2, [(0, 1), (1, 0)]) == [3, 1]  # the swap keeps the doubled edge
    # K3: one series node of three single vertices; sum_k S(c, k) k! over
    # the c cycles of sigma: 13 for c = 3, 3 for c = 2, 1 for c = 1
    assert fix_tree(k3, [(0, 1, 2), (1, 0, 2), (1, 2, 0)]) == [13, 3, 1]
    # C6 is prime with the orientations even -> odd and odd -> even: a
    # rotation by one step or a reflection through two edges swaps them
    c6 = cycle_graph(6)
    rotations = [tuple((v + r) % 6 for v in range(6)) for r in (1, 2, 3)]
    reflections = [tuple((r - v) % 6 for v in range(6)) for r in (0, 1)]
    assert fix_tree(c6, rotations + reflections) == [0, 2, 0, 2, 0]
    # K3,3: a series node over the two sides; swapping them moves a child
    # of two or more vertices, so nothing is fixed, while a swap inside a
    # side keeps both orders of the sides
    k33 = complete_bipartite(3, 3)
    assert fix_tree(k33, [(3, 4, 5, 0, 1, 2), (1, 0, 2, 3, 4, 5)]) == [0, 2]
    # two triangles swapped: their series nodes form one orbit of length 2,
    # and sigma^2 decides the factor: the identity gives 13, a 3-cycle 1
    two_k3 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert fix_tree(two_k3, [(3, 4, 5, 0, 1, 2), (3, 4, 5, 1, 2, 0)]) == [13, 1]
    # W5: hub 0 and the rim pairs {1, 3} and {2, 4} under one series node
    w5 = wheel_graph(5)
    sigmas = [(0, 2, 3, 4, 1), (0, 3, 4, 1, 2), (0, 3, 2, 1, 4), (0, 2, 1, 4, 3)]
    assert fix_tree(w5, sigmas) == [0, 6, 6, 0]
    assert burnside(w5, automorphism_group(w5), tau_tree(w5)) == 3


def test_fix_tree_checks_each_permutation():
    with pytest.raises(NotAnAutomorphism):
        fix_tree(path_graph(2), [(0, 1, 2), (1, 0, 2)])
    with pytest.raises(NotAnAutomorphism):
        fix_tree(complete_graph(2), [(0, 0)])


def test_burnside_runs_no_search(no_search):
    cases = [
        (complete_graph(5), complete_counts(5)),
        (wheel_graph(6), wheel_counts(6)),
        (cycle_graph(8), cycle_counts(8)),
    ]
    for g, want in cases:
        assert burnside(g, automorphism_group(g), tau_tree(g)) == want.h
    k33 = complete_bipartite(3, 3)  # two orders of the sides, one up to swapping
    assert burnside(k33, automorphism_group(k33), tau_tree(k33)) == 1
