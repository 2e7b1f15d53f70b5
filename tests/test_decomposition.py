"""|Aut|, tau and h from the modular-decomposition tree."""

import io
import random
from math import factorial

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
    decomposition,
    disjoint_union,
    enumeration,
    graphs_up_to_iso,
    null_graph,
    path_graph,
    tau,
    verify,
    wheel_counts,
    wheel_graph,
)
from graphtop.aggregate import class_counts
from graphtop.canon import _bits
from graphtop.decomposition import tree_counts
from graphtop.enumeration import stream_masks
from graphtop.errors import InternalCheckError

from conftest import paw, random_graph, twin_blow_up


@pytest.fixture
def no_search(monkeypatch):
    """Make any call into the transitive-digraph search raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    for name in ("_Search", "stream_masks", "_walk"):
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


def tree_tau(g):
    return tree_counts(g)[1]


def _reference_counts(g):
    """(|Aut|, tau, h) by listing Aut(g), the plain search and Burnside
    with every term counted over the stream."""
    auts = automorphism_group(g)
    return len(auts), tau(g), burnside(auts, stream_masks(g))


@pytest.mark.parametrize("n", range(7))
def test_tree_matches_the_search_on_every_class(n):
    for entry in graphs_up_to_iso(n).entries:
        g = entry.graph
        assert tree_counts(g) == _reference_counts(g), g


def test_complete_graphs_need_no_search(no_search):
    for n in range(1, 17):
        want = (factorial(n), complete_counts(n).tau, 2 ** (n - 1))
        assert tree_counts(complete_graph(n)) == want
    with pytest.raises(AssertionError, match="the search ran"):
        tau(complete_graph(3))


def test_hand_cases(no_search):
    assert tree_tau(Graph(0, ())) == 1
    for n in range(3, 12):
        assert tree_tau(cycle_graph(n)) == cycle_counts(n).tau  # odd n >= 5: 0
    for n in range(4, 12):
        assert tree_tau(wheel_graph(n)) == wheel_counts(n).tau  # W5: 3! = 6
    assert tree_tau(cycle_complement(7)) == 0  # prime, not a comparability graph
    assert tree_tau(path_graph(3)) == 2  # P4 is prime: one orientation and its reverse
    assert tree_tau(complete_bipartite(1, 1)) == 3  # K2: one twin class of size 2
    for m in range(1, 5):
        for n in range(max(m, 2), 6):
            assert tree_tau(complete_bipartite(m, n)) == 2  # series node, 2 children
    # K_n minus an edge: a series node with 2 children, one of them a twin
    # class of size s = n - 2, giving 2! * sum_k S(s, k) (k + 1)! / 2!
    assert [tree_tau(complete_minus_edge(n)) for n in (3, 4, 5, 6)] == [2, 8, 44, 308]
    assert tree_tau(paw()) == 6  # twins {1, 2} under a parallel node: 2! * 3


def test_tree_matches_the_search_on_twin_blow_ups():
    rng = random.Random(2026)
    checked = 0
    while checked < 12:
        g = twin_blow_up(rng, rng.randint(7, 10))
        if g.edge_count <= 18:  # keeps the search, the reference here, small
            assert tree_tau(g) == tau(g), g
            checked += 1


def test_a_disagreeing_tree_is_reported(monkeypatch):
    monkeypatch.setattr("graphtop.aggregate.tree_counts", lambda g: (6, tau(g) + 1, 4))
    k3 = complete_graph(3)
    with pytest.raises(InternalCheckError, match="tree="):
        class_counts(k3, canon.generators(3, k3.adj))
    monkeypatch.setattr(verify, "tree_counts", lambda g: (6, -1, 4))
    report = verify._Report(io.StringIO())
    verify._engine_counts(report, "k3", complete_graph(3))
    assert report.failures == 1
    out = report.out.getvalue()
    assert "FAIL k3-tree-agreement: (6, -1, 4) != (6, 13, 4)" in out


def test_tree_counts_match_the_listed_group_on_larger_graphs():
    """Random graphs on 8 to 10 vertices, and class 1856 of the n = 8
    classes: a P4 quotient over 0, 7, a C5 on 1..5 and 6.  Its H is
    trivial, and the C5's h = 0 must still zero the node's h."""
    edges = "0-7 1-2 1-3 1-6 1-7 2-4 2-6 2-7 3-5 3-6 3-7 4-5 4-6 4-7 5-6 5-7"
    g = Graph.from_edges(8, [tuple(map(int, e.split("-"))) for e in edges.split()])
    assert tree_counts(g) == _reference_counts(g) == (10, 0, 0)
    rng = random.Random(909)
    checked = 0
    while checked < 24:
        n = rng.randint(8, 10)
        g = twin_blow_up(rng, n) if checked % 3 else random_graph(rng, n)
        if g.edge_count > 18:  # keeps the search, the reference here, small
            continue
        assert tree_counts(g) == _reference_counts(g), g
        checked += 1


def _orbits(terms):
    """Burnside over (class size, Fix(sigma)) pairs, one per conjugacy class."""
    total, rem = divmod(
        sum(size * fixed for size, fixed in terms), sum(size for size, _ in terms)
    )
    assert rem == 0
    return total


def test_fix_tree_hand_cases(no_search):
    """Hand-derived Fix(sigma), one term per conjugacy class with the
    identity fixing all tau digraphs, must average to the tree's h."""
    # K2: the swap keeps only the doubled edge
    assert tree_counts(complete_graph(2)) == (2, 3, _orbits([(1, 3), (1, 1)]))
    # K3: one series node of three single vertices; sum_k S(c, k) k! over
    # the c cycles of sigma: 13 for c = 3, 3 for c = 2, 1 for c = 1
    k3 = _orbits([(1, 13), (3, 3), (2, 1)])
    assert tree_counts(complete_graph(3)) == (6, 13, k3) == (6, 13, 4)
    # C6 is prime with the orientations even -> odd and odd -> even: a
    # rotation by one step or a reflection through two edges swaps them
    # (rotations by 1, 2 and 3 steps fix 0, 2 and 0; reflections through
    # two vertices fix 2, through two edges 0)
    c6 = _orbits([(1, 2), (2, 0), (2, 2), (1, 0), (3, 2), (3, 0)])
    assert tree_counts(cycle_graph(6)) == (12, 2, c6) == (12, 2, 1)
    # K3,3: a series node over the two sides; swapping them moves a child
    # of two or more vertices, so nothing is fixed, while a permutation
    # inside the sides keeps both orders of the sides
    k33 = _orbits([(36, 2), (36, 0)])
    assert tree_counts(complete_bipartite(3, 3)) == (72, 2, k33) == (72, 2, 1)
    # two triangles: a parallel node over two K3 children, the multisets of
    # two of K3's 4 classes; a swap of the triangles fixes 13 digraphs when
    # its square is the identity and 1 when its square is a 3-cycle
    two_k3 = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert tree_counts(two_k3) == (72, 169, 10)
    # W5: hub 0 and the rim pairs {1, 3} and {2, 4} under one series node;
    # rotations by one and two steps fix 0 and 6, reflections through two
    # rim vertices 6, through two rim edges 0
    w5 = _orbits([(1, 6), (2, 0), (1, 6), (2, 6), (2, 0)])
    assert tree_counts(wheel_graph(5)) == (8, 6, w5) == (8, 6, 3)


def test_burnside_runs_no_search(no_search):
    """h by Burnside over the tree's node groups, with no listed group and
    no pass over the stream."""
    cases = [
        (complete_graph(5), complete_counts(5)),
        (wheel_graph(6), wheel_counts(6)),
        (cycle_graph(8), cycle_counts(8)),
    ]
    for g, want in cases:
        assert tree_counts(g)[1:] == (want.tau, want.h)


def test_tree_counts_hand_cases(no_search):
    for n in range(1, 17):
        assert tree_counts(null_graph(n)) == (factorial(n), 1, 1)
    # k copies of K2: each edge carries one of three digraphs, and the
    # classes are the multisets of k of K2's two classes
    g = complete_graph(2)
    for k in range(1, 9):
        assert tree_counts(g) == (2**k * factorial(k), 3**k, k + 1)
        g = disjoint_union(g, complete_graph(2))


def _p4_with_vertex_1_replaced(edges, size):
    """P4 0-1-2-3 with vertex 1 replaced by a module on 1 and the size - 1
    vertices from 4, joined inside by edges."""
    module = [1, *range(4, 3 + size)]
    outer = [(0, x) for x in module] + [(x, 2) for x in module] + [(2, 3)]
    return Graph.from_edges(3 + size, outer + edges)


@pytest.mark.parametrize(
    "g, primes",
    [
        (path_graph(3), 1),
        (cycle_graph(5), 1),
        (Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]), 1),  # the bull
        (_p4_with_vertex_1_replaced([(1, 4)], 2), 1),  # a K2 child under the P4
        (_p4_with_vertex_1_replaced([(1, 4), (4, 5), (5, 6)], 4), 2),  # a P4 in a P4
    ],
    ids=["P4", "C5", "bull", "P4[K2]", "P4[P4]"],
)
def test_one_canon_walk_per_prime_node(monkeypatch, g, primes):
    """Each prime quotient's code and generators come from one walk."""
    calls = {"walks": 0, "primes": 0}

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)

        return inner

    monkeypatch.setattr(canon, "_search", counted("walks", canon._search))
    monkeypatch.setattr(
        decomposition,
        "_prime_orientations",
        counted("primes", decomposition._prime_orientations),
    )
    got = tree_counts(g)
    assert calls == {"walks": primes, "primes": primes}
    monkeypatch.undo()
    assert got == _reference_counts(g)


def _transitive_orientations(q):
    """The edges (a, b), a < b, of the graph q, and every transitive
    orientation of it by brute force: bit i of the mask is orientation i,
    in which the e-th edge points a -> b iff bit e of i is set.  All 2^E
    orientations are tested at once, one bit of a big int each."""
    k = len(q)
    edges = [(a, b) for a in range(k) for b in range(a + 1, k) if q[a] >> b & 1]
    full = (1 << (1 << len(edges))) - 1
    arc = {}
    for e, (a, b) in enumerate(edges):
        width = 1 << e  # runs of width 0s then width 1s: bit e of i
        arc[a, b] = full // ((1 << 2 * width) - 1) * (((1 << width) - 1) << width)
        arc[b, a] = full ^ arc[a, b]
    bad = 0
    for (a, b), ab in arc.items():
        for c in _bits(q[b] & ~(1 << a)):  # a -> b -> c needs a -> c
            bad |= ab & arc[b, c] & ~arc.get((a, c), 0)
    return edges, full & ~bad


def test_prime_orientations_match_a_brute_force_on_every_quotient(monkeypatch):
    """Every prime quotient the tree meets over the classes with n <= 7:
    None iff no orientation is transitive, else a transitive orientation
    whose reverse is the only other one."""
    met = {}
    kernel = decomposition._prime_orientations

    def captured(q):
        met[tuple(q)] = kernel(q)
        return met[tuple(q)]

    monkeypatch.setattr(decomposition, "_prime_orientations", captured)
    for n in range(8):
        for entry in graphs_up_to_iso(n).entries:
            tree_counts(entry.graph)
    assert (len(met), sum(got is None for got in met.values())) == (458, 176)
    for q, got in met.items():
        edges, transitive = _transitive_orientations(q)
        if got is None:
            assert transitive == 0, q
            continue
        i = sum(1 << e for e, edge in enumerate(edges) if edge in got)
        assert got == {(a, b) if i >> e & 1 else (b, a) for e, (a, b) in enumerate(edges)}, q
        reverse = i ^ ((1 << len(edges)) - 1)
        assert transitive == 1 << i | 1 << reverse, q


def test_prime_orientations_refuses_a_class_that_is_not_half_the_arcs():
    """C4's arcs fall into two classes, so it gets one of them; K3's six
    arcs are six classes."""
    assert decomposition._prime_orientations([0b1010, 0b0101, 0b1010, 0b0101]) == {
        (0, 1), (2, 1), (2, 3), (0, 3)
    }  # C4: one alternating orientation
    with pytest.raises(InternalCheckError, match="1 of its 6 arcs, not half"):
        decomposition._prime_orientations([0b110, 0b101, 0b011])
