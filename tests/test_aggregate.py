import itertools
from math import factorial

import pytest

from graphtop import (
    Graph,
    aggregate,
    aggregate_counts,
    automorphism_group,
    canon,
    canonical_code,
    canonical_code_digraph,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumeration,
    graphs_up_to_iso,
    path_graph,
    stream_counts,
    tau,
    wheel_graph,
)
from graphtop.aggregate import class_counts, labeled_copies
from graphtop.decomposition import tree_counts
from graphtop.errors import InternalCheckError, SizeBoundExceeded
from graphtop.expr import build_graph, parse_graph_expr
from graphtop.graphs import is_bipartite
from graphtop.topology import all_preorders, preorder_to_digraph

from conftest import all_masks_classes, brute_automorphisms, dimino_closure, paw

KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_class_counts_match_known_table():
    for n, want in KNOWN_CLASS_COUNTS.items():
        assert len(graphs_up_to_iso(n).entries) == want


def test_classes_match_the_all_masks_oracle():
    """One mask per Aut(base)-orbit, where the new vertex has minimum
    degree, gives the same Graphs in the same order as all masks."""
    for n in range(7):
        assert [e.graph for e in graphs_up_to_iso(n).entries] == all_masks_classes(n)
        bipartite = graphs_up_to_iso(n, keep=is_bipartite).entries
        assert [e.graph for e in bipartite] == all_masks_classes(n, keep=is_bipartite)


def test_bipartite_class_counts():
    """keep is applied to orbit representatives only: the bipartite
    classes still number OEIS A033995 for n = 1..7."""
    counts = [len(graphs_up_to_iso(n, keep=is_bipartite).entries) for n in range(1, 8)]
    assert counts == [1, 2, 3, 7, 13, 35, 88]


def test_bound():
    with pytest.raises(SizeBoundExceeded):
        graphs_up_to_iso(8)
    with pytest.raises(ValueError):
        aggregate_counts(0)


def test_classes_against_brute_force_n4():
    # dedup all 64 labeled graphs by exhaustive permutation matching
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    reps = []
    for picks in itertools.product((0, 1), repeat=6):
        g = Graph.from_edges(4, [e for e, p in zip(pairs, picks) if p])
        edges = set(g.edges())
        if not any(
            {tuple(sorted((p[u], p[v]))) for u, v in r.edges()} == edges
            for r in reps
            for p in itertools.permutations(range(4))
        ):
            reps.append(g)
    assert len(reps) == 11
    table_codes = {canonical_code(e.graph) for e in graphs_up_to_iso(4).entries}
    assert table_codes == {canonical_code(g) for g in reps}


def test_entries_are_canonical_and_sorted():
    for n in (3, 4, 5):
        entries = graphs_up_to_iso(n).entries
        codes = [canonical_code(e.graph) for e in entries]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_labeled_count_identity():
    for n in range(1, 7):
        table = graphs_up_to_iso(n)
        total = sum(
            factorial(n) // len(automorphism_group(e.graph)) for e in table.entries
        )
        assert total == 2 ** (n * (n - 1) // 2)


def test_labeled_count_identity_n7():
    table = graphs_up_to_iso(7)
    total = sum(factorial(7) // len(automorphism_group(e.graph)) for e in table.entries)
    assert total == 2**21


def test_aggregate_golden_values():
    assert aggregate_counts(2)[:2] == (4, 3)
    assert aggregate_counts(3)[:2] == (29, 9)
    assert aggregate_counts(4)[:2] == (355, 33)


def test_aggregate_n3_per_class():
    _, _, table = aggregate_counts(3)
    by_edges = sorted(
        (e.graph.edge_count, e.tau, e.h, labeled_copies(3, e.aut_order))
        for e in table.entries
    )
    assert by_edges == [
        (0, 1, 1, 1),  # the empty graph
        (1, 3, 2, 3),  # one edge plus an isolated point
        (2, 2, 2, 3),  # the 2-edge path
        (3, 13, 4, 1),  # the triangle
    ]


def test_aggregate_against_preorder_oracle():
    expected = {1: (1, 1), 2: (4, 3), 3: (29, 9), 4: (355, 33)}
    for n, want in expected.items():
        preorders = all_preorders(n)
        classes = {canonical_code_digraph(preorder_to_digraph(r)) for r in preorders}
        assert (len(preorders), len(classes)) == want
        assert aggregate_counts(n)[:2] == want


def test_aggregate_n5():
    tau5, h5, table = aggregate_counts(5)
    assert (tau5, h5) == (6942, 139)
    assert len(table.entries) == 34


def test_class_counts_cross_checks():
    k4 = complete_graph(4)
    aut, t, h = class_counts(k4, canon.generators(4, k4.adj))
    assert (aut, t, h) == (24, 75, 8)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])  # exercises the component rule
    aut, t, h = class_counts(two_k2, canon.generators(4, two_k2.adj))
    assert (aut, t, h) == (8, 9, 3)


def _two_k4_k1_without_the_swap():
    """K4 + K4 + K1 (9 points, rows past a byte) and canon's generators
    less those that swap the two K4s."""
    g = build_graph(parse_graph_expr("union(K4,union(K4,K1))"))
    return g, tuple(s for s in canon.generators(g.n, g.adj) if s[0] < 4)


@pytest.mark.parametrize(
    "g, gens, match",
    [
        # no generator: every K4 member is an orbit of its own
        (complete_graph(4), (), r"tree=\(75,8\) stream=\(75,75\)"),
        # swapping 0 and 1 of the path 0-1-2-3 maps the edge 1-2 onto the non-edge 0-2
        (path_graph(3), ((1, 0, 2, 3),), "missing from the stream"),
        # without the K4 swap, orbits of two members split in two
        (*_two_k4_k1_without_the_swap(), r"tree=\(5625,36\) stream=\(5625,64\)"),
    ],
)
def test_class_counts_refuses_bad_generators(g, gens, match):
    """A generator that is no automorphism maps a member out of the
    stream, and a missing one splits orbits; class_counts raises on
    both, on rows of a byte and on wider ones."""
    with pytest.raises(InternalCheckError, match=match):
        class_counts(g, gens)


def test_class_counts_searches_within_the_class_edge_count():
    """A class is searched within its own edge count, not a fixed cap:
    the 4-cube C4 x C4 has 32 edges, over the library default of 24."""
    q4 = cartesian_product(cycle_graph(4), cycle_graph(4))
    assert q4.edge_count == 32
    assert class_counts(q4, canon.generators(16, q4.adj)) == (384, 2, 1)


def test_workers_match_single():
    single = aggregate_counts(4)
    multi = aggregate_counts(4, workers=2)
    assert single[:2] == multi[:2]
    assert [(e.aut_order, e.tau, e.h) for e in single[2].entries] == [
        (e.aut_order, e.tau, e.h) for e in multi[2].entries
    ]


def test_timing_fills_for_any_worker_count():
    serial = aggregate_counts(5)
    multi = aggregate_counts(5, workers=2)
    for table in (serial[2], multi[2]):
        assert len(table) == 34
        assert all(type(e.seconds) is float and e.seconds >= 0 for e in table.entries)
    assert multi[:2] == serial[:2]
    assert [(e.aut_order, e.tau, e.h) for e in multi[2].entries] == [
        (e.aut_order, e.tau, e.h) for e in serial[2].entries
    ]


def _count_calls(monkeypatch, calls, module, name):
    fn = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(4),
        wheel_graph(5),
        cartesian_product(complete_graph(2), cycle_graph(4)),
        disjoint_union(paw(), complete_graph(2)),
    ],
)
def test_class_counts_makes_one_pass(monkeypatch, g):
    """One plain search, no Burnside term, and no split of Aut(g) into
    conjugacy classes: |Aut|, tau and h come from the tree.  The union
    rule's check takes the paw, which no closed form covers, from the
    tree too, so it adds no pass."""
    want = (len(automorphism_group(g)), tau(g), stream_counts(g)[1])
    gens = canon.generators(g.n, g.adj)
    calls = {}
    _count_calls(monkeypatch, calls, enumeration, "stream_masks")
    _count_calls(monkeypatch, calls, enumeration, "_fixed")
    _count_calls(monkeypatch, calls, canon, "conjugacy_classes")
    assert class_counts(g, gens) == want
    assert calls == {"stream_masks": 1, "_fixed": 0, "conjugacy_classes": 0}


@pytest.mark.parametrize("keep", [None, is_bipartite])
def test_carried_generators_close_to_the_tree_order(keep):
    """Each class with n <= 6 carries generators from generation: each is
    an automorphism of the class's graph, and together they close to a
    group of the tree's order |Aut|."""
    for n in range(7):
        for entry in graphs_up_to_iso(n, keep=keep).entries:
            g = entry.graph
            edges = set(g.edges())
            gens = [tuple(sigma) for sigma in entry.generators]
            for sigma in gens:
                assert sorted(sigma) == list(range(n))
                assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges
            assert len(dimino_closure(gens, n)) == tree_counts(g)[0], g


def _candidates(n):
    """The candidates graphs_up_to_iso(n) canonizes, counted on its own:
    per (k-1)-class base, one per orbit of the base's brute-force group on
    the masks that give a new vertex minimum degree."""
    total = 0
    for k in range(2, n + 1):
        for entry in graphs_up_to_iso(k - 1).entries:
            deg = [row.bit_count() for row in entry.graph.adj]
            auts = brute_automorphisms(entry.graph)
            firsts = set()
            for mask in range(1 << (k - 1)):
                members = [u for u in range(k - 1) if mask >> u & 1]
                d = len(members)
                short = [u for u, e in enumerate(deg) if e < d and u not in members]
                if d > min(deg) + 1 or short:
                    continue
                firsts.add(min(sum(1 << p[u] for u in members) for p in auts))
            total += len(firsts)
    return total


def test_generation_walks_each_candidate_once(monkeypatch):
    """graphs_up_to_iso takes a new class's generators from the walk that
    gave its code: one canon walk per candidate, and no other."""
    want = _candidates(6)
    calls = {}
    _count_calls(monkeypatch, calls, canon, "_search")
    _count_calls(monkeypatch, calls, canon, "generators")
    assert len(graphs_up_to_iso(6)) == 156
    assert calls == {"_search": want, "generators": 0}


def test_aggregate_walks_no_class_for_its_generators(monkeypatch):
    """aggregate closes each class's stream orbits under the generators
    that generation carried, so it asks canon for none on a class.  The
    union rule's closed forms still ask for a bipartite component's
    (is_reflexible): 4 walks, on components of 3 and 4 vertices."""
    want = aggregate_counts(5)[:2]
    generators = canon.generators
    sizes = []

    def recorded(n, adj, seed_colors=None):
        sizes.append(n)
        return generators(n, adj, seed_colors)

    monkeypatch.setattr(canon, "generators", recorded)
    assert aggregate_counts(5)[:2] == want
    assert sorted(sizes) == [3, 3, 4, 4]


def test_aggregate_checks_the_labeled_count_identity(monkeypatch):
    """A class missing from generation breaks sum n!/|Aut| = 2^C(n,2),
    which aggregate_counts checks itself."""

    def one_class_short(n):
        table = graphs_up_to_iso(n)
        del table.entries[1]
        return table

    monkeypatch.setattr(aggregate, "graphs_up_to_iso", one_class_short)
    with pytest.raises(InternalCheckError, match=r"not 2\^C\(4,2\)"):
        aggregate_counts(4)
