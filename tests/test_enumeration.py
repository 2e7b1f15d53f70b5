import os
import pickle
import random
import re
import signal

import pytest

from graphtop import (
    Digraph,
    canon,
    enumeration,
    Graph,
    automorphism_group,
    burnside,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    enumerate_transitive_digraphs,
    graphs_up_to_iso,
    h_burnside,
    is_transitive,
    null_graph,
    path_graph,
    sink_counts,
    stream_counts,
    tau,
    underlying_graph,
    wheel_graph,
)
from graphtop.canon import _bits, conjugacy_classes, digraph_code
from graphtop.decomposition import tree_counts
from graphtop.enumeration import _fixed, _row_images, edge_order, stream_masks
from graphtop.errors import (
    BudgetExceeded,
    ExprError,
    InternalCheckError,
    NotATopology,
    SizeBoundExceeded,
    VertexOutOfRange,
    WorkerDied,
)
from graphtop.expr import build_graph, parse_graph_expr
from graphtop.formulas import cut_vertex_counts
from graphtop.graphs import is_reflexible

from conftest import (
    assert_no_child_left,
    bowtie,
    brute_automorphisms,
    brute_transitive_digraphs,
    conjugate,
    deadline,
    naive_transitive,
    paw,
    random_graph,
    star,
    symmetric_examples,
)


def test_is_transitive():
    assert is_transitive(Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (1, 2)]))
    assert not is_transitive(Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)]))
    # an oriented path cannot close its 2-path: endpoints are non-adjacent
    assert not is_transitive(Digraph.from_arcs(3, [(0, 1), (1, 2)]))
    assert is_transitive(Digraph.from_arcs(2, [(0, 1), (1, 0)]))
    assert is_transitive(Digraph(4, (0, 0, 0, 0)))


def test_k2_stream():
    digraphs = list(enumerate_transitive_digraphs(complete_graph(2)))
    assert [d.arcs() for d in digraphs] == [
        [(0, 1)],
        [(1, 0)],
        [(0, 1), (1, 0)],
    ]


def test_triangle_stream():
    digraphs = list(enumerate_transitive_digraphs(complete_graph(3)))
    assert len(digraphs) == 13
    assert stream_counts(complete_graph(3))[1] == 4
    assert len(set(digraphs)) == 13  # no duplicates


def test_odd_cycles_are_empty():
    assert list(enumerate_transitive_digraphs(cycle_graph(5))) == []
    assert tau(cycle_graph(7)) == 0


@pytest.mark.parametrize(
    "g",
    [
        path_graph(2),
        path_graph(3),
        complete_graph(3),
        complete_graph(4),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        star(3),
        paw(),
        bowtie(),
        wheel_graph(5),
        disjoint_union(complete_graph(2), complete_graph(2)),
    ],
)
def test_stream_matches_brute_force(g):
    engine = {frozenset(d.arcs()) for d in enumerate_transitive_digraphs(g)}
    brute = set(brute_transitive_digraphs(g))
    assert engine == brute
    assert tau(g) == len(brute)


@pytest.mark.parametrize("n", range(6))
def test_kernel_matches_brute_force_on_every_small_class(n):
    """Every class on n <= 5 vertices with at most 8 edges (3^m <= 6561):
    the stream, every Fix(sigma) over it, and the tree's (|Aut|, tau, h), against
    the engine-free oracle."""
    for entry in graphs_up_to_iso(n).entries:
        g = entry.graph
        if g.edge_count > 8:
            continue
        brute = brute_transitive_digraphs(g)
        engine = [frozenset(d.arcs()) for d in enumerate_transitive_digraphs(g)]
        assert len(engine) == len(brute)
        assert set(engine) == set(brute)
        sigmas = brute_automorphisms(g)
        total = 0
        for sigma in sigmas:
            fixed = sum(
                1 for arcs in brute if {(sigma[u], sigma[v]) for u, v in arcs} == arcs
            )
            assert _fixed(stream_masks(g), [sigma]) == [fixed], (g.edges(), sigma)
            total += fixed
        assert tree_counts(g) == (len(sigmas), len(brute), total // len(sigmas))


@pytest.mark.parametrize(
    "g", [complete_graph(4), cycle_graph(6), paw(), wheel_graph(5), star(4)]
)
def test_underlying_graph_is_exact(g):
    for d in enumerate_transitive_digraphs(g):
        assert underlying_graph(d) == g


def test_tau_values():
    assert tau(complete_graph(4)) == 75
    assert tau(path_graph(2)) == 2
    assert tau(cartesian_product(complete_graph(2), cycle_graph(3))) == 0


def test_budget():
    big = cartesian_product(cycle_graph(4), cycle_graph(4))  # 32 edges
    with pytest.raises(BudgetExceeded):
        stream_masks(big)
    assert len(list(stream_masks(big, budget_edges=32))) == 2


def test_fixed_examples():
    k2 = complete_graph(2)
    assert _fixed(stream_masks(k2), [(0, 1)]) == [3]
    # only the doubled edge survives the swap
    assert _fixed(stream_masks(k2), [(1, 0)]) == [1]
    assert _fixed(stream_masks(complete_graph(3)), [(0, 1, 2)]) == [13]


@pytest.mark.parametrize(
    "g", [complete_graph(3), cycle_graph(4), cycle_graph(6), paw(), wheel_graph(5)]
)
def test_fixed_matches_filter(g):
    stream = [frozenset(d.arcs()) for d in enumerate_transitive_digraphs(g)]
    for sigma in automorphism_group(g):
        fixed = sum(
            1
            for arcs in stream
            if {(sigma[u], sigma[v]) for u, v in arcs} == set(arcs)
        )
        assert _fixed(stream_masks(g), [sigma]) == [fixed]


@pytest.mark.parametrize("g", symmetric_examples())
def test_fixed_is_a_class_function(g):
    group = automorphism_group(g)
    for rep, _ in conjugacy_classes(group):
        want = _fixed(stream_masks(g), [rep])
        members = sorted({conjugate(rep, t) for t in group})
        for sigma in members:
            assert _fixed(stream_masks(g), [sigma]) == want


def _full_group_average(g):
    """The average of Fix(sigma) over every sigma of the listed group,
    each counted over the listed stream: D is fixed when the image of row
    u is row sigma[u], for every u, and the members are filtered one u at
    a time."""
    auts = automorphism_group(g)
    stream = list(stream_masks(g))
    rows = {row for masks in stream for row in masks}
    total = 0
    for sigma in auts:
        image = {
            row: sum(1 << sigma[v] for v in range(g.n) if row >> v & 1) for row in rows
        }
        fixed = stream
        for u, v in enumerate(sigma):
            fixed = [masks for masks in fixed if image[masks[u]] == masks[v]]
        total += len(fixed)
    return total // len(auts)


def test_h_burnside_equals_full_group_average():
    """burnside over the conjugacy classes, weighted by their sizes,
    against the average over the whole group, on every class with at
    most 5 vertices and on K6 (|Aut| = 720, 4,683 digraphs)."""
    graphs = [e.graph for n in range(6) for e in graphs_up_to_iso(n).entries]
    graphs.append(complete_graph(6))
    for g in graphs:
        assert h_burnside(g) == _full_group_average(g), g.edges()


def test_stream_counts_is_tau_and_distinct_codes():
    for g in (e.graph for n in range(7) for e in graphs_up_to_iso(n).entries):
        codes = {digraph_code(g.n, masks) for masks in stream_masks(g)}
        assert stream_counts(g) == (tau(g), len(codes)), g.edges()


def test_burnside_with_tau_as_identity_term():
    """The identity's term in burnside is the stream length, tau(g), and
    burnside on the listed stream agrees with the full-group average, on
    every class with at most 5 vertices and on K6."""
    graphs = [e.graph for n in range(6) for e in graphs_up_to_iso(n).entries]
    graphs.append(complete_graph(6))
    for g in graphs:
        stream = list(stream_masks(g))
        identity = tuple(range(g.n))
        assert enumeration._fixed(stream, [identity]) == [tau(g)], g.edges()
        got = burnside(automorphism_group(g), stream)
        assert got == _full_group_average(g), g.edges()


def test_burnside_raises_on_a_stream_missing_a_member():
    """K3's stream without the transitive tournament 0->1, 0->2, 1->2,
    whose stabilizer is trivial: the fixed counts sum to 23, not 24, over
    the 6 automorphisms, and the average is no integer."""
    k3 = complete_graph(3)
    auts = automorphism_group(k3)
    stream = list(stream_masks(k3))
    kept = [masks for masks in stream if masks != (0b110, 0b100, 0)]
    assert len(kept) == len(stream) - 1 and burnside(auts, stream) == 4
    with pytest.raises(InternalCheckError, match="not an integer: 23/6"):
        burnside(auts, kept)


def test_burnside_runs_no_search_of_its_own(monkeypatch):
    """burnside takes one pass over the stream it is given and starts no
    search: an iterator over the listed stream is enough."""
    graphs = [complete_graph(4), cycle_graph(6), wheel_graph(5)]
    streams = [list(stream_masks(g)) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(enumeration, "_Search", refuse)
    got = [burnside(automorphism_group(g), iter(s)) for g, s in zip(graphs, streams)]
    assert got == [8, 1, 3]


def test_h_burnside_values():
    assert h_burnside(complete_graph(2)) == 2
    assert h_burnside(complete_graph(3)) == 4
    assert h_burnside(wheel_graph(5)) == 3  # pinned by the brute-force stream


def test_stream_counts_h_values():
    assert stream_counts(complete_graph(4))[1] == 8
    assert stream_counts(wheel_graph(7))[1] == 2
    assert stream_counts(cycle_graph(6))[1] == 1


def test_stream_counts_makes_no_digraph_code_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("digraph_code ran")

    monkeypatch.setattr(canon, "digraph_code", refuse)
    assert stream_counts(complete_graph(4)) == (75, 8)
    assert stream_counts(wheel_graph(5)) == (6, 3)
    assert stream_counts(complete_graph(6)) == (4683, 32)


# K4 + K4 + K1: 9 points, past a byte, so its orbits close through the memo
TWO_K4_K1 = "union(K4,union(K4,K1))"


@pytest.mark.parametrize(
    "expr, dropped",
    [("K4", 0), ("K4", 40), (TWO_K4_K1, 1), (TWO_K4_K1, 2000)],
    ids=["0", "40", "wide-1", "wide-2000"],
)
def test_stream_counts_raises_on_a_leaf_missing_from_the_stream(monkeypatch, expr, dropped):
    """An orbit that the stream leaves incomplete is an error, not a
    smaller h, on rows of a byte and on wider ones: each dropped leaf
    lies in an orbit of more than one member."""
    g = build_graph(parse_graph_expr(expr))
    stream = list(stream_masks(g))
    kept = stream[:dropped] + stream[dropped + 1 :]
    monkeypatch.setattr(enumeration, "stream_masks", lambda g, budget=None: iter(kept))
    with pytest.raises(InternalCheckError, match="missing from the stream"):
        stream_counts(g)


def test_stream_counts_closes_wide_orbits():
    """On 9 points the members stay tuples and each generator maps them
    row by row through its memo; the orbits still match the tree, and
    the swap of the two K4s joins orbits of two members."""
    g = build_graph(parse_graph_expr(TWO_K4_K1))
    assert g.n == 9
    assert stream_counts(g) == tree_counts(g)[1:] == (5625, 36)


def test_row_images_table_matches_the_memo():
    """Up to 8 points a generator's row images are one 256-byte table:
    for every generator canon gives the classes with n <= 6, and every
    one generation carries, table[m] is the image of m for each m < 2^n,
    as the memo gives it.  Permutations on 9 to 16 points get the memo,
    and it maps random masks to their images."""
    for n in range(2, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            for sigma in [*canon.generators(n, g.adj), *entry.generators]:
                table = _row_images(sigma)
                assert type(table) is bytes and len(table) == 256
                memo = enumeration._RowImage(sigma)
                for m in range(1 << n):
                    assert table[m] == memo[m] == sum(1 << sigma[v] for v in _bits(m))
    rng = random.Random(39)
    for n in range(9, 17):
        sigma = rng.sample(range(n), n)
        memo = _row_images(sigma)
        assert type(memo) is enumeration._RowImage
        for _ in range(200):
            m = rng.getrandbits(n)
            assert memo[m] == sum(1 << sigma[v] for v in range(n) if m >> v & 1), (sigma, m)


def test_stream_counts_h_sink_and_is_reflexible_list_no_group(monkeypatch):
    """Orbits close under canon's generators, so |Aut| has no bound
    here: 10! and 16! are past canon.MAX_AUT_ORDER."""
    with pytest.raises(SizeBoundExceeded, match=r"\|Aut\|=3628800 is over the bound of 362880$"):
        automorphism_group(null_graph(10))

    def refuse(*args, **kwargs):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(canon, "automorphisms", refuse)
    assert stream_counts(null_graph(10)) == (1, 1)
    assert stream_counts(null_graph(16)) == (1, 1)
    result = cut_vertex_counts(star(10), 0)  # the stabiliser of the hub is S10
    assert (result.tau, result.h) == (2, 2)
    k88 = Graph.from_edges(16, [(u, v) for u in range(8) for v in range(8, 16)])
    assert is_reflexible(k88) and not is_reflexible(star(10))

    # the edge budget is checked before the generators are asked for
    monkeypatch.setattr(canon, "generators", refuse)
    with pytest.raises(BudgetExceeded):
        stream_counts(complete_graph(9))


def test_h_burnside_checks_the_budget_before_listing_the_group(monkeypatch):
    """K9 has 36 edges, past the default budget, and 9! automorphisms:
    the budget is refused before any of them is listed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(canon, "automorphisms", refuse)
    with pytest.raises(BudgetExceeded, match="^36 edges exceed the budget of 24; "):
        h_burnside(complete_graph(9))


def test_sink_counts():
    k2 = complete_graph(2)
    assert sink_counts(k2, 0)[0] == 1  # only 1 -> 0
    assert sink_counts(k2, 1)[0] == 1

    k3 = complete_graph(3)
    assert sink_counts(k3, 0) == (3, 2)

    assert sink_counts(cycle_graph(4), 0)[0] == 1

    with pytest.raises(VertexOutOfRange):
        sink_counts(k2, 5)


def test_sink_counts_brute():
    for g in [complete_graph(3), cycle_graph(4), paw(), bowtie(), star(3)]:
        stream = brute_transitive_digraphs(g)
        for u in range(g.n):
            expected = sum(
                1 for arcs in stream if not any(a == u for a, _ in arcs)
            )
            assert sink_counts(g, u)[0] == expected


def test_sink_equals_source():
    for g in [complete_graph(3), cycle_graph(4), paw(), wheel_graph(5)]:
        stream = [d for d in enumerate_transitive_digraphs(g)]
        for u in range(g.n):
            sources = sum(1 for d in stream if not d.reverse().out[u])
            assert sink_counts(g, u)[0] == sources


def test_reversal_closure():
    for g in [complete_graph(3), cycle_graph(4), paw(), wheel_graph(5)]:
        stream = {d.out for d in enumerate_transitive_digraphs(g)}
        assert {d.reverse().out for d in enumerate_transitive_digraphs(g)} == stream


def test_bowtie_sink_structure():
    bt = bowtie()
    assert sink_counts(bt, 0) == (9, 3)
    assert tau(bt) == 18


def test_worker_determinism():
    g = cartesian_product(complete_graph(2), cycle_graph(4))
    single = list(stream_masks(g))
    assert tau(g) == len(single)


def test_empty_graph_has_one_digraph():
    from graphtop import null_graph

    assert tau(null_graph(3)) == 1
    assert h_burnside(null_graph(3)) == 1
    assert [d.arcs() for d in enumerate_transitive_digraphs(null_graph(2))] == [[]]
    assert list(stream_masks(Graph(0, []))) == [()]


@pytest.mark.parametrize("bad", [512, 47292])
def test_a_leaf_failing_the_check_stops_the_stream(monkeypatch, bad):
    """The batch check sees every leaf.  One reported non-transitive, the
    first of the second batch or the last of K7's stream, stops the
    stream with InternalCheckError after exactly the leaves before it,
    and tau raises too."""
    k7 = complete_graph(7)
    stream = list(stream_masks(k7))
    real = enumeration.first_intransitive
    seen = 0

    def flag(n, batch):
        nonlocal seen
        start, seen = seen, seen + len(batch)
        return bad - start if start <= bad < seen else real(n, batch)

    monkeypatch.setattr(enumeration, "first_intransitive", flag)
    got = []
    with pytest.raises(InternalCheckError, match="non-transitive leaf"):
        for masks in stream_masks(k7):
            got.append(masks)
    assert got == stream[:bad]
    seen = 0
    with pytest.raises(InternalCheckError, match="non-transitive leaf"):
        tau(k7)


@pytest.mark.parametrize("n", [0, 3])
def test_the_edgeless_leaf_goes_through_the_check(monkeypatch, n):
    monkeypatch.setattr(enumeration, "first_intransitive", lambda n, batch: 0)
    with pytest.raises(InternalCheckError, match="non-transitive leaf"):
        tau(Graph(n, [0] * n))


def doubled_edges_join_twins(g, arcs):
    """The number of edges {u, v} that carry both u->v and v->u in arcs,
    once each such edge is checked to join true twins of g:
    N(u) - v = N(v) - u."""
    doubled = [(u, v) for u, v in arcs if u < v and (v, u) in arcs]
    for u, v in doubled:
        assert g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u), (g.edges(), (u, v))
    return len(doubled)


def test_a_doubled_edge_joins_true_twins():
    """The fact that lets the search give a partnered edge two states, on
    the brute-force oracle alone: in every transitive digraph over every
    class with 1 <= n <= 5, an edge carrying both arcs joins true twins
    (u<->v, u->b forces v->b and b->u forces b->v)."""
    digraphs = doubled = 0
    for n in range(1, 6):
        for entry in graphs_up_to_iso(n).entries:
            for arcs in brute_transitive_digraphs(entry.graph):
                digraphs += 1
                doubled += doubled_edges_join_twins(entry.graph, arcs)
    assert digraphs == 1028
    assert doubled > 0


def check_stream_order(g):
    """The stream's edge-state vectors along edge_order(g) strictly
    increase (FWD < BWD < BOTH), every doubled edge joins true twins, and
    the stream is every transitive digraph over g.  Returns the number of
    leaves and of doubled edges over them."""
    edges = edge_order(g)
    stream = list(stream_masks(g))
    vectors = [
        tuple(out[u] >> v & 1 | (out[v] >> u & 1) << 1 for u, v in edges)
        for out in stream
    ]
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
    found = {
        frozenset((u, v) for u in range(g.n) for v in range(g.n) if out[u] >> v & 1)
        for out in stream
    }
    doubled = sum(doubled_edges_join_twins(g, arcs) for arcs in found)
    if g.edge_count <= 8:
        assert found == set(brute_transitive_digraphs(g))
        return len(stream), doubled
    # 3^m edge states are too many to try: the members are distinct (the
    # vectors strictly increase), each is transitive with underlying graph
    # exactly g (no state is 0, no arc leaves the edges), and there are as
    # many as the tree, which runs no search, counts
    assert all(0 not in vector for vector in vectors)
    assert all(g.adj[u] >> v & 1 for arcs in found for u, v in arcs)
    assert all(naive_transitive(arcs) for arcs in found)
    assert len(found) == tree_counts(g)[1]
    return len(stream), doubled


@pytest.mark.parametrize("n", range(7))
def test_stream_order_on_every_small_class(n):
    for entry in graphs_up_to_iso(n).entries:
        check_stream_order(entry.graph)


@pytest.mark.parametrize("text", ["amalgam(K6@0,P2@0)", "amalgam(K5@0,P1@0)"])
def test_stream_order_on_amalgams(text):
    check_stream_order(build_graph(parse_graph_expr(text)))


@pytest.mark.parametrize("n", range(7))
def test_fixed_counts_the_fixed_stream_members(n):
    """Every class on n <= 6 vertices, and each conjugacy-class
    representative sigma of its listed group: Fix(sigma), as _fixed counts
    it over the stream, is the number of stream members that sigma maps to
    themselves, by Digraph.relabel.  This reaches the classes with more than 8 edges,
    such as K6, which the brute-force test does not."""
    for entry in graphs_up_to_iso(n).entries:
        g = entry.graph
        stream = [Digraph(g.n, masks) for masks in stream_masks(g)]
        for sigma, _ in conjugacy_classes(automorphism_group(g)):
            fixed = sum(1 for d in stream if d.relabel(sigma) == d)
            assert _fixed(stream_masks(g), [sigma]) == [fixed], (g.edges(), sigma)


def test_gamma_partners():
    # P3 0-1-2: each edge forces the other; a triangle has no induced P3
    search = enumeration._Search(path_graph(2))
    assert search.edges == [(0, 1), (1, 2)]
    assert search.partners == [[1], [0]]
    assert enumeration._Search(complete_graph(5)).partners == [[]] * 10
    # edges meeting in one vertex whose far ends are not adjacent
    for g in (paw(), bowtie(), wheel_graph(5), star(3)):
        search = enumeration._Search(g)
        for k, e in enumerate(search.edges):
            expected = set()
            for j, f in enumerate(search.edges):
                if len(set(e) ^ set(f)) == 2:
                    x, y = set(e) ^ set(f)
                    if not g.adj[x] >> y & 1:
                        expected.add(j)
            assert sorted(search.partners[k]) == sorted(expected)


def _k8_minus_star():
    """K8 minus the edges 0-4, 0-5, 0-6 and 0-7."""
    return Graph.from_edges(
        8, [(u, v) for u, v in complete_graph(8).edges() if u or v < 4]
    )


def test_a_row_is_marked_twin_iff_its_edge_has_no_partner():
    """rows[k][6], later, is None exactly when edge k has no Gamma-partner
    (its ends are true twins); the walk's short branch reads only then."""
    graphs = [e.graph for n in range(7) for e in graphs_up_to_iso(n).entries]
    graphs += [
        complete_graph(7),
        _k8_minus_star(),
        build_graph(parse_graph_expr("amalgam(K6@0,P2@0)")),
    ]
    for g in graphs:
        search = enumeration._Search(g)
        for row, partners in zip(search.rows, search.partners):
            assert (row[6] is None) == (partners == []), g.edges()
    assert all(row[6] is None for row in enumeration._Search(complete_graph(7)).rows)


@pytest.mark.parametrize("edge", [(0, 6), (6, 7)], ids=["0-6", "6-7"])
def test_a_partnered_row_marked_twin_changes_the_stream(monkeypatch, edge):
    """The mark is read: on amalgam(K6@0,P2@0), the edge 0-6 or 6-7 (each
    partnered) marked twin skips its non-edge tests, and the stream
    differs or its batch check fails.  Marking an edge 0-x of the K6
    changes nothing, since vertex 6 is undecided when it is placed."""
    g = build_graph(parse_graph_expr("amalgam(K6@0,P2@0)"))
    want = list(stream_masks(g))
    real = enumeration._Search

    class Marked(real):
        def __init__(self, g, budget=None):
            super().__init__(g, budget)
            k = self.edges.index(edge)
            assert self.partners[k]
            self.rows[k] = self.rows[k][:6] + (None,)

    monkeypatch.setattr(enumeration, "_Search", Marked)
    try:
        got = list(stream_masks(g))
    except InternalCheckError:
        return
    assert got != want


class _CountedRows(list):
    """A list that counts the reads of its items."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _consistency_tests(g):
    """(leaves, consistency tests) of g's search.  Every test, the walk's
    inline one for the edge it places and allowed's for the lookahead,
    reads its edge's entry in search.rows once, and nothing else reads the
    rows, so the reads count the nodes entered and the partners looked at."""
    search = enumeration._Search(g)
    search.rows = _CountedRows(search.rows)
    leaves = sum(map(len, enumeration._walk(search)))
    return leaves, search.rows.reads


def test_gamma_lookahead_prunes():
    """A branch that leaves a later Gamma-partner no state is dropped at
    once, and only undecided partners are looked at.  K7 has no induced
    P3, so no partners, and its search is as it was without the lookahead.
    A partnered edge has no BOTH to try, and a partner left only BOTH
    counts as dead."""
    amalgam = build_graph(parse_graph_expr("amalgam(K6@0,P2@0)"))
    leaves, tests = _consistency_tests(amalgam)
    assert leaves == 1082
    # 6,261 tests; 6,270 with a BOTH branch on partnered edges, 23,252
    # without the lookahead, 12,762 if decided partners are re-checked
    assert tests <= 7000
    assert tests == 6261
    assert _consistency_tests(complete_graph(7)) == (47293, 224371)
    # K8 minus a 4-edge star: 17,205 tests with a BOTH branch on partnered
    # edges, 292,126 without the lookahead
    assert _consistency_tests(_k8_minus_star()) == (3300, 16988)


def _brute_allowed(g, decided, u, v):
    """The states of the undecided edge {u, v}, in try order, that keep the
    decided arcs consistent once added to them: every 2-path a->b->c
    (a != c) has a->c an edge of g that is undecided or decided with that
    arc, and every direction that a 2-path already demanded is kept."""
    arcs = {arc for a, b in decided for arc in _state_arcs(a, b, decided[a, b])}
    demanded = {(a, c) for a, b in arcs for b2, c in arcs if b == b2 and a != c}
    decided_edges = {*decided, (u, v)}
    allowed = []
    for state in (enumeration.FWD, enumeration.BWD, enumeration.BOTH):
        new = set(_state_arcs(u, v, state))
        now = arcs | new
        consistent = all(
            g.has_edge(a, c)
            and ((a, c) in now or (min(a, c), max(a, c)) not in decided_edges)
            for a, b in now
            for b2, c in now
            if b == b2 and a != c
        )
        keeps = all(arc in new for arc in ((u, v), (v, u)) if arc in demanded)
        if consistent and keeps:
            allowed.append(state)
    return tuple(allowed)


def _state_arcs(u, v, state):
    """The arcs of edge {u, v} in state."""
    pairs = ((enumeration.FWD, (u, v)), (enumeration.BWD, (v, u)))
    return [arc for bit, arc in pairs if state & bit]


def test_allowed_matches_brute_force_on_random_partial_assignments():
    """_Search.allowed against the brute-force rule, on consistent partial
    assignments that no edge-order prefix need reach: edges decided in a
    random order, each in a random state the rule allows.  allowed asks
    for FWD or BWD alone, so it must be true iff the rule allows a state
    other than BOTH.  Both directions demanded, by the same w or by
    different ones, allow neither; the walk never meets the second case on
    n <= 7, so it is counted here."""
    rng = random.Random(28)
    cases = set()
    graphs = 0
    while graphs < 30:
        g = random_graph(rng, rng.choice((5, 6, 7)))
        search = enumeration._Search(g)
        if not any(search.partners):
            continue
        graphs += 1
        for _ in range(12):
            order = list(range(len(search.edges)))
            rng.shuffle(order)
            decided = {}
            for k in order[: rng.randint(0, len(order) - 1)]:
                states = _brute_allowed(g, decided, *search.edges[k])
                if not states:
                    break
                decided[search.edges[k]] = rng.choice(states)
            search.out = [0] * g.n
            search.inn = [0] * g.n
            for a, b in decided:
                for x, y in _state_arcs(a, b, decided[a, b]):
                    search.out[x] |= 1 << y
                    search.inn[y] |= 1 << x
            for k, (u, v) in enumerate(search.edges):
                if (u, v) in decided:
                    continue
                states = _brute_allowed(g, decided, u, v)
                assert search.allowed(k) == any(s != enumeration.BOTH for s in states), (
                    g.edges(),
                    decided,
                    (u, v),
                )
                vu = search.out[v] & search.inn[u]
                uv = search.out[u] & search.inn[v]
                cases.add((bool(vu), bool(uv), vu == uv))
    # neither, v->u only, u->v only, both by the same w, both by different w
    assert cases == {
        (False, False, True),
        (True, False, False),
        (False, True, False),
        (True, True, True),
        (True, True, False),
    }


def test_stream_order_on_random_graphs_with_gamma_partners():
    """Twenty seeded graphs on 8 or 9 vertices, each with Gamma-partners
    and a nonempty stream: the lookahead prunes under deep frames, and
    every backtrack restores the rows of its frame."""
    rng = random.Random(25)
    graphs = []
    while len(graphs) < 20:
        g = random_graph(rng, rng.choice((8, 9)))
        if (
            g.edge_count <= enumeration.DEFAULT_EDGE_BUDGET
            and any(enumeration._Search(g).partners)
            and tree_counts(g)[1]
        ):
            graphs.append(g)
    for g in graphs:
        check_stream_order(g)


def _square(x):
    return x * x


def _planted_error_at_5(x):
    if x == 5:
        raise InternalCheckError("planted at 5")
    return x


def _expr_error_at_3(x):
    if x == 3:
        raise ExprError("syntax-error", "planted", 7)
    return x


class _TwoArgError(Exception):
    """Its args hold only the message, so pickle cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a}:{b}")


def _two_arg_error_at_3(x):
    if x == 3:
        raise _TwoArgError("x", 3)
    return x


def _exit_at_0(x):
    if x == 0:
        os._exit(7)
    return x


def _killed_at_0(x):
    if x == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _reply_cut_short(fn, tasks, chunks, replies):
    """A worker that dies part way through writing its first reply."""
    pickle.load(chunks)
    replies.write(pickle.dumps(([bytes(1 << 18)], None))[:1000])
    replies.flush()
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("count", [0, 1, 37])
def test_fan_out_matches_map(worker_starts, count):
    """Two workers give map's results in task order, for no tasks, fewer
    tasks than workers, and 37 tasks (chunks of 3, the last of 1); no
    worker starts without a chunk."""
    with deadline(60):
        got = list(enumeration.fan_out(_square, range(count), 2))
    assert got == list(map(_square, range(count)))
    assert worker_starts == ([min(2, count)] if count else [])
    assert_no_child_left()


def test_fan_out_raises_a_task_error_after_the_results_before_it(worker_starts):
    got = []
    with deadline(60), pytest.raises(InternalCheckError, match="planted at 5"):
        for result in enumeration.fan_out(_planted_error_at_5, range(37), 2):
            got.append(result)
    assert got == [0, 1, 2, 3, 4]
    assert worker_starts == [2]
    assert_no_child_left()


@pytest.mark.parametrize(
    "exc, fields",
    [
        (ExprError("syntax-error", "planted", 7), ("code", "offset")),
        (ExprError("vertex-out-of-range", "planted"), ("code", "offset")),
        (NotATopology("not-closed-under-union", ([0], [1])), ("code", "witness")),
        (NotATopology("missing-empty"), ("code", "witness")),
    ],
)
def test_structured_errors_survive_pickling(exc, fields):
    """A worker's exception reaches fan_out's caller pickled, and these
    types take other __init__ arguments than the message they keep."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    for field in fields:
        assert getattr(back, field) == getattr(exc, field)


def test_fan_out_raises_a_workers_expr_error_with_its_offset(worker_starts):
    got = []
    with deadline(60), pytest.raises(ExprError) as info:
        for result in enumeration.fan_out(_expr_error_at_3, range(6), 2):
            got.append(result)
    assert got == [0, 1, 2]
    assert (info.value.code, info.value.offset) == ("syntax-error", 7)
    assert str(info.value) == "syntax-error at offset 7: planted"
    assert worker_starts == [2]
    assert_no_child_left()


def test_fan_out_sends_a_stand_in_for_an_error_pickle_cannot_rebuild(
    worker_starts,
):
    """One worker raises the task's own error; from a forked worker it
    comes as a RuntimeError naming its type and message, where unpickling
    it would raise a TypeError for the missing argument."""
    with pytest.raises(_TwoArgError, match="^x:3$"):
        list(enumeration.fan_out(_two_arg_error_at_3, range(6), 1))
    got = []
    with deadline(60), pytest.raises(RuntimeError, match="^_TwoArgError: x:3$"):
        for result in enumeration.fan_out(_two_arg_error_at_3, range(6), 2):
            got.append(result)
    assert got == [0, 1, 2]
    assert worker_starts == [2]
    assert_no_child_left()


def test_fan_out_raises_worker_died_when_a_worker_exits(worker_starts):
    with deadline(60), pytest.raises(WorkerDied, match="exited with code 7"):
        list(enumeration.fan_out(_exit_at_0, range(37), 2))
    assert worker_starts == [2]
    assert_no_child_left()


def test_fan_out_raises_worker_died_when_a_worker_is_killed(worker_starts):
    """A worker killed by SIGKILL mid-chunk reads as WorkerDied, with the
    signal as a negative exit code."""
    with deadline(60), pytest.raises(WorkerDied) as info:
        list(enumeration.fan_out(_killed_at_0, range(37), 2))
    assert re.fullmatch(r"worker process \d+ exited with code -9 without replying", str(info.value))
    assert worker_starts == [2]
    assert_no_child_left()


def test_fan_out_raises_worker_died_on_a_reply_cut_short(monkeypatch, worker_starts):
    """A reply that ends inside a pickle frame raises UnpicklingError,
    not EOFError, when read: it reads as WorkerDied too."""
    monkeypatch.setattr(enumeration, "_worker", _reply_cut_short)  # the fork inherits it
    with deadline(60), pytest.raises(WorkerDied, match="exited with code -9 without replying"):
        list(enumeration.fan_out(_square, range(37), 2))
    assert worker_starts == [2]
    assert_no_child_left()


def test_fan_out_closed_early_stops_its_workers(worker_starts):
    with deadline(60):
        results = enumeration.fan_out(_square, range(37), 2)
        assert next(results) == 0
        results.close()
    assert worker_starts == [2]
    assert_no_child_left()
