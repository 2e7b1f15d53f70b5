import multiprocessing
import os
import random

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
from graphtop.canon import conjugacy_classes, digraph_code
from graphtop.decomposition import tree_counts
from graphtop.enumeration import _fixed, edge_order, stream_masks
from graphtop.errors import (
    BudgetExceeded,
    InternalCheckError,
    SizeBoundExceeded,
    VertexOutOfRange,
    WorkerDied,
)
from graphtop.expr import build_graph, parse_graph_expr
from graphtop.formulas import cut_vertex_counts
from graphtop.graphs import is_reflexible

from conftest import (
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
        tau(big)
    assert tau(big, budget_edges=32) == 2


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


@pytest.mark.parametrize("dropped", [0, 40])
def test_stream_counts_raises_on_a_leaf_missing_from_the_stream(monkeypatch, dropped):
    """An orbit that the stream leaves incomplete is an error, not a
    smaller h: the dropped K4 leaves lie in orbits of more than one
    member."""
    stream = list(stream_masks(complete_graph(4)))
    kept = stream[:dropped] + stream[dropped + 1 :]
    monkeypatch.setattr(enumeration, "stream_masks", lambda g, budget=None: iter(kept))
    with pytest.raises(InternalCheckError, match="missing from the stream"):
        stream_counts(complete_graph(4))


def test_stream_counts_h_sink_and_is_reflexible_list_no_group(monkeypatch):
    """Orbits close under canon's generators, so |Aut| has no bound
    here: 10! and 16! are past canon.MAX_AUT_ORDER."""
    with pytest.raises(SizeBoundExceeded, match=r"\|Aut\| exceeds .* bound 362880"):
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


def check_stream_order(g):
    """The stream's edge-state vectors along edge_order(g) strictly
    increase (FWD < BWD < BOTH), and the stream is every transitive
    digraph over g."""
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
    if g.edge_count <= 8:
        assert found == set(brute_transitive_digraphs(g))
        return
    # 3^m edge states are too many to try: the members are distinct (the
    # vectors strictly increase), each is transitive with underlying graph
    # exactly g (no state is 0, no arc leaves the edges), and there are as
    # many as the tree, which runs no search, counts
    assert all(0 not in vector for vector in vectors)
    assert all(g.adj[u] >> v & 1 for arcs in found for u, v in arcs)
    assert all(naive_transitive(arcs) for arcs in found)
    assert len(found) == tree_counts(g)[1]


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
    leaves = sum(1 for _ in enumeration._walk(search))
    return leaves, search.rows.reads


def test_gamma_lookahead_prunes():
    """A branch that leaves a later Gamma-partner no state is dropped at
    once, and only undecided partners are looked at.  K7 has no induced
    P3, so no partners, and its search is as it was without the lookahead."""
    amalgam = build_graph(parse_graph_expr("amalgam(K6@0,P2@0)"))
    leaves, tests = _consistency_tests(amalgam)
    assert leaves == 1082
    # 6,270 tests; 23,252 without the lookahead, 12,762 if decided
    # partners are re-checked
    assert tests <= 7000
    assert tests == 6270
    assert _consistency_tests(complete_graph(7)) == (47293, 224371)
    # K8 minus the edges 0-4, 0-5, 0-6 and 0-7: 292,126 tests without the
    # lookahead
    k8_star = Graph.from_edges(
        8, [(u, v) for u, v in complete_graph(8).edges() if u or v < 4]
    )
    assert _consistency_tests(k8_star) == (3300, 17205)


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
    random order, each in a random state the rule allows.  Both directions
    demanded by different w (v->w->u but not u->w->v) must refuse BOTH;
    the walk never meets that case on n <= 7, so it is counted here."""
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
                assert search.allowed(k) == _brute_allowed(g, decided, u, v), (
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


def _exit_at_0(x):
    if x == 0:
        os._exit(7)
    return x


@pytest.mark.parametrize("count", [0, 1, 37])
def test_fan_out_matches_map(worker_starts, count):
    """Two workers give map's results in task order, for no tasks, fewer
    tasks than workers, and 37 tasks (chunks of 3, the last of 1); no
    worker starts without a chunk."""
    with deadline(60):
        got = list(enumeration.fan_out(_square, range(count), 2))
    assert got == list(map(_square, range(count)))
    assert worker_starts == [min(2, count)]
    assert multiprocessing.active_children() == []


def test_fan_out_raises_a_task_error_after_the_results_before_it(worker_starts):
    got = []
    with deadline(60), pytest.raises(InternalCheckError, match="planted at 5"):
        for result in enumeration.fan_out(_planted_error_at_5, range(37), 2):
            got.append(result)
    assert got == [0, 1, 2, 3, 4]
    assert worker_starts == [2]
    assert multiprocessing.active_children() == []


def test_fan_out_raises_worker_died_when_a_worker_exits(worker_starts):
    with deadline(60), pytest.raises(WorkerDied, match="exited with code 7"):
        list(enumeration.fan_out(_exit_at_0, range(37), 2))
    assert worker_starts == [2]
    assert multiprocessing.active_children() == []


def test_fan_out_closed_early_stops_its_workers(worker_starts):
    with deadline(60):
        results = enumeration.fan_out(_square, range(37), 2)
        assert next(results) == 0
        results.close()
    assert worker_starts == [2]
    assert multiprocessing.active_children() == []
