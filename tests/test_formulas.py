import functools
import json
import random
from math import comb, factorial

import pytest

from graphtop import (
    Graph,
    amalgam_counts,
    amalgamate,
    bipartite_counts,
    canon,
    cartesian_product,
    complete_counts,
    complete_graph,
    cut_vertex_counts,
    cycle_counts,
    cycle_graph,
    disjoint_union,
    formula_for_graph,
    formulas,
    enumeration,
    graphs_up_to_iso,
    h_burnside,
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
from graphtop.decomposition import stirling_row, tree_counts
from graphtop.errors import NotConnected, SizeBoundExceeded
from graphtop.cli import main
from graphtop.graphs import (
    canonical_code,
    components,
    induced_subgraph,
    is_bipartite,
    is_connected,
)
from graphtop.verify import count_compositions, count_ordered_partitions

from conftest import bowtie, paw, relabel_graph, star


@functools.cache
def _block_counts(n):
    """The number of blocks of every partition of an n-set, each partition
    listed once as a restricted growth string: element i joins one of the
    blocks opened before it or opens the next one."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return [max(s, default=-1) + 1 for s in strings]


def brute_stirling2(n, k):
    """Count k-block set partitions by listing every partition."""
    return _block_counts(n).count(k)


def test_stirling2_small():
    assert stirling2(3, 2) == 3  # {12|3}, {13|2}, {1|23}
    assert stirling2(4, 2) == 7
    for n in range(0, 8):
        assert stirling2(n, n) == 1
        for k in range(0, n + 1):
            assert stirling2(n, k) == brute_stirling2(n, k)


def test_the_stirling_row_matches_the_brute_force_and_stirling2():
    """stirling_row(n) is the one recurrence: stirling2 reads it, and so
    do the tree's series node and complete_counts."""
    for n in range(11):
        assert stirling_row(n) == [brute_stirling2(n, k) for k in range(n + 1)]
    for n in range(65):
        assert stirling_row(n) == [stirling2(n, k) for k in range(n + 1)]
    assert tree_counts(complete_graph(64))[1:] == (
        sum(s * factorial(k) for k, s in enumerate(stirling_row(64))),
        2**63,
    )
    with pytest.raises(SizeBoundExceeded) as err:
        tree_counts(complete_graph(65))
    assert [entry.name for entry in err.traceback][-3:] == ["_node", "stirling_row", "check_bound"]


def test_stirling2_range_errors():
    for n, k in [(3, 4), (3, -1), (65, 2), (-1, 0)]:
        with pytest.raises(ValueError):
            stirling2(n, k)


def test_complete_counts():
    assert complete_counts(3).tau == 13
    assert (complete_counts(4).tau, complete_counts(4).h) == (75, 8)
    assert complete_counts(5).tau == 541
    assert complete_counts(5).tau == sum(
        stirling2(5, k) * factorial(k) for k in range(1, 6)
    )
    for n, k in [(0, 0), (21, 0)]:
        with pytest.raises(ValueError):
            complete_counts(n)


def test_complete_counts_vs_engine():
    for n in range(1, 6):
        g = complete_graph(n)
        result = complete_counts(n)
        assert (result.tau, result.h) == (tau(g), h_burnside(g))


def test_ordered_partition_identity():
    # tau over the complete graph counts ordered set partitions
    for n in range(1, 6):
        assert complete_counts(n).tau == count_ordered_partitions(n)


def test_composition_identity():
    for n in range(1, 11):
        assert complete_counts(n).h == count_compositions(n)


def test_cycle_counts():
    assert (cycle_counts(3).tau, cycle_counts(3).h) == (13, 4)
    assert (cycle_counts(5).tau, cycle_counts(5).h) == (0, 0)
    assert (cycle_counts(6).tau, cycle_counts(6).h) == (2, 1)
    with pytest.raises(ValueError):
        cycle_counts(2)
    for n in range(3, 9):
        g = cycle_graph(n)
        result = cycle_counts(n)
        assert (result.tau, result.h) == stream_counts(g)


def test_wheel_counts():
    assert (wheel_counts(4).tau, wheel_counts(4).h) == (75, 8)
    assert (wheel_counts(6).tau, wheel_counts(6).h) == (0, 0)
    assert (wheel_counts(9).tau, wheel_counts(9).h) == (4, 2)
    # the 5-wheel values are pinned by enumeration (see wheel_counts docstring)
    assert (wheel_counts(5).tau, wheel_counts(5).h) == (6, 3)
    with pytest.raises(ValueError):
        wheel_counts(3)
    for n in range(4, 9):
        g = wheel_graph(n)
        result = wheel_counts(n)
        assert (result.tau, result.h) == stream_counts(g)


def test_bipartite_counts():
    assert (bipartite_counts(complete_graph(2)).tau, bipartite_counts(complete_graph(2)).h) == (3, 2)
    assert (bipartite_counts(cycle_graph(6)).tau, bipartite_counts(cycle_graph(6)).h) == (2, 1)
    s = star(3)
    assert (bipartite_counts(s).tau, bipartite_counts(s).h) == (2, 2)
    assert stream_counts(s) == (2, 2)  # the engine agrees
    assert (bipartite_counts(cycle_graph(5)).tau, bipartite_counts(cycle_graph(5)).h) == (0, 0)
    triangle = bipartite_counts(complete_graph(3))
    assert triangle.tau is None and triangle.h is None  # outside the rule's scope
    with pytest.raises(NotConnected):
        bipartite_counts(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(ValueError):
        bipartite_counts(null_graph(1))


def test_bipartite_counts_vs_engine():
    for n in range(2, 7):
        for entry in graphs_up_to_iso(n, keep=is_bipartite).entries:
            g = entry.graph
            if not is_connected(g):
                continue
            result = bipartite_counts(g)
            assert (result.tau, result.h) == stream_counts(g)


def test_triangle_free_scope_guard():
    from graphtop.graphs import has_triangle

    for n in range(2, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            if has_triangle(g) or not is_connected(g):
                continue
            result = bipartite_counts(g)
            if not is_bipartite(g):
                assert result.tau == 0


def test_union_counts():
    k2, k3, c4 = complete_graph(2), complete_graph(3), cycle_graph(4)
    assert (union_counts([(k2, 2)]).tau, union_counts([(k2, 2)]).h) == (9, 3)
    both = union_counts([(k2, 1), (null_graph(1), 1)])
    assert (both.tau, both.h) == (3, 2)
    assert (union_counts([(c4, 3)]).tau, union_counts([(c4, 3)]).h) == (8, 1)

    two_k2 = disjoint_union(k2, k2)
    assert stream_counts(two_k2) == (9, 3)
    twice = union_counts([(k2, 1), (k2, 1)])  # isomorphic parts merge
    assert (twice.tau, twice.h) == (9, 3)
    split = union_counts([(k3, 1), (k2, 1), (k3, 1)])
    assert (split.tau, split.h) == (507, 20)
    assert stream_counts(disjoint_union(k3, disjoint_union(k2, k3))) == (507, 20)

    with pytest.raises(ValueError):
        union_counts([(k2, 0)])
    with pytest.raises(NotConnected):
        union_counts([(two_k2, 1)])
    with pytest.raises(ValueError):
        union_counts([])

    mixed = union_counts([(k3, 2), (k2, 1)])
    assert mixed.tau == 13**2 * 3
    assert mixed.h == comb(4 + 1, 2) * 2


def test_union_closed_forms_agree_with_search_on_each_component():
    """union_counts gets the components ungrouped, so its merge runs on
    every disconnected class; the search side groups them by code itself."""
    for n in range(2, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            if is_connected(g):
                continue
            parts = [induced_subgraph(g, comp) for comp in components(g)]
            grouped = {}
            for part in parts:
                grouped.setdefault(canonical_code(part), [part, 0])[1] += 1
            by_search = [1, 1]
            for part, mult in grouped.values():
                t, h = tau(part), h_burnside(part)
                by_search[0] *= t**mult
                by_search[1] *= comb(h + mult - 1, mult)
            result = union_counts([(part, 1) for part in parts])
            assert (result.tau, result.h) == stream_counts(g) == tuple(by_search)


def _count_walks(monkeypatch):
    walks = []
    search = canon._search

    def counted(*args):
        walks.append(args[0])
        return search(*args)

    monkeypatch.setattr(canon, "_search", counted)
    return walks


def test_a_union_walks_each_component_once(monkeypatch, capsys):
    """K3 + K2 + K3: no part is canonized, since on four vertices or fewer
    a connected part's (vertex count, sorted degrees) fixes its class;
    count's graph field takes one canon walk."""
    walks = _count_walks(monkeypatch)
    k2, k3 = complete_graph(2), complete_graph(3)
    result = formula_for_graph(disjoint_union(k3, disjoint_union(k2, k3)))
    assert (result.tau, result.h, len(walks)) == (507, 20, 0)
    walks.clear()
    assert main(["count", "union(K3,union(K2,K3))", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["tau"], out["h"], len(walks)) == (507, 20, 1)


def _degree_key(g):
    return g.n, tuple(sorted(row.bit_count() for row in g.adj))


def test_a_connected_graph_on_four_vertices_or_fewer_has_its_own_degree_key():
    keys = [
        _degree_key(entry.graph)
        for n in range(1, 5)
        for entry in graphs_up_to_iso(n).entries
        if is_connected(entry.graph)
    ]
    assert len(keys) == len(set(keys)) == 1 + 1 + 2 + 6


def test_union_parts_that_share_a_degree_key_are_told_apart_by_code(monkeypatch):
    """A triangle with a two-edge tail and C4 with a pendant vertex both
    have degrees (1, 2, 2, 2, 3): each tied part is canonized once, and
    only the isomorphic ones merge."""
    tailed = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    pendant = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    moved = relabel_graph(tailed, [4, 2, 0, 3, 1])
    assert _degree_key(tailed) == _degree_key(pendant) == _degree_key(moved) == (5, (1, 2, 2, 2, 3))
    cases = [
        ([tailed, pendant], (12, 8)),  # (6, 4) and (2, 2)
        ([tailed, pendant, moved], (72, 20)),  # C(4 + 1, 2) = 10 pairs of tailed classes
    ]
    for parts, want in cases:
        assert stream_counts(functools.reduce(disjoint_union, parts)) == want
    coded = []
    monkeypatch.setattr(formulas, "canonical_code", lambda g: coded.append(g) or canonical_code(g))
    for parts, want in cases:
        coded.clear()
        result = union_counts([(part, 1) for part in parts])
        assert (result.tau, result.h) == want and coded == parts


def test_union_counts_takes_closed_forms_without_searching(monkeypatch, capsys):
    def no_search(*args):
        raise AssertionError("a part was searched")

    monkeypatch.setattr(enumeration, "stream_masks", no_search)
    k1, k2, c4 = null_graph(1), complete_graph(2), cycle_graph(4)
    for parts, want in [
        ([(complete_graph(8), 1), (k1, 1)], (545835, 128)),
        ([(complete_graph(6), 1), (k1, 1)], (4683, 32)),
        ([(complete_graph(5), 1), (k2, 1)], (1623, 32)),
        ([(c4, 3)], (8, 1)),
        ([(paw(), 1), (k2, 1)], (18, 8)),  # no closed form: the tree counts it
    ]:
        result = union_counts(parts)
        assert (result.tau, result.h) == want
    assert main(["count", "union(K8,K1)"]) == 0
    assert "tau=545835 h=128" in capsys.readouterr().out


def test_union_with_a_zero_part_searches_no_part(monkeypatch, capsys):
    """A part whose closed form gives tau = 0 makes the union (0, 0), and no
    part is searched: C5 settles a union with a 30-edge amalgam, over the
    default budget of 24 edges."""

    def no_search(*args):
        raise AssertionError("a part was searched")

    monkeypatch.setattr(enumeration, "stream_masks", no_search)
    k6, c5 = complete_graph(6), cycle_graph(5)
    for parts in [
        [(amalgamate(k6, 0, k6, 0), 1), (c5, 1)],
        [(paw(), 2), (c5, 3)],
        [(paw(), 1), (cycle_graph(7), 1), (complete_graph(3), 2)],
    ]:
        result = union_counts(parts)
        assert (result.tau, result.h) == (0, 0)
    assert main(["count", "union(amalgam(K6@0,K6@0),C5)"]) == 0
    assert "tau=0 h=0" in capsys.readouterr().out


def test_product_counts():
    k2, c3, c4 = complete_graph(2), cycle_graph(3), cycle_graph(4)
    assert (product_counts(k2, c3).tau, product_counts(k2, c3).h) == (0, 0)
    assert (product_counts(c3, c3).tau, product_counts(c3, c3).h) == (0, 0)
    assert (product_counts(k2, c4).tau, product_counts(k2, c4).h) == (2, 1)
    # reflexible factor on one side only still collapses to a single class
    assert product_counts(k2, star(3)).h == 1
    assert product_counts(path_graph(2), path_graph(2)).h == 2

    with pytest.raises(ValueError):
        product_counts(null_graph(1), k2)

    # disconnected bipartite factors are outside the rule: the connected
    # form would claim 2, but the true count multiplies per component
    loose = product_counts(disjoint_union(k2, k2), k2)
    assert loose.tau is None and loose.h is None
    assert tau(cartesian_product(disjoint_union(k2, k2), k2)) == 4


def test_product_counts_vs_engine():
    k2, c4 = complete_graph(2), cycle_graph(4)
    cases = [(k2, c4), (k2, path_graph(3)), (k2, star(3)), (path_graph(2), path_graph(2))]
    for g, h in cases:
        result = product_counts(g, h)
        prod = cartesian_product(g, h)
        assert (result.tau, result.h) == stream_counts(prod)


def test_amalgam_counts():
    k2, k3 = complete_graph(2), complete_graph(3)
    p2 = amalgam_counts(k2, 1, k2, 0)
    assert (p2.tau, p2.h) == (2, 2)
    bt = amalgam_counts(k3, 0, k3, 0)
    assert (bt.tau, bt.h) == (18, 6)
    pw = amalgam_counts(k3, 0, k2, 0)
    assert (pw.tau, pw.h) == (6, 4)

    # symmetric-case equivalence: (hs + 1) * hs == 2 * C(hs + 1, 2)
    from graphtop import sink_counts

    hs = sink_counts(k3, 0)[1]
    assert bt.h == 2 * comb(hs + 1, 2)

    with pytest.raises(NotConnected):
        amalgam_counts(disjoint_union(k2, k2), 0, k2, 0)

    # a part with a cut vertex voids the class-count formula, not tau
    taily = amalgam_counts(path_graph(2), 0, k2, 0)
    assert taily.tau == 2 * 1 * 1 and taily.h is None


def test_amalgam_counts_vs_engine():
    pieces = [complete_graph(2), complete_graph(3), cycle_graph(4), complete_graph(4)]
    for g in pieces:
        for h in pieces:
            result = amalgam_counts(g, 0, h, 0)
            glued = amalgamate(g, 0, h, 0)
            assert (result.tau, result.h) == stream_counts(glued)


def test_cut_vertex_counts():
    assert (cut_vertex_counts(bowtie(), 0).tau, cut_vertex_counts(bowtie(), 0).h) == (18, 6)
    assert (cut_vertex_counts(paw(), 0).tau, cut_vertex_counts(paw(), 0).h) == (6, 4)
    p2 = path_graph(2)
    assert (cut_vertex_counts(p2, 1).tau, cut_vertex_counts(p2, 1).h) == (2, 2)

    with pytest.raises(ValueError):
        cut_vertex_counts(complete_graph(3), 0)

    # two cut vertices: tau still splits, the class count does not
    p3 = path_graph(3)
    result = cut_vertex_counts(p3, 1)
    assert result.tau == tau(p3) and result.h is None


def test_formula_for_graph_dispatch():
    assert formula_for_graph(complete_graph(4)).theorem == "complete"
    assert formula_for_graph(cycle_graph(5)).theorem == "cycle"
    assert formula_for_graph(wheel_graph(5)).theorem == "wheel"
    assert formula_for_graph(cartesian_product(complete_graph(2), cycle_graph(4))).theorem == "bipartite"
    assert formula_for_graph(disjoint_union(complete_graph(2), complete_graph(2))).theorem == "disjoint-union"
    assert formula_for_graph(null_graph(1)).theorem == "complete"  # K1
    assert formula_for_graph(paw()) is None  # triangle, no named form

    # the dispatched values agree with the engine wherever applicable
    for g in [
        complete_graph(4),
        cycle_graph(6),
        wheel_graph(5),
        star(3),
        disjoint_union(complete_graph(3), null_graph(2)),
    ]:
        result = formula_for_graph(g)
        assert (result.tau, result.h) == (tau(g), h_burnside(g))


@functools.cache
def named_codes(n):
    """The canonical codes of K_n, C_n and W_n that exist, by name."""
    return [
        (name, canonical_code(make(n)))
        for name, make, smallest in (
            ("complete", complete_graph, 1),
            ("cycle", cycle_graph, 3),
            ("wheel", wheel_graph, 4),
        )
        if n >= smallest
    ]


def named_by_code(g):
    """complete, cycle or wheel by comparing canonical codes, as the
    recognition once did, or None."""
    code = canonical_code(g)
    return next((name for name, ref in named_codes(g.n) if ref == code), None)


def named_by_dispatch(g):
    result = formula_for_graph(g)
    theorem = result and result.theorem
    return theorem if theorem in ("complete", "cycle", "wheel") else None


def test_named_forms_from_degrees_match_canonical_codes():
    # every connected class up to n = 7 (a disconnected graph goes to the
    # union rule before any named form is tried)
    named = 0
    for n in range(1, 8):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            if is_connected(g):
                assert named_by_dispatch(g) == named_by_code(g), g.edges()
                named += named_by_code(g) is not None
    assert named == 7 + 4 + 3  # K1..K7, C4..C7 (C3 = K3), W5..W7 (W4 = K4)
    rng = random.Random(10)
    for n in range(1, 17):
        for name, make, smallest in (
            ("complete", complete_graph, 1),
            ("cycle", cycle_graph, 4),
            ("wheel", wheel_graph, 5),
        ):
            if n >= smallest:
                perm = list(range(n))
                rng.shuffle(perm)
                g = relabel_graph(make(n), perm)
                assert named_by_dispatch(g) == named_by_code(g) == name


def test_formula_result_json():
    result = bipartite_counts(complete_graph(3))
    assert result.as_json_dict() == {
        "tau": "not-applicable",
        "h": "not-applicable",
        "theorem": "bipartite",
    }
    assert cycle_counts(4).as_json_dict() == {"tau": 2, "h": 1, "theorem": "cycle"}
