import io

import pytest

from graphtop import (
    Graph,
    amalgamate,
    bipartition,
    build_named,
    canonical_code,
    cartesian_product,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    graphs_up_to_iso,
    induced_subgraph,
    is_bipartite,
    is_connected,
    is_cut_vertex,
    is_reflexible,
    load_edge_list,
    null_graph,
    parse_edge_list,
    path_graph,
    wheel_graph,
    write_edge_list,
)
from graphtop.errors import (
    EdgeListFormatError,
    InvalidFamilySize,
    NotBipartite,
    NotConnected,
    SizeBoundExceeded,
    VertexOutOfRange,
)
from graphtop.graphs import parse_edge_lines

from conftest import bowtie, paw, star


def test_named_families():
    k2 = build_named("K", 2)
    assert k2.n == 2 and k2.edge_count == 1

    w7 = build_named("W", 7)
    assert w7.n == 7 and w7.edge_count == 12
    assert sorted(w7.degree(u) for u in range(7)) == [3, 3, 3, 3, 3, 3, 6]
    assert w7.degree(0) == 6  # hub convention

    p2 = build_named("P", 2)
    assert p2.n == 3 and p2.edge_count == 2

    n4 = build_named("N", 4)
    assert n4.n == 4 and n4.edge_count == 0

    c5 = build_named("C", 5)
    assert c5.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize(
    "family,size",
    [
        ("C", 2),
        ("C", 1),
        ("C", 0),
        ("W", 3),
        ("W", 0),
        ("K", 0),
        ("P", 0),
        ("N", 0),
        ("X", 3),
    ],
)
def test_named_family_size_errors(family, size):
    """Each family's error names its own minimum size."""
    if family == "X":
        match = "unknown family"
    else:
        match = f"{family} needs size >= {dict(C=3, W=4).get(family, 1)}$"
    with pytest.raises(InvalidFamilySize, match=match):
        build_named(family, size)


def test_wheel4_is_complete():
    assert canonical_code(wheel_graph(4)) == canonical_code(complete_graph(4))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])  # loop
    with pytest.raises(VertexOutOfRange):
        Graph.from_edges(2, [(0, 5)])
    g = Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.edge_count == 1


def test_asymmetry_names_the_first_pair():
    adj = [0] * 3000
    adj[2997] = 1 << 2999  # 2997 -> 2999 with no way back
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \{2997,2999\}$"):
        Graph(3000, adj)
    adj = [0] * 16
    adj[14] = 1 << 15
    adj[9] = 1 << 12
    adj[12] = 1 << 9 | 1 << 14 | 1 << 15  # {9,12} symmetric; three pairs not
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \{12,14\}$"):
        Graph(16, adj)


def test_disjoint_union():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_k2.n == 4 and two_k2.edge_count == 2
    assert len(components(two_k2)) == 2

    h = disjoint_union(complete_graph(2), null_graph(1))
    assert h.n == 3 and h.edge_count == 1

    g = disjoint_union(cycle_graph(3), complete_graph(2))
    assert g.n == 5 and g.edge_count == 4
    assert g.has_edge(3, 4) and not g.has_edge(2, 3)


def test_cartesian_product():
    square = cartesian_product(complete_graph(2), complete_graph(2))
    assert canonical_code(square) == canonical_code(cycle_graph(4))

    prism = cartesian_product(complete_graph(2), cycle_graph(3))
    assert prism.n == 6 and prism.edge_count == 9

    cube = cartesian_product(complete_graph(2), cycle_graph(4))
    assert cube.n == 8 and cube.edge_count == 12
    assert all(cube.degree(u) == 3 for u in range(8))


def test_amalgamate():
    p2 = amalgamate(complete_graph(2), 1, complete_graph(2), 0)
    assert canonical_code(p2) == canonical_code(path_graph(2))

    bt = bowtie()
    assert bt.n == 5 and bt.edge_count == 6
    assert bt.degree(0) == 4  # identified vertex keeps the left index

    pw = paw()
    assert pw.n == 4 and pw.edge_count == 4

    with pytest.raises(VertexOutOfRange):
        amalgamate(complete_graph(2), 5, complete_graph(2), 0)


def test_amalgamate_stays_simple():
    pieces = [complete_graph(2), complete_graph(3), cycle_graph(4), star(3)]
    for g in pieces:
        for h in pieces:
            glued = amalgamate(g, 0, h, 0)
            assert glued.n == g.n + h.n - 1
            assert glued.edge_count == g.edge_count + h.edge_count


def test_components_and_cut_vertices():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert components(two_k2) == [(0, 1), (2, 3)]
    assert not is_connected(two_k2)

    bt = bowtie()
    assert is_cut_vertex(bt, 0)
    assert not any(is_cut_vertex(bt, v) for v in range(1, 5))

    prism = cartesian_product(complete_graph(2), cycle_graph(3))
    triangle = induced_subgraph(prism, [0, 1, 2])  # one K2-copy of the C3 factor
    assert canonical_code(triangle) == canonical_code(cycle_graph(3))


def test_cut_vertices_match_the_induced_subgraph_definition():
    """On every vertex of every class with n <= 6: v is a cut vertex iff
    the subgraph induced on the other vertices has more components."""
    for n in range(1, 7):
        for entry in graphs_up_to_iso(n).entries:
            g = entry.graph
            for v in range(n):
                rest = induced_subgraph(g, [u for u in range(n) if u != v])
                want = len(components(rest)) > len(components(g))
                assert is_cut_vertex(g, v) == want, (g.edges(), v)


def test_induced_subgraph_relabeling():
    g = path_graph(3)  # 0-1-2-3
    sub = induced_subgraph(g, [1, 3])
    assert sub.n == 2 and sub.edge_count == 0
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(VertexOutOfRange):
        induced_subgraph(g, [0, 9])


def test_bipartition():
    assert bipartition(cycle_graph(4)) == ((0, 2), (1, 3))
    assert bipartition(cycle_graph(3)) is None
    assert bipartition(star(3)) == ((0,), (1, 2, 3))
    # per component, the side holding the smallest index goes first
    assert bipartition(disjoint_union(complete_graph(2), complete_graph(2))) == (
        (0, 2),
        (1, 3),
    )
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(wheel_graph(5))


def test_is_reflexible():
    assert is_reflexible(cycle_graph(4))
    assert is_reflexible(cycle_graph(6))
    assert is_reflexible(complete_graph(2))
    assert not is_reflexible(star(3))
    assert not is_reflexible(path_graph(2))
    with pytest.raises(NotConnected):
        is_reflexible(disjoint_union(complete_graph(2), complete_graph(2)))
    with pytest.raises(NotBipartite):
        is_reflexible(cycle_graph(3))


def test_product_bipartite_iff_both():
    # exhaustive over all pairs of connected graphs with <= 4 vertices
    from graphtop import graphs_up_to_iso

    connected = [
        e.graph
        for n in range(1, 5)
        for e in graphs_up_to_iso(n).entries
        if is_connected(e.graph) and e.graph.n >= 1
    ]
    for g in connected:
        for h in connected:
            if g.n == 0 or h.n == 0:
                continue
            prod = cartesian_product(g, h)
            assert is_bipartite(prod) == (is_bipartite(g) and is_bipartite(h))


def test_product_reflexible_is_or_of_factors():
    k2 = complete_graph(2)
    factors = [
        k2,
        path_graph(2),
        path_graph(3),
        path_graph(4),
        star(3),
        star(4),
        cycle_graph(4),
    ]
    pairs = [(k2, h) for h in factors] + [(path_graph(2), path_graph(2))]
    for g, h in pairs:
        prod = cartesian_product(g, h)
        if prod.n > 10:
            continue
        assert is_reflexible(prod) == (is_reflexible(g) or is_reflexible(h))


def test_edge_list_round_trip():
    g = wheel_graph(5)
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert parse_edge_list(buf.getvalue()) == g


def test_edge_list_parsing():
    g = parse_edge_list("# a comment\nn 3\n\ne 0 1  # trailing\ne 1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]

    with pytest.raises(EdgeListFormatError):
        parse_edge_list("n 2\ne 0 0\n")  # loop
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("n 2\ne 0 1\ne 1 0\n")  # duplicate
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("e 0 1\n")  # edge before n
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("n 2\nv 0 1\n")  # unknown directive
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("n 2\ne 0 7\n")  # out of range
    with pytest.raises(EdgeListFormatError):
        parse_edge_list("")  # missing n


def test_edge_list_stops_at_an_oversized_n_line():
    def lines():
        yield "# a comment"
        yield "n 17"
        raise AssertionError("read past the n line")

    with pytest.raises(SizeBoundExceeded, match="line 2: n=17"):
        parse_edge_lines(lines())


def test_edge_list_file_is_read_line_by_line(tmp_path):
    path = tmp_path / "g.txt"
    # a form feed ends a line for parse_edge_list, and so for the loader
    path.write_text("# a path\r\nn 3\r\ne 0 1\x0ce 1 2\n", encoding="utf-8")
    want = parse_edge_list(path.read_text(encoding="utf-8"))
    assert load_edge_list(path) == want
    assert want.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "n \u00b2\n",  # superscript two: isdigit() is true, int() fails
        "n \u0663\n",  # Arabic-Indic three: int() reads it as 3
        "n 3\ne 0 \u0661\n",  # Arabic-Indic one
        "n 3\ne 0 \u00b9\n",  # superscript one
    ],
)
def test_edge_list_accepts_only_ascii_digits(text):
    with pytest.raises(EdgeListFormatError):
        parse_edge_list(text)


def test_edge_list_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"n 3\ne 0 1 # \xff\xfe\n")
    with pytest.raises(EdgeListFormatError, match="not UTF-8"):
        load_edge_list(path)
