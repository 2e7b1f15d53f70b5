import pytest

from graphtop import (
    amalgamate,
    build_graph,
    canonical_code,
    cartesian_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    expr_to_text,
    load_edge_list,
    null_graph,
    parse_graph_expr,
    wheel_graph,
)
from graphtop.canon import MAX_VERTICES
from graphtop.errors import ExprError, SizeBoundExceeded
from graphtop.expr import Amalgam, Box, Named, Union, vertex_count


def test_parse_named():
    assert parse_graph_expr("K4") == Named("K", 4)
    assert parse_graph_expr("  W7 ") == Named("W", 7)
    assert parse_graph_expr("P 2") == Named("P", 2)  # whitespace-insensitive


def test_parse_compound():
    assert parse_graph_expr("union(K2,N1)") == Union(Named("K", 2), Named("N", 1))
    assert parse_graph_expr("box( K2 , C4 )") == Box(Named("K", 2), Named("C", 4))
    assert parse_graph_expr("amalgam(K3@0,K2@0)") == Amalgam(
        Named("K", 3), 0, Named("K", 2), 0
    )
    nested = parse_graph_expr("union(box(K2,C4),amalgam(K3@0,K3@0))")
    assert nested == Union(
        Box(Named("K", 2), Named("C", 4)), Amalgam(Named("K", 3), 0, Named("K", 3), 0)
    )


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprError) as err:
        parse_graph_expr("C2")
    assert err.value.code == "invalid-family-size"
    assert err.value.offset == 0

    with pytest.raises(ExprError) as err:
        parse_graph_expr("union(K2,C2)")
    assert err.value.code == "invalid-family-size"
    assert err.value.offset == 9

    with pytest.raises(ExprError) as err:
        parse_graph_expr("union(K2")
    assert err.value.code == "syntax-error"
    assert err.value.offset == 8

    with pytest.raises(ExprError) as err:
        parse_graph_expr("Q3")
    assert err.value.code == "syntax-error"
    assert err.value.offset == 0

    with pytest.raises(ExprError) as err:
        parse_graph_expr("K4 extra")
    assert err.value.code == "syntax-error"

    with pytest.raises(ExprError):
        parse_graph_expr("K")
    with pytest.raises(ExprError):
        parse_graph_expr("")


def test_round_trip():
    cases = [
        "K4",
        "N1",
        "union(K2,N1)",
        "box(K2,C4)",
        "amalgam(K3@0,K2@1)",
        "union(box(K2,C4),amalgam(W5@2,C6@0))",
    ]
    for text in cases:
        expr = parse_graph_expr(text)
        assert parse_graph_expr(expr_to_text(expr)) == expr
        assert expr_to_text(parse_graph_expr(expr_to_text(expr))) == expr_to_text(expr)


def test_build_graph():
    assert build_graph(parse_graph_expr("K4")) == complete_graph(4)
    assert build_graph(parse_graph_expr("W5")) == wheel_graph(5)
    assert build_graph(parse_graph_expr("union(K2,N1)")) == disjoint_union(
        complete_graph(2), null_graph(1)
    )
    assert build_graph(parse_graph_expr("box(K2,C4)")) == cartesian_product(
        complete_graph(2), cycle_graph(4)
    )
    assert build_graph(parse_graph_expr("amalgam(K3@0,K3@0)")) == amalgamate(
        complete_graph(3), 0, complete_graph(3), 0
    )


def test_vertex_count_matches_the_built_graph():
    for text in (
        "K4",
        "P3",
        "N1",
        "union(K2,N1)",
        "box(K2,C4)",
        "amalgam(K3@0,K2@1)",
        "box(K4,C4)",
        "amalgam(K9@0,K8@0)",
        "union(P14,N1)",
    ):
        expr = parse_graph_expr(text)
        assert vertex_count(expr) == build_graph(expr).n <= MAX_VERTICES


def test_oversized_expression_is_rejected():
    for text in (
        "N17",
        "P16",
        "union(P15,N1)",
        "box(K5,K5)",
        "amalgam(K9@0,K9@0)",
        "union(box(K2,C4),amalgam(W5@2,C6@0))",
        "box(K3000,K3000)",
    ):
        expr = parse_graph_expr(text)
        assert vertex_count(expr) > MAX_VERTICES
        with pytest.raises(SizeBoundExceeded):
            build_graph(expr)


def test_anchor_range_check():
    with pytest.raises(ExprError) as err:
        build_graph(parse_graph_expr("amalgam(K2@5,K2@0)"))
    assert err.value.code == "vertex-out-of-range"


def test_file_ref(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 3\ne 0 1\ne 1 2\n")
    g = load_edge_list(str(path))
    assert canonical_code(g) == canonical_code(build_graph(parse_graph_expr("P2")))


@pytest.mark.parametrize(
    "text, offset",
    [("K\u00b2", 1), ("K\u0661", 1), ("amalgam(K3@\u0660,K2@0)", 11)],
)
def test_integers_are_ascii_digits(text, offset):
    # "\u00b2" (superscript two) passes str.isdigit but not int(), and
    # int() reads "\u0661" (Arabic-Indic one) as 1
    with pytest.raises(ExprError) as err:
        parse_graph_expr(text)
    assert err.value.code == "syntax-error"
    assert err.value.offset == offset
