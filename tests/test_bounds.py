"""The table of size bounds in graphtop.errors.

Every row is refused at its entry points by errors.check_bound, so every
refusal is a SizeBoundExceeded (a GraphTopError and a ValueError) whose
message ends "is over the bound of <the row's value>", and no other
module defines a bound or builds the exception itself.
"""

import ast
from pathlib import Path

import pytest

from graphtop import (
    Preorder,
    all_preorders,
    build_graph,
    canon,
    complete_counts,
    complete_graph,
    enumeration,
    errors,
    graphs_up_to_iso,
    parse_edge_list,
    parse_graph_expr,
    topology_from_preorder,
    validate_topology,
)
from graphtop.cli import main
from graphtop.decomposition import stirling2, tree_counts
from graphtop.errors import (
    BudgetExceeded,
    EdgeListFormatError,
    GraphTopError,
    SizeBoundExceeded,
)
from graphtop.graphs import Graph, parse_edge_lines

SRC = Path(errors.__file__).parent

# every nesting level of box(K1,...) takes 8 characters: 511 levels are 4,090
DEEP_BOX = "box(K1," * 511 + "K1" + ")" * 511
DEEP_UNION = "union(K1," * 1200 + "K1" + ")" * 1200
LONG_K = "K" + "1" * 5000
LONG_ANCHOR = "amalgam(K2@" + "1" * 5000 + ",K2@0)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_the_table_keeps_its_values():
    assert {
        name: getattr(errors, name)
        for name in dir(errors)
        if name.startswith("MAX_") or name == "DEFAULT_EDGE_BUDGET"
    } == {
        "MAX_VERTICES": 16,
        "MAX_AUT_ORDER": 362880,
        "MAX_CLASS_VERTICES": 7,
        "MAX_GROUND_SET": 12,
        "MAX_PREORDER_POINTS": 5,
        "MAX_STIRLING_N": 64,
        "MAX_COMPLETE_N": 20,
        "MAX_EXPR_CHARS": 4096,
        "DEFAULT_EDGE_BUDGET": 24,
    }


@pytest.mark.parametrize(
    "bound, call",
    [
        ("MAX_VERTICES", lambda: canon.graph_code(17, (0,) * 17)),  # canon._search
        ("MAX_AUT_ORDER", lambda: canon.automorphisms(10, (0,) * 10)),
        ("MAX_VERTICES", lambda: parse_edge_lines(["n 17"])),
        ("MAX_VERTICES", lambda: build_graph(parse_graph_expr("N17"))),
        ("MAX_EXPR_CHARS", lambda: parse_graph_expr("K1" + " " * 4095)),
        ("MAX_CLASS_VERTICES", lambda: graphs_up_to_iso(8)),
        (
            "MAX_GROUND_SET",
            lambda: topology_from_preorder(Preorder(13, [1 << x for x in range(13)])),
        ),
        ("MAX_GROUND_SET", lambda: validate_topology([0, (1 << 13) - 1], 13)),
        ("MAX_PREORDER_POINTS", lambda: all_preorders(6)),
        ("MAX_STIRLING_N", lambda: stirling2(65, 2)),
        ("MAX_COMPLETE_N", lambda: complete_counts(21)),
    ],
    ids=[
        "canon._search",
        "canon.automorphisms",
        "graphs.parse_edge_lines",
        "expr.build_graph",
        "expr.parse_graph_expr",
        "aggregate.graphs_up_to_iso",
        "topology.topology_from_preorder",
        "topology.validate_topology",
        "topology.all_preorders",
        "decomposition.stirling2",
        "formulas.complete_counts",
    ],
)
def test_each_row_is_refused_at_its_entry_point(bound, call):
    with pytest.raises(SizeBoundExceeded) as err:
        call()
    assert isinstance(err.value, GraphTopError) and isinstance(err.value, ValueError)
    assert str(err.value).endswith(f" is over the bound of {getattr(errors, bound)}")


def test_the_edge_budget_row_is_raised_per_call(capsys):
    assert enumeration.DEFAULT_EDGE_BUDGET is errors.DEFAULT_EDGE_BUDGET
    k8 = complete_graph(8)  # 28 edges
    with pytest.raises(BudgetExceeded, match="^28 edges exceed the budget of 24; "):
        enumeration.stream_masks(k8)
    assert next(iter(enumeration.stream_masks(k8, 28))) is not None
    code, out, err = run_cli(capsys, "aggregate", "-n", "8")
    assert (code, out) == (1, "") and "-n must be between 1 and 7" in err


def test_the_bounds_of_the_closed_forms_are_graphtop_errors():
    """Each of the three once raised a bare ValueError: K65 reaches
    stirling2 through the tree's series node."""
    for call in (
        lambda: tree_counts(complete_graph(65)),
        lambda: stirling2(65, 2),
        lambda: complete_counts(21),
    ):
        with pytest.raises(SizeBoundExceeded) as err:
            call()
        assert isinstance(err.value, GraphTopError)


def test_only_errors_defines_a_bound_or_builds_size_bound_exceeded():
    """No module but errors.py assigns a MAX_* or DEFAULT_EDGE_BUDGET
    name, or calls SizeBoundExceeded(...): check_bound raises it."""
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert {"canon.py", "errors.py", "graphs.py", "topology.py"} <= {p.name for p in paths}
    for path in paths:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                targets = []
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "SizeBoundExceeded":
                    found.append(f"{path.name}:{node.lineno} calls SizeBoundExceeded")
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    name = getattr(sub, "id", getattr(sub, "attr", ""))
                    if name.startswith("MAX_") or name == "DEFAULT_EDGE_BUDGET":
                        found.append(f"{path.name}:{node.lineno} assigns {name}")
    assert found == []


def test_no_module_but_canon_names_a_private_canon_attribute_but_bits():
    """canon is read through walk, aut_order, canonical_generators and
    the fields of a Walk: no other module names canon._x, or imports _x
    from canon, for any _x but _bits."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "canon.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "canon":
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module in ("canon", "graphtop.canon"):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} names canon.{name}"
                for name in names
                if name.startswith("_") and name != "_bits"
            ]
    assert found == []


def test_an_edge_list_count_too_long_for_int_is_one_error_line(capsys, tmp_path):
    """int() refuses more than 4,300 digits: a 5,000-digit n line or
    endpoint is decided from its digits, never converted."""
    path = tmp_path / "g.txt"
    path.write_text("n " + "1" * 5000 + "\ne 0 1\n")
    code, out, err = run_cli(capsys, "count", "--file", str(path))
    assert_one_error_line(code, out, err)
    assert err == "error: line 1: n of 5000 digits is over the bound of 16\n"
    path.write_text("n 3\ne 0 " + "1" * 5000 + "\n")
    code, out, err = run_cli(capsys, "count", "--file", str(path))
    assert_one_error_line(code, out, err)
    assert err == "error: line 2: vertex outside 0..2\n"
    with pytest.raises(SizeBoundExceeded, match="^line 1: n of 5000 digits is over"):
        parse_edge_list("n " + "1" * 5000)
    for endpoints in ("0 " + "1" * 5000, "2" * 5000 + " " + "2" * 5000):
        with pytest.raises(EdgeListFormatError, match=r"^line 2: vertex outside 0\.\.2$"):
            parse_edge_list(f"n 3\ne {endpoints}")


def test_an_edge_list_count_with_leading_zeros_reads_as_its_value():
    with pytest.raises(SizeBoundExceeded) as err:
        parse_edge_list("n 00000000000000000017\n")
    assert str(err.value) == "line 1: n=17 is over the bound of 16"
    g = parse_edge_list("n 00000000000000000016\ne 0 000000000000000000015\n")
    assert g == Graph.from_edges(16, [(0, 15)])
    with pytest.raises(EdgeListFormatError, match="^line 2: loop edge 2$"):
        parse_edge_list("n 3\ne 02 2\n")


@pytest.mark.parametrize("text", [LONG_K, LONG_ANCHOR, DEEP_UNION], ids=["K", "anchor", "union"])
def test_an_expression_over_the_length_bound_is_one_error_line(capsys, text):
    """A 5,000-digit integer once failed in int(), and a union nested
    1,200 deep in a RecursionError: both are refused before parsing."""
    code, out, err = run_cli(capsys, "count", text)
    assert_one_error_line(code, out, err)
    assert err == f"error: an expression of {len(text)} characters is over the bound of 4096\n"
    with pytest.raises(SizeBoundExceeded, match="is over the bound of 4096$"):
        parse_graph_expr(text)


def test_a_deep_expression_within_the_length_bound_counts(capsys):
    assert len(DEEP_BOX) == 4090
    assert build_graph(parse_graph_expr(DEEP_BOX)) == Graph(1, [0])
    code, out, err = run_cli(capsys, "count", DEEP_BOX)
    assert code == 0 and "tau=1 h=1" in out, err
