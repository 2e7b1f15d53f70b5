import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

from graphtop import (
    aggregate,
    automorphism_group,
    build_graph,
    canon,
    cli,
    enumeration,
    null_graph,
    parse_graph_expr,
    verify,
)
from graphtop.cli import main
from graphtop.errors import InternalCheckError, SizeBoundExceeded

from conftest import deadline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, err = run_cli(capsys, "count", "K4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["tau"], doc["h"]) == (75, 8)
    assert doc["n"] == 4 and doc["edges"] == 6
    assert doc["method"] == "enumeration"
    assert "elapsed" in err  # timing is a diagnostic, never part of the JSON
    assert "elapsed" not in doc


@pytest.mark.parametrize("expr", ["K4", "W5", "box(K2,C4)"])
def test_count_runs_no_search_on_a_connected_graph(capsys, monkeypatch, expr):
    """count takes tau and h from the tree: on a connected graph no
    search starts and Aut(G) is not split into conjugacy classes."""
    calls = []

    def refuse(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"count called {name}")

        return record

    for name in ("_Search", "_fixed"):
        monkeypatch.setattr(enumeration, name, refuse(name))
    monkeypatch.setattr(canon, "conjugacy_classes", refuse("conjugacy_classes"))
    code, out, _ = run_cli(capsys, "count", expr, "--json")
    assert code == 0 and calls == []
    assert json.loads(out)["h"] == {"K4": 8, "W5": 3, "box(K2,C4)": 1}[expr]


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "union(K2,N1)")
    assert code == 0
    assert "tau=3" in out and "h=2" in out


def test_count_from_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 2\ne 0 1\n")
    code, out, _ = run_cli(capsys, "count", "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["tau"] == 3


def test_count_file_with_a_component_past_the_listing_bound(capsys, tmp_path):
    """K2 joined to nine isolated vertices, plus K1: no closed form covers
    the 11-vertex component and its |Aut| = 2 * 9! is past
    canon.MAX_AUT_ORDER, so the union rule takes it from the stream and
    its orbits under canon's generators, listing no group."""
    path = tmp_path / "g.txt"
    edges = [(0, 1)] + [(a, v) for a in (0, 1) for v in range(2, 11)]
    path.write_text("n 12\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "count", "--file", str(path), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["n"], doc["edges"], doc["tau"], doc["h"]) == (12, 19, 8, 5)
    assert doc["formula"] == {"tau": 8, "h": 5, "theorem": "disjoint-union"}


def test_count_reports_inconsistent_counts(capsys, monkeypatch):
    """tau below h, or h = 0 with tau > 0, is an internal error: exit 2,
    the counts on stderr and nothing on stdout."""
    for counts in ((1, 1, 2), (1, 3, 0)):
        monkeypatch.setattr(cli, "tree_counts", lambda g: counts)
        code, out, err = run_cli(capsys, "count", "K2", "--json")
        _, t, h = counts
        assert code == 2 and out == ""
        assert f"inconsistent report: tau={t} h={h}" in err


def test_count_argument_validation(capsys):
    assert run_cli(capsys, "count")[0] == 1
    code, _, err = run_cli(capsys, "count", "K2", "--file", "x")
    assert code == 1 and "exactly one" in err


def test_count_input_errors(capsys):
    code, _, err = run_cli(capsys, "count", "C2")
    assert code == 1 and "invalid-family-size" in err
    # count runs no search on a connected graph, so the edge budget is
    # not in its way; the union rule still searches each component that
    # no closed form covers, such as the paw
    assert run_cli(capsys, "count", "box(C4,C4)")[0] == 0
    assert run_cli(capsys, "count", "box(C4,C4)", "--budget-edges", "32")[0] == 0
    code, out, err = run_cli(
        capsys, "count", "union(amalgam(K3@0,P1@0),K2)", "--budget-edges", "2"
    )
    assert code == 1 and out == ""
    assert "budget of 2" in err
    assert run_cli(capsys, "count", "--file", "/nonexistent/path")[0] == 1


@pytest.mark.parametrize(
    "source",
    [
        "K\u00b2",
        "K\u0661",
        b"n \xc2\xb2\n",  # n followed by a superscript two
        b"n 3\ne 0 \xd9\xa1\n",  # an Arabic-Indic one as an endpoint
        b"n 3\ne 0 1 # \xff\xfe\n",  # not UTF-8
    ],
)
def test_hostile_digits_and_bytes_are_input_errors(capsys, tmp_path, source):
    if isinstance(source, bytes):
        path = tmp_path / "g.txt"
        path.write_bytes(source)
        argv = ("count", "--file", str(path))
    else:
        argv = ("count", source)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [("count", "K3000"), ("count", "box(K5,K5)"), ("enumerate", "N18")],
)
def test_oversized_expression_rejected_before_building(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert "over the bound of 16" in err
    assert elapsed < 0.5  # building K3000 alone took seconds


@pytest.mark.parametrize("n", ["100000", "1000000000000"])
def test_oversized_edge_list_rejected_before_building(capsys, tmp_path, n):
    path = tmp_path / "big.txt"
    path.write_text(f"n {n}\ne 0 1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "--file", str(path))
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert err.startswith("error:") and "over the bound of 16" in err
    assert "Traceback" not in err
    assert elapsed < 0.5  # n=16000 took 0.45 s and 86 MB before the bound


def test_edge_list_bound_is_the_expression_bound(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("n 17\n")
    code, out, err = run_cli(capsys, "enumerate", "--file", str(path))
    assert code == 1 and out == "" and "over the bound of 16" in err
    path.write_text("n 16\ne 0 15\n")
    code, out, _ = run_cli(capsys, "enumerate", "--file", str(path))
    assert code == 0 and len(out.splitlines()) == 3


def test_enumerate_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "C3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    for line in lines:
        doc = json.loads(line)
        assert doc["n"] == 3
        assert doc["arcs"] == sorted(doc["arcs"])


def test_enumerate_dot(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "K2", "--dot")
    assert code == 0
    blocks = [b for b in out.split("digraph") if b.strip()]
    assert len(blocks) == 3
    # the doubled edge renders as two arcs
    assert "0 -> 1;" in blocks[2] and "1 -> 0;" in blocks[2]


@pytest.mark.parametrize("expr", ["N3", "P4", "K4", "W5", "box(K2,C4)"])
def test_enumerate_renders_the_library_stream(capsys, expr):
    """Each line and dot block holds the sorted arcs of the same digraph."""
    g = build_graph(parse_graph_expr(expr))
    stream = list(enumeration.enumerate_transitive_digraphs(g))
    code, out, _ = run_cli(capsys, "enumerate", expr)
    assert code == 0
    assert out == "".join(
        json.dumps({"arcs": d.arcs(), "n": g.n}, separators=(",", ":")) + "\n"
        for d in stream
    )
    code, out, _ = run_cli(capsys, "enumerate", expr, "--dot")
    assert code == 0
    assert out == "".join(
        f"digraph d{i} {{\n"
        + "".join(f"  {v};\n" for v in range(g.n))
        + "".join(f"  {u} -> {v};\n" for u, v in d.arcs())
        + "}\n"
        for i, d in enumerate(stream)
    )


def test_enumerate_renders_the_graph_with_no_vertex(capsys, tmp_path):
    """The one digraph on 0 vertices has no row at all to join."""
    path = tmp_path / "g.txt"
    path.write_text("n 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "enumerate", "--file", str(path))
    assert (code, out) == (0, '{"arcs":[],"n":0}\n')
    code, out, _ = run_cli(capsys, "enumerate", "--file", str(path), "--dot")
    assert (code, out) == (0, "digraph d0 {\n}\n")


def test_enumerate_closed_stdout_is_one_error_line(capsys, monkeypatch):
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["enumerate", "K7"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_enumerate_error_keeps_the_lines_before_it(capsys, monkeypatch):
    """A leaf that fails the transitivity check stops the stream with exit
    2, and every line before it is on stdout."""
    real = enumeration.first_intransitive
    leaves = 0

    def fail_at_leaf_600(n, batch):
        nonlocal leaves
        start, leaves = leaves, leaves + len(batch)
        # leaf 600 is index 599 of the stream, in the second batch
        return 599 - start if start <= 599 < leaves else real(n, batch)

    monkeypatch.setattr(enumeration, "first_intransitive", fail_at_leaf_600)
    code, out, err = run_cli(capsys, "enumerate", "K7")
    assert code == 2 and err.startswith("internal error:")
    assert len(out.splitlines()) == 599
    # the first 599 lines of the frozen enumerate K7 stream
    want = "c9220f35805fbd2975d5f3379959734cd5f8f7aa0d55b418cfa5a9fa62a085a8"
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_aggregate_json(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "-n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["tau_n"], doc["h_n"]) == (3, 29, 9)
    assert len(doc["classes"]) == 4
    assert doc["classes"][0].keys() == {
        "class_index",
        "edge_count",
        "aut_order",
        "tau",
        "h",
        "labeled_copies",
    }


def test_aggregate_csv(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class_index,edge_count,aut_order,tau,h,labeled_copies"
    assert lines[1] == "0,0,2,1,1,1"
    assert lines[2] == "1,1,2,3,2,1"
    assert json.loads(lines[3]) == {"n": 2, "tau_n": 4, "h_n": 3}


def test_aggregate_guards(capsys):
    assert run_cli(capsys, "aggregate", "-n", "7")[0] == 1  # needs --allow-large
    for value in ("9", "0", "-1"):
        code, out, err = run_cli(capsys, "aggregate", "-n", value, "--allow-large")
        assert (code, out, err) == (1, "", "error: -n must be between 1 and 7\n")


def test_aggregate_worker_error_exits_2(capsys, monkeypatch, worker_starts):
    """A check that fails in a worker ends the run as it does serially."""
    class_counts = aggregate.class_counts

    def planted(g):
        if g.edge_count == 10:  # K5, the first class dealt
            raise InternalCheckError("planted in K5")
        return class_counts(g)

    monkeypatch.setattr(aggregate, "class_counts", planted)  # the fork inherits it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for workers in ("1", "2"):
        with deadline(60):
            code, out, err = run_cli(capsys, "aggregate", "-n", "5", "--workers", workers)
        assert (code, out, err) == (2, "", "internal error: planted in K5\n")
    assert worker_starts == [2]
    assert multiprocessing.active_children() == []


def test_aggregate_worker_death_exits_1(capsys, monkeypatch, worker_starts):
    def planted(g):
        os._exit(7)

    monkeypatch.setattr(aggregate, "class_counts", planted)  # the fork inherits it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with deadline(60):
        code, out, err = run_cli(capsys, "aggregate", "-n", "5", "--workers", "2")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: worker process \d+ exited with code 7 without replying\n", err)
    assert worker_starts == [2]
    assert multiprocessing.active_children() == []


def test_verify_oracles_pass():
    report = verify._Report(io.StringIO())
    verify._suite_oracles(report)
    assert report.count > 0 and report.failures == 0


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_suite_formulas", lambda r: r.check("planted", 1, 2))
    monkeypatch.setattr(verify, "_suite_oracles", lambda r: r.check("kept", 3, 3))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 2
    assert out.splitlines() == [
        "FAIL planted: 1 != 2",
        "PASS kept: 3 == 3",
        "2 checks, 1 failures: FAILED",
    ]


def test_workers_below_one_is_a_usage_error(capsys):
    for value in ("0", "-3", "two"):
        code, out, err = run_cli(capsys, "count", "K3", "--workers", value)
        assert code == 1 and out == ""
        assert "--workers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("aggregate", "-n", "\u0663"),  # Arabic-Indic three
        ("aggregate", "-n", "\u00b3"),  # superscript three
        ("aggregate", "-n", "1_0"),
        ("count", "K3", "--workers", "\u0662"),
        ("count", "K3", "--workers", " 2"),
        ("count", "K3", "--budget-edges", "\u0662\u0660"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"argument {argv[-2]}:" in err


@pytest.mark.parametrize("argv", [("count", "K3"), ("enumerate", "K3")])
def test_negative_budget_edges_is_a_usage_error(capsys, argv):
    for value in ("-1", "many"):
        code, out, err = run_cli(capsys, *argv, "--budget-edges", value)
        assert code == 1 and out == ""
        assert "--budget-edges" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("aggregate", "-n", "3", "--budget-edges", "30"),
        ("verify", "--budget-edges", "30"),
        ("verify", "--suite", "oracles"),
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    """aggregate and verify search only graphs they build, each within its
    own edge count, and verify runs both suites: neither takes these."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert argv[-2] in err


def test_budget_error_names_the_option(capsys):
    """The budget error names the option that raises the budget, not
    only the library parameter, also when the budget was passed."""
    code, out, err = run_cli(capsys, "enumerate", "union(K3,K3)", "--budget-edges", "5")
    assert code == 1 and out == ""
    assert "6 edges exceed the budget of 5" in err
    assert "--budget-edges" in err and "budget_edges in the library" in err


def test_budget_edges_zero_is_accepted(capsys):
    # 0 is a budget: it admits edgeless graphs and names itself on the rest
    assert run_cli(capsys, "count", "K3", "--budget-edges", "0")[0] == 0
    code, out, _ = run_cli(capsys, "enumerate", "N3", "--budget-edges", "0")
    assert code == 0 and out == '{"arcs":[],"n":3}\n'
    code, out, err = run_cli(capsys, "enumerate", "K3", "--budget-edges", "0")
    assert code == 1 and out == "" and "budget of 0" in err


def test_workers_clamped_to_cpu_count(capsys, monkeypatch, worker_starts):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for argv in (
        ("count", "box(K2,C4)", "--json"),
        ("enumerate", "C4"),
        ("aggregate", "-n", "4", "--json"),
    ):
        want = run_cli(capsys, *argv)[:2]  # exit code and stdout bytes
        for workers in ("2", "1000000"):
            with deadline(60):
                assert run_cli(capsys, *argv, "--workers", workers)[:2] == want
    assert worker_starts == [2, 3]  # aggregate; count and enumerate run serially
    assert multiprocessing.active_children() == []


def test_enumerate_with_workers_starts_no_pool(capsys, monkeypatch):
    def no_workers(method):
        raise AssertionError("enumerate started a worker")

    monkeypatch.setattr(enumeration, "get_context", no_workers)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    for argv in (("enumerate", "K4"), ("enumerate", "K4", "--dot")):
        code, want, _ = run_cli(capsys, *argv)
        assert code == 0 and want
        assert run_cli(capsys, *argv, "--workers", "2")[:2] == (0, want)


def test_automorphism_group_over_the_bound_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(canon, "MAX_AUT_ORDER", 100)
    with pytest.raises(SizeBoundExceeded, match=r"\|Aut\| exceeds .* bound 100"):
        automorphism_group(null_graph(6))  # |Aut| = 720
    assert len(automorphism_group(null_graph(4))) == 24
    # count lists no group, so the bound does not touch it
    code, out, _ = run_cli(capsys, "count", "N6")
    assert code == 0 and "tau=1 h=1" in out
    assert run_cli(capsys, "count", "K4")[0] == 0


@pytest.mark.parametrize("k", [6, 8])
def test_count_on_a_large_complete_bipartite_graph(capsys, tmp_path, k):
    """K6,6 and K8,8: |Aut| = 2 (k!)^2 is past canon.MAX_AUT_ORDER, and the
    bipartite closed form asks canon's generators whether the parts swap."""
    path = tmp_path / "kkk.txt"
    edges = "".join(f"e {u} {v}\n" for u in range(k) for v in range(k, 2 * k))
    path.write_text(f"n {2 * k}\n{edges}")
    code, out, err = run_cli(capsys, "count", "--file", str(path))
    assert code == 0, err
    assert out.rstrip().endswith("tau=2 h=1 (closed form: bipartite)")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "graphtop.cli", "count", "C4", "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["tau"] == 2
