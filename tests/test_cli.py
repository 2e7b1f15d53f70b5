import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graphtop
from graphtop import (
    Graph,
    aggregate,
    automorphism_group,
    build_graph,
    canon,
    cli,
    enumeration,
    graphs_up_to_iso,
    null_graph,
    parse_graph_expr,
    verify,
)
from graphtop.cli import main
from graphtop.decomposition import tree_counts
from graphtop.errors import InternalCheckError, SizeBoundExceeded

from conftest import assert_no_child_left, deadline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _allow_cpus(monkeypatch, k):
    """Let this process run on k CPUs, by the affinity mask that --workers
    reads and by the host count it reads where there is no mask."""
    cpus = set(range(k))
    monkeypatch.setattr(os, "cpu_count", lambda: k)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


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
    canon.MAX_AUT_ORDER, so the union rule takes it from the tree,
    listing no group."""
    path = tmp_path / "g.txt"
    edges = [(0, 1)] + [(a, v) for a in (0, 1) for v in range(2, 11)]
    path.write_text("n 12\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "count", "--file", str(path), "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["n"], doc["edges"], doc["tau"], doc["h"]) == (12, 19, 8, 5)
    assert doc["formula"] == {"tau": 8, "h": 5, "theorem": "disjoint-union"}


def test_count_file_past_the_edge_budget_searches_nothing(
    capsys, monkeypatch, tmp_path
):
    """K8 minus an edge, plus K1: 27 edges, past the default budget of 24,
    and no closed form covers the 8-vertex component.  count takes both
    it and the union rule's part from the tree, so no search starts and
    no budget option is needed."""

    def refuse(*args):
        raise AssertionError("count searched")

    monkeypatch.setattr(enumeration, "stream_masks", refuse)
    path = tmp_path / "g.txt"
    edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) != (0, 1)]
    path.write_text("n 9\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    code, out, err = run_cli(capsys, "count", "--file", str(path))
    assert code == 0, err
    assert "edges=27 tau=25988 h=144 (closed form: disjoint-union)" in out


def test_count_reports_inconsistent_counts(capsys, monkeypatch):
    """tau below h, or h = 0 with tau > 0, is an internal error: exit 2,
    the counts on stderr and nothing on stdout."""
    for counts in ((1, 1, 2), (1, 3, 0)):
        monkeypatch.setattr(cli, "tree_counts", lambda g: counts)
        code, out, err = run_cli(capsys, "count", "K2", "--json")
        _, t, h = counts
        assert code == 2 and out == ""
        assert f"inconsistent report: tau={t} h={h}" in err


def test_count_reports_a_closed_form_that_disagrees_with_the_tree(capsys, monkeypatch):
    """count takes tau and h from the tree and checks them against a
    closed form: a disagreement is an internal error, exit 2, with both
    pairs on stderr and nothing on stdout."""
    monkeypatch.setattr(cli, "tree_counts", lambda g: (24, 76, 8))
    code, out, err = run_cli(capsys, "count", "K4", "--json")
    assert (code, out) == (2, "")
    assert "closed form complete gives (75,8)" in err
    assert "the tree gives (76,8)" in err


def test_each_call_parses_afresh_and_keeps_nothing(capsys, monkeypatch, worker_starts):
    """No option value, usage error or --help carries over to a later
    call of main, each call gets a fresh namespace of its own command's
    fields alone, and --workers reads the CPUs this process may run on
    when it is parsed."""
    namespaces = []
    graph_from_args = cli._graph_from_args

    def recorded(args):
        namespaces.append(args)
        return graph_from_args(args)

    monkeypatch.setattr(cli, "_graph_from_args", recorded)

    code, out, err = run_cli(capsys, "enumerate", "C3", "--budget-edges", "2")
    assert (code, out) == (1, "") and "budget of 2" in err
    code, out, _ = run_cli(capsys, "enumerate", "C3")
    assert code == 0 and len(out.splitlines()) == 13  # the default budget again

    _allow_cpus(monkeypatch, 2)
    with deadline(60):
        forked = run_cli(capsys, "aggregate", "-n", "3", "--workers", "2")
        serial = run_cli(capsys, "aggregate", "-n", "3")
    assert worker_starts == [2]  # the second run forked no worker
    assert forked[:2] == serial[:2] and serial[0] == 0

    argv = ("count", "K4", "--json")
    before = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "count", "--help")
    assert code == 0 and out.startswith("usage: graphtop count ") and err == ""
    assert run_cli(capsys, "count")[0] == 1
    after = run_cli(capsys, *argv)
    assert after[:2] == before[:2] and after[0] == 0

    options = {
        "enumerate": {"command", "func", "expr", "file", "budget_edges", "dot"},
        "count": {"command", "func", "expr", "file", "json"},
    }
    assert len({id(args) for args in namespaces}) == len(namespaces) == 5
    for args in namespaces:
        assert set(vars(args)) == options[args.command]
    first, second = cli._parse(["aggregate", "-n", "3"]), cli._parse(["verify"])
    assert vars(first) == {
        "command": "aggregate", "func": cli._cmd_aggregate,
        "n": 3, "allow_large": False, "workers": 1, "json": False,
    }
    assert vars(second) == {"command": "verify", "func": cli._cmd_verify}
    assert first is not cli._parse(["aggregate", "-n", "3"])

    _allow_cpus(monkeypatch, 1)
    assert cli._parse(["aggregate", "-n", "3", "--workers", "2"]).workers == 1


@pytest.mark.parametrize(
    "command, options",
    [
        ("count", ("--file", "--json")),
        ("enumerate", ("--file", "--budget-edges", "--dot")),
        ("aggregate", ("-n", "--allow-large", "--workers", "--json")),
        ("verify", ()),
    ],
)
def test_help_names_each_option_of_its_command(capsys, command, options):
    """-h exits 0 with nothing on stderr and one usage line that names
    each option of the command."""
    code, out, err = run_cli(capsys, command, "-h")
    assert (code, err) == (0, "")
    usage = [line for line in out.splitlines() if line.startswith("usage: ")]
    assert len(usage) == 1 and usage[0].startswith(f"usage: graphtop {command} [-h]")
    words = usage[0].replace("[", " ").replace("]", " ").split()
    assert all(option in words for option in options)
    assert [w for w in words if w.startswith("-") and w != "-h"] == list(options)


def test_count_argument_validation(capsys):
    assert run_cli(capsys, "count")[0] == 1
    code, _, err = run_cli(capsys, "count", "K2", "--file", "x")
    assert code == 1 and "exactly one" in err


def test_count_input_errors(capsys):
    code, _, err = run_cli(capsys, "count", "C2")
    assert code == 1 and "invalid-family-size" in err
    # count runs no search, so the edge budget is not in its way
    assert run_cli(capsys, "count", "box(C4,C4)")[0] == 0
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


@pytest.mark.parametrize("expr", ["N3", "P4", "K4", "W5", "box(K2,C4)", "K6"])
def test_enumerate_renders_the_library_stream(capsys, expr):
    """Each line and dot block holds the sorted arcs of the same digraph.
    K6's 4,683 leaves come in 10 checked batches, and the dot index runs
    on across them."""
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


def test_the_stream_reaches_stdout_a_checked_batch_at_a_time(monkeypatch):
    """The walk yields K7's leaves in 93 checked lists, 92 of 512 and one
    of 189, which stream_masks flattens; an edgeless graph's one leaf is
    one list.  enumerate K7 writes its first 512 lines after one batch
    check, not after the whole stream is searched."""
    k7 = build_graph(parse_graph_expr("K7"))
    batches = list(enumeration._walk(enumeration._Search(k7)))
    assert [len(b) for b in batches] == [512] * 92 + [189]
    assert [m for b in batches for m in b] == list(enumeration.stream_masks(k7))
    for g in (null_graph(3), Graph(0, [])):
        assert list(enumeration._walk(enumeration._Search(g))) == [[(0,) * g.n]]

    real = enumeration.first_intransitive
    checks, writes = 0, []

    def counted(n, batch):
        nonlocal checks
        checks += 1
        return real(n, batch)

    class Stdout(io.TextIOBase):
        def write(self, text):
            writes.append((checks, text.count("\n")))
            return len(text)

    monkeypatch.setattr(enumeration, "first_intransitive", counted)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["enumerate", "K7"]) == 0
    assert writes[0] == (1, 512)
    assert sum(lines for _, lines in writes) == 47293 and checks == 93


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

    def planted(g, gens):
        if g.edge_count == 10:  # K5, the first class dealt
            raise InternalCheckError("planted in K5")
        return class_counts(g, gens)

    monkeypatch.setattr(aggregate, "class_counts", planted)  # the fork inherits it
    _allow_cpus(monkeypatch, 2)
    for workers in ("1", "2"):
        with deadline(60):
            code, out, err = run_cli(capsys, "aggregate", "-n", "5", "--workers", workers)
        assert (code, out, err) == (2, "", "internal error: planted in K5\n")
    assert worker_starts == [2]
    assert_no_child_left()


def test_aggregate_worker_death_exits_1(capsys, monkeypatch, worker_starts):
    def planted(g, gens):
        os._exit(7)

    monkeypatch.setattr(aggregate, "class_counts", planted)  # the fork inherits it
    _allow_cpus(monkeypatch, 2)
    with deadline(60):
        code, out, err = run_cli(capsys, "aggregate", "-n", "5", "--workers", "2")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: worker process \d+ exited with code 7 without replying\n", err)
    assert worker_starts == [2]
    assert_no_child_left()


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
        code, out, err = run_cli(capsys, "aggregate", "-n", "3", "--workers", value)
        assert code == 1 and out == ""
        assert "argument --workers:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("aggregate", "-n", "\u0663"),  # Arabic-Indic three
        ("aggregate", "-n", "\u00b3"),  # superscript three
        ("aggregate", "-n", "1_0"),
        ("aggregate", "-n", "3", "--workers", "\u0662"),
        ("aggregate", "-n", "3", "--workers", " 2"),
        ("enumerate", "K3", "--budget-edges", "\u0662\u0660"),
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"argument {argv[-2]}:" in err


@pytest.mark.parametrize("argv", [("enumerate", "K3"), ("enumerate", "K3", "--dot")])
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
        ("count", "K3", "--workers", "2"),
        ("enumerate", "K3", "--workers", "2"),
        ("enumerate", "C3", "--jsonl"),
        ("count", "K3", "--budget-edges", "30"),
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    """aggregate and verify search only graphs they build, each within its
    own edge count, and verify runs both suites; count and enumerate run
    in one process, enumerate writes JSON lines unless --dot is given,
    and count runs no search: none of them takes these."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert next(a for a in argv if a.startswith("--")) in err


def test_budget_error_names_the_option(capsys):
    """The budget error names the option that raises the budget, not
    only the library parameter, also when the budget was passed."""
    code, out, err = run_cli(capsys, "enumerate", "union(K3,K3)", "--budget-edges", "5")
    assert code == 1 and out == ""
    assert "6 edges exceed the budget of 5" in err
    assert "--budget-edges" in err and "budget_edges in the library" in err
    code, out, err = run_cli(capsys, "enumerate", "K2", "--budget-edges", "0")
    assert (code, out) == (1, "") and "1 edge exceeds the budget of 0;" in err


def test_budget_edges_zero_is_accepted(capsys):
    # 0 is a budget: it admits edgeless graphs and names itself on the rest
    code, out, _ = run_cli(capsys, "enumerate", "N3", "--budget-edges", "0")
    assert code == 0 and out == '{"arcs":[],"n":3}\n'
    code, out, err = run_cli(capsys, "enumerate", "K3", "--budget-edges", "0")
    assert code == 1 and out == "" and "budget of 0" in err


def test_workers_clamped_to_the_affinity_mask(capsys, monkeypatch, worker_starts):
    """On a host of 4 CPUs, a process that may run on one of them (a
    cpuset or taskset) forks no worker for --workers 2, and prints the
    same bytes as a serial run."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    argv = ("aggregate", "-n", "4", "--json")
    want = run_cli(capsys, *argv)[:2]  # exit code and stdout bytes
    with deadline(60):
        assert run_cli(capsys, *argv, "--workers", "2")[:2] == want
    assert want[0] == 0 and worker_starts == []


def test_workers_clamped_to_cpu_count(capsys, monkeypatch, worker_starts):
    _allow_cpus(monkeypatch, 3)
    argv = ("aggregate", "-n", "4", "--json")
    want = run_cli(capsys, *argv)[:2]  # exit code and stdout bytes
    for workers in ("2", "1000000"):
        with deadline(60):
            assert run_cli(capsys, *argv, "--workers", workers)[:2] == want
    assert worker_starts == [2, 3]
    assert_no_child_left()


def test_workers_clamped_to_cpu_count_without_an_affinity_mask(
    capsys, monkeypatch, worker_starts
):
    """Where os has no sched_getaffinity, --workers is clamped to the
    host's CPU count: on one CPU, --workers 2 forks no worker."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    argv = ("aggregate", "-n", "4", "--json")
    want = run_cli(capsys, *argv)[:2]  # exit code and stdout bytes
    with deadline(60):
        assert run_cli(capsys, *argv, "--workers", "2")[:2] == want
    assert want[0] == 0 and worker_starts == []


# the sha256 of a stdout that several spellings of one command print
_EMPTY = hashlib.sha256(b"").hexdigest()
_C3_JSONL = "6bd35ec9c8ebdf615b9a13b7040a7ace43ff4f6d5d933dd2ec66d42c7d509c93"
_K3_JSON = "98048f7b05b1d6a395508c323c9f07b2407f58f993c994af91e01800f3da8e9d"
_K4_JSON = "8d9e7c7ba1ec8632580947d120c9064a13b8e65d821435492b961e46554246be"
_K4_TEXT = "a3c957c979bccd3300db225a0485f9d183c5e15a2d2b1e96211d8fde61aa3fe1"
_N3_JSON = "8a47d23742236ccc03863fb8cb347eca54ac9f5c74050b741080ce0a2ba653a0"
_N6_JSON = "97e46e6ef80ef2aac213fcb460bc86ca857e4f56733812ec6d181457ec58ce12"
_N7_JSON = "7f5e697e84000bee9e870460657ee73756bcced0b1a70ead04facef0f86d1c36"

# edge-list files that rows name in braces
_FILES = {
    "8k2": "n 16\n" + "".join(f"e {2 * i} {2 * i + 1}\n" for i in range(8)),
    "k8star": "n 8\n"
    + "".join(f"e {u} {v}\n" for u in range(8) for v in range(u + 1, 8) if u or v < 4),
}

# argv, exit code, the sha256 of stdout (or, for help, the start of its
# usage line), and the token that the one error: line names (None: no error)
_ARGV_TABLE = [
    # the README examples
    (("count", "K4", "--json"), 0, _K4_JSON, None),
    (("count", "box(K2,C4)", "--json"), 0,
     "3b5dbb31c1614ee617dd74bfddf5963869bef979fdebac4d98a32ceae81a062e", None),
    (("count", "--file", "{8k2}"), 0,
     "a229c1ee8a1ca5d2b9fe15fd8e2f29ce131143c6285bbdb8a3a0fd10f112b4c9", None),
    (("enumerate", "C3"), 0, _C3_JSONL, None),
    (("enumerate", "C3", "--dot"), 0,
     "a7f0270df8c338465bfb7b581071c87430b22bef8ba3bddcc6526a3f83b37e61", None),
    (("aggregate", "-n", "4", "--json"), 0,
     "db19a08903a5871f88367b4594d4a07ec7ed513a0773c198c09614fb2882fa3d", None),
    (("aggregate", "-n", "7", "--allow-large"), 0,
     "d811bcf55eb62914e8332e517c0b3d33b1042c068345e82f6edeb1390f3dab87", None),
    (("verify",), 0, "282731ea5c6d5e5ad4ecd9cd8c34973603551a5ade1a13884ad2ac3e77169d0d", None),
    # the CLI forms of the CI workflow
    (("aggregate", "-n", "6", "--json"), 0, _N6_JSON, None),
    (("aggregate", "-n", "6", "--workers", "2", "--json"), 0, _N6_JSON, None),
    (("count", "K7", "--json"), 0,
     "d25d63ab2d42330fe65e3e84048f7e3b62b21731628807e8fba9f568ce85548a", None),
    (("count", "union(C4,K3)", "--json"), 0,
     "add19333df401975dbf6bd739f50ab8931011e1558dfa2b515bc8bb7a143f55a", None),
    (("count", "union(K6,K1)", "--json"), 0,
     "a630093f9e6c168295784871504c98628c0da2227b051140f3e664c3da599a16", None),
    (("count", "union(K5,K2)", "--json"), 0,
     "a81bca84a5985775935a23441890e5f41e4fddedf2a33fe564977f80577856a2", None),
    (("count", "union(amalgam(K3@0,P1@0),K2)", "--json"), 0,
     "24cdd8915c05c07f80395995d6bf5c8697074361fd78ab78de3a55ce1aa086f4", None),
    (("count", "union(K3,union(K2,K3))", "--json"), 0,
     "8dffdaf574372d29583625453286ee34733a2432e97a3b1872b8e91e2de4a9a1", None),
    (("count", "union(C4,union(C4,union(K1,C4)))", "--json"), 0,
     "8295aeef9d6125a9988d138cabcc304695ec6e4c7381f008d2db0df7a1dbe5a4", None),
    (("count", "union(K8,K1)"), 0,
     "09a5fa8633c994e969282d28174976a7c5af02c84674f3067f92742e48784ad6", None),
    (("count", "K3", "--budget-edges", "5"), 1, _EMPTY, "--budget-edges"),
    (("aggregate", "-n", "7", "--allow-large", "--json"), 0, _N7_JSON, None),
    (("aggregate", "-n", "7", "--allow-large", "--workers", "2", "--json"), 0, _N7_JSON, None),
    (("enumerate", "K8", "--budget-edges", "28"), 0,
     "2430531980c58bfe69b64ad5aa7f0f658d9b861ad74c9b1b068141901a502a49", None),
    (("enumerate", "K7"), 0,
     "dcdbf799f61af55d8e4f656768e9fd073fbd1a6c178bcade47f5be15cdb31f21", None),
    (("enumerate", "amalgam(K7@0,K3@0)"), 0,
     "612b53a6e62b0896c763abd4046390b4ef1aec63762c1bf3b05ba5183ecf22fe", None),
    (("enumerate", "--file", "{k8star}"), 0,
     "7d3b3ff8c4a34b6ec7b234b04885f1f0eb349a8c76616aca4a0cd226ce8bcbf0", None),
    (("enumerate", "K6", "--dot"), 0,
     "a586a65c9b3b4f7cb2550d58704b06a651bb0ede8aea9487c135b42bc2b95b41", None),
    (("enumerate", "amalgam(K6@0,P2@0)", "--dot"), 0,
     "2cfd193c30b68fe4865a4a08066023449f21454f909dc75ce7e5419349d9cd6d", None),
    # long-option prefixes, =, a glued short value and --
    (("count", "K3", "--json"), 0, _K3_JSON, None),
    (("count", "--js", "K3"), 0, _K3_JSON, None),
    (("enumerate", "C3", "--budget-edges", "3"), 0, _C3_JSONL, None),
    (("enumerate", "C3", "--budget-edges=3"), 0, _C3_JSONL, None),
    (("enumerate", "C3", "--budg", "3"), 0, _C3_JSONL, None),
    (("enumerate", "C3", "--budget=3"), 0, _C3_JSONL, None),
    (("aggregate", "-n", "3", "--json"), 0, _N3_JSON, None),
    (("aggregate", "-n3", "--json"), 0, _N3_JSON, None),
    (("aggregate", "-n=3", "--json"), 0, _N3_JSON, None),
    (("aggregate", "-n", "+3", "--json"), 0, _N3_JSON, None),
    (("aggregate", "--allow", "-n", "3", "--json"), 0, _N3_JSON, None),
    (("aggregate", "-n", "3", "--wor=1", "--json"), 0, _N3_JSON, None),
    (("count", "K4"), 0, _K4_TEXT, None),
    (("count", "--", "K4"), 0, _K4_TEXT, None),
    (("count", "--json", "--", "K4"), 0, _K4_JSON, None),
    # values that start with -
    (("enumerate", "C3", "--budget-edges", "-1"), 1, _EMPTY, "--budget-edges"),
    (("enumerate", "C3", "--budget-edges=-1"), 1, _EMPTY, "--budget-edges"),
    (("aggregate", "-n", "-1", "--allow-large"), 1, _EMPTY, "-n"),
    (("aggregate", "-n", "3", "--workers", "-3"), 1, _EMPTY, "--workers"),
    (("count", "--file", "-"), 1, _EMPTY, "-"),
    # refusals
    ((), 1, _EMPTY, "command"),
    (("frobnicate", "K3"), 1, _EMPTY, "frobnicate"),
    (("--json", "count", "K3"), 1, _EMPTY, "--json"),
    (("aggregate",), 1, _EMPTY, "-n"),
    (("aggregate", "--json"), 1, _EMPTY, "-n"),
    (("aggregate", "-n", "7"), 1, _EMPTY, "--allow-large"),
    (("aggregate", "-n", "1.5"), 1, _EMPTY, "-n"),
    (("aggregate", "-n", ""), 1, _EMPTY, "-n"),
    (("aggregate", "-n", "1" * 5000), 1, _EMPTY, "-n"),
    (("count", "--file"), 1, _EMPTY, "--file"),
    (("count", "--file", "--json"), 1, _EMPTY, "--file"),
    (("count", "K3", "K4"), 1, _EMPTY, "K4"),
    (("count", "K4", "--", "--json"), 1, _EMPTY, "--json"),
    (("count", "K2", "--file", "x"), 1, _EMPTY, "--file"),
    (("count", "--json=1", "K3"), 1, _EMPTY, "--json"),
    (("count", "K3", "-x"), 1, _EMPTY, "-x"),
    (("verify", "K3"), 1, _EMPTY, "K3"),
    # the removed options
    (("aggregate", "-n", "3", "--budget-edges", "30"), 1, _EMPTY, "--budget-edges"),
    (("verify", "--budget-edges", "30"), 1, _EMPTY, "--budget-edges"),
    (("verify", "--suite", "oracles"), 1, _EMPTY, "--suite"),
    (("count", "K3", "--workers", "2"), 1, _EMPTY, "--workers"),
    (("enumerate", "K3", "--workers", "2"), 1, _EMPTY, "--workers"),
    (("enumerate", "C3", "--jsonl"), 1, _EMPTY, "--jsonl"),
    (("count", "K3", "--budget-edges", "30"), 1, _EMPTY, "--budget-edges"),
    # help, for the whole CLI and for each command
    (("-h",), 0, "usage: graphtop ", None),
    (("--help",), 0, "usage: graphtop ", None),
    (("count", "-h"), 0, "usage: graphtop count ", None),
    (("count", "K3", "--h"), 0, "usage: graphtop count ", None),
    (("enumerate", "--help"), 0, "usage: graphtop enumerate ", None),
    (("aggregate", "-h"), 0, "usage: graphtop aggregate ", None),
    (("verify", "-h"), 0, "usage: graphtop verify ", None),
]


class _HashedOut(io.TextIOBase):
    """Hashes what is written, so a long stream takes no memory."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.head = ""

    def write(self, text):
        self.sha.update(text.encode())
        self.head = self.head or text
        return len(text)


@pytest.mark.parametrize(
    "argv, code, out, named", _ARGV_TABLE, ids=lambda v: (" ".join(v)[:60] or "no-argument") if type(v) is tuple else None
)
def test_the_argv_table(monkeypatch, tmp_path, worker_starts, argv, code, out, named):
    """Each argv gives its exit code (SystemExit(c) reads as c) and its
    stdout bytes; a refusal writes one error: line that names the option,
    command or value refused."""
    for name, text in _FILES.items():
        (tmp_path / f"{name}.txt").write_text(text)
    argv = [a.format(**{n: str(tmp_path / f"{n}.txt") for n in _FILES}) for a in argv]
    _allow_cpus(monkeypatch, 2)
    stdout, stderr = _HashedOut(), io.StringIO()
    with deadline(120), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
    errors = [line for line in stderr.getvalue().splitlines() if "error" in line]
    assert got == code, stderr.getvalue()
    if out.startswith("usage: "):  # the help text is the parser's own wording
        assert stdout.head.startswith(out) and stderr.getvalue() == ""
    else:
        assert stdout.sha.hexdigest() == out
    if named is None:
        assert errors == []
    else:
        assert len(errors) == 1 == len(stderr.getvalue().splitlines())
        assert errors[0].startswith("error: ")
        assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", errors[0]), errors[0]


def test_automorphism_group_over_the_bound_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(canon, "MAX_AUT_ORDER", 100)
    with pytest.raises(SizeBoundExceeded, match=r"\|Aut\|=720 is over the bound of 100$"):
        automorphism_group(null_graph(6))  # |Aut| = 720
    assert len(automorphism_group(null_graph(4))) == 24
    # count lists no group, so the bound does not touch it
    code, out, _ = run_cli(capsys, "count", "N6")
    assert code == 0 and "tau=1 h=1" in out
    assert run_cli(capsys, "count", "K4")[0] == 0
    # nor does the tree: a prime node closes its group's image from generators
    classes = [e.graph for n in range(7) for e in graphs_up_to_iso(n).entries]
    want = [tree_counts(g) for g in classes]
    monkeypatch.setattr(canon, "MAX_AUT_ORDER", 1)
    assert [tree_counts(g) for g in classes] == want
    code, out, err = run_cli(capsys, "count", "P3")  # P4: a prime node, |H| = 2
    assert code == 0 and "tau=2 h=1" in out, err


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


# run as `python -I -c _IMPORT_CHECK <src dir>`: isolated mode ignores PYTHONPATH
_IMPORT_CHECK = """
import contextlib, io, os, sys

sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import graphtop, graphtop.cli

unused = {
    "argparse", "dataclasses", "gettext", "inspect", "multiprocessing", "pickle",
    "socket", "selectors",
}
print("loaded:", sorted(unused & set(sys.modules) - before))
os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, so that --workers 2 forks


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = graphtop.cli.main(argv)
    return code, out.getvalue()


codes = run(["count", "K4", "--json"])[0], run(["aggregate", "-n", "4"])[0]
parsers = {"argparse", "gettext", "locale"}
print("after count and aggregate:", codes, sorted(parsers & set(sys.modules) - before))
serial = run(["aggregate", "-n", "4", "--json"])
forked = run(["aggregate", "-n", "4", "--workers", "2", "--json"])
print("exit:", serial[0], "same bytes:", forked == serial, "forked:", "pickle" in sys.modules)
"""


def test_import_loads_only_what_a_serial_run_uses():
    """import graphtop.cli loads no module that only the fan-out, a
    dataclass or argparse needs (site may load typing first, so the check
    compares sys.modules before and after); count and aggregate, run in
    that interpreter after it, load no argparse, gettext or locale; and
    the fan-out imports its modules and prints a serial run's bytes."""
    src = str(Path(graphtop.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CHECK, src],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (
        "loaded: []\nafter count and aggregate: (0, 0) []\n"
        "exit: 0 same bytes: True forked: True\n"
    )
