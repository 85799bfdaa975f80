import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from toricbases import graphs
from toricbases.cli import _resolve_cli_ordering, main
from toricbases.core import SparseIntMatrix, matrix_from_text, matrix_to_text
from toricbases.graphs import (
    MIN_DEGREE,
    MIN_FILL,
    column_graph,
    edge_list_from_text,
    heuristic_ordering,
    row_graph,
    treedepth_estimate,
    treewidth_estimate,
)
from toricbases.oracle import (
    incidence_matrix,
    nfold_product,
    normal_form_bruteforce,
    random_sparse_matrix,
    two_by_two_minors_matrix,
)

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def simple_matrix(tmp_path):
    path = tmp_path / "simple.txt"
    path.write_text("1 2\n1 1\n")
    return str(path)


@pytest.fixture()
def tc_matrix(tmp_path):
    path = tmp_path / "tc.txt"
    path.write_text("2 4\n1 1 1 1\n0 1 2 3\n")
    return str(path)


def test_normal_form_subcommand(capsys, simple_matrix):
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", simple_matrix, "--order", "lex",
        "--monomial", "1,0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == [0, 1]
    assert payload["standard"] is False


def test_normal_form_routes_agree(capsys, tc_matrix):
    outputs = []
    for via in ("lattice", "gb", "ip"):
        bound = () if via == "ip" else ("--bound", "3")  # the IP route takes no lattice option
        code, out, _ = run_cli(
            capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
            "--monomial", "1,1,0,2", *bound, "--via", via,
        )
        assert code == 0
        outputs.append(json.loads(out)["normal_form"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_normal_form_ip_route_checks_the_lattice_options(capsys, tc_matrix, tmp_path):
    # the lattice route refuses what a build refuses; the IP route builds no
    # lattice, so it refuses each lattice option by name, valid or not
    short = tmp_path / "short.txt"
    short.write_text("0 1 2")
    common = ("normal-form", "--matrix", tc_matrix, "--order", "grlex", "--monomial", "1,1,0,2")
    for extra, message in (
        (("--ordering", "nonsense"), "unknown ordering 'nonsense'"),
        (("--ordering", f"file:{short}"), "ordering must be a permutation of the columns"),
        (("--bound", "-1"), "bound must be nonnegative"),
        (("--degree", "-1"), "degree bound must be nonnegative"),
    ):
        refusal = f"{extra[0]} needs --via lattice or gb, not --via ip"
        for via, want in (("lattice", message), ("ip", refusal)):
            code, out, err = run_cli(capsys, *common, *extra, "--via", via)
            assert (code, out) == (2, ""), (extra, via)
            assert err == f"error: {want}\n", (extra, via)
    forms = []
    for lattice_options in (("--ordering", "min-degree", "--degree", "4", "--via", "lattice"), ("--via", "ip")):
        code, out, _ = run_cli(capsys, *common, *lattice_options)
        assert code == 0
        forms.append(json.loads(out)["normal_form"])
    assert forms[0] == forms[1] == [0, 1, 3, 0]


def test_normal_form_ip_route_orders_nothing(capsys, tc_matrix, monkeypatch):
    # without lattice options the IP route answers, and never orders or
    # eliminates the column graph
    def refuse(*args, **kwargs):
        raise AssertionError("the IP route ordered the columns")

    monkeypatch.setattr(graphs, "eliminate", refuse)
    monkeypatch.setattr(graphs, "heuristic_ordering", refuse)
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,1,0,2", "--via", "ip",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["normal_form"] == [0, 1, 3, 0]


def test_normal_form_polynomial(capsys, tc_matrix):
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,0,1,0", "--bound", "3",
        "--polynomial", "[[1, [1,0,1,0]], [-1, [0,2,0,0]]]",
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == []


def test_normal_form_polynomial_output_is_pinned(capsys, tc_matrix):
    # three terms: x1x3 and x2^2 collect, x1^2x4 reduces to x2^3
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3",
        "--via", "lattice", "--monomial", "1,0,1,0",
        "--polynomial", "[[2, [1,0,1,0]], [3, [0,2,0,0]], [-1, [2,0,0,1]]]",
    )
    assert code == 0 and "not certified" in err
    assert out == (
        '{"certified": false, "input": [1, 0, 1, 0], "normal_form": [0, 2, 0, 0], '
        '"polynomial": [[-1, [0, 3, 0, 0]], [5, [0, 2, 0, 0]]], "standard": false, "via": "lattice"}\n'
    )


@pytest.mark.parametrize("via", ["gb", "ip"])
def test_normal_form_polynomial_is_read_by_the_lattice_route_only(capsys, tc_matrix, monkeypatch, via):
    # the polynomial is reduced over a lattice, so another route refuses it
    # before any build or solve: with a budget of 5 a build would fail
    monkeypatch.setenv("TORICBASES_BUDGET", "5")
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3",
        "--via", via, "--monomial", "1,0,1,0", "--polynomial", "[[1, [1,0,1,0]]]",
    )
    assert (code, out) == (2, "")
    assert err == f"error: --polynomial needs --via lattice, not --via {via}\n"


def test_normal_form_ip_route_builds_nothing(capsys, tc_matrix, monkeypatch):
    # with a budget of 5 any build of the twisted cubic's lattice would fail
    monkeypatch.setenv("TORICBASES_BUDGET", "5")
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,0,1,0", "--via", "ip",
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["normal_form"] == [0, 2, 0, 0] and payload["certified"] is True


def test_normal_form_gb_route_keeps_a_degree_lattice_bound(capsys, tmp_path, tc_matrix):
    # a truncated basis divides exactly only within its degree, so the gb
    # route refuses what the lattice route refuses, with the same message
    quartic = tmp_path / "quartic.txt"
    quartic.write_text("2 4\n1 1 1 1\n0 1 3 4\n")
    argv = ["normal-form", "--matrix", str(quartic), "--order", "grlex", "--degree", "2"]
    outside = {via: run_cli(capsys, *argv, "--monomial", "2,0,1,0", "--via", via) for via in ("lattice", "gb")}
    assert outside["gb"] == outside["lattice"]
    assert outside["gb"] == (1, "", "error: (2, 0, 1, 0) lies outside the degree bound 2\n")
    forms = []
    for via in ("lattice", "gb", "ip"):
        route = argv[:-2] if via == "ip" else argv  # the IP route takes no --degree
        code, out, err = run_cli(capsys, *route, "--monomial", "1,0,0,1", "--via", via)
        assert (code, err) == (0, "")
        forms.append(json.loads(out)["normal_form"])
    assert forms == [[0, 1, 1, 0]] * 3
    # a box lattice answers any monomial, and says when it is not certified
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--bound", "1",
        "--via", "gb", "--monomial", "3,0,3,0",
    )
    assert code == 0 and json.loads(out)["certified"] is False and "not certified" in err


def test_graver_subcommand_json_and_text(capsys, tc_matrix):
    code, out, _ = run_cli(capsys, "graver", "--matrix", tc_matrix, "--bound", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 10
    code, out, _ = run_cli(
        capsys, "graver", "--matrix", tc_matrix, "--bound", "3", "--format", "text"
    )
    assert code == 0
    assert len(out.splitlines()) == 10


def test_groebner_subcommand(capsys, tc_matrix):
    code, out, _ = run_cli(
        capsys, "groebner", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    code, out, _ = run_cli(
        capsys, "groebner", "--matrix", tc_matrix, "--order", "grlex",
        "--truncate", "2",
    )
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_lattice_subcommand_actions(capsys, tc_matrix):
    code, out, _ = run_cli(capsys, "lattice", "--matrix", tc_matrix, "--bound", "2", "count")
    assert code == 0
    assert json.loads(out)["count"] == 9
    code, out, _ = run_cli(
        capsys, "lattice", "--matrix", tc_matrix, "--bound", "2", "contains", "1,-2,1,0"
    )
    assert code == 0
    assert json.loads(out)["contains"] is True
    code, out, _ = run_cli(
        capsys, "lattice", "--matrix", tc_matrix, "--degree", "2", "list"
    )
    assert code == 0
    assert len(json.loads(out)["elements"]) == 7


def test_graph_stats(capsys, tc_matrix):
    code, out, _ = run_cli(capsys, "graph-stats", "--matrix", tc_matrix)
    assert code == 0
    payload = json.loads(out)
    assert payload["column_graph"]["vertices"] == 4
    assert payload["row_graph"]["vertices"] == 2
    assert payload["lattice_strategy"] in ("min-fill", "min-degree")


def edge_rows(seed):
    """A row e_a + e_b per edge of a seeded random graph, whose column graph
    is that graph."""
    rng = random.Random(seed)
    n, p = rng.randint(6, 12), rng.uniform(0.2, 0.5)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return SparseIntMatrix(len(edges), n, [(k, v, 1) for k, e in enumerate(edges) for v in e])


def test_graph_stats_match_the_graph_estimates(capsys, tmp_path, monkeypatch):
    eliminate = graphs.eliminate
    calls = []
    monkeypatch.setattr(graphs, "eliminate", lambda *a: calls.append(1) or eliminate(*a))
    path = tmp_path / "random.txt"
    matrices = [
        random_sparse_matrix(1 + seed % 4, 3 + seed % 6, 2, 0.4, seed).without_zero_rows()
        for seed in range(20)
    ]
    # min-fill is strictly narrower on the first two graphs, min-degree on the last two
    matrices += [edge_rows(seed) for seed in (0, 19, 1137, 2238)]
    outcomes = set()
    for A in matrices:
        path.write_text(matrix_to_text(A))
        calls.clear()
        code, out, _ = run_cli(capsys, "graph-stats", "--matrix", str(path))
        assert code == 0 and len(calls) == 4  # one elimination per graph and strategy
        stats = json.loads(out)
        widths = {}
        for name, graph in (("column_graph", column_graph(A)), ("row_graph", row_graph(A))):
            for strategy in (MIN_FILL, MIN_DEGREE):
                ordering = heuristic_ordering(graph, strategy)
                want = {
                    "treewidth": treewidth_estimate(graph, ordering),
                    "treedepth": treedepth_estimate(graph, ordering),
                }
                assert stats[name]["strategies"][strategy] == want, (A.to_dense(), name)
                widths[name, strategy] = want["treewidth"]
        fill, degree = widths["column_graph", MIN_FILL], widths["column_graph", MIN_DEGREE]
        outcomes.add((fill > degree) - (fill < degree))
        strategy = MIN_FILL if fill <= degree else MIN_DEGREE
        assert stats["lattice_strategy"] == strategy, A.to_dense()
        assert _resolve_cli_ordering("auto", A) == heuristic_ordering(column_graph(A), strategy)
    assert outcomes == {-1, 0, 1}


def test_json_numbers_must_be_integers(capsys, tmp_path, tc_matrix):
    ip = {"A": [[1, 1, -1]], "b": [1], "c": [1, 2, 0], "upper": [2, 2, 2], "hint": [1, 0, 0]}
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(json.dumps({**ip, "b": ["1"], "c": [1, "2", 0]}))
    code, out, _ = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert code == 0 and json.loads(out)["solution"] == [1, 0, 0]
    for key, value in (("A", [[1, 1.5, -1]]), ("b", [1.0]), ("hint", [1, 0, 0.5])):
        ip_path.write_text(json.dumps({**ip, key: value}))
        code, out, err = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
        assert code == 2 and out == "" and "expected an integer" in err, key
    nf = ["normal-form", "--matrix", tc_matrix, "--bound", "3", "--order", "grlex"]
    nf += ["--monomial", "1,0,1,0", "--polynomial"]
    code, out, _ = run_cli(capsys, *nf, '[["2", [1, 0, 1, 0]], [-1, [0, 2, 0, 0]]]')
    assert code == 0 and json.loads(out)["polynomial"] == [[1, [0, 2, 0, 0]]]
    for polynomial in ('[[1.5, [1, 0, 1, 0]]]', '[[1, [1, 0, 1.0, 0]]]'):
        code, out, err = run_cli(capsys, *nf, polynomial)
        assert code == 2 and out == "" and "expected an integer" in err, polynomial


MALFORMED_IPS = (
    ('{"A": [[1, 1]], "b": [null], "c": [1, 1], "upper": [3, 3]}', "b entry must be an integer"),
    ('{"b": [2], "c": [1, 1], "upper": [3, 3]}', "A must be a list of rows"),
    ('{"A": 5, "b": [2], "c": [1, 1], "upper": [3, 3]}', "A must be a list of rows"),
    ("[[1, 1]]", "must be a JSON object"),
)
MALFORMED_POLYNOMIALS = (
    ("[[null, [1, 0, 1, 0]]]", "coefficient must be an integer"),
    ("5", "must be a list of [coefficient, exponent] pairs"),
)


@pytest.mark.parametrize(
    "kind, text, message",
    [
        *(("ip", text, message) for text, message in MALFORMED_IPS),
        *(("polynomial", text, message) for text, message in MALFORMED_POLYNOMIALS),
    ],
)
def test_malformed_json_is_a_usage_error(capsys, tmp_path, tc_matrix, kind, text, message):
    # a wrong type or a missing key names the field and exits 2, with no traceback
    if kind == "ip":
        ip_path = tmp_path / "ip.json"
        ip_path.write_text(text)
        argv = ["solve-ip", "--ip", str(ip_path)]
    else:
        argv = ["normal-form", "--matrix", tc_matrix, "--bound", "3", "--order", "grlex"]
        argv += ["--monomial", "1,0,1,0", "--polynomial", text]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("missing", ["b", "c"])
def test_solve_ip_names_a_missing_field(capsys, tmp_path, missing):
    # the README promises a missing A, b or c names the field, exit 2
    program = {"A": [[1, 1]], "b": [2], "c": [1, 1], "upper": [3, 3]}
    del program[missing]
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(json.dumps(program))
    code, out, err = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert (code, out, err) == (2, "", f"error: {missing} must be a list of integers, got null\n")


@pytest.mark.parametrize(
    "field, program",
    [
        ("b entry", {"A": [[1, 1]], "b": [True], "c": [1, 1], "upper": [1, 1]}),
        ("A row entry", {"A": [[True, 1]], "b": [1], "c": [1, 1], "upper": [1, 1]}),
        ("c entry", {"A": [[1, 1]], "b": [1], "c": [1, False], "upper": [1, 1]}),
        ("upper entry", {"A": [[1, 1]], "b": [1], "c": [1, 1], "upper": [True, 1]}),
    ],
    ids=["b", "A", "c", "upper"],
)
def test_solve_ip_refuses_json_booleans(capsys, tmp_path, field, program):
    # a JSON boolean is not an integer, though Python's bool is an int
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(json.dumps(program))
    code, out, err = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    bad = "false" if field == "c entry" else "true"
    assert (code, out, err) == (2, "", f"error: {field} must be an integer, got {bad}\n")


@pytest.mark.parametrize(
    "polynomial, field",
    [
        ("[[true, [1, 0, 0, 0]]]", "--polynomial coefficient"),
        ("[[1, [true, 0, 0, 0]]]", "--polynomial exponent entry"),
    ],
    ids=["coefficient", "exponent"],
)
def test_normal_form_refuses_json_booleans(capsys, tc_matrix, polynomial, field):
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3",
        "--monomial", "1,0,0,0", "--polynomial", polynomial,
    )
    assert (code, out, err) == (2, "", f"error: {field} must be an integer, got true\n")


@pytest.mark.parametrize(
    "text", ["+3", " 12 ", "1_000", "\u0661\u0662"], ids=["sign", "spaces", "underscore", "arabic-indic"]
)
def test_json_decimal_strings_are_ascii_digits(capsys, tmp_path, tc_matrix, text):
    # int() reads each of these, but none is a decimal string of ASCII digits
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(json.dumps({"A": [[1, 1]], "b": [text], "c": [1, 1], "upper": [3, 3]}))
    code, out, err = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert (code, out, err) == (2, "", f"error: b entry must be an integer, got {json.dumps(text)}\n")
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3",
        "--monomial", "1,0,0,0", "--polynomial", json.dumps([[text, [1, 0, 0, 0]]]),
    )
    assert (code, out, err) == (
        2, "", f"error: --polynomial coefficient must be an integer, got {json.dumps(text)}\n"
    )


def test_normal_form_ip_route_solves_graded_orders_exactly(capsys, tc_matrix):
    # the README's grlex --via ip line: the twisted cubic is homogeneous, so
    # the route solves the lex program, and its answer is the oracle's (every
    # fiber point of a degree-4 monomial lies in [0, 4]^4, so g = 4 is exact)
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,1,0,2", "--via", "ip",
    )
    assert code == 0
    A = matrix_from_text(Path(tc_matrix).read_text())
    want = normal_form_bruteforce(A, (1, 1, 1, 1), (1, 1, 0, 2), 4)
    assert json.loads(out)["normal_form"] == list(want) == [0, 1, 3, 0]


@pytest.mark.parametrize(
    "route, monomial, polynomial, budget, message",
    [
        (["--bound", "3"], "1,0,1", None, "5", "--monomial needs length 4, got 3"),
        (["--bound", "3", "--via", "gb"], "1,0,1", None, "5", "--monomial needs length 4, got 3"),
        (["--via", "ip"], "1,0,1", None, None, "--monomial needs length 4, got 3"),
        (["--bound", "3"], "1,0,1,0", "[[1, [1, 0]]]", "5", "exponent needs length 4, got 2"),
        (["--via", "ip", "--bound", "3"], "1,0,1,0", "[[1, [1, 0]]]", None,
         "exponent needs length 4, got 2"),
    ],
    ids=["lattice", "gb", "ip", "polynomial-lattice", "polynomial-ip"],
)
def test_normal_form_checks_exponent_lengths_before_the_build(
    capsys, tc_matrix, monkeypatch, route, monomial, polynomial, budget, message
):
    # an exponent of the wrong length is a usage error, reported before any
    # build or solve: with a budget of 5 the build itself would fail
    if budget is None:
        monkeypatch.delenv("TORICBASES_BUDGET", raising=False)
    else:
        monkeypatch.setenv("TORICBASES_BUDGET", budget)
    argv = ["normal-form", "--matrix", tc_matrix, "--order", "grlex", *route, "--monomial", monomial]
    if polynomial is not None:
        argv += ["--polynomial", polynomial]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert message in err and "budget" not in err, err


def test_negative_monomial_in_the_equals_form(capsys, tc_matrix):
    # after a space argparse takes -1,0,0,0 for an option; written
    # --monomial=<csv>, as the help shows, it reaches the library's refusal
    common = ["normal-form", "--matrix", tc_matrix, "--order", "grlex"]
    for route in (["--bound", "2"], ["--bound", "2", "--via", "gb"], ["--degree", "2"], ["--via", "ip"]):
        code, out, err = run_cli(capsys, *common, *route, "--monomial=-1,0,0,0")
        assert code == 2 and out == "" and err == "error: monomial exponents must be nonnegative\n", route
    code, out, err = run_cli(capsys, *common, "--bound", "2", "--monomial", "-1,0,0,0")
    assert code == 2 and out == "" and "expected one argument" in err
    code, out, _ = run_cli(capsys, "normal-form", "--help")
    assert code == 0 and "--monomial=<csv>" in out


def test_solve_ip_and_reduce_ip(capsys, tmp_path):
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(
        json.dumps(
            {
                "A": [[1, 1, -1]],
                "b": [1],
                "c": [1, 2, 0],
                "lower": [0, 0, 0],
                "upper": [2, 2, 2],
                "hint": [1, 0, 0],
            }
        )
    )
    code, out, _ = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == 1
    assert payload["solution"] == [1, 0, 0]

    code, out, _ = run_cli(
        capsys, "reduce-ip", "--ip", str(ip_path), "--out-prefix", str(tmp_path / "red")
    )
    assert code == 0
    payload = json.loads(out)
    assert (tmp_path / "red_matrix.txt").exists()
    assert (tmp_path / "red_start.txt").exists()
    assert payload["variables"] == 7


def test_vertex_cover_both_routes(capsys, tmp_path):
    graph_path = tmp_path / "c5.txt"
    graph_path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "vertex-cover", str(graph_path))
    assert code == 0
    assert json.loads(out)["cover_size"] == 3
    code, out, _ = run_cli(capsys, "vertex-cover", str(graph_path), "--via", "normal-form")
    assert code == 0
    assert json.loads(out)["cover_size"] == 3


def test_gen_subcommands(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen", "--kind", "minors", "--blocks", "2", "--copies", "3")
    assert code == 0
    assert out.startswith("5 6\n") or out.startswith("sparse 5 6")
    out_path = tmp_path / "rand.txt"
    code, _, _ = run_cli(
        capsys, "gen", "--kind", "random", "--rows", "2", "--cols", "4",
        "--seed", "7", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    code, out, _ = run_cli(capsys, "gen", "--kind", "threeway", "--l", "2", "--m", "2", "--n", "2")
    assert code == 0
    graph_path = tmp_path / "k3.txt"
    graph_path.write_text("0 1\n1 2\n2 0\n")
    code, out, _ = run_cli(capsys, "gen", "--kind", "incidence", "--graph", str(graph_path))
    assert code == 0
    assert out == matrix_to_text(incidence_matrix(edge_list_from_text(graph_path.read_text())))
    a1, a2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
    a1.write_text("1 2\n1 1\n")
    a2.write_text("1 2\n1 -1\n")
    code, out, _ = run_cli(
        capsys, "gen", "--kind", "nfold", "--a1", str(a1), "--a2", str(a2), "--copies", "3"
    )
    assert code == 0
    want = nfold_product(matrix_from_text(a1.read_text()), matrix_from_text(a2.read_text()), 3)
    assert out == matrix_to_text(want)
    code, _, err = run_cli(capsys, "gen", "--kind", "nfold", "--a1", str(a1))
    assert code == 2 and "--a2" in err


def test_gen_refuses_the_options_of_other_kinds(capsys, tmp_path):
    # an option of another kind is a usage error, not silently ignored, even
    # when it holds a path that does not exist
    code, out, err = run_cli(
        capsys, "gen", "--kind", "minors", "--blocks", "2", "--copies", "2", "--seed", "99",
        "--rows", "7", "--density", "0.9", "--a1", str(tmp_path / "missing.txt"),
    )
    assert (code, out) == (2, "")
    assert err == "error: --kind minors does not take --a1, --rows, --density, --seed\n"
    code, out, err = run_cli(capsys, "gen", "--kind", "random", "--copies", "2")
    assert (code, out, err) == (2, "", "error: --kind random does not take --copies\n")
    # a kind's own options, --out and the defaults are unchanged
    code, out, _ = run_cli(capsys, "gen", "--kind", "random")
    assert code == 0 and out == matrix_to_text(random_sparse_matrix(3, 6, 2, 0.5, 0))
    out_path = tmp_path / "minors.txt"
    code, out, _ = run_cli(capsys, "gen", "--kind", "minors", "--out", str(out_path))
    assert (code, out) == (0, "")
    assert out_path.read_text() == matrix_to_text(two_by_two_minors_matrix(2, 2))


@pytest.mark.parametrize(
    "options, code",
    [
        (["--kind", "minors", "--blocks", "1", "--copies", "1"], 0),
        (["--kind", "threeway", "--l", "1", "--m", "1", "--n", "1"], 0),
        (["--kind", "nfold", "--a1", "a1.txt", "--a2", "a2.txt", "--copies", "1"], 0),
        (["--kind", "incidence", "--graph", "edge.txt"], 0),
        (["--kind", "incidence", "--graph", "empty.txt"], 0),
        (["--kind", "random", "--rows", "0"], 0),
        (["--kind", "minors", "--blocks", "0"], 2),
        (["--kind", "minors", "--copies", "0"], 2),
        (["--kind", "threeway", "--l", "0"], 2),
        (["--kind", "threeway", "--m", "0"], 2),
        (["--kind", "threeway", "--n", "0"], 2),
        (["--kind", "nfold", "--a1", "a1.txt", "--a2", "a2.txt", "--copies", "0"], 2),
        (["--kind", "random", "--cols", "0"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_gen_writes_what_its_readers_read(capsys, monkeypatch, tmp_path, options, code):
    # each kind at its smallest sizes writes a matrix that graph-stats reads;
    # a size below those is refused with one error line and no file
    monkeypatch.chdir(tmp_path)
    files = {"a1.txt": "1 2\n1 1\n", "a2.txt": "1 2\n1 -1\n", "edge.txt": "0 1\n", "empty.txt": ""}
    for name, text in files.items():
        Path(name).write_text(text)
    got, out, err = run_cli(capsys, "gen", *options, "--out", "gen.txt")
    assert (got, out) == (code, ""), err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not Path("gen.txt").exists()
        return
    got, out, err = run_cli(capsys, "graph-stats", "--matrix", "gen.txt")
    assert (got, err) == (0, ""), Path("gen.txt").read_text()
    assert json.loads(out)["columns"] == matrix_from_text(Path("gen.txt").read_text()).num_cols


def test_cli_import_leaves_numpy_unloaded():
    # only `gen` needs the oracle, which loads numpy, and imports it when it
    # runs; every CLI call imports the library afresh, so a stray import of
    # either would add its load time to each call
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for module in ("toricbases", "toricbases.cli"):
        loaded = "sorted({'numpy', 'toricbases.oracle'} & set(sys.modules))"
        script = f"import sys, {module}; sys.exit({loaded} or None)"
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, f"{module} imported {proc.stderr}"


def test_import_leaves_dataclasses_unloaded():
    # the value classes are written on core.Frozen, not @dataclass:
    # dataclasses loads inspect, and with the decoration that was a third of
    # the library's import time, paid by every CLI call
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for module in ("toricbases", "toricbases.cli"):
        loaded = "sorted({'dataclasses', 'inspect'} & set(sys.modules))"
        script = f"import sys, {module}; sys.exit({loaded} or None)"
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, f"{module} imported {proc.stderr}"


def test_ordering_from_file_and_strategies(capsys, tc_matrix, tmp_path):
    ordering_path = tmp_path / "ord.txt"
    ordering_path.write_text("3 2 1 0\n")
    results = []
    for spec in (f"file:{ordering_path}", "min-degree", "min-fill", "auto"):
        code, out, _ = run_cli(
            capsys, "lattice", "--matrix", tc_matrix, "--bound", "2",
            "--ordering", spec, "count",
        )
        assert code == 0
        results.append(json.loads(out)["count"])
    assert len(set(results)) == 1  # the represented set is ordering-independent


def test_ordering_file_skips_comment_and_blank_lines(capsys, tc_matrix, tmp_path):
    # ordering files follow the rule of matrix files and edge lists: blank
    # lines and lines whose first token starts with '#' are skipped
    bare = tmp_path / "bare.txt"
    bare.write_text("3 1\n2 0\n")
    commented = tmp_path / "commented.txt"
    commented.write_text("# order\n3 1\n\n   #later columns\n2 0\n")
    outputs = []
    for path in (bare, commented):
        code, out, err = run_cli(
            capsys, "lattice", "--matrix", tc_matrix, "--bound", "2", "--ordering", f"file:{path}", "count"
        )
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_weights_order_on_cli(capsys, tc_matrix):
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "weights:2,0,1,0",
        "--monomial", "1,1,0,0", "--bound", "3",
    )
    assert code == 0
    assert json.loads(out)["standard"] is True
    code, _, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "weights:1,2",
        "--monomial", "1,0,0,0", "--bound", "2",
    )
    assert code == 2  # wrong weight count is a usage error


def test_budget_env_override(capsys, tc_matrix, monkeypatch):
    monkeypatch.setenv("TORICBASES_BUDGET", "10")
    code, _, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, "--bound", "3", "count")
    assert code == 1
    assert "budget" in err


def test_budget_env_must_be_an_integer(capsys, tc_matrix, monkeypatch):
    monkeypatch.setenv("TORICBASES_BUDGET", "lots")
    code, _, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, "--bound", "3", "count")
    assert code == 2
    assert "TORICBASES_BUDGET" in err


@pytest.mark.parametrize(
    "value",
    ["lots", "1_000000", " 5000000 ", "+5000000", "-1"],
    ids=["word", "underscore", "spaces", "plus", "negative"],
)
def test_budget_env_is_a_nonnegative_integer_in_text(capsys, tc_matrix, monkeypatch, value):
    # the variable follows the rule for integers in text, and a budget
    # below 0 is refused as a usage error, not reported as exceeded
    monkeypatch.setenv("TORICBASES_BUDGET", value)
    code, out, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, "--bound", "3", "count")
    assert code == 2 and out == ""
    assert err == f"error: TORICBASES_BUDGET must be a nonnegative integer, got {value!r}\n"
    # the IP route builds no lattice, so it never reads the variable
    code, _, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex", "--via", "ip", "--monomial", "1,0,1,0"
    )
    assert code == 0
    monkeypatch.setenv("TORICBASES_BUDGET", "0")
    code, _, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, "--bound", "3", "count")
    assert code == 1 and "exceeds budget 0" in err


def test_removed_flags_are_usage_errors(capsys, tc_matrix, tmp_path):
    # both calls succeed without the removed flag
    lattice = ["lattice", "--matrix", tc_matrix, "--bound", "1", "count"]
    ip_path = tmp_path / "ip.json"
    ip_path.write_text(json.dumps({"A": [[1, 1]], "b": [1], "c": [1, 2],
                                   "upper": [1, 1], "hint": [1, 0]}))
    reduce_ip = ["reduce-ip", "--ip", str(ip_path), "--out-prefix", str(tmp_path / "red")]
    assert main(lattice) == 0 and main(reduce_ip) == 0
    assert main(["--threads", "2", *lattice]) == 2
    assert main([*reduce_ip, "--to", "normal-form"]) == 2
    capsys.readouterr()


def test_certified_flag_and_warning(capsys, simple_matrix, tc_matrix):
    # the default bound is graver_infinity_bound: certified, and no warning
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", simple_matrix, "--order", "lex", "--monomial", "1,0"
    )
    assert code == 0 and json.loads(out)["certified"] is True and err == ""
    # the twisted cubic at g=1 misses a move: the same JSON, flagged, and one
    # warning line on stderr
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "lex",
        "--monomial", "0,1,0,1", "--bound", "1",
    )
    payload = json.loads(out)
    assert code == 0 and payload["normal_form"] == [0, 1, 0, 1]
    assert payload["certified"] is False
    assert len(err.splitlines()) == 1 and "not certified" in err
    # the IP route is exact
    code, out, err = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "lex",
        "--monomial", "0,1,0,1", "--via", "ip",
    )
    assert json.loads(out)["normal_form"] == [0, 0, 2, 0]
    assert json.loads(out)["certified"] is True and err == ""
    for argv in (
        ["graver", "--matrix", tc_matrix, "--bound", "3"],
        ["groebner", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["certified"] is False
        assert "not certified" in err
    # exact: the default box bound, and degree routes for the degree asked
    for argv in (
        ["graver", "--matrix", simple_matrix],
        ["normal-form", "--matrix", tc_matrix, "--order", "grlex", "--monomial", "0,1,0,1",
         "--degree", "2"],
        ["graver", "--matrix", tc_matrix, "--truncate", "3"],
        ["groebner", "--matrix", tc_matrix, "--order", "grlex", "--truncate", "3"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["certified"] is True and err == ""


def test_normal_form_degree_route(capsys, tc_matrix):
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,0,1,0", "--degree", "3",
    )
    assert code == 0
    assert json.loads(out)["normal_form"] == [0, 2, 0, 0]


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "normal-form", "--matrix", "does-not-exist.txt",
        "--order", "lex", "--monomial", "1,0",
    )
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys):
    code = main(["lattice"])
    capsys.readouterr()
    assert code == 2


def test_domain_error_exits_1(capsys, tmp_path):
    ip_path = tmp_path / "infeasible.json"
    ip_path.write_text(
        json.dumps({"A": [[1]], "b": [-1], "c": [1], "lower": [0], "upper": [5]})
    )
    code, _, err = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert code == 1
    assert "error" in err


def test_determinism_byte_identical(capsys, tc_matrix, tmp_path):
    graph_path = tmp_path / "k3.txt"
    graph_path.write_text("0 1\n1 2\n2 0\n")
    commands = [
        ("graver", "--matrix", tc_matrix, "--bound", "3"),
        ("groebner", "--matrix", tc_matrix, "--order", "grlex", "--bound", "3"),
        ("lattice", "--matrix", tc_matrix, "--bound", "2", "list"),
        ("graph-stats", "--matrix", tc_matrix),
        ("normal-form", "--matrix", tc_matrix, "--order", "lex", "--monomial", "2,0,1,0", "--bound", "3"),
        ("vertex-cover", str(graph_path)),
    ]
    for argv in commands:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second, argv


def test_big_integers_serialized_as_strings(capsys, tmp_path):
    big = 10**19  # beyond 64-bit range
    ip_path = tmp_path / "big.json"
    ip_path.write_text(
        json.dumps(
            {"A": [[1, 1]], "b": [2], "c": [-big, 1], "lower": [0, 0], "upper": [2, 2]}
        )
    )
    code, out, _ = run_cli(capsys, "solve-ip", "--ip", str(ip_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == str(-2 * big)
    assert isinstance(payload["objective"], str)


def test_auto_ordering_tie_goes_to_min_fill(capsys, tmp_path):
    # both strategies reach width 2 on this matrix, with different orderings
    path = tmp_path / "tie.txt"
    path.write_text(matrix_to_text(random_sparse_matrix(4, 9, 2, 0.35, 0)))
    code, out, _ = run_cli(capsys, "graph-stats", "--matrix", str(path))
    stats = json.loads(out)
    widths = {s: v["treewidth"] for s, v in stats["column_graph"]["strategies"].items()}
    assert code == 0 and widths["min-fill"] == widths["min-degree"]
    assert stats["lattice_strategy"] == "min-fill"
    # the enumeration order follows the ordering the lattice is built with
    listed = {}
    for ordering in ("auto", "min-fill", "min-degree"):
        code, out, _ = run_cli(
            capsys, "lattice", "--matrix", str(path), "--degree", "2", "--ordering", ordering, "list"
        )
        assert code == 0
        listed[ordering] = json.loads(out)["elements"]
    assert listed["auto"] == listed["min-fill"] != listed["min-degree"]


def test_truncate_with_bound_is_a_usage_error(capsys, tc_matrix):
    for argv in (
        ["graver", "--matrix", tc_matrix, "--truncate", "2", "--bound", "1"],
        ["groebner", "--matrix", tc_matrix, "--order", "grlex", "--truncate", "2", "--bound", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "--truncate" in err


def test_lattice_and_normal_form_reject_bound_with_degree(capsys, tc_matrix):
    for argv in (
        ["lattice", "--matrix", tc_matrix, "--bound", "1", "--degree", "2", "count"],
        ["normal-form", "--matrix", tc_matrix, "--order", "grlex", "--monomial", "1,0,1,0",
         "--degree", "2", "--bound", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "--degree" in err


def test_contains_accepts_a_vector_with_a_negative_first_entry(capsys, tmp_path):
    path = tmp_path / "one_two.txt"
    path.write_text("1 2\n1 2\n")
    for tail in (["-2,1"], ["--", "-2,1"]):
        code, out, _ = run_cli(
            capsys, "lattice", "--matrix", str(path), "--degree", "3", "contains", *tail
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vector"] == [-2, 1] and payload["contains"] is True


def test_contains_parses_its_vector_before_the_build(capsys, tc_matrix, monkeypatch):
    # a malformed vector is a usage error even when the build would fail
    monkeypatch.setenv("TORICBASES_BUDGET", "5")
    code, out, err = run_cli(
        capsys, "lattice", "--matrix", tc_matrix, "--bound", "2", "contains", "1,a"
    )
    assert code == 2 and out == "" and "budget" not in err


def test_contains_checks_the_vector_length_before_the_build(capsys, tc_matrix, monkeypatch):
    # a vector of the wrong length is a usage error, reported before the
    # build even when the build would fail
    for budget in (None, "5"):
        if budget is None:
            monkeypatch.delenv("TORICBASES_BUDGET", raising=False)
        else:
            monkeypatch.setenv("TORICBASES_BUDGET", budget)
        code, out, err = run_cli(
            capsys, "lattice", "--matrix", tc_matrix, "--bound", "2", "contains", "1,2"
        )
        assert code == 2 and out == ""
        assert "vector of length 4, got 2" in err and "budget" not in err


def test_lattice_vector_only_with_contains(capsys, tc_matrix):
    for argv in (
        ["--bound", "2", "count", "1,2,3,4"],
        ["--degree", "2", "list", "1,-2,1,0"],
        ["--bound", "2", "contains"],
    ):
        code, out, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, *argv)
        assert code == 2 and out == "" and "vector" in err


def test_lattice_list_output_is_pinned(capsys, tc_matrix, tmp_path):
    # the enumeration order of `lattice list`, byte for byte; stored_rows
    # counts the rows the bags actually store
    tie = tmp_path / "tie.txt"
    tie.write_text(matrix_to_text(random_sparse_matrix(4, 9, 2, 0.35, 0)))
    cases = [
        (
            ("--matrix", tc_matrix, "--bound", "2"),
            '{"bound": 2, "clique_number": 4, "elements": [[-2, 2, 2, -2], [-1, 1, 1, -1], [0,'
            ' -1, 2, -1], [-1, 2, -1, 0], [0, 0, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [1, -1, -1,'
            ' 1], [2, -2, -2, 2]], "kind": "box", "stored_rows": 9}',
        ),
        (
            ("--matrix", tc_matrix, "--degree", "2"),
            '{"bound": 2, "clique_number": 5, "elements": [[0, 0, 0, 0], [-1, 1, 1, -1], [0, -1,'
            ' 2, -1], [-1, 2, -1, 0], [1, -2, 1, 0], [0, 1, -2, 1], [1, -1, -1, 1]], "kind":'
            ' "degree", "stored_rows": 7}',
        ),
        (
            ("--matrix", str(tie), "--degree", "2", "--ordering", "min-fill"),
            '{"bound": 2, "clique_number": 6, "elements": [[0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0,'
            ' 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 2, 0, 0, 0, 0, 0, 0, 0], [0, 1,'
            ' 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 2, 0, 0], [0, 0, 0, 0, 0, 0, -1, 0, 0],'
            ' [0, -1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, -1, 0, 0], [0, 0, 1, 0, -1, 0, 0,'
            ' 0, 0], [0, 0, -1, 0, 1, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 1, 0, 0], [0, 2, 0, 0, 0,'
            ' 0, -1, 0, 0], [0, 1, 1, 0, -1, 0, 0, 0, 0], [0, 1, -1, 0, 1, 0, 0, 0, 0], [0, 0, 1,'
            ' 0, -1, 0, 1, 0, 0], [0, 0, -1, 0, 1, 0, 1, 0, 0], [0, -1, 0, 0, 0, 0, 2, 0, 0], [0,'
            ' 0, 0, 0, 0, 0, -2, 0, 0], [0, -1, 0, 0, 0, 0, -1, 0, 0], [0, -2, 0, 0, 0, 0, 0, 0,'
            ' 0], [0, 1, 0, 0, 0, 0, -2, 0, 0], [0, 0, 1, 0, -1, 0, -1, 0, 0], [0, 0, -1, 0, 1,'
            ' 0, -1, 0, 0], [0, -1, 1, 0, -1, 0, 0, 0, 0], [0, -1, -1, 0, 1, 0, 0, 0, 0], [0, -2,'
            ' 0, 0, 0, 0, 1, 0, 0], [0, 2, 0, 0, 0, 0, -2, 0, 0], [0, 1, 1, 0, -1, 0, -1, 0, 0],'
            ' [0, 1, -1, 0, 1, 0, -1, 0, 0], [0, 0, 2, 0, -2, 0, 0, 0, 0], [0, 0, -2, 0, 2, 0, 0,'
            ' 0, 0], [0, -1, 1, 0, -1, 0, 1, 0, 0], [0, -1, -1, 0, 1, 0, 1, 0, 0], [0, -2, 0, 0,'
            ' 0, 0, 2, 0, 0]], "kind": "degree", "stored_rows": 50}',
        ),
    ]
    for args, want in cases:
        code, out, _ = run_cli(capsys, "lattice", *args, "list")
        assert code == 0 and out == want + "\n", args


NF_IP = ["normal-form", "--matrix", "tc.txt", "--order", "grlex", "--monomial", "1,0,1,0", "--via", "ip"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["normal-form", "--matrix", "tc.txt", "--order", "revlex", "--monomial", "1,0,0,0"],
         "unknown order 'revlex'; use lex, grlex or weights:<csv>"),
        (["gen", "--kind", "incidence"], "incidence needs --graph with an edge list file"),
        # more digits than int() converts by default (4,300)
        (["solve-ip", "--ip", "long.json"], f'b entry must be an integer, got "{"9" * 4301}"'),
        (["normal-form", "--matrix", "tc.txt", "--order", "grlex", "--monomial", ""],
         "--monomial needs length 4, got 0"),
        (["gen", "--kind", "random", "--max-entry", "0"], "max_entry must be at least 1, got 0"),
        (["gen", "--kind", "random", "--max-entry", "-2"], "max_entry must be at least 1, got -2"),
        (["gen", "--kind", "random", "--cols", "0"], "cols must be at least 1 when rows is positive, got 0"),
        (["gen", "--kind", "random", "--density", "2"], "density must lie in [0, 1], got 2.0"),
        (["gen", "--kind", "random", "--density", "-1"], "density must lie in [0, 1], got -1.0"),
        (["gen", "--kind", "random", "--density", "nan"], "density must lie in [0, 1], got nan"),
        (["gen", "--kind", "minors", "--blocks", "0"], "blocks and copies must be at least 1, got 0 and 2"),
        (["gen", "--kind", "minors", "--copies", "0"], "blocks and copies must be at least 1, got 2 and 0"),
        (["gen", "--kind", "threeway", "--l", "0"], "l, m and n must be at least 1, got 0, 2 and 2"),
        (["gen", "--kind", "threeway", "--m", "0"], "l, m and n must be at least 1, got 2, 0 and 2"),
        # the IP route builds no lattice, so it takes no lattice option,
        # even one that a build would refuse for another reason
        ([*NF_IP, "--bound", "3"], "--bound needs --via lattice or gb, not --via ip"),
        ([*NF_IP, "--degree", "2"], "--degree needs --via lattice or gb, not --via ip"),
        ([*NF_IP, "--ordering", "min-fill"], "--ordering needs --via lattice or gb, not --via ip"),
        ([*NF_IP, "--ordering", "nonsense"], "--ordering needs --via lattice or gb, not --via ip"),
        ([*NF_IP, "--ordering", "auto"], "--ordering needs --via lattice or gb, not --via ip"),
    ],
    ids=["unknown-order", "incidence-without-graph", "long-decimal-string", "empty-monomial",
         "random-max-entry-0", "random-max-entry-negative", "random-cols-0", "random-density-2",
         "random-density-negative", "random-density-nan", "minors-blocks-0", "minors-copies-0",
         "threeway-l-0", "threeway-m-0", "ip-bound", "ip-degree", "ip-ordering-min-fill",
         "ip-ordering-nonsense", "ip-ordering-auto"],
)
def test_cli_refusals(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tc.txt").write_text("2 4\n1 1 1 1\n0 1 2 3\n")
    (tmp_path / "long.json").write_text(json.dumps({"A": [[1]], "b": ["9" * 4301], "c": [1], "upper": [1]}))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


IP_TEMPLATE = {"A": [[1, 1]], "b": [2], "c": [1, 2], "upper": [2, 2], "hint": [0, 2]}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"hnt": [0, 2], "lowr": [1, 1]}, '"hnt", "lowr"'),
        ({"uper": [2, 2]}, '"uper"'),
    ],
    ids=["misspelt-hint-and-lower", "misspelt-upper"],
)
@pytest.mark.parametrize("command", ["solve-ip", "reduce-ip"])
def test_program_files_refuse_unknown_keys(capsys, monkeypatch, tmp_path, command, extra, named):
    # a misspelt key would drop its bound or hint unseen; it is refused, by
    # name, before any solve or any file is written
    monkeypatch.chdir(tmp_path)
    program = {key: value for key, value in IP_TEMPLATE.items() if "uper" not in extra or key != "upper"}
    Path("ip.json").write_text(json.dumps({**program, **extra}))
    argv = [command, "--ip", "ip.json"] + (["--out-prefix", "out"] if command == "reduce-ip" else [])
    message = f"unknown program keys {named}; a program takes A, b, c, lower, upper, hint"
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ip.json"]


def test_reduce_ip_without_upper_bounds_is_a_domain_error(capsys, monkeypatch, tmp_path):
    # the program itself refuses to be built without a box, for both commands
    monkeypatch.chdir(tmp_path)
    Path("ip.json").write_text(json.dumps({k: v for k, v in IP_TEMPLATE.items() if k != "upper"}))
    message = "error: finite upper bounds are required; none were supplied\n"
    assert run_cli(capsys, "solve-ip", "--ip", "ip.json") == (1, "", message)
    assert run_cli(capsys, "reduce-ip", "--ip", "ip.json", "--out-prefix", "out") == (1, "", message)


@pytest.mark.parametrize(
    "argv, files, token",
    [
        (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1_0,0,+0,٣"], {}, "1_0"),
        (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1,0,+0,0"], {}, "+0"),
        (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1,0,0,٣"], {}, "٣"),
        (["normal-form", "--matrix", "tc.txt", "--order", "weights:1,1,1_0,1", "--monomial", "1,0,1,0"],
         {}, "1_0"),
        (["lattice", "--matrix", "tc.txt", "--bound", "2", "contains", "1_0,0,0,0"], {}, "1_0"),
        (["lattice", "--matrix", "m.txt", "--bound", "2", "count"], {"m.txt": "2 4\n1 1 1 1\n0 1 2 1_0\n"}, "1_0"),
        (["graver", "--matrix", "m.txt", "--bound", "2"], {"m.txt": "sparse 1 2 +2\n0 0 1\n0 1 1\n"}, "+2"),
        (["lattice", "--matrix", "tc.txt", "--bound", "2", "--ordering", "file:o.txt", "count"],
         {"o.txt": "0 1 2 +3\n"}, "+3"),
        (["vertex-cover", "g.txt"], {"g.txt": "0 1_0\n"}, "1_0"),
        (["gen", "--kind", "incidence", "--graph", "g.txt"], {"g.txt": "0 1\n1 ٢\n"}, "٢"),
    ],
    ids=["monomial", "monomial-sign", "monomial-arabic-indic", "weights", "contains", "dense-matrix",
         "sparse-header", "ordering-file", "edge-list", "gen-edge-list"],
)
def test_integers_in_text_are_ascii_digits(capsys, monkeypatch, tmp_path, argv, files, token):
    # text inputs read integers by the rule JSON decimal strings follow:
    # int() would read each of these tokens
    monkeypatch.chdir(tmp_path)
    Path("tc.txt").write_text("2 4\n1 1 1 1\n0 1 2 3\n")
    for name, text in files.items():
        Path(name).write_text(text)
    assert run_cli(capsys, *argv) == (2, "", f"error: expected an integer, got {token!r}\n")


def test_comma_separated_items_may_have_spaces(capsys, tc_matrix):
    nf = ["normal-form", "--matrix", tc_matrix, "--bound", "3", "--order"]
    plain = run_cli(capsys, *nf, "weights:1,1,1,1", "--monomial", "1,0,1,0")
    assert plain[0] == 0
    assert run_cli(capsys, *nf, "weights: 1, 1 ,1,1 ", "--monomial", " 1 , 0,1 ,0") == plain


# malformed input for every subcommand: each is refused with exit 1 (a
# domain error) or 2 (a usage or parse error), nothing on stdout, and one
# error line on stderr, never a traceback
MALFORMED_FILES = {
    "tc.txt": "2 4\n1 1 1 1\n0 1 2 3\n",
    "short-entry.txt": "sparse 2 2 1\n0 0\n",
    "long-entry.txt": "sparse 2 2 1\n0 0 1 5\n",
    "underscore.txt": "2 4\n1 1 1 1\n0 1 2 1_0\n",
    "empty.txt": "",
    "edge-underscore.txt": "0 1_0\n",
    "edge-three.txt": "0 1 2\n",
    "edge-negative.txt": "0 -1\n",
    "order-plus.txt": "0 1 2 +3\n",
    "order-short.txt": "0 1\n",
    "unknown-keys.json": json.dumps({**IP_TEMPLATE, "hnt": [0, 2], "lowr": [1, 1]}),
    "misspelt-upper.json": json.dumps({"A": [[1, 1]], "b": [2], "c": [1, 2], "uper": [2, 2]}),
    "no-upper.json": json.dumps({"A": [[1, 1]], "b": [2], "c": [1, 2], "hint": [0, 2]}),
    "infeasible.json": json.dumps({"A": [[1, 1]], "b": [9], "c": [1, 2], "upper": [2, 2]}),
    "fraction.json": json.dumps({"A": [[1, 1.5]], "b": [2], "c": [1, 2], "upper": [2, 2]}),
    "no-hint.json": json.dumps({"A": [[1, 1]], "b": [2], "c": [1, 2], "upper": [2, 2]}),
}
NO_TRACEBACK_CASES = [
    (["graph-stats", "--matrix", "short-entry.txt"], 2),
    (["graph-stats", "--matrix", "long-entry.txt"], 2),
    (["graph-stats", "--matrix", "missing.txt"], 2),
    (["lattice", "--matrix", "empty.txt", "count"], 2),
    (["lattice", "--matrix", "underscore.txt", "--bound", "1", "count"], 2),
    (["lattice", "--matrix", "tc.txt", "count"], 1),  # the Graver bound's table exceeds the budget
    (["lattice", "--matrix", "tc.txt", "--bound", "2", "contains", "1,,0,0"], 2),
    (["lattice", "--matrix", "tc.txt", "--bound", "2", "--ordering", "file:order-plus.txt", "count"], 2),
    (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1_0,0,+0,٣"], 2),
    (["normal-form", "--matrix", "tc.txt", "--order", "weights:1,x,1,1", "--monomial", "1,0,0,0"], 2),
    (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1,0,0,-1", "--via", "ip"], 2),
    (["normal-form", "--matrix", "tc.txt", "--order", "lex", "--monomial", "1,0,0,0", "--polynomial", "[[1]]"], 2),
    (["groebner", "--matrix", "short-entry.txt", "--order", "lex"], 2),
    (["groebner", "--matrix", "tc.txt", "--order", "weights:1,2", "--bound", "3"], 2),
    (["graver", "--matrix", "tc.txt", "--bound", "3", "--ordering", "file:order-short.txt"], 2),
    (["solve-ip", "--ip", "unknown-keys.json"], 2),
    (["solve-ip", "--ip", "misspelt-upper.json"], 2),
    (["solve-ip", "--ip", "no-upper.json"], 1),
    (["solve-ip", "--ip", "infeasible.json"], 1),
    (["solve-ip", "--ip", "fraction.json"], 2),
    (["reduce-ip", "--ip", "unknown-keys.json", "--out-prefix", "out"], 2),
    (["reduce-ip", "--ip", "no-upper.json", "--out-prefix", "out"], 1),
    (["reduce-ip", "--ip", "no-hint.json", "--out-prefix", "out"], 2),
    (["vertex-cover", "edge-underscore.txt"], 2),
    (["vertex-cover", "edge-three.txt", "--via", "normal-form"], 2),
    (["vertex-cover", "edge-negative.txt"], 2),
    (["gen", "--kind", "random", "--max-entry", "0"], 2),
    (["gen", "--kind", "random", "--max-entry", "-2"], 2),
    (["gen", "--kind", "random", "--cols", "0"], 2),
    (["gen", "--kind", "random", "--rows", "-1"], 2),
    (["gen", "--kind", "minors", "--copies", "0"], 2),
    (["gen", "--kind", "minors", "--blocks", "0"], 2),
    (["gen", "--kind", "threeway", "--l", "0"], 2),
    (["gen", "--kind", "threeway", "--n", "0"], 2),
    (["gen", "--kind", "random", "--density", "nan"], 2),
    (["gen", "--kind", "nfold", "--a1", "tc.txt", "--a2", "long-entry.txt"], 2),
    (["gen", "--kind", "incidence", "--graph", "edge-underscore.txt"], 2),
]


@pytest.mark.parametrize("argv, code", NO_TRACEBACK_CASES, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_malformed_input_gives_one_error_line(capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED_FILES.items():
        Path(name).write_text(text)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
