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
        code, out, _ = run_cli(
            capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
            "--monomial", "1,1,0,2", "--bound", "3", "--via", via,
        )
        assert code == 0
        outputs.append(json.loads(out)["normal_form"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_normal_form_ip_route_checks_the_lattice_options(capsys, tc_matrix, tmp_path):
    # the IP route builds no lattice, yet refuses what a build refuses
    short = tmp_path / "short.txt"
    short.write_text("0 1 2")
    common = ("normal-form", "--matrix", tc_matrix, "--order", "grlex", "--monomial", "1,1,0,2")
    for extra, message in (
        (("--ordering", "nonsense"), "unknown ordering 'nonsense'"),
        (("--ordering", f"file:{short}"), "ordering must be a permutation of the columns"),
        (("--bound", "-1"), "bound must be nonnegative"),
        (("--degree", "-1"), "degree bound must be nonnegative"),
    ):
        for via in ("lattice", "ip"):
            code, out, err = run_cli(capsys, *common, *extra, "--via", via)
            assert (code, out) == (2, ""), (extra, via)
            assert err == f"error: {message}\n", (extra, via)
    forms = []
    for via in ("lattice", "ip"):
        code, out, _ = run_cli(capsys, *common, "--ordering", "min-degree", "--degree", "4", "--via", via)
        assert code == 0
        forms.append(json.loads(out)["normal_form"])
    assert forms[0] == forms[1] == [0, 1, 3, 0]


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
        code, out, err = run_cli(capsys, *argv, "--monomial", "1,0,0,1", "--via", via)
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
            '{"bound": 2, "clique_number": 6, "elements": [[0, 0, 0, 0], [-1, 1, 1, -1], [0, -1,'
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
