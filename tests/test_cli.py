import json

import pytest

from toricbases.cli import main
from toricbases.core import matrix_to_text
from toricbases.oracle import random_sparse_matrix


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


def test_normal_form_polynomial(capsys, tc_matrix):
    code, out, _ = run_cli(
        capsys, "normal-form", "--matrix", tc_matrix, "--order", "grlex",
        "--monomial", "1,0,1,0", "--bound", "3",
        "--polynomial", "[[1, [1,0,1,0]], [-1, [0,2,0,0]]]",
    )
    assert code == 0
    assert json.loads(out)["polynomial"] == []


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


def test_lattice_vector_only_with_contains(capsys, tc_matrix):
    for argv in (
        ["--bound", "2", "count", "1,2,3,4"],
        ["--degree", "2", "list", "1,-2,1,0"],
        ["--bound", "2", "contains"],
    ):
        code, out, err = run_cli(capsys, "lattice", "--matrix", tc_matrix, *argv)
        assert code == 2 and out == "" and "vector" in err
