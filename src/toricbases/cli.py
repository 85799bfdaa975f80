"""Command-line entry point wiring every subcommand with file I/O and
structured JSON output.

Exit codes: 0 on success, 1 on domain errors (infeasible program, bound
exceeded, budget exceeded), 2 on usage or parse errors.  All JSON output has
sorted keys and integers that may exceed 64 bits are emitted as decimal
strings, so repeated runs are byte-identical and consumers cannot overflow.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Sequence

from . import bases as bases_mod
from . import graphs as graphs_mod
from .core import (
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    int_from_text,
    matrix_from_text,
    matrix_to_text,
)
from .lattice import build_lattice, build_truncated_lattice, graver_infinity_bound
from .normalform import normal_form_bounded, polynomial_normal_form, reduce_by_basis
from .reductions import (
    IntegerProgram,
    ip_to_normalform,
    normalform_to_ip,
    solve_ip,
    solve_ip_via_normal_form,
    vertex_cover_ip,
)

_INT64_MAX = 2**63 - 1


def _sanitize(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _INT64_MAX else value
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    return value


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_sanitize(payload), sort_keys=True) + "\n")


def _warn_unless_certified(certified: bool) -> None:
    if not certified:
        sys.stderr.write(
            "warning: the lattice bound does not cover the Graver basis; "
            "the result is not certified\n"
        )


def _read_matrix(path: str, drop_zero_rows: bool) -> SparseIntMatrix:
    return matrix_from_text(Path(path).read_text(), drop_zero_rows=drop_zero_rows)


def _parse_vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int_from_text(part.strip()) for part in text.split(","))


def _no_fraction(text: str):
    raise ValueError(f"expected an integer, got {text}")


def _json_int(value, field: str) -> int:
    """An integer, or a string that :func:`int_from_text` reads, from JSON;
    anything else, a boolean too, is a ValueError that names the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int_from_text(value)
        except ValueError:
            pass
    raise ValueError(f"{field} must be an integer, got {json.dumps(value)}")


def _json_ints(value, field: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list of integers, got {json.dumps(value)}")
    return tuple(_json_int(x, f"{field} entry") for x in value)


def _parse_order(spec: str, n: int) -> MonomialOrder:
    if spec == "lex":
        return MonomialOrder.lex(n)
    if spec == "grlex":
        return MonomialOrder.grlex(n)
    if spec.startswith("weights:"):
        weights = _parse_vector(spec[len("weights:") :])
        if len(weights) != n:
            raise ValueError(f"order needs {n} weights, got {len(weights)}")
        return MonomialOrder(weights)
    raise ValueError(f"unknown order {spec!r}; use lex, grlex or weights:<csv>")


def _eliminations(graph: graphs_mod.Graph) -> dict[str, graphs_mod.EliminationStructure]:
    """Each strategy's elimination of the graph along its ordering, min-fill first."""
    return {
        strategy: graphs_mod.eliminate(graph, graphs_mod.heuristic_ordering(graph, strategy))
        for strategy in (graphs_mod.MIN_FILL, graphs_mod.MIN_DEGREE)
    }


def _auto_strategy(eliminations: dict[str, graphs_mod.EliminationStructure]) -> str:
    """The strategy ``--ordering auto`` uses: the one of smaller width,
    min-fill on a tie."""
    return min(eliminations, key=lambda strategy: eliminations[strategy].clique_number)


def _resolve_cli_ordering(spec: str | None, A: SparseIntMatrix) -> tuple[int, ...]:
    if spec in (None, "auto"):
        eliminations = _eliminations(graphs_mod.column_graph(A))
        return eliminations[_auto_strategy(eliminations)].ordering
    if spec in (graphs_mod.MIN_FILL, graphs_mod.MIN_DEGREE):
        return graphs_mod.heuristic_ordering(graphs_mod.column_graph(A), spec)
    if spec.startswith("file:"):
        text = Path(spec[len("file:") :]).read_text()
        return tuple(map(int_from_text, text.split()))
    raise ValueError(f"unknown ordering {spec!r}")


def _build_from_args(args, A: SparseIntMatrix):
    """The lattice that the lattice options ask for: a degree lattice for
    ``--degree``, else a box lattice whose bound defaults to the Graver bound."""
    ordering = _resolve_cli_ordering(args.ordering, A)
    if args.degree is not None:
        return build_truncated_lattice(A, args.degree, ordering)
    return build_lattice(A, graver_infinity_bound(A) if args.bound is None else args.bound, ordering)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_graph_stats(args) -> int:
    A = _read_matrix(args.matrix, args.drop_zero_rows)
    payload: dict = {"columns": A.num_cols, "rows": A.num_rows}
    for name, graph in (
        ("column_graph", graphs_mod.column_graph(A)),
        ("row_graph", graphs_mod.row_graph(A)),
    ):
        stats: dict = {"vertices": graph.num_vertices, "edges": graph.num_edges()}
        eliminations = _eliminations(graph)
        # the estimates of graphs.treewidth_estimate and treedepth_estimate
        stats["strategies"] = {
            strategy: {"treewidth": elim.clique_number - 1, "treedepth": elim.height}
            for strategy, elim in eliminations.items()
        }
        payload[name] = stats
        if name == "column_graph":
            payload["lattice_strategy"] = _auto_strategy(eliminations)
    _emit(payload)
    return 0


def _cmd_lattice(args) -> int:
    if args.action == "contains" and args.vector is None:
        raise ValueError("contains needs a vector argument")
    if args.action != "contains" and args.vector is not None:
        raise ValueError(f"{args.action} takes no vector argument")
    vector = None if args.vector is None else _parse_vector(args.vector)  # before the build
    A = _read_matrix(args.matrix, args.drop_zero_rows)
    if vector is not None and len(vector) != A.num_cols:
        raise ValueError(f"contains needs a vector of length {A.num_cols}, got {len(vector)}")
    lattice = _build_from_args(args, A)
    payload = {
        "kind": lattice.kind,
        "bound": lattice.bound,
        "clique_number": lattice.realized_clique_number,
        "stored_rows": lattice.total_rows(),
    }
    if args.action == "count":
        payload["count"] = lattice.count()
    elif args.action == "list":
        payload["elements"] = [list(v) for v in lattice.iterate()]
    else:  # contains
        payload["vector"] = list(vector)
        payload["contains"] = lattice.contains(vector)
    _emit(payload)
    return 0


def _cmd_normal_form(args) -> int:
    A = _read_matrix(args.matrix, args.drop_zero_rows)
    order = _parse_order(args.order, A.num_cols)
    monomial = _parse_vector(args.monomial)
    terms = None
    if args.polynomial:
        polynomial = json.loads(args.polynomial, parse_float=_no_fraction)
        if not isinstance(polynomial, list) or any(
            not isinstance(term, list) or len(term) != 2 for term in polynomial
        ):
            raise ValueError("--polynomial must be a list of [coefficient, exponent] pairs")
        terms = [
            (_json_int(c, "--polynomial coefficient"), _json_ints(e, "--polynomial exponent"))
            for c, e in polynomial
        ]
    exponents = [("--monomial", monomial)] + [("--polynomial exponent", e) for _, e in terms or ()]
    for name, exponent in exponents:  # before any build
        if len(exponent) != A.num_cols:
            raise ValueError(f"{name} needs length {A.num_cols}, got {len(exponent)}")
    if terms is not None and args.via != "lattice":
        # the polynomial is reduced over a lattice, so only that route reads it
        raise ValueError(f"--polynomial needs --via lattice, not --via {args.via}")
    if args.via == "ip":
        # no lattice is built, so its options are refused, not ignored
        for name in ("bound", "degree", "ordering"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} needs --via lattice or gb, not --via ip")
        nf, certified = solve_ip(normalform_to_ip(A, order, monomial)), True
    else:
        lattice = _build_from_args(args, A)
        certified = lattice.certified
        if args.via == "lattice":
            nf = normal_form_bounded(A, lattice, order, monomial).normal_exponent
        else:
            if lattice.kind == "degree":  # a truncated basis divides exactly only within its degree
                lattice.check_bound(monomial)
            basis = bases_mod.reduced_groebner_basis(A, lattice, order).elements
            nf = reduce_by_basis(basis, order, monomial)
    payload = {"input": list(monomial), "via": args.via}
    payload.update(normal_form=list(nf), standard=nf == monomial, certified=certified)
    if terms is not None:
        reduced = polynomial_normal_form(A, lattice, order, terms)
        payload["polynomial"] = [[c, list(e)] for c, e in reduced]
    _warn_unless_certified(certified)
    _emit(payload)
    return 0


def _csv(v) -> str:
    return ",".join(map(str, v))


def _emit_report(args, report, element_json, element_text) -> None:
    """Write a basis report: one line per element in text format, else the
    JSON payload."""
    _warn_unless_certified(report.certified)
    if args.format == "text":
        for e in report.elements:
            sys.stdout.write(element_text(e) + "\n")
        return
    _emit(
        {
            "kind": report.kind,
            "bound": report.bound_used,
            "certified": report.certified,
            "count": len(report.elements),
            "scanned": report.scanned,
            "elements": [element_json(e) for e in report.elements],
        }
    )


def _cmd_groebner(args) -> int:
    A = _read_matrix(args.matrix, args.drop_zero_rows)
    order = _parse_order(args.order, A.num_cols)
    report = bases_mod.reduced_groebner_basis(A, _build_from_args(args, A), order)
    _emit_report(
        args,
        report,
        lambda b: {"head": list(b.head), "tail": list(b.tail)},
        lambda b: _csv(b.head) + " - " + _csv(b.tail),
    )
    return 0


def _cmd_graver(args) -> int:
    A = _read_matrix(args.matrix, args.drop_zero_rows)
    _emit_report(args, bases_mod.graver_basis(A, _build_from_args(args, A)), list, _csv)
    return 0


_IP_KEYS = ("A", "b", "c", "lower", "upper", "hint")


def _load_ip(path: str) -> IntegerProgram:
    data = json.loads(Path(path).read_text(), parse_float=_no_fraction)
    if not isinstance(data, dict):
        raise ValueError("an integer program must be a JSON object")
    unknown = [key for key in data if key not in _IP_KEYS]
    if unknown:
        # a misspelt key would otherwise drop its bound or hint unseen
        raise ValueError(f"unknown program keys {', '.join(map(json.dumps, unknown))}; "
                         f"a program takes {', '.join(_IP_KEYS)}")
    rows = data.get("A")
    if not isinstance(rows, list):
        raise ValueError(f"A must be a list of rows, got {json.dumps(rows)}")
    matrix = SparseIntMatrix.from_dense([_json_ints(row, "A row") for row in rows])

    def vec(key):
        return None if data.get(key) is None else _json_ints(data[key], key)

    return IntegerProgram(
        matrix=matrix,
        rhs=_json_ints(data.get("b"), "b"),
        objective=_json_ints(data.get("c"), "c"),
        lower=vec("lower"),
        upper=vec("upper"),
        feasible_hint=vec("hint"),
    )


def _cmd_solve_ip(args) -> int:
    program = _load_ip(args.ip)
    solution = solve_ip(program)
    objective = sum(c * x for c, x in zip(program.objective, solution))
    _emit({"status": "optimal", "solution": list(solution), "objective": objective})
    return 0


def _cmd_reduce_ip(args) -> int:
    program = _load_ip(args.ip)
    reduction = ip_to_normalform(program, graded=args.graded)
    prefix = Path(args.out_prefix)
    matrix_path = prefix.with_name(prefix.name + "_matrix.txt")
    rhs_path = prefix.with_name(prefix.name + "_rhs.txt")
    start_path = prefix.with_name(prefix.name + "_start.txt")
    matrix_path.write_text(matrix_to_text(reduction.matrix))
    rhs_path.write_text(" ".join(map(str, reduction.rhs)) + "\n")
    start_path.write_text(" ".join(map(str, reduction.start_exponent)) + "\n")
    _emit(
        {
            "matrix_file": str(matrix_path),
            "rhs_file": str(rhs_path),
            "start_file": str(start_path),
            "order": "grlex" if args.graded else "lex",
            "variables": reduction.matrix.num_cols,
        }
    )
    return 0


def _cmd_vertex_cover(args) -> int:
    graph = graphs_mod.edge_list_from_text(Path(args.graph).read_text())
    program = vertex_cover_ip(graph)
    if args.via == "normal-form":
        solution, objective = solve_ip_via_normal_form(program)
    else:
        solution = solve_ip(program)
        objective = sum(c * x for c, x in zip(program.objective, solution))
    cover = [v for v in range(graph.num_vertices) if solution[v] == 1]
    _emit({"cover": cover, "cover_size": objective})
    return 0


# the options of each kind of ``gen`` and their defaults; ``--out`` is common
_GEN_OPTIONS = {
    "minors": {"blocks": 2, "copies": 2},
    "threeway": {"l": 2, "m": 2, "n": 2},
    "nfold": {"a1": None, "a2": None, "copies": 2},
    "incidence": {"graph": None},
    "random": {"rows": 3, "cols": 6, "max_entry": 2, "density": 0.5, "seed": 0},
}


def _cmd_gen(args) -> int:
    from . import oracle as oracle_mod  # imported here: it loads numpy

    options = _GEN_OPTIONS[args.kind]
    names = dict.fromkeys(name for kind in _GEN_OPTIONS.values() for name in kind)
    foreign = [name for name in names if name not in options and getattr(args, name) is not None]
    if foreign:
        given = ", ".join("--" + name.replace("_", "-") for name in foreign)
        raise ValueError(f"--kind {args.kind} does not take {given}")
    for name, default in options.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.kind == "minors":
        matrix = oracle_mod.two_by_two_minors_matrix(args.blocks, args.copies)
    elif args.kind == "threeway":
        matrix = oracle_mod.threeway_table_matrix(args.l, args.m, args.n)
    elif args.kind == "nfold":
        if not (args.a1 and args.a2):
            raise ValueError("nfold needs --a1 and --a2 block matrix files")
        a1 = _read_matrix(args.a1, False)
        a2 = _read_matrix(args.a2, False)
        matrix = oracle_mod.nfold_product(a1, a2, args.copies)
    elif args.kind == "incidence":
        if not args.graph:
            raise ValueError("incidence needs --graph with an edge list file")
        graph = graphs_mod.edge_list_from_text(Path(args.graph).read_text())
        matrix = oracle_mod.incidence_matrix(graph)
    else:  # random: argparse accepts only the five kinds
        matrix = oracle_mod.random_sparse_matrix(
            args.rows, args.cols, args.max_entry, args.density, args.seed
        )
    text = matrix_to_text(matrix)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_matrix_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True, help="matrix file (dense or sparse text)")
    p.add_argument(
        "--drop-zero-rows",
        action="store_true",
        help="drop all-zero rows instead of rejecting them",
    )


def _add_lattice_args(p: argparse.ArgumentParser, degree_flag: str = "--degree") -> None:
    bound = p.add_mutually_exclusive_group()
    bound.add_argument("--bound", type=int, default=None, help="box bound on entries")
    bound.add_argument(degree_flag, dest="degree", type=int, default=None, help="degree truncation bound")
    p.add_argument(
        "--ordering",
        default=None,
        help="column ordering: auto | min-fill | min-degree | file:<path>",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricbases",
        description="Toric ideal computations driven by the matrix's graph structure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph-stats", help="column/row graph statistics")
    _add_matrix_arg(p)
    p.set_defaults(func=_cmd_graph_stats)

    p = sub.add_parser("lattice", help="build and query a kernel lattice")
    _add_matrix_arg(p)
    _add_lattice_args(p)
    p.add_argument("action", choices=["count", "list", "contains"])
    p.add_argument("vector", nargs="?", default=None, help="comma-separated integers")
    # read a vector such as -2,1 as a value, the way argparse reads -2
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("normal-form", help="normal form of a monomial")
    _add_matrix_arg(p)
    _add_lattice_args(p)
    p.add_argument("--order", required=True, help="lex | grlex | weights:<csv>")
    p.add_argument("--monomial", required=True, help="comma-separated exponents")
    p.add_argument("--via", choices=["lattice", "gb", "ip"], default="lattice")
    p.add_argument(
        "--polynomial",
        default=None,
        help='optional JSON [[coef, [exponents]], ...] reduced termwise',
    )
    p.set_defaults(func=_cmd_normal_form)

    p = sub.add_parser("groebner", help="reduced Groebner basis")
    _add_matrix_arg(p)
    _add_lattice_args(p, "--truncate")
    p.add_argument("--order", required=True)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_groebner)

    p = sub.add_parser("graver", help="Graver basis")
    _add_matrix_arg(p)
    _add_lattice_args(p, "--truncate")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_graver)

    p = sub.add_parser("solve-ip", help="solve an integer program exactly")
    p.add_argument("--ip", required=True, help="JSON file {A, b, c, lower, upper, hint}")
    p.set_defaults(func=_cmd_solve_ip)

    p = sub.add_parser("reduce-ip", help="embed an IP as a normal-form instance")
    p.add_argument("--ip", required=True)
    p.add_argument("--graded", action="store_true", help="use the graded order")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_reduce_ip)

    p = sub.add_parser("vertex-cover", help="minimum vertex cover of a graph")
    p.add_argument("graph", help="edge list file, one 'u v' pair per line")
    p.add_argument("--via", choices=["ip", "normal-form"], default="ip")
    p.set_defaults(func=_cmd_vertex_cover)

    p = sub.add_parser("gen", help="generate instance matrices")
    p.add_argument("--kind", required=True, choices=["nfold", "minors", "threeway", "incidence", "random"])
    # each kind reads only its own options (see _GEN_OPTIONS for the defaults)
    p.add_argument("--blocks", type=int, help="identity size for minors")
    p.add_argument("--copies", type=int, help="fold count for minors and nfold")
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--a1", help="top block matrix file")
    p.add_argument("--a2", help="diagonal block matrix file")
    p.add_argument("--graph", help="edge list file")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--max-entry", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ToricError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
