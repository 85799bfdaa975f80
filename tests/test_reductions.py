import itertools
import random

import pytest

from toricbases import (
    DimensionMismatch,
    InfeasibleError,
    IntegerProgram,
    MonomialOrder,
    NoBoxError,
    SparseIntMatrix,
    build_lattice,
    ip_to_normalform,
    normal_form_bounded,
    normalform_to_ip,
    solve_ip,
    solve_ip_via_normal_form,
    vertex_cover_ip,
    weight_vector,
)
from toricbases.core import negative_part
from toricbases.graphs import complete_graph, cycle_graph
from toricbases.oracle import random_sparse_matrix

from graph_helpers import petersen_graph, star_graph


def brute_force_optimum(ip: IntegerProgram):
    lo = ip.lower if ip.lower is not None else (0,) * ip.matrix.num_cols
    assert ip.upper is not None
    best = None
    for z in itertools.product(*(range(l, u + 1) for l, u in zip(lo, ip.upper))):
        if ip.matrix.apply(z) != ip.rhs:
            continue
        obj = sum(c * x for c, x in zip(ip.objective, z))
        if best is None or (obj, z) < best:
            best = (obj, z)
    return best


def test_weight_vector_examples():
    assert weight_vector((1, 1), 3, 2) == (12, 10)
    assert weight_vector((0, 0, 0), 2, 3) == (4, 2, 1)
    with pytest.raises(ValueError):
        weight_vector((1,), 0, 1)


def test_weight_vector_orders_pairs():
    order = MonomialOrder((1, 1))
    c = weight_vector(order.weights, 3, 2)
    u, v = (0, 1), (1, 0)
    assert order.compare(u, v) == -1
    assert sum(a * b for a, b in zip(c, u)) < sum(a * b for a, b in zip(c, v))


def test_weight_vector_agrees_with_compare_within_radius():
    rng = random.Random(301)
    for _ in range(500):
        n = rng.randint(1, 5)
        r = rng.randint(2, 5)
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        c = weight_vector(order.weights, r, n)
        u = tuple(rng.randint(0, r - 1) for _ in range(n))
        shift = tuple(rng.randint(-(r - 1), r - 1) for _ in range(n))
        v = tuple(max(0, a + s) for a, s in zip(u, shift))
        if max(abs(a - b) for a, b in zip(u, v)) > r - 1:
            continue
        cu = sum(a * b for a, b in zip(c, u))
        cv = sum(a * b for a, b in zip(c, v))
        assert order.compare(u, v) == (cu > cv) - (cu < cv)


def test_solve_ip_simple():
    A = SparseIntMatrix.from_dense([[1, 1]])
    ip = IntegerProgram(A, (3,), (1, 1), lower=(0, 0), upper=(3, 3))
    assert solve_ip(ip) == (0, 3)  # objective ties broken lexicographically


def test_solve_ip_infeasible():
    A = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(InfeasibleError):
        solve_ip(IntegerProgram(A, (-1,), (1,), lower=(0,), upper=(5,)))


def test_solve_ip_requires_upper_bounds():
    A = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(NoBoxError):
        solve_ip(IntegerProgram(A, (1,), (1,)))


def test_hint_validation():
    A = SparseIntMatrix.from_dense([[1, 1]])
    with pytest.raises(ValueError):
        IntegerProgram(A, (3,), (1, 1), upper=(3, 3), feasible_hint=(1, 1))


ROW = SparseIntMatrix.from_dense([[1, 1]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IntegerProgram(ROW, (2, 2), (1, 1)), DimensionMismatch, "rhs length 2, expected 1"),
        (lambda: IntegerProgram(ROW, (2,), (1,)), DimensionMismatch, "objective length 1, expected 2"),
        (lambda: IntegerProgram(ROW, (2,), (1, 1), lower=(0,)), DimensionMismatch, "lower length 1, expected 2"),
        (lambda: IntegerProgram(ROW, (2,), (1, 1), upper=(3,)), DimensionMismatch, "upper length 1, expected 2"),
        (lambda: IntegerProgram(ROW, (2,), (1, 1), feasible_hint=(2,)),
         DimensionMismatch, "feasible_hint length 1, expected 2"),
        (lambda: IntegerProgram(ROW, (2,), (1, 1), feasible_hint=(-1, 3)),
         ValueError, "feasible hint violates a lower bound"),
        (lambda: IntegerProgram(ROW, (2,), (1, 1), upper=(1, 1), feasible_hint=(2, 0)),
         ValueError, "feasible hint violates an upper bound"),
        (lambda: solve_ip(IntegerProgram(ROW, (2,), (1, 1), lower=(2, 0), upper=(1, 3))),
         InfeasibleError, "empty box"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(2), (1, -1)),
         ValueError, "monomial exponents must be nonnegative"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(2), (1, 0, 0)),
         DimensionMismatch, "dimension mismatch between matrix, order and monomial"),
        (lambda: ip_to_normalform(IntegerProgram(ROW, (2,), (1, 1), upper=(2, 2), feasible_hint=(1, 1)))
         .extract_solution((0,)), DimensionMismatch, "expected length 5, got 1"),
    ],
    ids=["rhs", "objective", "lower", "upper", "hint-length", "hint-below", "hint-above", "empty-box",
         "nf-negative", "nf-length", "extract-length"],
)
def test_reductions_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_solve_ip_matches_enumeration_random():
    # mixed-sign rows and costs over boxes that may reach below zero; every
    # third draw seeds the incumbent with a hint, so the objective cut binds
    # from the root, and every third shifts the right-hand side, which often
    # leaves no solution
    rng = random.Random(307)
    infeasible = 0
    for k in range(240):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = random_sparse_matrix(m, n, 3, 0.6, rng.randrange(2**30))
        lower = tuple(rng.randint(-3, 0) for _ in range(n)) if k % 2 else (0,) * n
        upper = tuple(l + 4 for l in lower)
        z0 = tuple(rng.randint(l, l + 3) for l in lower)
        rhs = A.apply(z0)
        if k % 3 == 2:
            rhs = tuple(x + rng.randint(-2, 2) for x in rhs)
        ip = IntegerProgram(
            A,
            rhs,
            tuple(rng.randint(-4, 4) for _ in range(n)),
            lower=lower,
            upper=upper,
            feasible_hint=z0 if k % 3 == 1 else None,
        )
        expected = brute_force_optimum(ip)
        if expected is None:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                solve_ip(ip)
            continue
        got = solve_ip(ip)
        obj = sum(c * x for c, x in zip(ip.objective, got))
        assert (obj, got) == expected
    assert infeasible > 0


def test_solve_ip_deep_branching_without_recursion():
    # one row x_0 + ... + x_{n-1} = 1 over 0/1 variables with costs n - j:
    # the first dive fixes x_0 = ... = x_{n-2} = 0 one level at a time, and
    # propagation then forces x_{n-1} = 1; a recursive search needs one
    # frame per level and hits the interpreter's limit here
    n = 2001
    A = SparseIntMatrix(1, n, [(0, j, 1) for j in range(n)])
    ip = IntegerProgram(A, (1,), tuple(n - j for j in range(n)), lower=(0,) * n, upper=(1,) * n)
    assert solve_ip(ip) == (0,) * (n - 1) + (1,)


def test_normalform_to_ip_round_trip():
    A = SparseIntMatrix.from_dense([[1, 1]])
    lex = MonomialOrder.lex(2)
    ip = normalform_to_ip(A, lex, (1, 0))
    assert solve_ip(ip) == (0, 1)
    # a standard monomial is its own optimum
    ip2 = normalform_to_ip(A, lex, (0, 2))
    assert solve_ip(ip2) == (0, 2)


def test_normalform_to_ip_agrees_with_lattice_route(twisted_cubic):
    order = MonomialOrder.grlex(4)
    L = build_lattice(twisted_cubic, 3)
    rng = random.Random(311)
    for _ in range(15):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        via_lattice = normal_form_bounded(twisted_cubic, L, order, u).normal_exponent
        via_ip = solve_ip(normalform_to_ip(twisted_cubic, order, u))
        assert via_ip == via_lattice, u


def test_vertex_cover_instances():
    for graph, expected in (
        (star_graph(2), 1),  # a single edge
        (complete_graph(3), 2),
        (complete_graph(4), 3),
        (cycle_graph(5), 3),
        (petersen_graph(), 6),
    ):
        ip = vertex_cover_ip(graph)
        solution = solve_ip(ip)
        assert sum(c * x for c, x in zip(ip.objective, solution)) == expected
        # the selected vertices really cover every edge
        cover = {v for v in range(graph.num_vertices) if solution[v]}
        for a, b in graph.edges:
            assert a in cover or b in cover


def test_ip_to_normalform_shape():
    graph = complete_graph(3)
    ip = vertex_cover_ip(graph)
    reduction = ip_to_normalform(ip)
    n = ip.matrix.num_cols
    assert reduction.matrix.num_cols == 2 * n + 1
    assert reduction.matrix.num_rows == 1 + ip.matrix.num_rows + n
    assert reduction.matrix.apply(reduction.start_exponent) == reduction.rhs
    assert reduction.order.weights == (0,) * (2 * n + 1)


def test_extract_solution_rejects_tampered_exponent():
    ip = vertex_cover_ip(complete_graph(3))
    reduction = ip_to_normalform(ip)
    start = reduction.start_exponent
    # the start exponent encodes the feasible hint
    assert reduction.extract_solution(start) == (ip.feasible_hint, 3)
    tampered = (start[0] + 1,) + start[1:]
    with pytest.raises(ValueError, match="tracker"):
        reduction.extract_solution(tampered)


def test_ip_to_normalform_requires_bounds_and_hint():
    A = SparseIntMatrix.from_dense([[1, 1]])
    with pytest.raises(NoBoxError):
        ip_to_normalform(IntegerProgram(A, (1,), (1, 0)))
    with pytest.raises(ValueError):
        ip_to_normalform(IntegerProgram(A, (1,), (1, 0), upper=(1, 1)))
    with pytest.raises(ValueError):
        ip_to_normalform(
            IntegerProgram(
                A, (2,), (1, 0), lower=(1, 0), upper=(2, 2), feasible_hint=(1, 1)
            )
        )


def test_vertex_cover_via_normal_form():
    for graph, expected in (
        (complete_graph(3), 2),
        (cycle_graph(5), 3),
        (complete_graph(4), 3),
    ):
        ip = vertex_cover_ip(graph)
        z, objective = solve_ip_via_normal_form(ip)
        assert objective == expected
        direct = solve_ip(ip)
        assert sum(c * x for c, x in zip(ip.objective, direct)) == objective
        cover = {v for v in range(graph.num_vertices) if z[v]}
        for a, b in graph.edges:
            assert a in cover or b in cover


def test_extraction_identity_tracker():
    # the tracker coordinate equals the negative-part shift plus the objective
    graph = cycle_graph(5)
    ip = vertex_cover_ip(graph)
    reduction = ip_to_normalform(ip)
    z, objective = solve_ip_via_normal_form(ip)
    c_neg = negative_part(ip.objective)
    shift = sum(a * t for a, t in zip(c_neg, reduction.source_upper))
    # recompute the normal form to inspect the tracker directly
    lattice_bound = max(
        [sum(abs(c) * t for c, t in zip(ip.objective, ip.upper)), 1, *ip.upper]
    )
    L = build_lattice(reduction.matrix, lattice_bound)
    nf = normal_form_bounded(
        reduction.matrix, L, reduction.order, reduction.start_exponent
    ).normal_exponent
    assert nf[0] == shift + objective


def test_vertex_cover_via_graded_normal_form():
    # the embedding also works under the graded order: total degree is fixed
    # along the fiber, so degree-first minimisation reduces to the tracker
    ip = vertex_cover_ip(complete_graph(3))
    z, objective = solve_ip_via_normal_form(ip, graded=True)
    assert objective == 2
    reduction = ip_to_normalform(ip, graded=True)
    assert reduction.order.weights == (1,) * reduction.matrix.num_cols


def test_round_trip_with_negative_costs():
    rng = random.Random(313)
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        A = random_sparse_matrix(m, n, 2, 0.7, rng.randrange(2**30))
        z0 = tuple(rng.randint(0, 2) for _ in range(n))
        ip = IntegerProgram(
            A,
            A.apply(z0),
            tuple(rng.randint(-3, 3) for _ in range(n)),
            lower=(0,) * n,
            upper=(2,) * n,
            feasible_hint=z0,
        )
        direct = solve_ip(ip)
        direct_obj = sum(c * x for c, x in zip(ip.objective, direct))
        _, via_nf_obj = solve_ip_via_normal_form(ip)
        assert via_nf_obj == direct_obj
