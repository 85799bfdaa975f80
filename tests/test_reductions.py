import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbases import (
    DimensionMismatch,
    InfeasibleError,
    IntegerProgram,
    MonomialOrder,
    NoBoxError,
    SparseIntMatrix,
    build_lattice,
    graver_infinity_bound,
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
from toricbases.oracle import (
    normal_form_bruteforce,
    random_sparse_matrix,
    threeway_table_matrix,
    two_by_two_minors_matrix,
)
from toricbases.reductions import _in_row_space

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


def test_integer_program_stores_its_default_lower_bounds():
    # one representation: an omitted lower bound is stored as zeros
    A = SparseIntMatrix.from_dense([[1, 1, 1]])
    ip = IntegerProgram(A, (2,), (1, 2, 0), upper=(2, 2, 2), feasible_hint=(0, 0, 2))
    assert ip.lower == (0, 0, 0)
    assert ip == IntegerProgram(A, (2,), (1, 2, 0), lower=[0, 0, 0], upper=(2, 2, 2), feasible_hint=(0, 0, 2))
    assert solve_ip(ip) == (0, 0, 2)
    ip_to_normalform(ip)  # all-zero lower bounds, as the reduction requires


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


# ---------------------------------------------------------------------------
# the row-space test and the lex program it selects


def dense_matrix(rows, n):
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return SparseIntMatrix(len(rows), n, entries)


def fraction_rank(rows) -> int:
    # Gaussian elimination over the rationals, independent of the library's
    # fraction-free integer elimination
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def row_space_cases(draw):
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, max_size=4))
    # shapes the elimination must survive: a zero row, a redundant row and a
    # zero column; entries up to 3 make pivots other than 1
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n)
    if rows and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        r, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(r, q)])
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    kind = draw(st.sampled_from(["integer y", "rational y", "yA + e_j", "any"]))
    if kind == "any":
        w = draw(row)
    else:
        denominator = draw(st.integers(2, 3)) if kind == "rational y" else 1
        y = [Fraction(draw(st.integers(-3, 3)), denominator) for _ in rows]
        w = [sum((c * r[j] for c, r in zip(y, rows)), Fraction(0)) for j in range(n)]
        scale = math.lcm(*(x.denominator for x in w))  # y scaled by it is still rational
        w = [int(x * scale) for x in w]
        if kind == "yA + e_j":
            w[draw(st.integers(0, n - 1))] += 1
    return rows, n, kind, tuple(w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_space_cases())
def test_row_space_test_matches_fraction_rank(case):
    rows, n, kind, w = case
    want = fraction_rank(rows + [list(w)]) == fraction_rank(rows)
    assert _in_row_space(dense_matrix(rows, n), w) is want
    if kind in ("integer y", "rational y"):
        assert want


def test_row_space_test_named_cases(twisted_cubic):
    # every grlex weight vector of a homogeneous matrix reads as in the row
    # space; one weight more on the last column does not
    for A in (two_by_two_minors_matrix(3, 4), threeway_table_matrix(3, 3, 2), twisted_cubic):
        n = A.num_cols
        assert _in_row_space(A, (1,) * n)
        assert _in_row_space(A, (0,) * n)
        assert not _in_row_space(A, (1,) * (n - 1) + (2,))
    assert _in_row_space(twisted_cubic, (0, 1, 2, 3))  # the last row alone
    assert _in_row_space(twisted_cubic, (2, 3, 4, 5))
    assert not _in_row_space(twisted_cubic, (1, 0, 0, 0))
    assert _in_row_space(SparseIntMatrix(0, 2, []), (0, 0))
    assert not _in_row_space(SparseIntMatrix(0, 2, []), (0, 1))


def full_weight_program(A, order, u) -> IntegerProgram:
    """The program with the whole weight vector r^n.w + p as its objective,
    built here as normalform_to_ip builds it when w is outside the row space."""
    n = A.num_cols
    c = weight_vector(order.weights, graver_infinity_bound(A) + 1, n)
    budget = sum(cj * xj for cj, xj in zip(c, u))
    return IntegerProgram(A, A.apply(u), c, (0,) * n, tuple(budget // cj for cj in c), u)


def test_normalform_to_ip_keeps_weights_outside_the_row_space(twisted_cubic):
    # the program is the full-weight one, field for field; the 3x5 matrix is
    # one where the remainder D.w - yA = (0, 0, 0, -2, 0) is negative, so a
    # program built from that remainder would change here
    A = SparseIntMatrix.from_dense([[1, -2, 2, -2, -3], [-3, 1, -1, 3, 3], [1, 0, -3, 0, 3]])
    cases = [(A, MonomialOrder((0, 2, 0, 0, 0)), (1, 1, 0, 2, 1))]
    cases.append((twisted_cubic, MonomialOrder((1, 0, 0, 0)), (1, 0, 1, 2)))
    k34 = two_by_two_minors_matrix(3, 4)
    rng = random.Random(331)
    while len(cases) < 12:
        order = MonomialOrder(tuple(rng.randint(0, 5) for _ in range(12)))
        if fraction_rank(k34.to_dense() + [list(order.weights)]) > fraction_rank(k34.to_dense()):
            cases.append((k34, order, tuple(rng.randint(0, 2) for _ in range(12))))
    for A, order, u in cases:
        assert not _in_row_space(A, order.weights)
        ip = normalform_to_ip(A, order, u)
        assert ip == full_weight_program(A, order, u)
        assert ip.objective == weight_vector(order.weights, graver_infinity_bound(A) + 1, A.num_cols)


def lex_program_cases():
    # the last entry is the oracle's bound, or None where one oracle call
    # costs too much: K_{3,4} is totally unimodular, so its Graver elements
    # are circuits with entries in {-1, 0, 1} and g=1 is exact, but each call
    # enumerates 3^12 vectors, so two of the 40 programs are checked; on a
    # matrix with an all-ones row no fiber point leaves [0, deg u], so
    # g = deg u is exact
    rng = random.Random(337)
    k34 = two_by_two_minors_matrix(3, 4)
    for k in range(40):
        order = MonomialOrder.grlex(12) if k % 2 else MonomialOrder.lex(12)
        yield k34, order, tuple(rng.randint(0, 2) for _ in range(12)), 1 if k < 2 else None
    for _ in range(16):
        m, n = rng.randint(1, 2), rng.randint(3, 5)
        rows = random_sparse_matrix(m, n, 3, 0.7, rng.randrange(2**30)).to_dense()
        A = SparseIntMatrix.from_dense(rows + [[1] * n])
        weights = (rng.choice([1, 2]),) * n
        u = tuple(rng.randint(0, 1) for _ in range(n))
        for order in (MonomialOrder(weights), MonomialOrder.lex(n)):
            yield A, order, u, sum(u)


def test_normalform_to_ip_solves_row_space_weights_as_lex():
    # weights in the row space give the lex objective over the full-weight
    # program's box, and the same optimum as that program and the oracle
    for A, order, u, g in lex_program_cases():
        n = A.num_cols
        ip, full = normalform_to_ip(A, order, u), full_weight_program(A, order, u)
        assert ip.objective == weight_vector((0,) * n, graver_infinity_bound(A) + 1, n)
        assert (ip.matrix, ip.rhs, ip.lower, ip.upper, ip.feasible_hint) == (
            full.matrix, full.rhs, full.lower, full.upper, full.feasible_hint
        )
        z = solve_ip(ip)
        assert z == solve_ip(full), (A, order, u)
        if g is not None:
            assert z == normal_form_bruteforce(A, order.weights, u, g), (A, order, u)
