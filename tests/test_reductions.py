import functools
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
from toricbases.core import in_row_space, negative_part
from toricbases.graphs import cycle_graph
from toricbases.oracle import (
    normal_form_bruteforce,
    random_sparse_matrix,
    threeway_table_matrix,
    two_by_two_minors_matrix,
)

from graph_helpers import complete_graph, petersen_graph, star_graph
from row_space_reference import dense_in_row_space


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
        (lambda: IntegerProgram(ROW, (2,), (1, 1), feasible_hint=(1, 1)),
         NoBoxError, "finite upper bounds are required; none were supplied"),
        (lambda: solve_ip(IntegerProgram(ROW, (2,), (1, 1), lower=(2, 0), upper=(1, 3))),
         InfeasibleError, "empty box"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(2), (1, -1)),
         ValueError, "monomial exponents must be nonnegative"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(2), (1, 0, 0)),
         DimensionMismatch, "expected length 2, got 3"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(2), (1, 0, -1)),
         DimensionMismatch, "expected length 2, got 3"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(3), (1, -1)),
         ValueError, "monomial exponents must be nonnegative"),
        (lambda: normalform_to_ip(ROW, MonomialOrder.lex(3), (1, 0)),
         DimensionMismatch, "order has 3 weights, not 2"),
        (lambda: ip_to_normalform(IntegerProgram(ROW, (2,), (1, 1), upper=(2, 2), feasible_hint=(1, 1)))
         .extract_solution((0,)), DimensionMismatch, "expected length 5, got 1"),
    ],
    ids=["rhs", "objective", "lower", "upper", "hint-length", "hint-below", "hint-above", "no-upper", "empty-box",
         "nf-negative", "nf-length", "nf-length-and-negative", "nf-negative-before-order", "nf-order-length",
         "extract-length"],
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
    graph = complete_graph(3)
    ip = vertex_cover_ip(graph)
    reduction = ip_to_normalform(ip, graded=True)
    assert reduction.order.weights == (1,) * reduction.matrix.num_cols
    c, t = reduction.source_objective, reduction.source_upper
    L = build_lattice(reduction.matrix, max([sum(abs(cj) * tj for cj, tj in zip(c, t)), 1, *t]))
    nf = normal_form_bounded(reduction.matrix, L, reduction.order, reduction.start_exponent)
    z, objective = reduction.extract_solution(nf.normal_exponent)
    assert objective == 2
    cover = {v for v in range(graph.num_vertices) if z[v]}
    assert all(a in cover or b in cover for a, b in graph.edges)


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
    # integer elimination
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
    return rows, n, kind, tuple(w), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row_space_cases())
def test_row_space_test_matches_fraction_rank(case):
    # the sparse test under any column order, and the dense reference
    rows, n, kind, w, order = case
    want = fraction_rank(rows + [list(w)]) == fraction_rank(rows)
    A = dense_matrix(rows, n)
    assert in_row_space(A, w, order) is want
    assert dense_in_row_space(A, w) is want
    if kind in ("integer y", "rational y"):
        assert want


def test_row_space_test_named_cases(twisted_cubic):
    # every grlex weight vector of a homogeneous matrix reads as in the row
    # space; one weight more on the last column does not
    def in_row_space_every_order(A, w):
        n = A.num_cols
        answers = {in_row_space(A, w, order) for order in (range(n), range(n - 1, -1, -1))}
        assert answers == {dense_in_row_space(A, w)}
        return answers.pop()

    for A in (two_by_two_minors_matrix(3, 4), threeway_table_matrix(3, 3, 2), twisted_cubic):
        n = A.num_cols
        assert in_row_space_every_order(A, (1,) * n)
        assert in_row_space_every_order(A, (0,) * n)
        assert not in_row_space_every_order(A, (1,) * (n - 1) + (2,))
    assert in_row_space_every_order(twisted_cubic, (0, 1, 2, 3))  # the last row alone
    assert in_row_space_every_order(twisted_cubic, (2, 3, 4, 5))
    assert not in_row_space_every_order(twisted_cubic, (1, 0, 0, 0))
    assert in_row_space_every_order(SparseIntMatrix(0, 2, []), (0, 0))
    assert not in_row_space_every_order(SparseIntMatrix(0, 2, []), (0, 1))


def fiber_caps(A, b):
    """cap_j = min b_i // a_ij over the rows of A whose nonzero entries are
    all positive, read from the dense rows; None when such rows leave a
    column uncovered, since the fiber is then not bounded by them."""
    positive = [(r, bi) for r, bi in zip(A.to_dense(), b) if any(r) and min(r) >= 0]
    caps = []
    for j in range(A.num_cols):
        bounds = [bi // r[j] for r, bi in positive if r[j]]
        if not bounds:
            return None
        caps.append(min(bounds))
    return caps


def fiber_radix(A, b) -> int:
    """The radix normalform_to_ip picks for right-hand side b: one above the
    Graver bound, or above the largest fiber cap when every column has one
    and it is smaller."""
    caps, bound = fiber_caps(A, b), graver_infinity_bound(A)
    return (bound if caps is None else min(bound, max(caps, default=0))) + 1


def full_weight_program(A, order, u) -> IntegerProgram:
    """The program with the whole weight vector r^n.w + p as its objective,
    built here as normalform_to_ip builds it when w is outside the row space:
    the radix comes from the fiber of Au, and the box is the fiber's caps
    when every column has one, else the one u's cost under r^n.w + p gives."""
    n, b = A.num_cols, A.apply(u)
    c = weight_vector(order.weights, fiber_radix(A, b), n)
    upper = fiber_caps(A, b)
    if upper is None:
        budget = sum(cj * xj for cj, xj in zip(c, u))
        upper = [budget // cj for cj in c]
    return IntegerProgram(A, b, c, (0,) * n, tuple(upper), u)


def test_normalform_to_ip_keeps_weights_outside_the_row_space(twisted_cubic):
    # with no nonnegative row to subtract, the program is the full-weight one,
    # field for field; the 3x5 matrix is one where the remainder D.w - yA =
    # (0, 0, 0, -2, 0) is negative, so a program built from that remainder
    # would change here, and no row of it has one sign, so it keeps the
    # Graver radix; the twisted cubic's rows (1, 1, 1, 1) and (0, 1, 2, 3)
    # are both positive and cap its fiber at b = (4, 8) by (4, 4, 4, 2), so
    # its radix is 5, its box is the caps, and g = 4 is exact for the oracle
    mixed = SparseIntMatrix.from_dense([[1, -2, 2, -2, -3], [-3, 1, -1, 3, 3], [1, 0, -3, 0, 3]])
    tc_order, tc_u = MonomialOrder((1, 0, 0, 0)), (1, 0, 1, 2)
    cases = [(mixed, MonomialOrder((0, 2, 0, 0, 0)), (1, 1, 0, 2, 1), graver_infinity_bound(mixed) + 1),
             (twisted_cubic, tc_order, tc_u, 5)]
    for A, order, u, radix in cases:
        assert not dense_in_row_space(A, order.weights)
        ip = normalform_to_ip(A, order, u)
        assert ip == full_weight_program(A, order, u)
        assert ip.objective == weight_vector(order.weights, radix, A.num_cols)
    ip = normalform_to_ip(twisted_cubic, tc_order, tc_u)
    assert ip.upper == (4, 4, 4, 2)
    assert solve_ip(ip) == normal_form_bruteforce(twisted_cubic, tc_order.weights, tc_u, 4)


# the remainders w' of ten random K_{3,4} weight vectors outside its row
# space, worked by hand for the first: rows 0, 1, 5 and 6 are taken 1, 2, 1
# and 2 times, rows 2, 3 and 4 not at all
K34_REMAINDERS = [
    (4, 0, 1, 0, 3, 0, 3, 0, 2, 1, 1, 0),
    (0, 3, 4, 1, 0, 1, 2, 4, 0, 3, 0, 1),
    (5, 4, 0, 0, 5, 5, 3, 0, 5, 0, 2, 3),
    (5, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 0),
    (0, 0, 3, 0, 5, 4, 0, 0, 0, 0, 2, 3),
    (4, 0, 1, 1, 0, 2, 0, 4, 0, 1, 3, 0),
    (0, 0, 1, 1, 4, 0, 0, 4, 1, 2, 3, 0),
    (4, 0, 2, 2, 0, 3, 0, 4, 5, 3, 1, 0),
    (4, 3, 0, 0, 3, 4, 0, 1, 0, 2, 0, 3),
    (2, 2, 0, 3, 0, 2, 0, 0, 0, 0, 2, 2),
]


def test_normalform_to_ip_subtracts_nonnegative_rows_from_the_weights():
    # K_{3,4}'s rows are 0/1, so random weights outside its row space keep
    # only the remainder w'; every other field is the full-weight program's,
    # and so is the optimum
    k34 = two_by_two_minors_matrix(3, 4)
    rng, cases = random.Random(331), []
    while len(cases) < len(K34_REMAINDERS):
        order = MonomialOrder(tuple(rng.randint(0, 5) for _ in range(12)))
        if fraction_rank(k34.to_dense() + [list(order.weights)]) > fraction_rank(k34.to_dense()):
            cases.append((order, tuple(rng.randint(0, 2) for _ in range(12))))
    for (order, u), rest in zip(cases, K34_REMAINDERS):
        assert not dense_in_row_space(k34, order.weights)
        ip, full = normalform_to_ip(k34, order, u), full_weight_program(k34, order, u)
        assert ip.objective == weight_vector(rest, fiber_radix(k34, ip.rhs), 12)
        assert (ip.matrix, ip.rhs, ip.lower, ip.upper, ip.feasible_hint) == (
            full.matrix, full.rhs, full.lower, full.upper, full.feasible_hint
        )
        assert solve_ip(ip) == solve_ip(full), (order, u)


def integer_row_span_contains(rows, v) -> bool:
    # an integer echelon form by Euclid's steps on each column, independent
    # of the library's elimination, then v reduced by it; v lies in the
    # integer span of the rows exactly when each pivot divides what is left
    rows, echelon = [list(r) for r in rows], []
    for j in range(len(v)):
        live = [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            pivot, rest = live[0], []
            for r in live[1:]:
                q = r[j] // pivot[j]
                r = [x - q * y for x, y in zip(r, pivot)]
                (rest if r[j] else rows).append(r)
            live = [pivot] + rest
        echelon += [(j, r) for r in live]
    v = list(v)
    for j, pivot in echelon:
        if v[j] % pivot[j]:
            return False
        q = v[j] // pivot[j]
        v = [x - q * y for x, y in zip(v, pivot)]
    return not any(v)


def remainder_of(A, ip) -> list[int]:
    # the weights w' the objective encodes: objective = r^n.w' + (r^(n-1), ..., 1)
    n, radix = A.num_cols, fiber_radix(A, ip.rhs)
    place = weight_vector((0,) * n, radix, n)
    rest = [(c - p) // radix**n for c, p in zip(ip.objective, place)]
    assert weight_vector(rest, radix, n) == ip.objective
    return rest


@st.composite
def remainder_cases(draw):
    n = draw(st.integers(1, 6))
    nonnegative = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    mixed = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(
        lambda r: min(r) < 0 < max(r)
    )
    kind = draw(st.sampled_from(["nonnegative", "mixed", "both"] if n > 1 else ["nonnegative"]))
    row = {"nonnegative": nonnegative, "mixed": mixed, "both": st.one_of(nonnegative, mixed)}[kind]
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        # w = yA shifted into the nonnegative orthant by a multiple of an
        # all-positive row, so w lies in the row space of the enlarged matrix
        y = [draw(st.integers(-2, 3)) for _ in rows]
        w = [sum(c * r[j] for c, r in zip(y, rows)) for j in range(n)]
        k = draw(st.integers(1, 2))
        rows.insert(draw(st.integers(0, len(rows))), [k] * n)
        shift = -(min(0, *w) // k)
        w = [x + shift * k for x in w]
    else:
        w = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return rows, n, tuple(w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(remainder_cases())
def test_normalform_to_ip_weight_remainder(case):
    rows, n, w = case
    A = dense_matrix(rows, n)
    rest = remainder_of(A, normalform_to_ip(A, MonomialOrder(w), (0,) * n))
    in_row_space = fraction_rank(rows + [list(w)]) == fraction_rank(rows)
    assert min(rest) >= 0
    difference = [x - y for x, y in zip(w, rest)]
    assert integer_row_span_contains(rows, difference) or (not any(rest) and in_row_space)
    if in_row_space:
        assert not any(rest)
    nonnegative_rows = [r for r in rows if min(r) >= 0]
    if not nonnegative_rows and not in_row_space:
        assert tuple(rest) == w
    # no nonnegative row can be taken once more
    for r in nonnegative_rows:
        assert any(x < a for x, a in zip(rest, r) if a)


def wide_remainder_programs():
    rng = random.Random(341)
    for A in (two_by_two_minors_matrix(3, 5), threeway_table_matrix(3, 3, 2)):
        n = A.num_cols
        for _ in range(12):
            order = MonomialOrder(tuple(rng.randint(0, 5) for _ in range(n)))
            yield A, order, tuple(rng.randint(0, 2) for _ in range(n)), None
    # nonnegative matrices with no zero column have bounded fibers; every
    # fiber point is at most max(b) in each entry, so g = max(b) is exact
    # for the oracle, which is run where its (2g+1)^n vectors stay few
    count = 0
    while count < 100:
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = [[rng.choice([0, 0, 1, 2, 3]) for _ in range(n)] for _ in range(m)]
        if not all(any(r[j] for r in rows) for j in range(n)):
            continue
        A = SparseIntMatrix.from_dense(rows)
        u = tuple(rng.randint(0, 2) for _ in range(n))
        g = max(A.apply(u))
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        yield A, order, u, g if (2 * g + 1) ** n <= 20_000 else None
        count += 1


def test_normalform_to_ip_remainder_keeps_the_optimum():
    # the remainder's program and the full-weight one give the same optimum,
    # and the oracle agrees where it is cheap
    checked = 0
    for A, order, u, g in wide_remainder_programs():
        ip, full = normalform_to_ip(A, order, u), full_weight_program(A, order, u)
        z = solve_ip(ip)
        assert z == solve_ip(full), (A.to_dense(), order, u)
        if g is not None:
            assert z == normal_form_bruteforce(A, order.weights, u, g), (A.to_dense(), order, u)
            checked += 1
    assert checked > 20


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
        assert ip.objective == weight_vector((0,) * n, fiber_radix(A, ip.rhs), n)
        assert (ip.matrix, ip.rhs, ip.lower, ip.upper, ip.feasible_hint) == (
            full.matrix, full.rhs, full.lower, full.upper, full.feasible_hint
        )
        z = solve_ip(ip)
        assert z == solve_ip(full), (A, order, u)
        if g is not None:
            assert z == normal_form_bruteforce(A, order.weights, u, g), (A, order, u)


@st.composite
def capped_fiber_cases(draw):
    # positive rows with entries in [0, 2], and sometimes a mixed-sign row
    # whose b_i // a_ij would cut the fiber short; about a third of the draws
    # leave a column out of every positive row, so no cap covers it, and the
    # rest cover every column
    n = draw(st.integers(1, 4))
    positive = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(positive, min_size=1, max_size=3))
    if draw(st.integers(0, 2)) == 2:
        j = draw(st.integers(0, n - 1))
        for r in rows:
            r[j] = 0
    else:
        for j in range(n):
            if not any(r[j] for r in rows):
                rows[0][j] = 1
    if n > 1 and draw(st.booleans()):
        mixed = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(lambda r: min(r) < 0 < max(r))
        rows.insert(draw(st.integers(0, len(rows))), draw(mixed))
    kind = draw(st.sampled_from(["lex", "grlex", "weights"]))
    if kind == "weights":
        weights = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    else:
        weights = (0,) * n if kind == "lex" else (1,) * n
    u = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return rows, n, MonomialOrder(weights), u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(capped_fiber_cases())
def test_normalform_to_ip_radix_orders_the_fiber(case):
    # where A's positive rows cap every column, the fiber is enumerated here
    # by brute force over the caps, and the optimum is the order's least
    # point; where the largest cap is below the Graver bound, the objective
    # orders the whole fiber exactly as the order does, and every point at
    # or below u in the order lies in the box; a column no positive row
    # covers keeps the Graver radix and the unclipped box
    rows, n, order, u = case
    A = dense_matrix(rows, n)
    ip = normalform_to_ip(A, order, u)
    caps = fiber_caps(A, ip.rhs)
    if caps is None:
        radix = graver_infinity_bound(A) + 1
        place = weight_vector((0,) * n, radix, n)
        rest = [(c - p) // radix**n for c, p in zip(ip.objective, place)]
        assert weight_vector(rest, radix, n) == ip.objective
        c = weight_vector(order.weights, radix, n)
        budget = sum(cj * xj for cj, xj in zip(c, u))
        assert ip.upper == tuple(budget // cj for cj in c)
        return
    box = itertools.product(*(range(cap + 1) for cap in caps))
    fiber = [z for z in box if A.apply(z) == ip.rhs]
    fiber.sort(key=functools.cmp_to_key(order.compare))
    assert solve_ip(ip) == fiber[0]
    assert all(x <= top for x, top in zip(fiber[0], ip.upper))
    if max(caps) > graver_infinity_bound(A):
        return  # the Graver radix orders only the steps of the Graver basis
    costs = [sum(c * x for c, x in zip(ip.objective, z)) for z in fiber]
    assert all(a < b for a, b in zip(costs, costs[1:])), (rows, order, u)
    for z in fiber[: fiber.index(u) + 1]:
        assert all(x <= top for x, top in zip(z, ip.upper)), (rows, order, u, z)


def test_normalform_to_ip_capped_program_is_its_caps_and_one_weight_vector(monkeypatch, twisted_cubic):
    # a capped program is boxed by its caps alone and builds only the
    # objective it solves, w' at the fiber's radix: no full-weight vector
    calls = []

    def counted(w, radix, n):
        calls.append((tuple(w), radix, n))
        return weight_vector(w, radix, n)

    monkeypatch.setattr("toricbases.reductions.weight_vector", counted)
    rng, k34 = random.Random(353), two_by_two_minors_matrix(3, 4)
    cases = [(twisted_cubic, MonomialOrder((1, 0, 0, 0)), (1, 0, 1, 2)),
             (twisted_cubic, MonomialOrder.grlex(4), (0, 3, 0, 1))]
    for k in range(9):
        cases.append((k34, _order(rng, 12, k), tuple(rng.randint(0, 2) for _ in range(12))))
    for A, order, u in cases:
        calls.clear()
        ip = normalform_to_ip(A, order, u)
        assert ip.upper == tuple(fiber_caps(A, ip.rhs)), (order, u)
        assert calls == [(tuple(remainder_of(A, ip)), fiber_radix(A, ip.rhs), A.num_cols)], (order, u)


def _order(rng, n, k):
    # lex, grlex and a random weight order in turn
    if k % 3 == 2:
        return MonomialOrder(tuple(rng.randint(0, 5) for _ in range(n)))
    return MonomialOrder.grlex(n) if k % 3 else MonomialOrder.lex(n)


def test_normalform_to_ip_radix_is_one_above_the_largest_cap():
    # [[1, 1]] at u = (1, 0): b = 1 caps both columns at 1, so the radix is 2
    # (the Graver bound is 3); lex then puts (0, 1) below (1, 0), which a
    # radix of 1 would tie
    A = SparseIntMatrix.from_dense([[1, 1]])
    ip = normalform_to_ip(A, MonomialOrder.lex(2), (1, 0))
    assert ip.objective == weight_vector((0, 0), 2, 2) == (2, 1)
    assert ip.upper == (1, 1)
    assert solve_ip(ip) == (0, 1)
    # a zero column is in no row: the Graver radix and the budget's box
    B = SparseIntMatrix.from_dense([[1, 1, 0]])
    ip = normalform_to_ip(B, MonomialOrder.lex(3), (1, 0, 0))
    assert ip.objective == weight_vector((0, 0, 0), graver_infinity_bound(B) + 1, 3) == (16, 4, 1)
    assert ip.upper == (1, 4, 16)
