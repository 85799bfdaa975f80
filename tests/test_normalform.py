import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbases import (
    Binomial,
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    build_lattice,
    build_truncated_lattice,
    graver_infinity_bound,
    ideal_membership,
    is_standard,
    normal_form_bounded,
    polynomial_normal_form,
    reduce_by_basis,
    reduced_groebner_basis,
)
from toricbases.lattice import BoundExceeded
from toricbases.normalform import ReductionDiverged
from toricbases.oracle import normal_form_bruteforce, random_sparse_matrix


def test_basic_normal_form():
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2)
    lex = MonomialOrder.lex(2)
    result = normal_form_bounded(A, L, lex, (1, 0))
    assert result.normal_exponent == (0, 1)
    assert not result.was_standard
    assert normal_form_bounded(A, L, lex, (0, 1)).was_standard


def test_fixed_point_returns_input(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    order = MonomialOrder.grlex(4)
    result = normal_form_bounded(twisted_cubic, L, order, (0, 0, 0, 1))
    assert result.was_standard and result.normal_exponent == (0, 0, 0, 1)


def test_zero_monomial_is_standard(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    for order in (MonomialOrder.lex(4), MonomialOrder.grlex(4)):
        assert is_standard(twisted_cubic, L, order, (0, 0, 0, 0))


def test_k22_normal_form_vs_oracle(k22):
    L = build_lattice(k22, 2)
    order = MonomialOrder.grlex(4)
    u = (1, 0, 0, 1)  # x11 * x22
    result = normal_form_bounded(k22, L, order, u)
    oracle = normal_form_bruteforce(k22, order.weights, u, 2)
    assert result.normal_exponent == oracle


def test_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        A = random_sparse_matrix(m, n, 2, 0.5, rng.randrange(2**30))
        g = rng.randint(1, 3)
        L = build_lattice(A, g)
        order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(n)))
        for _ in range(8):
            u = tuple(rng.randint(0, g) for _ in range(n))
            got = normal_form_bounded(A, L, order, u).normal_exponent
            assert got == normal_form_bruteforce(A, order.weights, u, g)


def test_idempotent_and_congruent(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    order = MonomialOrder.grlex(4)
    rng = random.Random(103)
    for _ in range(20):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        nf = normal_form_bounded(twisted_cubic, L, order, u).normal_exponent
        if max(nf) <= 3:  # the true normal form may leave the input box
            again = normal_form_bounded(twisted_cubic, L, order, nf)
            assert again.normal_exponent == nf and again.was_standard
        assert twisted_cubic.apply(nf) == twisted_cubic.apply(u)
        if nf != u:
            assert ideal_membership(twisted_cubic, [(1, u), (-1, nf)])


def test_minimality_against_enumerated_fiber(twisted_cubic):
    # at a saturated bound the result is below every member of its fiber
    import itertools

    L = build_lattice(twisted_cubic, 3)
    order = MonomialOrder.grlex(4)
    fiber_points: dict = {}
    for z in itertools.product(range(4), repeat=4):
        fiber_points.setdefault(twisted_cubic.apply(z), []).append(z)
    rng = random.Random(109)
    for _ in range(20):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        nf = normal_form_bounded(twisted_cubic, L, order, u).normal_exponent
        for z in fiber_points[twisted_cubic.apply(u)]:
            assert order.key(nf) <= order.key(z)


def test_standard_monomials_downward_closed(twisted_cubic):
    # guaranteed once the bound covers every conformally minimal vector
    L = build_lattice(twisted_cubic, 3)
    order = MonomialOrder.grlex(4)
    grid = [
        (a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    ]
    standard = {u for u in grid if is_standard(twisted_cubic, L, order, u)}
    for u in standard:
        for k in range(4):
            if u[k]:
                below = tuple(x - (i == k) for i, x in enumerate(u))
                assert below in standard


@st.composite
def normal_form_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    bound = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    u = draw(st.lists(st.integers(0, bound), min_size=n, max_size=n))
    return SparseIntMatrix.from_dense(rows), bound, MonomialOrder(tuple(weights)), tuple(u)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(normal_form_cases())
def test_normal_form_properties(case):
    # at any bound: nonnegative, congruent, not above u, standard, and a
    # fixed point
    A, bound, order, u = case
    L = build_lattice(A, bound)
    result = normal_form_bounded(A, L, order, u)
    nf = result.normal_exponent
    assert min(nf) >= 0
    assert A.apply(nf) == A.apply(u)
    assert order.compare(nf, u) <= 0
    assert result.was_standard == (nf == u)
    if max(nf) <= bound:  # the lattice takes only exponents inside its box
        assert is_standard(A, L, order, nf)
        again = normal_form_bounded(A, L, order, nf)
        assert again.normal_exponent == nf and again.was_standard


@st.composite
def certified_cases(draw):
    # one row with entries in [-2, 2]: graver_infinity_bound is at most 5
    n = draw(st.integers(2, 4))
    row = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    A = SparseIntMatrix.from_dense([row])
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    bound = graver_infinity_bound(A)
    u = draw(st.lists(st.integers(0, bound), min_size=n, max_size=n))
    return A, bound, MonomialOrder(tuple(weights)), tuple(u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(certified_cases())
def test_certified_normal_form_matches_bruteforce(case):
    A, bound, order, u = case
    result = normal_form_bounded(A, build_lattice(A, bound), order, u)
    assert result.certified
    assert result.normal_exponent == normal_form_bruteforce(A, order.weights, u, bound)


def test_uncertified_bound_is_reported(twisted_cubic):
    # at g=1 the move (0,1,0,1) -> (0,0,2,0) leaves the box, so the jump loop
    # stops at u; the result cannot know that, but it says the bound is short
    lex = MonomialOrder.lex(4)
    u = (0, 1, 0, 1)
    short = normal_form_bounded(twisted_cubic, build_lattice(twisted_cubic, 1), lex, u)
    assert short.normal_exponent == u and short.was_standard
    assert short.certified is False
    wider = normal_form_bounded(twisted_cubic, build_lattice(twisted_cubic, 3), lex, u)
    assert wider.normal_exponent == (0, 0, 2, 0)
    assert wider.certified is False  # 3 < graver_infinity_bound = 169
    A = SparseIntMatrix.from_dense([[1, 1]])
    assert graver_infinity_bound(A) == 3
    assert normal_form_bounded(A, build_lattice(A, 3), MonomialOrder.lex(2), (1, 0)).certified
    assert not normal_form_bounded(A, build_lattice(A, 2), MonomialOrder.lex(2), (1, 0)).certified
    degree = build_truncated_lattice(A, 3)
    assert normal_form_bounded(A, degree, MonomialOrder.grlex(2), (1, 0)).certified


def test_is_standard_is_exact_only_when_certified(twisted_cubic):
    # a bool cannot carry the flag: at g=1 the lattice is not certified, and
    # is_standard passes four monomials whose normal forms lie a move of
    # infinity-norm 2 or 3 away
    A, grlex = twisted_cubic, MonomialOrder.grlex(4)
    L = build_lattice(A, 1)
    assert L.certified is False
    reduced = {
        (0, 1, 0, 1): (0, 0, 2, 0),
        (0, 1, 1, 1): (0, 0, 3, 0),
        (1, 0, 1, 0): (0, 2, 0, 0),
        (1, 1, 1, 0): (0, 3, 0, 0),
    }
    for u, nf in reduced.items():
        assert is_standard(A, L, grlex, u)
        assert normal_form_bruteforce(A, (1, 1, 1, 1), u, 3) == nf
    assert max(abs(a - b) for a, b in zip((0, 1, 0, 1), (0, 0, 2, 0))) == 2


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda A, L, grlex: normal_form_bounded(A, L, grlex, (1, 0)),
         DimensionMismatch, "expected length 4, got 2"),
        (lambda A, L, grlex: reduce_by_basis([], grlex, (1, -1, 0, 0)),
         ValueError, "monomial exponents must be nonnegative"),
        (lambda A, L, grlex: reduce_by_basis([Binomial((1, 0, 1, 0), (0, 2, 0, 0))], grlex, (1, 0)),
         DimensionMismatch, "basis and monomial dimensions differ"),
    ],
    ids=["normal-form-length", "reduce-negative", "reduce-length"],
)
def test_normalform_refusals(twisted_cubic, call, error, message):
    with pytest.raises(error) as info:
        call(twisted_cubic, build_lattice(twisted_cubic, 1), MonomialOrder.grlex(4))
    assert type(info.value) is error and str(info.value) == message


def count_minimize_calls(L):
    """The arguments of every later ``L.minimize`` call, one entry per call."""
    calls = []
    minimize = L.minimize

    def counted(*args):
        calls.append(args)
        return minimize(*args)

    L.minimize = counted
    return calls


@st.composite
def degree_cases(draw):
    # entries in [-1, 1] and at most two rows: graver_infinity_bound is at most 25
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    A = SparseIntMatrix.from_dense(rows)
    d = draw(st.integers(1, 3))
    u = [0] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=d)):
        u[j] += 1
    return A, d, tuple(u)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(degree_cases())
def test_degree_normal_form_matches_bruteforce(case):
    # the degree route's certified flag: the grlex normal form of a monomial
    # of degree at most d is reached by a move inside the degree-d lattice
    # in one jump: one sweep per normal form
    A, d, u = case
    grlex = MonomialOrder.grlex(A.num_cols)
    L = build_truncated_lattice(A, d)
    sweeps = count_minimize_calls(L)
    result = normal_form_bounded(A, L, grlex, u)
    assert result.certified
    want = normal_form_bruteforce(A, grlex.weights, u, graver_infinity_bound(A))
    assert result.normal_exponent == want
    assert result.was_standard == (want == u)
    assert len(sweeps) == 1


def test_box_lattice_jumps_to_the_fixed_point(twisted_cubic):
    # the move to the normal form, (0, -2, 4, -2), leaves the box g=2: the
    # first jump stops at (0, 1, 2, 1), a second reaches (0, 0, 4, 0), and a
    # third finds nothing smaller
    L = build_lattice(twisted_cubic, 2)
    sweeps = count_minimize_calls(L)
    order = MonomialOrder.lex(4)
    u = (0, 2, 0, 2)
    result = normal_form_bounded(twisted_cubic, L, order, u)
    assert result.normal_exponent == (0, 0, 4, 0) == normal_form_bruteforce(twisted_cubic, order.weights, u, 4)
    assert len(sweeps) == 3


def test_bound_checks(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    with pytest.raises(BoundExceeded):
        normal_form_bounded(twisted_cubic, L, MonomialOrder.lex(4), (3, 0, 0, 0))
    with pytest.raises(ValueError):
        normal_form_bounded(twisted_cubic, L, MonomialOrder.lex(4), (-1, 0, 0, 0))


def test_reduce_by_basis_repeated_division():
    lex = MonomialOrder.lex(2)
    gb = [Binomial((1, 0), (0, 1))]
    assert reduce_by_basis(gb, lex, (3, 0)) == (0, 3)
    assert reduce_by_basis(gb, lex, (0, 2)) == (0, 2)


def test_reduce_by_basis_rejects_misoriented():
    lex = MonomialOrder.lex(2)
    with pytest.raises(ValueError):
        reduce_by_basis([Binomial((0, 1), (1, 0))], lex, (1, 0))


def test_reduce_by_basis_step_cap():
    # orientation makes division strictly decreasing, so genuine divergence is
    # impossible; the cap still guards against pathologically long chains
    import toricbases.normalform as nf_mod

    lex = MonomialOrder.lex(2)
    gb = [Binomial((1, 0), (0, 1))]
    old = nf_mod._MAX_REDUCTION_STEPS
    nf_mod._MAX_REDUCTION_STEPS = 10
    try:
        with pytest.raises(ReductionDiverged):
            reduce_by_basis(gb, lex, (50, 0))
    finally:
        nf_mod._MAX_REDUCTION_STEPS = old
    assert reduce_by_basis(gb, lex, (50, 0)) == (0, 50)


def test_division_agrees_with_lattice_route(twisted_cubic):
    order = MonomialOrder.grlex(4)
    L = build_lattice(twisted_cubic, 3)
    gb = reduced_groebner_basis(twisted_cubic, L, order).elements
    rng = random.Random(107)
    for _ in range(30):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        assert (
            reduce_by_basis(gb, order, u)
            == normal_form_bounded(twisted_cubic, L, order, u).normal_exponent
        )


def test_polynomial_normal_form_linearity(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    order = MonomialOrder.grlex(4)
    terms = [(2, (1, 0, 1, 0)), (-1, (0, 2, 0, 0)), (5, (0, 0, 0, 1))]
    combined = polynomial_normal_form(twisted_cubic, L, order, terms)
    # termwise reduction with collection
    expected: dict = {}
    for coef, e in terms:
        nf = normal_form_bounded(twisted_cubic, L, order, e).normal_exponent
        expected[nf] = expected.get(nf, 0) + coef
    expected = {e: c for e, c in expected.items() if c}
    assert dict((e, c) for c, e in combined) == expected
    # x1*x3 and x2^2 share a normal form, so their difference collapses to zero
    cancel = polynomial_normal_form(
        twisted_cubic, L, order, [(1, (1, 0, 1, 0)), (-1, (0, 2, 0, 0))]
    )
    assert cancel == []
