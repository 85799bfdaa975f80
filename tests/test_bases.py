import random

import pytest

from toricbases import (
    Binomial,
    BoundExceeded,
    DimensionMismatch,
    KernelLattice,
    MonomialOrder,
    SparseIntMatrix,
    build_lattice,
    build_truncated_lattice,
    graver_basis,
    in_graver,
    in_reduced_gb,
    is_standard,
    normal_form_bounded,
    polynomial_normal_form,
    reduce_by_basis,
    reduced_groebner_basis,
)
from toricbases.bases import binomials_from_vectors
from toricbases.core import conformal_leq
from toricbases.oracle import (
    graver_bruteforce,
    reduced_gb_bruteforce,
    saturated_graver,
)

from conftest import TWISTED_CUBIC_GRAVER, TWISTED_CUBIC_RGB


def test_in_reduced_gb_single_row():
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2)
    lex = MonomialOrder.lex(2)
    assert in_reduced_gb(A, L, lex, Binomial((1, 0), (0, 1)))
    # x1^2 - x2^2 reduces through x1 - x2 first
    assert not in_reduced_gb(A, L, lex, Binomial((2, 0), (0, 2)))


def test_in_reduced_gb_validation():
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2)
    lex = MonomialOrder.lex(2)
    with pytest.raises(ValueError):
        in_reduced_gb(A, L, lex, Binomial((1, 0), (0, 2)))  # not a kernel pair
    with pytest.raises(ValueError):
        in_reduced_gb(A, L, lex, Binomial((0, 1), (1, 0)))  # misoriented


def test_reduced_gb_single_row():
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2)
    report = reduced_groebner_basis(A, L, MonomialOrder.lex(2))
    assert [(b.head, b.tail) for b in report.elements] == [((1, 0), (0, 1))]


# the reduced basis of K_{2,3} under grlex: its three 2x2 minors
K23_MINORS = frozenset(
    {
        ((1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0)),
        ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0)),
        ((0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 0)),
    }
)


def test_reduced_gb_k23_is_the_three_minors(k23):
    L = build_lattice(k23, 2)
    report = reduced_groebner_basis(k23, L, MonomialOrder.grlex(6))
    got = {(b.head, b.tail) for b in report.elements}
    assert got == K23_MINORS


def test_reduced_basis_runs_no_sweep_beyond_its_scan(twisted_cubic, k23, monkeypatch):
    # the reduced basis is read off the Graver basis: once the lattice is
    # scanned, no minimize sweep (normal forms, is_standard) and no count
    # sweep (in_graver) runs
    cases = (
        (twisted_cubic, build_lattice(twisted_cubic, 3), 4, TWISTED_CUBIC_RGB),
        (k23, build_lattice(k23, 2), 6, K23_MINORS),
        (k23, build_truncated_lattice(k23, 2), 6, K23_MINORS),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep ran after the lattice scan")

    monkeypatch.setattr(KernelLattice, "minimize", refuse)
    monkeypatch.setattr(KernelLattice, "count", refuse)
    for A, L, n, want in cases:
        report = reduced_groebner_basis(A, L, MonomialOrder.grlex(n))
        assert {(b.head, b.tail) for b in report.elements} == want, L.kind


def test_reduced_gb_twisted_cubic_golden(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    for order in (MonomialOrder.grlex(4), MonomialOrder.lex(4)):
        report = reduced_groebner_basis(twisted_cubic, L, order)
        assert {(b.head, b.tail) for b in report.elements} == TWISTED_CUBIC_RGB


def test_reduced_property_pairwise(twisted_cubic, k23):
    for A, g, order in (
        (twisted_cubic, 3, MonomialOrder.grlex(4)),
        (k23, 2, MonomialOrder.grlex(6)),
    ):
        L = build_lattice(A, g)
        elements = reduced_groebner_basis(A, L, order).elements
        for b in elements:
            for other in elements:
                if other is b:
                    continue
                assert not all(h <= x for h, x in zip(other.head, b.head))
                assert not all(h <= x for h, x in zip(other.head, b.tail))


def test_reduced_gb_matches_oracle_random():
    rng = random.Random(211)
    from toricbases.oracle import random_sparse_matrix

    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        A = random_sparse_matrix(m, n, 2, 0.5, rng.randrange(2**30))
        g = rng.randint(1, 2)
        order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(n)))
        L = build_lattice(A, g)
        got = {
            (b.head, b.tail)
            for b in reduced_groebner_basis(A, L, order).elements
        }
        assert got == reduced_gb_bruteforce(A, order.weights, g), (A.to_dense(), g)


def test_in_graver_basics():
    A = SparseIntMatrix.from_dense([[1, -1]])
    L = build_lattice(A, 3)
    assert in_graver(A, L, (1, 1))
    assert not in_graver(A, L, (2, 2))
    with pytest.raises(ValueError):
        in_graver(A, L, (0, 0))
    with pytest.raises(ValueError):
        in_graver(A, L, (1, 0))  # not in the kernel
    # on a degree lattice a multiple inside the bound is rejected too: its
    # primitive part lies conformally below it
    LT = build_truncated_lattice(A, 4)
    assert in_graver(A, LT, (1, 1)) and in_graver(A, LT, (-1, -1))
    assert not in_graver(A, LT, (2, 2)) and not in_graver(A, LT, (-2, -2))
    B = SparseIntMatrix.from_dense([[1, 1, -2]])
    LT = build_truncated_lattice(B, 6)
    assert in_graver(B, LT, (1, 1, 1)) and in_graver(B, LT, (2, 0, 1))
    assert not in_graver(B, LT, (2, 2, 2)) and not in_graver(B, LT, (-4, 0, -2))


def test_graver_single_row():
    A = SparseIntMatrix.from_dense([[1, -1]])
    L = build_lattice(A, 2)
    report = graver_basis(A, L)
    assert frozenset(report.elements) == {(1, 1), (-1, -1)}


def test_graver_three_columns_matches_oracle():
    A = SparseIntMatrix.from_dense([[1, 1, -2]])
    gset, g = saturated_graver(A, 1)
    L = build_lattice(A, g)
    assert frozenset(graver_basis(A, L).elements) == gset


def test_graver_twisted_cubic_golden(twisted_cubic):
    gset, g = saturated_graver(twisted_cubic, 1)
    assert g == 3
    assert gset == TWISTED_CUBIC_GRAVER
    L = build_lattice(twisted_cubic, g)
    report = graver_basis(twisted_cubic, L)
    assert frozenset(report.elements) == TWISTED_CUBIC_GRAVER


def test_graver_k22_is_single_minor_pair(k22):
    gset, g = saturated_graver(k22, 1)
    L = build_lattice(k22, g)
    got = frozenset(graver_basis(k22, L).elements)
    assert got == {(1, -1, -1, 1), (-1, 1, 1, -1)}
    assert got == gset


def test_graver_membership_matches_oracle_elementwise(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    kernel = [v for v in L.iterate() if any(v)]
    for v in kernel:
        assert in_graver(twisted_cubic, L, v) == (v in TWISTED_CUBIC_GRAVER)


def test_graver_output_is_conformally_minimal_and_symmetric(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    elements = graver_basis(twisted_cubic, L).elements
    for v in elements:
        assert tuple(-x for x in v) in elements
        for w in elements:
            if w != v:
                assert not conformal_leq(w, v)
        assert L.contains(v)


def test_graver_matches_oracle_random():
    rng = random.Random(223)
    from toricbases.oracle import random_sparse_matrix

    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(2, 4)
        A = random_sparse_matrix(m, n, 2, 0.5, rng.randrange(2**30))
        g = rng.randint(1, 3)
        L = build_lattice(A, g)
        assert frozenset(graver_basis(A, L).elements) == graver_bruteforce(A, g)


def _reference_scans(A, L, order):
    """The per-candidate scans the basis pipeline replaced: every nonzero
    lattice vector through in_graver, and every oriented lattice binomial
    through in_reduced_gb."""
    graver = sorted(v for v in L.iterate() if any(v) and in_graver(A, L, v))
    reduced = [
        b for b in binomials_from_vectors(list(L.iterate()), order)
        if in_reduced_gb(A, L, order, b)
    ]
    return tuple(graver), tuple(reduced)


def test_pipeline_matches_the_per_candidate_scans():
    from toricbases.oracle import random_sparse_matrix

    rng = random.Random(239)
    certified = 0
    for i in range(36):
        n = rng.randint(2, 4)
        if i % 6 == 0:  # one row of entries in [-1, 1] is certified at g=3
            A = random_sparse_matrix(1, n, 1, 0.8, rng.randrange(2**30))
        else:
            A = random_sparse_matrix(rng.randint(1, 2), n, 2, 0.6, rng.randrange(2**30))
        bound = 1 + i % 3
        if i % 2:
            L = build_truncated_lattice(A, bound)
            orders = [MonomialOrder.grlex(n)]
        else:
            L = build_lattice(A, 3 if i % 6 == 0 else bound)
            orders = [MonomialOrder.lex(n), MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))]
        certified += L.kind == "box" and L.certified
        graver = graver_basis(A, L)
        assert graver.scanned == L.count()
        for order in orders:
            want_graver, want_reduced = _reference_scans(A, L, order)
            assert graver.elements == want_graver, (A.to_dense(), L.kind, L.bound)
            report = reduced_groebner_basis(A, L, order)
            assert report.elements == want_reduced, (A.to_dense(), L.kind, L.bound, order)
            assert report.scanned == L.count()
    assert 0 < certified < 18


def test_truncated_gb_k23(k23):
    grlex = MonomialOrder.grlex(6)
    assert reduced_groebner_basis(k23, build_truncated_lattice(k23, 1), grlex).elements == ()
    got = {
        (b.head, b.tail)
        for b in reduced_groebner_basis(k23, build_truncated_lattice(k23, 2), grlex).elements
    }
    L = build_lattice(k23, 2)
    full = {
        (b.head, b.tail) for b in reduced_groebner_basis(k23, L, grlex).elements
    }
    assert got == full


def test_truncated_gb_requires_graded_order(k23):
    lex = MonomialOrder.lex(6)
    with pytest.raises(ValueError):
        reduced_groebner_basis(k23, build_truncated_lattice(k23, 2), lex)
    # the check does not wait for a candidate: at d=1 the lattice holds only 0
    L = build_truncated_lattice(k23, 1)
    assert list(L.iterate()) == [(0,) * 6]
    with pytest.raises(ValueError):
        reduced_groebner_basis(k23, L, lex)


def test_truncated_graver_coherent_with_full(twisted_cubic):
    for d in (1, 2, 3, 4):
        L = build_truncated_lattice(twisted_cubic, d)
        got = frozenset(graver_basis(twisted_cubic, L).elements)
        want = frozenset(
            v
            for v in TWISTED_CUBIC_GRAVER
            if sum(x for x in v if x > 0) <= d and sum(-x for x in v if x < 0) <= d
        )
        assert got == want


def test_truncated_gb_coherent_with_full(twisted_cubic):
    grlex = MonomialOrder.grlex(4)
    for d in (1, 2, 3):
        got = {
            (b.head, b.tail)
            for b in reduced_groebner_basis(
                twisted_cubic, build_truncated_lattice(twisted_cubic, d), grlex
            ).elements
        }
        want = {
            (h, t) for h, t in TWISTED_CUBIC_RGB if sum(h) <= d and sum(t) <= d
        }
        assert got == want


def test_universal_property_of_graver_binomials(twisted_cubic, k23):
    # dividing by the full conformally-minimal set gives the same normal forms
    # as the respective reduced basis, under both orders
    for A, g, span in ((twisted_cubic, 3, 3), (k23, 1, 2)):
        gset, gsat = saturated_graver(A, g)
        L = build_lattice(A, gsat)
        rng = random.Random(227)
        for order in (MonomialOrder.lex(A.num_cols), MonomialOrder.grlex(A.num_cols)):
            universal = binomials_from_vectors(sorted(gset), order)
            gb = reduced_groebner_basis(A, L, order).elements
            for _ in range(40):
                u = tuple(rng.randint(0, 2) for _ in range(A.num_cols))
                assert reduce_by_basis(universal, order, u) == reduce_by_basis(
                    gb, order, u
                )


def test_division_confluence_spot_check(twisted_cubic):
    # dividing in a random element order must land on the same remainder
    order = MonomialOrder.grlex(4)
    L = build_lattice(twisted_cubic, 3)
    gb = reduced_groebner_basis(twisted_cubic, L, order).elements
    rng = random.Random(233)
    for _ in range(30):
        u = tuple(rng.randint(0, 3) for _ in range(4))
        expected = reduce_by_basis(gb, order, u)
        z = u
        while True:
            applicable = [
                b for b in gb if all(h <= x for h, x in zip(b.head, z))
            ]
            if not applicable:
                break
            b = rng.choice(applicable)
            z = tuple(x - h + t for x, h, t in zip(z, b.head, b.tail))
        assert z == expected, u


def test_graver_subset_of_lattice_random():
    rng = random.Random(229)
    from toricbases.oracle import random_sparse_matrix

    for _ in range(10):
        A = random_sparse_matrix(rng.randint(1, 3), rng.randint(2, 4), 2, 0.5, rng.randrange(2**30))
        L = build_lattice(A, 2)
        for v in graver_basis(A, L).elements:
            assert L.contains(v)


def test_reports_carry_the_certified_flag():
    A = SparseIntMatrix.from_dense([[1, 1]])  # graver_infinity_bound 3
    lex = MonomialOrder.lex(2)
    for bound, certified in ((3, True), (2, False)):
        L = build_lattice(A, bound)
        assert graver_basis(A, L).certified is certified
        assert reduced_groebner_basis(A, L, lex).certified is certified
    # truncated bases are exact for their degree
    L = build_truncated_lattice(A, 3)
    assert graver_basis(A, L).certified is True
    assert reduced_groebner_basis(A, L, MonomialOrder.grlex(2)).certified is True


def test_bound_checks_raise_one_past_the_bound(twisted_cubic):
    A = twisted_cubic
    grlex = MonomialOrder.grlex(4)
    # the move x2^2 -> x1 x3, oriented with x2^2 as the head
    heavy_x2 = MonomialOrder((0, 2, 1, 0))
    # (lattice, order, (inside, one past) for monomials and kernel vectors)
    cases = (
        (build_lattice(A, 1), grlex, ((1, 1, 1, 1), (0, 2, 0, 0)), ((1, -1, -1, 1), (1, -2, 1, 0))),
        (build_truncated_lattice(A, 2), grlex, ((1, 0, 1, 0), (1, 1, 1, 0)),
         ((1, -2, 1, 0), (2, -3, 0, 1))),
    )
    for L, order, (u_in, u_out), (z_in, z_out) in cases:
        for check in (normal_form_bounded, is_standard):
            check(A, L, order, u_in)
            with pytest.raises(BoundExceeded):
                check(A, L, order, u_out)
        assert in_graver(A, L, z_in)
        with pytest.raises(BoundExceeded):
            in_graver(A, L, z_out)
    box, degree = cases[0][0], cases[1][0]
    assert in_reduced_gb(A, box, grlex, Binomial((1, 0, 0, 1), (0, 1, 1, 0)))
    for order in (grlex, heavy_x2):  # the tail, then the head, one past the bound
        binomial = Binomial.from_kernel_vector((1, -2, 1, 0)).oriented(order)
        assert (binomial.head == (0, 2, 0, 0)) is (order is heavy_x2)
        with pytest.raises(BoundExceeded):
            in_reduced_gb(A, box, order, binomial)
    assert in_reduced_gb(A, degree, grlex, Binomial((1, 0, 1, 0), (0, 2, 0, 0)))
    with pytest.raises(BoundExceeded):  # degree 3 on both sides
        in_reduced_gb(A, degree, grlex, Binomial.from_kernel_vector((2, -3, 0, 1)).oriented(grlex))


def test_queries_refuse_a_lattice_of_another_matrix(twisted_cubic):
    # a lattice answers for the matrix it was built from: another matrix is
    # refused (it used to get a normal form outside its fiber, and the
    # lattice's own Graver basis), and an equal copy is accepted
    L = build_lattice(twisted_cubic, 3)
    grlex = MonomialOrder.grlex(4)
    u = (1, 0, 1, 0)
    calls = (
        lambda A: normal_form_bounded(A, L, grlex, u),
        lambda A: is_standard(A, L, grlex, u),
        lambda A: polynomial_normal_form(A, L, grlex, [(1, u)]),
        lambda A: polynomial_normal_form(A, L, grlex, []),
        lambda A: in_reduced_gb(A, L, grlex, Binomial(u, (0, 2, 0, 0))),
        lambda A: in_graver(A, L, (2, -3, 0, 1)),
        lambda A: graver_basis(A, L),
        lambda A: reduced_groebner_basis(A, L, grlex),
    )
    other = SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 1, 3]])
    copy = SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]])
    assert copy is not twisted_cubic
    for call in calls:
        with pytest.raises(ValueError, match="different matrix"):
            call(other)
        assert call(copy) == call(twisted_cubic)


def test_queries_refuse_an_order_of_another_length(twisted_cubic):
    # an order must weigh every column, even when there is nothing to scan:
    # the kernel of [[1]] is {0}, whose reduced basis is empty
    A = SparseIntMatrix.from_dense([[1]])
    for L in (build_lattice(A, 2), build_truncated_lattice(A, 2)):
        for order in (MonomialOrder.lex(5), MonomialOrder.grlex(5)):
            calls = (
                lambda: reduced_groebner_basis(A, L, order),
                lambda: normal_form_bounded(A, L, order, (1,)),
                lambda: is_standard(A, L, order, (1,)),
                lambda: polynomial_normal_form(A, L, order, []),
            )
            for call in calls:
                with pytest.raises(DimensionMismatch, match="order has 5 weights, not 1"):
                    call()
    L = build_lattice(twisted_cubic, 2)
    with pytest.raises(DimensionMismatch):
        reduced_groebner_basis(twisted_cubic, L, MonomialOrder.grlex(3))
    with pytest.raises(DimensionMismatch):
        polynomial_normal_form(twisted_cubic, L, MonomialOrder.grlex(5), [(1, (1, 0, 1, 0))])


def test_reduced_basis_reads_off_the_graver_basis(twisted_cubic, k23):
    # reduced_groebner_basis keeps (h, t) when no other Graver head lies
    # below h and no Graver head lies below t; the reference is the sweep
    # path, each Graver binomial through the single-element test
    # in_reduced_gb
    from toricbases.oracle import random_sparse_matrix

    rng = random.Random(401)
    matrices = [
        twisted_cubic,
        k23,
        SparseIntMatrix.from_dense([[1, -1]]),
        SparseIntMatrix.from_dense([[1, 1, -2]]),
    ]
    for _ in range(36):
        n = rng.randint(2, 5)
        matrices.append(random_sparse_matrix(rng.randint(1, 3), n, 2, 0.6, rng.randrange(2**30)))
    cases = sizes = 0
    for A in matrices:
        n = A.num_cols
        for bound in (1, 2, 3):
            box = build_lattice(A, bound)
            weights = tuple(rng.randint(0, 3) for _ in range(n))
            orders = (MonomialOrder.lex(n), MonomialOrder.grlex(n), MonomialOrder(weights))
            runs = [(box, order) for order in orders]
            runs.append((build_truncated_lattice(A, bound), MonomialOrder.grlex(n)))
            for L, order in runs:
                graver = graver_basis(A, L).elements
                want = [
                    b for b in binomials_from_vectors(graver, order)
                    if in_reduced_gb(A, L, order, b)
                ]
                got = reduced_groebner_basis(A, L, order).elements
                assert list(got) == want, (A.to_dense(), L.kind, bound, order)
                cases += 1
                sizes += len(got) if L.kind == "box" else 0
    assert (cases, sizes) == (480, 520)  # not a vacuous check: 520 box-basis elements


def test_degree_bound_covers_the_negative_part():
    A = SparseIntMatrix.from_dense([[1, 2]])
    # (-2, 1): positive part of degree 1, negative part of degree 2
    with pytest.raises(BoundExceeded):
        in_graver(A, build_truncated_lattice(A, 1), (-2, 1))
    assert in_graver(A, build_truncated_lattice(A, 2), (-2, 1))
