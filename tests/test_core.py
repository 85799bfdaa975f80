import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbases import (
    Binomial,
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    ideal_membership,
    matrix_from_text,
    matrix_to_text,
)
from toricbases.core import (
    as_vector,
    conformal_leq,
    in_row_space,
    infinity_norm,
    is_nonnegative,
    negative_part,
    one_norm,
    positive_part,
    vector_add,
    weight_vector,
)
from toricbases.graphs import Graph, edge_list_from_text, eliminate
from toricbases.lattice import build_lattice, build_truncated_lattice, shift_box
from toricbases.normalform import normal_form_bounded, polynomial_normal_form
from toricbases.oracle import two_by_two_minors_matrix

from graph_helpers import path_graph


def test_compare_lex_first_negative_entry():
    order = MonomialOrder.lex(2)
    assert order.compare((0, 1), (1, 0)) == -1
    assert order.compare((1, 0), (0, 1)) == 1


def test_compare_weight_dominates():
    order = MonomialOrder((1, 1))
    assert order.compare((2, 0), (0, 1)) == 1


def test_compare_reflexive():
    order = MonomialOrder((3, 0, 7))
    for v in [(0, 0, 0), (1, 2, 3), (5, 0, 1)]:
        assert order.compare(v, v) == 0


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MonomialOrder.lex(2).compare((1, 0, 0), (0, 1))


def test_order_key_examples():
    assert MonomialOrder((1, 1)).key((2, 0)) == (2, 2, 0)
    assert MonomialOrder.lex(2).key((0, 0)) == (0, 0, 0)


def test_order_key_additive():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        u = tuple(rng.randint(0, 4) for _ in range(n))
        v = tuple(rng.randint(0, 4) for _ in range(n))
        total = tuple(a + b for a, b in zip(u, v))
        assert tuple(
            a + b for a, b in zip(order.key(u), order.key(v))
        ) == order.key(total)


def test_compare_matches_key_comparison_exhaustively():
    order = MonomialOrder((2, 0, 1))
    grid = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for u in grid:
        for v in grid:
            by_key = (order.key(u) > order.key(v)) - (order.key(u) < order.key(v))
            assert order.compare(u, v) == by_key


def test_compare_total_order_on_random_triples():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 4)
        order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(n)))
        u, v, w = (tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3))
        # trichotomy
        assert (order.compare(u, v) == 0) == (u == v)
        assert order.compare(u, v) == -order.compare(v, u)
        # transitivity
        if order.compare(u, v) <= 0 and order.compare(v, w) <= 0:
            assert order.compare(u, w) <= 0


def test_positive_negative_parts():
    rng = random.Random(3)
    for _ in range(200):
        v = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
        pos, neg = positive_part(v), negative_part(v)
        assert all(x >= 0 for x in pos) and all(x >= 0 for x in neg)
        assert tuple(p - q for p, q in zip(pos, neg)) == v
        assert all(p * q == 0 for p, q in zip(pos, neg))


def test_binomial_from_kernel_vector():
    b = Binomial.from_kernel_vector((1, -2, 0, 1))
    assert b.head == (1, 0, 0, 1)
    assert b.tail == (0, 2, 0, 0)
    assert tuple(h - t for h, t in zip(b.head, b.tail)) == (1, -2, 0, 1)


def test_binomial_rejects_degenerate():
    with pytest.raises(ValueError):
        Binomial((1, 0), (1, 0))
    with pytest.raises(ValueError):
        Binomial((-1, 0), (0, 0))


def test_ideal_membership_single_row():
    A = SparseIntMatrix.from_dense([[1, 1]])
    assert ideal_membership(A, [(1, (1, 0)), (-1, (0, 1))])
    assert not ideal_membership(A, [(1, (1, 0)), (1, (0, 1))])


def test_ideal_membership_k22_minor(k22):
    # columns are ordered x11, x21, x12, x22; the minor is x11*x22 - x21*x12
    assert ideal_membership(k22, [(1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0))])


def test_ideal_membership_kernel_vectors_random():
    rng = random.Random(23)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        entries = []
        for i in range(m):
            cols = rng.sample(range(n), rng.randint(1, n))
            entries.extend((i, j, rng.choice([-2, -1, 1, 2])) for j in cols)
        A = SparseIntMatrix(m, n, entries)
        # search a small kernel vector
        found = None
        import itertools

        for v in itertools.product(range(-2, 3), repeat=n):
            if any(v) and not any(A.apply(v)):
                found = v
                break
        if found is not None:
            assert ideal_membership(
                A, [(1, positive_part(found)), (-1, negative_part(found))]
            )
        bad = tuple(rng.randint(0, 2) for _ in range(n))
        if any(A.apply(bad)):
            assert not ideal_membership(A, [(1, bad), (-1, (0,) * n)])


def test_matrix_invariants():
    A = SparseIntMatrix.from_dense([[1, 0, -2], [0, 3, 0]])
    assert A.max_abs == 3
    assert repr(A) == "SparseIntMatrix(2x3, 3 nonzeros)"
    # one value however the entries are listed, and none for other shapes
    B = SparseIntMatrix(2, 3, [(1, 1, 3), (0, 2, -2), (0, 0, 1)])
    assert B == A and hash(B) == hash(A)
    assert SparseIntMatrix(3, 3, [(1, 1, 3), (0, 2, -2), (0, 0, 1)]) != A
    assert A.apply((1, 1, 1)) == (-1, 3)
    assert A.transpose().to_dense() == [[1, 0], [0, 3], [-2, 0]]


def test_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [(0, 0, 1), (0, 0, 2)])
    with pytest.raises(ValueError):
        SparseIntMatrix(1, 2, [(0, 5, 1)])


def test_matrix_zero_row_policy():
    text = "2 2\n1 1\n0 0\n"
    with pytest.raises(ValueError):
        matrix_from_text(text)
    with pytest.warns(UserWarning):
        A = matrix_from_text(text, drop_zero_rows=True)
    assert A.num_rows == 1
    # the in-memory type itself may hold zero rows
    B = SparseIntMatrix.from_dense([[1, 1], [0, 0]])
    assert B.zero_rows() == [1]
    assert B.without_zero_rows().num_rows == 1


def test_matrix_text_round_trip_dense_and_sparse():
    # the sparse form exactly when fewer than a quarter of the entries are
    # nonzero: 12 of 30 for the minors, 5 of 25 for the identity
    dense = two_by_two_minors_matrix(2, 3)
    sparse = SparseIntMatrix.from_dense([[int(i == j) for j in range(5)] for i in range(5)])
    for A, header in ((dense, "5 6"), (sparse, "sparse 5 5 5")):
        text = matrix_to_text(A)
        assert text.splitlines()[0] == header
        assert matrix_from_text(text) == A


def test_matrix_and_edge_list_skip_the_same_comment_lines():
    # a comment line may be indented, in either text form and in an edge list
    comments = "# a comment\n  # indented\n\t#tab\n\n"
    dense = "2 3\n" + comments + "1 1 1\n   # between rows\n0 1 2\n"
    sparse = comments + "sparse 2 3 4\n0 0 1\n  # c\n0 1 1\n0 2 1\n1 1 1\n"
    want = SparseIntMatrix.from_dense([[1, 1, 1], [0, 1, 2]])
    assert matrix_from_text(dense) == want
    assert matrix_from_text(sparse) == SparseIntMatrix.from_dense([[1, 1, 1], [0, 1, 0]])
    assert edge_list_from_text(comments + "0 1\n  # c\n1 2\n").edges == {(0, 1), (1, 2)}


def test_matrix_text_parse_errors():
    with pytest.raises(ValueError):
        matrix_from_text("")
    with pytest.raises(ValueError):
        matrix_from_text("2 2\n1 1\n")
    with pytest.raises(ValueError):
        matrix_from_text("sparse 2 2 1\n0 0 1\n0 1 1\n")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: vector_add((1, 2), (1,)), DimensionMismatch, "vector lengths differ: 2 vs 1"),
        (lambda: conformal_leq((1, 2, 3), (1,)), DimensionMismatch, "vector lengths differ: 3 vs 1"),
        (lambda: SparseIntMatrix(-1, 2, []), ValueError, "matrix dimensions must be nonnegative"),
        (lambda: SparseIntMatrix.from_dense([[1, 2], [1]]), ValueError, "ragged dense matrix"),
        (lambda: SparseIntMatrix.from_dense([[1, 2]]).apply((1,)), DimensionMismatch, "expected length 2, got 1"),
        (lambda: matrix_from_text("sparse 1 2\n0 0 1\n"), ValueError, "sparse header must be 'sparse m n k'"),
        (lambda: matrix_from_text("1 2 3\n1 1\n"), ValueError, "dense header must be 'm n'"),
        (lambda: matrix_from_text("1 2\n1 1 1\n"), ValueError, "expected 2 columns, found 3"),
        (lambda: MonomialOrder((1, -1)), ValueError, "order weights must be nonnegative"),
        (lambda: weight_vector((1,), 2, 2), DimensionMismatch, "weights length 1, expected 2"),
        (lambda: Binomial((1, 0), (0,)), DimensionMismatch, "head and tail lengths differ"),
        (lambda: ideal_membership(SparseIntMatrix.from_dense([[1, 1]]), [(1, (1, -1))]),
         ValueError, "exponents must be nonnegative"),
        (lambda: in_row_space(SparseIntMatrix.from_dense([[1, 1]]), (1,), (0, 1)),
         DimensionMismatch, "expected length 2, got 1"),
        (lambda: in_row_space(SparseIntMatrix.from_dense([[1, 1]]), (1, 1), (0,)),
         ValueError, "order must be a permutation of the columns"),
        (lambda: in_row_space(SparseIntMatrix.from_dense([[1, 1]]), (1, 1), (0, 2)),
         ValueError, "order must be a permutation of the columns"),
        (lambda: in_row_space(SparseIntMatrix.from_dense([[1, 1]]), (2, 2), (0, 0, 1)),
         ValueError, "order must be a permutation of the columns"),
        (lambda: in_row_space(SparseIntMatrix.from_dense([[1, 1]]), (2, 2), (1, 0, 1)),
         ValueError, "order must be a permutation of the columns"),
    ],
    ids=["vector-add", "conformal-leq", "negative-dimensions", "ragged", "apply-length",
         "sparse-header", "dense-header", "column-count", "negative-weight", "weight-vector-length",
         "binomial-lengths", "membership-negative", "row-space-length", "row-space-short-order",
         "row-space-bad-order", "row-space-repeat-0", "row-space-repeat-1"],
)
def test_core_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_in_row_space_is_the_rational_span():
    # (1, 1, 1) is half the row: a rational combination and no integer one
    A = SparseIntMatrix.from_dense([[2, 2, 2]])
    for order in itertools.permutations(range(3)):
        assert in_row_space(A, (1, 1, 1), order)
        assert not in_row_space(A, (1, 1, 0), order)
    # the second row leads where the first does, with 3 against the pivot 2,
    # which does not divide it: the row is scaled before it is reduced
    A = SparseIntMatrix.from_dense([[2, 1, 0], [3, 0, 1]])
    assert in_row_space(A, (5, 1, 1), range(3))
    assert in_row_space(A, (1, 2, -1), range(3))  # twice the first row less the second
    assert not in_row_space(A, (1, 1, 1), range(3))


def test_non_integral_inputs_raise_type_error():
    # int() would truncate these silently: 1.9 became 1
    A = SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]])
    L = build_lattice(A, 2)
    grlex = MonomialOrder.grlex(4)
    calls = [
        lambda: as_vector((1, 2.0)),
        lambda: SparseIntMatrix(1, 2, [(0, 0, 1.5)]),
        lambda: SparseIntMatrix(1, 2, [(0, 1.0, 1)]),
        lambda: SparseIntMatrix.from_dense([[1.5, 1]]),
        lambda: MonomialOrder((0.5, 1)),
        lambda: Graph.from_edges(3, [(0, 1.0)]),
        lambda: eliminate(path_graph(3), (0, 1, 2.0)),
        lambda: build_lattice(A, 2, (0, 1, 2, 3.0)),
        lambda: build_truncated_lattice(A, 2, (0.0, 1, 2, 3)),
        lambda: normal_form_bounded(A, L, grlex, (1.9, 0, 1, 0)),
        lambda: polynomial_normal_form(A, L, grlex, [(1.5, (1, 0, 1, 0))]),
        lambda: ideal_membership(A, [(0.5, (1, 0, 0, 0)), (-0.5, (1, 0, 0, 0))]),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    # numpy integers and bools are integers
    assert SparseIntMatrix.from_dense(np.array([[1, 2], [3, 4]])).to_dense() == [[1, 2], [3, 4]]
    assert as_vector(np.arange(3)) == (0, 1, 2)
    assert MonomialOrder((True, np.int64(2))).weights == (1, 2)
    assert Graph.from_edges(2, [(np.int64(0), True)]).edges == {(0, 1)}
    assert build_lattice(A, 2, np.arange(4)).count() == L.count()
    assert polynomial_normal_form(A, L, grlex, [(np.int64(2), (1, 0, 1, 0))]) == [(2, (0, 2, 0, 0))]


# small entries, so that whole vectors are often nonnegative, and big ones
ENTRIES = st.integers(-2, 4) | st.integers(-(10**30), 10**30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(ENTRIES, max_size=8), st.data())
def test_vector_helpers_match_their_definitions(u, data):
    # the helpers written with builtins against their plain definitions,
    # on tuples and lists, the empty vector among them
    v = data.draw(st.lists(ENTRIES, min_size=len(u), max_size=len(u)))
    for a, b in ((u, v), (tuple(u), tuple(v))):
        assert vector_add(a, b) == tuple(x + y for x, y in zip(a, b))
        assert infinity_norm(a) == max([abs(x) for x in a], default=0)
        assert one_norm(a) == sum(abs(x) for x in a)
        assert is_nonnegative(a) == all(x >= 0 for x in a)
        assert shift_box(a) == (tuple(-x for x in a), None)
