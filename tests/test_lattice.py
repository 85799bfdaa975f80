import gc
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbases import (
    BudgetExceeded,
    MonomialOrder,
    SparseIntMatrix,
    build_lattice,
    build_truncated_lattice,
    graver_basis,
    graver_infinity_bound,
    normal_form_bounded,
)
from toricbases import lattice as lattice_module
from toricbases.core import DimensionMismatch
from toricbases.graphs import Graph, cycle_graph
from toricbases.lattice import conformal_box, shift_box
from toricbases.oracle import (
    enumerate_kernel,
    incidence_matrix,
    random_sparse_matrix,
    two_by_two_minors_matrix,
)
from toricbases.reductions import ip_to_normalform, vertex_cover_ip

from conftest import TWISTED_CUBIC_GRAVER
from graph_helpers import ladder_graph
from lattice_invariants import InvariantError, validate
from sweep_reference import reference_count, reference_iterate, reference_minimize


def oracle_truncated(A, d):
    return frozenset(
        v
        for v in enumerate_kernel(A, d)
        if sum(x for x in v if x > 0) <= d and sum(-x for x in v if x < 0) <= d
    )


def random_instances(count, seed, max_m=3, max_n=5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, max_m), rng.randint(2, max_n)
        A = random_sparse_matrix(m, n, 2, 0.3 + 0.3 * rng.random(), rng.randrange(2**30))
        out.append(A)
    return out


def test_graver_infinity_bound_values():
    assert graver_infinity_bound(SparseIntMatrix.from_dense([[1, -1]])) == 3
    A = SparseIntMatrix.from_dense([[3, 1, 2], [1, -3, 1]])
    assert graver_infinity_bound(A) == 13**2
    zero = SparseIntMatrix(0, 3, [])
    assert graver_infinity_bound(zero) == 1


def test_single_row_diagonal_kernel():
    A = SparseIntMatrix.from_dense([[1, -1]])
    L = build_lattice(A, 1)
    assert sorted(L.iterate()) == [(-1, -1), (0, 0), (1, 1)]


def test_single_row_antidiagonal_kernel():
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2)
    assert frozenset(L.iterate()) == {
        (0, 0),
        (1, -1),
        (-1, 1),
        (2, -2),
        (-2, 2),
    }


def test_twisted_cubic_matches_oracle(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    assert frozenset(L.iterate()) == enumerate_kernel(twisted_cubic, 3)


def test_zero_rows_constrain_nothing():
    # vertex 2 is isolated, so its incidence row is zero; the kernel is that
    # of the matrix without the row
    A = incidence_matrix(Graph.from_edges(5, [(0, 1), (1, 3), (3, 4), (4, 0), (0, 3)]))
    assert A.zero_rows() == [2]
    rng = random.Random(5)
    probes = set(enumerate_kernel(A, 3))
    probes.update(tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(100))
    for L, want in (
        (build_lattice(A, 2), enumerate_kernel(A, 2)),
        (build_truncated_lattice(A, 2), oracle_truncated(A, 2)),
    ):
        validate(L)
        assert L.count() == len(want)
        vectors = list(L.iterate())
        assert len(vectors) == len(set(vectors)) and set(vectors) == want
        for v in probes:
            assert L.contains(v) == (v in want)


def test_count_examples():
    A = SparseIntMatrix.from_dense([[1, -1]])
    assert build_lattice(A, 5).count() == 11
    # trivial kernel keeps only the zero vector
    B = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
    assert build_lattice(B, 2).count() == 1


def test_count_equals_iteration_length(twisted_cubic):
    for g in (1, 2, 3):
        L = build_lattice(twisted_cubic, g)
        assert L.count() == sum(1 for _ in L.iterate())


def test_contains_basics(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    assert L.contains((0, 0, 0, 0))
    assert L.contains((1, -2, 1, 0))
    assert not L.contains((3, 0, 0, 0))  # outside the box
    assert not L.contains((1, 1, 1, 1))  # not in the kernel
    with pytest.raises(DimensionMismatch):
        L.contains((0, 0))


def test_build_matches_oracle_on_random_instances():
    rng = random.Random(41)
    for A in random_instances(40, seed=41):
        g = rng.randint(1, 3)
        L = build_lattice(A, g)
        validate(L)
        assert frozenset(L.iterate()) == enumerate_kernel(A, g), (A.to_dense(), g)


def test_kernel_symmetry_random():
    for A in random_instances(10, seed=43):
        L = build_lattice(A, 2)
        elements = frozenset(L.iterate())
        assert elements == frozenset(tuple(-x for x in v) for v in elements)


def test_stored_rows_within_bound_random():
    rng = random.Random(47)
    for A in random_instances(30, seed=47):
        g = rng.randint(1, 3)
        L = build_lattice(A, g)
        bound = A.num_cols * (2 * g + 1) ** L.realized_clique_number
        assert L.total_rows() <= bound


def test_truncated_stored_rows_within_bound_random():
    # three variables per column and the realized clique of the extended graph
    rng = random.Random(49)
    for A in random_instances(20, seed=49):
        d = rng.randint(1, 3)
        L = build_truncated_lattice(A, d)
        bound = 3 * A.num_cols * (2 * d + 1) ** L.realized_clique_number
        assert L.total_rows() <= bound


def test_truncated_examples():
    # kernel of (1 1) is spanned by (1, -1), whose parts have degree 1 each
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_truncated_lattice(A, 1)
    assert frozenset(L.iterate()) == {(0, 0), (1, -1), (-1, 1)}
    assert frozenset(build_truncated_lattice(A, 0).iterate()) == {(0, 0)}
    # the diagonal kernel of (1 -1) needs degree 2 for its first nonzero point
    B = SparseIntMatrix.from_dense([[1, -1]])
    assert frozenset(build_truncated_lattice(B, 1).iterate()) == {(0, 0)}
    assert frozenset(build_truncated_lattice(B, 2).iterate()) == {
        (0, 0),
        (1, 1),
        (-1, -1),
    }


def test_truncated_matches_filter_on_twisted_cubic(twisted_cubic):
    for d in (1, 2, 3):
        L = build_truncated_lattice(twisted_cubic, d)
        validate(L)
        assert frozenset(L.iterate()) == oracle_truncated(twisted_cubic, d)


def test_truncated_matches_filter_random():
    rng = random.Random(53)
    for A in random_instances(25, seed=53):
        d = rng.randint(1, 4)
        L = build_truncated_lattice(A, d)
        assert frozenset(L.iterate()) == oracle_truncated(A, d), (A.to_dense(), d)


def test_truncated_contains_checks_degree(twisted_cubic):
    L = build_truncated_lattice(twisted_cubic, 2)
    assert L.contains((1, -2, 1, 0))
    assert not L.contains((2, -3, 0, 1))  # positive part has degree 3
    # only the negative part exceeds the bound
    A = SparseIntMatrix.from_dense([[1, 2]])
    assert not build_truncated_lattice(A, 1).contains((-2, 1))
    assert build_truncated_lattice(A, 2).contains((-2, 1))


def in_box(v, box):
    lo, hi = box
    return all(l <= x <= h for x, l, h in zip(v, lo, hi))


def check_box_queries(L, everything, order, box):
    want = [v for v in everything if in_box(v, box)]
    assert L.count(box) == len(want)
    assert L.minimize(order, box) == (min(want, key=order.key) if want else None)


def test_restrict_shift_nonneg(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    everything = frozenset(L.iterate())
    order = MonomialOrder.grlex(4)
    # shifting by the bound changes nothing
    assert L.count(shift_box((3, 3, 3, 3), 3)) == len(everything)
    # the all-ones row leaves no nonzero nonnegative kernel vector
    assert L.count(shift_box((0, 0, 0, 0), 3)) == 1
    assert L.minimize(order, shift_box((0, 0, 0, 0), 3)) == (0, 0, 0, 0)
    for u in ((0, 1, 0, 1), (1, 0, 0, 1), (2, 0, 1, 3)):
        check_box_queries(L, everything, order, shift_box(u, 3))


def test_restrict_conformal(twisted_cubic):
    L = build_lattice(twisted_cubic, 3)
    everything = frozenset(L.iterate())
    assert L.count(conformal_box((0, 0, 0, 0))) == 1
    for z in TWISTED_CUBIC_GRAVER:
        assert L.count(conformal_box(z)) == 2
    # twice a Graver element sits above it and its double
    assert L.count(conformal_box((2, -2, -2, 2))) == 3
    for z in ((2, -3, 0, 1), (3, -3, -3, 3), (-1, 2, -3, 2)):
        check_box_queries(L, everything, MonomialOrder.lex(4), conformal_box(z))


def test_minimize_matches_oracle(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    elements = list(L.iterate())
    rng = random.Random(67)
    for _ in range(10):
        order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(4)))
        want = min(elements, key=order.key)
        assert L.minimize(order) == want
    # columns spread over 2g need the radix 2g + 1: with radix 2g the lex key
    # of (-1, 1, -1, 0) ties with that of the true minimum (-1, 0, 1, 0)
    A = SparseIntMatrix.from_dense([[1, 2, 1, 1], [0, 0, 0, -1]])
    L = build_lattice(A, 1)
    assert L.minimize(MonomialOrder.lex(4), shift_box((1, 1, 1, 1), 1)) == (-1, 0, 1, 0)


def test_minimize_on_singleton():
    A = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
    L = build_lattice(A, 1)
    assert L.minimize(MonomialOrder.lex(2)) == (0, 0)
    assert L.count() == 1


def test_minimize_on_emptied_lattice(twisted_cubic):
    order = MonomialOrder.grlex(4)
    for L in (build_lattice(twisted_cubic, 2), build_truncated_lattice(twisted_cubic, 2)):
        # an empty interval in column 0, and a box missing every kernel vector
        for box in (((1, -2, -2, -2), (0, 2, 2, 2)), ((1, 1, 1, 1), (2, 2, 2, 2))):
            assert L.minimize(order, box) is None
            assert L.count(box) == 0


TWISTED_CUBIC = SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]])
BLOCK_DIAGONAL = SparseIntMatrix.from_dense([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 2, -1]])


@pytest.mark.parametrize(
    "A, kind, bound",
    [
        (TWISTED_CUBIC, "box", 0),
        (TWISTED_CUBIC, "degree", 0),
        (BLOCK_DIAGONAL, "box", 2),
        (BLOCK_DIAGONAL, "degree", 2),
        (SparseIntMatrix(1, 0, []), "box", 2),
        (SparseIntMatrix(1, 0, []), "degree", 2),
    ],
)
def test_minimize_decodes_edge_cases(A, kind, bound):
    # bound 0 (radix 1), a forest of several roots whose aggregates are
    # summed, and no columns at all (an empty vector from no digits); the
    # enumeration multiplies the same root aggregates
    n = A.num_cols
    if kind == "box":
        L, elements = build_lattice(A, bound), enumerate_kernel(A, bound)
    else:
        L, elements = build_truncated_lattice(A, bound), oracle_truncated(A, bound)
    assert sorted(L.iterate()) == sorted(elements)
    if A is BLOCK_DIAGONAL and kind == "box":
        assert len(L._roots) >= 2
    u = tuple(j % 3 for j in range(n))
    orders = (
        MonomialOrder.lex(n),
        MonomialOrder.grlex(n),
        MonomialOrder(tuple((3 * j + 1) % 4 for j in range(n))),
    )
    for order in orders:
        for box in (None, shift_box(u, bound)):
            inside = [
                v for v in elements if box is None or all(l <= x <= h for l, h, x in zip(*box, v))
            ]
            assert L.minimize(order, box) == min(inside, key=order.key, default=None)


def test_refiltered_nonempty_subset(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    box = ((1, -2, -2, -2), (2, 2, 2, 2))
    want = [v for v in L.iterate() if v[0] >= 1]
    assert L.count(box) == len(want) > 0
    order = MonomialOrder.lex(4)
    assert L.minimize(order, box) == min(want, key=order.key)


def test_box_dimension_mismatch(twisted_cubic):
    L = build_lattice(twisted_cubic, 2)
    with pytest.raises(DimensionMismatch):
        L.count(((0, 0), (0, 0)))
    with pytest.raises(DimensionMismatch):
        L.minimize(MonomialOrder.lex(3))


@st.composite
def lattice_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    kind = draw(st.sampled_from(["box", "degree"]))
    bound = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    column = st.integers(-bound, bound)
    u = draw(st.lists(st.integers(0, bound), min_size=n, max_size=n))
    z = draw(st.lists(column, min_size=n, max_size=n))
    lo = tuple(draw(st.lists(column, min_size=n, max_size=n)))
    hi = tuple(draw(st.lists(column, min_size=n, max_size=n)))
    boxes = (shift_box(u, bound), conformal_box(z), (lo, hi), *draw(side_boxes(n, bound)))
    return SparseIntMatrix.from_dense(rows), kind, bound, MonomialOrder(tuple(weights)), boxes


@st.composite
def side_boxes(draw, n, bound):
    """Boxes whose sides sit at the bound in every column, in every column but
    one, or partly beyond it: a side at the bound cuts no stored row, and a
    side one column short of it may."""
    column = st.integers(-bound, bound)
    lo = tuple(draw(st.lists(column, min_size=n, max_size=n)))
    hi = tuple(draw(st.lists(column, min_size=n, max_size=n)))
    k = draw(st.integers(0, n - 1))
    inner = draw(st.integers(-bound, bound - 1))
    low, high = (-bound,) * n, (bound,) * n
    beyond = st.lists(st.integers(-bound - 2, bound + 2), min_size=n, max_size=n)
    return (
        (low, high),  # both sides at the bound
        (lo, high[:k] + (inner,) + high[k + 1 :]),  # hi at the bound but in column k
        (low, hi),  # lo at the bound
        (low[:k] + (-inner,) + low[k + 1 :], hi),  # lo at the bound but in column k
        (tuple(draw(beyond)), tuple(draw(beyond))),  # sides beyond the bound
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
def test_box_queries_match_oracle(case):
    A, kind, bound, order, boxes = case
    if kind == "box":
        L, everything = build_lattice(A, bound), enumerate_kernel(A, bound)
    else:
        L, everything = build_truncated_lattice(A, bound), oracle_truncated(A, bound)
    assert L.count() == len(everything)
    assert L.minimize(order) == min(everything, key=order.key)
    for box in boxes:
        check_box_queries(L, everything, order, box)


def test_sweep_plan_matches_tuple_keyed_reference():
    # the integer-indexed sweep against the tuple-keyed one it replaced, with
    # no box, a shift box, a conformal box, an arbitrary box, boxes with a
    # side at the bound, at it but in one column, or beyond it, and an empty
    # one
    widening = []  # per case, whether a parent row joins several child rows

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(lattice_cases())
    def check(case):
        A, kind, bound, order, boxes = case
        L = build_lattice(A, bound) if kind == "box" else build_truncated_lattice(A, bound)
        n = A.num_cols
        empty = ((bound,) + (-bound,) * (n - 1), (-bound,) * n)
        for box in (None, *boxes, empty):
            assert L.count(box) == reference_count(L, box)
            assert L.minimize(order, box) == reference_minimize(L, order, box)
        # the list sweep enumerates in the depth-first walk's order
        assert list(L.iterate()) == reference_iterate(L)
        if kind == "degree":
            # the root clique, the last counter alone, always folds into its
            # child, so every degree case sweeps a bag with several intros
            assert len(L._bags[-1].intros) > 1
        # a child with more rows than keys gives some parent row several
        widening.append(any(len(b.key_ids) > b.num_keys for b in L._bags if b.parent is not None))

    check()
    assert any(widening)


# two bags: a child of 19 rows under 5 separator keys, and a root of 19 rows
TWO_BAGS = SparseIntMatrix.from_dense([[1, -1, 1, 0, 0, 0], [0, 1, -1, 1, 0, 0], [0, 0, 0, 1, -1, 1]])


def pinned_box(L, pins):
    """The box that fixes the columns in ``pins`` and leaves the others free."""
    lo, hi = [-L.bound] * L.num_columns, [L.bound] * L.num_columns
    for var, (l, h) in pins.items():
        lo[var], hi[var] = l, h
    return tuple(lo), tuple(hi)


def picked_rows(L, bag, box):
    return list(bag.selection(*box, L._row_numbers)(range(len(bag.key_ids))))


def test_box_picks_the_rows_it_keeps():
    # each bag under boxes that keep no row, its first row, its last row, a
    # run of rows, scattered rows and every row; the queries against the
    # tuple-keyed sweep, which filters row by row
    L = build_lattice(TWO_BAGS, 2)
    child, root = L._bags
    assert (child.num_keys, root.num_keys, root.children) == (5, 1, [0])
    orders = (MonomialOrder.lex(6), MonomialOrder.grlex(6), MonomialOrder((2, 0, 1, 3, 0, 1)))
    for bag in (child, root):
        rows = list(zip(*bag.table))
        # a child's rows of one key are a run, and so are a root's rows of
        # one value of its last intro, which sorts them first
        run_var = bag.sep[0] if bag.sep else bag.intros[-1]

        def run(kept):
            return len(kept) > 1 and kept[-1] - kept[0] == len(kept) - 1

        cases = [
            ({bag.intros[0]: (2, -2)}, lambda kept: kept == []),
            (dict(zip(bag.scope, zip(rows[0], rows[0]))), lambda kept: kept == [0]),
            (dict(zip(bag.scope, zip(rows[-1], rows[-1]))), lambda kept: kept == [len(rows) - 1]),
            ({run_var: (0, 0)}, run),
            ({bag.intros[1]: (0, 0)}, lambda kept: len(kept) > 1 and not run(kept)),
            ({}, lambda kept: len(kept) == len(rows)),
        ]
        for pins, shape in cases:
            box = pinned_box(L, pins)
            lo, hi = box
            kept = [
                r for r, row in enumerate(rows) if all(lo[v] <= x <= hi[v] for v, x in zip(bag.scope, row))
            ]
            assert shape(kept)
            assert picked_rows(L, bag, box) == kept
            for order in orders:
                assert L.count(box) == reference_count(L, box)
                assert L.minimize(order, box) == reference_minimize(L, order, box)
            if not kept:  # every row of a bag dropped: nothing is represented
                assert L.count(box) == 0 and L.minimize(orders[0], box) is None


def test_count_under_a_box_on_a_leaf_bag():
    # one bag with no children, the root: its count is the rows the box keeps
    L = build_lattice(two_by_two_minors_matrix(2, 3), 2)
    (bag,) = L._bags
    assert not bag.children and len(bag.key_ids) == 19
    u = (1, 0, 2, 0, 1, 1)
    boxes = [shift_box(u, 2), conformal_box((1, -1, 0, -1, 1, 0)), pinned_box(L, {0: (2, -2)})]
    for box in boxes:
        rows = picked_rows(L, bag, box)
        assert L.count(box) == len(rows) == reference_count(L, box)
    assert L.count(pinned_box(L, {})) == 19 == L.count()


def test_a_root_that_keeps_no_row_empties_the_box():
    # BLOCK_DIAGONAL's two blocks are two root bags.  Pinning two columns of
    # one block to 2 forces its third out of range, so that root keeps no
    # row, while the other keeps every row.  The other block's lex minimum
    # has a negative key, so the sum of the root aggregates lies in (M, 2M]:
    # only a check of the whole sum against M finds the box empty
    L = build_lattice(BLOCK_DIAGONAL, 2)
    blocks = [bag.intros for bag in L._bags]
    assert blocks == [(0, 1, 2), (3, 4, 5)] and L._roots == (0, 1)
    orders = (MonomialOrder.lex(6), MonomialOrder.grlex(6), MonomialOrder((0, 1, 2, 0, 3, 1)))
    for dropped, kept in ((0, 1), (1, 0)):
        box = pinned_box(L, dict.fromkeys(blocks[dropped][:2], (2, 2)))
        assert picked_rows(L, L._bags[dropped], box) == []
        assert len(picked_rows(L, L._bags[kept], box)) == len(L._bags[kept].key_ids)
        assert L.count(box) == 0 == reference_count(L, box)
        for order in orders:
            assert L.minimize(order, box) is None
        # the kept block alone: its lex minimum's first nonzero entry is negative
        alone = pinned_box(L, dict.fromkeys(blocks[dropped], (0, 0)))
        least = L.minimize(orders[0], alone)
        assert next(x for x in least if x) < 0


def test_a_box_that_keeps_every_row_picks_the_stored_tuples(monkeypatch):
    # no box is the bound box, and it, like any box that keeps every row,
    # reads each stored per-row tuple itself, with no copy
    lattices = [
        build_lattice(TWO_BAGS, 2),
        build_lattice(BLOCK_DIAGONAL, 2),
        build_truncated_lattice(BLOCK_DIAGONAL, 2),
        build_truncated_lattice(TWISTED_CUBIC, 3),
    ]
    picks = []
    selection = lattice_module._Bag.selection

    def recorded(bag, lo, hi, numbers):
        pick = selection(bag, lo, hi, numbers)
        picks.append((bag, pick))
        return pick

    monkeypatch.setattr(lattice_module._Bag, "selection", recorded)
    for L in lattices:
        wide = ((-L.bound - 1,) * L.num_columns, (L.bound + 1,) * L.num_columns)
        everything = len(list(L.iterate()))
        for query in (L.count, lambda: L.count(pinned_box(L, {})), lambda: L.count(wide)):
            picks.clear()
            assert query() == everything
            assert [bag for bag, _ in picks] == L._bags
            for bag, pick in picks:
                children = [L._bags[c].up for c in bag.children]
                for seq in (bag.key_ids, *bag.table, *children):
                    assert type(seq) is tuple and pick(seq) is seq


@pytest.mark.parametrize("bound", [1, 2])
def test_minimize_decodes_many_columns(bound):
    # 200 columns: the decode splits the digits by halving, down to parts of
    # at most 16 digits; no box, shift boxes and conformal boxes
    n = 200
    C = incidence_matrix(cycle_graph(n))
    L = build_lattice(C, bound)
    rng = random.Random(211 + bound)
    for _ in range(4):
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        u = tuple(rng.randint(0, bound) for _ in range(n))
        z = tuple(rng.randint(-bound, bound) for _ in range(n))
        for box in (None, shift_box(u, bound), conformal_box(z)):
            want = reference_minimize(L, order, box)
            assert L.minimize(order, box) == want
        # one of +-alt, no zero digit, beats 0 under every order
        assert 0 not in L.minimize(order)


def test_minimize_interleaves_orders_on_one_lattice():
    # the ties are built once per lattice and serve every order: lex, grlex
    # and random weights in turn on one lattice, twice over, against the
    # tuple-keyed sweep, which builds c afresh for each call
    kinds = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lattice_cases(), st.data())
    def check(case, data):
        A, kind, bound, order, (shift, conformal, *_) = case
        L = build_lattice(A, bound) if kind == "box" else build_truncated_lattice(A, bound)
        n = A.num_cols
        weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        orders = [MonomialOrder.lex(n), MonomialOrder.grlex(n), order, MonomialOrder(tuple(weights))]
        orders = data.draw(st.permutations(orders))
        empty = ((bound,) + (-bound,) * (n - 1), (-bound,) * n)
        for _ in range(2):
            for order in orders:
                for box in (shift, conformal, empty):
                    assert L.minimize(order, box) == reference_minimize(L, order, box)
        kinds.add(kind)

    check()
    assert kinds == {"box", "degree"}


def test_minimize_returns_zero_with_no_decode(monkeypatch):
    # a sum of 0 is the zero vector alone, as |t(v)| <= (r^n - 1) / 2: at
    # bound 0 and under boxes that keep only 0, under every order, no digit
    # is decoded
    def refuse(*args):
        raise AssertionError("the zero vector was decoded")

    monkeypatch.setattr(lattice_module, "_digits", refuse)
    cycle = incidence_matrix(cycle_graph(8))
    cases = [
        (build_lattice(TWISTED_CUBIC, 0), None),
        (build_lattice(TWISTED_CUBIC, 0), shift_box((1, 0, 2, 0), 0)),
        (build_truncated_lattice(TWISTED_CUBIC, 0), None),
        # the row of ones leaves no nonnegative move but 0
        (build_lattice(TWISTED_CUBIC, 2), shift_box((0, 0, 0, 0), 2)),
        (build_truncated_lattice(BLOCK_DIAGONAL, 2), conformal_box((0,) * 6)),
        # +-alt each need a 1 where u has a 0: the long-build cycle's usual jump
        (build_lattice(cycle, 1), shift_box((1,) + (0,) * 7, 1)),
    ]
    for L, box in cases:
        n = L.num_columns
        for order in (MonomialOrder.lex(n), MonomialOrder.grlex(n), MonomialOrder(tuple(range(n)))):
            assert L.minimize(order, box) == (0,) * n == reference_minimize(L, order, box)


def test_ties_are_built_at_the_first_minimize():
    # builds and the count, iterate and membership queries, and a Graver
    # scan, leave minimize's table unbuilt; the first minimize builds it,
    # per bag one int per stored row, the row's x_j r^(n-1-j) summed over
    # the bag's introduced columns (counters weigh 0), and later calls reuse it
    for L in (build_lattice(BLOCK_DIAGONAL, 2), build_truncated_lattice(TWISTED_CUBIC, 3)):
        n, r = L.num_columns, 2 * L.bound + 1
        L.count()
        list(L.iterate())
        assert (0,) * n in L
        if L.kind == "box":
            graver_basis(L.matrix, L)
        assert "_ties" not in vars(L)
        L.minimize(MonomialOrder.lex(n))
        ties = vars(L)["_ties"]
        for bag, tie in zip(L._bags, ties, strict=True):
            rows = zip(*bag.table[: len(bag.intros)])
            want = [sum(x * r ** (n - 1 - v) for v, x in zip(bag.intros, row) if v < n) for row in rows]
            assert list(tie) == want and len(tie) == len(bag.key_ids)
        if L.kind == "degree":
            assert any(v >= n for bag in L._bags for v in bag.intros)
        L.minimize(MonomialOrder.grlex(n), shift_box((1,) * n, L.bound))
        assert vars(L)["_ties"] is ties


@st.composite
def ordered_cases(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    ordering = draw(st.permutations(range(n)))
    return SparseIntMatrix.from_dense(rows), draw(st.integers(0, 3)), tuple(ordering)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ordered_cases())
def test_built_sets_match_oracle_under_any_ordering(case):
    # the bag enumerator forces values and takes candidates from child
    # messages; under every column ordering the represented set is exact
    A, bound, ordering = case
    L = build_lattice(A, bound, ordering)
    validate(L)
    assert sorted(L.iterate()) == sorted(enumerate_kernel(A, bound))
    LT = build_truncated_lattice(A, bound, ordering)
    validate(LT)
    assert sorted(LT.iterate()) == sorted(oracle_truncated(A, bound))


def test_iterate_long_cycle_without_recursion():
    # 2000 bags in one chain: one recursion level per bag would hit the limit
    n = 2000
    C = incidence_matrix(cycle_graph(n))
    # columns are the sorted edges; the edge (k, k+1 mod n) gets sign (-1)^k
    alt = tuple((-1) ** (a if b == a + 1 else b) for a, b in sorted(cycle_graph(n).edges))
    minus_alt = tuple(-x for x in alt)
    L = build_lattice(C, 1)
    # a chain's partial tuples are released level by level: only the root
    # aggregate stays, so the peak is far below every level's lists together
    tracemalloc.start()
    try:
        elements = sorted(L.iterate())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elements == sorted([(0,) * n, alt, minus_alt])
    assert peak < 5 * 2**20
    assert graver_basis(C, L).elements == tuple(sorted([alt, minus_alt]))


def test_long_cycle_sweeps_as_one_bag():
    # each bag of the 1000-cycle holds the three rows of 0 and +-alt, so
    # every absorption keeps three rows and the chain becomes one bag
    n = 1000
    C = incidence_matrix(cycle_graph(n))
    alt = tuple((-1) ** (a if b == a + 1 else b) for a, b in sorted(cycle_graph(n).edges))
    L = build_lattice(C, 1)
    validate(L)
    assert (len(L._bags), L.total_rows(), len(L._bags[0].intros)) == (1, 3, n)
    assert L.realized_clique_number == 3
    rng = random.Random(83)
    for _ in range(10):
        u = tuple(rng.randint(0, 1) for _ in range(n))
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        # the fiber of u is {u + t*alt >= 0}, and t lies in [-1, 1]
        fiber = [tuple(x + t * a for x, a in zip(u, alt)) for t in (-1, 0, 1)]
        want = min((w for w in fiber if min(w) >= 0), key=order.key)
        assert normal_form_bounded(C, L, order, u).normal_exponent == want


def subdivided(base, lengths):
    """The graph with each base edge (a, b) replaced by a path of the given
    number of edges, whose inner vertices have degree 2."""
    edges, fresh = [], 1 + max(max(edge) for edge in base)
    for (a, b), k in zip(base, lengths):
        path = [a, *range(fresh, fresh + k - 1), b]
        fresh += k - 1
        edges += zip(path, path[1:])
    return Graph.from_edges(fresh, edges)


def equal_column_groups(L, bag):
    """The bag's groups of two or more equal columns, in scope order."""
    groups = {}
    for var, column in zip(bag.scope, bag.table):
        if var < L.num_columns:
            groups.setdefault(column, []).append(var)
    return [members for members in groups.values() if len(members) > 1]


@st.composite
def twin_cases(draw):
    shape = draw(st.sampled_from(["cycle", "ladder", "theta", "K4"]))
    if shape == "cycle":
        graph = cycle_graph(2 * draw(st.integers(2, 20)))
    elif shape == "ladder":
        graph = ladder_graph(draw(st.integers(2, 5)))
    else:  # chains of degree-2 vertices between hubs of degree 3
        base = [(0, 1)] * 3 if shape == "theta" else list(combinations(range(4), 2))
        lengths = draw(st.lists(st.integers(1, 20), min_size=len(base), max_size=len(base)))
        graph = subdivided(base, lengths)
    g = draw(st.integers(1, 2))
    L = build_lattice(incidence_matrix(graph), g)
    n = L.num_columns
    column = st.integers(-g, g)
    boxes = [shift_box(draw(st.lists(st.integers(0, g), min_size=n, max_size=n)), g)]
    boxes.append(tuple(tuple(draw(st.lists(column, min_size=n, max_size=n))) for _ in range(2)))
    # boxes that narrow some members of a group of equal columns and leave
    # the others, its first among them, free
    groups = [members for bag in L._bags for members in equal_column_groups(L, bag)]
    for _ in range(3 if groups else 0):
        members = draw(st.sampled_from(groups))
        narrowed = draw(st.sets(st.sampled_from(members[1:]), min_size=1))
        lo, hi = [-g] * n, [g] * n
        for var in narrowed:
            lo[var], hi[var] = sorted((draw(column), draw(column)))
        boxes.append((tuple(lo), tuple(hi)))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return L, boxes, MonomialOrder(tuple(weights))


def test_equal_columns_are_boxed_and_weighed_once():
    # columns equal as tuples select the same rows and add w.x through the
    # same values: the box and the leaf read a group of twins once.  The
    # picked rows against a row-by-row filter, the queries against the
    # tuple-keyed sweep, and every vector against the matrix
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(twin_cases())
    def check(case):
        L, boxes, order = case
        A, n = L.matrix, L.num_columns
        vectors = list(L.iterate())
        assert L.count() == len(vectors) and all(not any(A.apply(v)) for v in vectors)
        for box in boxes:
            lo, hi = box
            for bag in L._bags:
                rows = zip(*bag.table)
                kept = [
                    r
                    for r, row in enumerate(rows)
                    if all(lo[v] <= x <= hi[v] for v, x in zip(bag.scope, row) if v < n)
                ]
                assert picked_rows(L, bag, box) == kept
            assert L.count(box) == reference_count(L, box)
            for o in (order, MonomialOrder.lex(n), MonomialOrder.grlex(n)):
                least = L.minimize(o, box)
                assert least == reference_minimize(L, o, box)
                assert least is None or not any(A.apply(least))
        for bag in L._bags:
            seen.add("twins" if bag.twins else "columns")
            seen.add("grouped leaf" if bag.weighing[2] else "column leaf")
            if any(equal_column_groups(L, bag)) and not bag.twins:
                seen.add("shared index")

    check()
    assert seen == {"twins", "columns", "grouped leaf", "column leaf", "shared index"}


def test_equal_columns_index_counts():
    # the 1000-cycle's one bag holds 1,000 columns and 2 distinct ones, x_j =
    # +-x_0: two groups of 500, boxed and weighed once each, in one tuple
    # each.  The 2 x 300 ladder's bags hold 1,494 scope columns and 897
    # distinct ones, in groups too small to box as one.  No two of K_{3,4}
    # g=2's 22 columns are equal
    L = build_lattice(incidence_matrix(cycle_graph(1000)), 1)
    (bag,) = L._bags
    assert bag.columns == () and len(bag.twins) == 2
    assert sorted(len(get(range(1000))) for get, _, _ in bag.twins) == [500, 500]
    table, singles, gets = bag.weighing
    assert (len(table), singles, len(gets)) == (2, (), 2)
    assert len(set(map(id, bag.table))) == 2
    validate(L)
    ladder = build_lattice(incidence_matrix(ladder_graph(300)), 1)
    assert sum(len(bag.scope) for bag in ladder._bags) == 1494
    assert sum(len(set(bag.table)) for bag in ladder._bags) == 897
    assert sum(len(set(map(id, bag.table))) for bag in ladder._bags) == 897
    assert all(bag.twins == () and bag.weighing[2] == () for bag in ladder._bags)
    K = build_lattice(two_by_two_minors_matrix(3, 4), 2)
    assert sum(len(bag.columns) for bag in K._bags) == 22
    assert all(bag.twins == () and bag.weighing[2] == () for bag in K._bags)


def test_build_leaves_no_reference_cycle_of_the_enumerator():
    # the bag enumerator's recursive closure must not keep itself, and with
    # it the bag's tables, alive until the cyclic collector runs
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        build_lattice(two_by_two_minors_matrix(3, 4), 2)
        gc.collect()
        leaked = [f for f in gc.garbage if isinstance(f, FunctionType) and f.__name__ == "descend"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []


def test_validate_requires_maximal_merges(monkeypatch):
    # a build that skips every merge leaves first children the entries rule
    # admits: the chain of the 6-cycle stores three rows in each bag
    C = incidence_matrix(cycle_graph(6))
    monkeypatch.setattr(lattice_module, "_absorbs", lambda *args: False)
    L = build_lattice(C, 1)
    monkeypatch.undo()
    assert len(L._bags) > 1
    with pytest.raises(InvariantError, match="first child not absorbed"):
        validate(L)
    validate(build_lattice(C, 1))


def test_merges_keep_the_unmerged_answers(monkeypatch):
    # the same lattices built with no merge: every merge keeps the order of
    # the vectors, and neither the stored rows nor the table entries grow.
    # Built with no fold, the amalgamation takes every fold itself, from a
    # larger budget estimate: the same order, and on these box lattices the
    # same bags and rows.  (A folded child meets the entries rule as one
    # bag wider than each step it joins, so later merges can differ: 9 of
    # the 40 degree lattices here store more rows folded, and fewer entries.)
    def entries(L):
        return sum(len(bag.scope) * len(bag.key_ids) for bag in L._bags)

    def bags(L):
        return [(b.intros, b.scope, b.parent, b.children, b.table, b.key_ids, b.up) for b in L._bags]

    rng = random.Random(89)
    cases = []
    for A in random_instances(40, seed=89, max_m=4, max_n=7):
        bound = rng.randint(1, 2)
        ordering = tuple(rng.sample(range(A.num_cols), A.num_cols))
        cases += [(build_lattice, A, bound, ordering), (build_truncated_lattice, A, bound, None)]
    # a root with three children: the first fails the entries rule, and the
    # last, whose key groups hold several rows, would pass it; absorbing a
    # child other than the first would reorder the vectors
    branching = SparseIntMatrix.from_dense(
        [
            [0, 0, -1, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, -1, 0, -1, -1, 0],
            [-1, 0, 0, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 0, 0, 1, 0, 0],
        ]
    )
    cases.append((build_lattice, branching, 1, (0, 3, 2, 5, 4, 8, 7, 6, 1)))
    cases.append((build_lattice, two_by_two_minors_matrix(3, 4), 2, None))
    merged = [build(A, bound, ordering) for build, A, bound, ordering in cases]
    monkeypatch.setattr(lattice_module, "_absorbs", lambda *args: False)
    unmerged = [build(A, bound, ordering) for build, A, bound, ordering in cases]
    monkeypatch.undo()
    monkeypatch.setattr(lattice_module, "_folds", lambda *args: False)
    unfolded = [build(A, bound, ordering) for build, A, bound, ordering in cases]
    with pytest.raises(BudgetExceeded):  # its estimate is 613,280 unfolded
        build_lattice(two_by_two_minors_matrix(3, 4), 2, build_budget=515_625)
    monkeypatch.undo()
    fewer = 0
    for L, U, F in zip(merged, unmerged, unfolded):
        validate(L)
        assert list(L.iterate()) == list(U.iterate()) == list(F.iterate())
        assert L.kind == "degree" or bags(L) == bags(F)
        assert L.total_rows() <= U.total_rows() and entries(L) <= entries(U)
        assert L.realized_clique_number == U.realized_clique_number
        fewer += len(L._bags) < len(U._bags)
    assert fewer > len(cases) // 2


def test_backtrack_free_validator_random():
    rng = random.Random(71)
    folded = 0
    for A in random_instances(15, seed=71):
        L = build_lattice(A, rng.randint(1, 2))
        validate(L)
        LT = build_truncated_lattice(A, rng.randint(1, 3))
        validate(LT)
        folded += any(len(bag.intros) > 1 for bag in L._bags + LT._bags)
    assert folded == 15  # the validator sees merged bags in every case


def test_validate_raises_lattice_error_under_optimisation():
    # python -O strips assert statements; validate's checks must survive it
    script = textwrap.dedent(
        """
        from lattice_invariants import InvariantError, validate
        from toricbases import SparseIntMatrix, build_lattice

        def reverse_intro_columns(A):
            L = build_lattice(A, 2)
            bag = L._bags[0]
            k = len(bag.intros)
            bag.table = tuple(c[::-1] for c in bag.table[:k]) + bag.table[k:]
            return L

        def lengthen_up(A):
            L = build_lattice(A, 1)
            child = next(L._bags[bag.children[0]] for bag in L._bags if bag.children)
            child.up = child.up + (0,)
            return L

        def drop_column(A):
            L = build_lattice(A, 1)
            L._bags[0].table = L._bags[0].table[:-1]
            return L

        print(__debug__)
        cubic = SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]])
        path = SparseIntMatrix.from_dense([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        # a chain of three bags at g=1 that absorbs no child
        star = SparseIntMatrix.from_dense([[1, 1, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
        corruptions = ((reverse_intro_columns, cubic), (lengthen_up, star), (drop_column, path))
        for corrupt, A in corruptions:
            validate(build_lattice(A, 2))
            try:
                validate(corrupt(A))
                print("passed")
            except InvariantError as exc:
                print(exc)
        """
    )
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "rows of a key not strictly sorted",
        "child keys not one per parent row",
        "table shape not scope by rows",
    ]


def test_one_bag_per_maximal_clique(twisted_cubic):
    # K_{3,4} at g=2 has 12 elimination cliques, 5 of them maximal, and a
    # folded clique stores no rows of its own; the root's bag then absorbs
    # its first two children, whose joins store fewer entries (5 bags and
    # 5,483 rows before)
    L = build_lattice(two_by_two_minors_matrix(3, 4), 2)
    validate(L)
    assert (len(L._bags), L.total_rows()) == (3, 3917)
    assert [len(bag.intros) for bag in L._bags] == [1, 1, 10]
    assert [len(bag.key_ids) for bag in L._bags] == [329, 329, 3259]
    # the twisted cubic's column graph is complete: one bag, one row per vector
    L = build_lattice(twisted_cubic, 2)
    assert (len(L._bags), L.total_rows()) == (1, 9)
    assert L._bags[0].intros == L._bags[0].scope


def test_default_bound_small_matrix():
    A = SparseIntMatrix.from_dense([[1, -1]])
    L = build_lattice(A, graver_infinity_bound(A))  # the CLI's default bound, 3
    assert L.bound == 3
    assert L.count() == 7


def test_build_budget_guard(twisted_cubic, monkeypatch):
    with pytest.raises(BudgetExceeded):
        build_lattice(twisted_cubic, 3, build_budget=10)
    # TORICBASES_BUDGET replaces the default only; an explicit budget wins
    monkeypatch.setenv("TORICBASES_BUDGET", str(10**8))
    with pytest.raises(BudgetExceeded):
        build_lattice(twisted_cubic, 3, build_budget=10)
    with pytest.raises(BudgetExceeded):
        build_truncated_lattice(twisted_cubic, 3, build_budget=10)
    monkeypatch.setenv("TORICBASES_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        build_lattice(twisted_cubic, 3)
    assert build_lattice(twisted_cubic, 3, build_budget=10**8).count() == len(
        enumerate_kernel(twisted_cubic, 3)
    )


def test_budget_refuses_before_allocating_the_domains():
    # a domain is a range, so both builders refuse a huge bound from the
    # table estimate alone, with no list or tuple as long as the domain
    A = SparseIntMatrix.from_dense([[1, 1, 1]])
    for build in (build_lattice, build_truncated_lattice):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                build(A, 200_000, build_budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_budget_covers_only_the_table_estimate():
    # 4201^2 + 4201 estimated cells fit the default budget; the row masks,
    # one per distinct value of every column (about 53M bits here), do not
    # count against it
    A = SparseIntMatrix.from_dense([[1, 1]])
    L = build_lattice(A, 2100)
    assert L.count() == 4201
    assert L.contains((2100, -2100)) and not L.contains((2101, -2101))
    assert L.count(shift_box((5, 0), 2100)) == 6
    assert L.minimize(MonomialOrder.lex(2), shift_box((5, 0), 2100)) == (-5, 5)
    assert L.minimize(MonomialOrder.lex(2), ((-7, -3000), (-7, 3000))) == (-7, 7)


def test_budget_estimate_is_taken_after_the_folds():
    # a clique that is exactly its first child's separator folds into the
    # child before anything is enumerated, and adds nothing to the estimate
    # (unfolded, these would read 613,280, 1,956,581 and 2,192,277)
    cover = ip_to_normalform(vertex_cover_ip(cycle_graph(5))).matrix
    cases = [
        (build_lattice, two_by_two_minors_matrix(3, 4), 2, 515_625),
        (build_lattice, cover, 5, 1_795_519),
        (build_truncated_lattice, two_by_two_minors_matrix(3, 3), 2, 2_016_495),
    ]
    for build, A, bound, estimate in cases:
        build(A, bound, build_budget=estimate)
        with pytest.raises(BudgetExceeded, match=f"work {estimate} exceeds budget {estimate - 1};"):
            build(A, bound, build_budget=estimate - 1)


def test_ordering_validation(twisted_cubic):
    with pytest.raises(ValueError):
        build_lattice(twisted_cubic, 1, ordering=(0, 1, 2))
    with pytest.raises(ValueError):
        build_lattice(twisted_cubic, -1)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda L: (1, -1, -1, 1) in L, True),
        (lambda L: (1, 0, 0, 0) in L, False),
        (lambda L: list(iter(L)), [(-1, 1, 1, -1), (0, 0, 0, 0), (1, -1, -1, 1)]),
        (lambda L: repr(L), "KernelLattice(kind='box', bound=1, cols=4, rows=3)"),
    ],
    ids=["in", "not-in", "iter", "repr"],
)
def test_lattice_dunder_methods(twisted_cubic, call, expected):
    # `v in L`, `iter(L)` and `repr(L)` read `contains`, `iterate` and the
    # stored row count
    assert call(build_lattice(twisted_cubic, 1)) == expected
