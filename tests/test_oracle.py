import random

import pytest

from toricbases import SparseIntMatrix, row_graph
from toricbases.graphs import complete_graph, path_graph, treedepth_estimate
from toricbases.oracle import (
    BudgetExceededError,
    _jump_minimum,
    _kernel_array,
    _order_key,
    enumerate_kernel,
    graver_bruteforce,
    incidence_matrix,
    nfold_product,
    normal_form_bruteforce,
    random_sparse_matrix,
    saturated_graver,
    threeway_table_matrix,
    two_by_two_minors_matrix,
)

from conftest import TWISTED_CUBIC_GRAVER


def test_enumerate_kernel_single_row():
    A = SparseIntMatrix.from_dense([[1, -1]])
    assert enumerate_kernel(A, 1) == {(0, 0), (1, 1), (-1, -1)}


def test_enumerate_kernel_zero_matrix():
    A = SparseIntMatrix(0, 2, [])
    assert len(enumerate_kernel(A, 1)) == 9


def test_enumerate_kernel_budget():
    A = SparseIntMatrix.from_dense([[1, -1, 0, 0], [0, 1, -1, 0]])
    with pytest.raises(BudgetExceededError):
        enumerate_kernel(A, 3, budget=10)


def test_enumerate_kernel_chunked_matches_direct(twisted_cubic):
    import toricbases.oracle as oracle_mod

    want = enumerate_kernel(twisted_cubic, 2)
    old = oracle_mod._CHUNK_ROWS
    oracle_mod._CHUNK_ROWS = 8  # force many chunks
    try:
        got = enumerate_kernel(twisted_cubic, 2)
    finally:
        oracle_mod._CHUNK_ROWS = old
    assert got == want


def test_graver_bruteforce_single_row():
    A = SparseIntMatrix.from_dense([[1, -1]])
    assert graver_bruteforce(A, 2) == {(1, 1), (-1, -1)}


def test_saturation_protocol(twisted_cubic):
    gset, g = saturated_graver(twisted_cubic, 1)
    assert g == 3
    assert gset == TWISTED_CUBIC_GRAVER
    assert graver_bruteforce(twisted_cubic, 3) == graver_bruteforce(twisted_cubic, 4)


def test_normal_form_bruteforce_basic():
    A = SparseIntMatrix.from_dense([[1, 1]])
    assert normal_form_bruteforce(A, (0, 0), (1, 0), 2) == (0, 1)
    assert normal_form_bruteforce(A, (0, 0), (0, 1), 2) == (0, 1)


def test_jump_minimum_matches_loop_reference():
    # the vectorised scan against the definition, written as a loop
    rng = random.Random(91)
    for _ in range(40):
        n = rng.randint(2, 5)
        A = random_sparse_matrix(rng.randint(1, 3), n, 2, 0.6, rng.randrange(2**30))
        kernel = enumerate_kernel(A, 2)
        weights = tuple(rng.randint(0, 2) for _ in range(n))
        array = _kernel_array(kernel, weights)
        for _ in range(10):
            z = tuple(rng.randint(0, 2) for _ in range(n))
            shifted = [tuple(a + b for a, b in zip(z, v)) for v in kernel]
            want = min([z] + [c for c in shifted if min(c) >= 0], key=lambda c: _order_key(weights, c))
            assert _jump_minimum(array, z) == want


def test_generator_minors_is_k23_incidence():
    A = two_by_two_minors_matrix(2, 3)
    assert (A.num_rows, A.num_cols) == (5, 6)
    # rows 0..1 are the row-vertices, rows 2..4 the column-vertices of K_{2,3}
    dense = A.to_dense()
    assert dense[0] == [1, 0, 1, 0, 1, 0]
    assert dense[1] == [0, 1, 0, 1, 0, 1]
    assert dense[2] == [1, 1, 0, 0, 0, 0]
    assert dense[3] == [0, 0, 1, 1, 0, 0]
    assert dense[4] == [0, 0, 0, 0, 1, 1]
    assert row_graph(A).edges == {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}


def test_generator_nfold_layout():
    A1 = SparseIntMatrix.from_dense([[1, 2]])
    A2 = SparseIntMatrix.from_dense([[3, 4], [5, 6]])
    A = nfold_product(A1, A2, 2)
    assert A.to_dense() == [
        [1, 2, 1, 2],
        [3, 4, 0, 0],
        [5, 6, 0, 0],
        [0, 0, 3, 4],
        [0, 0, 5, 6],
    ]
    with pytest.raises(ValueError):
        nfold_product(A1, SparseIntMatrix.from_dense([[1]]), 2)


def test_generator_nfold_row_graph_depth():
    s1, s2, t = 2, 1, 2
    ones = lambda r, c: SparseIntMatrix.from_dense([[1] * c for _ in range(r)])
    A = nfold_product(ones(s1, t), ones(s2, t), 4)
    G = row_graph(A)
    ordering = tuple(reversed(range(s1 + 4 * s2)))
    assert treedepth_estimate(G, ordering) <= s1 + s2


def test_generator_threeway_shape():
    B = threeway_table_matrix(2, 2, 3)
    lm, s2 = 4, 4  # identity block 4x4, K_{2,2} incidence is 4x4
    assert B.num_cols == 2 * 2 * 3
    assert B.num_rows == lm + 3 * s2


def test_generator_incidence_row_graph():
    G = complete_graph(4)
    assert row_graph(incidence_matrix(G)).edges == G.edges
    # isolated vertices become zero rows, which the matrix type tolerates
    from toricbases.graphs import Graph

    H = Graph.from_edges(3, [(0, 1)])
    A = incidence_matrix(H)
    assert A.zero_rows() == [2]


def test_random_sparse_matrix_deterministic_and_rowful():
    A = random_sparse_matrix(3, 5, 2, 0.4, seed=99)
    B = random_sparse_matrix(3, 5, 2, 0.4, seed=99)
    assert A == B
    assert not A.zero_rows()
    assert A.max_abs <= 2


@pytest.mark.parametrize("max_entry", [0, -2])
def test_random_sparse_matrix_needs_a_nonzero_entry(max_entry):
    # [-max_entry, max_entry] holds no nonzero entry to draw
    with pytest.raises(ValueError, match=f"max_entry must be at least 1, got {max_entry}"):
        random_sparse_matrix(2, 3, max_entry, 0.5, seed=0)


def test_path_incidence_column_graph_structure():
    from toricbases import column_graph

    A = incidence_matrix(path_graph(4))
    assert column_graph(A).edges == {(0, 1), (1, 2)}
