import itertools
import math
import random

import pytest

from toricbases import (
    SparseIntMatrix,
    column_graph,
    eliminate,
    heuristic_ordering,
    min_degree_ordering,
    min_fill_ordering,
    row_graph,
    treedepth_estimate,
    treewidth_estimate,
)
from toricbases.graphs import (
    Graph,
    cycle_graph,
    edge_list_from_text,
)
from toricbases.oracle import incidence_matrix, nfold_product

from graph_helpers import (
    complete_graph,
    edge_list_to_text,
    exact_depth_ordering,
    exact_width_ordering,
    ladder_graph,
    path_graph,
    random_graph,
    recursive_median_ordering,
    reference_min_degree_ordering,
    reference_min_fill_ordering,
    star_graph,
)


def dense_ones(rows: int, cols: int) -> SparseIntMatrix:
    return SparseIntMatrix.from_dense([[1] * cols for _ in range(rows)])


def test_column_graph_of_path_incidence_is_line_graph():
    A = incidence_matrix(path_graph(3))
    G = column_graph(A)
    assert G.num_vertices == 2
    assert G.edges == frozenset({(0, 1)})


def test_column_graph_of_nfold_is_complete():
    A = nfold_product(dense_ones(1, 2), dense_ones(1, 2), 2)
    G = column_graph(A)
    assert G.edges == complete_graph(4).edges


def test_column_graph_one_nonzero_per_row_is_edgeless():
    A = SparseIntMatrix(3, 4, [(0, 0, 1), (1, 2, -1), (2, 3, 2)])
    assert column_graph(A).num_edges() == 0


def test_row_graph_of_incidence_is_the_graph():
    rng = random.Random(5)
    for trial in range(20):
        G = random_graph(rng.randint(2, 8), 0.5, seed=100 + trial)
        if G.num_edges() == 0:
            continue
        assert row_graph(incidence_matrix(G)).edges == G.edges


def test_row_graph_equals_column_graph_of_transpose():
    rng = random.Random(9)
    for trial in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        entries = []
        for i in range(m):
            for j in range(n):
                if rng.random() < 0.4:
                    entries.append((i, j, rng.choice([-1, 1, 2])))
        A = SparseIntMatrix(m, n, entries)
        assert row_graph(A).edges == column_graph(A.transpose()).edges


def test_eliminate_complete_graph():
    elim = eliminate(complete_graph(4), (0, 1, 2, 3))
    assert not elim.fill_edges
    assert elim.clique_number == 4
    assert elim.height == 4


def test_eliminate_star_center_last():
    elim = eliminate(star_graph(5), (1, 2, 3, 4, 0))
    assert not elim.fill_edges
    assert elim.clique_number == 2
    assert elim.height == 2


def test_eliminate_cliques_are_cliques_of_completion():
    rng = random.Random(17)
    for trial in range(20):
        G = random_graph(rng.randint(2, 7), 0.5, seed=300 + trial)
        ordering = tuple(rng.sample(range(G.num_vertices), G.num_vertices))
        elim = eliminate(G, ordering)
        completed = set(G.edges) | set(elim.fill_edges)
        for clique in elim.cliques:
            for a, b in itertools.combinations(sorted(clique), 2):
                assert (a, b) in completed


def test_eliminate_cliques_follow_the_ordering():
    # cliques[l] is ordering[l], then its later neighbours in elimination
    # order.  Checked against the definition, on a copy of the graph being
    # completed: the clique is v and its neighbours there, and the parent is
    # the member of the clique eliminated soonest after v
    rng = random.Random(35)
    for trial in range(200):
        n = rng.randint(1, 9)
        G = random_graph(n, rng.random(), seed=3500 + trial)
        ordering = tuple(rng.sample(range(n), n))
        elim = eliminate(G, ordering)
        position = {v: l for l, v in enumerate(ordering)}
        assert elim.position == tuple(map(position.__getitem__, range(n)))
        adj = G.adjacency()
        for l, v in enumerate(ordering):
            clique = elim.cliques[l]
            assert clique[0] == v
            assert [position[w] for w in clique[1:]] == sorted(position[w] for w in clique[1:])
            later = adj[v]
            assert set(clique) == {v} | later
            expected_parent = min(later, key=position.__getitem__) if later else None
            assert elim.parent[v] == expected_parent
            for a, b in itertools.combinations(later, 2):
                adj[a].add(b)
                adj[b].add(a)
            for w in later:
                adj[w].discard(v)
            adj[v] = set()


def test_eliminate_peo_of_chordal_graph_has_no_fill():
    # a tree is chordal; any leaf-first ordering is perfect
    G = star_graph(6)
    elim = eliminate(G, (1, 2, 3, 4, 5, 0))
    assert not elim.fill_edges


def test_nfold_row_graph_reverse_ordering_is_peo():
    s1, s2, t, copies = 2, 2, 3, 3
    A = nfold_product(dense_ones(s1, t), dense_ones(s2, t), copies)
    G = row_graph(A)
    ordering = tuple(reversed(range(s1 + copies * s2)))
    elim = eliminate(G, ordering)
    assert not elim.fill_edges
    assert elim.height <= s1 + s2


def test_min_degree_on_tree_gives_width_one():
    tree = Graph.from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)])
    ordering = min_degree_ordering(tree)
    assert eliminate(tree, ordering).clique_number == 2


def test_heuristics_on_edgeless_graph():
    G = Graph.from_edges(4, [])
    assert min_degree_ordering(G) == (0, 1, 2, 3)
    assert min_fill_ordering(G) == (0, 1, 2, 3)
    assert eliminate(G, (0, 1, 2, 3)).clique_number == 1


def test_min_fill_on_c4_realizes_exhaustive_minimum():
    G = cycle_graph(4)
    ordering = min_fill_ordering(G)
    got = eliminate(G, ordering).clique_number
    best = min(
        eliminate(G, p).clique_number for p in itertools.permutations(range(4))
    )
    assert best == 3
    assert got == 3


def test_heuristic_ordering_dispatch():
    G = cycle_graph(5)
    assert heuristic_ordering(G, "min-degree") == min_degree_ordering(G)
    assert heuristic_ordering(G, "min-fill") == min_fill_ordering(G)
    with pytest.raises(ValueError):
        heuristic_ordering(G, "given")
    with pytest.raises(ValueError):
        heuristic_ordering(G, "nope")


def test_exact_width_k4_impossible_k2():
    assert exact_width_ordering(complete_graph(4), 2) is None
    found = exact_width_ordering(complete_graph(4), 3)
    assert found is not None
    assert eliminate(complete_graph(4), found).clique_number <= 4


def test_exact_width_path_is_one():
    found = exact_width_ordering(path_graph(5), 1)
    assert found is not None
    assert eliminate(path_graph(5), found).clique_number <= 2


def test_exact_width_c5():
    assert exact_width_ordering(cycle_graph(5), 1) is None
    found = exact_width_ordering(cycle_graph(5), 2)
    assert found is not None
    assert eliminate(cycle_graph(5), found).clique_number <= 3


def test_exact_depth_ordering_path():
    order = exact_depth_ordering(path_graph(7), 3)
    assert order is not None
    assert treedepth_estimate(path_graph(7), order) == 3
    assert exact_depth_ordering(path_graph(7), 2) is None


def test_exact_depth_rejects_large_graphs():
    with pytest.raises(ValueError):
        exact_depth_ordering(path_graph(13), 4)


def test_greedy_orderings_match_quadratic_reference():
    # the incremental heap orderings re-score only the vertices an
    # elimination can affect; the reference re-scores all of them
    rng = random.Random(2026)
    graphs = [
        random_graph(rng.randint(0, 30), 0.6 * rng.random(), seed=rng.randrange(2**30))
        for _ in range(60)
    ]
    graphs.append(column_graph(incidence_matrix(ladder_graph(300))))  # 898 columns
    graphs.append(column_graph(incidence_matrix(cycle_graph(1000))))
    for G in graphs:
        assert min_fill_ordering(G) == reference_min_fill_ordering(G)
        assert min_degree_ordering(G) == reference_min_degree_ordering(G)


def test_estimates_on_complete_graph():
    G = complete_graph(5)
    ordering = min_fill_ordering(G)
    assert treewidth_estimate(G, ordering) == 4
    assert treedepth_estimate(G, ordering) == 5


def test_path_treedepth_recursive_median():
    for n in (1, 2, 3, 7, 15, 20, 31):
        ordering = recursive_median_ordering(n)
        assert sorted(ordering) == list(range(n))
        depth = treedepth_estimate(path_graph(n), ordering)
        assert depth == math.ceil(math.log2(n + 1))


def test_width_plus_one_at_most_depth_for_any_ordering():
    rng = random.Random(31)
    for trial in range(30):
        G = random_graph(rng.randint(1, 7), 0.5, seed=500 + trial)
        ordering = tuple(rng.sample(range(G.num_vertices), G.num_vertices))
        assert (
            treewidth_estimate(G, ordering) + 1 <= treedepth_estimate(G, ordering)
        )


def test_edge_list_round_trip():
    G = cycle_graph(6)
    text = edge_list_to_text(G)
    assert edge_list_from_text(text).edges == G.edges
    with pytest.raises(ValueError):
        edge_list_from_text("0 1 2\n")


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 9)])
    assert Graph.from_edges(0, []).num_vertices == 0
    # the bare constructor takes any iterable of pairs, each stored once as
    # (a, b) with a < b
    assert Graph(3, frozenset({(2, 0)})) == Graph.from_edges(3, [(0, 2)])
    assert Graph(3, iter([(2, 0), (0, 2), (1, 2)])).edges == frozenset({(0, 2), (1, 2)})
    assert Graph.from_edges(3, [(1, 0)]) == Graph(3, [(0, 1)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: cycle_graph(2), ValueError, "cycle needs at least 3 vertices"),
        (lambda: eliminate(path_graph(3), (0, 1, 1)), ValueError, "ordering must be a permutation of the vertices"),
        (lambda: Graph.from_edges(-1, []), ValueError, "vertex count must be nonnegative, got -1"),
        # the count is checked before the edges
        (lambda: Graph.from_edges(-2, [(0, 1)]), ValueError, "vertex count must be nonnegative, got -2"),
        # the bare constructor checks as from_edges does
        (lambda: Graph(-1, frozenset()), ValueError, "vertex count must be nonnegative, got -1"),
        (lambda: Graph(2, frozenset({(0, 5)})), ValueError, "edge (0,5) out of range"),
        (lambda: Graph(3, frozenset({(1, 1)})), ValueError, "self-loop at vertex 1"),
        (lambda: Graph(3.0, [(0, 1)]), TypeError, "'float' object cannot be interpreted as an integer"),
    ],
    ids=[
        "cycle-of-two", "not-a-permutation", "negative-vertex-count", "negative-count-before-edges",
        "bare-negative-count", "bare-edge-out-of-range", "bare-self-loop", "bare-float-count",
    ],
)
def test_graphs_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
