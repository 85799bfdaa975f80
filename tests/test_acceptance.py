"""Acceptance suite: one test per criterion, each printing a pass line.

The shared instance pool holds 200 seeded random matrices with m <= 3,
n <= 6, entries in [-2, 2] and density <= 0.6; the box bound g cycles
through {1, 2, 3} and the truncation degree d through {1, 2, 3, 4}.  The
instance distribution additionally caps the kernel-box size so the whole
suite stays at desk scale.
"""

import itertools
import json
import math
import random
import time
from functools import lru_cache

from toricbases import (
    Binomial,
    MonomialOrder,
    SparseIntMatrix,
    build_lattice,
    build_truncated_lattice,
    eliminate,
    graver_basis,
    in_reduced_gb,
    normal_form_bounded,
    normalform_to_ip,
    reduce_by_basis,
    reduced_groebner_basis,
    row_graph,
    solve_ip,
    solve_ip_via_normal_form,
    treedepth_estimate,
    treewidth_estimate,
    vertex_cover_ip,
    weight_vector,
)
from toricbases.cli import main as cli_main
from toricbases.graphs import cycle_graph
from toricbases.oracle import (
    enumerate_kernel,
    graver_bruteforce,
    incidence_matrix,
    nfold_product,
    random_sparse_matrix,
    reduced_gb_bruteforce,
    saturated_graver,
)

from graph_helpers import complete_graph, path_graph, random_graph, recursive_median_ordering

NUM_INSTANCES = 200
_HARDNESS_CAP = 2500


@lru_cache(maxsize=1)
def instance_pool():
    """(matrix, g, d) triples; parameters stay within the stated envelope."""
    rng = random.Random(987654321)
    pool = []
    for i in range(NUM_INSTANCES):
        m = 1 + i % 3
        g = 1 + (i // 3) % 3
        d = 1 + i % 4
        n = rng.randint(2, 6)
        while (2 * g + 1) ** max(0, n - m) > _HARDNESS_CAP:
            n -= 1
        n = max(n, 2)
        density = 0.25 + 0.35 * rng.random()
        A = random_sparse_matrix(m, n, 2, density, rng.randrange(2**30))
        pool.append((A, g, d))
    return pool


@lru_cache(maxsize=1)
def built_lattices():
    return [(A, g, build_lattice(A, g)) for A, g, _ in instance_pool()]


@lru_cache(maxsize=1)
def kernel_oracles():
    return [enumerate_kernel(A, g) for A, g, _ in instance_pool()]


def test_criterion_01_lattice_oracle_equivalence():
    started = time.perf_counter()
    kernels = kernel_oracles()
    for (A, g, L), want in zip(built_lattices(), kernels):
        got = frozenset(L.iterate())
        assert got == want, (A.to_dense(), g)
        assert L.count() == len(want)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, expected under a minute"
    print(
        f"\n[criterion 01] PASS - lattice equals exhaustive kernel on "
        f"{NUM_INSTANCES} instances in {elapsed:.1f}s"
    )


def test_criterion_02_space_bound():
    for A, g, L in built_lattices():
        bound = A.num_cols * (2 * g + 1) ** L.realized_clique_number
        assert L.total_rows() <= bound, (A.to_dense(), g)
    print(f"\n[criterion 02] PASS - stored rows within n*(2g+1)^(clique) on {NUM_INSTANCES} instances")


def test_criterion_03_truncated_lattice():
    checked = 0
    for A, g, d in instance_pool():
        L = build_truncated_lattice(A, d)
        got = frozenset(L.iterate())
        want = frozenset(
            v
            for v in enumerate_kernel(A, d)
            if sum(x for x in v if x > 0) <= d and sum(-x for x in v if x < 0) <= d
        )
        assert got == want, (A.to_dense(), d)
        checked += 1
    print(f"\n[criterion 03] PASS - truncated lattice equals definitional filter on {checked} instances")


def test_criterion_04_graver_correctness(twisted_cubic, k22, k23):
    gset, gsat = saturated_graver(twisted_cubic, 1)
    assert gsat == 3
    L = build_lattice(twisted_cubic, gsat)
    assert frozenset(graver_basis(twisted_cubic, L).elements) == gset

    for A in (k22, k23):
        gset, gsat = saturated_graver(A, 1)
        L = build_lattice(A, gsat)
        assert frozenset(graver_basis(A, L).elements) == gset
    k22_set = frozenset(graver_basis(k22, build_lattice(k22, 1)).elements)
    assert k22_set == {(1, -1, -1, 1), (-1, 1, 1, -1)}

    for (A, g, L), kernel in zip(built_lattices(), kernel_oracles()):
        got = frozenset(graver_basis(A, L).elements)
        assert got == graver_bruteforce(A, g), (A.to_dense(), g)
    print(f"\n[criterion 04] PASS - Graver basis matches brute force on named + {NUM_INSTANCES} instances")


def test_criterion_05_reduced_gb_correctness(k23):
    grlex6 = MonomialOrder.grlex(6)
    L = build_lattice(k23, 2)
    got = {(b.head, b.tail) for b in reduced_groebner_basis(k23, L, grlex6).elements}
    minors = {
        ((1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0)),
        ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0)),
        ((0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 0)),
    }
    assert got == minors

    rng = random.Random(555)
    for A, g, L in built_lattices():
        order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(A.num_cols)))
        elements = reduced_groebner_basis(A, L, order).elements
        got = {(b.head, b.tail) for b in elements}
        assert got == reduced_gb_bruteforce(A, order.weights, g), (A.to_dense(), g)
        for b in elements:
            for other in elements:
                if other is not b:
                    assert not all(h <= x for h, x in zip(other.head, b.head))
                    assert not all(h <= x for h, x in zip(other.head, b.tail))
    print(f"\n[criterion 05] PASS - reduced basis matches brute force on K23 + {NUM_INSTANCES} instances")


def _division_basis(A, L, order, graver_vectors):
    """Reduced basis via the fast membership test over certified candidates;
    every reduced-basis binomial is primitive, so scanning the conformally
    minimal vectors loses nothing."""
    seen = set()
    kept = []
    for v in sorted(graver_vectors):
        b = Binomial.from_kernel_vector(v).oriented(order)
        key = (b.head, b.tail)
        if key in seen:
            continue
        seen.add(key)
        if in_reduced_gb(A, L, order, b):
            kept.append(b)
    return kept


def test_criterion_06_normal_form_route_agreement():
    rng = random.Random(777)
    checked_monomials = 0
    for index, (A, g, _) in enumerate(instance_pool()):
        n = A.num_cols
        if index % 3 == 0:
            order = MonomialOrder.lex(n)
        elif index % 3 == 1:
            order = MonomialOrder.grlex(n)
        else:
            order = MonomialOrder(tuple(rng.randint(0, 2) for _ in range(n)))
        gset, gsat = saturated_graver(A, g)
        L = build_lattice(A, gsat)
        gb = _division_basis(A, L, order, gset)
        for u in itertools.product(range(g + 1), repeat=n):
            via_lattice = normal_form_bounded(A, L, order, u).normal_exponent
            via_division = reduce_by_basis(gb, order, u)
            via_ip = solve_ip(normalform_to_ip(A, order, u))
            assert via_lattice == via_division == via_ip, (A.to_dense(), g, u)
            checked_monomials += 1
    print(f"\n[criterion 06] PASS - three normal-form routes agree on {checked_monomials} monomials")


def test_criterion_07_weight_vector_property():
    rng = random.Random(999)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        r = rng.randint(2, 6)
        order = MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n)))
        c = weight_vector(order.weights, r, n)
        u = tuple(rng.randint(0, 5) for _ in range(n))
        v = tuple(
            max(0, a + rng.randint(-(r - 1), r - 1)) for a in u
        )
        if max(abs(a - b) for a, b in zip(u, v)) > r - 1:
            continue
        cu = sum(a * b for a, b in zip(c, u))
        cv = sum(a * b for a, b in zip(c, v))
        assert (order.compare(u, v) == -1) == (cu < cv), (u, v, order.weights, r)
    print("\n[criterion 07] PASS - weight vector reproduces the order on 10^4 samples")


def test_criterion_08_ip_reduction_end_to_end():
    from toricbases.core import negative_part

    for graph, expected in (
        (complete_graph(3), 2),
        (cycle_graph(5), 3),
        (complete_graph(4), 3),
    ):
        ip = vertex_cover_ip(graph)
        z, objective = solve_ip_via_normal_form(ip)
        direct = solve_ip(ip)
        direct_objective = sum(c * x for c, x in zip(ip.objective, direct))
        assert objective == expected == direct_objective
        # tracker identity: recovered tracker = c_neg . t + c . z
        from toricbases import ip_to_normalform

        reduction = ip_to_normalform(ip)
        bound = max([sum(abs(c) * t for c, t in zip(ip.objective, ip.upper)), 1, *ip.upper])
        L = build_lattice(reduction.matrix, bound)
        nf = normal_form_bounded(
            reduction.matrix, L, reduction.order, reduction.start_exponent
        ).normal_exponent
        shift = sum(a * t for a, t in zip(negative_part(ip.objective), ip.upper))
        assert nf[0] == shift + objective
    print("\n[criterion 08] PASS - vertex cover through the embedding matches the direct solver")


def test_criterion_09_universal_gb_property(twisted_cubic, k23):
    from toricbases.bases import binomials_from_vectors

    for A in (twisted_cubic, k23):
        n = A.num_cols
        gset, gsat = saturated_graver(A, 1)
        L = build_lattice(A, gsat)
        for order in (MonomialOrder.lex(n), MonomialOrder.grlex(n)):
            universal = binomials_from_vectors(sorted(gset), order)
            reduced = reduced_groebner_basis(A, L, order).elements
            for u in itertools.product(range(3), repeat=n):
                assert reduce_by_basis(universal, order, u) == reduce_by_basis(
                    reduced, order, u
                ), (A.to_dense(), order.weights, u)
    print("\n[criterion 09] PASS - conformally minimal binomials reduce like the reduced bases")


def test_criterion_10_graph_structure_fixtures():
    rng = random.Random(2024)
    checked = 0
    while checked < 20:
        G = random_graph(rng.randint(2, 9), 0.4, seed=rng.randrange(2**30))
        if G.num_edges() == 0:
            continue
        assert row_graph(incidence_matrix(G)).edges == G.edges
        checked += 1

    ones = lambda r, c: SparseIntMatrix.from_dense([[1] * c for _ in range(r)])
    for s1, s2, t, copies in ((2, 2, 3, 3), (1, 2, 2, 4), (3, 1, 2, 2)):
        A = nfold_product(ones(s1, t), ones(s2, t), copies)
        G = row_graph(A)
        ordering = tuple(reversed(range(s1 + copies * s2)))
        elim = eliminate(G, ordering)
        assert not elim.fill_edges
        assert elim.height <= s1 + s2

    for n in (2, 3, 5, 7):
        K = complete_graph(n)
        ordering = tuple(range(n))
        assert treewidth_estimate(K, ordering) == n - 1
        assert treedepth_estimate(K, ordering) == n

    for n in range(1, 32):
        ordering = recursive_median_ordering(n)
        assert treedepth_estimate(path_graph(n), ordering) == math.ceil(
            math.log2(n + 1)
        )
    print("\n[criterion 10] PASS - incidence, n-fold, complete-graph and path fixtures hold")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    matrix_path = tmp_path / "tc.txt"
    matrix_path.write_text("2 4\n1 1 1 1\n0 1 2 3\n")
    graph_path = tmp_path / "c5.txt"
    graph_path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    commands = [
        ["graver", "--matrix", str(matrix_path), "--bound", "3"],
        ["groebner", "--matrix", str(matrix_path), "--order", "grlex", "--bound", "3"],
        ["lattice", "--matrix", str(matrix_path), "--degree", "3", "list"],
        ["graph-stats", "--matrix", str(matrix_path)],
        ["normal-form", "--matrix", str(matrix_path), "--order", "lex",
         "--monomial", "1,2,0,1", "--bound", "3"],
        ["vertex-cover", str(graph_path)],
        ["gen", "--kind", "threeway", "--l", "2", "--m", "2", "--n", "2"],
    ]
    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first.strip(), argv
        json.loads(first) if not argv[0] == "gen" else None
    print("\n[criterion 11] PASS - repeated CLI runs are byte-identical")
