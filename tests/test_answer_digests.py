"""Answers of a fixed, seeded set of lattices and programs, pinned by digest.

For each lattice the digest covers the bag count and each bag's stored
rows, the ``iterate`` order, ``count()``, and ``count`` and ``minimize``
under no box, shift boxes and conformal boxes for lex, grlex and one weight
order.  The digests were computed before the sweep read every bag through
one row picker; a change that alters any answer, or the order of the
enumeration, fails here with the lattice's name.

For each group of integer programs the digest covers every ``solve_ip``
answer, or the type and message of its refusal, and for the reduced bases
every ``reduce_by_basis`` remainder.  These digests were computed before
``solve_ip`` kept its objective cut in the constraint list and before
``reduce_by_basis`` computed each element's keys once; the
``wide-random-weights`` group was pinned before ``normalform_to_ip``
subtracted A's nonnegative rows from the weights and before ``propagate``
skipped fixed variables.  Every group was pinned before ``solve_ip``
branched where a value costs most and before ``normalform_to_ip`` took its
radix and box from the fiber.  The ``capped`` group was pinned before a
capped program took its caps as its whole box.
"""

import hashlib
import random
import sys

import pytest

from toricbases import (
    IntegerProgram,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    build_lattice,
    build_truncated_lattice,
    graver_infinity_bound,
    normalform_to_ip,
    reduce_by_basis,
    reduced_groebner_basis,
    solve_ip,
    vertex_cover_ip,
    weight_vector,
)
from toricbases.graphs import complete_graph, cycle_graph, path_graph
from toricbases.lattice import conformal_box, shift_box
from toricbases.oracle import (
    incidence_matrix,
    random_sparse_matrix,
    threeway_table_matrix,
    two_by_two_minors_matrix,
)


def _random_cases() -> dict:
    rng = random.Random(2020)
    cases = {}
    for i in range(18):
        m, n = rng.randint(2, 4), rng.randint(4, 8)
        A = random_sparse_matrix(m, n, 2, 0.25 + 0.3 * rng.random(), rng.randrange(2**30))
        ordering = rng.sample(range(n), n) if i % 3 == 0 else None
        cases[f"random-{i:02d}-box-g1"] = (A, "box", 1, ordering)
        cases[f"random-{i:02d}-box-g2"] = (A, "box", 2, ordering)
        cases[f"random-{i:02d}-degree-d2"] = (A, "degree", 2, ordering)
    return cases


CASES = {
    **_random_cases(),
    "k34-box-g1": (two_by_two_minors_matrix(3, 4), "box", 1, None),
    "twisted-cubic-box-g3": (SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]]), "box", 3, None),
    "block-diagonal-box-g2": (
        SparseIntMatrix.from_dense([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 2, -1]]), "box", 2, None,
    ),
    "block-diagonal-degree-d2": (
        SparseIntMatrix.from_dense([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 2, -1]]), "degree", 2, None,
    ),
    "cycle-50-box-g1": (incidence_matrix(cycle_graph(50)), "box", 1, None),
}


def answers_digest(name: str) -> str:
    """The digest of the named lattice's stored rows and answers."""
    A, kind, bound, ordering = CASES[name]
    build = build_lattice if kind == "box" else build_truncated_lattice
    L = build(A, bound, ordering)
    n = A.num_cols
    rng = random.Random(name)
    orders = (
        MonomialOrder.lex(n),
        MonomialOrder.grlex(n),
        MonomialOrder(tuple(rng.randint(0, 3) for _ in range(n))),
    )
    boxes = [None]
    boxes += [shift_box(tuple(rng.randint(0, bound) for _ in range(n)), bound) for _ in range(3)]
    boxes += [conformal_box(tuple(rng.randint(-bound, bound) for _ in range(n))) for _ in range(2)]
    answers = [
        len(L._bags),
        [(bag.scope, bag.table) for bag in L._bags],
        list(L.iterate()),
        L.count(),
        [(L.count(box), [L.minimize(order, box) for order in orders]) for box in boxes],
    ]
    return hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


DIGESTS = {
    "random-00-box-g1": "535fa1fd6b082c50",
    "random-00-box-g2": "171b95851b07912e",
    "random-00-degree-d2": "b5825bd392fe61a5",
    "random-01-box-g1": "dd543950daff00b9",
    "random-01-box-g2": "1689b360284ad3d4",
    "random-01-degree-d2": "cab8640e7a65be66",
    "random-02-box-g1": "6054e6cb28926d71",
    "random-02-box-g2": "a1d5dccc38688628",
    "random-02-degree-d2": "ac37ff43a83b1a91",
    "random-03-box-g1": "f3690b3a44cfe0ed",
    "random-03-box-g2": "9d43ba772b082d94",
    "random-03-degree-d2": "c8e6552a7a9016f7",
    "random-04-box-g1": "77ff8626fcd502f6",
    "random-04-box-g2": "679a889fbca7987a",
    "random-04-degree-d2": "1d0c977b5072cb7b",
    "random-05-box-g1": "6ba2963fab8b9783",
    "random-05-box-g2": "522aae1238eb7680",
    "random-05-degree-d2": "66a92f3b914a6234",
    "random-06-box-g1": "55e781b964dc1fb4",
    "random-06-box-g2": "32559dd3bbb0f906",
    "random-06-degree-d2": "bd2b077fe4bd2607",
    "random-07-box-g1": "5616147b7b4fef1f",
    "random-07-box-g2": "6bf0234ae8b66279",
    "random-07-degree-d2": "833220aab43b461c",
    "random-08-box-g1": "81bc75466ad1df3a",
    "random-08-box-g2": "207e954d1d8de9eb",
    "random-08-degree-d2": "4bdd697e99b34b34",
    "random-09-box-g1": "056df41719c687b3",
    "random-09-box-g2": "499ef0a70ecbf248",
    "random-09-degree-d2": "20bc36503f75b83e",
    "random-10-box-g1": "32cac25ff9d0e6a8",
    "random-10-box-g2": "f90de47452037ca4",
    "random-10-degree-d2": "db59c2a369be176e",
    "random-11-box-g1": "cc3bc2f1bb92b59c",
    "random-11-box-g2": "1c51837ad66ac35e",
    "random-11-degree-d2": "9583a2458803a33e",
    "random-12-box-g1": "fb87194307d52db1",
    "random-12-box-g2": "cd586923a1de3006",
    "random-12-degree-d2": "a840199190c6ad01",
    "random-13-box-g1": "977f0ec2a1f08e40",
    "random-13-box-g2": "156e68d06ee9ba7e",
    "random-13-degree-d2": "9b0010c6fc920896",
    "random-14-box-g1": "e64c21832ae53d82",
    "random-14-box-g2": "c0571e146ab82260",
    "random-14-degree-d2": "89726d4bc3b51c65",
    "random-15-box-g1": "53d1036b7fbb131f",
    "random-15-box-g2": "d3f8cce248e6f7ad",
    "random-15-degree-d2": "b2f5538df500ef43",
    "random-16-box-g1": "e90bd4916896eeb5",
    "random-16-box-g2": "6e8b358532f2113a",
    "random-16-degree-d2": "780009092ab7b84a",
    "random-17-box-g1": "82e53fc4a56cab7b",
    "random-17-box-g2": "769d3070f53d0fa9",
    "random-17-degree-d2": "396ee3879c343173",
    "k34-box-g1": "2d6e84d790960b22",
    "twisted-cubic-box-g3": "c3435dd29798f0a7",
    "block-diagonal-box-g2": "6cb6ac84aa7398a0",
    "block-diagonal-degree-d2": "c9fdd7595cbcf0cc",
    "cycle-50-box-g1": "68fcb04b4cd8317f",
}


@pytest.mark.parametrize("name", list(CASES))
def test_answers_match_their_digest(name):
    assert answers_digest(name) == DIGESTS[name], f"{name}: answers changed"


def _order(rng: random.Random, n: int, k: int, top: int) -> MonomialOrder:
    # lex, grlex and a random weight order in turn, as nf-wide draws them
    if k % 3 == 0:
        return MonomialOrder.lex(n)
    if k % 3 == 1:
        return MonomialOrder.grlex(n)
    return MonomialOrder(tuple(rng.randint(0, top) for _ in range(n)))


def _k34_programs() -> list:
    A, rng = two_by_two_minors_matrix(3, 4), random.Random(2201)
    return [normalform_to_ip(A, _order(rng, 12, k, 5), tuple(rng.randint(0, 2) for _ in range(12)))
            for k in range(60)]


def _wide_random_weight_programs() -> list:
    # random weights on two matrices wider than K_{3,4}, where the weights
    # normalform_to_ip keeps shape the search tree most
    rng, programs = random.Random(2301), []
    for A in (two_by_two_minors_matrix(3, 5), threeway_table_matrix(3, 3, 2)):
        n = A.num_cols
        for _ in range(16):
            order = MonomialOrder(tuple(rng.randint(0, 5) for _ in range(n)))
            programs.append(normalform_to_ip(A, order, tuple(rng.randint(0, 2) for _ in range(n))))
    return programs


def _capped_programs() -> list:
    # random matrices whose rows with only positive entries cover every
    # column, so that each fiber is capped and normalform_to_ip boxes it by
    # the caps; 71 of the 120 boxes were narrower, clipped by u's cost under
    # the full weights, before the caps became the whole box
    rng, programs = random.Random(2501), []
    while len(programs) < 120:
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        A = random_sparse_matrix(m, n, 3, 0.7, rng.randrange(2**30))
        rows = [A.row(i) for i in range(m)]
        if {j for row in rows if all(a > 0 for _, a in row) for j, _ in row} == set(range(n)):
            order = _order(rng, n, len(programs), 3)
            programs.append(normalform_to_ip(A, order, tuple(rng.randint(0, 2) for _ in range(n))))
    return programs


def _graver_box(A, order: MonomialOrder, u: tuple) -> tuple:
    # the box normalform_to_ip gave before it took its radix from the fiber:
    # the budget of u under the weights at the Graver radix
    c = weight_vector(order.weights, graver_infinity_bound(A) + 1, A.num_cols)
    budget = sum(cj * xj for cj, xj in zip(c, u))
    return tuple(budget // cj for cj in c)


def _small_programs() -> list:
    # a Graver-radix box wider than 10^4 comes from an unbounded fiber, where
    # the search may run for minutes; such draws are skipped, by that box so
    # that the group is the one its digest was pinned on
    rng, programs = random.Random(2202), []
    while len(programs) < 200:
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        A = random_sparse_matrix(m, n, 3, 0.6, rng.randrange(2**30))
        order = _order(rng, n, len(programs), 3)
        u = tuple(rng.randint(0, 1) for _ in range(n))
        ip = normalform_to_ip(A, order, u)
        if max(_graver_box(A, order, u)) <= 10**4:
            programs.append(ip)
    return programs


def _without_hint(programs: list) -> list:
    return [IntegerProgram(ip.matrix, ip.rhs, ip.objective, ip.lower, ip.upper) for ip in programs]


def _mixed_sign_programs() -> list:
    # costs in [-2, 2] tie often and lower bounds reach below zero; every
    # third draw shifts the right-hand side, which often leaves no solution,
    # and every other draw whose right-hand side is kept has a hint
    rng, programs = random.Random(2203), []
    for k in range(150):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        A = random_sparse_matrix(m, n, 3, 0.6, rng.randrange(2**30))
        lower = tuple(rng.randint(-2, 0) for _ in range(n))
        z0 = tuple(rng.randint(l, l + 3) for l in lower)
        rhs = A.apply(z0)
        if k % 3 == 2:
            rhs = tuple(x + rng.randint(-2, 2) for x in rhs)
        programs.append(IntegerProgram(
            A, rhs, tuple(rng.randint(-2, 2) for _ in range(n)), lower=lower,
            upper=tuple(l + 4 for l in lower), feasible_hint=z0 if k % 2 and k % 3 != 2 else None,
        ))
    return programs


def _cover_programs() -> list:
    covers = [vertex_cover_ip(g) for g in (cycle_graph(5), complete_graph(4), path_graph(6))]
    return covers + _without_hint(covers)


def _named_programs() -> list:
    row = SparseIntMatrix.from_dense([[1, 1, 0, 0, 0]])
    return [
        # columns 2-4 are in no row: negative cost takes the upper end, and
        # positive or zero cost the lower end
        IntegerProgram(row, (2,), (1, 1, -3, 2, 0), lower=(0, 0, -1, -2, -3), upper=(2, 2, 4, 5, 6)),
        IntegerProgram(row, (2,), (1, 1, -3, 2, 0), lower=(0, 0, -1, -2, -3), upper=(2, 2, 4, 5, 6),
                       feasible_hint=(2, 0, 0, 0, 0)),
        IntegerProgram(row, (7,), (1, 1, 0, 0, 0), upper=(2, 2, 2, 2, 2)),  # infeasible
        IntegerProgram(row, (2,), (1, 1, 0, 0, 0), lower=(0, 3, 0, 0, 0), upper=(2, 2, 2, 2, 2)),  # empty box
    ]


def _reductions() -> list:
    A, rng = two_by_two_minors_matrix(3, 4), random.Random(2204)
    L, remainders = build_lattice(A, 1), []
    for k in range(3):
        order = _order(rng, 12, k, 5)
        gb = reduced_groebner_basis(A, L, order).elements
        remainders += [reduce_by_basis(gb, order, tuple(rng.randint(0, 2) for _ in range(12)))
                       for _ in range(40)]
    return remainders


def _solve(ip: IntegerProgram):
    try:
        return solve_ip(ip)
    except ToricError as exc:
        return type(exc).__name__, str(exc)


PROGRAMS = {
    "k34-nf-wide": lambda: [_solve(ip) for ip in _k34_programs()],
    "wide-random-weights": lambda: [_solve(ip) for ip in _wide_random_weight_programs()],
    "capped": lambda: [_solve(ip) for ip in _capped_programs()],
    "small-random": lambda: [_solve(ip) for ip in _small_programs()],
    "small-random-no-hint": lambda: [_solve(ip) for ip in _without_hint(_small_programs())],
    "mixed-sign": lambda: [_solve(ip) for ip in _mixed_sign_programs()],
    "vertex-cover": lambda: [_solve(ip) for ip in _cover_programs()],
    "named": lambda: [_solve(ip) for ip in _named_programs()],
    "reduce-by-basis-k34-g1": _reductions,
}


def programs_digest(name: str) -> str:
    """The digest of the named group's answers."""
    return hashlib.sha256(repr(PROGRAMS[name]()).encode()).hexdigest()[:16]


PROGRAM_DIGESTS = {
    "k34-nf-wide": "7d6dc71b5c0289c3",
    "wide-random-weights": "0323d11a01cd55e2",
    "capped": "a833693326b84ad9",
    "small-random": "7247ff85d029e934",
    "small-random-no-hint": "7247ff85d029e934",
    "mixed-sign": "2d5e313dc4543831",
    "vertex-cover": "91bbe51f83d52d19",
    "named": "6e4c393feb86d2ae",
    "reduce-by-basis-k34-g1": "92349169126cafb3",
}


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_programs_match_their_digest(name):
    assert programs_digest(name) == PROGRAM_DIGESTS[name], f"{name}: answers changed"


def search_nodes(programs: list) -> int:
    """The number of boxes ``solve_ip`` propagates over the programs: one
    ``propagate`` call per node of the search tree."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "propagate":
            nodes += 1

    sys.setprofile(count)
    try:
        for ip in programs:
            _solve(ip)
    finally:
        sys.setprofile(None)
    return nodes


# counted after solve_ip branched where a value costs most and
# normalform_to_ip took its radix and box from the fiber: mixed-sign 448,
# k34-nf-wide 1,270 and wide-random-weights 1,110 nodes before (and the two
# normalform_to_ip groups 2,491 and 6,963 before it subtracted A's
# nonnegative rows from the weights); the vertex-cover tree, whose costs
# and intervals are all alike, is the one counted before propagate skipped
# fixed variables; the capped group was counted before a capped program's
# box became its caps alone, which left its tree as it was
NODE_COUNTS = {
    "mixed-sign": (_mixed_sign_programs, 435),
    "vertex-cover": (_cover_programs, 66),
    "k34-nf-wide": (_k34_programs, 906),
    "wide-random-weights": (_wide_random_weight_programs, 484),
    "capped": (_capped_programs, 360),
}


@pytest.mark.parametrize("name", list(NODE_COUNTS))
def test_search_trees_keep_their_node_counts(name):
    programs, nodes = NODE_COUNTS[name]
    assert search_nodes(programs()) == nodes, f"{name}: the search tree changed"
