"""Fixed benchmark instances and the independent checks used to verify
answers on them.

Everything here builds inputs or checks outputs; nothing here is timed.
The checks share no algorithmic code with the library's lattice sweeps.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from toricbases import MonomialOrder, SparseIntMatrix
from toricbases.graphs import Graph, cycle_graph
from toricbases.oracle import incidence_matrix, threeway_table_matrix, two_by_two_minors_matrix

# Basis fixtures: (name, matrix factory, box bound).  Each bound is at least
# the Graver infinity norm of its matrix, so every basis and normal form
# computed on these lattices is exact.
FIXTURES = (
    ("K34-g1", lambda: two_by_two_minors_matrix(3, 4), 1),
    ("K33-g2", lambda: two_by_two_minors_matrix(3, 3), 2),
    ("T332-g1", lambda: threeway_table_matrix(3, 3, 2), 1),
    ("cubic-g3", lambda: SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 3]]), 3),
)

REFERENCE = Path(__file__).with_name("reference.json")
LADDER_RUNGS = 300
CYCLE_LENGTH = 1000


def order_menu(n: int) -> list[tuple[int, ...]]:
    """Weight vectors a basis fixture may be ordered by: lex, grlex and two
    fixed random weightings.  Reference bases are stored for each."""
    rng = random.Random(2019 + n)
    return [(0,) * n, (1,) * n] + [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(2)]


def ladder_graph(k: int) -> Graph:
    """2 x k grid: top vertices 0..k-1, bottom vertices k..2k-1."""
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return Graph.from_edges(2 * k, edges)


def edge_columns(graph: Graph) -> dict[tuple[int, int], int]:
    """Column of each edge in :func:`incidence_matrix` (edges in sorted order)."""
    return {e: j for j, e in enumerate(sorted(graph.edges))}


def ladder_counts(k: int, g: int, d: int | None) -> int:
    """Number of kernel vectors of the 2 x k ladder incidence matrix with
    entries in [-g, g], and, when d is given, positive and negative parts of
    1-norm at most d.

    Transfer matrix over the rungs: the state is the pair of rail values
    entering rung i plus the running positive and negative sums.  At each
    vertex the incident edge values sum to zero, so the rung value fixes the
    outgoing rails.
    """
    cap = d if d is not None else 0

    def add(pos: int, neg: int, x: int) -> tuple[int, int] | None:
        if d is None:
            return pos, neg
        pos, neg = pos + max(x, 0), neg + max(-x, 0)
        return (pos, neg) if pos <= cap and neg <= cap else None

    states = {(0, 0, 0, 0): 1}
    for i in range(k):
        nxt: dict[tuple[int, int, int, int], int] = {}
        for (top, bottom, pos, neg), ways in states.items():
            for rung in range(-g, g + 1):
                out_top, out_bottom = -top - rung, -bottom - rung
                if i == k - 1:
                    if out_top or out_bottom:
                        continue
                elif abs(out_top) > g or abs(out_bottom) > g:
                    continue
                acc: tuple[int, int] | None = (pos, neg)
                for x in (rung, out_top, out_bottom):
                    acc = add(*acc, x) if acc is not None else None
                if acc is None:
                    continue
                key = (out_top, out_bottom) + acc
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(states.values())


def ladder_violation(k: int, cols, weights, r) -> str | None:
    """Reason r is not standard on the ladder, or None.

    The Graver basis of a bipartite incidence matrix is the set of its even
    cycles with alternating signs, and the cycles of a ladder are the
    boundaries of runs of consecutive squares i..j.  r is standard exactly
    when no such move that keeps r nonnegative lowers the order.  Along a run
    starting at rung i with sign s, rail pair j-1 has sign -s(-1)^(j-1-i) and
    rung j has sign s(-1)^(1+j-i).  A move lowers the order when its weighted
    degree is negative, or zero with a negative first nonzero entry.
    """
    rung = [cols[(i, k + i)] for i in range(k)]
    top = [cols[(i, i + 1)] for i in range(k - 1)]
    bottom = [cols[(k + i, k + i + 1)] for i in range(k - 1)]
    for i in range(k - 1):
        for s in (1, -1):
            if s < 0 and r[rung[i]] < 1:
                continue
            total = s * weights[rung[i]]
            first = (rung[i], s)
            for j in range(i + 1, k):
                rail = -s * (-1) ** (j - 1 - i)
                t, b = top[j - 1], bottom[j - 1]
                if rail < 0 and (r[t] < 1 or r[b] < 1):
                    break
                total += rail * (weights[t] + weights[b])
                first = min(first, (t, rail), (b, rail))
                sign_j = s * (-1) ** (1 + j - i)
                if sign_j < 0 and r[rung[j]] < 1:
                    continue
                degree = total + sign_j * weights[rung[j]]
                if degree < 0 or (degree == 0 and min(first, (rung[j], sign_j))[1] < 0):
                    return f"improving cycle move over squares {i}..{j}"
    return None


def cycle_alternating(n: int) -> tuple[int, ...]:
    """The kernel generator of the even n-cycle incidence matrix."""
    graph = cycle_graph(n)
    cols = edge_columns(graph)
    v = [0] * n
    for i in range(n):
        e = (i, i + 1) if i + 1 < n else (0, n - 1)
        v[cols[e]] = 1 if i % 2 == 0 else -1
    return tuple(v)


def cycle_normal_form(alt, order: MonomialOrder, u) -> tuple[int, ...]:
    """Exact normal form on an even cycle, whose fiber is {u + t*alt >= 0}."""
    lo = max(-x for x, a in zip(u, alt) if a > 0)
    hi = min(x for x, a in zip(u, alt) if a < 0)
    candidates = [tuple(x + t * a for x, a in zip(u, alt)) for t in range(lo, hi + 1)]
    return min(candidates, key=order.key)


def ladder_matrix() -> tuple[SparseIntMatrix, dict]:
    graph = ladder_graph(LADDER_RUNGS)
    return incidence_matrix(graph), edge_columns(graph)


def load_reference() -> dict:
    """Stored exact answers; regenerate with ``make_reference.py``."""
    return json.loads(REFERENCE.read_text())
