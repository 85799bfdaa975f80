"""Bidirectional reductions between integer programming and normal forms,
plus a baseline exact solver to close the loop.

One direction turns a normal-form instance into an equality-constrained IP
whose objective encodes the monomial order through a weight vector of powers.
The other direction embeds a box-constrained IP into a larger matrix whose
first coordinate tracks the objective, so the lexicographic normal form of a
feasible starting monomial reads off an optimal solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .core import (
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    Vec,
    as_vector,
    is_nonnegative,
    negative_part,
    positive_part,
    weight_vector,
)
from .graphs import Graph
from .lattice import build_lattice, graver_infinity_bound
from .normalform import normal_form_bounded


class InfeasibleError(ToricError):
    pass


class NoBoxError(ToricError):
    """Raised when no finite variable bounds are available to search over."""


@dataclass(frozen=True)
class IntegerProgram:
    """min objective . z  subject to  matrix . z = rhs and box bounds.

    ``lower`` defaults to all zeros, which are stored, so it is never None
    after construction.  ``upper`` may be None, but the solver requires
    finite upper bounds.  A feasible point may be attached as a hint; it is
    validated on construction and used to seed the incumbent.
    """

    matrix: SparseIntMatrix
    rhs: Vec
    objective: Vec
    lower: Vec | None = None
    upper: Vec | None = None
    feasible_hint: Vec | None = None

    def __post_init__(self):
        n, m = self.matrix.num_cols, self.matrix.num_rows
        object.__setattr__(self, "rhs", as_vector(self.rhs))
        object.__setattr__(self, "objective", as_vector(self.objective))
        if len(self.rhs) != m:
            raise DimensionMismatch(f"rhs length {len(self.rhs)}, expected {m}")
        if len(self.objective) != n:
            raise DimensionMismatch(f"objective length {len(self.objective)}, expected {n}")
        if self.lower is None:
            object.__setattr__(self, "lower", (0,) * n)
        for name in ("lower", "upper", "feasible_hint"):
            value = getattr(self, name)
            if value is not None:
                value = as_vector(value)
                if len(value) != n:
                    raise DimensionMismatch(f"{name} length {len(value)}, expected {n}")
                object.__setattr__(self, name, value)
        if self.feasible_hint is not None:
            hint = self.feasible_hint
            if self.matrix.apply(hint) != self.rhs:
                raise ValueError("feasible hint violates the equality constraints")
            if any(x < l for x, l in zip(hint, self.lower)):
                raise ValueError("feasible hint violates a lower bound")
            if self.upper is not None and any(x > u for x, u in zip(hint, self.upper)):
                raise ValueError("feasible hint violates an upper bound")


def solve_ip(ip: IntegerProgram) -> Vec:
    """Exact optimum by depth-first branch and bound with bounds-consistency
    propagation.

    Every constraint has the form lower <= a . z <= upper: each equality row
    with lower = upper = b_i, and, once an incumbent exists, the objective
    cut c . z <= incumbent.  One rule tightens them all: a_j * z_j must lie
    within [lower, upper] less the range the other terms can take.  Rows are
    visited in order, then the cut, until no bound moves.

    Branches on the variable with the narrowest interval (lowest index on
    ties), values ascending; among optima the lexicographically smallest
    vector is returned, so the answer is deterministic.
    """
    A, b, c = ip.matrix, ip.rhs, ip.objective
    n = A.num_cols
    lo = list(ip.lower)
    if ip.upper is None:
        raise NoBoxError("finite upper bounds are required; none were supplied")
    hi = list(ip.upper)
    if any(l > h for l, h in zip(lo, hi)):
        raise InfeasibleError("empty box")

    rows = [
        (tuple(j for j, _ in A.row(i)), tuple(v for _, v in A.row(i)), b[i], b[i])
        for i in range(A.num_rows)
    ]
    in_rows = [False] * n
    for cols, _, _, _ in rows:
        for j in cols:
            in_rows[j] = True
    # variables free of every constraint are decided by their cost alone
    for j in range(n):
        if not in_rows[j]:
            if c[j] >= 0:
                hi[j] = lo[j]
            else:
                lo[j] = hi[j]
    # the cut's lower end is the least cost over the root box; no node's box
    # leaves the root box, so that end never binds
    cost_cols = tuple(j for j in range(n) if c[j])
    cost_coefs = tuple(c[j] for j in cost_cols)
    cost_floor = sum(min(a * lo[j], a * hi[j]) for j, a in zip(cost_cols, cost_coefs))

    best: list = [None, None]  # objective, vector
    if ip.feasible_hint is not None:
        hint = ip.feasible_hint
        best[0] = sum(cj * xj for cj, xj in zip(c, hint))
        best[1] = hint

    def propagate(lo: list[int], hi: list[int]) -> bool:
        constraints = rows
        if best[0] is not None:
            constraints = rows + [(cost_cols, cost_coefs, cost_floor, best[0])]
        changed = True
        while changed:
            changed = False
            for cols, coefs, lower, upper in constraints:
                lo_sum = hi_sum = 0
                for j, a in zip(cols, coefs):
                    if a > 0:
                        lo_sum += a * lo[j]
                        hi_sum += a * hi[j]
                    else:
                        lo_sum += a * hi[j]
                        hi_sum += a * lo[j]
                if lo_sum > upper or hi_sum < lower:
                    return False
                for j, a in zip(cols, coefs):
                    # a * z_j must land in [lower - (hi_sum - max_j),
                    # upper - (lo_sum - min_j)]; dividing by a < 0 swaps the ends
                    if a > 0:
                        bottom = lower - hi_sum + a * hi[j]
                        top = upper - lo_sum + a * lo[j]
                    else:
                        bottom = upper - lo_sum + a * hi[j]
                        top = lower - hi_sum + a * lo[j]
                    new_lo, new_hi = -(-bottom // a), top // a
                    if new_lo > lo[j]:
                        lo[j] = new_lo
                        changed = True
                    if new_hi < hi[j]:
                        hi[j] = new_hi
                        changed = True
                    if lo[j] > hi[j]:
                        return False
        return True

    # depth-first: one frame (lo, hi, branching variable, values left) per
    # open node on an explicit stack, so deep trees need no recursion
    stack: list[tuple[list[int], list[int], int, Iterator[int]]] = []

    def visit(lo: list[int], hi: list[int]) -> None:
        if not propagate(lo, hi):
            return
        free = [j for j in range(n) if lo[j] < hi[j]]
        if not free:
            vec = tuple(lo)
            obj = sum(cj * xj for cj, xj in zip(c, vec))
            if best[0] is None or obj < best[0] or (obj == best[0] and vec < best[1]):
                best[0], best[1] = obj, vec
            return
        j = min(free, key=lambda k: (hi[k] - lo[k], k))
        stack.append((lo, hi, j, iter(range(lo[j], hi[j] + 1))))

    visit(lo, hi)
    while stack:
        node_lo, node_hi, j, values = stack[-1]
        value = next(values, None)
        if value is None:
            stack.pop()
            continue
        child_lo, child_hi = node_lo.copy(), node_hi.copy()
        child_lo[j] = child_hi[j] = value
        visit(child_lo, child_hi)
    if best[1] is None:
        raise InfeasibleError("no feasible point in the box")
    return tuple(best[1])


# ---------------------------------------------------------------------------
# normal form -> integer program


def _in_row_space(A: SparseIntMatrix, w: Sequence[int]) -> bool:
    """Whether w is a rational combination of A's rows, by fraction-free
    elimination: each row, then w, is reduced by the echelon rows kept so
    far, and a row left nonzero joins them.  w lies in the row space exactly
    when it reduces to zero."""
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in [*A.to_dense(), list(w)]:
        for p, pivot_row in echelon:
            if row[p]:
                a, b = pivot_row[p], row[p]
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
        if not any(row):
            continue
        g = gcd(*row)
        echelon.append((next(j for j, x in enumerate(row) if x), [x // g for x in row]))
    return not any(row)


def normalform_to_ip(
    A: SparseIntMatrix, order: MonomialOrder, u: Sequence[int]
) -> IntegerProgram:
    """IP whose every optimum is the normal-form exponent of x^u.

    The objective comes from :func:`weight_vector` with the radix chosen one
    above the conformal-minimality norm bound, so comparisons of feasible
    points reproduce the monomial order.  Upper bounds follow from the
    objective value of u itself, which is feasible and seeds the incumbent.

    When the order's weights w lie in the rational row space of A (lex, or
    any graded order on a homogeneous matrix), the objective is the lex
    tie-break ``weight_vector(0...)`` alone; the box stays the one the full
    objective gives.  If w = yA then w.z = y.b on the whole fiber, so the two
    objectives differ by a constant there and have the same optima, while
    the smaller one makes the objective cut bound variables far sooner.
    """
    u = as_vector(u)
    if not is_nonnegative(u):
        raise ValueError("monomial exponents must be nonnegative")
    n = A.num_cols
    if len(u) != n or order.num_vars != n:
        raise DimensionMismatch("dimension mismatch between matrix, order and monomial")
    radix = graver_infinity_bound(A) + 1
    c = weight_vector(order.weights, radix, n)
    budget = sum(cj * xj for cj, xj in zip(c, u))
    upper = tuple(budget // cj for cj in c)
    if _in_row_space(A, order.weights):
        c = weight_vector((0,) * n, radix, n)
    return IntegerProgram(
        matrix=A,
        rhs=A.apply(u),
        objective=c,
        lower=(0,) * n,
        upper=upper,
        feasible_hint=u,
    )


# ---------------------------------------------------------------------------
# integer program -> normal form


@dataclass(frozen=True)
class NormalFormReduction:
    """Equality system, starting exponent and order whose normal form encodes
    an optimal solution of the source program.

    Variables of the enlarged matrix are (objective tracker, slacks, original
    variables); the tracker sits first so the lexicographic order minimises it
    first.
    """

    matrix: SparseIntMatrix
    rhs: Vec
    start_exponent: Vec
    order: MonomialOrder
    source_objective: Vec
    source_upper: Vec

    @property
    def num_source_vars(self) -> int:
        return len(self.source_objective)

    def extract_solution(self, normal_exponent: Sequence[int]) -> tuple[Vec, int]:
        """Optimal point and objective value encoded by a normal form.

        Raises ValueError when the tracker identity r = c_neg . t + c . z
        fails, since the exponent then encodes no solution."""
        v = as_vector(normal_exponent)
        n = self.num_source_vars
        if len(v) != 2 * n + 1:
            raise DimensionMismatch(f"expected length {2 * n + 1}, got {len(v)}")
        tracker, z = v[0], v[n + 1 :]
        c = self.source_objective
        objective = sum(cj * xj for cj, xj in zip(c, z))
        c_neg = negative_part(c)
        shift = sum(a * t for a, t in zip(c_neg, self.source_upper))
        if tracker != shift + objective:
            raise ValueError(
                f"tracker {tracker} does not match the objective: expected {shift + objective}"
            )
        return z, objective


def ip_to_normalform(ip: IntegerProgram, *, graded: bool = False) -> NormalFormReduction:
    """Embed a box-bounded IP with a known feasible point into a normal-form
    instance: w = (tracker, slack, z) subject to

        tracker = c_neg . slack + c_pos . z,   A z = b,   slack + z = t.

    The starting exponent is the image of the feasible hint; minimising the
    tracker first is the same as minimising the objective.
    """
    if ip.upper is None:
        raise NoBoxError("the reduction needs finite upper bounds")
    if ip.feasible_hint is None:
        raise ValueError("the reduction needs a feasible point")
    if any(ip.lower):
        raise ValueError("the reduction requires all-zero lower bounds")

    A, b, c, t = ip.matrix, ip.rhs, ip.objective, ip.upper
    m, n = A.num_rows, A.num_cols
    c_pos, c_neg = positive_part(c), negative_part(c)

    entries: list[tuple[int, int, int]] = [(0, 0, -1)]
    for j in range(n):
        if c_neg[j]:
            entries.append((0, 1 + j, c_neg[j]))
        if c_pos[j]:
            entries.append((0, 1 + n + j, c_pos[j]))
    for i, j, value in A.iter_entries():
        entries.append((1 + i, 1 + n + j, value))
    for j in range(n):
        entries.append((1 + m + j, 1 + j, 1))
        entries.append((1 + m + j, 1 + n + j, 1))
    enlarged = SparseIntMatrix(1 + m + n, 1 + 2 * n, entries)

    z_bar = ip.feasible_hint
    y_bar = tuple(tj - zj for tj, zj in zip(t, z_bar))
    tracker = sum(a * y for a, y in zip(c_neg, y_bar)) + sum(
        a * z for a, z in zip(c_pos, z_bar)
    )
    start = (tracker,) + y_bar + z_bar
    rhs = (0,) + b + t

    dims = 1 + 2 * n
    order = MonomialOrder.grlex(dims) if graded else MonomialOrder.lex(dims)
    return NormalFormReduction(enlarged, rhs, start, order, c, t)


def solve_ip_via_normal_form(ip: IntegerProgram, *, graded: bool = False) -> tuple[Vec, int]:
    """Round trip: embed the program, compute the normal form of the start
    exponent with the join-tree machinery, and read off the optimum.

    The lattice bound is the largest coordinate reachable by any feasible
    point of the embedded system, so the bounded fiber is the whole fiber and
    the computed normal form is exact.
    """
    reduction = ip_to_normalform(ip, graded=graded)
    c, t = reduction.source_objective, reduction.source_upper
    tracker_max = sum(abs(cj) * tj for cj, tj in zip(c, t))
    bound = max([tracker_max, 1, *t])
    lattice = build_lattice(reduction.matrix, bound)
    result = normal_form_bounded(
        reduction.matrix, lattice, reduction.order, reduction.start_exponent
    )
    return reduction.extract_solution(result.normal_exponent)


# ---------------------------------------------------------------------------
# vertex cover front end


def vertex_cover_ip(graph: Graph) -> IntegerProgram:
    """0/1 program whose optimum is the size of a smallest vertex cover.

    One variable per vertex, one per edge; each edge constrains its indicator
    to vertex_a + vertex_b - 1; taking every vertex is the feasible hint.
    """
    edges = sorted(graph.edges)
    nv, ne = graph.num_vertices, len(edges)
    entries = []
    for k, (a, b) in enumerate(edges):
        entries.append((k, a, 1))
        entries.append((k, b, 1))
        entries.append((k, nv + k, -1))
    matrix = SparseIntMatrix(ne, nv + ne, entries)
    return IntegerProgram(
        matrix=matrix,
        rhs=(1,) * ne,
        objective=(1,) * nv + (0,) * ne,
        lower=(0,) * (nv + ne),
        upper=(1,) * (nv + ne),
        feasible_hint=(1,) * (nv + ne),
    )
