"""Bidirectional reductions between integer programming and normal forms,
plus a baseline exact solver to close the loop.

One direction turns a normal-form instance into an equality-constrained IP
whose objective encodes the monomial order through a weight vector of powers.
The other direction embeds a box-constrained IP into a larger matrix whose
first coordinate tracks the objective, so the lexicographic normal form of a
feasible starting monomial reads off an optimal solution.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import (
    DimensionMismatch,
    Frozen,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    Vec,
    as_vector,
    check_length,
    check_monomial,
    check_order_length,
    in_row_space,
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


class IntegerProgram(Frozen):
    """min objective . z  subject to  matrix . z = rhs and box bounds.

    ``lower`` defaults to all zeros and ``upper`` is required; both are
    stored, so neither is None after construction.  A feasible point may be
    attached as a hint; it is validated on construction and used to seed the
    incumbent.
    """

    __slots__ = ("matrix", "rhs", "objective", "lower", "upper", "feasible_hint")

    def __init__(
        self,
        matrix: SparseIntMatrix,
        rhs: Sequence[int],
        objective: Sequence[int],
        lower: Sequence[int] | None = None,
        upper: Sequence[int] | None = None,
        feasible_hint: Sequence[int] | None = None,
    ):
        n, m = matrix.num_cols, matrix.num_rows
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", as_vector(rhs))
        object.__setattr__(self, "objective", as_vector(objective))
        if len(self.rhs) != m:
            raise DimensionMismatch(f"rhs length {len(self.rhs)}, expected {m}")
        if len(self.objective) != n:
            raise DimensionMismatch(f"objective length {len(self.objective)}, expected {n}")
        if lower is None:
            lower = (0,) * n
        for name, value in (("lower", lower), ("upper", upper), ("feasible_hint", feasible_hint)):
            if value is not None:
                value = as_vector(value)
                if len(value) != n:
                    raise DimensionMismatch(f"{name} length {len(value)}, expected {n}")
            object.__setattr__(self, name, value)
        hint = self.feasible_hint
        if hint is not None:
            if self.matrix.apply(hint) != self.rhs:
                raise ValueError("feasible hint violates the equality constraints")
            if any(x < l for x, l in zip(hint, self.lower)):
                raise ValueError("feasible hint violates a lower bound")
        if self.upper is None:
            raise NoBoxError("finite upper bounds are required; none were supplied")
        if hint is not None and any(x > u for x, u in zip(hint, self.upper)):
            raise ValueError("feasible hint violates an upper bound")


def solve_ip(ip: IntegerProgram) -> Vec:
    """Exact optimum by depth-first branch and bound with bounds-consistency
    propagation.

    Every constraint has the form lower <= a . z <= upper, in one list: each
    equality row with lower = upper = b_i, then, from the first incumbent on,
    the objective cut c . z <= incumbent, lowered in place as it improves.
    One rule tightens them all: a_j * z_j must lie within [lower, upper]
    less the range the other terms can take.  The list is visited in order
    until no bound moves.  A fixed variable (lo = hi) is skipped: once the
    constraint is known to be satisfiable over the box, its interval already
    holds the fixed value, so the rule could neither move a bound nor empty
    the interval.

    Branches where a value costs most: on the free variable with the
    largest |c_j| // (hi_j - lo_j + 1), then the narrowest interval, then
    the lowest index.  A variable with c_j < 0 takes its values from the top
    down, any other from the bottom up.  The answer does not depend on this
    order: the cut c . z <= incumbent admits ties, so every optimum is
    reached, and the lexicographically smallest one is kept.
    """
    A, b, c = ip.matrix, ip.rhs, ip.objective
    n = A.num_cols
    lo, hi = list(ip.lower), list(ip.upper)
    if any(l > h for l, h in zip(lo, hi)):
        raise InfeasibleError("empty box")

    # each constraint is [cols, coefs, lower, upper]
    rows = [A.row(i) for i in range(A.num_rows)]
    constraints = [[tuple(j for j, _ in r), tuple(a for _, a in r), bi, bi] for r, bi in zip(rows, b)]
    in_rows = {j for cols, _, _, _ in constraints for j in cols}
    # variables free of every constraint are decided by their cost alone
    for j in set(range(n)) - in_rows:
        if c[j] >= 0:
            hi[j] = lo[j]
        else:
            lo[j] = hi[j]
    # the cut's lower end is the least cost over the root box; no node's box
    # leaves the root box, so that end never binds
    cost_cols = tuple(j for j in range(n) if c[j])
    cost_coefs = tuple(c[j] for j in cost_cols)
    cost_floor = sum(min(a * lo[j], a * hi[j]) for j, a in zip(cost_cols, cost_coefs))

    best: tuple[int, Vec] | None = None  # (objective, vector)

    def offer(vec: Vec) -> None:
        nonlocal best
        candidate = (sum(cj * xj for cj, xj in zip(c, vec)), vec)
        if best is None:
            constraints.append([cost_cols, cost_coefs, cost_floor, candidate[0]])
        elif candidate >= best:
            return
        best = candidate
        constraints[-1][3] = candidate[0]

    def propagate(lo: list[int], hi: list[int]) -> bool:
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
                    if lo[j] == hi[j]:
                        continue
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

    def children(lo: list[int], hi: list[int], j: int) -> Iterator[tuple[list[int], list[int]]]:
        values = range(hi[j], lo[j] - 1, -1) if c[j] < 0 else range(lo[j], hi[j] + 1)
        for value in values:
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j] = child_hi[j] = value
            yield child_lo, child_hi

    if ip.feasible_hint is not None:
        offer(ip.feasible_hint)
    # depth-first over an explicit stack of child-box iterators, so deep
    # trees need no recursion
    stack = [iter([(lo, hi)])]
    while stack:
        box = next(stack[-1], None)
        if box is None:
            stack.pop()
        elif propagate(*box):
            lo, hi = box
            free = [j for j in range(n) if lo[j] < hi[j]]
            if free:
                j = min(free, key=lambda k: (-(abs(c[k]) // (hi[k] - lo[k] + 1)), hi[k] - lo[k], k))
                stack.append(children(lo, hi, j))
            else:
                offer(tuple(lo))
    if best is None:
        raise InfeasibleError("no feasible point in the box")
    return best[1]


# ---------------------------------------------------------------------------
# normal form -> integer program


def _positive_row_scan(A: SparseIntMatrix, w: Vec, b: Vec) -> tuple[Vec, list[int | None]]:
    """The weight remainder and the fiber caps, from one scan of the rows
    of A whose entries are all positive.

    The remainder: w less, row by row, the largest integer multiple of each
    such row that leaves it nonnegative, t = min_j floor(w_j / a_ij) over
    the row's support.  It is w - yA with y integer and y >= 0, and it is
    nonnegative when w is.

    The caps: cap_j = min floor(b_i / a_ij) over such rows i, or None where
    none has column j.  Every z >= 0 with Az = b has z_j <= cap_j, since the
    other terms of a positive row are nonnegative.
    """
    rest, caps = list(w), [None] * A.num_cols
    for i in range(A.num_rows):
        row = A.row(i)
        if row and all(a > 0 for _, a in row):
            t = min(rest[j] // a for j, a in row)
            for j, a in row:
                rest[j] -= t * a
                cap = b[i] // a
                if caps[j] is None or cap < caps[j]:
                    caps[j] = cap
    return tuple(rest), caps


def normalform_to_ip(
    A: SparseIntMatrix, order: MonomialOrder, u: Sequence[int]
) -> IntegerProgram:
    """IP whose every optimum is the normal-form exponent of x^u.

    The objective is ``weight_vector(w', radix, n)``, which orders two
    points as the monomial order does when they differ by less than the
    radix in every entry; u itself is feasible and seeds the incumbent.
    With b = Au and the fiber caps cap_j = min floor(b_i / a_ij) over the
    rows of A whose entries are all positive (:func:`_positive_row_scan`),
    the program takes one of two shapes:

    - capped, when every column has a cap: the box is the caps and the
      radix is one above min(Graver bound, max cap).  Two fiber points
      differ by at most max(cap) in every entry, so the objective orders
      the whole fiber as the order does.
    - uncapped: the radix is one above the conformal-minimality norm bound,
      and the box is budget // c_j, from u's cost under the full weights
      c = ``weight_vector(w, radix, n)``.

    w' = w - yA is the order's weights w less the positive rows of A, each
    taken as often as w' stays nonnegative (the same scan), and w' = 0 when
    w lies in the rational row space of A (lex, or any graded order on a
    homogeneous matrix).  The row-space test (:func:`core.in_row_space`, in
    column order) runs only when w' is nonzero; w' is in the row space
    exactly when w is.

    Why the answer is the same: w - w' = yA, with y integer for the rows
    taken and rational when w' = 0 replaces a w in the row space, so on the
    fiber Az = b the two objectives differ by the constant r^n.(y.b) and
    have the same optima and the same lexicographic tie-break.  Why it
    prunes sooner: the r^n.w part is constant on the fiber but not on the
    box, so the smaller it is, the sooner the objective cut bounds
    variables; since w' >= 0 every cost is positive and the cut bounds
    every variable.

    The monomial is checked first, by :func:`core.check_monomial`, then
    the order's length, by :func:`core.check_order_length`.
    """
    u = as_vector(u)
    n = A.num_cols
    check_monomial(u, n)
    check_order_length(order, n)
    b = A.apply(u)
    # each rule below pays for itself: CPU time to embed and solve, with the
    # rule against without it, on a shared 2-CPU host.  The remainder w':
    # 0.24 s against 0.49 s on 600 K_{3,4} programs, 0.19 against 1.28 s on
    # 300 K_{3,5} ones
    rest, caps = _positive_row_scan(A, order.weights, b)
    # the row-space test: 0.034 s against 0.51 s on 120 grlex programs on
    # the incidence matrix of K_5
    if any(rest) and in_row_space(A, rest, range(n)):
        rest = (0,) * n
    if None not in caps:
        radix = min(graver_infinity_bound(A), max(caps, default=0)) + 1
        return IntegerProgram(A, b, weight_vector(rest, radix, n), upper=caps, feasible_hint=u)
    # the full weights' box: 12.9 s against 13.5 s boxed by w' on the 81,784
    # programs of acceptance criterion 6
    radix = graver_infinity_bound(A) + 1
    full = weight_vector(order.weights, radix, n)
    budget = sum(cj * xj for cj, xj in zip(full, u))
    c = full if rest == order.weights else weight_vector(rest, radix, n)
    return IntegerProgram(A, b, c, upper=tuple(budget // cj for cj in full), feasible_hint=u)


# ---------------------------------------------------------------------------
# integer program -> normal form


class NormalFormReduction(Frozen):
    """Equality system, starting exponent and order whose normal form encodes
    an optimal solution of the source program.

    Variables of the enlarged matrix are (objective tracker, slacks, original
    variables); the tracker sits first so the lexicographic order minimises it
    first.
    """

    __slots__ = ("matrix", "rhs", "start_exponent", "order", "source_objective", "source_upper")

    def __init__(
        self,
        matrix: SparseIntMatrix,
        rhs: Vec,
        start_exponent: Vec,
        order: MonomialOrder,
        source_objective: Vec,
        source_upper: Vec,
    ):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "start_exponent", start_exponent)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "source_objective", source_objective)
        object.__setattr__(self, "source_upper", source_upper)

    @property
    def num_source_vars(self) -> int:
        return len(self.source_objective)

    def extract_solution(self, normal_exponent: Sequence[int]) -> tuple[Vec, int]:
        """Optimal point and objective value encoded by a normal form.

        Raises ValueError when the tracker identity r = c_neg . t + c . z
        fails, since the exponent then encodes no solution."""
        v = as_vector(normal_exponent)
        n = self.num_source_vars
        check_length(v, 2 * n + 1)
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
    tracker = sum(a * x for a, x in zip(c_neg + c_pos, y_bar + z_bar))
    start = (tracker,) + y_bar + z_bar
    rhs = (0,) + b + t

    dims = 1 + 2 * n
    order = MonomialOrder.grlex(dims) if graded else MonomialOrder.lex(dims)
    return NormalFormReduction(enlarged, rhs, start, order, c, t)


def solve_ip_via_normal_form(ip: IntegerProgram) -> tuple[Vec, int]:
    """Round trip: embed the program, compute the normal form of the start
    exponent with the join-tree machinery, and read off the optimum.

    The lattice bound is the largest coordinate reachable by any feasible
    point of the embedded system, so the bounded fiber is the whole fiber and
    the computed normal form is exact.
    """
    reduction = ip_to_normalform(ip)
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
        upper=(1,) * (nv + ne),
        feasible_hint=(1,) * (nv + ne),
    )
