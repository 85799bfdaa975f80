"""Backtrack-free join-tree representation of box-bounded and
degree-truncated kernel vector sets of a sparse integer matrix.

The represented set is either

* every integer kernel vector with all entries in [-g, g]  (``box`` kind), or
* every kernel vector whose positive and negative parts both have 1-norm at
  most d  (``degree`` kind).

Construction treats the defining conditions as a constraint network whose
primal graph is the column graph of the matrix (plus, for the degree kind,
two chains of running-sum counters interleaved along the elimination
ordering).  Every bound is a variable's domain: [-g, g] for a column of the
box kind, [-d, d] for a column and 0..d for a counter of the degree kind.
Bags are the cliques of the chordal completion under the chosen ordering,
arranged along the elimination tree; two semijoin passes make every stored
row extend to a full solution.
"""

from __future__ import annotations

import operator
import os
import warnings
from bisect import bisect_left, bisect_right
from itertools import compress, count, repeat
from typing import Iterator, Sequence

from .core import (
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    Vec,
    as_vector,
    infinity_norm,
    negative_part,
    one_norm,
    positive_part,
    weight_vector,
)
from .graphs import Graph, column_graph, eliminate, min_fill_ordering


class LatticeError(ToricError):
    pass


class BoundExceeded(ToricError):
    pass


class BudgetExceeded(ToricError):
    pass


DEFAULT_BUILD_BUDGET = 50_000_000
_BOUND_WARN_THRESHOLD = 64


def _resolve_budget(build_budget: int | None) -> int:
    """The build budget: the argument when given, else ``TORICBASES_BUDGET``
    when set, else the default.  A variable that is not an integer is
    rejected."""
    if build_budget is not None:
        return build_budget
    raw = os.environ.get("TORICBASES_BUDGET")
    if raw is None:
        return DEFAULT_BUILD_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TORICBASES_BUDGET must be an integer, got {raw!r}") from None


def graver_infinity_bound(A: SparseIntMatrix) -> int:
    """Upper bound (2*m*a + 1)^m on the infinity norm of any conformally
    minimal kernel vector, where a is the largest entry magnitude."""
    return (2 * A.num_rows * A.max_abs + 1) ** A.num_rows


# ---------------------------------------------------------------------------
# constraints of the underlying network


class _RowZero:
    """sum(coefs . vars) == 0."""

    __slots__ = ("vars", "coefs")

    def __init__(self, variables: Sequence[int], coefs: Sequence[int]):
        self.vars = tuple(variables)
        self.coefs = tuple(coefs)

    def scope(self) -> tuple[int, ...]:
        return self.vars


class _Counter:
    """out == prev + part(x), a running sum.

    ``part`` is the positive or the negative part of the column value; prev
    is None for the first counter in a chain.
    """

    __slots__ = ("prev", "x", "out", "positive")

    def __init__(self, prev: int | None, x: int, out: int, positive: bool):
        self.prev = prev
        self.x = x
        self.out = out
        self.positive = positive

    def scope(self) -> tuple[int, ...]:
        if self.prev is None:
            return (self.x, self.out)
        return (self.prev, self.x, self.out)


# ---------------------------------------------------------------------------
# bags


# A child's rows as its parent reads them: the child's separator, and one
# trie level per separator variable, mapping the values of the variables
# before it to its allowed values.  Tuples, not sets: a variable has only
# its few domain values, and a set per trie node raised the peak memory.
Message = tuple[tuple[int, ...], list[dict[tuple[int, ...], tuple[int, ...]]]]


class _Bag:
    """One clique of the join tree, and after the build its sweep plan.

    The scope is ordered by elimination position, so the introduced
    variable comes first in it and in every row.  The plan is fixed by the
    downward pass.  Rows are sorted by separator key id, then by the
    introduced variable's value; ``key_ids[r]`` is the id of row r's
    separator key, and ``up[r]`` the id of this bag's separator key at row r
    of the parent (``child_ups`` holds the children's).  So a child's
    message, a list indexed by key id, is read at a parent row with no tuple
    built.  Each scope column keeps its sorted distinct values and, for
    each, the mask of the rows at or above it (bit len(rows) - 1 - r for
    row r).
    """

    __slots__ = (
        "pos",
        "intro",
        "scope",
        "sep",
        "parent",
        "children",
        "rows",
        "sep_positions",
        "child_extract",
        "key_ids",
        "num_keys",
        "up",
        "child_ups",
        "columns",
    )

    def __init__(self, pos: int, intro: int, scope: tuple[int, ...], parent: int | None):
        self.pos = pos
        self.intro = intro
        self.scope = scope  # ordered by elimination position
        self.sep = tuple(v for v in scope if v != intro)
        self.parent = parent
        self.children: tuple[int, ...] = ()
        self.rows: tuple[tuple[int, ...], ...] = ()
        self.sep_positions: tuple[int, ...] = ()
        # child pos -> positions of the child's separator inside this scope
        self.child_extract: dict[int, tuple[int, ...]] = {}
        self.key_ids: list[int] = []
        self.num_keys = 0
        self.up: list[int] = []
        self.child_ups: tuple[list[int], ...] = ()
        # (column, sorted distinct values, masks of the rows at or above each)
        self.columns: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] = ()

    def set_positions(self, bags: "list[_Bag]") -> None:
        index = {v: i for i, v in enumerate(self.scope)}
        if index[self.intro]:
            raise LatticeError("the introduced variable must come first in the bag scope")
        self.sep_positions = tuple(index[v] for v in self.sep)
        self.child_extract = {c: tuple(index[v] for v in bags[c].sep) for c in self.children}

    def project_sep(self, row: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([row[i] for i in self.sep_positions])

    def message(self) -> Message:
        # deepest level first: each level's keys are the prefixes one shorter
        prefixes = {self.project_sep(row) for row in self.rows}
        levels: list[dict[tuple[int, ...], tuple[int, ...]]] = []
        for _ in self.sep:
            grouped: dict[tuple[int, ...], list[int]] = {}
            for prefix in prefixes:
                grouped.setdefault(prefix[:-1], []).append(prefix[-1])
            levels.append({head: tuple(values) for head, values in grouped.items()})
            prefixes = grouped.keys()
        levels.reverse()
        return self.sep, levels

    def settle(self, pairs: Iterator[tuple[int, tuple[int, ...]]], num_keys: int, n: int) -> None:
        """Fix the rows, given as (key id, row) pairs, and compile the plan."""
        keyed = sorted(pairs)
        self.rows = tuple(map(operator.itemgetter(1), keyed))
        self.key_ids = list(map(operator.itemgetter(0), keyed))
        del keyed  # freed before the masks are built, to lower the peak
        self.num_keys = num_keys
        columns = []
        for i, var in enumerate(self.scope):
            if var >= n:  # counters are never boxed
                continue
            rows_at: dict[int, list[int]] = {}
            for r, x in enumerate(map(operator.itemgetter(i), self.rows)):
                rows_at.setdefault(x, []).append(r)
            values = sorted(rows_at)
            # the binary digits of the rows at or above each value, filled in
            # from the largest value down, so that every row is marked once
            digits = bytearray(b"0") * len(self.rows)
            masks = [0]
            for x in reversed(values):
                for r in rows_at[x]:
                    digits[r] = ord("1")
                masks.append(int(digits, 2))
            masks.reverse()
            columns.append((var, tuple(values), tuple(masks)))
        self.columns = tuple(columns)

    def key_at(self, chosen: list[int]) -> int:
        """This bag's separator key id at the parent's chosen row."""
        return 0 if self.parent is None else self.up[chosen[self.parent]]

    def group(self, key: int) -> range:
        """The rows with the given separator key id."""
        return range(bisect_left(self.key_ids, key), bisect_right(self.key_ids, key))

    def selection(self, lo: Vec, hi: Vec) -> bytes | None:
        """One byte per row, nonzero for the rows inside the box, or None
        when the box keeps every row."""
        mask = None
        for var, values, masks in self.columns:
            l, h = lo[var], hi[var]
            if l > values[0] or h < values[-1]:
                m = masks[bisect_left(values, l)] & ~masks[bisect_right(values, h)]
                mask = m if mask is None else mask & m
        if mask is None:
            return None
        return format(mask, f"0{len(self.rows)}b").encode().translate(_BIT_BYTES)


# ASCII binary digits as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _enumerate_bag(
    scope: tuple[int, ...],
    domains: dict[int, tuple[int, ...]],
    constraints: list,
    messages: list[Message],
) -> list[tuple[int, ...]]:
    """All assignments to the scope satisfying the bag's constraints and
    compatible with every child message, by depth-first search.

    The scope is ordered by elimination position, and a value is derived
    rather than enumerated wherever the earlier values fix it or narrow it:

    * a counter's output is forced by its inputs, and the branch ends when
      that is above the counter's domain;
    * the last variable of a row equation is forced to -partial/coef, kept
      only when that divides exactly (the interval checks at the equation's
      earlier variables keep it inside the column domain, which holds 0);
    * a variable of a child's separator takes its candidates from that
      child's message, at the values of the separator variables before it
      (one trie step, as in Generic Join), checked against every other
      message that reaches the same variable.

    Only the remaining variables range over their domain.  Row equations
    prune the earlier depths by interval arithmetic on their later part.
    """
    s = len(scope)
    index = {v: i for i, v in enumerate(scope)}

    def depth_after(var: int, inputs) -> int:
        depth = index[var]
        if any(index[v] >= depth for v in inputs):
            raise LatticeError(f"variable {var} does not follow its inputs in the bag scope")
        return depth

    # per depth: (prev depth or None, x depth, domain maximum, positive) of forcing counters
    counters_at: list[list[tuple[int | None, int, int, bool]]] = [[] for _ in range(s)]
    # per depth: (equation, coef) of the row equations whose last variable is here
    closing_at: list[list[tuple[int, int]]] = [[] for _ in range(s)]
    # per depth: (equation, coef, lo, hi) of the row equations with later
    # variables, whose later terms can sum to anything in [lo, hi]
    open_at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(s)]
    # per depth: (depths of the key, trie level) of the messages reaching here
    indexed_at: list[list[tuple[tuple[int, ...], dict]]] = [[] for _ in range(s)]
    num_equations = 0

    for cons in constraints:
        if isinstance(cons, _Counter):
            inputs = (cons.x,) if cons.prev is None else (cons.prev, cons.x)
            prev = None if cons.prev is None else index[cons.prev]
            counters_at[depth_after(cons.out, inputs)].append(
                (prev, index[cons.x], domains[cons.out][-1], cons.positive)
            )
        elif isinstance(cons, _RowZero):
            by_depth = sorted((index[v], c) for v, c in zip(cons.vars, cons.coefs))
            eq = num_equations
            num_equations += 1
            lo, hi = 0, 0
            for k, (depth, coef) in enumerate(reversed(by_depth)):
                if k:
                    open_at[depth].append((eq, coef, lo, hi))
                else:
                    closing_at[depth].append((eq, coef))
                dom = domains[scope[depth]]
                lo += min(coef * dom[0], coef * dom[-1])
                hi += max(coef * dom[0], coef * dom[-1])
        else:  # pragma: no cover - no other kinds exist
            raise LatticeError(f"unknown constraint {cons!r}")

    for sep_vars, levels in messages:
        for k, level in enumerate(levels):
            earlier = sep_vars[:k]
            indexed_at[depth_after(sep_vars[k], earlier)].append(
                (tuple(index[v] for v in earlier), level)
            )

    partial = [0] * num_equations
    rows: list[tuple[int, ...]] = []
    values = [0] * s
    nothing: tuple[int, ...] = ()

    def descend(depth: int) -> None:
        if depth == s:
            rows.append(tuple(values))
            return
        fixed = None
        for prev, x, top, positive in counters_at[depth]:
            part = values[x] if positive else -values[x]
            out = (0 if prev is None else values[prev]) + (part if part > 0 else 0)
            if out > top or (fixed is not None and out != fixed):
                return
            fixed = out
        for eq, coef in closing_at[depth]:
            forced, rem = divmod(-partial[eq], coef)
            if rem or (fixed is not None and forced != fixed):
                return
            fixed = forced
        indexed = indexed_at[depth]
        if indexed:
            allowed = [level.get(tuple([values[i] for i in key]), nothing) for key, level in indexed]
            allowed.sort(key=len)
        else:
            allowed = indexed
        if fixed is not None:
            candidates = (fixed,)
        elif allowed:
            candidates, *allowed = allowed
        else:
            candidates = domains[scope[depth]]
        opens = open_at[depth]
        for value in candidates:
            if allowed and any(value not in other for other in allowed):
                continue
            for eq, coef, lo, hi in opens:
                p = partial[eq] + coef * value
                if p + lo > 0 or p + hi < 0:
                    break
            else:
                values[depth] = value
                for eq, coef, _lo, _hi in opens:
                    partial[eq] += coef * value
                descend(depth + 1)
                for eq, coef, _lo, _hi in opens:
                    partial[eq] -= coef * value

    descend(0)
    return rows


# ---------------------------------------------------------------------------
# the lattice


# Per-column interval (lo, hi): the vectors v with lo[j] <= v[j] <= hi[j].
Box = tuple[Vec, Vec]


class KernelLattice:
    """Join tree over the kernel vectors of a matrix, either box-bounded
    (kind ``box`` with bound g) or degree-truncated (kind ``degree`` with
    bound d).

    Immutable once built; the queries are pure.  ``count`` and ``minimize``
    take an optional :data:`Box` that restricts them to the represented
    vectors inside it.
    """

    def __init__(
        self,
        matrix: SparseIntMatrix,
        kind: str,
        bound: int,
        bags: list[_Bag],
        clique_number: int,
    ):
        self.matrix = matrix
        self.kind = kind
        self.bound = bound
        self.num_columns = matrix.num_cols
        self._bags = bags
        self.realized_clique_number = clique_number
        self._roots = tuple(b.pos for b in bags if b.parent is None)
        self._preorder = self._compute_preorder()

    def _compute_preorder(self) -> tuple[int, ...]:
        order: list[int] = []
        stack = list(reversed(self._roots))
        while stack:
            pos = stack.pop()
            order.append(pos)
            stack.extend(reversed(self._bags[pos].children))
        return tuple(order)

    def total_rows(self) -> int:
        return sum(len(b.rows) for b in self._bags)

    @property
    def certified(self) -> bool:
        """Whether the normal forms and bases computed from the lattice are
        exact.  A box lattice must hold every Graver element of its matrix:
        its bound is at least graver_infinity_bound.  A degree-d lattice
        always qualifies.  It serves only graded orders and monomials of
        degree at most d, whose normal form has no larger degree, so the
        move to it has both parts of degree at most d and lies in the
        lattice; and its bases are by definition the elements of degree at
        most d."""
        return self.kind == "degree" or self.bound >= graver_infinity_bound(self.matrix)

    # -- membership -------------------------------------------------------

    def within_bound(self, v: Vec) -> bool:
        """Whether v lies inside the lattice's bound: every entry at most g
        in absolute value (box), or both parts of 1-norm at most d (degree).
        The lattice holds exactly the kernel vectors inside it."""
        if self.kind == "box":
            return infinity_norm(v) <= self.bound
        return max(one_norm(positive_part(v)), one_norm(negative_part(v))) <= self.bound

    def check_bound(self, v: Vec) -> None:
        """Raise BoundExceeded unless v lies inside the lattice's bound."""
        if not self.within_bound(v):
            raise BoundExceeded(f"{v} lies outside the {self.kind} bound {self.bound}")

    def check_order(self, order: MonomialOrder) -> None:
        """Raise ValueError unless the lattice serves the order: a degree
        lattice serves only the graded lexicographic order, under which a
        normal form never has a larger degree."""
        if self.kind == "degree" and not order.is_unit_weights:
            raise ValueError("degree-truncated lattices support only the graded lexicographic order")

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v is a represented vector: the count of the box that
        holds v alone.  The columns fix every counter of a degree lattice,
        so boxing the columns is enough."""
        v = as_vector(v)
        if len(v) != self.num_columns:
            raise DimensionMismatch(f"expected length {self.num_columns}, got {len(v)}")
        return self.within_bound(v) and self.count((v, v)) == 1

    def __contains__(self, v: Sequence[int]) -> bool:
        return self.contains(v)

    def _vector(self, chosen: list[int]) -> Vec:
        """The column vector of one chosen row per bag."""
        v = [0] * self.num_columns
        for bag in self._bags:
            if bag.intro < self.num_columns:
                v[bag.intro] = bag.rows[chosen[bag.pos]][0]
        return tuple(v)

    # -- enumeration --------------------------------------------------------

    def iterate(self) -> Iterator[Vec]:
        """Yield every represented vector exactly once, in a deterministic
        order, by backtrack-free depth-first extension along the tree.

        The extension keeps one iterator over a bag's rows at the chosen
        parent row's key, per bag in preorder, on an explicit stack, so long
        trees need no recursion."""
        bags = self._bags
        order = [bags[pos] for pos in self._preorder]
        if not order:
            yield ()
            return
        chosen = [0] * len(bags)

        def rows(bag: _Bag) -> Iterator[int]:
            return iter(bag.group(bag.key_at(chosen)))

        stack = [rows(order[0])]
        while stack:
            r = next(stack[-1], None)
            if r is None:
                stack.pop()
                continue
            chosen[order[len(stack) - 1].pos] = r
            if len(stack) == len(order):
                yield self._vector(chosen)
            else:
                stack.append(rows(order[len(stack)]))

    def __iter__(self) -> Iterator[Vec]:
        return self.iterate()

    # -- sweeps -------------------------------------------------------------

    def _sweep(self, box: Box | None, leaf, times, plus, zero) -> list[list]:
        """One bottom-up pass of a commutative semiring over the join tree.

        Children precede their parent in position order.  A bag's aggregate
        is a list indexed by separator key id: ``plus`` over the bag's rows
        inside the box with that key of the row's leaf value ``times`` the
        children's messages at the row, ``zero`` where no row contributes.
        ``leaf(bag, selected)`` yields the leaf values of the rows that the
        selection bytes keep (all rows when None).  ``zero`` must absorb
        under ``times``, because the passes over the rows (``compress`` and
        ``map``) cannot skip a row; only the fold into the aggregates runs a
        Python loop.
        """
        n = self.num_columns
        if box is not None:
            lo, hi = box
            if not len(lo) == len(hi) == n:
                raise DimensionMismatch(f"box needs {n} lower and upper bounds")
        bags = self._bags
        aggs: list[list] = []
        for bag in bags:
            selected = None if box is None else bag.selection(lo, hi)
            keys = bag.key_ids
            ups = bag.child_ups
            if selected is not None:
                keys = compress(keys, selected)
                ups = [compress(up, selected) for up in ups]
            acc = leaf(bag, selected)
            for c, up in zip(bag.children, ups):
                acc = map(times, acc, map(aggs[c].__getitem__, up))
            agg = [zero] * bag.num_keys
            for key, value in zip(keys, acc):
                old = agg[key]
                agg[key] = value if old is zero else plus(old, value)
            aggs.append(agg)
        return aggs

    def count(self, box: Box | None = None) -> int:
        """Exact number of represented vectors inside the box, without
        enumeration: the (+, x) sweep."""
        aggs = self._sweep(box, lambda bag, selected: repeat(1), operator.mul, operator.add, 0)
        total = 1
        for root in self._roots:
            total *= aggs[root][0]
        return total

    def minimize(self, order: MonomialOrder, box: Box | None = None) -> Vec | None:
        """The represented vector inside the box that is smallest under the
        order, or None when there is none: the (min, +) sweep.

        The order's key (w.v, v_1, ..., v_n) becomes the single integer c.v
        with c = weight_vector(w, 2*bound + 1, n); any two represented
        vectors differ by at most 2*bound in every column, so c.v orders them
        exactly as the key does.  Every partial key lies in [-M, M] for
        M = bound * sum c_j (c is positive), so 2M + 1 absorbs under + and
        loses every min: it is the zero.  The vector is read off top-down in
        preorder: each bag takes, among its rows at the chosen parent row's
        key id, the one whose key is the aggregate.  Distinct rows there
        extend to distinct partial vectors, whose keys c.v tell apart, so
        the row is unique, and it lies inside the box.  So when no other
        row of the key matches, the last one does, unchecked.
        """
        n = self.num_columns
        bags = self._bags
        c = weight_vector(order.weights, 2 * self.bound + 1, n)
        limit = sum(c) * self.bound
        c += (0,) * (len(bags) - n)  # counters carry no weight
        first = operator.itemgetter(0)

        def leaf(bag: _Bag, selected: bytes | None):
            rows = bag.rows if selected is None else compress(bag.rows, selected)
            return map(operator.mul, map(first, rows), repeat(c[bag.intro]))

        aggs = self._sweep(box, leaf, operator.add, min, 2 * limit + 1)
        if any(aggs[root][0] > limit for root in self._roots):
            return None
        chosen = [0] * len(bags)
        for pos in self._preorder:
            bag = bags[pos]
            key = bag.key_at(chosen)
            keys = bag.key_ids
            r = bisect_left(keys, key)
            while r + 1 < len(keys) and keys[r + 1] == key:
                value = c[bag.intro] * bag.rows[r][0]
                value += sum(aggs[child][bags[child].up[r]] for child in bag.children)
                if value == aggs[pos][key]:
                    break
                r += 1
            chosen[pos] = r
        return self._vector(chosen)

    # -- validation (exercised by the test suite) -------------------------------

    def validate(self) -> None:
        """Assert the structural invariants: running intersection, separator
        containment, backtrack-freeness in both directions, and a sweep plan
        that agrees with the rows."""
        bags = self._bags
        containing: dict[int, list[int]] = {}
        for bag in bags:
            for var in bag.scope:
                containing.setdefault(var, []).append(bag.pos)
        for var, positions in containing.items():
            present = set(positions)
            top = max(positions)
            for pos in positions:
                walk = pos
                while walk != top:
                    parent = bags[walk].parent
                    assert parent is not None and parent in present, (
                        f"running intersection violated for variable {var}"
                    )
                    walk = parent
        for bag in bags:
            if bag.parent is None:
                assert set(bag.key_ids) <= {0} and bag.num_keys == 1
            else:
                assert set(bag.sep) <= set(bags[bag.parent].scope)
            assert bag.key_ids == sorted(bag.key_ids), "rows not grouped by key id"
            keyed = list(zip(bag.key_ids, (row[0] for row in bag.rows)))
            assert keyed == sorted(set(keyed)), "rows of a key not strictly sorted"
            key_of = {}
            for k, row in zip(bag.key_ids, bag.rows):
                assert key_of.setdefault(k, bag.project_sep(row)) == bag.project_sep(row)
            for var, values, masks in bag.columns:
                i = bag.scope.index(var)
                for x, mask in zip(values, masks):
                    want = "".join("1" if row[i] >= x else "0" for row in bag.rows)
                    assert mask == int(want, 2), "row mask disagrees with the rows"
            for c in bag.children:
                child = bags[c]
                child_keys = {}
                for k, row in zip(child.key_ids, child.rows):
                    child_keys[k] = child.project_sep(row)
                assert len(child.up) == len(bag.rows)
                for row, k in zip(bag.rows, child.up):
                    want = tuple(row[i] for i in bag.child_extract[c])
                    assert child_keys.get(k) == want, "parent row with no child extension"
                assert set(child_keys) <= set(child.up), "child row with no parent support"

    def __repr__(self) -> str:
        return (
            f"KernelLattice(kind={self.kind!r}, bound={self.bound}, "
            f"cols={self.num_columns}, rows={self.total_rows()})"
        )


def shift_box(u: Sequence[int], g: int) -> Box:
    """The vectors v with u + v >= 0 and entries at most g."""
    return tuple(-x for x in u), (g,) * len(u)


def conformal_box(z: Sequence[int]) -> Box:
    """The vectors conformal to z: sign-compatible with z and componentwise
    dominated by it in absolute value."""
    return tuple(min(x, 0) for x in z), tuple(max(x, 0) for x in z)


# ---------------------------------------------------------------------------
# builders


def _assemble(
    matrix: SparseIntMatrix,
    kind: str,
    bound: int,
    num_vars: int,
    pi: tuple[int, ...],
    domains: dict[int, tuple[int, ...]],
    constraints: list,
    budget: int,
) -> KernelLattice:
    edges = set()
    for cons in constraints:
        scope = cons.scope()
        for a in range(len(scope)):
            for b in range(a + 1, len(scope)):
                x, y = scope[a], scope[b]
                edges.add((x, y) if x < y else (y, x))
    primal = Graph.from_edges(num_vars, edges)
    elim = eliminate(primal, pi)

    estimate = 0
    for clique in elim.cliques:
        cells = 1
        for var in clique:
            cells *= len(domains[var])
        estimate += cells
        if estimate > budget:
            raise BudgetExceeded(
                f"estimated table work {estimate} exceeds budget {budget}; "
                "lower the bound or provide a better ordering"
            )

    position = elim.position
    bags: list[_Bag] = []
    for l, var in enumerate(pi):
        scope = tuple(sorted(elim.cliques[l], key=position.__getitem__))
        parent_vertex = elim.parent[var]
        parent_pos = position[parent_vertex] if parent_vertex is not None else None
        bags.append(_Bag(l, var, scope, parent_pos))
    children: dict[int, list[int]] = {l: [] for l in range(num_vars)}
    for bag in bags:
        if bag.parent is not None:
            children[bag.parent].append(bag.pos)
    for bag in bags:
        bag.children = tuple(sorted(children[bag.pos]))
        bag.set_positions(bags)

    by_bag: dict[int, list] = {l: [] for l in range(num_vars)}
    for cons in constraints:
        scope = cons.scope()
        home = min(position[v] for v in scope)
        if not set(scope) <= set(bags[home].scope):
            raise LatticeError(
                "constraint scope not covered by its bag; the ordering does not "
                "come from the primal graph"
            )
        by_bag[home].append(cons)

    # upward pass: enumerate each bag against its children's messages
    for bag in bags:
        messages = [bags[c].message() for c in bag.children]
        bag.rows = tuple(_enumerate_bag(bag.scope, domains, by_bag[bag.pos], messages))

    # downward pass: drop rows without support in the parent, numbering a
    # child's separator keys in the order the parent's rows first project
    # onto them; parents come first, so their rows are settled
    n = matrix.num_cols
    for bag in reversed(bags):
        if bag.parent is None:
            bag.settle(zip(repeat(0), bag.rows), 1, n)
        for c in bag.children:
            child = bags[c]
            # a child's separator is never empty, and the parent and the
            # child project it with getters of the same arity
            projections = list(map(operator.itemgetter(*bag.child_extract[c]), bag.rows))
            ids = dict(zip(dict.fromkeys(projections), count()))
            child.up = list(map(ids.__getitem__, projections))
            keys = map(ids.get, map(operator.itemgetter(*child.sep_positions), child.rows))
            child.settle(
                ((key, row) for key, row in zip(keys, child.rows) if key is not None), len(ids), n
            )
        bag.child_ups = tuple(bags[c].up for c in bag.children)

    return KernelLattice(matrix, kind, bound, bags, elim.clique_number)


def _resolve_ordering(A: SparseIntMatrix, ordering: Sequence[int] | None) -> tuple[int, ...]:
    if ordering is None:
        return min_fill_ordering(column_graph(A))
    ordering = tuple(int(v) for v in ordering)
    if sorted(ordering) != list(range(A.num_cols)):
        raise ValueError("ordering must be a permutation of the columns")
    return ordering


def _row_constraints(A: SparseIntMatrix) -> list[_RowZero]:
    out = []
    for i in range(A.num_rows):
        cols = tuple(j for j, _ in A.row(i))
        if not cols:  # zero rows constrain nothing
            continue
        coefs = tuple(v for _, v in A.row(i))
        out.append(_RowZero(cols, coefs))
    return out


def build_lattice(
    A: SparseIntMatrix,
    g: int | None = None,
    ordering: Sequence[int] | None = None,
    *,
    build_budget: int | None = None,
) -> KernelLattice:
    """Join tree for the kernel vectors of A with entries in [-g, g].

    When g is omitted it defaults to :func:`graver_infinity_bound`, which is
    doubly exponential in practice; a warning is emitted when the default
    exceeds a small threshold.
    """
    if g is None:
        g = graver_infinity_bound(A)
        if g > _BOUND_WARN_THRESHOLD:
            warnings.warn(
                f"default bound {g} is very large; pass an explicit bound",
                stacklevel=2,
            )
    if g < 0:
        raise ValueError("bound must be nonnegative")
    budget = _resolve_budget(build_budget)
    if 2 * g + 1 > budget:
        raise BudgetExceeded(f"domain size {2 * g + 1} exceeds budget {budget}")
    column_ordering = _resolve_ordering(A, ordering)
    n = A.num_cols
    domain = tuple(range(-g, g + 1))
    domains = {j: domain for j in range(n)}
    return _assemble(
        A,
        "box",
        g,
        n,
        column_ordering,
        domains,
        _row_constraints(A),
        budget,
    )


def build_truncated_lattice(
    A: SparseIntMatrix,
    d: int,
    ordering: Sequence[int] | None = None,
    *,
    build_budget: int | None = None,
) -> KernelLattice:
    """Join tree for the kernel vectors of A whose positive and negative
    parts both have 1-norm at most d.

    The two degree conditions are global, so they are threaded along the
    elimination ordering as running-sum counters over 0..d, one pair per
    column, interleaved right after their column.  The sums only grow, so a
    counter's domain is the whole bound: a branch whose sum passes d ends
    there.
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    column_ordering = _resolve_ordering(A, ordering)
    n = A.num_cols
    num_vars = 3 * n
    column_domain = tuple(range(-d, d + 1))
    counter_domain = tuple(range(0, d + 1))
    domains: dict[int, tuple[int, ...]] = {}
    for j in range(n):
        domains[j] = column_domain
    for l in range(n):
        domains[n + l] = counter_domain
        domains[2 * n + l] = counter_domain

    pi: list[int] = []
    for l, col in enumerate(column_ordering):
        pi.extend((col, n + l, 2 * n + l))

    constraints: list = list(_row_constraints(A))
    for l, col in enumerate(column_ordering):
        prev_pos = n + l - 1 if l else None
        prev_neg = 2 * n + l - 1 if l else None
        constraints.append(_Counter(prev_pos, col, n + l, positive=True))
        constraints.append(_Counter(prev_neg, col, 2 * n + l, positive=False))

    return _assemble(
        A,
        "degree",
        d,
        num_vars,
        tuple(pi),
        domains,
        constraints,
        _resolve_budget(build_budget),
    )
