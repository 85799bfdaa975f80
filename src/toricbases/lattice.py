"""Backtrack-free join-tree representation of box-bounded and
degree-truncated kernel vector sets of a sparse integer matrix.

The represented set is either

* every integer kernel vector with all entries in [-g, g]  (``box`` kind), or
* every kernel vector whose positive and negative parts both have 1-norm at
  most d  (``degree`` kind).

Construction treats the defining conditions as a constraint network whose
primal graph is the column graph of the matrix (plus, for the degree kind,
running-sum counters interleaved along the elimination ordering: one chain
per part, or only the positive part's chain when (1, ..., 1) lies in the
matrix's rational row space, since every kernel vector then sums to 0 and
its parts have equal 1-norm).  Every bound is a variable's domain: [-g, g]
for a column of the box kind, [-d, d] for a column and 0..d for a counter of
the degree kind.  Bags start as the cliques of the chordal completion under
the chosen ordering, one per elimination step, along the elimination
tree.  One merge shapes the tree: a bag absorbs its first child, whose
introduced variables and children go in front of its own, which keeps the
enumeration order.  Before enumeration, a clique that is exactly its first
child's separator is folded in this way, leaving one bag per maximal clique
as in a clique tree (Blair & Peyton 1993); a clique equal to a later child's
separator keeps its bag.  Two semijoin passes make every stored row extend
to a full solution, and the downward pass amalgamates, as relaxed supernodes
do (Ashcraft & Grimes 1989): a bag absorbs its first child while the joined
table holds no more entries than the two it replaces, so a long chain of
small bags sweeps as a few wide ones.  A fold is the certain case of that
rule, taken early.  The budget estimate is taken after the folds and before
the amalgamation; the realized clique number is that of the cliques.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_left, bisect_right
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, compress, count, repeat
from math import prod
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
    check_order_length,
    in_row_space,
    infinity_norm,
    int_from_text,
    negative_part,
    one_norm,
    positive_part,
)
from .graphs import Graph, column_graph, eliminate, min_fill_ordering


class BoundExceeded(ToricError):
    pass


class BudgetExceeded(ToricError):
    pass


DEFAULT_BUILD_BUDGET = 50_000_000


def _resolve_budget() -> int:
    """The build budget: ``TORICBASES_BUDGET`` when set, else the default.
    A value that is not a nonnegative integer in text raises ValueError."""
    raw = os.environ.get("TORICBASES_BUDGET")
    if raw is None:
        return DEFAULT_BUILD_BUDGET
    try:
        budget = int_from_text(raw)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise ValueError(f"TORICBASES_BUDGET must be a nonnegative integer, got {raw!r}")


def graver_infinity_bound(A: SparseIntMatrix) -> int:
    """Upper bound (2*m*a + 1)^m on the infinity norm of any conformally
    minimal kernel vector, where a is the largest entry magnitude."""
    return (2 * A.num_rows * A.max_abs + 1) ** A.num_rows


# ---------------------------------------------------------------------------
# constraints and bags


# A row equation sum(coefs . columns) == 0, columns sorted.
Equation = tuple[tuple[int, ...], tuple[int, ...]]
# A running sum (prev, x, out, positive) of the degree kind: out == prev +
# part(x), where part is the positive or the negative part of column x and
# prev is None for the first counter in a chain.
Counter = tuple[int | None, int, int, bool]


# A child's rows as its parent reads them: the child's separator, and one
# dict mapping each prefix of separator values, of any length, to the allowed
# values of the next separator variable.  Tuples, not sets: a variable has
# only its few domain values, and a set per trie node raised the peak memory.
Message = tuple[tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]]


class _Bag:
    """One clique of the join tree, and after the build its sweep plan.

    The scope is ordered by elimination position until the downward pass.
    Its first entries, in every row too, are the bag's introduced variables
    ``intros``; the rest of the scope is the separator.  A bag starts as the
    clique of one elimination step, introducing that step's variable, and
    grows by absorbing its first child (``_absorb``): the child's intros go
    in front of the bag's, and its children in front of the bag's.  The
    folds do so before enumeration, and the downward pass, which fixes the
    plan, may do so again; the rows are then the joined pairs in (bag row,
    child row) order.  The rows are stored once, column by column, as
    ``table``: one column per scope variable, never empty, since the zero
    vector's row survives both passes.  Rows are sorted by separator key
    id, then by the introduced variables from the last one back to the
    first, the order in which the unmerged chain of bags would enumerate
    them; ``key_ids[r]`` is the id of row r's separator key, and
    ``up[r]`` the id of this bag's separator key at row r of the parent.
    Both are tuples, like the table columns.  So a child's message, a list
    indexed by key id, is read at a parent row with no tuple built.  Each
    scope column of the final table keeps its sorted distinct values and,
    for each, the mask of its rows at or above it (bit R - 1 - r for row r
    of R).  A box ANDs the masks into the set of rows it keeps, and a sweep
    gathers each per-row sequence (table columns, key ids, children's
    ``up`` ids) through one picker of those rows, whatever the box.

    Equal columns of a bag ("twins") select the same rows and add w.x
    through the same values, so each distinct column is indexed once, and
    equal columns share one tuple in the table: the 1000-cycle's one bag
    has 1,000 columns and 2 distinct ones (x_j = +-x_0), and the 2 x 300
    ladder's bags 1,494 scope columns and 897 distinct ones.  A group of at
    least ``_MIN_TWINS`` twins is boxed once, by the intersection of its
    members' intervals read through one ``itemgetter`` (``twins``); every
    other column by its own interval (``columns``), sharing its twins'
    values and masks.  ``weighing`` does the same for ``minimize``'s leaf:
    it holds the distinct introduced columns (not counters) and how to read
    the weight of each, a group of at least ``_MIN_TWINS`` twins weighing
    the sum of its members' weights and any other column its own.
    """

    __slots__ = (
        "pos",
        "intros",
        "scope",
        "sep",
        "parent",
        "children",
        "table",
        "key_ids",
        "num_keys",
        "up",
        "columns",
        "twins",
        "weighing",
    )

    def __init__(
        self, pos: int, intros: tuple[int, ...], scope: tuple[int, ...], parent: int | None
    ):
        self.pos = pos
        self.intros = intros
        self.scope = scope  # ordered by elimination position
        self.sep = scope[len(intros) :]
        self.parent = parent
        self.children: list[int] = []
        # per scope variable, its value in each row
        self.table: tuple[tuple[int, ...], ...] = ()
        self.key_ids: tuple[int, ...] = ()
        self.num_keys = 0
        self.up: tuple[int, ...] = ()
        # (column, sorted distinct values, masks of the rows at or above each)
        self.columns: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...] = ()
        # (itemgetter of the twin columns, values, masks), one per group of twins
        self.twins: tuple[tuple[operator.itemgetter, tuple[int, ...], tuple[int, ...]], ...] = ()
        # (the weighed introduced columns, the variables whose weight is read
        # alone, an itemgetter per group of twins, whose weights are summed),
        # columns in the order of the weights
        self.weighing: tuple[
            tuple[tuple[int, ...], ...], tuple[int, ...], tuple[operator.itemgetter, ...]
        ] = ((), (), ())

    def message(self, rows: list[tuple[int, ...]]) -> Message:
        # deepest level first: each level's keys are the prefixes one shorter
        prefixes = set(map(operator.itemgetter(slice(len(self.intros), None)), rows))
        trie: dict[tuple[int, ...], tuple[int, ...]] = {}
        for _ in self.sep:
            grouped: dict[tuple[int, ...], list[int]] = {}
            for prefix in prefixes:
                grouped.setdefault(prefix[:-1], []).append(prefix[-1])
            trie.update(zip(grouped, map(tuple, grouped.values())))
            prefixes = grouped.keys()
        return self.sep, trie

    def settle(self, rows: list[tuple[int, ...]], keys: Iterator, num_keys: int) -> None:
        """Fix the rows whose key id is not None.  The list is emptied, so
        that the row tuples are freed with ``keyed``.  Rows of one key id
        share their separator values, so they differ only in their intros."""
        intros_reversed = operator.itemgetter(slice(len(self.intros) - 1, None, -1))
        keyed = sorted(
            (key, intros_reversed(row), row) for key, row in zip(keys, rows) if key is not None
        )
        rows.clear()
        self.key_ids = tuple(map(operator.itemgetter(0), keyed))
        self.table = tuple(zip(*map(operator.itemgetter(2), keyed)))
        self.num_keys = num_keys

    def index_columns(self, n: int) -> None:
        """Compile the row masks of the bag's final table, once per distinct
        column, and share each distinct column's tuple among its twins.
        Counters are left as they are."""
        # per distinct column, its one tuple and the columns equal to it
        groups: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
        table = []
        for var, column in zip(self.scope, self.table):
            if var < n:  # counters are never boxed or weighed
                column, members = groups.setdefault(column, (column, []))
                members.append(var)
            table.append(column)
        self.table = tuple(table)
        intros = set(self.intros)
        columns, twins, singles, grouped = [], [], [], []
        # separators too: a child's box then drops rows its parent never reads
        for column, members in groups.values():
            rows_at: dict[int, list[int]] = {}
            for r, x in enumerate(column):
                rows_at.setdefault(x, []).append(r)
            values = sorted(rows_at)
            # the binary digits of the rows at or above each value, filled in
            # from the largest value down, so that every row is marked once
            digits = bytearray(b"0") * len(column)
            masks = [0]
            for x in reversed(values):
                for r in rows_at[x]:
                    digits[r] = ord("1")
                masks.append(int(digits, 2))
            masks.reverse()
            index = tuple(values), tuple(masks)
            if len(members) < _MIN_TWINS:
                columns.extend((var, *index) for var in members)
            else:
                twins.append((operator.itemgetter(*members), *index))
            weighed = [var for var in members if var in intros]
            if len(weighed) < _MIN_TWINS:
                singles.extend((column, var) for var in weighed)
            else:
                grouped.append((column, operator.itemgetter(*weighed)))
        self.columns, self.twins = tuple(columns), tuple(twins)
        self.weighing = (
            tuple(column for column, _ in singles + grouped),
            tuple(var for _, var in singles),
            tuple(get for _, get in grouped),
        )

    def selection(
        self, lo: Vec | None, hi: Vec | None, numbers: tuple[int, ...]
    ) -> operator.itemgetter:
        """A picker of the rows inside the box, in row order.  A side given
        as None cuts no row, and the loops skip it.  ``numbers`` counts 0,
        1, ... up to at least the bag's row count.  A run of consecutive
        rows, one row, none or every row is picked by one slice; any other
        set by its row numbers.  Every per-row sequence is a tuple, and a
        slice over all of a tuple returns the tuple itself, so a box that
        keeps every row copies nothing."""
        rows = len(self.key_ids)
        mask = (1 << rows) - 1
        for var, values, masks in self.columns:
            if lo is not None and lo[var] > values[0]:
                mask &= masks[bisect_left(values, lo[var])]
            if hi is not None and hi[var] < values[-1]:
                mask &= ~masks[bisect_right(values, hi[var])]
        for get, values, masks in self.twins:  # a value inside every twin's interval
            if lo is not None and (l := max(get(lo))) > values[0]:
                mask &= masks[bisect_left(values, l)]
            if hi is not None and (h := min(get(hi))) < values[-1]:
                mask &= ~masks[bisect_right(values, h)]
        if not mask & (mask + (mask & -mask)):  # one run of set bits, or none
            start = rows - mask.bit_length()
            return operator.itemgetter(slice(start, start + mask.bit_count()))
        bits = format(mask, f"0{rows}b").encode().translate(_BIT_BYTES)
        return operator.itemgetter(*compress(numbers, bits))


# The fewest equal columns of a bag that are boxed and weighed as one group.
# Fewer are read column by column, sharing one index: max() and min() over an
# itemgetter cost more than a few subscripts.  Timed on a 2-CPU host over 64
# random shift boxes of 0/1 entries, per group: 2 twins 466 ns as a group
# against 223 ns column by column, 6 twins 622 against 567 ns, 8 twins 701
# against 728 ns, 16 twins 1,029 against 1,415 ns.  The leaf shares the size:
# with its pairs of twins weighed as groups, the ladder's minimize was slower.
_MIN_TWINS = 8

# ASCII binary digits as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _enumerate_bag(
    scope: tuple[int, ...],
    domains: dict[int, range],
    equations: list[Equation],
    counters: list[Counter],
    messages: list[Message],
) -> list[tuple[int, ...]]:
    """All assignments to the scope satisfying the bag's row equations and
    counters and compatible with every child message, by depth-first search.

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

    # per depth: (prev depth or None, x depth, domain maximum, positive) of forcing counters
    counters_at: list[list[tuple[int | None, int, int, bool]]] = [[] for _ in range(s)]
    # per depth: (equation, coef) of the row equations whose last variable is here
    closing_at: list[list[tuple[int, int]]] = [[] for _ in range(s)]
    # per depth: (equation, coef, lo, hi) of the row equations with later
    # variables, whose later terms can sum to anything in [lo, hi]
    open_at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(s)]
    # per depth: (depths of the key, trie) of the messages reaching here
    indexed_at: list[list[tuple[tuple[int, ...], dict]]] = [[] for _ in range(s)]

    for prev, x, out, positive in counters:
        counters_at[index[out]].append(
            (None if prev is None else index[prev], index[x], domains[out][-1], positive)
        )
    for eq, (columns, coefs) in enumerate(equations):
        lo, hi = 0, 0
        by_depth = sorted(zip(map(index.__getitem__, columns), coefs), reverse=True)
        for k, (depth, coef) in enumerate(by_depth):
            if k:
                open_at[depth].append((eq, coef, lo, hi))
            else:
                closing_at[depth].append((eq, coef))
            dom = domains[scope[depth]]
            lo += min(coef * dom[0], coef * dom[-1])
            hi += max(coef * dom[0], coef * dom[-1])

    for sep_vars, trie in messages:
        for k, var in enumerate(sep_vars):
            indexed_at[index[var]].append((tuple(index[v] for v in sep_vars[:k]), trie))

    partial = [0] * len(equations)
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
            if out > top:  # one counter forces each output
                return
            fixed = out
        for eq, coef in closing_at[depth]:
            forced, rem = divmod(-partial[eq], coef)
            if rem or (fixed is not None and forced != fixed):
                return
            fixed = forced
        indexed = indexed_at[depth]
        if indexed:
            allowed = [trie.get(tuple([values[i] for i in key]), nothing) for key, trie in indexed]
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
    del descend  # the closure refers to itself: free its tables now
    return rows


# ---------------------------------------------------------------------------
# the lattice


# Per-column interval (lo, hi): the vectors v with lo[j] <= v[j] <= hi[j].
# Each side is a tuple of one bound per column, or None: a side that cuts no
# row.  Every stored value lies in [-bound, bound], so a side at the bound
# cuts none either, but only None spares its compares.
Box = tuple[Vec | None, Vec | None]


class KernelLattice:
    """Join tree over the kernel vectors of a matrix, either box-bounded
    (kind ``box`` with bound g) or degree-truncated (kind ``degree`` with
    bound d).

    Immutable once built, as a :class:`Frozen` value is, but compared by
    identity; the queries are pure.  ``count`` and ``minimize`` take an
    optional :data:`Box` that restricts them to the represented vectors
    inside it.
    """

    # Frozen's refusals, not its equality; cached properties write vars(self)
    __setattr__ = Frozen.__setattr__
    __delattr__ = Frozen.__delattr__

    def __init__(
        self,
        matrix: SparseIntMatrix,
        kind: str,
        bound: int,
        bags: list[_Bag],
        clique_number: int,
    ):
        roots = tuple(b.pos for b in bags if b.parent is None)
        # an enumerated tuple holds the introduced variables of the bags in
        # preorder, roots in order; the layout picks the columns out of it
        intros: list[int] = []
        stack = list(reversed(roots))
        while stack:
            bag = bags[stack.pop()]
            intros.extend(bag.intros)
            stack.extend(reversed(bag.children))
        where = {var: i for i, var in enumerate(intros)}
        vars(self).update(
            matrix=matrix, kind=kind, bound=bound, num_columns=matrix.num_cols, _bags=bags,
            realized_clique_number=clique_number, _roots=roots,
            _layout=tuple(map(where.__getitem__, range(matrix.num_cols))),
            # the row numbers of the largest bag, from which a box picks its rows
            _row_numbers=tuple(range(max((len(b.key_ids) for b in bags), default=0))),
        )

    def total_rows(self) -> int:
        return sum(len(b.key_ids) for b in self._bags)

    @cached_property
    def certified(self) -> bool:
        """Whether the normal forms and bases computed from the lattice are
        exact.  A box lattice must hold every Graver element of its matrix:
        its bound is at least graver_infinity_bound.  A degree-d lattice
        always qualifies.  It serves only graded orders and monomials of
        degree at most d, whose normal form has no larger degree, so the
        move to it has both parts of degree at most d and lies in the
        lattice; and its bases are by definition the elements of degree at
        most d.  That degree is a precondition every caller must check, with
        check_bound, before it relies on the flag: past degree d, division by
        a degree-d basis can stop at a monomial that is not the normal form."""
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
        """Raise DimensionMismatch unless the order has one weight per
        column, and ValueError unless the lattice serves it: a degree
        lattice serves only the graded lexicographic order, under which a
        normal form never has a larger degree."""
        check_order_length(order, self.num_columns)
        if self.kind == "degree" and not order.is_unit_weights:
            raise ValueError("degree-truncated lattices support only the graded lexicographic order")

    def check_matrix(self, A: SparseIntMatrix) -> None:
        """Raise ValueError unless A is the matrix the lattice was built
        from, or an equal one: every answer drawn from the lattice is about
        that matrix's kernel."""
        if A is not self.matrix and A != self.matrix:
            raise ValueError("the lattice was built from a different matrix")

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v is a represented vector: the count of the box that
        holds v alone.  The columns fix every counter of a degree lattice,
        so boxing the columns is enough."""
        v = as_vector(v)
        check_length(v, self.num_columns)
        return self.within_bound(v) and self.count((v, v)) == 1

    def __contains__(self, v: Sequence[int]) -> bool:
        return self.contains(v)

    # -- enumeration --------------------------------------------------------

    def iterate(self) -> Iterator[Vec]:
        """Yield every represented vector exactly once, in a deterministic
        order: the sweep over lists of partial tuples, united over a key's
        rows and multiplied across the children as ordered products (the
        free semiring).

        The product puts a row's introduced values first, then each child's
        tuples in child order, with the row outermost, and a key's rows stay
        in stored order.  So the tuples come out as the depth-first extension
        along the tree gives them: lexicographic in one row per bag, bags in
        preorder.  The layout maps a tuple to column order, without counters."""

        def leaf(bag: _Bag, pick: operator.itemgetter) -> Iterator[list]:
            return ([t] for t in zip(*map(pick, bag.table[: len(bag.intros)])))

        def times(acc: list, child: list) -> list:
            return [a + b for a in acc for b in child]

        for t in self._sweep(None, leaf, times, operator.iadd, [], [()]):
            yield tuple(map(t.__getitem__, self._layout))

    def __iter__(self) -> Iterator[Vec]:
        return self.iterate()

    # -- sweeps -------------------------------------------------------------

    def _sweep(self, box: Box | None, leaf, times, plus, zero, one):
        """One bottom-up pass of a semiring over the join tree, and its
        answer: the roots' aggregates folded by ``times`` from ``one``.

        Children precede their parent in position order.  A bag's aggregate
        is a list indexed by separator key id: ``plus`` over the bag's rows
        inside the box with that key, in row order, of the row's leaf value
        ``times`` the children's messages at the row in child order,
        ``zero`` where no row contributes.  The box picks the rows once per
        bag (see ``_Bag.selection``), and every per-row stream, the leaf's
        columns, each child's ``up`` ids and the key ids, is gathered through
        that picker, so a sweep reads only the rows the box keeps.  A side
        given as None cuts no row, and every picker skips it.  No box means
        two None sides, which keep every stored row: the picker returns each
        stored tuple itself.  ``leaf(bag, pick)`` returns an iterator over
        the leaf values of the picked rows.  A bag with one key id, every
        root among them, folds its values with one ``reduce``; only a bag
        with several runs a Python loop.  ``zero`` must absorb under
        ``times``, because no picked row is skipped: one whose child message
        is ``zero`` is combined and folded like the others.  ``leaf`` and
        ``times`` make fresh values, so ``plus`` may extend its left operand
        in place.  A child's aggregate is released (set to None) once its
        parent has read it.
        """
        n = self.num_columns
        lo, hi = (None, None) if box is None else box
        for side in lo, hi:
            if side is not None and len(side) != n:
                raise DimensionMismatch(f"box needs {n} lower and upper bounds")
        bags = self._bags
        aggs: list[list | None] = []
        for bag in bags:
            pick = bag.selection(lo, hi, self._row_numbers)
            acc = leaf(bag, pick)
            for c in bag.children:
                acc = map(times, acc, map(aggs[c].__getitem__, pick(bags[c].up)))
            if bag.num_keys == 1:  # one reduce, not a Python loop over the rows
                first = next(acc, zero)
                agg = [reduce(plus, acc, first)]
            else:
                agg = [zero] * bag.num_keys
                for key, value in zip(pick(bag.key_ids), acc):
                    old = agg[key]
                    agg[key] = value if old is zero else plus(old, value)
            aggs.append(agg)
            for c in bag.children:
                aggs[c] = None
        return reduce(times, (aggs[root][0] for root in self._roots), one)

    def count(self, box: Box | None = None) -> int:
        """Exact number of represented vectors inside the box, without
        enumeration: the (+, x) sweep."""

        def leaf(bag: _Bag, pick: operator.itemgetter) -> Iterator[int]:
            return repeat(1, len(pick(bag.key_ids)))

        return self._sweep(box, leaf, operator.mul, operator.add, 0, 1)

    @cached_property
    def _radix(self) -> tuple[int, tuple[int, ...], int]:
        """The order-independent constants of ``minimize``'s radix r = 2*bound
        + 1 over n columns: r^n, the powers (r^0, ..., r^(n-1)) and their sum."""
        r, n = 2 * self.bound + 1, self.num_columns
        *powers, scale = accumulate(repeat(r, n), operator.mul, initial=1)
        return scale, tuple(powers), sum(powers)

    @cached_property
    def _ties(self) -> tuple[tuple[int, ...], ...]:
        """The order-free part of ``minimize``'s key, per bag and stored row:
        t = sum of x_j r^(n-1-j) over the bag's introduced columns, where
        counters weigh 0.  One int per stored row, built at the first
        ``minimize``."""
        n = self.num_columns
        powers = self._radix[1]
        ties = []
        for bag in self._bags:
            terms = (map(powers[n - 1 - v].__mul__, col) for v, col in zip(bag.intros, bag.table) if v < n)
            ties.append(tuple(map(sum, zip(repeat(0, len(bag.key_ids)), *terms))))
        return tuple(ties)

    def minimize(self, order: MonomialOrder, box: Box | None = None) -> Vec | None:
        """The represented vector inside the box that is smallest under the
        order, or None when there is none: the (min, +) sweep, then a
        decode of its digits.

        The order's key (w.v, v_1, ..., v_n) becomes the single integer c.v
        with c = weight_vector(w, r, n) and r = 2*bound + 1, that is c_j =
        r^n w_j + r^(n-1-j); any two represented vectors differ by at most
        2*bound in every column, so c.v orders them exactly as the key does.
        It splits as c.v = r^n (w.v) + t(v), with the tie-break t(v) = sum_j
        v_j r^(n-1-j) free of the order.  So the lattice keeps each stored
        row's share of t (``_ties``, built at the first call and then held,
        one int per stored row), and a leaf adds r^n times the row's sum of
        w_j x_j over its weighted columns.  A bag whose columns all weigh 0,
        every bag under lex, reads its ties as they are.  A group of twin
        columns (see ``_Bag``) is one column weighing the sum of its
        weights.  Any other bag sums one stream per weighted column, a
        column of weight 1 taken as it is, with no product.
        Every partial key lies in [-M, M] for M = bound * sum c_j (c is
        positive), so 2M + 1 absorbs under + and loses every min: it is the
        zero.  The roots cover disjoint columns, so one check of their sum
        tells an empty box: a root that keeps no row makes the sum at least
        2M + 1 - M > M, and otherwise it is at most M.  That sum is c.v for
        the minimiser v, and as every |v_j| <= bound, t(v) holds v as its
        balanced base-r digits and |t(v)| <= (r^n - 1) / 2.  So a sum of 0
        means t(v) = 0 and w.v = 0, that is v = 0, returned with no decode.
        Otherwise adding (r^n - 1) / 2, the digits all equal to bound, and
        reducing modulo r^n leaves the digits v_j + bound, which are split
        off by halving.  So the vector is decoded, not searched for top-down.
        """
        n = self.num_columns
        check_order_length(order, n)
        w = order.weights
        scale, powers, powers_sum = self._radix
        ties = self._ties
        limit = (scale * sum(w) + powers_sum) * self.bound

        def leaf(bag: _Bag, pick: operator.itemgetter) -> Iterator[int]:
            # per picked row, its tie plus r^n times w.x over the bag's
            # weighted columns
            tie = iter(pick(ties[bag.pos]))
            table, singles, gets = bag.weighing
            weights = tuple(map(w.__getitem__, singles))
            for get in gets:  # a group of twins weighs the sum of its weights
                weights += (sum(get(w)),)
            if not any(weights):
                return tie
            columns = map(pick, compress(table, weights))
            terms = [col if x == 1 else map(x.__mul__, col) for col, x in zip(columns, filter(None, weights))]
            dot = map(sum, zip(*terms)) if len(terms) > 1 else terms[0]
            return map(operator.add, map(scale.__mul__, dot), tie)

        total = self._sweep(box, leaf, operator.add, min, 2 * limit + 1, 0)
        if total > limit:
            return None
        if not total:
            return (0,) * n
        digits = _digits((total + (scale - 1) // 2) % scale, n, powers)
        return tuple(map(self.bound.__rsub__, digits))

    def __repr__(self) -> str:
        return (
            f"KernelLattice(kind={self.kind!r}, bound={self.bound}, "
            f"cols={self.num_columns}, rows={self.total_rows()})"
        )


def _digits(x: int, k: int, powers: tuple[int, ...]) -> list[int]:
    """The k base-r digits of x < r^k, most significant first, where
    powers[i] = r^i.  x is split at r^(k/2), and each part the same way down
    to 16 digits, which are divided off one by one: a division by r never
    runs over more than 16 digits, where k divisions of x would run over up
    to k each."""
    if k > 16:
        h = k // 2
        high, low = divmod(x, powers[k - h])
        return _digits(high, h, powers) + _digits(low, k - h, powers)
    digits = [0] * k
    for j in range(k - 1, 0, -1):
        x, digits[j] = divmod(x, powers[1])
    if k:
        digits[0] = x
    return digits


def shift_box(u: Sequence[int]) -> Box:
    """The vectors v with u + v >= 0: a lower side only, as the lattice's
    bound caps every entry from above."""
    return tuple(map(operator.neg, u)), None


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
    pi: tuple[int, ...],
    domains: dict[int, range],
    counters: list[Counter],
    budget: int,
) -> KernelLattice:
    # the row equations (zero rows constrain nothing), then the counters
    equations = [tuple(zip(*row)) for row in map(matrix.row, range(matrix.num_rows)) if row]
    scopes = [columns for columns, _ in equations]
    scopes += [(x, out) if prev is None else (prev, x, out) for prev, x, out, _ in counters]
    primal = Graph(len(domains), (e for scope in scopes for e in combinations(scope, 2)))
    elim = eliminate(primal, pi)

    # one bag per elimination step, its clique already in elimination order;
    # a clique that is exactly its first child's separator folds into that
    # child.  Children have earlier steps, so a bag's children are all
    # listed, in step order, when it is reached.
    position, parent = elim.position, elim.parent
    bags = [
        _Bag(l, (v,), elim.cliques[l], None if parent[v] is None else position[parent[v]])
        for l, v in enumerate(pi)
    ]
    for bag in bags:
        if bag.children and _folds(bag, bags[bag.children[0]]):
            _absorb(bags, bag, bags[bag.children[0]])
        if bag.parent is not None:
            bags[bag.parent].children.append(bag.pos)
    bags = _renumber(bags)

    estimate = 0
    for bag in bags:
        # sizes as stop - start: len() of a range overflows past sys.maxsize
        estimate += prod(domains[var].stop - domains[var].start for var in bag.scope)
        if estimate > budget:
            raise BudgetExceeded(
                f"estimated table work {estimate} exceeds budget {budget}; "
                "lower the bound or provide a better ordering"
            )

    # each constraint goes to the bag of its first eliminated variable, whose
    # clique holds the whole scope: (equations, counters) per bag, in order
    home = {position[v]: bag.pos for bag in bags for v in bag.intros}
    by_bag: list[tuple[list[Equation], list[Counter]]] = [([], []) for _ in bags]
    for i, (scope, cons) in enumerate(zip(scopes, equations + counters)):
        by_bag[home[min(map(position.__getitem__, scope))]][i >= len(equations)].append(cons)

    # upward pass: enumerate each bag against its children's messages
    rows: list[list[tuple[int, ...]]] = []  # per bag, emptied when it settles
    for bag in bags:
        messages = [bags[c].message(rows[c]) for c in bag.children]
        rows.append(_enumerate_bag(bag.scope, domains, *by_bag[bag.pos], messages))

    # downward pass: drop rows without support in the parent, numbering a
    # child's separator keys in the order the parent's rows first project
    # onto them; parents come first, so their rows are settled
    def settle_child(column: dict[int, tuple[int, ...]], c: int) -> _Bag:
        child = bags[c]
        projections = list(zip(*map(column.__getitem__, child.sep)))
        ids = dict(zip(dict.fromkeys(projections), count()))
        child.up = tuple(map(ids.__getitem__, projections))
        sep = operator.itemgetter(slice(len(child.intros), None))
        child.settle(rows[c], map(ids.get, map(sep, rows[c])), len(ids))
        return child

    n = matrix.num_cols
    for bag in filter(None, reversed(bags)):  # an absorbed bag's slot is None
        if bag.parent is None:
            bag.settle(rows[bag.pos], repeat(0), 1)
        # Relaxed amalgamation (Ashcraft & Grimes 1989): the bag absorbs its
        # settled first child while the joined table holds no more entries
        # than the two it replaces.  The joined rows are the child's rows of
        # each parent row's key, in (parent row, child row) order.
        table, key_ids = list(bag.table), bag.key_ids
        column = dict(zip(bag.scope, table))
        bag.table = ()  # held by table and column only, so an expansion frees them
        while bag.children:
            child = settle_child(column, bag.children[0])
            sizes = _key_sizes(child)
            join = sum(map(sizes.__getitem__, child.up))
            if not _absorbs(len(bag.scope), len(key_ids), child, join):
                break
            # each bag value repeated once per child row of its row; the columns
            # are kept when each bag row joins one, so a chain's absorptions copy none
            if join > len(key_ids):
                counts = list(map(sizes.__getitem__, child.up))
                column.clear()  # each old column is freed once it is expanded
                for i, col in enumerate(table):
                    table[i] = tuple(chain.from_iterable(map(repeat, col, counts)))
                key_ids = tuple(chain.from_iterable(map(repeat, key_ids, counts)))
                column.update(zip(bag.scope, table))
            # the child's rows of each bag row's key, which are consecutive
            groups = list(map(range, accumulate(sizes, initial=0), accumulate(sizes)))
            joined = list(chain.from_iterable(map(groups.__getitem__, child.up)))
            intro_columns = child.table[: len(child.intros)]
            picked = [tuple(map(col.__getitem__, joined)) for col in intro_columns]
            column.update(zip(child.intros, picked))
            table[:0] = picked
            _absorb(bags, bag, child)  # its table is freed
        for c in bag.children[1:]:
            settle_child(column, c)
        bag.table, bag.key_ids = tuple(table), key_ids
        bag.index_columns(n)
    return KernelLattice(matrix, kind, bound, _renumber(bags), elim.clique_number)


def _folds(bag: _Bag, child: _Bag) -> bool:
    """Whether the bag's clique is exactly its first child's separator, so
    that the clique is not maximal and folds into the child.  Then the join
    keeps each child row once, and ``_absorbs`` always holds: the fold is
    the amalgamation's certain case, taken before any row is enumerated.
    Taken early, it can change later merges, as the entries rule then sees
    the folded child as one wider bag."""
    return set(child.sep) == set(bag.scope)


def _absorb(bags: list[_Bag | None], bag: _Bag, child: _Bag) -> None:
    """Merge the bag's first child into it: the child's intros go in front
    of the bag's, in the scope too, and its children, all of earlier steps,
    in front of the bag's, which keeps them in step order.  The child's slot
    is blanked until ``_renumber``."""
    bag.intros = child.intros + bag.intros
    bag.scope = child.intros + bag.scope
    bag.children[:1] = child.children
    for c in child.children:
        bags[c].parent = bag.pos
    bags[child.pos] = None


def _renumber(bags: list[_Bag | None]) -> list[_Bag]:
    """The bags left after merges, numbered in order, children still first."""
    bags = [bag for bag in bags if bag is not None]
    renumber = {bag.pos: p for p, bag in enumerate(bags)}
    for bag in bags:
        bag.pos = renumber[bag.pos]
        bag.parent = None if bag.parent is None else renumber[bag.parent]
        bag.children = list(map(renumber.__getitem__, bag.children))
    return bags


def _key_sizes(child: _Bag) -> list[int]:
    """The number of the child's rows of each key id."""
    sizes = [0] * child.num_keys
    for key in child.key_ids:
        sizes[key] += 1
    return sizes


def _absorbs(parent_width: int, parent_rows: int, child: _Bag, join: int) -> bool:
    """Whether a bag of the given scope size and row count absorbs its first
    child, whose key groups sum to ``join`` over the bag's rows: the joined
    table, one column per parent scope variable and child intro, holds no
    more entries than the bag's table and the child's together."""
    entries = parent_rows * parent_width + len(child.key_ids) * len(child.scope)
    return join * (parent_width + len(child.intros)) <= entries


def _check_build_args(
    A: SparseIntMatrix, kind: str, bound: int, ordering: Sequence[int] | None
) -> tuple[int, ...]:
    """The column ordering of a build of the kind and bound, after the checks
    every build makes on its arguments: ValueError for a negative bound or
    an ordering that is not a permutation of the columns.  The default is
    the min-fill ordering."""
    if bound < 0:
        raise ValueError("bound must be nonnegative" if kind == "box" else "degree bound must be nonnegative")
    if ordering is None:
        return min_fill_ordering(column_graph(A))
    ordering = tuple(map(operator.index, ordering))
    if sorted(ordering) != list(range(A.num_cols)):
        raise ValueError("ordering must be a permutation of the columns")
    return ordering


def build_lattice(
    A: SparseIntMatrix, g: int, ordering: Sequence[int] | None = None
) -> KernelLattice:
    """Join tree for the kernel vectors of A with entries in [-g, g]."""
    column_ordering = _check_build_args(A, "box", g, ordering)
    domains = dict.fromkeys(range(A.num_cols), range(-g, g + 1))
    return _assemble(A, "box", g, column_ordering, domains, [], _resolve_budget())


def build_truncated_lattice(
    A: SparseIntMatrix, d: int, ordering: Sequence[int] | None = None
) -> KernelLattice:
    """Join tree for the kernel vectors of A whose positive and negative
    parts both have 1-norm at most d.

    The two degree conditions are global, so they are threaded along the
    elimination ordering as running-sum counters over 0..d, one chain per
    condition, each counter interleaved right after its column.  The sums
    only grow, so a counter's domain is the whole bound: a branch whose sum
    passes d ends there.  When (1, ..., 1) lies in A's rational row space
    (A is homogeneous, as every table matrix and the incidence matrix of
    every bipartite graph are), every kernel vector sums to 0, so its two
    parts have equal 1-norm and the negative chain would repeat the
    positive one: only the positive chain is threaded, 2n variables in all
    rather than 3n.  The test reduces the rows in the build's own column
    ordering, which keeps it cheap on long, narrow matrices.
    """
    column_ordering = _check_build_args(A, "degree", d, ordering)
    n = A.num_cols
    signs = (True,) if in_row_space(A, (1,) * n, column_ordering) else (True, False)
    domains = dict.fromkeys(range(n), range(-d, d + 1))
    domains.update(dict.fromkeys(range(n, (1 + len(signs)) * n), range(d + 1)))
    pi: list[int] = []
    counters: list[Counter] = []
    for l, col in enumerate(column_ordering):
        pi.append(col)
        for chain, positive in enumerate(signs, 1):
            out = chain * n + l
            pi.append(out)
            counters.append((out - 1 if l else None, col, out, positive))
    return _assemble(A, "degree", d, tuple(pi), domains, counters, _resolve_budget())
