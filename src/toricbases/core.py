"""Exact-integer data model: sparse matrices, exponent vectors, binomials,
and weighted monomial orders.

Everything here uses arbitrary-precision Python integers; no operation is
allowed to overflow a machine word.  All types are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import heapq
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Vec = tuple[int, ...]


class ToricError(Exception):
    """Base class for domain errors raised by this package."""


class DimensionMismatch(ToricError):
    pass


# ---------------------------------------------------------------------------
# vectors


def as_vector(coords: Iterable[int]) -> Vec:
    """The entries as a tuple of ints: a float raises TypeError, not truncated."""
    return tuple(map(operator.index, coords))


_INTEGER_TEXT = re.compile(r"-?[0-9]+")


def int_from_text(text: str) -> int:
    """An integer written as ASCII digits with an optional leading minus,
    the rule a JSON decimal string follows too; anything else, a plus sign,
    a space, an underscore or another script's digits too, is a ValueError."""
    if _INTEGER_TEXT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"expected an integer, got {text!r}")


def positive_part(v: Sequence[int]) -> Vec:
    return tuple(x if x > 0 else 0 for x in v)


def negative_part(v: Sequence[int]) -> Vec:
    return tuple(-x if x < 0 else 0 for x in v)


def vector_add(u: Sequence[int], v: Sequence[int]) -> Vec:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(map(operator.add, u, v))


def infinity_norm(v: Sequence[int]) -> int:
    return max(map(abs, v), default=0)


def one_norm(v: Sequence[int]) -> int:
    return sum(map(abs, v))


def is_nonnegative(v: Sequence[int]) -> bool:
    return min(v, default=0) >= 0


def conformal_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Sign-compatible componentwise domination: u_i v_i >= 0 and |u_i| <= |v_i|."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# sparse matrices


class SparseIntMatrix:
    """Immutable sparse integer matrix stored as a coordinate list with a
    row-major index.

    Zero rows are representable (the incidence matrix of a graph with an
    isolated vertex has one), but the text parser rejects them by default
    since they add no constraint; see :func:`matrix_from_text`.
    """

    __slots__ = ("num_rows", "num_cols", "_rows", "max_abs")

    def __init__(self, num_rows: int, num_cols: int, entries: Iterable[tuple[int, int, int]]):
        if num_rows < 0 or num_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        seen: set[tuple[int, int]] = set()
        rows: list[list[tuple[int, int]]] = [[] for _ in range(num_rows)]
        for i, j, value in entries:
            i, j, value = operator.index(i), operator.index(j), operator.index(value)
            if not (0 <= i < num_rows and 0 <= j < num_cols):
                raise ValueError(f"entry ({i},{j}) out of range for {num_rows}x{num_cols}")
            if value == 0:
                raise ValueError(f"explicit zero entry at ({i},{j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry at ({i},{j})")
            seen.add((i, j))
            rows[i].append((j, value))

        self.num_rows = num_rows
        self.num_cols = num_cols
        self._rows: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted(r)) for r in rows
        )
        self.max_abs = max((abs(v) for row in self._rows for _, v in row), default=0)

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        entries = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("ragged dense matrix")
            for j, value in enumerate(map(operator.index, row)):
                if value:
                    entries.append((i, j, value))
        return cls(m, n, entries)

    def zero_rows(self) -> list[int]:
        return [i for i, row in enumerate(self._rows) if not row]

    def without_zero_rows(self) -> "SparseIntMatrix":
        keep = [i for i, row in enumerate(self._rows) if row]
        renumber = {i: k for k, i in enumerate(keep)}
        return SparseIntMatrix(
            len(keep),
            self.num_cols,
            ((renumber[i], j, v) for i, j, v in self.iter_entries()),
        )

    def row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Nonzero entries of row i as (column, value) pairs, column-sorted."""
        return self._rows[i]

    def iter_entries(self) -> Iterator[tuple[int, int, int]]:
        for i, row in enumerate(self._rows):
            for j, value in row:
                yield i, j, value

    def apply(self, v: Sequence[int]) -> Vec:
        """A.v with exact arithmetic."""
        if len(v) != self.num_cols:
            raise DimensionMismatch(f"expected length {self.num_cols}, got {len(v)}")
        return tuple(sum(value * v[j] for j, value in row) for row in self._rows)

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.num_cols, self.num_rows, ((j, i, v) for i, j, v in self.iter_entries())
        )

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.num_cols for _ in range(self.num_rows)]
        for i, j, value in self.iter_entries():
            out[i][j] = value
        return out

    def _key(self) -> tuple:
        return self.num_rows, self.num_cols, self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        nonzeros = sum(map(len, self._rows))
        return f"SparseIntMatrix({self.num_rows}x{self.num_cols}, {nonzeros} nonzeros)"


def in_row_space(A: SparseIntMatrix, w: Sequence[int], order: Sequence[int]) -> bool:
    """Whether w is a rational combination of A's rows, exactly.

    The rows, then w, are reduced to a leading-term echelon form whose
    leading column is a row's first column in ``order``, a permutation of
    the columns.  A row is reduced only at its leading column, by the kept
    row that leads there, until no kept row does; a nonzero row left then
    is kept, divided by its gcd.  A row is scaled only when the pivot does
    not divide its leading entry.  w lies in the row space exactly when it
    reduces to zero, whatever the order.  The order sets only the cost:
    taken as an elimination ordering of the column graph, every kept row
    stays inside a clique of its chordal completion, as in sparse Gaussian
    elimination, so a long, narrow matrix keeps short rows."""
    n = A.num_cols
    if len(w) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(w)}")
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the columns")
    position = dict(zip(order, range(n)))
    echelon: dict[int, dict[int, int]] = {}  # leading column -> kept row

    def reduce_row(row: dict[int, int]) -> int | None:
        """Reduce the row in place; its leading column, or None when it is
        zero.  A heap holds the positions of its entries, stale ones too."""
        heap = [(position[j], j) for j in row]
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)[1]
            x = row.get(j)
            if x is None:
                continue
            pivot = echelon.get(j)
            if pivot is None:
                return j
            a = pivot[j]
            if x % a:
                scale = a // math.gcd(a, x)
                for k in row:
                    row[k] *= scale
                x *= scale
            f = x // a
            for k, y in pivot.items():
                z = row.get(k, 0) - f * y
                if not z:
                    del row[k]
                    continue
                if k not in row:
                    heapq.heappush(heap, (position[k], k))
                row[k] = z
        return None

    for i in range(A.num_rows):
        row = dict(A.row(i))
        lead = reduce_row(row)
        if lead is not None:
            g = math.gcd(*row.values())
            echelon[lead] = {k: x // g for k, x in row.items()} if g > 1 else row
    return reduce_row({j: x for j, x in enumerate(map(operator.index, w)) if x}) is None


def matrix_to_text(A: SparseIntMatrix) -> str:
    """Bit-exact text format.

    Dense: first line ``m n``, then m lines of n space-separated integers.
    Sparse: first line ``sparse m n k``, then k lines ``i j value`` (0-based).
    The sparse form is written exactly when fewer than a quarter of the
    entries are nonzero, the dense form otherwise.
    """
    nnz = sum(1 for _ in A.iter_entries())
    lines = []
    if nnz * 4 < A.num_rows * A.num_cols:
        lines.append(f"sparse {A.num_rows} {A.num_cols} {nnz}")
        for i, j, value in sorted(A.iter_entries()):
            lines.append(f"{i} {j} {value}")
    else:
        lines.append(f"{A.num_rows} {A.num_cols}")
        for row in A.to_dense():
            lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str, *, drop_zero_rows: bool = False) -> SparseIntMatrix:
    """Parse either text form.

    Zero rows are rejected at parse time (they carry no constraint); pass
    ``drop_zero_rows=True`` to remove them with a warning instead.
    """
    # blank lines and comment lines, indented or not, as edge_list_from_text skips them
    tokens_by_line = [t for t in map(str.split, text.splitlines()) if t and not t[0].startswith("#")]
    if not tokens_by_line:
        raise ValueError("empty matrix file")
    head = tokens_by_line[0]
    if head[0] == "sparse":
        if len(head) != 4:
            raise ValueError("sparse header must be 'sparse m n k'")
        m, n, k = map(int_from_text, head[1:])
        body = tokens_by_line[1:]
        if len(body) != k:
            raise ValueError(f"expected {k} sparse entries, found {len(body)}")
        if any(len(t) != 3 for t in body):
            raise ValueError("sparse entries must be 'i j value'")
        matrix = SparseIntMatrix(m, n, [tuple(map(int_from_text, t)) for t in body])
    else:
        if len(head) != 2:
            raise ValueError("dense header must be 'm n'")
        m, n = map(int_from_text, head)
        body = tokens_by_line[1:]
        if len(body) != m:
            raise ValueError(f"expected {m} rows, found {len(body)}")
        rows = []
        for t in body:
            if len(t) != n:
                raise ValueError(f"expected {n} columns, found {len(t)}")
            rows.append([int_from_text(x) for x in t])
        matrix = SparseIntMatrix.from_dense(rows) if m else SparseIntMatrix(0, n, [])
    zero = matrix.zero_rows()
    if zero:
        if not drop_zero_rows:
            raise ValueError(f"zero rows {zero}; pass drop_zero_rows=True to remove them")
        warnings.warn(f"dropping {len(zero)} zero row(s): {zero}", stacklevel=2)
        matrix = matrix.without_zero_rows()
    return matrix


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """Weight-vector order: compare weighted degree first, then break ties by
    the earliest differing coordinate (smaller entry first).

    Zero weights give the plain lexicographic order; all-ones weights give the
    graded lexicographic order.
    """

    weights: Vec

    def __post_init__(self):
        w = as_vector(self.weights)
        if any(x < 0 for x in w):
            raise ValueError("order weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def lex(cls, n: int) -> "MonomialOrder":
        return cls((0,) * n)

    @classmethod
    def grlex(cls, n: int) -> "MonomialOrder":
        return cls((1,) * n)

    @property
    def num_vars(self) -> int:
        return len(self.weights)

    @property
    def is_unit_weights(self) -> bool:
        return all(w == 1 for w in self.weights)

    def _check(self, v: Sequence[int]) -> None:
        if len(v) != len(self.weights):
            raise DimensionMismatch(f"expected length {len(self.weights)}, got {len(v)}")

    def key(self, v: Sequence[int]) -> Vec:
        """Additive comparison key (w.v, v_1, ..., v_n).

        Lexicographic comparison of keys matches :meth:`compare`, and
        key(u + v) = key(u) + key(v) componentwise.
        """
        self._check(v)
        return (sum(w * x for w, x in zip(self.weights, v)),) + tuple(v)

    def compare(self, u: Sequence[int], v: Sequence[int]) -> int:
        """-1, 0 or +1 according to whether x^u is below, equal to or above x^v."""
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return -1
        if ku > kv:
            return 1
        return 0


def weight_vector(weights: Sequence[int], r: int, n: int) -> Vec:
    """c = r^n * weights + (r^(n-1), ..., r, 1), exactly.

    For any u, v with max |v_i - u_i| <= r - 1, the sign of c.(v - u) matches
    the weighted order's comparison of u and v.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    weights = as_vector(weights)
    if len(weights) != n:
        raise DimensionMismatch(f"weights length {len(weights)}, expected {n}")
    place = [1] * n  # r^(n-1), ..., r, 1
    for i in range(n - 2, -1, -1):
        place[i] = place[i + 1] * r
    scale = r**n
    return tuple(scale * w + p for w, p in zip(weights, place))


# ---------------------------------------------------------------------------
# binomials


@dataclass(frozen=True)
class Binomial:
    """x^head - x^tail with nonnegative exponent vectors."""

    head: Vec
    tail: Vec

    def __post_init__(self):
        head, tail = as_vector(self.head), as_vector(self.tail)
        if len(head) != len(tail):
            raise DimensionMismatch("head and tail lengths differ")
        if not (is_nonnegative(head) and is_nonnegative(tail)):
            raise ValueError("binomial exponents must be nonnegative")
        if head == tail:
            raise ValueError("degenerate binomial: head equals tail")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    @classmethod
    def from_kernel_vector(cls, v: Sequence[int]) -> "Binomial":
        return cls(positive_part(v), negative_part(v))

    def oriented(self, order: MonomialOrder) -> "Binomial":
        """The same binomial with head strictly above tail under the order."""
        if order.compare(self.head, self.tail) < 0:
            return Binomial(self.tail, self.head)
        return self


# ---------------------------------------------------------------------------
# ideal membership


def ideal_membership(A: SparseIntMatrix, terms: Iterable[tuple[int, Sequence[int]]]) -> bool:
    """Whether the polynomial sum(coef * x^u) lies in the toric ideal of A.

    Terms are grouped by the image A.u; the polynomial is in the ideal exactly
    when the coefficients cancel within every group.
    """
    sums: dict[Vec, int] = {}
    for coef, u in terms:
        u = as_vector(u)
        if not is_nonnegative(u):
            raise ValueError("exponents must be nonnegative")
        image = A.apply(u)
        sums[image] = sums.get(image, 0) + operator.index(coef)
    return all(s == 0 for s in sums.values())
