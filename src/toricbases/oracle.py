"""Independent brute-force reference implementations and instance generators.

Everything here evaluates definitions directly by exhaustive enumeration and
shares no algorithmic code with the optimized modules, so agreement tests
against it are meaningful.  Enumeration of boxes uses numpy in a regime where
int64 arithmetic is provably exact (entries, bounds and dimensions are tiny);
a guard refuses inputs outside that regime.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

import numpy as np

from .core import SparseIntMatrix, ToricError, Vec
from .graphs import Graph

DEFAULT_BUDGET = 100_000_000
_CHUNK_ROWS = 1_000_000


class BudgetExceededError(ToricError):
    pass


# ---------------------------------------------------------------------------
# box enumeration


def _check_exact_regime(A: SparseIntMatrix, lo: int, hi: int) -> None:
    # |row . v| <= n * a * max|v|; keep far below 2^62 so int64 stays exact
    worst = A.num_cols * max(A.max_abs, 1) * max(abs(lo), abs(hi), 1)
    if worst >= 2**60:
        raise BudgetExceededError("box enumeration outside the exact int64 regime")


def _box_chunks(n: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The box {lo..hi}^n as int64 row chunks."""
    width = hi - lo + 1
    if width <= 0 or n == 0:
        yield np.zeros((1 if width > 0 else 0, n), dtype=np.int64)
        return
    prefix_len = 0
    tail_count = width**n
    while tail_count > _CHUNK_ROWS and prefix_len < n:
        prefix_len += 1
        tail_count //= width
    tail = n - prefix_len
    if tail:
        grids = np.meshgrid(*([np.arange(lo, hi + 1, dtype=np.int64)] * tail), indexing="ij")
        block = np.stack(grids, axis=-1).reshape(-1, tail)
    else:
        block = np.zeros((1, 0), dtype=np.int64)
    for head in itertools.product(range(lo, hi + 1), repeat=prefix_len):
        chunk = np.empty((block.shape[0], n), dtype=np.int64)
        if prefix_len:
            chunk[:, :prefix_len] = np.array(head, dtype=np.int64)
        if tail:
            chunk[:, prefix_len:] = block
        yield chunk


def _dense64(A: SparseIntMatrix) -> np.ndarray:
    return np.array(A.to_dense(), dtype=np.int64).reshape(A.num_rows, A.num_cols)


def enumerate_kernel(A: SparseIntMatrix, g: int, budget: int = DEFAULT_BUDGET) -> frozenset[Vec]:
    """Exhaustive filter of the box {-g..g}^n for kernel vectors of A."""
    n = A.num_cols
    if (2 * g + 1) ** n > budget:
        raise BudgetExceededError(f"box size {(2 * g + 1) ** n} exceeds budget {budget}")
    _check_exact_regime(A, -g, g)
    dense = _dense64(A)
    out: set[Vec] = set()
    for chunk in _box_chunks(n, -g, g):
        if A.num_rows:
            mask = (chunk @ dense.T == 0).all(axis=1)
            hits = chunk[mask]
        else:
            hits = chunk
        out.update(tuple(int(x) for x in row) for row in hits)
    return frozenset(out)


# ---------------------------------------------------------------------------
# order comparison, written out from the definition


def _order_key(weights: Vec, v: Sequence[int]) -> tuple:
    return (sum(w * x for w, x in zip(weights, v)), tuple(v))


def _conformal(u: Vec, v: Vec) -> bool:
    return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))


def _kernel_array(kernel, weights: Vec) -> tuple[np.ndarray, np.ndarray]:
    """The kernel as an int64 array with the weight of each row."""
    K = np.array(list(kernel), dtype=np.int64).reshape(len(kernel), len(weights))
    largest = int(np.abs(K).max(initial=0))
    if len(weights) * max(map(abs, weights), default=0) * largest >= 2**60:
        raise BudgetExceededError("kernel weights outside the exact int64 regime")
    return K, K @ np.array(weights, dtype=np.int64)


def _jump_minimum(kernel: tuple[np.ndarray, np.ndarray], z: Vec) -> Vec:
    """Order-minimum of {z + v : v in kernel, z + v >= 0}.

    Adding z shifts every weight by w.z and keeps the lexicographic order,
    so the minimum is taken over the kernel rows v >= -z by (w.v, v): least
    weight, ties broken lexicographically as in :func:`_order_key`.  z
    itself competes as v = 0.
    """
    K, weight = kernel
    fits = (K >= -np.array(z, dtype=np.int64)).all(axis=1)
    best = (0, (0,) * len(z))
    if fits.any():
        least = weight[fits].min()
        tied = K[fits & (weight == least)]
        best = min(best, (int(least), min(map(tuple, tied.tolist()))))
    return tuple(a + b for a, b in zip(z, best[1]))


def _normal_form_over_kernel(kernel: tuple[np.ndarray, np.ndarray], u: Vec) -> Vec:
    current = u
    while True:
        nxt = _jump_minimum(kernel, current)
        if nxt == current:
            return current
        current = nxt


def normal_form_bruteforce(
    A: SparseIntMatrix, weights: Sequence[int], u: Sequence[int], g: int,
    budget: int = DEFAULT_BUDGET,
) -> Vec:
    """Fixed point of repeatedly jumping to the order-minimum of
    {z + v : v a kernel vector with entries at most g, z + v >= 0}.

    Once g dominates the norm of every conformally minimal kernel vector the
    fixed point is the normal-form exponent of x^u.
    """
    u = tuple(int(x) for x in u)
    weights = tuple(int(w) for w in weights)
    kernel = _kernel_array(enumerate_kernel(A, g, budget), weights)
    return _normal_form_over_kernel(kernel, u)


def graver_bruteforce(A: SparseIntMatrix, g: int, budget: int = DEFAULT_BUDGET) -> frozenset[Vec]:
    """Conformally minimal nonzero kernel vectors inside the box {-g..g}^n.

    Candidates are scanned in 1-norm order; a vector survives exactly when no
    previously accepted vector sits conformally below it.
    """
    kernel = [v for v in enumerate_kernel(A, g, budget) if any(v)]
    kernel.sort(key=lambda v: (sum(abs(x) for x in v), v))
    minimal: list[Vec] = []
    for z in kernel:
        if not any(_conformal(w, z) for w in minimal):
            minimal.append(z)
    return frozenset(minimal)


def reduced_gb_bruteforce(
    A: SparseIntMatrix, weights: Sequence[int], g: int, budget: int = DEFAULT_BUDGET
) -> frozenset[tuple[Vec, Vec]]:
    """Reduced-basis pairs (head, tail) computed straight from the definition
    over the box-bounded candidate set.

    A kernel vector contributes its oriented binomial exactly when the tail
    is the head's normal form and every co-dimension-one divisor of the head
    is standard (its own jump fixed point), i.e. the head minimally generates
    the initial ideal.
    """
    weights = tuple(int(w) for w in weights)
    vectors = enumerate_kernel(A, g, budget)
    nonzero = [v for v in vectors if any(v)]
    kernel = _kernel_array(vectors, weights)

    seen: set[tuple[Vec, Vec]] = set()
    out: set[tuple[Vec, Vec]] = set()
    for v in nonzero:
        head = tuple(x if x > 0 else 0 for x in v)
        tail = tuple(-x if x < 0 else 0 for x in v)
        if _order_key(weights, head) < _order_key(weights, tail):
            head, tail = tail, head
        if (head, tail) in seen:
            continue
        seen.add((head, tail))
        if _normal_form_over_kernel(kernel, tail) != tail:
            continue
        if _normal_form_over_kernel(kernel, head) != tail:
            continue
        minimal = True
        for k, exponent in enumerate(head):
            if exponent:
                divisor = head[:k] + (exponent - 1,) + head[k + 1 :]
                if _jump_minimum(kernel, divisor) != divisor:
                    minimal = False
                    break
        if minimal:
            out.add((head, tail))
    return frozenset(out)


# ---------------------------------------------------------------------------
# instance generators


def incidence_matrix(graph: Graph) -> SparseIntMatrix:
    """Vertex-by-edge 0/1 incidence matrix; edges are column-indexed in
    sorted order."""
    edges = sorted(graph.edges)
    entries = []
    for j, (a, b) in enumerate(edges):
        entries.append((a, j, 1))
        entries.append((b, j, 1))
    return SparseIntMatrix(graph.num_vertices, len(edges), entries)


def nfold_product(A1: SparseIntMatrix, A2: SparseIntMatrix, copies: int) -> SparseIntMatrix:
    """Stack A1 across the top of `copies` column blocks and place A2 down the
    block diagonal."""
    if A1.num_cols != A2.num_cols:
        raise ValueError("blocks must have the same number of columns")
    if copies < 1:
        raise ValueError("need at least one copy")
    s1, s2, t = A1.num_rows, A2.num_rows, A1.num_cols
    entries = []
    for r in range(copies):
        for i, j, value in A1.iter_entries():
            entries.append((i, r * t + j, value))
        for i, j, value in A2.iter_entries():
            entries.append((s1 + r * s2 + i, r * t + j, value))
    return SparseIntMatrix(s1 + copies * s2, copies * t, entries)


def two_by_two_minors_matrix(l: int, m: int) -> SparseIntMatrix:
    """Incidence matrix of the complete bipartite graph K_{l,m}, realised as
    the m-fold product of (identity over a row of ones); columns are ordered
    x_{1,1},...,x_{l,1},x_{1,2},...,x_{l,m}."""
    if min(l, m) < 1:
        raise ValueError(f"blocks and copies must be at least 1, got {l} and {m}")
    identity = SparseIntMatrix(l, l, ((i, i, 1) for i in range(l)))
    ones_row = SparseIntMatrix(1, l, ((0, j, 1) for j in range(l)))
    return nfold_product(identity, ones_row, m)


def threeway_table_matrix(l: int, m: int, n: int) -> SparseIntMatrix:
    """Defining matrix of the l x m x n table ideal: the n-fold product of
    (identity over the K_{l,m} incidence matrix)."""
    if min(l, m, n) < 1:
        raise ValueError(f"l, m and n must be at least 1, got {l}, {m} and {n}")
    lm = l * m
    identity = SparseIntMatrix(lm, lm, ((i, i, 1) for i in range(lm)))
    return nfold_product(identity, two_by_two_minors_matrix(l, m), n)


def random_sparse_matrix(
    m: int, n: int, max_entry: int, density: float, seed: int
) -> SparseIntMatrix:
    """Seeded random matrix with entries in [-max_entry, max_entry] \\ {0};
    every row is guaranteed at least one nonzero."""
    if max_entry < 1:
        raise ValueError(f"max_entry must be at least 1, got {max_entry}")
    if m > 0 and n < 1:
        raise ValueError(f"cols must be at least 1 when rows is positive, got {n}")
    if not 0 <= density <= 1:  # NaN too
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    nonzero = [x for x in range(-max_entry, max_entry + 1) if x]
    entries = []
    for i in range(m):
        support = [j for j in range(n) if rng.random() < density]
        if not support:
            support = [rng.randrange(n)]
        for j in support:
            entries.append((i, j, rng.choice(nonzero)))
    return SparseIntMatrix(m, n, entries)


def saturated_graver(
    A: SparseIntMatrix, start: int = 1, cap: int = 8, budget: int = DEFAULT_BUDGET
) -> tuple[frozenset[Vec], int]:
    """Smallest g >= start with graver_bruteforce(A, g) == graver_bruteforce(A, g+1),
    together with the stabilised set.  Raises if no such g is found below the cap."""
    g = max(start, 1)
    current = graver_bruteforce(A, g, budget)
    while g < cap:
        nxt = graver_bruteforce(A, g + 1, budget)
        if nxt == current:
            return current, g
        current = nxt
        g += 1
    raise BudgetExceededError(f"no saturation below bound cap {cap}")
