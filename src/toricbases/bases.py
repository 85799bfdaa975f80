"""Membership tests and construction for reduced Groebner bases and Graver
bases, full and degree-truncated, driven by a kernel lattice.

The construction pattern is the same everywhere: stream the lattice's
elements and keep those passing the respective membership test.  Membership
itself costs one or two dynamic-programming sweeps of the join tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .core import (
    Binomial,
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    Vec,
    as_vector,
)
from .lattice import KernelLattice, build_truncated_lattice, conformal_box
from .normalform import is_standard, normal_form_bounded


@dataclass(frozen=True)
class BasisReport:
    """Outcome of a basis construction scan.

    ``kind`` is one of ``reduced-groebner``, ``graver``,
    ``truncated-groebner``, ``truncated-graver``; ``elements`` holds sorted
    Binomial objects for the Groebner kinds and sorted kernel vectors for the
    Graver kinds; ``scanned`` counts the lattice elements examined;
    ``certified`` is :attr:`KernelLattice.certified`, without which elements
    beyond the bound may be missing.
    """

    kind: str
    order: MonomialOrder | None
    elements: tuple
    scanned: int
    bound_used: int
    certified: bool


def _check_kernel_pair(A: SparseIntMatrix, head: Vec, tail: Vec) -> None:
    if A.apply(head) != A.apply(tail):
        raise ValueError("not a kernel pair: the two exponents have different images")


def in_reduced_gb(
    A: SparseIntMatrix, L: KernelLattice, order: MonomialOrder, binomial: Binomial
) -> bool:
    """Whether the binomial belongs to the reduced Groebner basis represented
    by the lattice's candidate set.

    The heads of the reduced basis are exactly the minimal generators of the
    initial ideal, each paired with the normal form of its head.  So the test
    is: the tail is the head's normal form, and removing any single variable
    from the head leaves a standard monomial (standard monomials are closed
    under division, so co-dimension-one divisors suffice).
    """
    head, tail = binomial.head, binomial.tail
    if len(head) != A.num_cols:
        raise DimensionMismatch(f"expected length {A.num_cols}, got {len(head)}")
    _check_kernel_pair(A, head, tail)
    if order.compare(head, tail) <= 0:
        raise ValueError("binomial must be oriented head-above-tail")
    L.check_bound(head)
    L.check_bound(tail)

    if normal_form_bounded(A, L, order, head).normal_exponent != tail:
        return False
    for k, exponent in enumerate(head):
        if exponent:
            divisor = head[:k] + (exponent - 1,) + head[k + 1 :]
            if not is_standard(A, L, order, divisor):
                return False
    return True


def reduced_groebner_basis(
    A: SparseIntMatrix, L: KernelLattice, order: MonomialOrder
) -> BasisReport:
    """Stream the lattice and keep the oriented binomials passing the
    reduced-basis membership test; each sign pair contributes one candidate."""
    seen: set[tuple[Vec, Vec]] = set()
    kept: list[Binomial] = []
    scanned = 0
    for v in L.iterate():
        scanned += 1
        if not any(v):
            continue
        binomial = Binomial.from_kernel_vector(v).oriented(order)
        key = (binomial.head, binomial.tail)
        if key in seen:
            continue
        seen.add(key)
        if in_reduced_gb(A, L, order, binomial):
            kept.append(binomial)
    kept.sort(key=lambda b: (order.key(b.head), order.key(b.tail)))
    kind = "reduced-groebner" if L.kind == "box" else "truncated-groebner"
    return BasisReport(kind, order, tuple(kept), scanned, L.bound, L.certified)


def in_graver(A: SparseIntMatrix, L: KernelLattice, z: Sequence[int]) -> bool:
    """Whether z is a conformally minimal nonzero kernel vector.

    Decided by counting the kernel vectors conformally below z: exactly the
    zero vector and z itself must remain.  Vectors with a common factor are
    rejected outright, since their primitive part sits conformally below.
    """
    z = as_vector(z)
    if len(z) != A.num_cols:
        raise DimensionMismatch(f"expected length {A.num_cols}, got {len(z)}")
    if not any(z):
        raise ValueError("the zero vector is never a basis element")
    if any(A.apply(z)):
        raise ValueError("not a kernel vector")
    L.check_bound(z)
    common = 0
    for x in z:
        common = gcd(common, abs(x))
    if common > 1:
        return False
    return L.count(conformal_box(z)) == 2


def graver_basis(A: SparseIntMatrix, L: KernelLattice) -> BasisReport:
    """Stream the lattice and keep the vectors passing the conformal
    minimality test; both signs of each element are kept."""
    kept: list[Vec] = []
    scanned = 0
    for v in L.iterate():
        scanned += 1
        if not any(v):
            continue
        if in_graver(A, L, v):
            kept.append(v)
    kept.sort()
    kind = "graver" if L.kind == "box" else "truncated-graver"
    return BasisReport(kind, None, tuple(kept), scanned, L.bound, L.certified)


def truncated_bases(
    A: SparseIntMatrix,
    d: int,
    order: MonomialOrder | None = None,
    *,
    want: str = "groebner",
    ordering: Sequence[int] | None = None,
    build_budget: int | None = None,
) -> BasisReport:
    """Degree-truncated bases from the degree-d lattice.

    ``want='groebner'`` yields the elements of the graded-order reduced basis
    whose two sides both have degree at most d; the order must have unit
    weights (only the graded lexicographic order is compatible with degree
    truncation).  ``want='graver'`` yields the conformally minimal kernel
    vectors whose parts both have degree at most d.
    """
    L = build_truncated_lattice(A, d, ordering, build_budget=build_budget)
    if want == "groebner":
        if order is None:
            order = MonomialOrder.grlex(A.num_cols)
        if not order.is_unit_weights:
            raise ValueError("degree truncation requires the graded lexicographic order")
        return reduced_groebner_basis(A, L, order)
    if want == "graver":
        return graver_basis(A, L)
    raise ValueError(f"unknown basis kind {want!r}")


def binomials_from_vectors(vectors: Sequence[Vec], order: MonomialOrder) -> list[Binomial]:
    """Oriented, deduplicated binomials of a set of kernel vectors; useful for
    reducing against a Graver basis."""
    seen: set[tuple[Vec, Vec]] = set()
    out: list[Binomial] = []
    for v in vectors:
        if not any(v):
            continue
        b = Binomial.from_kernel_vector(v).oriented(order)
        key = (b.head, b.tail)
        if key not in seen:
            seen.add(key)
            out.append(b)
    out.sort(key=lambda b: (order.key(b.head), order.key(b.tail)))
    return out
