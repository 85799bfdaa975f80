"""Membership tests and construction for reduced Groebner bases and Graver
bases, driven by a kernel lattice, box-bounded or degree-truncated.

A Graver membership test costs one dynamic-programming sweep of the join
tree.  A reduced-basis membership test costs the jumps of the head's normal
form plus one sweep per column in the head's support.  The two
constructions form one pipeline over the lattice's elements: the Graver
basis is a conformal filter of the elements in 1-norm order, and the
reduced basis is the Graver binomials that pass the reduced-basis
membership test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Binomial,
    DimensionMismatch,
    MonomialOrder,
    SparseIntMatrix,
    Vec,
    as_vector,
    conformal_leq,
    one_norm,
)
from .lattice import KernelLattice, conformal_box
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
    L.check_matrix(A)
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
    """The oriented binomials of the lattice's Graver basis that pass the
    reduced-basis membership test; each sign pair contributes one candidate.

    Only Graver elements can pass the test, at any bound, so this equals the
    scan of every lattice vector.  Let v = head - tail pass it, and let y be
    a kernel vector conformally below v other than 0 and v.  y and v - y
    satisfy v's bound, so both are in the lattice, and one of them, say y,
    has its positive part above its negative part.  If y+ is not the whole
    head, it divides some head - e_k, from which y is an improving move: that
    divisor is not standard.  Otherwise y- is a proper divisor of the tail,
    reached from it by the move v - y: the tail is not the normal form.
    """
    L.check_matrix(A)
    L.check_order(order)
    graver = graver_basis(A, L)
    kept = [
        b for b in binomials_from_vectors(graver.elements, order)
        if in_reduced_gb(A, L, order, b)
    ]
    kind = "reduced-groebner" if L.kind == "box" else "truncated-groebner"
    return BasisReport(kind, order, tuple(kept), graver.scanned, L.bound, L.certified)


def in_graver(A: SparseIntMatrix, L: KernelLattice, z: Sequence[int]) -> bool:
    """Whether z is a conformally minimal nonzero kernel vector.

    Decided by counting the kernel vectors conformally below z: exactly the
    zero vector and z itself must remain.  A multiple k*p with k >= 2 has p
    conformally below it, inside the same bound, so it counts at least 3.
    """
    L.check_matrix(A)
    z = as_vector(z)
    if len(z) != A.num_cols:
        raise DimensionMismatch(f"expected length {A.num_cols}, got {len(z)}")
    if not any(z):
        raise ValueError("the zero vector is never a basis element")
    if any(A.apply(z)):
        raise ValueError("not a kernel vector")
    L.check_bound(z)
    return L.count(conformal_box(z)) == 2


def graver_basis(A: SparseIntMatrix, L: KernelLattice) -> BasisReport:
    """The conformally minimal nonzero vectors of the lattice; both signs of
    each element are kept.

    The lattice is scanned in 1-norm order, keeping a vector when no kept
    vector is conformally below it.  A vector conformally below a lattice
    vector satisfies the same box or degree bound, so it is in the lattice,
    and unless the two are equal its 1-norm is smaller, so it is seen first.
    """
    L.check_matrix(A)
    vectors = sorted(L.iterate(), key=one_norm)
    kept: list[Vec] = []
    for z in vectors:
        if any(z) and not any(conformal_leq(w, z) for w in kept):
            kept.append(z)
    kept.sort()
    kind = "graver" if L.kind == "box" else "truncated-graver"
    return BasisReport(kind, None, tuple(kept), len(vectors), L.bound, L.certified)


def binomials_from_vectors(vectors: Sequence[Vec], order: MonomialOrder) -> list[Binomial]:
    """Oriented, deduplicated binomials of a set of kernel vectors, sorted by
    head and then tail: the candidates of the reduced basis, and a
    division basis when the vectors are a Graver basis."""
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
