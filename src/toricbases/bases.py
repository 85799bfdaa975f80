"""Membership tests and construction for reduced Groebner bases and Graver
bases, driven by a kernel lattice, box-bounded or degree-truncated.

A Graver membership test costs one dynamic-programming sweep of the join
tree.  The reduced-basis membership test, ``in_reduced_gb``, costs the jumps
of the head's normal form plus one sweep per column in the head's support.
The two constructions form one pipeline over the lattice's elements: the
Graver basis is a conformal filter of the elements in 1-norm order, and the
reduced basis is read off the Graver binomials with no sweep.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Binomial,
    Frozen,
    MonomialOrder,
    SparseIntMatrix,
    Vec,
    as_vector,
    check_length,
    conformal_leq,
    one_norm,
)
from .lattice import KernelLattice, conformal_box
from .normalform import is_standard, normal_form_bounded


class BasisReport(Frozen):
    """Outcome of a basis construction scan.

    ``kind`` is one of ``reduced-groebner``, ``graver``,
    ``truncated-groebner``, ``truncated-graver``; ``elements`` holds sorted
    Binomial objects for the Groebner kinds and sorted kernel vectors for the
    Graver kinds; ``scanned`` counts the lattice elements examined;
    ``certified`` is :attr:`KernelLattice.certified`, without which elements
    beyond ``bound_used``, the lattice's bound, may be missing.
    """

    __slots__ = ("kind", "elements", "scanned", "bound_used", "certified")

    def __init__(self, kind: str, elements: tuple, scanned: int, bound_used: int, certified: bool):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "scanned", scanned)
        object.__setattr__(self, "bound_used", bound_used)
        object.__setattr__(self, "certified", certified)


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
    under division, so co-dimension-one divisors suffice).  The answer is
    exact only when ``L.certified``; a bool cannot carry that flag, so the
    caller reads it off the lattice.
    """
    L.check_matrix(A)
    L.check_order(order)
    head, tail = binomial.head, binomial.tail
    check_length(head, A.num_cols)
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
    """The oriented Graver binomials (h, t) of the lattice such that no other
    Graver head lies below h and no Graver head lies below t; sorted by head
    and then tail.

    These restate ``in_reduced_gb`` at every bound.  An improving move splits
    conformally into Graver elements inside the same box or degree bound,
    one of which improves the monomial on its own.  So the first condition
    says every h - e_k is standard, and the second that t is standard.
    Given the first, a least move from h is one Graver element with negative
    part h, so the first jump from h lands on its least tail t'; and t' = t,
    for if t' < t, the move t' - t is inside the bound and improves t.
    """
    L.check_matrix(A)
    L.check_order(order)
    graver = graver_basis(A, L)
    binomials = binomials_from_vectors(graver.elements, order)
    heads = {b.head for b in binomials}
    kept = [
        b for b in binomials
        if not any(conformal_leq(h, b.tail) for h in heads)
        and not any(h != b.head and conformal_leq(h, b.head) for h in heads)
    ]
    kind = "reduced-groebner" if L.kind == "box" else "truncated-groebner"
    return BasisReport(kind, tuple(kept), graver.scanned, L.bound, L.certified)


def in_graver(A: SparseIntMatrix, L: KernelLattice, z: Sequence[int]) -> bool:
    """Whether z is a conformally minimal nonzero kernel vector.

    Decided by counting the kernel vectors conformally below z: exactly the
    zero vector and z itself must remain.  A multiple k*p with k >= 2 has p
    conformally below it, inside the same bound, so it counts at least 3.
    """
    L.check_matrix(A)
    z = as_vector(z)
    check_length(z, A.num_cols)
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
    return BasisReport(kind, tuple(kept), len(vectors), L.bound, L.certified)


def binomials_from_vectors(vectors: Sequence[Vec], order: MonomialOrder) -> list[Binomial]:
    """Oriented, deduplicated binomials of a set of kernel vectors, sorted by
    head and then tail: the candidates of the reduced basis, and a
    division basis when the vectors are a Graver basis."""
    return sorted(
        {Binomial.from_kernel_vector(v).oriented(order) for v in vectors if any(v)},
        key=lambda b: (order.key(b.head), order.key(b.tail)),
    )
