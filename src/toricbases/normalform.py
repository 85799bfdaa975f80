"""Normal forms of monomials modulo the toric ideal of a matrix.

Two routes live here: the direct join-tree minimisation over a kernel
lattice, valid for exponents inside the lattice's bound, and classical
division by an explicit Groebner basis for anything else.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .core import (
    Binomial,
    Frozen,
    MonomialOrder,
    SparseIntMatrix,
    ToricError,
    Vec,
    as_vector,
    check_monomial,
    vector_add,
)
from .lattice import KernelLattice, shift_box


class NormalFormResult(Frozen):
    """The normal form, and whether the monomial was its own.  ``certified``
    is :attr:`KernelLattice.certified`: when it is false the bound may miss
    a move, and the normal form may be too large.  ``jumps`` counts sweeps."""

    __slots__ = ("normal_exponent", "was_standard", "certified", "jumps")

    def __init__(self, normal_exponent: Vec, was_standard: bool, certified: bool, jumps: int = 0):
        object.__setattr__(self, "normal_exponent", normal_exponent)
        object.__setattr__(self, "was_standard", was_standard)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "jumps", jumps)


def _check_monomial(
    A: SparseIntMatrix, L: KernelLattice, order: MonomialOrder, u: Vec
) -> None:
    """Matrix, monomial (:func:`core.check_monomial`), bound, then order."""
    L.check_matrix(A)
    # u's distinct values, which answered the sign check, answer the bound:
    # a nonnegative u lies in the box bound when its largest entry does, and
    # in the degree bound when its sum does
    values = check_monomial(u, A.num_cols)
    if (max(values, default=0) if L.kind == "box" else sum(u)) > L.bound:
        L.check_bound(u)
    L.check_order(order)


def normal_form_bounded(
    A: SparseIntMatrix, L: KernelLattice, order: MonomialOrder, u: Sequence[int]
) -> NormalFormResult:
    """Smallest nonnegative exponent congruent to u, reached by repeatedly
    jumping to the order-minimum of {z + v : v in the lattice, z + v >= 0}.

    Each jump is a single dynamic-programming sweep of the join tree inside
    the shift box of the current point.  A jump from a non-minimal point
    always finds something strictly smaller once the lattice bound dominates
    the conformal-minimality norm bound, because the difference to the fiber
    minimum splits into conformal moves that stay feasible one at a time; the
    fixed point is then the true normal form.  Points stay nonnegative, so a
    jump always finds at least the zero vector, and a point is its own jump's
    target exactly when the minimiser is 0: the loop stops on a zero
    minimiser, and adds the minimiser only when it moves.

    The monomial is checked before the first jump, in this order: its
    length and sign (:func:`core.check_monomial`), the lattice's bound
    (BoundExceeded), the order.

    On a degree-d lattice the first jump lands on the normal form nf.  The
    order is graded, so nf <= u gives deg(nf) <= deg(u) <= d.  The positive
    part of nf - u lies below nf and its negative part below u, so both have
    1-norm at most d: nf - u is in the lattice, and inside u's shift box
    since u + (nf - u) = nf >= 0 and every entry of nf is at most deg(nf).
    The jump's minimiser v gives u + v <= nf, and u + v is congruent to u and
    nonnegative, so u + v = nf.  The loop returns after that one sweep.
    """
    u = as_vector(u)
    _check_monomial(A, L, order, u)
    current, jumps = u, 0
    while True:
        jumps += 1
        v = L.minimize(order, shift_box(current))
        if not any(v):  # the fixed point: current is its own minimum
            break
        current = vector_add(current, v)
        if L.kind == "degree":
            break
    # a move strictly lowers the key, so u is standard when none was made
    return NormalFormResult(current, current is u, L.certified, jumps)


def is_standard(
    A: SparseIntMatrix, L: KernelLattice, order: MonomialOrder, u: Sequence[int]
) -> bool:
    """Whether u is already its own normal form.

    One jump decides: a monomial with any smaller congruent neighbour admits
    a single improving lattice move, so u is standard exactly when the first
    jump goes nowhere.  The answer is exact only when ``L.certified``; a
    bool cannot carry that flag, so the caller reads it off the lattice.
    """
    u = as_vector(u)
    _check_monomial(A, L, order, u)
    return not any(L.minimize(order, shift_box(u)))


class ReductionDiverged(ToricError):
    pass


_MAX_REDUCTION_STEPS = 1_000_000


def reduce_by_basis(
    gb: Iterable[Binomial], order: MonomialOrder, u: Sequence[int]
) -> Vec:
    """Classical division: repeatedly replace u by u - head + tail for the
    first basis element whose head divides u, until no head divides.

    The basis elements must be oriented head-above-tail, which makes every
    step strictly decreasing, so the loop always terminates (a generous step
    cap guards against pathologically long chains).  The remainder is the
    normal form exactly when the heads generate the initial ideal.  Elements
    are processed in ascending head order so reduction traces are
    reproducible.  The monomial is checked by :func:`core.check_monomial`,
    against the order's length, before any element is read.
    """
    u = as_vector(u)
    check_monomial(u, order.num_vars)
    # keys once per element, which refuses an element of another length; the
    # sort reads only the keys, never two binomials
    keyed = [(order.key(b.head), order.key(b.tail), b) for b in gb]
    keyed.sort(key=operator.itemgetter(0, 1))
    for head_key, tail_key, b in keyed:
        if head_key <= tail_key:
            raise ValueError("basis element not oriented head-above-tail")
    heads = [b.head for _, _, b in keyed]
    tails = [b.tail for _, _, b in keyed]
    for _ in range(_MAX_REDUCTION_STEPS):
        for head, tail in zip(heads, tails):
            if all(h <= x for h, x in zip(head, u)):
                u = tuple(x - h + t for x, h, t in zip(u, head, tail))
                break
        else:
            return u
    raise ReductionDiverged("reduction did not terminate; is the basis a Groebner basis?")


def polynomial_normal_form(
    A: SparseIntMatrix,
    L: KernelLattice,
    order: MonomialOrder,
    terms: Iterable[tuple[int, Sequence[int]]],
) -> list[tuple[int, Vec]]:
    """Termwise normal form of a polynomial with exact integer coefficients.

    Like monomials are collected after reduction; zero coefficients drop out.
    Terms are returned leading-first under the order.  The lattice and the
    order are checked before any term is read, so they are refused even for
    an empty polynomial.  The answer is exact only when ``L.certified``.
    Unlike a :class:`NormalFormResult`, the returned list does not carry that
    flag, so the caller reads it off the lattice.
    """
    L.check_matrix(A)
    L.check_order(order)
    collected: dict[Vec, int] = {}
    for coef, exponent in terms:
        nf = normal_form_bounded(A, L, order, exponent).normal_exponent
        collected[nf] = collected.get(nf, 0) + operator.index(coef)
    nonzero = [(c, e) for e, c in collected.items() if c]
    nonzero.sort(key=lambda t: order.key(t[1]), reverse=True)
    return nonzero
