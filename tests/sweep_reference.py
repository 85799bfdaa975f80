"""The tuple-keyed sweep that the integer-indexed sweep plan replaced, and
the depth-first enumeration that the list sweep replaced, kept as
references for the tests.

They read only each bag's scope, introduced variables, separator, children
and rows, taken back out of its column table as tuples.  Every message is
a dict keyed by separator value tuples, every box filter compares row
values (a side given as None compares none), and the minimiser keeps (key,
row) back-pointers and rebuilds the vector top-down from the values already
chosen.  The enumeration extends the values already chosen bag by bag.
"""

from __future__ import annotations

import operator

from toricbases.core import weight_vector


def reference_sweep(L, box, leaf, times, plus) -> list[dict]:
    """One bottom-up pass of a commutative semiring; a missing entry is the
    semiring's zero, so a row whose child has no entry is dropped."""
    n = L.num_columns
    bags = L._bags
    msgs: list[dict] = []
    for bag in bags:
        index = {v: i for i, v in enumerate(bag.scope)}
        rows = list(zip(*bag.table))
        if box is not None:
            lo, hi = box
            for i, var in enumerate(bag.scope):
                if var < n:  # a side given as None cuts no row
                    if lo is not None:
                        rows = [row for row in rows if lo[var] <= row[i]]
                    if hi is not None:
                        rows = [row for row in rows if row[i] <= hi[var]]
        children = [(msgs[c], tuple(index[v] for v in bags[c].sep)) for c in bag.children]
        sep = tuple(index[v] for v in bag.sep)
        agg: dict = {}
        for row in rows:
            acc = leaf(bag, row)
            for msg, extract in children:
                entry = msg.get(tuple(row[i] for i in extract))
                if entry is None:
                    break
                acc = times(acc, entry)
            else:
                key = tuple(row[i] for i in sep)
                old = agg.get(key)
                agg[key] = acc if old is None else plus(old, acc)
        msgs.append(agg)
    return msgs


def _roots_and_preorder(L) -> tuple[list[int], list[int]]:
    bags = L._bags
    roots = [b.pos for b in bags if b.parent is None]
    order: list[int] = []
    stack = list(reversed(roots))
    while stack:
        pos = stack.pop()
        order.append(pos)
        stack.extend(reversed(bags[pos].children))
    return roots, order


def reference_count(L, box=None) -> int:
    msgs = reference_sweep(L, box, lambda bag, row: 1, operator.mul, operator.add)
    total = 1
    for root in _roots_and_preorder(L)[0]:
        total *= msgs[root].get((), 0)
    return total


def reference_minimize(L, order, box=None):
    n = L.num_columns
    c = weight_vector(order.weights, 2 * L.bound + 1, n)

    def leaf(bag, row):
        index = {v: i for i, v in enumerate(bag.scope)}
        return sum(c[v] * row[index[v]] for v in bag.intros if v < n), row

    def times(a, b):
        return a[0] + b[0], a[1]

    msgs = reference_sweep(L, box, leaf, times, min)
    env: dict[int, int] = {}
    for pos in _roots_and_preorder(L)[1]:
        bag = L._bags[pos]
        best = msgs[pos].get(tuple(env[v] for v in bag.sep))
        if best is None:
            return None
        env.update(zip(bag.scope, best[1]))
    return tuple(env[j] for j in range(n))


def reference_iterate(L) -> list:
    """Every represented vector, in the order of the depth-first walk: the
    bags in preorder, each extending the values already chosen with every
    stored row whose separator agrees with them, in stored order."""
    n = L.num_columns
    order = [L._bags[pos] for pos in _roots_and_preorder(L)[1]]
    out: list = []

    def extend(depth: int, env: dict) -> None:
        if depth == len(order):
            out.append(tuple(env[j] for j in range(n)))
            return
        bag = order[depth]
        k = len(bag.intros)
        for row in zip(*bag.table):
            if all(env[v] == x for v, x in zip(bag.sep, row[k:])):
                extend(depth + 1, {**env, **dict(zip(bag.intros, row[:k]))})

    extend(0, {})
    return out
