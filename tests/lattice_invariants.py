"""The structural invariants of a built join tree, checked by the tests.

``validate(L)`` raises ``InvariantError`` at the first invariant that fails.
Its checks are not ``assert`` statements, so they run under ``python -O``
too.  The build and the queries do not repeat them.
"""

from __future__ import annotations

from collections import Counter

from toricbases.lattice import _MIN_TWINS, _absorbs, _folds, _key_sizes


class InvariantError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def validate(L) -> None:
    """Raise InvariantError unless the structural invariants hold: merges
    that are maximal (no bag's first child passes the build's rules,
    ``_folds`` or ``_absorbs``), running intersection, separator
    containment, backtrack-freeness in both directions, and a sweep plan
    that agrees with the rows, its groups of equal columns included."""
    bags = L._bags
    rows_of = []  # each bag's rows, read from its table
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
                _require(
                    parent is not None and parent in present,
                    f"running intersection violated for variable {var}",
                )
                walk = parent
    for bag in bags:
        num_intros = len(bag.intros)
        _require(num_intros > 0 and bag.scope[:num_intros] == bag.intros, "intros not first")
        shape = len(bag.table), set(map(len, bag.table))
        _require(shape == (len(bag.scope), {len(bag.key_ids)}), "table shape not scope by rows")
        rows = list(zip(*bag.table))
        rows_of.append(rows)
        if bag.children:
            _require(not _folds(bag, bags[bag.children[0]]), "clique not folded")
        if bag.parent is None:
            _require(set(bag.key_ids) <= {0} and bag.num_keys == 1, "root keys not one")
        else:
            _require(set(bag.sep) <= set(bags[bag.parent].scope), "separator not in the parent")
        _require(bag.key_ids == tuple(sorted(bag.key_ids)), "rows not grouped by key id")
        keyed = list(zip(bag.key_ids, (row[num_intros - 1 :: -1] for row in rows)))
        _require(keyed == sorted(set(keyed)), "rows of a key not strictly sorted")
        key_of = {}
        for k, sep in zip(bag.key_ids, (row[num_intros:] for row in rows)):
            _require(key_of.setdefault(k, sep) == sep, "one key id for two separator keys")
        _check_columns(L, bag)
        for c in bag.children:
            child = bags[c]
            child_keys: dict[int, tuple[int, ...]] = {}
            for k, row in zip(child.key_ids, rows_of[c]):
                child_keys[k] = row[len(child.intros) :]
            _require(len(child.up) == len(rows), "child keys not one per parent row")
            extract = tuple(map(bag.scope.index, child.sep))
            for row, k in zip(rows, child.up):
                want = tuple(row[i] for i in extract)
                _require(child_keys.get(k) == want, "parent row with no child extension")
            _require(set(child_keys) <= set(child.up), "child row with no parent support")
            _require(set(child.up) == set(range(child.num_keys)), "key ids not numbered densely")
            if c == bag.children[0]:  # merges are maximal: the join stores more
                join = sum(map(_key_sizes(child).__getitem__, child.up))
                _require(not _absorbs(len(bag.scope), len(rows), child, join), "first child not absorbed")


def _check_columns(L, bag) -> None:
    """The bag's box index and leaf plan against its table: equal columns
    (not counters) sharing one table tuple, every column indexed once, alone
    or in its group of at least ``_MIN_TWINS`` twins, and masks that agree
    with the rows."""
    n = L.num_columns
    every = range(n)
    column_of = dict(zip(bag.scope, bag.table))
    boxed = [v for v in bag.scope if v < n]
    shared = list(map(column_of.__getitem__, boxed))
    _require(len(set(map(id, shared))) == len(set(shared)), "equal columns not one tuple")
    sizes = Counter(map(column_of.__getitem__, boxed))

    def check_masks(column, values, masks):
        for x, mask in zip(values, masks):
            want = "".join("1" if y >= x else "0" for y in column)
            _require(mask == int(want, 2), "row mask disagrees with the rows")

    for var, values, masks in bag.columns:
        _require(sizes[column_of[var]] < _MIN_TWINS, "twin columns boxed one by one")
        check_masks(column_of[var], values, masks)
    indexed = [var for var, _, _ in bag.columns]
    for get, values, masks in bag.twins:
        members = get(every)
        first = column_of[members[0]]
        _require(all(column_of[v] is first for v in members), "twin column not its group's")
        _require(len(members) == sizes[first], "a group misses a twin")
        check_masks(first, values, masks)
        indexed += members
    _require(sorted(indexed) == sorted(boxed), "a column not indexed exactly once")
    intros = [v for v in bag.intros if v < n]
    twins_in = Counter(map(column_of.__getitem__, intros))
    columns, singles, gets = bag.weighing
    _require(len(columns) == len(singles) + len(gets), "leaf plan not one column per weight")
    weighed = list(singles)
    for column, var in zip(columns, singles):
        _require(column is column_of[var], "leaf column not its variable's")
        _require(twins_in[column] < _MIN_TWINS, "twin columns weighed one by one")
    for column, get in zip(columns[len(singles) :], gets):
        members = get(every)
        _require(all(column_of[v] is column for v in members), "twin column not its group's")
        _require(len(members) == twins_in[column] >= _MIN_TWINS, "a weighed group not its twins")
        weighed += members
    _require(sorted(weighed) == sorted(intros), "an introduced column not weighed exactly once")
