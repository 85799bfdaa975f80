"""The dense row-space test that ``core.in_row_space`` is checked against:
no ordering, no sparsity, every row reduced at every kept pivot."""

from math import gcd


def dense_in_row_space(A, w) -> bool:
    """Whether w is a rational combination of A's rows, by fraction-free
    elimination: each row, then w, is reduced by the echelon rows kept so
    far, and a row left nonzero joins them.  w lies in the row space exactly
    when it reduces to zero."""
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for row in [*A.to_dense(), list(w)]:
        for p, pivot_row in echelon:
            if row[p]:
                a, b = pivot_row[p], row[p]
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
        if not any(row):
            continue
        g = gcd(*row)
        echelon.append((next(j for j, x in enumerate(row) if x), [x // g for x in row]))
    return not any(row)
