"""Small exact linear algebra over the rationals (row reduction, rank).

Dimensions here are tiny (the algebras in the catalog have <= 4 basis
elements), so naive fraction-based elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pick = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if pick is None:
            continue
        mat[pivot_row], mat[pick] = mat[pick], mat[pivot_row]
        inv = 1 / mat[pivot_row][col]
        mat[pivot_row] = [v * inv for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [r for r in mat if any(v != 0 for v in r)]


def rank(rows: list[list[Fraction]]) -> int:
    return len(row_reduce(rows))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)
    ]


def transpose(a):
    """Rows become columns: turns an adjoint matrix, which acts on column
    vectors, into the list of image vectors per basis index."""
    return [list(col) for col in zip(*a)]


_ZERO, _ONE = Fraction(0), Fraction(1)  # Fractions are immutable, so shared


def identity_matrix(n: int):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def is_zero_matrix(a) -> bool:
    return all(v == 0 for row in a for v in row)
