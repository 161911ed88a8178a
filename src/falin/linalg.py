"""Dense exact linear algebra over the rationals.

Matrices are lists of lists of exact rationals, ``int`` or ``Fraction``.
``rref`` is the one elimination routine: it scales each row to integers
once and eliminates over the integers, so no product pays for a gcd and no
division of two ``int`` entries ever yields a float, and its results (and
those of ``solve_particular`` and ``inverse``, which are built on it) are
``Fraction`` throughout, one per entry, formed at the end.  It is
fraction-free Gauss-Jordan elimination with no pivoting strategy beyond
"first nonzero"; exact arithmetic needs no numerical pivoting.  ``rref``
takes rows of one width and reads it off the first row.  ``inverse`` raises
``SingularMatrix`` for a matrix that is not square as well as for a
singular one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .coefficients import clear_denominators, normalize_scalar
from .errors import SingularMatrix


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices).

    A row holding b at pivot p becomes (p*row - b*pivot_row) / gcd(p, b),
    divided by its content; each pivot row is divided by p at the end.
    """
    m = [clear_denominators([normalize_scalar(x) for x in row])[1]
         for row in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = gcd(pivot[c], m[i][c])
                a, b = pivot[c] // g, m[i][c] // g
                row = [a * x - b * y for x, y in zip(m[i], pivot)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return ([[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)],
            pivots)


def solve_particular(a, b):
    """One solution of A x = b with free variables at 0, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    ncols = len(a[0])
    aug = [row + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


def inverse(a) -> list:
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrix("matrix is not square")
    aug = [list(row) + ident_row
           for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in reduced]
