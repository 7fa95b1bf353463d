"""Exact dense linear algebra by integer elimination, plus HNF machinery.

Everything here works on tuples (vectors) and tuples of tuples (matrices,
row-major).  Elimination is fraction-free over Z: Bareiss for det, one
Gauss-Jordan for inverse and the box bounds, congruence elimination for
inertia, and unimodular Euclid steps for hnf, rank, int_kernel and the
unimodularity test.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatchError
from .gaussrat import GaussRational


def mat(rows) -> tuple:
    rows = tuple(tuple(r) for r in rows)
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("ragged matrix")
    return rows


def mat_mul(a, b):
    """The product a b of row-major matrices; every row of a must be len(b) long."""
    if any(len(row) != len(b) for row in a):
        raise DimensionMismatchError(f"a row of the left factor is not {len(b)} long")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def identity_int(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def conj_vec(v):
    return tuple(x.conjugate() if isinstance(x, GaussRational) else x for x in v)


# ---------------------------------------------------------------------------
# Fraction-free elimination (int entries)


def _int_matrix(m):
    """mat(m), after checking that every entry is an int (bools excluded)."""
    m = mat(m)
    if any(type(x) is not int for r in m for x in r):
        raise TypeError("integer matrix expected")
    return m


def _square_int_matrix(m):
    m = _int_matrix(m)
    if any(len(r) != len(m) for r in m):
        raise DimensionMismatchError("square matrix expected")
    return m


def _symmetric_bareiss(m):
    """Fraction-free congruence elimination of a symmetric integer matrix m.

    Returns (order, lead, low, splits): the pivots in order; the Bareiss pivots,
    lead[k] = lead[k-1] times the k-th rational pivot; per step the nonzero
    pairs (r, a) of the pivot column over the active rows r; {step: j} where
    pivot p was split as x_p + x_j.  The pivot is the first active index with
    a nonzero diagonal, else the first nonzero pair (p, j) is split; the
    radical is left.  Lower triangle only, no transform, exact divisions.
    """
    a = [list(row[:i + 1]) for i, row in enumerate(m)]
    active = list(range(len(m)))
    order, lead, low, splits = [], [], [], {}
    col, prev = [0] * len(m), 1
    while active:
        p = next((i for i in active if a[i][i]), None)
        if p is None:
            p, j = next(((i, j) for ii, i in enumerate(active) for j in active[ii + 1:] if a[j][i]), (None, None))
            if p is None:
                break
            splits[len(order)] = j
            for c in active:  # row and column p gain those of j; a[j][j] = 0
                r, s = (p, c) if c < p else (c, p)
                a[r][s] += a[j][c] if c < j else a[c][j]
            a[p][p] *= 2
        active.remove(p)
        for r in active:
            col[r] = a[r][p] if r > p else a[p][r]
        piv, pairs = a[p][p], []
        for ii, r in enumerate(active, 1):
            row, x = a[r], col[r]
            if x:
                pairs.append((r, x))
            for c in active[:ii]:
                row[c] = (row[c] * piv - x * col[c]) // prev
        order.append(p)
        lead.append(piv)
        low.append(tuple(pairs))
        prev = piv
    return order, lead, low, splits


def det(m) -> int:
    """Determinant of a square integer matrix by Bareiss, every // exact; 1 when empty."""
    a = [list(r) for r in _square_int_matrix(m)]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                a[r][k] = (a[r][k] * a[c][c] - a[r][c] * a[c][k]) // prev
        prev = a[c][c]
    return sign * prev


def _gauss_jordan(a, r):
    """Fraction-free Gauss-Jordan, in place, on the integer rows a = [M | B] with M r x r:
    ends at [d I | d M^-1 B] and returns d = +-det M, or returns 0 when M is singular.
    A zero pivot swaps with the first row below it that is nonzero in its column."""
    prev = 1
    for k in range(r):
        p = next((i for i in range(k, r) if a[i][k] != 0), None)
        if p is None:
            return 0
        a[k], a[p] = a[p], a[k]
        pivot_row, piv = a[k], a[k][k]
        for i in range(len(a)):
            f = a[i][k]
            if i != k:
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = piv
    return prev


def rank(m) -> int:
    return len(hnf(_int_matrix(m)))


def inverse(m):
    """Inverse of a square integer matrix, with Fraction entries."""
    m = _square_int_matrix(m)
    n = len(m)
    a = [list(r + e) for r, e in zip(m, identity_int(n))]
    d = _gauss_jordan(a, n)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in a)


# ---------------------------------------------------------------------------
# Integer lattice machinery


def clear_rows(rows):
    """(int rows, d): rows of (p, q) pairs in lowest terms, q > 0, times their least common denominator d."""
    d = lcm(*{q for row in rows for _, q in row})
    return tuple([tuple([p * (d // q) for p, q in row]) for row in rows]), d


def clear_gauss_rows(rows):
    """(re, im, d): rows of ((p, q), (p', q')) Gauss-rational entries, each pair as in
    `clear_rows`, as integer re and im rows over their least common denominator d."""
    parts, d = clear_rows([[z[t] for z in row] for t in (0, 1) for row in rows])
    return parts[: len(rows)], parts[len(rows):], d


def _euclid_column(a, r, c):
    """Euclid on column c of the integer rows a[r:], by unimodular row operations.

    Afterwards a[i][c] == 0 for i > r and a[r][c] >= 0; returns whether
    a[r][c] is a pivot (nonzero).
    """
    while True:
        live = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not live:
            return False
        i0 = min(live, key=lambda i: abs(a[i][c]))
        a[r], a[i0] = a[i0], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        done = True
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                done = done and a[i][c] == 0
        if done:
            return True


def _is_unimodular(m):
    """Whether the square integer matrix m has determinant +-1: Euclid on each column by
    unimodular row steps keeps |det m|, so every pivot must be 1."""
    a = [list(row) for row in m]
    return all(_euclid_column(a, c, c) and a[c][c] == 1 for c in range(len(a)))


def hnf(rows):
    """Canonical row Hermite normal form (nonzero rows only).

    Pivots positive, entries above a pivot reduced into [0, pivot).
    """
    a = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(a[0]) if a else 0):
        if _euclid_column(a, r, c):
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q != 0:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return tuple(tuple(row) for row in a if any(row))


def _kernel_rows(m):
    """A basis of the saturated {x in Z^n : m @ x = 0} for a nonempty integer m (p x n):
    Euclid on the rows [column j of m | e_j] is unimodular, so the e parts of the
    rows left below the pivots, whose m part is zero, span the whole kernel."""
    p, n = len(m), len(m[0])
    a = [[m[i][j] for i in range(p)] + [1 if k == j else 0 for k in range(n)] for j in range(n)]
    r = 0
    for c in range(p):
        r += _euclid_column(a, r, c)
    return tuple(tuple(row[p:]) for row in a[r:])


def int_kernel(m):
    """HNF basis of {x in Z^n : m @ x = 0} for an integer matrix m: `hnf` of `_kernel_rows`."""
    return hnf(_kernel_rows(m)) if m else ()
