"""The benchmark's own lattice arithmetic, written apart from k3cycles.

Nothing here imports the library under test.  The E8 Gram matrix is derived
from the explicit R^8 basis documented in the repository README, the K3 Gram
is assembled from it, and every check value (root sets, reflections, chamber
signs, first violations) is computed with plain Python integers or
`fractions.Fraction` by the short routines below.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Chain basis of E8 in R^8 (README, "E8 Gram matrix"):
#   b1 = (1/2,...,1/2), b2 = e1+e2, b3 = e2-e1, ..., b8 = e7-e6.
_HALF = Fraction(1, 2)
E8_BASIS_R8 = (
    (_HALF,) * 8,
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
)


def _euclid(u, v):
    return sum(Fraction(a) * b for a, b in zip(u, v))


E8 = tuple(tuple(int(_euclid(a, b)) for b in E8_BASIS_R8) for a in E8_BASIS_R8)
N = 22  # rank of the K3 lattice U^3 + E8(-1)^2
E8_OFFSETS = (6, 14)  # first ambient coordinate of each E8(-1) block


def _k3_gram():
    g = [[0] * N for _ in range(N)]
    for b in range(3):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = 1
    for off in E8_OFFSETS:
        for i in range(8):
            for j in range(8):
                g[off + i][off + j] = -E8[i][j]
    return tuple(tuple(r) for r in g)


K3 = _k3_gram()
# Sparse rows of the K3 Gram: pairing costs O(nonzeros) instead of O(n^2).
_K3_ROWS = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in K3)


def pair(x, y):
    """<x, y> in the K3 form; entries may be int or Fraction."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            total += xi * sum(c * y[j] for j, c in _K3_ROWS[i])
    return total


def norm(x):
    return pair(x, x)


def e8_norm(x):
    return sum(x[i] * E8[i][j] * x[j] for i in range(8) for j in range(8) if E8[i][j])


def reflect(d, x):
    """Picard-Lefschetz reflection s_d(x) = x + <x, d> d for a root d."""
    p = pair(x, d)
    return tuple(a + p * b for a, b in zip(x, d))


def reflection_matrix(d):
    """R = I + d (G d)^T, so that R x = s_d(x) for column vectors x."""
    gd = [sum(K3[i][j] * d[j] for j in range(N)) for i in range(N)]
    return tuple(tuple((1 if i == j else 0) + d[i] * gd[j] for j in range(N)) for i in range(N))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


IDENTITY = tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))


def apply(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _left_inverse(rows):
    """B^{-1} for a square rational matrix B, by Gauss-Jordan over Q."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def e8_roots():
    """The 240 roots of E8 in chain-basis coordinates.

    Closed form in R^8: +-e_i +- e_j (112) and (+-1/2)^8 with an even number
    of minus signs (128), each solved for its coordinates in the chain basis.
    """
    vectors = []
    for i, j in itertools.combinations(range(8), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0] * 8
                v[i], v[j] = si, sj
                vectors.append(v)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            vectors.append([s * _HALF for s in signs])
    binv = _left_inverse(E8_BASIS_R8)  # coordinates c of v satisfy c B = v
    out = []
    for v in vectors:
        coords = [sum(v[k] * binv[k][j] for k in range(8)) for j in range(8)]
        if any(c.denominator != 1 for c in coords):
            raise AssertionError("E8 root with non-integral chain coordinates")
        coords = tuple(int(c) for c in coords)
        if e8_norm(coords) != 2:
            raise AssertionError("E8 closed form produced a vector of norm != 2")
        out.append(coords)
    if len(set(out)) != 240:
        raise AssertionError("E8 closed form did not give 240 distinct roots")
    return sorted(out)


def embed(block_vector, offset):
    v = [0] * N
    for k, x in enumerate(block_vector):
        v[offset + k] = x
    return tuple(v)


def u3_diagonal_roots(e8=None):
    """Roots orthogonal to span(e1+f1, e2+f2, e3+f3): +-(e_i - f_i) and the
    roots of both E8(-1) blocks, 3*2 + 2*240 = 486, sorted."""
    e8 = e8_roots() if e8 is None else e8
    out = []
    for b in range(3):
        for s in (1, -1):
            v = [0] * N
            v[2 * b], v[2 * b + 1] = s, -s
            out.append(tuple(v))
    for off in E8_OFFSETS:
        out.extend(embed(r, off) for r in e8)
    out.sort()
    return out


def box_norm_table(bound=1):
    """E8 norm -> all x in [-bound, bound]^8 of that (positive) E8 norm."""
    table = {}
    for x in itertools.product(range(-bound, bound + 1), repeat=8):
        table.setdefault(e8_norm(x), []).append(x)
    return table


def delta_p_closed_form(re, im, table):
    """Roots r of K3 with all coordinates in [-1, 1] and <r, re> = <r, im> = 0,
    for re, im supported on the U^3 coordinates.

    r = u + x + y with u in {-1,0,1}^6 and x, y in the two E8(-1) blocks;
    the constraints only see u, and norm(r) = norm(u) - E8(x) - E8(y) = -2,
    so the E8 parts come from the box-norm table by norm.
    """
    if any(re[6:]) or any(im[6:]):
        raise ValueError("closed form needs a period point supported on U^3")
    out = []
    for u in itertools.product((-1, 0, 1), repeat=6):
        uf = u + (0,) * 16
        if pair(uf, re) or pair(uf, im):
            continue
        need = norm(uf) + 2  # E8(x) + E8(y)
        for a, xs in table.items():
            ys = table.get(need - a)
            if not ys:
                continue
            for x in xs:
                for y in ys:
                    out.append(u + x + y)
    out.sort()
    return out


def first_violation(plus, depth):
    """First N-combination of plus-roots (total 2..depth, combinations with
    replacement in list order) that is a root outside plus, as
    (coefficients, root); None if there is none."""
    plus = [tuple(r) for r in plus]
    members = set(plus)
    for total in range(2, depth + 1):
        for combo in itertools.combinations_with_replacement(range(len(plus)), total):
            v = tuple(sum(col) for col in zip(*(plus[i] for i in combo)))
            if norm(v) == -2 and v not in members:
                coeffs = [0] * len(plus)
                for i in combo:
                    coeffs[i] += 1
                return tuple(coeffs), v
    return None


# Gaussian integers as (re, im) pairs, for GL3(Z[i]) basis changes.


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gdet3(m):
    total = (0, 0)
    for p, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        t = gmul(gmul(m[0][p[0]], m[1][p[1]]), m[2][p[2]])
        total = gadd(total, (sign * t[0], sign * t[1]))
    return total


GAUSS_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
