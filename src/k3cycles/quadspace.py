"""Quadratic spaces over Q, integral lattices, pairings and exact signatures.

The standard lattices are fixed once and for all so that every downstream
enumeration is reproducible bit for bit:

* U is the hyperbolic plane [[0,1],[1,0]].
* E8 is the even positive-definite rank-8 Gram below (the chain basis of the
  D8-plus-glue presentation; see README for the explicit basis vectors).
* K3 is the orthogonal direct sum U + U + U + E8(-1) + E8(-1), in that block
  order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .errors import (
    DegenerateGramError,
    DimensionMismatchError,
    InputError,
    NotHermitianError,
    NotIntegralError,
    NotIsometryError,
    NotSymmetricError,
)
from .gaussrat import GaussRational
from .linalg import _symmetric_bareiss, clear_gauss_rows, clear_rows, conj_vec, det, mat

# Chain basis of E8 in the D8+glue model: rows are
#   (1/2,...,1/2), e1+e2, e2-e1, e3-e2, e4-e3, e5-e4, e6-e5, e7-e6
# pairwise dotted in Euclidean R^8.  Even, unimodular, diagonal 2.
E8_GRAM = (
    (2, 1, 0, 0, 0, 0, 0, 0),
    (1, 2, 0, -1, 0, 0, 0, 0),
    (0, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

U_GRAM = ((0, 1), (1, 0))


def sparse_rows(gram):
    """Per row, the (j, gram[i][j]) pairs with a nonzero entry."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in gram)


def gram_apply(rows, x, n=None):
    """sum_j x_j rows[j] as a list of length n (default len(rows)), for sparse rows of
    (i, entry) pairs, visiting the nonzero x_j only.

    For the sparse rows of a symmetric G this is G x: row j of G is its column j.
    """
    out = [0] * (len(rows) if n is None else n)
    for xj, row in zip(x, rows):
        if xj:
            for i, g in row:
                out[i] += g * xj
    return out


def row_gram(rows, vectors):
    """The Gram of the vectors under the symmetric G of the sparse rows: one
    image G v_i per vector, paired with v_j for j >= i and mirrored."""
    r = len(vectors)
    out = [[0] * r for _ in range(r)]
    for i, vi in enumerate(vectors):
        image = gram_apply(rows, vi)
        for j in range(i, r):
            out[i][j] = out[j][i] = sum(map(mul, image, vectors[j]))
    return tuple(map(tuple, out))


def gauss_grams(rows, re, im):
    """(A, H): A[i][j] = x_i^T G x_j and H[i][j] = x_i^T G conj(x_j) as Gaussian-integer
    (re, im) pairs, for x = re + i im over the symmetric G of the sparse rows.

    Both come from one `row_gram` of the re rows then the im rows: with a, b the
    re and im parts, A = (a G a - b G b, a_i G b_j + b_i G a_j) and
    H = (a G a + b G b, b_i G a_j - a_i G b_j).
    """
    r = len(re)
    g = row_gram(rows, (*re, *im))
    A = tuple(tuple((g[i][j] - g[r + i][r + j], g[i][r + j] + g[r + i][j]) for j in range(r)) for i in range(r))
    H = tuple(tuple((g[i][j] + g[r + i][r + j], g[r + i][j] - g[i][r + j]) for j in range(r)) for i in range(r))
    return A, H


def pair_rows(rows, x, y):
    """x^T G y over the sparse rows of G, visiting the nonzero x_i only."""
    total = 0
    for xi, row in zip(x, rows):
        if xi:
            s = 0
            for j, g in row:
                s += g * y[j]
            total += xi * s
    return total


@dataclass(frozen=True, init=False)
class QuadraticSpace:
    """Nondegenerate symmetric bilinear form over Q, given by int or Fraction
    Gram entries over an optional positive integer `den` (the form is gram / den)
    and kept as the integer Gram `gram_int` over the least positive denominator
    `den`; the rational `gram` is built when read.

    `inertia`, the Sylvester inertia (pos, neg, 0), is computed once per
    distinct `gram_int` (`_gram_inertia`); equal spaces share one `gram_int`.
    """

    gram_int: tuple
    den: int

    def __init__(self, gram, den=1):
        rows = mat(gram)
        if not rows:
            raise DimensionMismatchError("gram matrix must be square and nonempty")
        if type(den) is not int or den < 1:
            raise InputError(f"gram denominator must be a positive integer, got {den!r}")
        g, den = _cleared(rows, den)
        g, inertia = _gram_inertia(g)
        if inertia[2]:
            raise DegenerateGramError("gram matrix is degenerate")
        object.__setattr__(self, "gram_int", g)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "inertia", inertia)

    @property
    def n(self) -> int:
        return len(self.gram_int)

    @cached_property
    def gram(self):
        """The rational Gram gram_int / den."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.gram_int)

    @cached_property
    def sparse_rows(self):
        """Sparse rows of gram_int: pairings through them are den times the form's."""
        return sparse_rows(self.gram_int)


@dataclass(frozen=True)
class IntegralLattice:
    """Quadratic space whose Gram matrix has integer entries."""

    space: QuadraticSpace

    def __post_init__(self):
        if self.space.den != 1:
            raise NotIntegralError("lattice gram entries must be integers")

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def gram_int(self):
        return self.space.gram_int


@dataclass(frozen=True)
class Isometry:
    """Integer matrix g with g^T * gram * g = gram."""

    space: QuadraticSpace
    matrix: tuple

    def __post_init__(self):
        m = mat(self.matrix)
        if any(type(x) is not int for row in m for x in row):
            raise NotIntegralError("isometry matrix must have integer entries")
        if not is_isometry(self.space, m):
            raise NotIsometryError("matrix does not preserve the gram matrix")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def determinant(self) -> int:
        """det g, which is +-1: g^T G g = G with det G != 0 forces (det g)^2 = 1."""
        return det(self.matrix)


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    ofs = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[ofs + i][ofs + j] = x
        ofs += len(b)
    return tuple(tuple(r) for r in out)


def _negate(g):
    return tuple(tuple(-x for x in row) for row in g)


K3_GRAM = _block_diag(U_GRAM, U_GRAM, U_GRAM, _negate(E8_GRAM), _negate(E8_GRAM))


def make_standard_lattice(kind: str, signs=None):
    """Build one of the documented standard forms.

    kind in {"U", "E8", "E8_neg", "K3"} returns an IntegralLattice; "diag"
    (with a nonempty list of +-1 signs) returns a QuadraticSpace.
    """
    if kind == "U":
        return IntegralLattice(QuadraticSpace(U_GRAM))
    if kind == "E8":
        return IntegralLattice(QuadraticSpace(E8_GRAM))
    if kind == "E8_neg":
        return IntegralLattice(QuadraticSpace(_negate(E8_GRAM)))
    if kind == "K3":
        return IntegralLattice(QuadraticSpace(K3_GRAM))
    if kind == "diag":
        if not signs:
            raise InputError("diag lattice requires a nonempty list of signs")
        if any(s not in (1, -1) for s in signs):
            raise InputError("diag signs must be +1 or -1")
        return QuadraticSpace(tuple(tuple(s if i == j else 0 for j in range(len(signs))) for i, s in enumerate(signs)))
    raise InputError(f"unknown lattice kind {kind!r}")


def _space_of(ambient) -> QuadraticSpace:
    return ambient.space if isinstance(ambient, IntegralLattice) else ambient


def bilinear(ambient, x, y):
    """C-bilinear extension <x,y> = x^T * gram * y, no conjugation.

    Pairs through the sparse rows of the integer Gram, in ints when both
    vectors are int, and divides by the denominator once.
    """
    space = _space_of(ambient)
    if len(x) != space.n or len(y) != space.n:
        raise DimensionMismatchError("vector length does not match space rank")
    if all(type(v) is int for v in x) and all(type(v) is int for v in y):
        return Fraction(pair_rows(space.sparse_rows, x, y), space.den)
    if any(type(v) is bool for v in (*x, *y)):
        raise TypeError("expected an exact rational, got bool")
    total = GaussRational.of(pair_rows(space.sparse_rows, x, y))
    re = Fraction(total.re, space.den)
    # Gaussian as soon as a nonzero Gaussian entry meets a nonzero x, as with dense pairing.
    if any(x) and any(isinstance(v, GaussRational) and v for v in (*x, *y)):
        return GaussRational(re, Fraction(total.im, space.den))
    return re


def hermitian_pair(ambient, x, y):
    """Sesquilinear pairing <x, conj(y)>; real on the diagonal."""
    return bilinear(ambient, x, conj_vec(y))


def _cleared(m, den=1):
    """(g, q) with g / q = m / den, g an integer matrix and q > 0 the least such denominator,
    for a square symmetric m of int or Fraction entries and an int den > 0."""
    n = len(m)
    if all(type(x) is int for row in m for x in row):
        g = tuple(map(tuple, m))
    elif not all(type(x) is int or isinstance(x, Fraction) for row in m for x in row):
        raise TypeError("entries must be exact rationals (int or Fraction)")
    else:
        g, q = clear_rows([[x.as_integer_ratio() for x in row] for row in m])
        den *= q
    if any(len(r) != n for r in g):
        raise DimensionMismatchError("matrix is not square")
    if g != tuple(zip(*g)):
        raise NotSymmetricError("matrix is not symmetric")
    c = gcd(den, *(x for row in g for x in row))
    if c > 1:
        g, den = tuple(tuple(x // c for x in row) for row in g), den // c
    return g, den


def _int_inertia(g):
    """Sylvester inertia (pos, neg, null) of a symmetric integer matrix; pivot k has the sign of lead[k] lead[k-1]."""
    lead = _symmetric_bareiss(g)[1]
    pos = sum(1 for p, q in zip(lead, [1] + lead) if (p > 0) == (q > 0))
    return (pos, len(lead) - pos, len(g) - len(lead))


def signature(m):
    """Exact Sylvester inertia (pos, neg, null) of a symmetric rational matrix."""
    return _int_inertia(_cleared(m)[0])


@lru_cache(maxsize=8)
def _gram_inertia(gram):
    """(gram, inertia) of a symmetric integer Gram tuple, once per distinct Gram: equal Grams get the first tuple."""
    return gram, _int_inertia(gram)


def _realify(pairs):
    """[[X, -Y], [Y, X]] for the Gaussian-integer matrix X + iY of (re, im) pairs."""
    return [[x for x, _ in r] + [-y for _, y in r] for r in pairs] + [[y for _, y in r] + [x for x, _ in r] for r in pairs]


def _hermitian_inertia(pairs):
    """Inertia of a Hermitian Gaussian-integer matrix of (re, im) pairs, half that
    of its real form, which is symmetric and carries every eigenvalue twice."""
    return tuple(x // 2 for x in _int_inertia(_realify(pairs)))


def hermitian_signature(h):
    """Exact inertia (pos, neg, null) of a Hermitian Gauss-rational matrix, cleared to Gaussian integers."""
    n = len(h)
    z = [[GaussRational.of(x) for x in row] for row in h]
    if any(len(r) != n for r in z):
        raise DimensionMismatchError("matrix is not square")
    if any(z[i][j] != z[j][i].conjugate() for i in range(n) for j in range(i, n)):
        raise NotHermitianError("matrix is not Hermitian")
    re, im, _ = clear_gauss_rows([[x.ratios() for x in row] for row in z])
    return _hermitian_inertia([tuple(zip(r, i)) for r, i in zip(re, im)])


@dataclass(frozen=True)
class LatticeInvariants:
    even: bool
    determinant: int
    unimodular: bool


def lattice_invariants(lattice: IntegralLattice) -> LatticeInvariants:
    g = lattice.gram_int
    even = all(g[i][i] % 2 == 0 for i in range(len(g)))
    d = det(g)
    return LatticeInvariants(even=even, determinant=d, unimodular=abs(d) == 1)


def is_isometry(ambient, g) -> bool:
    """True iff g^T * gram * g == gram, for int or Fraction g over any rational gram.

    Tested as g^T qG g == qG for the integer Gram qG = den * gram: the left
    side is the `row_gram` of the columns of g, in ints when g is integral.
    """
    space = _space_of(ambient)
    m = mat(g)
    n = space.n
    if len(m) != n or any(len(r) != n for r in m):
        raise DimensionMismatchError("matrix size does not match space rank")
    return row_gram(space.sparse_rows, tuple(zip(*m))) == space.gram_int
