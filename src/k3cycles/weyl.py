"""Picard-Lefschetz reflections, orientation, bounded root sets at a period
point, and chamber partitions with the positivity property check."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import mul

from .errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    FrameError,
    InputError,
    NonPositiveKappaError,
    NotARootError,
    WallError,
)
from .gaussrat import GaussRational, as_fraction
from .linalg import clear_denominators, det, hnf, is_zero_vec
from .quadspace import (
    K3_GRAM,
    IntegralLattice,
    Isometry,
    QuadraticSpace,
    _space_of,
    bilinear,
    gram_apply,
    hermitian_pair,
    pair_rows,
)
from .rootenum import RootList, _ambient_gram, _positive_definite, bounded_root_search


@dataclass(frozen=True)
class PeriodPoint:
    """Projective representative x with <x,x> = 0 and <x, conj x> > 0."""

    space: QuadraticSpace
    x: tuple

    def __post_init__(self):
        rows = tuple(GaussRational.of(v) for v in self.x)
        if len(rows) != self.space.n:
            raise DimensionMismatchError("period point length does not match space")
        if all(v == 0 for v in rows):
            raise InputError("period point must be nonzero")
        if bilinear(self.space, rows, rows) != 0:
            raise InputError("period point must be isotropic: <x,x> = 0")
        h = hermitian_pair(self.space, rows, rows)
        h = GaussRational.of(h)
        if not (h.is_real and h.re > 0):
            raise InputError("period point must satisfy <x, conj x> > 0")
        object.__setattr__(self, "x", rows)

    def real_part(self):
        return tuple(v.re for v in self.x)

    def imag_part(self):
        return tuple(v.im for v in self.x)


@dataclass(frozen=True)
class ChamberPartition:
    """Chamber representative kappa with the induced sign partition of a root set."""

    kappa: tuple
    roots: RootList
    plus: tuple
    minus: tuple


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    violation: tuple | None = None  # (coefficients over plus, offending root)


def _require_root(ambient, delta):
    delta = tuple(delta)
    if any(not isinstance(x, int) for x in delta):
        raise NotARootError("roots must be integer vectors")
    space = _space_of(ambient)
    if len(delta) != space.n:
        raise DimensionMismatchError("vector length does not match space rank")
    if pair_rows(space.sparse_rows, delta, delta) != -2 * space.den:
        raise NotARootError("vector has norm != -2")
    return delta


def reflect(ambient, delta, x):
    """Picard-Lefschetz reflection x + <x, delta> delta; an involution fixing
    delta-perp pointwise and sending delta to -delta."""
    delta = _require_root(ambient, delta)
    pairing = bilinear(ambient, x, delta)
    return tuple(xi + pairing * d for xi, d in zip(x, delta))


def reflection_matrix(ambient, delta) -> Isometry:
    """Matrix of the reflection in delta, as a validated lattice isometry."""
    delta = _require_root(ambient, delta)
    space = _space_of(ambient)
    n = space.n
    gd, rem = zip(*(divmod(x, space.den) for x in gram_apply(space.sparse_rows, delta)))  # G delta = gd + rem / den
    if any(rem):
        raise NotARootError("reflection is not integral over this ambient form")
    m = tuple(tuple((1 if i == j else 0) + delta[i] * gd[j] for j in range(n)) for i in range(n))
    return Isometry(space=space, matrix=m)


def _k3_frame(space: QuadraticSpace):
    """Supports of the positive reference frame: (e_b, f_b) for the K3 Gram,
    the first three basis vectors for a diagonal one; None otherwise."""
    if space.den == 1 and space.gram_int == K3_GRAM:
        return ((0, 1), (2, 3), (4, 5))
    # The diagonal of a diagonal Gram, with 0 standing in for an off-diagonal row.
    d = [row[0][1] if len(row) == 1 and row[0][0] == i else 0 for i, row in enumerate(space.sparse_rows)]
    return ((0,), (1,), (2,)) if len(d) >= 3 and min(d[:3]) > 0 and all(x < 0 for x in d[3:]) else None


def is_in_O_plus(ambient, g) -> bool:
    """Orientation test on the three positive directions.

    The reference frame is (e1+f1, e2+f2, e3+f3) for the K3 Gram and the
    first three basis vectors for diagonal ambients.  Projected back onto the
    reference span with respect to the form, the image frame has coordinates
    F^-1 R, with R the pairings of image and reference frame vectors and F
    the frame's Gram, which is positive definite.  So the sign of det R
    decides membership; R is taken over the integer Gram, a positive
    multiple of the form, which keeps that sign.
    """
    space = _space_of(ambient)
    iso = g if isinstance(g, Isometry) else Isometry(space=space, matrix=tuple(tuple(row) for row in g))
    supports = _k3_frame(space)
    if supports is None:
        raise FrameError("ambient space has no designated positive frame")
    frame = [tuple(int(c in s) for c in range(space.n)) for s in supports]
    # g p is the sum of the columns of g over the support of p.
    images = [[sum(row[j] for j in s) for row in iso.matrix] for s in supports]
    return det([[pair_rows(space.sparse_rows, f, q) for q in images] for f in frame]) > 0


def delta_p_bounded(lattice: IntegralLattice, p: PeriodPoint, coord_bound: int) -> RootList:
    """Bounded part of Delta_p = {roots orthogonal to the period point}."""
    if p.space != lattice.space:
        raise AmbientMismatchError("period point does not live in the lattice")
    constraints = [c for c in (p.real_part(), p.imag_part()) if not is_zero_vec(c)]
    return bounded_root_search(lattice, constraints, coord_bound)


def partition_by_chamber(lattice: IntegralLattice, roots, kappa) -> ChamberPartition:
    """Split a root list by the sign of the pairing with kappa.

    kappa must be a positive-norm vector off every wall: a zero pairing is a
    WallError, never a tie-break.  The pairings are taken in ints with kappa
    scaled to a primitive integer vector, a positive multiple, which keeps
    every sign.
    """
    kappa = tuple(as_fraction(x) for x in kappa)
    rows = _space_of(lattice).sparse_rows
    if len(kappa) != len(rows):
        raise DimensionMismatchError("vector length does not match space rank")
    scaled = clear_denominators(kappa)
    if pair_rows(rows, scaled, scaled) <= 0:
        raise NonPositiveKappaError("chamber representative must have positive norm")
    image = gram_apply(rows, scaled)
    rootlist = roots if isinstance(roots, RootList) else RootList(roots=tuple(sorted(tuple(r) for r in roots)), complete=False)
    plus = []
    minus = []
    for delta in rootlist.roots:
        _require_root(lattice, delta)
        s = sum(map(mul, image, delta))
        if s == 0:
            raise WallError(f"kappa lies on the wall of root {list(delta)}")
        (plus if s > 0 else minus).append(tuple(delta))
    return ChamberPartition(kappa=kappa, roots=rootlist, plus=tuple(plus), minus=tuple(minus))


def check_partition_property(lattice: IntegralLattice, plus, depth: int = 4) -> PartitionCheck:
    """Finite check of the chamber property: every N-combination of plus-roots
    that is again a root must itself lie in plus.

    Combinations are scanned with total coefficient sum up to `depth`; the
    first violation (coefficient vector over plus, offending root) is
    reported.

    Total 2 is a scan of the pairs a < b.  If it finds nothing and the form
    is negative definite on span(plus), no total finds anything (Humphreys,
    Lie Algebras, 10.2; Bourbaki, Lie VI 1.6, Prop. 19): if a root
    alpha = alpha_1 + ... + alpha_t, t >= 2, is not some alpha_i, then
    (alpha, alpha_i) = -1 for some i, so alpha - alpha_i is a root of total
    t - 1, in plus by induction, and alpha is a pair sum.  Other spans get
    the scan of totals 3..depth.
    """
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise InputError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    plus = [tuple(r) for r in plus]
    plus_set = set(plus)
    for r in plus:
        _require_root(lattice, r)
        if tuple(-x for x in r) in plus_set:
            raise InputError("plus must contain at most one of each +-pair")
    if depth == 1:
        return PartitionCheck(ok=True)

    def violation(combo):
        vec = tuple(map(sum, zip(*(plus[idx] for idx in combo))))
        if vec in plus_set:
            return None
        coeffs = [0] * len(plus)
        for idx in combo:
            coeffs[idx] += 1
        return PartitionCheck(ok=False, violation=(tuple(coeffs), vec))

    # With P the integer Gram of plus (diagonal -2), a pair sum is a root iff
    # P[a][b] = 1.  upper[a][b - a] = P[a][b] for b >= a; row a is built when
    # the pair scan reaches it, from one image G plus[a].
    sparse = lattice.space.sparse_rows
    support = [[(j, x) for j, x in enumerate(r) if x] for r in plus]
    upper = []
    for a, r in enumerate(plus):
        image = gram_apply(sparse, r)
        upper.append([sum(image[j] * x for j, x in s) for s in support[a:]])
        for b, p in enumerate(upper[a][1:], a + 1):
            if p == 1 and (found := violation((a, b))):
                return found
    if depth == 2:
        return PartitionCheck(ok=True)
    if _positive_definite([[-x for x in row] for row in _ambient_gram(lattice, hnf(plus))]):
        return PartitionCheck(ok=True)
    # Otherwise scan: the sum over a_1 <= ... <= a_t has norm
    # -2t + 2 sum_{i<j} P[a_i][a_j], a root iff that sum is t - 1.
    for total in range(3, depth + 1):
        for combo in combinations_with_replacement(range(len(plus)), total):
            pairs = sum(upper[a][b - a] for i, a in enumerate(combo) for b in combo[i + 1:])
            if pairs == total - 1 and (found := violation(combo)):
                return found
    return PartitionCheck(ok=True)
