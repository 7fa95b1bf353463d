"""Classification of complex three-spaces as cycles in the period domain.

A three-space V (rank-3 subspace of the complexified ambient, given by a
3 x n Gauss-rational basis matrix) spans a projective plane whose
intersection with the quadric {<x,x> = 0} is a conic.  This module decides
smoothness, the Hermitian signature trichotomy, reality, positivity and the
twistor predicate exactly, and checks domain membership of the conic by
high-precision sampling where no exact criterion exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

import mpmath

from .errors import AmbientMismatchError, DimensionMismatchError, InputError
from .gaussrat import GaussRational, as_fraction
from .linalg import apply_matrix, conj_vec, det, is_zero_vec, mat, rank
from .quadspace import (
    IntegralLattice,
    Isometry,
    QuadraticSpace,
    bilinear,
    gram_of,
    hermitian_gram_of,
    hermitian_signature,
    make_standard_lattice,
)
from .rootenum import roots_orthogonal_to_threespace

DEFAULT_PRECISION_BITS = 128
DOMAIN_TOLERANCE = 1e-9
PRECISION_ENV_VAR = "K3CYCLES_PRECISION"


def resolve_precision(bits=None) -> int:
    if bits is not None:
        return int(bits)
    env = os.environ.get(PRECISION_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad {PRECISION_ENV_VAR} value {env!r}") from exc
    return DEFAULT_PRECISION_BITS


@dataclass(frozen=True)
class ThreeSpace:
    """Rank-3 subspace of the complexified ambient space."""

    ambient: QuadraticSpace
    basis: tuple  # 3 x n GaussRational rows

    def __post_init__(self):
        rows = mat(tuple(tuple(GaussRational.of(x) for x in row) for row in self.basis))
        if len(rows) != 3:
            raise DimensionMismatchError("a three-space needs exactly 3 basis rows")
        if any(len(r) != self.ambient.n for r in rows):
            raise DimensionMismatchError("basis row length does not match ambient rank")
        if rank(rows) != 3:
            raise InputError("basis rows are linearly dependent over Q(i)")
        p, n, z = self.ambient.inertia
        if p != 3 or z != 0:
            raise InputError(f"ambient signature must be (3, n-, 0), got ({p}, {n}, {z})")
        object.__setattr__(self, "basis", rows)

    @property
    def n(self) -> int:
        return self.ambient.n

    def symmetric_gram(self):
        return gram_of(self.ambient, self.basis)

    def hermitian_gram(self):
        return self._hermitian_gram

    @cached_property
    def _hermitian_gram(self):
        return hermitian_gram_of(self.ambient, self.basis)

    def is_real(self) -> bool:
        stacked = self.basis + tuple(conj_vec(r) for r in self.basis)
        return rank(stacked) == 3

    def real_basis(self):
        """A rational basis of V's real points (only valid when real)."""
        candidates = []
        for row in self.basis:
            candidates.append(tuple(GaussRational.of(x).re for x in row))
            candidates.append(tuple(GaussRational.of(x).im for x in row))
        picked = []
        for c in candidates:
            if is_zero_vec(c):
                continue
            if rank(picked + [c]) > len(picked):
                picked.append(c)
        assert len(picked) == 3
        return tuple(picked)


@dataclass(frozen=True)
class TwistorStatus:
    status: str  # "true" | "false" | "not_applicable"
    certificate: tuple | None = None  # lexicographically smallest orthogonal root
    reason: str | None = None

    def __bool__(self):
        return self.status == "true"


@dataclass(frozen=True)
class DomainStatus:
    kind: str  # "verified_positive" | "sampled_ok" | "counterexample"
    samples: int | None = None
    point: tuple | None = None  # numeric conic point (tuple of mpc), ambient coords
    exact_point: tuple | None = None  # rational witness when one exists
    certified_exact: bool = False  # nonpositivity verified exactly
    precision_bits: int | None = None


@dataclass(frozen=True)
class CycleClassification:
    smooth: bool
    hermitian_signature: tuple
    real: bool
    positive: bool
    twistor: TwistorStatus
    domain_status: DomainStatus


@dataclass(frozen=True)
class HyperplaneIntersection:
    kind: str  # "containment" | "two_points"
    line_basis: tuple | None = None  # 2 x n GaussRational rows spanning V in delta-perp
    quad_coeffs: tuple | None = None  # (a, b, c) with q(s,t) = a s^2 + 2b st + c t^2
    discriminant: GaussRational | None = None  # b^2 - a c
    numeric_points: tuple | None = None  # two numeric ambient vectors
    precision_bits: int | None = None


def moduli_dimension(n: int, d: int) -> int:
    """Dimension (n-2)(d+1)-3 of the space of degree-d rational curves."""
    if n < 3 or d < 1:
        raise InputError("moduli_dimension requires n >= 3 and d >= 1")
    return (n - 2) * (d + 1) - 3


def example_family(t, n: int = 22) -> ThreeSpace:
    """The deformation V_t = C(e1 + i*t*e4) + C e2 + C e3 in diag(1,1,1,-1,...)."""
    if n <= 3:
        raise InputError("the deformation family needs ambient rank > 3")
    t = as_fraction(t)
    space = make_standard_lattice("diag", signs=[1, 1, 1] + [-1] * (n - 3))
    zero = GaussRational(Fraction(0), Fraction(0))
    row1 = [zero] * n
    row1[0] = GaussRational(Fraction(1), Fraction(0))
    row1[3] = GaussRational(Fraction(0), t)
    row2 = [zero] * n
    row2[1] = GaussRational(Fraction(1), Fraction(0))
    row3 = [zero] * n
    row3[2] = GaussRational(Fraction(1), Fraction(0))
    return ThreeSpace(ambient=space, basis=(tuple(row1), tuple(row2), tuple(row3)))


def apply_isometry(g: Isometry, threespace: ThreeSpace) -> ThreeSpace:
    """Map the basis rows by the isometry (column convention)."""
    if g.space.gram != threespace.ambient.gram:
        raise AmbientMismatchError("isometry and three-space live in different spaces")
    rows = tuple(tuple(apply_matrix(g.matrix, row)) for row in threespace.basis)
    rows = tuple(tuple(GaussRational.of(x) for x in row) for row in rows)
    return ThreeSpace(ambient=threespace.ambient, basis=rows)


def is_twistor(lattice: IntegralLattice, threespace: ThreeSpace) -> TwistorStatus:
    """Twistor predicate: real, positive and orthogonal to no root of the lattice."""
    if lattice.space.gram != threespace.ambient.gram:
        raise AmbientMismatchError("three-space ambient does not match lattice")
    if hermitian_signature(threespace.hermitian_gram()) != (3, 0, 0):
        return TwistorStatus(status="not_applicable", reason="three-space is not positive")
    if not threespace.is_real():
        return TwistorStatus(status="not_applicable", reason="three-space is not real")
    orthogonal = roots_orthogonal_to_threespace(lattice, threespace)
    assert orthogonal.complete
    if not orthogonal.roots:
        return TwistorStatus(status="true")
    return TwistorStatus(status="false", certificate=orthogonal.roots[0])


def classify_cycle(
    threespace: ThreeSpace,
    samples: int = 256,
    lattice: IntegralLattice | None = None,
    precision: int | None = None,
) -> CycleClassification:
    """Full classification of a three-space.

    Smoothness, signature, reality and positivity are exact.  Containment of
    the conic in the period domain is exact for positive V (automatic) and a
    sampled semi-decision otherwise.  The twistor predicate needs an integral
    lattice context; without one it reports not applicable.
    """
    bits = resolve_precision(precision)
    hsig = hermitian_signature(threespace.hermitian_gram())
    smooth = det(threespace.symmetric_gram()) != 0
    real = threespace.is_real()
    positive = hsig == (3, 0, 0)
    if lattice is None:
        twistor = TwistorStatus(status="not_applicable", reason="no integral lattice context")
    else:
        twistor = is_twistor(lattice, threespace)
    if positive:
        domain = DomainStatus(kind="verified_positive")
    else:
        domain = _sample_domain(threespace, real, samples, bits)
    return CycleClassification(
        smooth=smooth,
        hermitian_signature=hsig,
        real=real,
        positive=positive,
        twistor=twistor,
        domain_status=domain,
    )


# ---------------------------------------------------------------------------
# Conic machinery


def _diagonalize_symmetric(a):
    """(diag, rows): rows S with S A S^T diagonal, over Q.

    Zero-diagonal blocks are split by the substitution x_i +- x_j before
    pivoting, so the routine terminates on every symmetric input.
    """
    n = len(a)
    m = [[as_fraction(x) for x in row] for row in a]
    S = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def addrow(dst, src, f):
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        for k in range(n):
            m[k][dst] = m[k][dst] + f * m[k][src]
        S[dst] = [x + f * y for x, y in zip(S[dst], S[src])]

    done = []
    todo = list(range(n))
    while todo:
        piv = next((i for i in todo if m[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for ii, i in enumerate(todo) for j in todo[ii + 1:] if m[i][j] != 0), None)
            if pair is None:
                break  # remaining block is the radical
            i, j = pair
            addrow(i, j, Fraction(1))  # now m[i][i] = 2b != 0
            piv = i
        d = m[piv][piv]
        for r in todo:
            if r != piv and m[r][piv] != 0:
                addrow(r, piv, -m[r][piv] / d)
        todo.remove(piv)
        done.append(piv)
    order = done + todo
    return [m[i][i] for i in order], [tuple(S[i]) for i in order]


def _exact_sqrt(q: Fraction):
    """Rational square root, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _real_isotropic_witness(threespace: ThreeSpace):
    """For real V: an exact-arithmetic conic point with hermitian value 0.

    Returns (rational_point or None, squared_coefficient, index_pair, rows)
    data sufficient to build the point; None when the real form is definite.
    """
    rb = threespace.real_basis()
    a = gram_of(threespace.ambient, rb)
    diag, S = _diagonalize_symmetric(a)
    rows = [tuple(sum((S[i][k] * as_fraction(rb[k][c]) for k in range(3)), start=Fraction(0)) for c in range(threespace.n)) for i in range(3)]
    for i in range(3):
        if diag[i] == 0:
            return rows[i], None, None, rows  # radical vector: exactly isotropic
    pos = [i for i in range(3) if diag[i] > 0]
    neg = [i for i in range(3) if diag[i] < 0]
    if not pos or not neg:
        return None, None, None, rows
    i, j = pos[0], neg[0]
    q = -diag[j] / diag[i]  # the point s*u_i + u_j with s^2 = q is isotropic
    s = _exact_sqrt(q)
    if s is not None:
        point = tuple(s * rows[i][c] + rows[j][c] for c in range(threespace.n))
        return point, None, None, rows
    return None, q, (i, j), rows


def _to_mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _to_mpc(x) -> mpmath.mpc:
    g = GaussRational.of(x)
    return mpmath.mpc(_to_mpf(g.re), _to_mpf(g.im))


def _form3(m, w):
    """w M w^T for a 3x3 numeric matrix and length-3 numeric vector."""
    return sum(w[i] * sum(m[i][j] * w[j] for j in range(3)) for i in range(3))


def _herm3(m, w):
    return sum(w[i] * sum(m[i][j] * mpmath.conj(w[j]) for j in range(3)) for i in range(3))


def _sample_domain(threespace: ThreeSpace, real: bool, samples: int, bits: int) -> DomainStatus:
    """Semi-decision of conic containment in the period domain.

    Real non-positive V always carries an exact isotropic witness on the
    conic (hermitian = bilinear vanishes there), so the deterministic probe
    settles those.  Otherwise the conic is swept through a pencil of lines at
    the working precision; a sample with normalized hermitian value <= 1e-9
    is reported as a counterexample.
    """
    with mpmath.workprec(bits):
        if real:
            point, q, pair, rows = _real_isotropic_witness(threespace)
            if point is not None:
                assert bilinear(threespace.ambient, point, point) == 0
                exact = tuple(GaussRational.of(x) for x in point)
                return DomainStatus(
                    kind="counterexample",
                    samples=0,
                    point=tuple(_to_mpc(x) for x in exact),
                    exact_point=exact,
                    certified_exact=True,
                    precision_bits=bits,
                )
            if q is not None:
                i, j = pair
                s = mpmath.sqrt(_to_mpf(q))
                numeric = tuple(s * _to_mpf(rows[i][c]) + _to_mpf(rows[j][c]) for c in range(threespace.n))
                # hermitian = bilinear on real vectors; s^2 d_i + d_j = 0 exactly.
                return DomainStatus(
                    kind="counterexample",
                    samples=0,
                    point=tuple(mpmath.mpc(x) for x in numeric),
                    exact_point=None,
                    certified_exact=True,
                    precision_bits=bits,
                )
            # real definite restriction: fall through to complex sampling
        A = threespace.symmetric_gram()
        H = threespace.hermitian_gram()
        An = [[_to_mpc(x) for x in row] for row in A]
        Hn = [[_to_mpc(x) for x in row] for row in H]
        Bn = [[_to_mpc(x) for x in row] for row in threespace.basis]
        # Euclidean 3x3 form of the ambient embedding: ||w B||^2 = w E conj(w).
        E = [[sum(Bn[i][c] * mpmath.conj(Bn[j][c]) for c in range(threespace.n)) for j in range(3)] for i in range(3)]

        base = _conic_base_point(A, An)
        if base is None:
            # restricted form is identically zero on some coordinate plane:
            # every vector of that plane is a conic point
            base = (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0))
        ok = 0
        attempt = 0
        while ok < samples and attempt < 4 * samples + 16:
            lam = _pencil_parameter(attempt)
            attempt += 1
            w = _second_intersection(An, base, lam)
            if w is None:
                continue
            scale = _herm3(E, w).real
            if scale <= 0:
                continue
            residual = abs(_form3(An, w)) / scale
            if residual > DOMAIN_TOLERANCE:
                continue
            value = _herm3(Hn, w).real / scale
            if value <= DOMAIN_TOLERANCE:
                exact = _try_exact_counterexample(threespace, A, H, w)
                numeric_pt = tuple(sum(w[i] * Bn[i][c] for i in range(3)) for c in range(threespace.n))
                return DomainStatus(
                    kind="counterexample",
                    samples=ok,
                    point=numeric_pt,
                    exact_point=exact,
                    certified_exact=exact is not None,
                    precision_bits=bits,
                )
            ok += 1
        return DomainStatus(kind="sampled_ok", samples=ok, precision_bits=bits)


def _conic_base_point(A, An):
    """One numeric point of {w : w A w^T = 0} in coefficient space."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = A[i][i], A[i][j], A[j][j]
        if a == 0 and b == 0 and c == 0:
            continue
        w = [mpmath.mpc(0)] * 3
        if a == 0:
            w[i] = mpmath.mpc(1)
            return tuple(w)
        disc = _to_mpc(b * b - a * c)
        s = (-_to_mpc(b) + mpmath.sqrt(disc)) / _to_mpc(a)
        w[i] = s
        w[j] = mpmath.mpc(1)
        return tuple(w)
    return None


def _pencil_parameter(k: int) -> mpmath.mpc:
    """Deterministic sweep of pencil parameters covering real and imaginary mixes."""
    g = 17
    re = Fraction(2 * (k % g) - g + 1, g)
    im = Fraction(2 * ((k // g) % g) - g + 1, g)
    twist = Fraction(k % 5 - 2, 7)
    return mpmath.mpc(_to_mpf(re + twist), _to_mpf(im))


def _second_intersection(An, base, lam):
    """Second conic point on the line through `base` with direction d(lam)."""
    d = (mpmath.mpc(1), lam, lam * lam)  # rational normal sweep of directions
    alpha = _form3(An, d)
    beta = 2 * sum(base[i] * sum(An[i][j] * d[j] for j in range(3)) for i in range(3))
    if abs(alpha) < mpmath.mpf(2) ** (-mpmath.mp.prec // 2):
        return None
    tau = -beta / alpha
    if abs(tau) < mpmath.mpf(2) ** (-mpmath.mp.prec // 2):
        return None  # degenerate: returns the base point itself
    w = tuple(base[i] + tau * d[i] for i in range(3))
    return w


def _try_exact_counterexample(threespace, A, H, w):
    """Rational reconstruction of a numeric counterexample, exactly verified."""
    pivot = max(range(3), key=lambda i: abs(w[i]))
    scaled = [w[i] / w[pivot] for i in range(3)]
    coeffs = []
    for x in scaled:
        fr = Fraction(float(x.real)).limit_denominator(10**6)
        fi = Fraction(float(x.imag)).limit_denominator(10**6)
        coeffs.append(GaussRational(fr, fi))
    q = sum((coeffs[i] * A[i][j] * coeffs[j] for i in range(3) for j in range(3)), start=GaussRational.of(0))
    if q != 0:
        return None
    h = sum((coeffs[i] * H[i][j] * coeffs[j].conjugate() for i in range(3) for j in range(3)), start=GaussRational.of(0))
    assert h.is_real
    if h.re > 0:
        return None
    point = tuple(
        sum((coeffs[i] * threespace.basis[i][c] for i in range(3)), start=GaussRational.of(0))
        for c in range(threespace.n)
    )
    return point


def intersect_hyperplane(threespace: ThreeSpace, delta, precision: int | None = None) -> HyperplaneIntersection:
    """Intersection of the cycle with the hyperplane section P(delta-perp).

    Either the whole plane P(V) is orthogonal to delta (containment) or the
    pencil V in delta-perp is a projective line meeting the quadric in the
    roots of an exact binary quadratic form; the two roots are returned with
    exact coefficients and numeric point approximations.
    """
    bits = resolve_precision(precision)
    n = threespace.n
    if len(delta) != n:
        raise DimensionMismatchError("delta length does not match ambient rank")
    delta = tuple(as_fraction(x) for x in delta)
    if is_zero_vec(delta):
        raise InputError("delta must be nonzero")
    pairings = [bilinear(threespace.ambient, row, delta) for row in threespace.basis]
    pairings = [GaussRational.of(p) for p in pairings]
    if all(p == 0 for p in pairings):
        return HyperplaneIntersection(kind="containment")
    # Kernel of the functional (p1, p2, p3) on coefficients: dimension 2.
    p = next(i for i in range(3) if pairings[i] != 0)
    others = [i for i in range(3) if i != p]
    coeff_rows = []
    for q in others:
        coeff = [GaussRational.of(0)] * 3
        coeff[p] = -pairings[q]
        coeff[q] = pairings[p]
        coeff_rows.append(tuple(coeff))
    w_rows = tuple(
        tuple(sum((coeff[i] * threespace.basis[i][c] for i in range(3)), start=GaussRational.of(0)) for c in range(n))
        for coeff in coeff_rows
    )
    a = GaussRational.of(bilinear(threespace.ambient, w_rows[0], w_rows[0]))
    b = GaussRational.of(bilinear(threespace.ambient, w_rows[0], w_rows[1]))
    c = GaussRational.of(bilinear(threespace.ambient, w_rows[1], w_rows[1]))
    disc = b * b - a * c
    with mpmath.workprec(bits):
        w1 = tuple(_to_mpc(x) for x in w_rows[0])
        w2 = tuple(_to_mpc(x) for x in w_rows[1])
        points = []
        if a != 0:
            root = mpmath.sqrt(_to_mpc(disc))
            for sgn in (1, -1):
                s = (-_to_mpc(b) + sgn * root) / _to_mpc(a)
                points.append(tuple(s * u + v for u, v in zip(w1, w2)))
        elif c != 0:
            # q(s,t) = 2b st + c t^2 = t (2b s + c t)
            points.append(w1)
            points.append(tuple(_to_mpc(c) * u - 2 * _to_mpc(b) * v for u, v in zip(w1, w2)))
        elif b != 0:
            points.append(w1)
            points.append(w2)
        else:
            raise InputError("restricted form vanishes identically on the section")
        normalized = []
        for pt in points:
            norm = mpmath.sqrt(sum(abs(x) ** 2 for x in pt))
            normalized.append(tuple(x / norm for x in pt))
    return HyperplaneIntersection(
        kind="two_points",
        line_basis=w_rows,
        quad_coeffs=(a, b, c),
        discriminant=disc,
        numeric_points=tuple(normalized),
        precision_bits=bits,
    )
