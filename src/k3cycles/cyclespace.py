"""Classification of complex three-spaces as cycles in the period domain.

A three-space V (rank-3 subspace of the complexified ambient, given by a
3 x n Gauss-rational basis matrix) spans a projective plane whose
intersection with the quadric {<x,x> = 0} is a conic.  This module decides
smoothness, the Hermitian signature trichotomy, reality, positivity and the
twistor predicate exactly, and checks domain membership of the conic by
sampling where no exact criterion exists, deciding each sample exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, isqrt
from operator import mul

import mpmath
from mpmath.libmp import fone, from_int, from_rational, fzero, mpc_abs, mpc_add, mpc_div, mpc_div_mpf, mpc_mul, mpc_mul_int
from mpmath.libmp import mpc_neg, mpc_sqrt, mpf_add, mpf_div, mpf_mul, mpf_pow_int, mpf_shift, mpf_sqrt, to_int

from .errors import AmbientMismatchError, DimensionMismatchError, InputError, InternalCheckError
from .gaussrat import GaussRational, as_fraction
from .linalg import clear_gauss_rows, clear_rows, det, hnf, is_zero_vec, mat
from .quadspace import (
    IntegralLattice,
    Isometry,
    QuadraticSpace,
    _hermitian_inertia,
    _realify,
    _space_of,
    bilinear,
    congruence_diagonal,
    gauss_grams,
    gram_apply,
    make_standard_lattice,
    row_gram,
)
from .rootenum import roots_orthogonal_to_threespace

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 53
DOMAIN_TOLERANCE = 1e-9
# the float's exact binary value, read once rather than per sample
_TOL_NUM, _TOL_DEN = DOMAIN_TOLERANCE.as_integer_ratio()
PRECISION_ENV_VAR = "K3CYCLES_PRECISION"


def resolve_precision(bits=None) -> int:
    """The argument, else K3CYCLES_PRECISION, else 128; at least 53 bits."""
    if bits is None:
        env = os.environ.get(PRECISION_ENV_VAR)
        if not env:
            return DEFAULT_PRECISION_BITS
        try:
            bits = int(env)
        except ValueError as exc:
            raise InputError(f"bad {PRECISION_ENV_VAR} value {env!r}") from exc
    if isinstance(bits, bool) or not isinstance(bits, int) or bits < MIN_PRECISION_BITS:
        raise InputError(f"precision must be an integer of at least {MIN_PRECISION_BITS} bits, got {bits!r}")
    return bits


@dataclass(frozen=True, init=False)
class ThreeSpace:
    """Rank-3 subspace of the complexified ambient space.

    `ints` is the basis cleared to Gaussian-integer rows: (re, im, d) with
    basis = (re + i im) / d, integer rows and d > 0 least.  Independence,
    reality, the real basis and both Grams are decided from it in integers.
    Give either the Gauss-rational `basis` rows or `ints`; the GaussRational
    `basis` of a space built from `ints` is made only when read, for output.
    """

    ambient: QuadraticSpace
    ints: tuple

    def __init__(self, ambient: QuadraticSpace, basis=None, ints=None):
        if (basis is None) == (ints is None):
            raise TypeError("ThreeSpace takes exactly one of basis and ints")
        ambient = _space_of(ambient)
        if basis is not None:
            rows = mat(tuple(tuple(GaussRational.of(x) for x in row) for row in basis))
            self.__dict__["basis"] = rows
            ints = clear_gauss_rows([[z.ratios() for z in row] for row in rows])
        re, im, d = ints
        re, im = mat(re), mat(im)
        if len(re) != 3 or len(im) != 3:
            raise DimensionMismatchError("a three-space needs exactly 3 basis rows")
        if type(d) is not int or d < 1:
            raise InputError(f"basis denominator must be a positive integer, got {d!r}")
        if any(len(r) != ambient.n for r in re + im):
            raise DimensionMismatchError("basis row length does not match ambient rank")
        for x in chain(*re, *im):
            if type(x) is not int:
                as_fraction(x)  # a bool or float is refused as by every exact entry point
                raise InputError(f"basis row entries must be integers, got {x!r}")
        c = gcd(d, *chain(*re, *im))
        if c > 1:
            re, im, d = tuple(tuple(x // c for x in r) for r in re), tuple(tuple(x // c for x in r) for r in im), d // c
        # Rank over Q(i) is half the rank of the realification, rows (re | im) and (-im | re) of v and iv.
        echelon = hnf([r + i for r, i in zip(re, im)] + [tuple(-x for x in i) + r for r, i in zip(re, im)])
        if len(echelon) != 6:
            raise InputError("basis rows are linearly dependent over Q(i)")
        p, n, z = ambient.inertia
        if p != 3 or z != 0:
            raise InputError(f"ambient signature must be (3, n-, 0), got ({p}, {n}, {z})")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "ints", (re, im, d))
        # V + conj V is spanned by the re and im rows, so V is real iff they span only 3 dimensions.
        # Row operations keep the rank of the first n columns, which hold re and -im: it is the
        # number of echelon rows with a pivot there.
        object.__setattr__(self, "_real", sum(1 for row in echelon if any(row[: ambient.n])) == 3)

    @cached_property
    def basis(self):
        """The 3 x n GaussRational rows (re + i im) / d."""
        re, im, d = self.ints
        return tuple(tuple(_gauss(z, d) for z in zip(r, i)) for r, i in zip(re, im))

    @property
    def n(self) -> int:
        return self.ambient.n

    @cached_property
    def gram_ints(self):
        """(A, H, den): the symmetric and Hermitian Grams as 3x3 tables of
        Gaussian-integer (re, im) pairs over one positive denominator, the
        `gauss_grams` of the rows under the ambient's integer Gram."""
        re, im, d = self.ints
        return (*gauss_grams(self.ambient.sparse_rows, re, im), self.ambient.den * d * d)

    @cached_property
    def hermitian_inertia(self):
        """Inertia (pos, neg, null) of the Hermitian Gram, computed once in integers."""
        return _hermitian_inertia(self.gram_ints[1])

    def is_real(self) -> bool:
        return self._real

    def real_basis(self):
        """A rational basis of V's real points (only valid when real): the first
        of the integer rows re_0, im_0, re_1, im_1, re_2, im_2 that raise the
        integer rank, over d."""
        re, im, d = self.ints
        picked = []
        for c in chain.from_iterable(zip(re, im)):
            if len(hnf(picked + [c])) > len(picked):
                picked.append(c)
        if len(picked) != 3:
            raise InternalCheckError("real_basis called on a three-space that is not real")
        return tuple(tuple(Fraction(x, d) for x in row) for row in picked)


@dataclass(frozen=True)
class TwistorStatus:
    status: str  # "true" | "false" | "not_applicable"
    certificate: tuple | None = None  # lexicographically smallest orthogonal root
    reason: str | None = None

    def __bool__(self):
        return self.status == "true"


@dataclass(frozen=True)
class DomainStatus:
    kind: str  # "verified_positive" | "sampled_ok" | "sampled_short" (attempt cap hit first) | "counterexample"
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
    re = tuple(tuple(t.denominator * int(i == j) for j in range(n)) for i in range(3))
    im = tuple(tuple(t.numerator * int((i, j) == (0, 3)) for j in range(n)) for i in range(3))
    return ThreeSpace(ambient=space, ints=(re, im, t.denominator))


def apply_isometry(g: Isometry, threespace: ThreeSpace) -> ThreeSpace:
    """Map the basis rows by the isometry (column convention), in integers:
    g times each re and im row of `ints`, over the same denominator."""
    if g.space != threespace.ambient:
        raise AmbientMismatchError("isometry and three-space live in different spaces")
    re, im, d = threespace.ints
    re, im = (tuple(tuple(sum(map(mul, row, v)) for row in g.matrix) for v in part) for part in (re, im))
    return ThreeSpace(ambient=threespace.ambient, ints=(re, im, d))


def is_twistor(lattice: IntegralLattice, threespace: ThreeSpace) -> TwistorStatus:
    """Twistor predicate: real, positive and orthogonal to no root of the lattice."""
    if lattice.space != threespace.ambient:
        raise AmbientMismatchError("three-space ambient does not match lattice")
    if threespace.hermitian_inertia != (3, 0, 0):
        return TwistorStatus(status="not_applicable", reason="three-space is not positive")
    if not threespace.is_real():
        return TwistorStatus(status="not_applicable", reason="three-space is not real")
    orthogonal = roots_orthogonal_to_threespace(lattice, threespace)
    if not orthogonal.complete:
        raise InternalCheckError("root list orthogonal to a positive three-space is incomplete")
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
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise InputError(f"samples must be an integer of at least 1, got {samples!r}")
    exact = exact_classification(threespace)
    if lattice is None:
        twistor = TwistorStatus(status="not_applicable", reason="no integral lattice context")
    else:
        twistor = is_twistor(lattice, threespace)
    if exact["positive"]:
        domain = DomainStatus(kind="verified_positive")
    else:
        domain = _sample_domain(threespace, exact["real"], samples, bits)
    return CycleClassification(**exact, twistor=twistor, domain_status=domain)


def exact_classification(threespace: ThreeSpace) -> dict:
    """The exact fields of a CycleClassification, in field order: smooth (the
    realification of A has determinant |det A|^2), hermitian_signature, real and positive."""
    hsig = threespace.hermitian_inertia
    return {
        "smooth": det(_realify(threespace.gram_ints[0])) != 0,
        "hermitian_signature": hsig,
        "real": threespace.is_real(),
        "positive": hsig == (3, 0, 0),
    }


# ---------------------------------------------------------------------------
# Conic machinery


def _exact_sqrt(q: Fraction):
    """Rational square root, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _real_isotropic_witness(threespace: ThreeSpace, bits: int):
    """For real V: the counterexample at a real conic point, where the hermitian
    value is the bilinear one, 0; None when the real form is definite.  Numeric
    points are rounded to `bits` bits."""
    found = partial(DomainStatus, kind="counterexample", samples=0, certified_exact=True, precision_bits=bits)
    rb = threespace.real_basis()
    diag, S = congruence_diagonal(row_gram(threespace.ambient.sparse_rows, rb))
    rows = [tuple(sum((S[i][k] * rb[k][c] for k in range(3)), start=Fraction(0)) for c in range(threespace.n)) for i in range(3)]
    point = next((rows[i] for i in range(3) if diag[i] == 0), None)  # radical vector: exactly isotropic
    if point is None:
        pos = [i for i in range(3) if diag[i] > 0]
        neg = [i for i in range(3) if diag[i] < 0]
        if not pos or not neg:
            return None
        i, j = pos[0], neg[0]
        q = -diag[j] / diag[i]  # the point s*u_i + u_j with s^2 = q is isotropic
        s = _exact_sqrt(q)
        if s is None:
            s = mpf_sqrt(_mpf(*q.as_integer_ratio(), bits), bits, "n")
            # hermitian = bilinear on real vectors; s^2 d_i + d_j = 0 exactly.
            coords = (mpf_add(mpf_mul(s, _mpf(*x.as_integer_ratio(), bits), bits, "n"), _mpf(*y.as_integer_ratio(), bits), bits, "n") for x, y in zip(rows[i], rows[j]))
            return found(point=tuple(mpmath.mp.make_mpc((x, fzero)) for x in coords))
        point = tuple(s * x + y for x, y in zip(rows[i], rows[j]))
    if bilinear(threespace.ambient, point, point) != 0:
        raise InternalCheckError("real conic witness is not isotropic")
    return found(point=tuple(mpmath.mp.make_mpc((_mpf(*x.as_integer_ratio(), bits), fzero)) for x in point), exact_point=tuple(map(GaussRational.of, point)))


def _mpf(p: int, q: int, bits: int):
    """p / q (q > 0) as a raw mpf at `bits` bits, rounded as mpmath rounds mpf(p) / mpf(q) for
    the fraction in lowest terms: numerator and denominator each to nearest, then one division."""
    g = gcd(p, q)
    return mpf_div(from_int(p // g, bits, "n"), from_int(q // g, bits, "n"), bits, "n")


def _mpc(z, den: int, bits: int):
    """The Gaussian integer z = (re, im) over den as a raw mpc at `bits` bits."""
    return _mpf(z[0], den, bits), _mpf(z[1], den, bits)


def _gauss(z, den: int) -> GaussRational:
    """The Gaussian integer z = (re, im) over den as a GaussRational."""
    return GaussRational(Fraction(z[0], den), Fraction(z[1], den))


def _binary_roots(a, b, c, den: int, bits: int):
    """The two projective roots (s, t) of a s^2 + 2b st + c t^2, as raw mpc pairs at `bits` bits.

    a, b and c are Gaussian-integer (re, im) pairs over den, not all 0.  The roots are
    ((-b + r) / a, 1) and ((-b - r) / a, 1) with r the square root of b^2 - ac, taken in
    integers, when a != 0; else (1, 0) and (c, -2b), or (0, 1) when c = 0 too.  Every step
    rounds to nearest at `bits` bits.
    """
    one, zero = (fone, fzero), (fzero, fzero)
    if a == (0, 0):
        return (one, zero), ((_mpc(c, den, bits), mpc_mul_int(_mpc(b, den, bits), -2, bits, "n")) if c != (0, 0) else (zero, one))
    r = mpc_sqrt(_mpc(_gdot((b, a), (b, (-c[0], -c[1]))), den * den, bits), bits, "n")
    minus_b, divisor = mpc_neg(_mpc(b, den, bits)), _mpc(a, den, bits)
    return tuple((mpc_div(mpc_add(minus_b, mpc_mul_int(r, sign, bits, "n"), bits, "n"), divisor, bits, "n"), one) for sign in (1, -1))


# ---------------------------------------------------------------------------
# Exact conic sweep: Gaussian integers as (re, im) pairs of ints

PENCIL_DEN = 119  # 17 * 7, the common denominator of the pencil parameters


def _gdot(u, v):
    """sum_i u_i v_i over Gaussian integers."""
    return (sum(a * c - b * d for (a, b), (c, d) in zip(u, v)), sum(a * d + b * c for (a, b), (c, d) in zip(u, v)))


def _herm_products(w):
    """|w_i|^2, then Re and Im of w_i conj(w_j) for (i, j) = (0, 1), (0, 2), (1, 2)."""
    (a, b), (c, d), (e, f) = w
    return (a * a + b * b, c * c + d * d, e * e + f * f, a * c + b * d, b * c - a * d, a * e + b * f, b * e - a * f, c * e + d * f, d * e - c * f)


def _herm_coeffs(m):
    """Coefficients of w M conj(w)^T against _herm_products(w), for Hermitian M."""
    return [m[i][i][0] for i in range(3)] + [2 * s * m[i][j][t] for i, j in ((0, 1), (0, 2), (1, 2)) for t, s in ((0, 1), (1, -1))]


def _taylor_shift(coeffs, y):
    """The Gaussian coefficients in the real x of sum_k c_k (x + iy)^k, for Gaussian c_k
    with the constant term first: repeated synthetic division by ell - iy (Taylor shift)."""
    c = [list(z) for z in coeffs]
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            r, t = c[j + 1]
            c[j][0] -= y * t  # c_j += iy c_{j+1}
            c[j][1] += y * r
    return c


def _row_quartic(coeffs, y):
    """The real quartic in x, constant term first, of coeffs . _herm_products(delta) for the
    pencil direction delta = (D^2, D ell, ell^2) at ell = x + iy, D = PENCIL_DEN."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = coeffs
    D, yy = PENCIL_DEN, y * y
    return (
        c0 * D**4 + (c1 - c5) * D * D * yy + c2 * yy * yy - c4 * D**3 * y - c8 * D * yy * y,
        c3 * D**3 - 2 * c6 * D * D * y + c7 * D * yy,
        (c1 + c5) * D * D + 2 * c2 * yy - c8 * D * y,
        c7 * D,
        c2,
    )


def _pencil_row(conic, y):
    """The pencil polynomials of `conic` on the row Im ell = y, in the real x = Re ell with
    the constant term first: the re and im coefficients of alpha, then of beta, each
    Taylor-shifted by iy, then per form in `forms` (p M p*, the re and im coefficients of
    p M conj(delta), a polynomial in conj(ell) = x - iy and so shifted by -iy, the real
    quartic of `_row_quartic`)."""
    _, alpha_poly, beta_poly, _, _, _, forms, _ = conic
    per_form = tuple((pmp, *zip(*_taylor_shift(pm, -y)), _row_quartic(coeffs, y)) for pmp, pm, coeffs in forms)
    return (*zip(*_taylor_shift(alpha_poly, y)), *zip(*_taylor_shift(beta_poly, y)), per_form)


def _sample_domain(threespace: ThreeSpace, real: bool, samples: int, bits: int) -> DomainStatus:
    """Semi-decision of conic containment in the period domain.

    Real non-positive V always carries an exact isotropic witness on the
    conic (hermitian = bilinear vanishes there), so the deterministic probe
    settles those.  Otherwise the conic is swept through a pencil of lines
    through a base point rounded once to `bits` bits; each sample is an exact Gaussian-integer
    point, reported as a counterexample when its normalized hermitian value is <= 1e-9.
    A sweep cut short by the cap of 4 * samples + 16 attempts reports "sampled_short".
    The pencil parameters lie on 17 rows of fixed Im ell; the conic carries a dict, local to
    this call, into which `_second_intersection` puts each row's polynomials in Re ell the
    first time an attempt reaches it.
    """
    a_rows, h_rows, a = threespace.gram_ints  # both Grams over the denominator a
    witness = _real_isotropic_witness(threespace, bits) if real else None
    if witness is not None:
        return witness
    # not real, or real with a definite real form: sample the conic
    p = tuple((to_int(mpf_shift(x, bits), "n"), to_int(mpf_shift(y, bits), "n")) for x, y in _conic_base_point(a_rows, a, bits))
    re, im, b = threespace.ints
    b_rows = [tuple(zip(r, i)) for r, i in zip(re, im)]
    # Euclidean form of the embedding: ||w B||^2 = w E conj(w)^T with E = b_rows conj(b_rows)^T / e
    e, conj_rows = b * b, [[(x, -y) for x, y in row] for row in b_rows]
    E = [[_gdot(row, other) for other in conj_rows] for row in b_rows]
    # alpha = delta A delta^T and beta = 2 p A delta^T as polynomials in ell, delta_i = D^(2-i) ell^i
    D, pa = PENCIL_DEN, [_gdot(p, row) for row in a_rows]  # p A, A symmetric
    alpha_poly = [tuple(D ** (4 - k) * sum(a_rows[i][k - i][t] for i in range(max(0, k - 2), min(k, 2) + 1)) for t in (0, 1)) for k in range(5)]
    beta_poly = [tuple(2 * D ** (2 - j) * x for x in pa[j]) for j in range(3)]
    # per Hermitian M in (E, H): p M p*, the terms D^(2-i) (p M)_i of p M conj(delta) in conj(ell)^i, and the
    # coefficients of w M w* against _herm_products(w)
    forms = []
    for m in (E, h_rows):
        coeffs, pm = _herm_coeffs(m), [_gdot(p, col) for col in zip(*m)]
        forms.append((sum(map(mul, coeffs, _herm_products(p))), [tuple(D ** (2 - i) * x for x in pm[i]) for i in range(3)], coeffs))
    conic = (p, alpha_poly, beta_poly, (a * D**4) ** 2, (bits + 1) // 2, bits, forms, {})
    # w A w^T = alpha^2 (p A p^T) exactly, so the residual needs |p A p^T|^2 only
    pap, tol_e, tol_a = _gdot(pa, p), e * _TOL_DEN, _TOL_NUM * a
    res_lhs, res_rhs = (pap[0] ** 2 + pap[1] ** 2) * tol_e**2, tol_a**2
    ok = attempt = 0
    while ok < samples and attempt < 4 * samples + 16:
        ell = _pencil_parameter(attempt)
        sample = _second_intersection(conic, ell)
        attempt += 1
        if sample is None:
            continue
        (scale, value), (ar, ai), (br, bi) = sample  # scale = e 4^bits |alpha|^2 ||w B||^2
        if scale <= 0:
            continue
        norm_alpha = ar * ar + ai * ai
        if norm_alpha * norm_alpha * res_lhs > res_rhs * scale * scale:
            continue  # |w A w^T| / ||w B||^2 > tolerance
        if value * tol_e <= tol_a * scale:
            w = tuple((ar * u - ai * v - br * c + bi * d, ar * v + ai * u - br * d - bi * c) for (u, v), (c, d) in zip(p, _pencil_direction(ell)))
            # the ambient point sum_i w_i B_i / (2^bits alpha), rounded once per coordinate:
            # coordinate c is N_c conj(alpha) / (b 2^bits |alpha|^2), N_c = sum_i w_i b_rows[i][c]
            den = (b * norm_alpha) << bits
            numeric = (_gdot((_gdot(w, col),), ((ar, -ai),)) for col in zip(*b_rows))
            exact = _try_exact_counterexample(threespace, w)
            return DomainStatus(
                kind="counterexample",
                samples=ok,
                point=tuple(mpmath.mp.make_mpc((from_rational(x, den, bits, "n"), from_rational(y, den, bits, "n"))) for x, y in numeric),
                exact_point=exact,
                certified_exact=exact is not None,
                precision_bits=bits,
            )
        ok += 1
    return DomainStatus(kind="sampled_ok" if ok == samples else "sampled_short", samples=ok, precision_bits=bits)


def _conic_base_point(pairs, den, bits):
    """One point of {w : w A w^T = 0} in coefficient space as raw mpc pairs at `bits` bits, for
    A the Gaussian-integer (re, im) pairs over den: the first root of the first coordinate
    plane on which the form is not 0."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = pairs[i][i], pairs[i][j], pairs[j][j]
        if a == b == c == (0, 0):
            continue
        w = [(fzero, fzero)] * 3
        w[i], w[j] = _binary_roots(a, b, c, den, bits)[0]
        return tuple(w)
    # the form vanishes on every coordinate plane, so A = 0: every point is a conic point
    return (fone, fzero), (fzero, fzero), (fzero, fzero)


def _pencil_parameter(k: int):
    """Deterministic sweep of pencil parameters ell / PENCIL_DEN covering real
    and imaginary mixes: (2(k mod 17) - 16)/17 + (k mod 5 - 2)/7 + i(2(k div 17 mod 17) - 16)/17."""
    g = 17
    return (7 * (2 * (k % g) - g + 1) + g * (k % 5 - 2), 7 * (2 * ((k // g) % g) - g + 1))


def _pencil_direction(ell):
    """delta = (D^2, D ell, ell^2), D = PENCIL_DEN: the direction D^2 (1, lambda, lambda^2) of line ell."""
    x, y = ell
    return ((PENCIL_DEN * PENCIL_DEN, 0), (PENCIL_DEN * x, PENCIL_DEN * y), (x * x - y * y, 2 * x * y))


def _second_intersection(conic, ell):
    """((W E W*, W H W*), alpha, beta) for the second conic point W on the line through p with direction delta(ell).

    `conic` is (p, alpha and beta as polynomials in ell, a^2 D^8, half, bits, forms, rows): delta =
    `_pencil_direction(ell)`, alpha = delta A delta^T, beta = 2 p A delta^T.  The point is base + tau d
    with d = delta / D^2, tau = -beta D^2 / (2^bits alpha), and W = alpha p - beta delta is it times
    2^bits alpha.  None where |alpha| or |tau| < 2^-half for the unscaled A, half = ceil(bits / 2).
    W is not built: for Hermitian M, with p M p*, p M and the coefficients c of M from `forms`,
    W M W* = |alpha|^2 p M p* - 2 Re(alpha conj(beta) (p M . conj(delta))) + |beta|^2 c . _herm_products(delta).
    Each term is a polynomial in the real x = Re ell on the row of y = Im ell, which `_pencil_row`
    builds once into the dict `rows` and Horner's rule evaluates in integers.
    """
    _, _, _, alpha_bound, half, bits, _, rows = conic
    x, y = ell
    row = rows.get(y)
    if row is None:
        row = rows[y] = _pencil_row(conic, y)
    (a0, a1, a2, a3, a4), (u0, u1, u2, u3, u4), (b0, b1, b2), (v0, v1, v2), forms = row
    ar, ai = (((a4 * x + a3) * x + a2) * x + a1) * x + a0, (((u4 * x + u3) * x + u2) * x + u1) * x + u0
    norm_alpha = ar * ar + ai * ai
    if norm_alpha << (2 * half) < alpha_bound:
        return None
    br, bi = (b2 * x + b1) * x + b0, (v2 * x + v1) * x + v0
    norm_beta = br * br + bi * bi
    if norm_beta * PENCIL_DEN**4 << (2 * half) < norm_alpha << (2 * bits):
        return None  # degenerate: returns the base point itself
    sr, si = ar * br + ai * bi, ai * br - ar * bi  # alpha conj(beta)
    values = []
    for pmp, (c0, c1, c2), (d0, d1, d2), (q0, q1, q2, q3, q4) in forms:
        cr, ci = (c2 * x + c1) * x + c0, (d2 * x + d1) * x + d0  # p M conj(delta)
        values.append(norm_alpha * pmp - 2 * (sr * cr - si * ci) + norm_beta * ((((q4 * x + q3) * x + q2) * x + q1) * x + q0))
    return tuple(values), (ar, ai), (br, bi)


def _try_exact_counterexample(threespace, w):
    """Rational reconstruction of an exact sample W, exactly verified: W over its
    largest coordinate, each rational part at denominator at most 10^6."""
    norms = [x * x + y * y for x, y in w]
    n = max(norms)
    pr, pi = w[norms.index(n)]
    coeffs = [tuple(Fraction(t, n).limit_denominator(10**6).as_integer_ratio() for t in (x * pr + y * pi, y * pr - x * pi)) for x, y in w]
    (re,), (im,), c = clear_gauss_rows([coeffs])  # coefficients u / c
    u, u_bar = tuple(zip(re, im)), tuple(zip(re, (-y for y in im)))
    A, H, _ = threespace.gram_ints
    if _gdot(u, [_gdot(row, u) for row in A]) != (0, 0):
        return None
    h_re, h_im = _gdot(u, [_gdot(row, u_bar) for row in H])
    if h_im:
        raise InternalCheckError("Hermitian form of a conic point is not real")
    if h_re > 0:
        return None
    # coordinate k is sum_i u_i (re_i[k] + i im_i[k]) / (c d)
    b_re, b_im, d = threespace.ints
    cols = zip(*(zip(r, i) for r, i in zip(b_re, b_im)))
    return tuple(_gauss(_gdot(u, col), c * d) for col in cols)


def intersect_hyperplane(threespace: ThreeSpace, delta, precision: int | None = None) -> HyperplaneIntersection:
    """Intersection of the cycle with the hyperplane section P(delta-perp).

    Either the whole plane P(V) is orthogonal to delta (containment) or the
    pencil V in delta-perp is a projective line meeting the quadric in the
    roots of an exact binary quadratic form; the two roots are returned with
    exact coefficients and numeric point approximations.  The pairings and the
    form are taken in integers from `ThreeSpace.ints`.
    """
    bits = resolve_precision(precision)
    if len(delta) != threespace.n:
        raise DimensionMismatchError("delta length does not match ambient rank")
    delta = tuple(as_fraction(x) for x in delta)
    if is_zero_vec(delta):
        raise InputError("delta must be nonzero")
    ambient, (re, im, d) = threespace.ambient, threespace.ints
    (x,), e = clear_rows([[z.as_integer_ratio() for z in delta]])
    # <b_i, delta> = P_i / (d q e) for b_i = (re_i + i im_i) / d, delta = x / e and G = qG / q
    image = gram_apply(ambient.sparse_rows, x)
    pairings = [(sum(map(mul, r, image)), sum(map(mul, i, image))) for r, i in zip(re, im)]
    if all(z == (0, 0) for z in pairings):
        return HyperplaneIntersection(kind="containment")
    # Kernel of the functional on coefficients, dimension 2: w_k = P_p b_k - P_k b_p over D = d^2 q e.
    p = next(i for i in range(3) if pairings[i] != (0, 0))
    rows, D = [tuple(zip(r, i)) for r, i in zip(re, im)], d * d * ambient.den * e
    w = [tuple(_gdot((pairings[p], pairings[k]), (u, (-v[0], -v[1]))) for u, v in zip(rows[k], rows[p])) for k in range(3) if k != p]
    # the Gaussian pairings of w_0 and w_1 over q D^2
    w_re, w_im = ([tuple(z[t] for z in row) for row in w] for t in (0, 1))
    ((a, b), (_, c)), _ = gauss_grams(ambient.sparse_rows, w_re, w_im)
    if a == b == c == (0, 0):
        raise InputError("restricted form vanishes identically on the section")
    den = ambient.den * D * D
    w1, w2 = ([_mpc(z, D, bits) for z in row] for row in w)
    points = []
    for s, t in _binary_roots(a, b, c, den, bits):
        pt = [mpc_add(mpc_mul(s, u, bits, "n"), mpc_mul(t, v, bits, "n"), bits, "n") for u, v in zip(w1, w2)]
        total = fzero
        for z in pt:
            total = mpf_add(total, mpf_pow_int(mpc_abs(z, bits, "n"), 2, bits, "n"), bits, "n")
        norm = mpf_sqrt(total, bits, "n")
        points.append(tuple(mpmath.mp.make_mpc(mpc_div_mpf(z, norm, bits, "n")) for z in pt))
    return HyperplaneIntersection(
        kind="two_points",
        line_basis=tuple(tuple(_gauss(z, D) for z in row) for row in w),
        quad_coeffs=tuple(_gauss(z, den) for z in (a, b, c)),
        discriminant=_gauss(_gdot((b, a), (b, (-c[0], -c[1]))), den * den),
        numeric_points=tuple(points),
        precision_bits=bits,
    )
