"""Independent brute-force oracles for the enumeration tests.

Everything here is deliberately separate from the library: the coordinate
bounds come from a locally computed inverse Gram, the scan is a plain product
box evaluated with numpy, except for the E8 chain Gram, whose norm-2 vectors
are the 240 roots of the R^8 model solved to chain coordinates
(`e8_chain_roots`), and block-diagonal forms with even blocks are
handled by the orthogonal-sum argument (a norm -2 vector of a definite direct
sum of even blocks has exactly one nonzero block component).  Bounded root searches in indefinite
lattices have a literal box scan (`box_scan_roots`) and, for period points of
K3 supported on U^3, a closed form (`k3_u3_box_roots`).  The conic domain sweep
has a reference in `reference_conic_sweep`, an `mpmath` implementation that
rounds every sample at the working precision, and each exact sample one in
`reference_second_intersection`, which evaluates the pencil polynomials at the
complex parameter itself.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import mpmath
import numpy as np


def _inverse_fraction(m):
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
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


def _floor_sqrt(q: Fraction) -> int:
    if q < 0:
        return -1
    x = isqrt(q.numerator // q.denominator)
    while Fraction((x + 1) * (x + 1)) <= q:
        x += 1
    while x > 0 and Fraction(x * x) > q:
        x -= 1
    return x


def naive_box_norm_vectors(gram, target):
    """All integer x with x^T gram x == target by exhaustive box scan.

    gram must be positive definite with integer entries.  The box bound per
    coordinate is x_i^2 <= target * (gram^-1)_ii.
    """
    target = int(target)
    return [x for x, norm in _naive_box_cached(_int_gram(gram), target) if norm == target]


def naive_box_radius_vectors(gram, radius):
    """All integer x (zero included) with x^T gram x <= radius by box scan.

    Same box as naive_box_norm_vectors: every such x has x_i^2 <= radius *
    (gram^-1)_ii.
    """
    return [x for x, _ in _naive_box_cached(_int_gram(gram), int(radius))]


def _int_gram(gram):
    return tuple(tuple(int(x) for x in row) for row in gram)


# The README's chain basis of E8 in R^8: (1/2,...,1/2), e1+e2, e2-e1, e3-e2, ..., e7-e6.
E8_CHAIN_BASIS = (
    (Fraction(1, 2),) * 8,
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 0, 0, -1, 1, 0),
)
E8_CHAIN_GRAM = tuple(tuple(int(sum(a * b for a, b in zip(u, v))) for v in E8_CHAIN_BASIS) for u in E8_CHAIN_BASIS)


@lru_cache(maxsize=1)
def e8_chain_roots():
    """The 240 roots of E8 in chain coordinates, sorted: in R^8 they are
    +-e_i +-e_j and (+-1/2)^8 with an even number of minus signs, and the
    chain coordinates c of a root v solve c B = v for the chain basis B."""
    vectors = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            vectors.append(v)
    vectors += [[Fraction(s, 2) for s in signs] for signs in itertools.product((1, -1), repeat=8) if signs.count(-1) % 2 == 0]
    binv = _inverse_fraction(E8_CHAIN_BASIS)
    roots = [tuple(sum(v[k] * binv[k][j] for k in range(8)) for j in range(8)) for v in vectors]
    if any(c.denominator != 1 for r in roots for c in r) or len(set(roots)) != 240:
        raise ValueError("the R^8 model did not give 240 integral chain coordinates")
    return tuple(sorted(tuple(int(c) for c in r) for r in roots))


@lru_cache(maxsize=1024)
def _naive_box_cached(gram, target):
    """Sorted (x, x^T gram x) pairs for the box points with norm <= target;
    one scan serves both the exact-norm and the radius oracle.

    E8 is even and positive definite, so for the E8 chain Gram at target 2
    those points are 0 and the 240 roots, taken from the R^8 model."""
    if gram == E8_CHAIN_GRAM and target == 2:
        return tuple(sorted([((0,) * 8, 0)] + [(r, 2) for r in e8_chain_roots()]))
    n = len(gram)
    gi = _inverse_fraction(gram)
    bounds = [_floor_sqrt(Fraction(target) * gi[i][i]) for i in range(n)]
    dims = [2 * b + 1 for b in bounds]
    total = 1
    for d in dims:
        total *= d
    G = np.array([[int(x) for x in row] for row in gram], dtype=np.int64)
    offs = np.array(bounds, dtype=np.int64)
    out = []
    chunk = 1_000_000
    radix = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        radix[i] = radix[i + 1] * dims[i + 1]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coords = (idx[:, None] // radix[None, :]) % np.array(dims, dtype=np.int64)[None, :]
        X = coords - offs[None, :]
        norms = np.einsum("ij,jk,ik->i", X, G, X)
        keep = norms <= target
        for row, norm in zip(X[keep], norms[keep]):
            out.append((tuple(int(v) for v in row), int(norm)))
    out.sort()
    return tuple(out)


def blocks_of(gram):
    """Connected components of the off-diagonal adjacency."""
    n = len(gram)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def block_sum_roots(gram):
    """Norm -2 vectors of a negative definite block-diagonal form with even blocks.

    In an even negative definite block every nonzero vector has norm <= -2,
    so a norm -2 vector is supported on exactly one block and the answer is
    the union of per-block naive scans embedded back into the ambient
    coordinates.  An odd block breaks this (in <-1> + <-1> the root (1, 1)
    takes -1 from each block), so a block with an odd diagonal entry, like
    one that is not negative definite on its diagonal, raises ValueError.
    """
    n = len(gram)
    comps = blocks_of(gram)
    out = []
    for comp in comps:
        sub = [[gram[i][j] for j in comp] for i in comp]
        if any(sub[i][i] >= 0 for i in range(len(comp))):
            raise ValueError("oracle expects negative definite blocks")
        if any(sub[i][i] % 2 for i in range(len(comp))):
            raise ValueError("oracle expects even blocks: an odd block can share a root with another")
        neg = [[-x for x in row] for row in sub]
        for v in naive_box_norm_vectors(neg, 2):
            amb = [0] * n
            for val, pos in zip(v, comp):
                amb[pos] = val
            out.append(tuple(amb))
    out.sort()
    return out


def box_scan_roots(gram, constraints, bound):
    """Sorted integer x in [-bound, bound]^n with x^T gram x == -2 and
    x^T gram c == 0 for every (rational) constraint c, by a literal scan of
    the whole box."""
    n = len(gram)
    G = np.array([[int(x) for x in row] for row in gram], dtype=np.int64)
    X = np.indices((2 * bound + 1,) * n, dtype=np.int64).reshape(n, -1).T - bound
    GX = X @ G
    keep = np.einsum("ij,ij->i", GX, X) == -2
    for c in constraints:
        den = lcm(*(Fraction(x).denominator for x in c))
        ints = np.array([int(Fraction(x) * den) for x in c], dtype=np.int64)
        keep &= GX @ ints == 0
    return sorted(tuple(int(v) for v in row) for row in X[keep])


def k3_u3_box_roots(gram, re, im):
    """Roots r of the K3 Gram with every coordinate in [-1, 1] and
    <r, re> = <r, im> = 0, for integer re, im supported on the U^3 coordinates
    0..5, in closed form.

    The two E8(-1) blocks (coordinates 6..13 and 14..21) are orthogonal to
    U^3 and to re and im, so r = u + x + y with u in {-1,0,1}^6 orthogonal to
    re and im, and norm(x) + norm(y) = -2 - norm(u).  x and y come from the
    table of {-1,0,1}^8 split by norm, one table per block.
    """
    if any(re[6:]) or any(im[6:]):
        raise ValueError("the closed form needs re and im supported on U^3")

    def pair(x, y, lo, hi):
        return sum(x[i - lo] * gram[i][j] * y[j - lo] for i in range(lo, hi) for j in range(lo, hi))

    tables = []
    for lo in (6, 14):
        table = {}
        for x in itertools.product((-1, 0, 1), repeat=8):
            table.setdefault(pair(x, x, lo, lo + 8), []).append(x)
        tables.append(table)
    out = []
    for u in itertools.product((-1, 0, 1), repeat=6):
        if pair(u, re, 0, 6) or pair(u, im, 0, 6):
            continue
        need = -2 - pair(u, u, 0, 6)
        for a, xs in tables[0].items():
            for x in xs:
                for y in tables[1].get(need - a, ()):
                    out.append(u + x + y)
    out.sort()
    return out


def dense_bilinear(gram, x, y):
    """x^T gram y over every Gram entry, accumulated in ints when the Gram and
    both vectors are all ints, else from Fraction(0).

    Entries may be int, Fraction or GaussRational; the value is a Fraction,
    Gaussian as soon as a Gaussian entry takes part in a product.
    """
    exact = int if all(type(v) is int for row in (x, y, *gram) for v in row) else Fraction
    total = exact(0)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        acc = exact(0)
        for j, yj in enumerate(y):
            if yj != 0:
                acc = acc + exact(gram[i][j]) * yj
        total = total + xi * acc
    return Fraction(total) if exact is int else total


def dense_grams(threespace):
    """(A, H): the symmetric and Hermitian Grams of the basis rows over the
    rational ambient Gram, as Gauss rationals.

    The ambient Gram is scaled to integers by the lcm g of its denominators,
    and the re and im parts of the basis by the lcm b of theirs.  The real and
    imaginary parts of x^T G y and x^T G conj(y) are then sums of `dense_bilinear`
    pairings of integer rows, each entry divided once by g b^2.
    """
    from k3cycles.gaussrat import GaussRational

    gram, rows = threespace.ambient.gram, threespace.basis
    g = lcm(*(Fraction(x).denominator for row in gram for x in row))
    b = lcm(*(part.denominator for row in rows for z in row for part in (z.re, z.im)))
    G = [[int(x * g) for x in row] for row in gram]
    re = [[int(z.re * b) for z in row] for row in rows]
    im = [[int(z.im * b) for z in row] for row in rows]
    den = g * b * b

    def pair(u, v):
        return int(dense_bilinear(G, u, v))

    rr = [[pair(x, y) for y in re] for x in re]
    ii = [[pair(x, y) for y in im] for x in im]
    ri = [[pair(x, y) for y in im] for x in re]  # ri[i][j] = re_i G im_j, and im_i G re_j = ri[j][i]
    n = range(len(rows))
    A = tuple(tuple(GaussRational(Fraction(rr[i][j] - ii[i][j], den), Fraction(ri[i][j] + ri[j][i], den)) for j in n) for i in n)
    H = tuple(tuple(GaussRational(Fraction(rr[i][j] + ii[i][j], den), Fraction(ri[j][i] - ri[i][j], den)) for j in n) for i in n)
    return A, H


def reference_partition_scan(gram, plus, depth):
    """First violation of the chamber property by exhaustive scan, or None.

    Every multiset of plus-roots of total 2..depth is summed, in
    combinations_with_replacement order, and its norm taken with
    `dense_bilinear`; the first sum of norm -2 outside plus is returned as
    (coefficients over plus, root).
    """
    plus = [tuple(r) for r in plus]
    members = set(plus)
    for total in range(2, depth + 1):
        for combo in itertools.combinations_with_replacement(range(len(plus)), total):
            vec = tuple(sum(plus[i][c] for i in combo) for c in range(len(gram)))
            if dense_bilinear(gram, vec, vec) == -2 and vec not in members:
                return tuple(combo.count(i) for i in range(len(plus))), vec
    return None


def dense_congruence(gram, g):
    """g^T gram g over every entry, in Fractions."""
    n = len(gram)
    return tuple(
        tuple(sum((Fraction(g[k][i]) * Fraction(gram[k][l]) * g[l][j] for k in range(n) for l in range(n)), start=Fraction(0)) for j in range(n))
        for i in range(n)
    )


def reference_in_O_plus(gram, frame, m):
    """Orientation test in dense Fractions: each frame vector p goes to m p,
    is projected onto the frame span with respect to the form (coordinates
    F^-1 (<m p, f>)_f, F the frame Gram), and the sign of the 3x3
    determinant of the projections decides."""
    n = len(gram)
    finv = _inverse_fraction([[dense_bilinear(gram, a, b) for b in frame] for a in frame])
    cols = []
    for p in frame:
        q = [sum((Fraction(m[i][j]) * p[j] for j in range(n)), start=Fraction(0)) for i in range(n)]
        r = [dense_bilinear(gram, q, f) for f in frame]
        cols.append([sum((finv[i][k] * r[k] for k in range(3)), start=Fraction(0)) for i in range(3)])
    (a, b, c), (d, e, f), (g, h, i) = cols
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) > 0


def exact_rank(rows):
    """Rank over Q by plain Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        p = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][c] / a[rank][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def gauss_rank(rows):
    """Rank over Q(i): half the exact rank of the real form [[A, -B], [B, A]] of rows = A + iB."""
    re = [[Fraction(getattr(x, "re", x)) for x in row] for row in rows]
    im = [[Fraction(getattr(x, "im", 0)) for x in row] for row in rows]
    return exact_rank([r + [-x for x in i] for r, i in zip(re, im)] + [i + r for r, i in zip(re, im)]) // 2


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row, no elimination."""
    if not m:
        return Fraction(1)
    minors = ([row[:j] + row[j + 1:] for row in m[1:]] for j in range(len(m)))
    return sum(((-1) ** j * m[0][j] * cofactor_det(minor) for j, minor in enumerate(minors)), start=Fraction(0))


def reference_inertia(m):
    """(pos, neg, null) of a symmetric rational or Hermitian Gauss-rational matrix.

    The rank is exact (`gauss_rank`).  The signs are those of the `rank` numpy
    eigenvalues of largest modulus.
    """
    n = len(m)
    rank = gauss_rank(m)
    re = [[float(getattr(x, "re", x)) for x in row] for row in m]
    im = [[float(getattr(x, "im", 0)) for x in row] for row in m]
    values = np.linalg.eigvalsh(np.array(re) + 1j * np.array(im))
    top = sorted(values, key=abs)[n - rank:]
    pos = sum(1 for x in top if x > 0)
    return (pos, rank - pos, n - rank)


# ---------------------------------------------------------------------------
# Reference conic sweep: the same pencil, guards and tolerance tests as the
# library's non-real domain branch, computed in mpmath with every sample
# rounded at the working precision instead of decided exactly.


def _mpf_of(x):
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def _mpc_of(x):
    re, im = (x.re, x.im) if hasattr(x, "im") else (Fraction(x), Fraction(0))
    return mpmath.mpc(_mpf_of(re), _mpf_of(im))


def _form3(m, w):
    return sum(w[i] * sum(m[i][j] * w[j] for j in range(3)) for i in range(3))


def _herm3(m, w):
    return sum(w[i] * sum(m[i][j] * mpmath.conj(w[j]) for j in range(3)) for i in range(3))


def _reference_base_point(A):
    for i, j in ((0, 1), (0, 2), (1, 2)):
        a, b, c = A[i][i], A[i][j], A[j][j]
        if a == 0 and b == 0 and c == 0:
            continue
        w = [mpmath.mpc(0)] * 3
        if a == 0:
            w[i] = mpmath.mpc(1)
            return tuple(w)
        s = (-_mpc_of(b) + mpmath.sqrt(_mpc_of(b * b - a * c))) / _mpc_of(a)
        w[i] = s
        w[j] = mpmath.mpc(1)
        return tuple(w)
    return None


def _reference_pencil_parameter(k):
    g = 17
    re = Fraction(2 * (k % g) - g + 1, g)
    im = Fraction(2 * ((k // g) % g) - g + 1, g)
    twist = Fraction(k % 5 - 2, 7)
    return mpmath.mpc(_mpf_of(re + twist), _mpf_of(im))


def _reference_second_intersection(An, base, lam):
    d = (mpmath.mpc(1), lam, lam * lam)
    alpha = _form3(An, d)
    beta = 2 * sum(base[i] * sum(An[i][j] * d[j] for j in range(3)) for i in range(3))
    if abs(alpha) < mpmath.mpf(2) ** (-mpmath.mp.prec // 2):
        return None
    tau = -beta / alpha
    if abs(tau) < mpmath.mpf(2) ** (-mpmath.mp.prec // 2):
        return None
    return tuple(base[i] + tau * d[i] for i in range(3))


def _reference_exact_point(threespace, A, H, w):
    """Rational reconstruction from float(x) (53 bits), exactly verified."""
    from k3cycles.gaussrat import GaussRational

    pivot = max(range(3), key=lambda i: abs(w[i]))
    coeffs = []
    for x in (w[i] / w[pivot] for i in range(3)):
        fr = Fraction(float(x.real)).limit_denominator(10**6)
        fi = Fraction(float(x.imag)).limit_denominator(10**6)
        coeffs.append(GaussRational(fr, fi))
    zero = GaussRational.of(0)
    if sum((coeffs[i] * A[i][j] * coeffs[j] for i in range(3) for j in range(3)), start=zero) != 0:
        return None
    h = sum((coeffs[i] * H[i][j] * coeffs[j].conjugate() for i in range(3) for j in range(3)), start=zero)
    if h.re > 0:
        return None
    return tuple(sum((coeffs[i] * threespace.basis[i][c] for i in range(3)), start=zero) for c in range(threespace.n))


def reference_conic_sweep(threespace, samples, bits, tolerance=1e-9):
    """(kind, samples, point, exact_point) of the mpmath sweep at `bits` bits.

    Only the ambient Gram and the basis of the three-space are read from it.
    """
    A, H = dense_grams(threespace)
    with mpmath.workprec(bits):
        An = [[_mpc_of(x) for x in row] for row in A]
        Hn = [[_mpc_of(x) for x in row] for row in H]
        Bn = [[_mpc_of(x) for x in row] for row in threespace.basis]
        E = [[sum(Bn[i][c] * mpmath.conj(Bn[j][c]) for c in range(threespace.n)) for j in range(3)] for i in range(3)]
        base = _reference_base_point(A) or (mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0))
        ok = attempt = 0
        while ok < samples and attempt < 4 * samples + 16:
            w = _reference_second_intersection(An, base, _reference_pencil_parameter(attempt))
            attempt += 1
            if w is None:
                continue
            scale = _herm3(E, w).real
            if scale <= 0 or abs(_form3(An, w)) / scale > tolerance:
                continue
            if _herm3(Hn, w).real / scale <= tolerance:
                point = tuple(sum(w[i] * Bn[i][c] for i in range(3)) for c in range(threespace.n))
                return "counterexample", ok, point, _reference_exact_point(threespace, A, H, w)
            ok += 1
        return ("sampled_ok" if ok == samples else "sampled_short"), ok, None, None


# ---------------------------------------------------------------------------
# Reference exact conic sample: the library's pencil polynomials in ell,
# evaluated at each complex ell = x + iy by Gaussian Horner steps, with the
# direction delta and its Hermitian products built per sample.


def _gauss_horner(coeffs, x, y):
    """sum_k c_k ell^k at ell = x + iy, Gaussian c_k with the constant term first."""
    re, im = coeffs[-1]
    for cr, ci in coeffs[-2::-1]:
        re, im = re * x - im * y + cr, re * y + im * x + ci
    return re, im


def reference_second_intersection(conic, ell):
    """((W E W*, W H W*), alpha, beta) or None, as `cyclespace._second_intersection`,
    from the sweep conic's polynomials in ell (its first seven fields) alone:
    delta = (D^2, D ell, ell^2) for the pencil denominator D = 119 and the
    |w_i|^2, Re and Im w_i conj(w_j) of delta (i < j) are formed at each ell."""
    _, alpha_poly, beta_poly, alpha_bound, half, bits, forms = conic[:7]
    x, y, D = *ell, 119
    ar, ai = _gauss_horner(alpha_poly, x, y)
    norm_alpha = ar * ar + ai * ai
    if norm_alpha << (2 * half) < alpha_bound:
        return None
    br, bi = _gauss_horner(beta_poly, x, y)
    norm_beta = br * br + bi * bi
    if norm_beta * D**4 << (2 * half) < norm_alpha << (2 * bits):
        return None
    (a, b), (c, d), (e, f) = (D * D, 0), (D * x, D * y), (x * x - y * y, 2 * x * y)
    products = (a * a + b * b, c * c + d * d, e * e + f * f, a * c + b * d, b * c - a * d, a * e + b * f, b * e - a * f, c * e + d * f, d * e - c * f)
    sr, si = ar * br + ai * bi, ai * br - ar * bi
    values = []
    for pmp, pm, coeffs in forms:
        cr, ci = _gauss_horner(pm, x, -y)  # p M conj(delta), a polynomial in conj(ell)
        values.append(norm_alpha * pmp - 2 * (sr * cr - si * ci) + norm_beta * sum(u * v for u, v in zip(coeffs, products)))
    return tuple(values), (ar, ai), (br, bi)
