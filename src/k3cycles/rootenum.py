"""Root enumeration: saturated orthogonal complements, exact Fincke-Pohst
branch-and-bound in definite lattices, and bounded searches in indefinite ones.

All enumeration output is lexicographically sorted and lists x and -x
explicitly, so CLI output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    AmbientMismatchError,
    DimensionMismatchError,
    InputError,
    InternalCheckError,
    NotPositiveDefiniteError,
    NotPositiveError,
    NotSymmetricError,
)
from .gaussrat import GaussRational, as_fraction
from .linalg import (
    clear_denominators,
    hnf,
    int_kernel,
    inverse,
    is_zero_vec,
    mat,
    mat_mul,
    transpose,
)
from .quadspace import IntegralLattice, hermitian_signature, signature


@dataclass(frozen=True)
class Sublattice:
    """Saturated sublattice of an integral lattice, with its restricted form."""

    ambient: IntegralLattice
    basis: tuple  # r x n integer rows, HNF-canonical
    restricted_gram: tuple  # r x r integer

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_ambient(self, coeffs):
        n = self.ambient.n
        out = [0] * n
        for t, row in zip(coeffs, self.basis):
            if t:
                for j in range(n):
                    out[j] += t * row[j]
        return tuple(out)


@dataclass(frozen=True)
class RootList:
    """Sorted list of norm -2 vectors; complete=True means provably exhaustive."""

    roots: tuple
    complete: bool
    bound_used: int | None = None

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _pair_int(gram, x, y):
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = gram[i]
            total += xi * sum(row[j] * yj for j, yj in enumerate(y) if yj)
    return total


def _check_norms(gram, vectors, norm, bound=None):
    """Re-verify enumerated vectors exactly (norm, and box when bound is given)."""
    for v in vectors:
        if _pair_int(gram, v, v) != norm or (bound is not None and any(abs(c) > bound for c in v)):
            raise InternalCheckError(f"enumerated vector {v} fails its norm {norm} or box {bound} check")


def _constraint_rows(lattice: IntegralLattice, constraints):
    """Primitive integer rows whose kernel is {x : <x, c> = 0 for all c}.

    Each constraint is scaled to integers first; scaling by k > 0 leaves the
    primitive row of G c unchanged.
    """
    g = lattice.gram_int
    n = lattice.n
    rows = []
    for c in constraints:
        if len(c) != n:
            raise DimensionMismatchError("constraint length does not match lattice rank")
        kc = [(j, cj) for j, cj in enumerate(clear_denominators(c)) if cj]
        pairing = [sum(row[j] * cj for j, cj in kc) for row in g]
        if any(pairing):
            rows.append(clear_denominators(pairing))
    return rows


def orthogonal_complement_lattice(lattice: IntegralLattice, constraints) -> Sublattice:
    """Saturated kernel {x in Z^n : <x, c> = 0 for all constraints c}."""
    rows = _constraint_rows(lattice, constraints)
    if not rows:
        basis = tuple(tuple(1 if i == j else 0 for j in range(lattice.n)) for i in range(lattice.n))
    else:
        basis = int_kernel(rows)
    g = lattice.gram_int
    restricted = tuple(
        tuple(_pair_int(g, bi, bj) for bj in basis) for bi in basis
    )
    return Sublattice(ambient=lattice, basis=basis, restricted_gram=restricted)


def _ldl(gram):
    """Fraction-free G = L D L^T of a positive-definite integer gram.

    Symmetric Bareiss elimination without pivoting: lead[i] is the leading
    principal minor of size i + 1, D[i] = lead[i] / lead[i-1] and
    L[j][i] = a / lead[i] for the integer pairs (j, a) in low[i].  Scaled by
    the common denominator `scale`, the Fincke-Pohst step
    D[i] (x_i + sum L[j][i] x_j)^2 is weight[i] * (lead[i] x_i + sum a x_j)^2.
    By Sylvester's criterion the form is positive definite iff every lead[i] > 0.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    lead, low = [], []
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            raise NotPositiveDefiniteError("form is not positive definite")
        low.append(tuple((r, a[r][k]) for r in range(k + 1, n) if a[r][k]))
        for r in range(k + 1, n):
            row, ark = a[r], a[r][k]
            for c in range(k + 1, r + 1):
                row[c] = (row[c] * p - ark * a[c][k]) // prev
        lead.append(p)
        prev = p
    dens = [p * q for p, q in zip(lead, [1] + lead)]
    scale = math.lcm(*dens)
    return lead, low, [scale // d for d in dens], scale


def _int_interval(s: int, lead: int, bound: int):
    """All integers x with (lead * x + s)^2 <= bound, as an inclusive (lo, hi) pair."""
    if bound < 0:
        return 1, 0
    t = math.isqrt(bound)
    return -((t + s) // lead), (t - s) // lead


def _fincke_pohst(gram, bound, exact: bool):
    """Sorted integer x with x^T gram x == bound (exact) or <= bound, posdef gram.

    Coordinates run from the last to the first inside exact integer intervals;
    the remaining norm is kept as an integer over the common denominator of
    the fraction-free LDL^T.  Rational grams and bounds are scaled to integers.
    """
    g = mat(gram)
    n = len(g)
    for i, row in enumerate(g):
        if len(row) != n:
            raise DimensionMismatchError("gram matrix must be square")
        if any(row[j] != g[j][i] for j in range(i)):
            raise NotSymmetricError("gram matrix is not symmetric")
    den = math.lcm(bound.denominator, *(x.denominator for row in g for x in row))
    lead, low, weight, scale = _ldl([[x.numerator * (den // x.denominator) for x in row] for row in g])
    x = [0] * n
    out = []

    def walk(i, rem):
        if i < 0:
            if rem == 0 or not exact:
                out.append(tuple(x))
            return
        s = 0
        for j, a in low[i]:
            s += a * x[j]
        p, w = lead[i], weight[i]
        lo, hi = _int_interval(s, p, rem // w)
        for v in range(lo, hi + 1):
            x[i] = v
            u = p * v + s
            walk(i - 1, rem - w * u * u)
        x[i] = 0

    walk(n - 1, bound.numerator * (den // bound.denominator) * scale)
    out.sort()
    return tuple(out)


def enumerate_norm_vectors(gram, target):
    """All integer x with x^T gram x == target, for positive-definite gram.

    Exact fraction-free Fincke-Pohst.  Output is lexicographically sorted and
    contains x and -x explicitly.
    """
    target = as_fraction(target)
    if target <= 0:
        raise InputError("target norm must be positive")
    g = mat(gram)
    out = _fincke_pohst(g, target, exact=True)
    _check_norms(g, out, target)
    return out


def roots_orthogonal_to_threespace(lattice: IntegralLattice, threespace) -> RootList:
    """Complete list of roots of the lattice orthogonal to a positive three-space."""
    if threespace.ambient.gram != lattice.space.gram:
        raise AmbientMismatchError("three-space ambient does not match lattice")
    if hermitian_signature(threespace.hermitian_gram()) != (3, 0, 0):
        raise NotPositiveError("three-space must be positive for complete root enumeration")
    constraints = []
    for row in threespace.basis:
        constraints.append(tuple(GaussRational.of(x).re for x in row))
        constraints.append(tuple(GaussRational.of(x).im for x in row))
    constraints = [c for c in constraints if not is_zero_vec(c)]
    sub = orthogonal_complement_lattice(lattice, constraints)
    if sub.rank == 0:
        return RootList(roots=(), complete=True)
    neg = tuple(tuple(-x for x in row) for row in sub.restricted_gram)
    roots = sorted(sub.to_ambient(t) for t in enumerate_norm_vectors(neg, 2))
    _check_norms(lattice.gram_int, roots, -2)
    return RootList(roots=tuple(roots), complete=True)


def _enumerate_up_to(gram, radius):
    """All integer x (including 0) with x^T gram x <= radius, posdef gram."""
    radius = as_fraction(radius)
    if radius < 0:
        return ()
    return _fincke_pohst(gram, radius, exact=False)


def _components(m):
    """Connected components of indices under the nonzero off-diagonal graph."""
    n = len(m)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and m[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _box_slack(basis, W, rows_excluded, n):
    """Per ambient coordinate: max |contribution| of the excluded rows."""
    slack = [0] * n
    for k in rows_excluded:
        for c in range(n):
            if basis[k][c]:
                slack[c] += abs(basis[k][c]) * W[k]
    return slack


def bounded_root_search(lattice: IntegralLattice, constraints, coord_bound: int) -> RootList:
    """All roots satisfying the constraints with every ambient coordinate in
    [-coord_bound, coord_bound]; complete=False records the box semantics.

    The constraint kernel carries the restricted form.  When that form is
    negative definite the search is a complete Fincke-Pohst enumeration
    filtered by the box.  Otherwise the form splits into orthogonal blocks
    whose norms add: each block contributes a finite candidate set (short
    vectors for definite blocks, box scans for small indefinite ones) and an
    assembly walk matches block norms to the target.  Neither stage discards
    a vector of the box, so the output equals the exhaustive filtered scan.
    """
    if coord_bound < 0:
        raise InputError("coordinate bound must be >= 0")
    rows = _constraint_rows(lattice, constraints)
    basis = int_kernel(rows) if rows else hnf(tuple(tuple(1 if i == j else 0 for j in range(lattice.n)) for i in range(lattice.n)))
    r = len(basis)
    if r == 0 or coord_bound == 0:
        return RootList(roots=(), complete=False, bound_used=coord_bound)
    n = lattice.n
    g = lattice.gram_int
    C = tuple(tuple(_pair_int(g, bi, bj) for bj in basis) for bi in basis)

    # Exact per-coefficient bounds over the box: t = x B^T (B B^T)^{-1} is
    # linear in the boxed ambient coordinates, so |t_j| <= bound * L1(col j).
    bt = transpose(basis)
    extraction = mat_mul(bt, inverse(mat_mul(basis, bt)))  # n x r, exact
    W = [int(coord_bound * sum(abs(extraction[i][j]) for i in range(n))) for j in range(r)]

    def in_box(vector, limit):
        return all(abs(c) <= limit for c in vector)

    sig = signature(C)
    if sig[0] == 0 and sig[2] == 0:
        # Negative definite restriction: complete enumeration, then box filter.
        neg = tuple(tuple(-x for x in row) for row in C)
        full = Sublattice(lattice, basis, C)
        roots = sorted(v for v in map(full.to_ambient, enumerate_norm_vectors(neg, 2)) if in_box(v, coord_bound))
        _check_norms(g, roots, -2, coord_bound)
        return RootList(roots=tuple(roots), complete=False, bound_used=coord_bound)

    comps = _components(C)
    block_data = []
    for comp in comps:
        sub = tuple(tuple(C[i][j] for j in comp) for i in comp)
        Wb = [W[i] for i in comp]
        ssig = signature(sub)
        slack = _box_slack(basis, W, [k for k in range(r) if k not in comp], n)
        # Candidate block coefficient vectors with their block norms.
        cands = {}

        def keep(tb):
            xb = [0] * n
            for tv, k in zip(tb, comp):
                if tv:
                    for c in range(n):
                        xb[c] += tv * basis[k][c]
            if any(abs(xb[c]) > coord_bound + slack[c] for c in range(n)):
                return
            norm = sum(tb[a] * sub[a][b] * tb[b] for a in range(len(comp)) for b in range(len(comp)))
            cands.setdefault(norm, []).append(tuple(tb))

        if ssig[0] == 0 and ssig[2] == 0:
            # negative definite block: short vectors only (norm >= -gap is
            # settled later; enumerate down to the worst possible need)
            block_data.append((comp, sub, Wb, ssig, cands, slack, "negdef"))
        else:
            boxsize = 1
            for wv in Wb:
                boxsize *= 2 * wv + 1
            if boxsize > 2_000_000:
                raise InputError("bounded search box is too large for the indefinite block structure")
            for tb in itertools.product(*[range(-wv, wv + 1) for wv in Wb]):
                keep(tb)
            block_data.append((comp, sub, Wb, ssig, cands, slack, "scan"))

    # Max norm gain each block can contribute (exact for scanned blocks).
    gains = []
    for comp, sub, Wb, ssig, cands, slack, kind in block_data:
        if kind == "negdef":
            gains.append(0)
        else:
            gains.append(max(cands.keys(), default=0))
    total_gain = sum(gains)

    # Fill candidate sets of negative definite blocks down to the reachable floor.
    for idx, (comp, sub, Wb, ssig, cands, slack, kind) in enumerate(block_data):
        if kind != "negdef":
            continue
        floor = -2 - (total_gain - gains[idx])
        radius = -floor  # enumerate block vectors with -norm <= radius
        neg = tuple(tuple(-x for x in row) for row in sub)
        for tb in _enumerate_up_to(neg, radius):
            xb = [0] * n
            for tv, k in zip(tb, comp):
                if tv:
                    for c in range(n):
                        xb[c] += tv * basis[k][c]
            if any(abs(xb[c]) > coord_bound + slack[c] for c in range(n)):
                continue
            norm = sum(tb[a] * sub[a][b] * tb[b] for a in range(len(comp)) for b in range(len(comp)))
            cands.setdefault(norm, []).append(tuple(tb))

    # Assemble block choices whose norms sum to -2.
    mins = [min(bd[4].keys(), default=0) for bd in block_data]
    maxs = [max(bd[4].keys(), default=0) for bd in block_data]
    suffix_min = [0] * (len(block_data) + 1)
    suffix_max = [0] * (len(block_data) + 1)
    for i in range(len(block_data) - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + mins[i]
        suffix_max[i] = suffix_max[i + 1] + maxs[i]

    out = []
    t_full = [0] * r

    def assemble(i, acc):
        if i == len(block_data):
            if acc == -2:
                v = [0] * n
                for k in range(r):
                    if t_full[k]:
                        for c in range(n):
                            v[c] += t_full[k] * basis[k][c]
                v = tuple(v)
                if in_box(v, coord_bound):
                    out.append(v)
            return
        comp, sub, Wb, ssig, cands, slack, kind = block_data[i]
        for norm, tlist in cands.items():
            rest = -2 - acc - norm
            if rest < suffix_min[i + 1] or rest > suffix_max[i + 1]:
                continue
            for tb in tlist:
                for tv, kk in zip(tb, comp):
                    t_full[kk] = tv
                assemble(i + 1, acc + norm)
                for kk in comp:
                    t_full[kk] = 0

    assemble(0, 0)
    out.sort()
    _check_norms(g, out, -2, coord_bound)
    return RootList(roots=tuple(out), complete=False, bound_used=coord_bound)
