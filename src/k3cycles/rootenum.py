"""Root enumeration: saturated orthogonal complements, integral LLL reduction,
exact Fincke-Pohst branch-and-bound in definite lattices, and block joins.

One Fincke-Pohst walk, `_enumerate_up_to`, lists the vectors of a positive
definite integer Gram out to an integer radius by norm, carrying each
vector's ambient image and checking each leaf's norm against the Gram.  Each
root search splits the form on a lattice basis into orthogonal blocks and
joins them to norm -2 itself.  The complete search reduces the complement of
a positive three-space by an LLL that tracks only its transform H, checks
det H = +-1, and takes its blocks from the ambient Gram of the reduced rows;
all are negative definite, so a root is a -2 vector of one block or the sum
of -1 vectors of two blocks (in <-1> + <-1>, the root (1, 1)).  The bounded
search (`_block_roots`) walks or box-scans the blocks of the constraint
kernel and joins them over a coordinate box.

All enumeration output is lexicographically sorted and lists x and -x
explicitly, so CLI output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter, le, mul

from .errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DimensionMismatchError,
    InputError,
    InternalCheckError,
    NotPositiveDefiniteError,
    NotPositiveError,
)
from .gaussrat import as_fraction
from .linalg import _symmetric_bareiss, clear_denominators, det, identity_int, int_kernel, mat
from .quadspace import IntegralLattice, _cleared, gram_apply, pair_rows, sparse_rows


@dataclass(frozen=True)
class Sublattice:
    """Saturated sublattice of an integral lattice, with its restricted form."""

    ambient: IntegralLattice
    basis: tuple  # r x n integer rows, HNF-canonical
    restricted_gram: tuple  # r x r integer

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def sparse_basis(self):
        """Per basis row, its nonzero (j, b) entries."""
        return sparse_rows(self.basis)

    def to_ambient(self, coeffs):
        out = [0] * self.ambient.n
        for t, row in zip(coeffs, self.sparse_basis):
            if t:
                for j, b in row:
                    out[j] += t * b
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


def _check_norms(gram, vectors, norm, bound=None):
    """Re-verify enumerated vectors exactly: every norm, and the box when bound is given.

    A vector's norm is the sum of the norms of its parts on the connected
    blocks of the Gram, and it lies in the box iff every part does.  Both are
    decided once per distinct part, over the block's sparse rows.
    """
    totals = [0] * len(vectors)
    boxed = True
    for comp in _components(gram):
        rows = sparse_rows([[gram[i][j] for j in comp] for i in comp])

        def parts():
            return zip(*(map(itemgetter(i), vectors) for i in comp))

        seen = {x: pair_rows(rows, x, x) for x in set(parts())}
        if bound is not None:
            boxed = boxed and all(max(x) <= bound and min(x) >= -bound for x in seen)
        totals = list(map(add, totals, map(seen.__getitem__, parts())))
    if not boxed or totals.count(norm) != len(totals):
        bad = next(v for v, t in zip(vectors, totals) if t != norm or bound is not None and (max(v) > bound or min(v) < -bound))
        raise InternalCheckError(f"enumerated vector {bad} fails its norm {norm} or box {bound} check")


def _constraint_rows(lattice: IntegralLattice, constraints):
    """Primitive integer rows whose kernel is {x : <x, c> = 0 for all c}.

    Each constraint is scaled to integers first; scaling by k > 0 leaves the
    primitive row of G c unchanged.
    """
    rows = []
    for c in constraints:
        if len(c) != lattice.n:
            raise DimensionMismatchError("constraint length does not match lattice rank")
        pairing = gram_apply(lattice.space.sparse_rows, clear_denominators(c))
        if any(pairing):
            rows.append(clear_denominators(pairing))
    return rows


def orthogonal_complement_lattice(lattice: IntegralLattice, constraints) -> Sublattice:
    """Saturated kernel {x in Z^n : <x, c> = 0 for all constraints c}."""
    rows = _constraint_rows(lattice, constraints)
    basis = int_kernel(rows) if rows else identity_int(lattice.n)
    return Sublattice(ambient=lattice, basis=basis, restricted_gram=_ambient_gram(lattice, basis))


def _ambient_gram(lattice: IntegralLattice, rows):
    """The Gram of integer rows under the lattice form: one image G b_i per
    row, paired with b_j for j >= i and mirrored."""
    r = len(rows)
    out = [[0] * r for _ in range(r)]
    for i, bi in enumerate(rows):
        image = gram_apply(lattice.space.sparse_rows, bi)
        for j in range(i, r):
            out[i][j] = out[j][i] = sum(map(mul, image, rows[j]))
    return tuple(map(tuple, out))


def _ldl(gram):
    """Fraction-free G = L D L^T of a positive-definite integer gram, read off
    its `_symmetric_bareiss`: lead[i] is the leading principal minor of size
    i + 1, D[i] = lead[i] / lead[i-1], L[j][i] = a / lead[i] for (j, a) in
    low[i], and over the common denominator `scale` the Fincke-Pohst step
    D[i] (x_i + sum L[j][i] x_j)^2 is weight[i] (lead[i] x_i + sum a x_j)^2.
    """
    if any(gram[i][i] <= 0 for i in range(len(gram))):  # e_i^T G e_i <= 0: no elimination needed
        raise NotPositiveDefiniteError("form is not positive definite")
    order, lead, low, _ = _symmetric_bareiss(gram)
    if order != list(range(len(gram))) or not all(p > 0 for p in lead):  # Sylvester's criterion
        raise NotPositiveDefiniteError("form is not positive definite")
    dens = [p * q for p, q in zip(lead, [1] + lead)]
    scale = math.lcm(*dens)
    return lead, low, [scale // d for d in dens], scale


def _positive_definite(gram) -> bool:
    """Whether an integer Gram is positive definite: its `_ldl` exists."""
    try:
        _ldl(gram)
    except NotPositiveDefiniteError:
        return False
    return True


def _int_interval(s: int, lead: int, bound: int):
    """All integers x with (lead * x + s)^2 <= bound, as an inclusive (lo, hi) pair."""
    if bound < 0:
        return 1, 0
    t = math.isqrt(bound)
    return -((t + s) // lead), (t - s) // lead


def _enumerate_up_to(gram, radius, rows):
    """The images sum_k t_k rows[k] of the integer t (0 included) with
    t^T gram t <= radius, grouped by that norm, for a positive-definite
    integer gram and an integer radius.

    Coordinates run from the last to the first inside exact integer intervals;
    the remaining norm is kept as an integer over the common denominator of
    the fraction-free LDL^T, and each coordinate step adds one sparse row to
    the image.  Each leaf's norm, summed from the gram's entries along the
    path, is checked against the radius.
    """
    if radius < 0:
        return {}
    lead, low, weight, scale = _ldl(gram)
    # norm(x) from the gram: setting x_i = v adds v (g_ii v + 2 sum_{j > i} g_ij x_j)
    above = [[(j, 2 * a) for j, a in row if j > i] for i, row in enumerate(sparse_rows(gram))]
    live = sparse_rows(rows)
    x, image, out = [0] * len(gram), [0] * max(map(len, rows), default=0), {}

    def walk(i, rem, norm):
        if i < 0:
            if not 0 <= norm <= radius:
                raise InternalCheckError(f"block vector {tuple(x)} has norm {norm} outside the walk radius {radius}")
            out.setdefault(norm, []).append(tuple(image))
            return
        s = e = 0
        for j, a in low[i]:
            s += a * x[j]
        for j, a in above[i]:
            e += a * x[j]
        p, w, gii, row = lead[i], weight[i], gram[i][i], live[i]
        lo, hi = _int_interval(s, p, rem // w)
        for c, b in row:
            image[c] += lo * b
        for v in range(lo, hi + 1):
            x[i] = v
            u = p * v + s
            walk(i - 1, rem - w * u * u, norm + v * (gii * v + e))
            for c, b in row:
                image[c] += b
        for c, b in row:
            image[c] -= (hi + 1) * b
        x[i] = 0

    walk(len(gram) - 1, radius * scale, 0)
    return out


def enumerate_norm_vectors(gram, target):
    """All integer x with x^T gram x == target, for positive-definite gram.

    One fraction-free Fincke-Pohst walk over the gram cleared to integers; a
    target that clears to a non-integer has no vectors.  Output is
    lexicographically sorted and contains x and -x explicitly.
    """
    target = as_fraction(target)
    if target <= 0:
        raise InputError("target norm must be positive")
    g, den = _cleared(mat(gram))
    top = target * den
    out = tuple(sorted(_enumerate_up_to(g, math.floor(top), identity_int(len(g))).get(top, ())))
    _check_norms(g, out, top)
    return out


def _lll(gram):
    """Integral LLL reduction (delta = 3/4) of a positive-definite integer Gram.

    Returns a unimodular H with H gram H^T reduced.  This is Cohen's
    all-integer Alg. 2.6.7 (A Course in Computational Algebraic Number Theory)
    carrying H, d and lam alone: d[i] is the Gram determinant of the first i
    basis vectors and lam[k][j] = d[j + 1] mu[k][j], both integers, updated in
    place by the size reductions and swaps; every division is exact.  Index k
    is orthogonalised once, while b_k is still e_k, so b_k . b_j is
    sum_c gram[k][c] H[j][c].  A Gram determinant <= 0 means the form is not
    positive definite.
    """
    n = len(gram)
    sparse = sparse_rows(gram)
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def orthogonalize(k):
        lk = lam[k]
        for j in range(k + 1):
            u, lj, hj = 0, lam[j], h[j]
            for c, a in sparse[k]:
                u += a * hj[c]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            elif u <= 0:
                raise NotPositiveDefiniteError("form is not positive definite")
            else:
                d[k + 1] = u

    def reduce(k, l):
        # b_k -= q b_l for q the integer nearest to mu[k][l]
        lk, dl = lam[k], d[l + 1]
        q = (2 * lk[l] + dl) // (2 * dl)
        h[k] = [a - q * b for a, b in zip(h[k], h[l])]
        lk[l] -= q * dl
        ll = lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def swap(k, kmax):
        # exchange b_k and b_{k-1}
        h[k - 1], h[k] = h[k], h[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        m, dk, dk1 = lam[k][k - 1], d[k], d[k + 1]
        b = (d[k - 1] * dk1 + m * m) // dk
        for i in range(k + 1, kmax + 1):
            li = lam[i]
            t = li[k]
            li[k] = u = (dk1 * li[k - 1] - m * t) // dk
            li[k - 1] = (b * t + m * u) // dk1
        d[k] = b

    if n:
        orthogonalize(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            orthogonalize(k)
        lk = lam[k]
        if 2 * abs(lk[k - 1]) > d[k]:
            reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk[k - 1] * lk[k - 1]:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lk[l]) > d[l + 1]:
                    reduce(k, l)
            k += 1
    return tuple(map(tuple, h))


def roots_orthogonal_to_threespace(lattice: IntegralLattice, threespace) -> RootList:
    """Complete list of roots of the lattice orthogonal to a positive three-space.

    The negated form on the saturated complement is LLL-reduced; det H = +-1
    certifies, once per call, that the reduced rows span it.  The blocks come
    from the ambient Gram of those rows, so block norms are ambient norms.
    """
    if threespace.ambient != lattice.space:
        raise AmbientMismatchError("three-space ambient does not match lattice")
    if threespace.hermitian_inertia != (3, 0, 0):
        raise NotPositiveError("three-space must be positive for complete root enumeration")
    re, im, _ = threespace.ints  # the re and im rows, scaled to integers by the same d > 0
    sub = orthogonal_complement_lattice(lattice, [c for c in re + im if any(c)])
    if sub.rank == 0:
        return RootList(roots=(), complete=True)
    H = _lll(tuple(tuple(-x for x in row) for row in sub.restricted_gram))
    if abs(det(H)) != 1:
        raise InternalCheckError("LLL transform is not unimodular")
    rows = [sub.to_ambient(t) for t in H]
    gram = _ambient_gram(lattice, rows)
    # a root is one block's -2 vector or the sum of -1 vectors of two blocks
    shells = [_enumerate_up_to([[-gram[i][j] for j in comp] for i in comp], 2, [rows[k] for k in comp]) for comp in _components(gram)]
    roots = [x for shell in shells for x in shell.get(2, ())]
    roots += [tuple(map(add, x, y)) for a, b in itertools.combinations(shells, 2) for x in a.get(1, ()) for y in b.get(1, ())]
    roots.sort()
    return RootList(roots=tuple(roots), complete=True)


def _components(m):
    """Connected components of indices under the nonzero off-diagonal graph."""
    seen, comps = set(), []
    for s in range(len(m)):
        if s not in seen:
            seen.add(s)
            comp, stack = [], [s]
            while stack:
                i = stack.pop()
                comp.append(i)
                stack += [j for j, x in enumerate(m[i]) if x and j not in seen]
                seen.update(stack)
            comps.append(sorted(comp))
    return comps


def _coefficient_bounds(basis, bound):
    """W_j = floor(bound * sum_i |(M^-1 B)_{j,i}|) for B = basis, M = B B^T.

    A kernel vector x = t B has t = x B^T M^-1, so |t_j| <= W_j over the box.
    Fraction-free Gauss-Jordan (Bareiss) on [M | B] ends at [d I | d M^-1 B]
    with d = det M > 0; M is positive definite, so no pivot is zero and every
    division is exact.
    """
    r = len(basis)
    a = [[sum(map(mul, bi, bj)) for bj in basis] + list(bi) for bi in basis]
    prev = 1
    for k in range(r):
        pivot_row, p = a[k], a[k][k]
        for i in range(r):
            f = a[i][k]
            if i != k:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return [bound * sum(map(abs, row[r:])) // prev for row in a]


def _block_table(block, rows, coeffs, limit):
    """The ambient partials sum_k t_k rows[k] of one scanned block, grouped by
    the exact block norm t^T block t, for the coefficient vectors t whose
    partial lies inside the per-coordinate limit."""
    n, live = len(rows[0]), sparse_rows(rows)
    # t^T block t over the upper triangle, with off-diagonal entries doubled
    upper = [[(j, g if j == k else 2 * g) for j, g in row if j >= k] for k, row in enumerate(sparse_rows(block))]
    table = {}
    for t in coeffs:
        x = [0] * n
        for tk, row in zip(t, live):
            if tk:
                for c, b in row:
                    x[c] += tk * b
        if not all(map(le, map(abs, x), limit)):
            continue
        norm = 0
        for tk, row in zip(t, upper):
            if tk:
                for j, g in row:
                    norm += tk * g * t[j]
        table.setdefault(norm, []).append(tuple(x))
    return table


def _join(tables, target, bound, n, shared):
    """Every sum of one length-n partial per table whose norms add up to
    target and whose coordinates lie in [-bound, bound].

    Depth-first over the tables in order; a norm group is entered only if the
    tables after it can still make up the rest, and the last table is looked
    up by the exact rest.  Each table's partials are already in the box on the
    coordinates no other table touches, so the leaves are tested on the
    `shared` coordinates only.
    """
    # lo[i], hi[i]: the least and greatest norm sums of the tables after i
    lo = list(itertools.accumulate(map(min, reversed(tables[1:])), initial=0))[::-1]
    hi = list(itertools.accumulate(map(max, reversed(tables[1:])), initial=0))[::-1]
    out = []
    last = len(tables) - 1

    def walk(i, acc, norm):
        if i == last:
            leaves = [tuple(map(add, acc, p)) for p in tables[i].get(target - norm, ())]
            if shared:
                leaves = [v for v in leaves if all(-bound <= v[c] <= bound for c in shared)]
            out.extend(leaves)
            return
        for a, partials in tables[i].items():
            if lo[i] <= target - norm - a <= hi[i]:
                for p in partials:
                    walk(i + 1, tuple(map(add, acc, p)), norm + a)

    walk(0, (0,) * n, 0)
    return out


def _block_roots(n, rows, gram, coord_bound):
    """The vectors x = sum_k t_k rows[k] (length n) with t^T gram t = -2 and
    every coordinate in [-coord_bound, coord_bound].

    Negative definite blocks are walked down to -2 minus the most the scanned
    blocks can add, every coefficient is bounded over the box by W, other
    blocks are scanned over their W-box (at most 2,000,000 points), a
    per-coordinate filter that allows for what the other blocks can add drops
    partials that cannot reach the box, and `_join` tests the box on the
    coordinates two blocks share.
    """
    comps = _components(gram)
    blocks = [tuple(tuple(gram[i][j] for j in comp) for i in comp) for comp in comps]
    negs = [tuple(tuple(-x for x in row) for row in block) for block in blocks]
    sparse, W = sparse_rows(rows), _coefficient_bounds(rows, coord_bound)
    limits = [[coord_bound] * n for _ in comps]
    for i, j in itertools.permutations(range(len(comps)), 2):  # block i's limit allows for what block j can add
        for k in comps[j]:
            for c, b in sparse[k]:
                limits[i][c] += abs(b) * W[k]
    # A coordinate touched by the rows of one block only gets no slack, so its block's filter settles it.
    touched = [{c for k in comp for c, _ in sparse[k]} for comp in comps]
    shared = [c for c in range(n) if sum(c in t for t in touched) > 1]
    tables, walked = {}, []
    for i, comp in enumerate(comps):
        if _positive_definite(negs[i]):
            walked.append(i)
            continue
        boxsize = math.prod(2 * W[k] + 1 for k in comp)
        if boxsize > 2_000_000:
            raise BudgetExceededError(f"indefinite block box of {boxsize} points exceeds the 2,000,000-point budget")
        box = itertools.product(*[range(-W[k], W[k] + 1) for k in comp])
        tables[i] = _block_table(blocks[i], [rows[k] for k in comp], box, limits[i])
    radius = 2 + sum(max(table) for table in tables.values())
    for i in walked:
        walk = _enumerate_up_to(negs[i], radius, [rows[k] for k in comps[i]])
        # partials in order leave the join's output nearly sorted
        tables[i] = {-a: kept for a, xs in walk.items() if (kept := sorted(x for x in xs if all(map(le, map(abs, x), limits[i]))))}
    return _join([tables[i] for i in sorted(tables)], -2, coord_bound, n, shared)


def bounded_root_search(lattice: IntegralLattice, constraints, coord_bound: int) -> RootList:
    """All roots satisfying the constraints with every ambient coordinate in
    [-coord_bound, coord_bound]; complete=False records the box semantics.

    The roots lie in the saturated constraint kernel, whose blocks
    `_block_roots` joins over the box, so the output equals the exhaustive
    filtered scan; every root is then re-checked in ambient coordinates.
    """
    if isinstance(coord_bound, bool) or not isinstance(coord_bound, int):
        raise InputError(f"coordinate bound must be an integer, got {coord_bound!r}")
    if coord_bound < 0:
        raise InputError("coordinate bound must be >= 0")
    sub = orthogonal_complement_lattice(lattice, constraints)
    if sub.rank == 0 or coord_bound == 0:
        return RootList(roots=(), complete=False, bound_used=coord_bound)
    roots = _block_roots(lattice.n, sub.basis, sub.restricted_gram, coord_bound)
    roots.sort()
    _check_norms(lattice.gram_int, roots, -2, coord_bound)
    return RootList(roots=tuple(roots), complete=False, bound_used=coord_bound)
