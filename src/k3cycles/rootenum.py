"""Root enumeration: saturated orthogonal complements, integral LLL reduction,
exact Fincke-Pohst branch-and-bound in definite lattices, and block joins.

One Fincke-Pohst walk, `_enumerate_up_to`, lists the vectors of a positive
definite integer Gram out to an integer radius by norm, walking one of each
+-x, carrying each vector's ambient image if given rows and checking each
leaf's norm in its last level's loop.  Each root search splits the form on a
lattice basis into orthogonal blocks and joins them to norm -2 itself.  The
complete search reduces the Euclid basis of the saturated complement of a
positive three-space (no HNF) by an LLL that tracks only its transform H,
checks det H = +-1 by Euclid pivots, and takes its blocks from the ambient
Gram of the reduced rows; all are negative definite, so a root is a -2
vector of one block or the sum of -1 vectors of two blocks (in <-1> + <-1>,
the root (1, 1)).
The bounded search (`_block_roots`) joins one walked or box-scanned table per
kernel block over a coordinate box into roots, each one concatenation of block
parts.  Each block is walked or scanned, boxed and certified per table entry
in its local coordinates, its own and the shared ones only, and blocks with
equal local data share one table.  Walks are clipped to the box's coefficient
bounds (box-constrained Fincke-Pohst); the join extends every prefix of one
path of norm keys at once, one call per key path, checking each leaf group.

All enumeration output is lexicographically sorted and lists x and -x
explicitly, so CLI output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter, mul, neg

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
from .linalg import _gauss_jordan, _is_unimodular, _kernel_rows, _symmetric_bareiss, clear_rows, identity_int, int_kernel, mat
from .quadspace import IntegralLattice, _cleared, gram_apply, pair_rows, row_gram, sparse_rows


@dataclass(frozen=True)
class Sublattice:
    """Saturated sublattice of an integral lattice, with its restricted form."""

    ambient: IntegralLattice
    basis: tuple  # r x n integer rows, HNF-canonical from orthogonal_complement_lattice
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


def _constraint_rows(lattice: IntegralLattice, constraints):
    """Integer rows whose kernel is {x : <x, c> = 0 for all c}: the nonzero images
    G c of the constraints, all scaled to integers by one k > 0, which keeps the kernel."""
    ratios = [[(x, 1) if type(x) is int else as_fraction(x).as_integer_ratio() for x in c] for c in constraints]
    if any(len(c) != lattice.n for c in ratios):
        raise DimensionMismatchError("constraint length does not match lattice rank")
    ints, _ = clear_rows(ratios)
    images = (gram_apply(lattice.space.sparse_rows, c) for c in ints)
    return [row for row in images if any(row)]


def orthogonal_complement_lattice(lattice: IntegralLattice, constraints) -> Sublattice:
    """Saturated kernel {x in Z^n : <x, c> = 0 for all constraints c}."""
    rows = _constraint_rows(lattice, constraints)
    basis = int_kernel(rows) if rows else identity_int(lattice.n)
    return Sublattice(ambient=lattice, basis=basis, restricted_gram=row_gram(lattice.space.sparse_rows, basis))


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


def _enumerate_up_to(gram, radius, rows=None, clip=None):
    """The images sum_k t_k rows[k] of the integer t (0 included) with
    t^T gram t <= radius and, given a clip, |t_k| <= clip[k], grouped by that
    norm, for a positive-definite integer gram and an integer radius; with no
    rows, the t themselves.

    Coordinates run from the last to the first inside exact integer intervals;
    the remaining norm is kept as an integer over the common denominator of the
    fraction-free LDL^T, and each coordinate step adds one sparse row to the
    image.  Level 0 emits its leaves in its own loop, one per x_0, with no call
    below it.  Each leaf's norm, summed from the gram's entries along the path,
    is checked against the radius; with no rows the leaf is emitted as its
    coefficient vector itself, the vector whose norm was checked.  While all
    coordinates walked are 0 the interval is symmetric (checked): only x_i >= 0
    is walked, and each nonzero leaf is emitted with its negation.  A clip
    (each clip[k] >= 0) intersects each interval with [-clip[k], clip[k]]
    before that check, and a level whose clipped interval is empty is skipped,
    so its image steps, which would not cancel, are never taken.
    """
    if radius < 0 or not gram:  # rank 0: the one vector is ()
        return {0: [()]} if radius >= 0 else {}
    lead, low, weight, scale = _ldl(gram)
    # norm(x) from the gram: setting x_i = v adds v (g_ii v + 2 sum_{j > i} g_ij x_j)
    above = [[(j, 2 * a) for j, a in row if j > i] for i, row in enumerate(sparse_rows(gram))]
    x, out = [0] * len(gram), {}
    # with no rows there is no image to build: each leaf is x itself
    live, image = ([()] * len(gram), x) if rows is None else (sparse_rows(rows), [0] * len(rows[0]))

    def walk(i, rem, norm, zero):
        s = e = 0
        for j, a in low[i]:
            s += a * x[j]
        for j, a in above[i]:
            e += a * x[j]
        p, w, gii, row = lead[i], weight[i], gram[i][i], live[i]
        lo, hi = _int_interval(s, p, rem // w)
        if clip is not None:
            lo, hi = max(lo, -clip[i]), min(hi, clip[i])
            if lo > hi:
                return
        if zero and lo != -hi:  # x_j = 0 for j > i, so s = 0: walk x_i >= 0 and mirror the leaves
            raise InternalCheckError(f"the zero path's interval ({lo}, {hi}) is not symmetric")
        lo = max(lo, 0) if zero else lo
        for c, b in row:
            image[c] += lo * b
        if i:
            for v in range(lo, hi + 1):
                x[i] = v
                u = p * v + s
                walk(i - 1, rem - w * u * u, norm + v * (gii * v + e), zero and not v)
                for c, b in row:
                    image[c] += b
        else:  # the leaves
            for v in range(lo, hi + 1):
                x[0] = v
                leaf_norm = norm + v * (gii * v + e)
                if not 0 <= leaf_norm <= radius:
                    raise InternalCheckError(f"block vector {tuple(x)} has norm {leaf_norm} outside the walk radius {radius}")
                leaf = tuple(image)
                out.setdefault(leaf_norm, []).extend((leaf,) if zero and not v else (leaf, tuple(map(neg, leaf))))
                for c, b in row:
                    image[c] += b
        for c, b in row:
            image[c] -= (hi + 1) * b
        x[i] = 0

    walk(len(gram) - 1, radius * scale, 0, True)
    return out


def enumerate_norm_vectors(gram, target):
    """All integer x with x^T gram x == target, for positive-definite gram.

    One fraction-free Fincke-Pohst walk over the gram cleared to integers; a
    target that clears to a non-integer has no vectors, so only `_ldl` runs,
    to decide definiteness.  Output is lexicographically sorted and contains
    x and -x explicitly.
    """
    target = as_fraction(target)
    if target <= 0:
        raise InputError("target norm must be positive")
    g, den = _cleared(mat(gram))
    top, rest = divmod(target * den, 1)
    if rest:
        _ldl(g)
        return ()
    return tuple(sorted(_enumerate_up_to(g, top).get(top, ())))


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

    The negated form on the saturated complement is LLL-reduced from any basis
    of it, the Euclid rows of its kernel (the HNF is only for `Sublattice`
    output); det H = +-1, read off Euclid pivots that must all be 1, certifies,
    once per call, that the reduced rows span it.  The blocks come from the
    ambient Gram of those rows, so block norms are ambient norms.
    """
    if threespace.ambient != lattice.space:
        raise AmbientMismatchError("three-space ambient does not match lattice")
    if threespace.hermitian_inertia != (3, 0, 0):
        raise NotPositiveError("three-space must be positive for complete root enumeration")
    re, im, _ = threespace.ints  # the re and im rows, scaled to integers by the same d > 0
    basis = _kernel_rows(_constraint_rows(lattice, [c for c in re + im if any(c)]))  # G nondegenerate: rows nonempty
    sub = Sublattice(ambient=lattice, basis=basis, restricted_gram=row_gram(lattice.space.sparse_rows, basis))
    if sub.rank == 0:
        return RootList(roots=(), complete=True)
    H = _lll(tuple(tuple(-x for x in row) for row in sub.restricted_gram))
    if not _is_unimodular(H):
        raise InternalCheckError("LLL transform is not unimodular")
    rows = [sub.to_ambient(t) for t in H]
    gram = row_gram(lattice.space.sparse_rows, rows)
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
    M^-1 is block diagonal over the components of M, so each component's rows
    are solved alone: Gauss-Jordan on [M_c | B_c] ends at [d I | d M_c^-1 B_c]
    with d = det M_c > 0; M_c is positive definite, so no pivot is zero and no
    row moves.
    """
    m = [[sum(map(mul, bi, bj)) for bj in basis] for bi in basis]
    W = [0] * len(basis)
    for comp in _components(m):
        a = [[m[i][j] for j in comp] + list(basis[i]) for i in comp]
        d = _gauss_jordan(a, len(comp))
        for i, row in zip(comp, a):
            W[i] = bound * sum(map(abs, row[len(comp):])) // d
    return W


def _block_table(neg, rows, coeffs, m, bound):
    """The partials sum_k t_k rows[k] of one scanned block in its local
    coordinates, grouped by the exact block norm -t^T neg t (`neg` the negated
    block Gram) and sorted, for the box-scanned coefficient vectors t whose
    partial lies in [-bound, bound] on its first m coordinates, the block's own
    ones; each group holds its own key, a -> (a, partials), and none is empty.
    Walked blocks take the same table from their walk."""
    n, live = len(rows[0]), sparse_rows(rows)
    # -t^T neg t over the upper triangle, with off-diagonal entries doubled
    upper = [[(j, -g if j == k else -2 * g) for j, g in row if j >= k] for k, row in enumerate(sparse_rows(neg))]
    table = {}
    for t in coeffs:
        x = [0] * n
        for tk, row in zip(t, live):
            if tk:
                for c, b in row:
                    x[c] += tk * b
        if not all(-bound <= v <= bound for v in x[:m]):
            continue
        norm = 0
        for tk, row in zip(t, upper):
            if tk:
                for j, g in row:
                    norm += tk * g * t[j]
        table.setdefault(norm, []).append(tuple(x))
    return {a: (a, sorted(xs)) for a, xs in table.items()}


def _join(tables, target, bound, free, own, shared):
    """Every sum of one partial per table whose norms add up to target and
    whose coordinates lie in [-bound, bound].

    Each partial comes as its parts on `own[i]` and on `shared`, zero
    elsewhere, so a leaf is one concatenation (zeros on the `free` coordinates,
    each table's own part, the summed shared parts) put back in coordinate
    order, which must be a permutation.  The walk goes depth first over paths
    of norm keys, not over partials: a nonempty group is entered only if the
    tables after it can make up the rest, and entering it extends every prefix
    on the path by every part of the group at once; the last table is looked
    up by the exact rest.  The keys entered, carried apart from the norm, and
    the leaf group's key must add up to target, and its prefixes must span the
    free coordinates and the own ones of the tables before the last.  Own parts
    are in the box already, so only the summed shared parts are tested.
    """
    order = free + [c for o in own for c in o] + shared
    identity = list(range(len(order)))
    if sorted(order) != identity:
        raise InternalCheckError(f"the join's coordinate order {order} is not a permutation of {len(order)} coordinates")
    # an order in place (every rank-1 one: an itemgetter of one index returns a scalar) is kept
    arrange = tuple if order == identity else itemgetter(*sorted(identity, key=order.__getitem__))
    # lo[i], hi[i]: the least and greatest norm sums of the tables after i
    lo = list(itertools.accumulate(map(min, reversed(tables[1:])), initial=0))[::-1]
    hi = list(itertools.accumulate(map(max, reversed(tables[1:])), initial=0))[::-1]
    out = []
    last = len(tables) - 1
    width = len(free) + sum(map(len, own[:last]))  # a leaf group's prefix: zeros on `free`, then own[0] .. own[last - 1]

    def walk(i, prefixes, norm, keys):
        if i == last:
            key, parts = tables[i].get(target - norm, (None, ()))
            if parts and sum(keys) + key != target:
                raise InternalCheckError(f"joined keys {keys + (key,)} add up to {sum(keys) + key}, not the target {target}")
            if parts and len(prefixes[0][0]) != width:  # every prefix on a path has the same length
                raise InternalCheckError(f"a leaf group's prefixes have {len(prefixes[0][0])} coordinates, not {width}")
            if shared:
                out.extend([arrange(acc + o + v) for acc, sh in prefixes for o, s in parts for v in [tuple(map(add, sh, s))] if all(-bound <= c <= bound for c in v)])
            else:
                out.extend([arrange(acc + o) for acc, _ in prefixes for o, _ in parts])
            return
        for key, parts in tables[i].values():
            if parts and lo[i] <= target - norm - key <= hi[i]:
                walk(i + 1, [(acc + o, sh and tuple(map(add, sh, s))) for acc, sh in prefixes for o, s in parts], norm + key, keys + (key,))

    walk(0, [((0,) * len(free), (0,) * len(shared))], 0, ())
    return out


def _block_roots(ambient, rows, gram, coord_bound, constraints):
    """The x = sum_k t_k rows[k] in [-coord_bound, coord_bound]^n with
    t^T gram t = -2, for rows whose Gram under the sparse rows `ambient` is `gram`
    and which lie in the kernel of the integer rows `constraints`.

    Every coefficient is bounded over the box by W.  Block i works in its
    local coordinates own[i] + shared (those only its rows touch, then those
    the rows of two or more blocks touch) with its rows restricted there,
    each checked to keep every nonzero entry.  Blocks that are not negative
    definite are scanned over their W-box (at most 2,000,000 points) by
    `_block_table`, the others walked down to -2 minus the most the scanned
    blocks can add, each coefficient clipped to [-W_k, W_k]: a root's block
    partial has the root's own t_k, so the clip drops only vectors that join
    no root.  A walk's norm groups, keyed by the negated norm, are the block's
    partials.  A root equals block i's partial on block i's own coordinates,
    so each table keeps the partials in the box there, its first len(own[i])
    ones, and drops a group that keeps none; `_join` tests the shared ones.
    Blocks with equal negated Gram, local rows, own width and clip share one
    table, and with equal local ambient rows (the ambient Gram restricted to
    their local coordinates) and nonzero local constraint rows (the
    constraint rows restricted there) one certificate: each entry that can be
    part of a root must have its local ambient norm as key, lie in the box and
    pair to 0 with each local constraint row, as every combination of the
    block's local rows does.
    """
    n, comps = len(ambient), _components(gram)
    sparse, W = sparse_rows(rows), _coefficient_bounds(rows, coord_bound)
    touched = [{c for k in comp for c, _ in sparse[k]} for comp in comps]
    shared = [c for c in range(n) if sum(c in t for t in touched) > 1]
    free = [c for c in range(n) if not any(c in t for t in touched)]
    own = [sorted(t.difference(shared)) for t in touched]
    keys, restricted = [], []  # per block, its table's inputs (negated Gram, local rows, own width, clip) and its local ambient and constraint rows
    for i, comp in enumerate(comps):
        cols = own[i] + shared
        local = tuple(tuple(rows[k][c] for c in cols) for k in comp)
        if any(sum(map(abs, x)) != sum(map(abs, rows[k])) for k, x in zip(comp, local)):
            raise InternalCheckError(f"a row of block {i} is nonzero off its own and shared coordinates")
        keys.append((tuple(tuple(-gram[j][k] for k in comp) for j in comp), local, len(own[i]), tuple(W[k] for k in comp)))
        local_constraints = (tuple(row[c] for c in cols) for row in constraints)
        restricted.append((tuple(tuple((cols.index(j), g) for j, g in ambient[c] if j in cols) for c in cols), tuple(filter(any, local_constraints))))
    tables = {}  # one table per distinct key
    for key in keys:
        neg, local, m, clip = key
        if key not in tables and not _positive_definite(neg):
            boxsize = math.prod(2 * w + 1 for w in clip)
            if boxsize > 2_000_000:
                raise BudgetExceededError(f"indefinite block box of {boxsize} points exceeds the 2,000,000-point budget")
            tables[key] = _block_table(neg, local, itertools.product(*[range(-w, w + 1) for w in clip]), m, coord_bound)
    radius = 2 + sum(max(tables[key]) for key in keys if key in tables)
    for key in keys:
        if key not in tables:
            neg, local, m, clip = key
            inside = lambda x: all(-coord_bound <= v <= coord_bound for v in x[:m])
            groups = ((-a, sorted(filter(inside, xs))) for a, xs in _enumerate_up_to(neg, radius, local, clip).items())
            tables[key] = {a: (a, xs) for a, xs in groups if xs}
    lo, hi = (sum(f(tables[key]) for key in keys) for f in (min, max))
    parts = {}  # per (key, local ambient and constraint rows), its table with each usable partial split into own and shared parts
    for i, (key, rest) in enumerate(zip(keys, restricted)):
        if (key, rest) in parts:
            continue
        table, m, (pairing, local_constraints) = tables[key], key[2], rest
        usable = range(-2 - hi + max(table), -1 - lo + min(table))  # keys that can add up to -2 with the other tables' keys
        for a, xs in table.values():
            if a not in usable:
                continue
            if any(pair_rows(pairing, x, x) != a or not all(-coord_bound <= v <= coord_bound for v in x[:m]) for x in xs):
                raise InternalCheckError(f"a partial of block {i} fails its norm {a} or box {coord_bound} check")
            if any(sum(map(mul, row, x)) for row in local_constraints for x in xs):
                raise InternalCheckError(f"a partial of block {i} does not pair to 0 with a constraint row on its local coordinates")
        parts[key, rest] = {a: (a, [(x[:m], x[m:]) for x in xs] if a in usable else []) for a, xs in table.values()}
    roots = _join([parts[pair] for pair in zip(keys, restricted)], -2, coord_bound, free, own, shared)
    if shared and not all(-coord_bound <= v[c] <= coord_bound for v in roots for c in shared):
        raise InternalCheckError(f"a joined root leaves the box {coord_bound} on a shared coordinate")
    return roots


def bounded_root_search(lattice: IntegralLattice, constraints, coord_bound: int) -> RootList:
    """All roots satisfying the constraints with every ambient coordinate in
    [-coord_bound, coord_bound]; complete=False records the box semantics.

    The roots lie in the saturated constraint kernel, whose blocks
    `_block_roots` joins over the box, so the output equals the exhaustive
    filtered scan; each table entry is certified against the constraints'
    ambient images too.  The restricted Gram must be symmetric and equal, on
    and above its diagonal, the ambient Gram of the kernel rows, zeros between
    blocks included.
    """
    if isinstance(coord_bound, bool) or not isinstance(coord_bound, int):
        raise InputError(f"coordinate bound must be an integer, got {coord_bound!r}")
    if coord_bound < 0:
        raise InputError("coordinate bound must be >= 0")
    rows = _constraint_rows(lattice, constraints)
    basis = int_kernel(rows) if rows else identity_int(lattice.n)
    if not basis or coord_bound == 0:
        return RootList(roots=(), complete=False, bound_used=coord_bound)
    gram = row_gram(lattice.space.sparse_rows, basis)  # paired on and above the diagonal, mirrored below it
    if gram != tuple(zip(*gram)) or any(pair_rows(lattice.space.sparse_rows, x, basis[j]) != a for i, x in enumerate(basis) for j, a in enumerate(gram[i][i:], i)):
        raise InternalCheckError("the restricted Gram differs from the ambient Gram of the kernel rows")
    roots = _block_roots(lattice.space.sparse_rows, basis, gram, coord_bound, rows)
    roots.sort()
    return RootList(roots=tuple(roots), complete=False, bound_used=coord_bound)
