"""Property tests: the Fincke-Pohst walk, the integral LLL and the reduced
root enumeration, the bounded root search, the sparse pairing and isometry
check, the chamber partition, the exact inertia, the integer HNF
and kernel, the exact conic sweep and its closed-form sample values, the
integer three-space, its real witness and its JSON decode, the orientation test and rational
parsing against the independent oracles in oracles.py, on random inputs drawn
by hypothesis."""

import json
from fractions import Fraction as Q
from functools import cache
from itertools import product
from math import gcd, lcm
from operator import mul
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import k3cycles as k
from k3cycles import cyclespace, jsonio
from k3cycles.cyclespace import PENCIL_DEN, _herm_coeffs, _herm_products, _sample_domain, _second_intersection, _try_exact_counterexample
from k3cycles.errors import DimensionMismatchError, InputError, NonPositiveKappaError, NotARootError, WallError
from k3cycles.gaussrat import GaussRational, as_fraction, parse_rational
from k3cycles.linalg import _is_unimodular, _kernel_rows, clear_gauss_rows, conj_vec, det, hnf, int_kernel, inverse, mat_mul, rank
from k3cycles.quadspace import E8_GRAM, gauss_grams, gram_apply, pair_rows, sparse_rows
from k3cycles.rootenum import _coefficient_bounds, _enumerate_up_to, _ldl, _lll, _positive_definite

from conftest import space_doc
from oracles import (
    _floor_sqrt,
    _inverse_fraction,
    _reference_exact_point,
    box_scan_roots,
    cofactor_det,
    dense_bilinear,
    dense_congruence,
    dense_grams,
    exact_rank,
    gauss_rank,
    naive_box_norm_vectors,
    naive_box_radius_vectors,
    reference_conic_sweep,
    reference_in_O_plus,
    reference_inertia,
    reference_partition_scan,
    reference_second_intersection,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def posdef_grams(draw, max_n=4):
    """D + B^T B with |B| <= 70: at n = 4 entries up to about 2e4, leading
    minors up to about 6e15 and common denominators up to about 1e40."""
    n = draw(st.integers(1, max_n))
    b = [[draw(st.integers(-70, 70)) for _ in range(n)] for _ in range(n)]
    d = [draw(st.integers(1, 30)) for _ in range(n)]
    return tuple(tuple(sum(b[l][i] * b[l][j] for l in range(n)) + (d[i] if i == j else 0) for j in range(n)) for i in range(n))


def _box_points(gram, bound):
    gi = _inverse_fraction(gram)
    total = 1
    for i in range(len(gram)):
        total *= 2 * _floor_sqrt(Q(bound) * gi[i][i]) + 1
    return total


@st.composite
def grams_and_bounds(draw, slack=0):
    """A gram and the norm of a small nonzero vector, plus up to `slack`."""
    gram = draw(posdef_grams())
    x = [draw(st.integers(-2, 2)) for _ in gram]
    assume(any(x))
    norm = sum(xi * gij * xj for xi, row in zip(x, gram) for gij, xj in zip(row, x))
    bound = norm + draw(st.integers(0, slack))
    assume(_box_points(gram, bound) <= 200_000)
    return gram, bound


@SETTINGS
@given(grams_and_bounds())
def test_target_mode_matches_box_scan(case):
    gram, target = case
    assert list(k.enumerate_norm_vectors(gram, target)) == naive_box_norm_vectors(gram, target)


@SETTINGS
@given(grams_and_bounds(slack=3), st.data())
def test_radius_mode_matches_box_scan(case, data):
    # The walk groups the images sum_k t_k rows[k] by the norm of t.
    gram, radius = case
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=len(gram), max_size=len(gram)))
    expect = {}
    for t in naive_box_radius_vectors(gram, radius):
        image = tuple(sum(tk * row[c] for tk, row in zip(t, rows)) for c in range(3))
        expect.setdefault(dense_bilinear(gram, t, t), []).append(image)
    got = _enumerate_up_to(gram, radius, rows)
    assert {a: sorted(xs) for a, xs in got.items()} == {a: sorted(xs) for a, xs in expect.items()}


@st.composite
def clipped_walk_cases(draw):
    """A gram and radius, 3-column integer rows and a clip of 0-2 per coordinate."""
    gram, radius = draw(grams_and_bounds(slack=3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=len(gram), max_size=len(gram)))
    return gram, radius, rows, draw(st.lists(st.integers(0, 2), min_size=len(gram), max_size=len(gram)))


@SETTINGS
@given(clipped_walk_cases())
# Under (x_1, x_2, x_3) = (-2, 1, 0) the interval of x_0 is (-2, -2), which the
# clip [0, 0] empties to (0, -2): a walk that still took that level's image
# steps would shift every later image by rows[0].
@example(([[6, -6, 0, 0], [-6, 10, 4, -1], [0, 4, 10, -2], [0, -1, -2, 6]], 12, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [0, 2, 1, 1]))
def test_clipped_walk_is_the_filtered_walk(case):
    # A clip keeps exactly the walked t with |t_k| <= clip[k], with or without rows.
    gram, radius, rows, clip = case
    expect = {}
    for a, ts in _enumerate_up_to(gram, radius).items():
        for t in ts:
            if all(abs(tk) <= c for tk, c in zip(t, clip)):
                expect.setdefault(a, []).append(t)
    for image in (None, rows):
        mapped = {a: sorted(ts if image is None else [tuple(sum(tk * row[c] for tk, row in zip(t, image)) for c in range(3)) for t in ts]) for a, ts in expect.items()}
        got = _enumerate_up_to(gram, radius, image, clip)
        assert {a: sorted(xs) for a, xs in got.items()} == mapped


@SETTINGS
@given(grams_and_bounds(), st.integers(2, 9))
def test_rational_gram_and_target_scale_out(case, m):
    gram, target = case
    scaled = tuple(tuple(Q(x, m) for x in row) for row in gram)
    assert k.enumerate_norm_vectors(scaled, Q(target, m)) == k.enumerate_norm_vectors(gram, target)


U_GRAM = ((0, 1), (1, 0))
SMALL_BLOCKS = (U_GRAM, ((-2,),), ((-2, 1), (1, -2)))  # U, A1(-1), A2(-1)
indefinite_2x2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda abc: abc[0] * abc[2] - abc[1] ** 2 < 0
).map(lambda abc: ((abc[0], abc[1]), (abc[1], abc[2])))


def _block_sum(blocks):
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[at + i][at:at + len(b)] = row
        at += len(b)
    return tuple(map(tuple, gram))


@st.composite
def bounded_search_cases(draw):
    """An orthogonal sum of 1-4 blocks (U, A1(-1), A2(-1) or a random
    nondegenerate indefinite 2x2), one of them maybe drawn twice, 0-2 integer
    constraints and a bound of 1 or 2, the Gram and the constraints conjugated
    by one coordinate permutation and one sign per coordinate.

    Without constraints the negative definite summands are enumerated and the
    others scanned; constraints mix the summands, so the kernel rows of one
    block reach the coordinates of another, which the join tests at its
    leaves.  The permutation interleaves the blocks' own coordinates, so the
    join's concatenated leaves are not in coordinate order.  A block drawn
    twice lands on other coordinates with other signs, so two kernel blocks
    can have one Gram but other local rows, which must not share a table."""
    blocks = draw(st.lists(st.one_of(st.sampled_from(SMALL_BLOCKS), indefinite_2x2), min_size=1, max_size=3))
    gram = _block_sum(blocks + draw(st.lists(st.sampled_from(blocks), max_size=1)))
    n = len(gram)
    constraints = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=2))
    perm = draw(st.permutations(range(n)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    gram = tuple(tuple(sign[a] * sign[b] * gram[i][j] for b, j in enumerate(perm)) for a, i in enumerate(perm))
    constraints = [tuple(s * c[i] for s, i in zip(sign, perm)) for c in constraints]
    return gram, constraints, draw(st.integers(1, 2))


@SETTINGS
@given(bounded_search_cases())
# U + U + A1(-1): 8 of the 12 roots are sums of block partials outside the box
# on a shared coordinate, which the join brings back into it at its leaves.
@example((_block_sum((U_GRAM, U_GRAM, ((-2,),))), [(-1, -1, 1, 2, 1)], 1))
# U + A2(-1): kernel blocks of rank 1 and 2 that share coordinate 3, so the
# walked block's table is boxed only on its own coordinates; 8 and 6 roots.
@example((_block_sum((U_GRAM, ((-2, 1), (1, -2)))), [(-1, -2, 0, -1)], 2))
@example((_block_sum((U_GRAM, ((-2, 1), (1, -2)))), [(2, 2, 0, -1)], 1))
# A1(-1) + U: the kernel of (1, 1, 1) is one block [[-2, 2], [2, -2]] of
# signature (0, 1, 1), which must be box-scanned, not walked; 2 roots.
@example((_block_sum((((-2,),), U_GRAM)), [(1, 1, 1)], 1))
# A1(-1) + A1(-1) + U: the kernel rows (1, 0, 1, 0) and (0, 1, -2, 0) are two
# blocks [[-2]] of own width 1 and clip 1 that share coordinate 2, with local
# rows (1, 1) and (1, -2).  One table for both would give +-(0, 1, 1, 0),
# which is not in the kernel; 2 roots.
@example((_block_sum((((-2,),), ((-2,),), U_GRAM)), [(-1, 2, 2, -2), (0, 0, -2, 0)], 1))
def test_bounded_search_matches_box_scan(case):
    gram, constraints, bound = case
    lattice = k.IntegralLattice(k.QuadraticSpace(gram))
    got = k.bounded_root_search(lattice, [tuple(Q(x) for x in c) for c in constraints], bound)
    assert (got.complete, got.bound_used) == (False, bound)
    assert list(got.roots) == box_scan_roots(gram, constraints, bound)


def _gram_schmidt(gram):
    """mu[i][j] and the squared Gram-Schmidt lengths B[i] of a Gram, in Fractions."""
    n = len(gram)
    mu = [[Q(0)] * n for _ in range(n)]
    B = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][l] * mu[i][l] * B[l] for l in range(j))) / B[j]
        B.append(gram[i][i] - sum(mu[i][l] ** 2 * B[l] for l in range(i)))
    return mu, B


@SETTINGS
@given(posdef_grams())
def test_lll_output_is_reduced_and_congruent(gram):
    H = _lll(gram)
    n = len(gram)
    reduced = dense_congruence(gram, tuple(zip(*H)))  # H gram H^T
    assert abs(cofactor_det(H)) == 1
    mu, B = _gram_schmidt(reduced)
    d = [Q(1)]
    for b in B:
        d.append(d[-1] * b)
    for k in range(n):
        # size-reduced: 2 |lambda_kj| <= d_j for lambda_kj = d_j mu_kj (Cohen's indexing)
        assert all(2 * abs(d[j + 1] * mu[k][j]) <= d[j + 1] for j in range(k))
        # Lovasz condition with delta = 3/4
        assert k == 0 or B[k] >= (Q(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]


def _cartan(n, edges):
    return tuple(tuple(2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0 for j in range(n)) for i in range(n))


def _a(n):
    return _cartan(n, {(i, i + 1) for i in range(n - 1)})


def _d(n):
    return _cartan(n, {(i, i + 1) for i in range(n - 2)} | {(n - 3, n - 1)})


# Positive-definite summands: A_n, D_n, E8, the odd <1> and the even <2>.
ROOT_BLOCKS = (_a(1), _a(2), _a(3), _a(4), _d(4), _d(5), ((2,),))
ONE = ((1,),)


@st.composite
def unimodular_root_lattices(draw):
    """(G, U): G an orthogonal sum of root-system blocks, U unimodular.

    G is E8 alone (its box scan is cached once for the session) or up to
    three of ROOT_BLOCKS and up to three <1> in a drawn order, with a small
    box scan; two or more <1> give roots across blocks.  U is a signed
    permutation times 1-8 elementary row moves."""
    if draw(st.sampled_from((True,) + (False,) * 5)):
        gram = k.E8_GRAM
    else:
        blocks = draw(st.lists(st.sampled_from(ROOT_BLOCKS), max_size=3)) + [ONE] * draw(st.integers(0, 3))
        assume(blocks)
        gram = _block_sum(draw(st.permutations(blocks)))
        assume(_box_points(gram, 2) <= 200_000)
    r = len(gram)
    perm = draw(st.permutations(range(r)))
    u = [[draw(st.sampled_from((1, -1))) if j == perm[i] else 0 for j in range(r)] for i in range(r)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(0, r - 1), st.integers(-2, 2)), min_size=1, max_size=8)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return gram, tuple(map(tuple, u))


@SETTINGS
@given(unimodular_root_lattices())
@example((_block_sum((ONE,) * 3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))))  # 12 roots +-e_i +-e_j, each across two blocks
@example((_block_sum((ONE, _a(2), ONE, ((2,),))), ((1, 1, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 2, 1, 0), (1, 0, 0, 0, 1))))
# A signed permutation that spreads A2 over coordinates 0 and 3: the ambient summand A2(-1) on
# coordinates 3 and 6 is no interval, and the <-1> summands on 4 and 5 join to 4 roots.
@example((_block_sum((ONE, _a(2), ONE)), ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))))
def test_reduced_roots_map_back_through_a_unimodular_change(case):
    # Roots of <1>^3 + (-U^T G U) orthogonal to span(e1, e2, e3) are (0, 0, 0, y)
    # with U y a norm 2 vector of G.
    gram, u = case
    r = len(gram)
    ug = [[sum(u[l][i] * gram[l][m] * u[m][j] for l in range(r) for m in range(r)) for j in range(r)] for i in range(r)]
    ambient = _block_sum((ONE,) * 3 + (tuple(tuple(-x for x in row) for row in ug),))
    lattice = k.IntegralLattice(k.QuadraticSpace(ambient))
    v = k.ThreeSpace(ambient=lattice.space, basis=tuple(tuple(GaussRational.of(int(i == j)) for j in range(r + 3)) for i in range(3)))
    inv = _inverse_fraction(u)
    assert all(x.denominator == 1 for row in inv for x in row)
    want = sorted((0, 0, 0) + tuple(int(sum(inv[i][j] * x[j] for j in range(r))) for i in range(r)) for x in naive_box_norm_vectors(gram, 2))
    assert list(k.roots_orthogonal_to_threespace(lattice, v).roots) == want


@st.composite
def full_rank_rows(draw):
    """An r x w integer matrix of rank r, 1 <= r <= w <= 7."""
    r = draw(st.integers(1, 5))
    w = draw(st.integers(r, 7))
    rows = [[draw(st.integers(-9, 9)) for _ in range(w)] for _ in range(r)]
    assume(exact_rank(rows) == r)
    return rows


@st.composite
def split_rank_rows(draw):
    """Two full-rank row sets on disjoint columns, their rows interleaved in a
    drawn order: M = B B^T then has at least two components, whose indices
    need not be contiguous."""
    a, b = draw(full_rank_rows()), draw(full_rank_rows())
    wa, wb = len(a[0]), len(b[0])
    rows = [row + [0] * wb for row in a] + [[0] * wa + row for row in b]
    return draw(st.permutations(rows))


@SETTINGS
@given(st.one_of(full_rank_rows(), split_rank_rows()), st.integers(1, 3))
# M = B B^T has the components {0, 2} and {1}.
@example([[1, 2, 0, 0], [0, 0, 3, -1], [-2, 3, 0, 0]], 2)
def test_coefficient_bounds_match_fraction_solve(basis, bound):
    # W_j = floor(bound * sum_i |(M^-1 B)_{j,i}|) with M = B B^T, by a Fraction inverse
    r, w = len(basis), len(basis[0])
    mi = _inverse_fraction([[sum(a * b for a, b in zip(bi, bj)) for bj in basis] for bi in basis])
    want = [int(bound * sum(abs(sum(mi[j][k] * basis[k][i] for k in range(r))) for i in range(w))) for j in range(r)]
    assert _coefficient_bounds(basis, bound) == want


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
gauss_rationals = st.builds(GaussRational, rationals, rationals)
scalars = st.one_of(
    st.integers(-4, 4),
    rationals,
    gauss_rationals,
    st.just(0),
    st.just(Q(0)),
)


# Positive scalings that give an integral Gram a denominator den > 1.
GRAM_SCALES = (1, 3, Q(1, 2), Q(2, 3))


@st.composite
def grams_and_vectors(draw):
    """A symmetric rational Gram (integral or not, times a scale of
    GRAM_SCALES) and two vectors of int, Fraction or Gauss-rational entries."""
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from(GRAM_SCALES))
    upper = {(i, j): scale * draw(st.one_of(st.just(0), st.integers(-3, 3), rationals)) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    entries = draw(st.sampled_from((st.integers(-4, 4), scalars)))
    return gram, tuple(draw(entries) for _ in range(n)), tuple(draw(entries) for _ in range(n))


@SETTINGS
@given(grams_and_vectors())
def test_sparse_bilinear_matches_dense(case):
    gram, x, y = case
    assume(cofactor_det(gram) != 0)
    got = k.bilinear(k.QuadraticSpace(gram), x, y)
    want = dense_bilinear(gram, x, y)
    assert type(got) is type(want)
    assert got == want


def _units(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@st.composite
def sparse_pairing_cases(draw):
    """A principal sub-block of a symmetric Gram, integral or with
    non-integral Fraction entries (times a scale of GRAM_SCALES), and two int
    or Fraction vectors for it."""
    n = draw(st.integers(1, 6))
    small = st.one_of(st.just(0), st.integers(-3, 3))
    entry = draw(st.sampled_from((small, st.one_of(small, rationals))))
    scale = draw(st.sampled_from(GRAM_SCALES))
    upper = {(i, j): scale * draw(entry) for i in range(n) for j in range(i, n)}
    block = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    sub = tuple(tuple(upper[min(i, j), max(i, j)] for j in block) for i in block)
    vec = draw(st.sampled_from((st.integers(-4, 4), rationals)))
    return sub, tuple(draw(vec) for _ in block), tuple(draw(vec) for _ in block)


@SETTINGS
@given(sparse_pairing_cases())
def test_pair_rows_and_gram_apply_match_dense(case):
    sub, x, y = case
    rows = sparse_rows(sub)
    got, image = pair_rows(rows, x, y), gram_apply(rows, x)
    assert got == dense_bilinear(sub, x, y)
    assert image == [dense_bilinear(sub, e, x) for e in _units(len(sub))]
    if all(type(v) is int for v in x + y + sum(sub, ())):
        assert type(got) is int and all(type(v) is int for v in image)
    if cofactor_det(sub) != 0:
        # A space pairs over its integer Gram: den times the rational pairing.
        space = k.QuadraticSpace(sub)
        assert all(type(g) is int for row in space.sparse_rows for _, g in row)
        assert gcd(space.den, *sum(space.gram_int, ())) == 1
        assert space.gram == tuple(tuple(Q(g) for g in row) for row in sub)
        assert pair_rows(space.sparse_rows, x, y) == space.den * dense_bilinear(sub, x, y)


ISOMETRY_BLOCKS = (U_GRAM, ((-2,),), ((-2, 1), (1, -2)), ((1,),), ((-1,),), ((2, 1), (1, -2)))


def _reflection(gram, v):
    """I - (2 / <v,v>) v (G v)^T, the reflection in v, in Fractions."""
    q = dense_bilinear(gram, v, v)
    gv = [dense_bilinear(gram, e, v) for e in _units(len(gram))]
    return [[Q(int(i == j)) - 2 * v[i] * gv[j] / q for j in range(len(gram))] for i in range(len(gram))]


@st.composite
def isometry_cases(draw):
    """(gram, m, perturbed, used): an orthogonal sum of small integral
    forms, times a scale of GRAM_SCALES, and a product of 1-3 reflections of
    it as an int or a Fraction matrix, with one entry shifted when
    `perturbed`.  A reflection is in e_i or e_i +- e_j of norm +-1 or +-2 (an
    integer matrix), or in a random vector of nonzero norm (a rational one);
    `used` lists them."""
    base = _block_sum(draw(st.lists(st.sampled_from(ISOMETRY_BLOCKS), min_size=1, max_size=3)))
    n = len(base)
    vectors = [tuple(a + s * b for a, b in zip(e, f)) for e in _units(n) for f in _units(n) for s in (0, 1, -1) if e < f or s == 0]
    integral = [v for v in vectors if dense_bilinear(base, v, v) in (1, -1, 2, -2)]
    m = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    used = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            v = draw(st.sampled_from(integral))
        else:
            v = tuple(draw(st.integers(-2, 2)) for _ in range(n))
            assume(dense_bilinear(base, v, v) != 0)
        used.append(v)
        r = _reflection(base, v)
        m = [[sum((m[i][l] * r[l][j] for l in range(n)), start=Q(0)) for j in range(n)] for i in range(n)]
    if all(x.denominator == 1 for row in m for x in row) and draw(st.booleans()):
        m = [[int(x) for x in row] for row in m]
    perturbed = draw(st.booleans())
    if perturbed:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        shift = draw(st.integers(-2, 2) if type(m[0][0]) is int else rationals)
        assume(shift != 0)
        m[i][j] += shift
    scale = draw(st.sampled_from(GRAM_SCALES))
    return tuple(tuple(scale * g for g in row) for row in base), tuple(map(tuple, m)), perturbed, used


@SETTINGS
@given(isometry_cases())
# den 2: the root e - f + a of U(1/2) + <-1> has a non-integral reflection,
# the root a + b of <-1> + <-1> + U(1/2) an integral one.
@example((((0, Q(1, 2), 0), (Q(1, 2), 0, 0), (0, 0, -1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), False, [(1, -1, 1)]))
@example((_block_sum((((-1,),), ((-1,),), ((0, Q(1, 2)), (Q(1, 2), 0)))), ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), False, [(1, 1, 0, 0)]))
def test_is_isometry_matches_dense_congruence(case):
    gram, m, perturbed, used = case
    want = dense_congruence(gram, m) == tuple(tuple(Q(g) for g in row) for row in gram)
    assert perturbed or want
    space = k.QuadraticSpace(gram)
    assert k.is_isometry(space, m) is want
    # A root's reflection is a lattice isometry exactly when its matrix is integral.
    for v in used:
        if dense_bilinear(gram, v, v) == -2:
            r = _reflection(gram, v)
            if all(x.denominator == 1 for row in r for x in row):
                assert k.reflection_matrix(space, v).matrix == tuple(tuple(int(x) for x in row) for row in r)
            else:
                with pytest.raises(NotARootError):
                    k.reflection_matrix(space, v)


PARTITION_GRAM = _block_sum((U_GRAM, U_GRAM, ((-2, 1), (1, -2))))
PARTITION_LATTICE = k.IntegralLattice(k.QuadraticSpace(PARTITION_GRAM))


@cache
def partition_roots():
    """The roots of PARTITION_LATTICE in the unit box, found on first use, so
    a fault in the bounded search fails the tests that use them, not the
    collection of this module."""
    return k.bounded_root_search(PARTITION_LATTICE, [], 1)


@SETTINGS
@given(st.tuples(*[rationals] * 6), st.integers(1, 12))
@example((Q(1), Q(1), Q(0), Q(0), Q(0), Q(0)), 3)  # e1 + f1 lies on the wall of e2 - f2
@example((Q(0),) * 6, 2)
@example((Q(3), Q(5), Q(1, 3), Q(7, 2), Q(1, 5), Q(1, 7)), 5)  # off every wall
def test_partition_by_chamber_is_scale_invariant(kappa, scale):
    roots = partition_roots()
    scaled = tuple(x / scale for x in kappa)
    # kappa times the positive integer lcm of its denominators: every sign and
    # zero of the oracle pairings is kept, and they accumulate in ints.
    m = lcm(*(x.denominator for x in kappa))
    whole = tuple(int(x * m) for x in kappa)
    padded_root = roots.roots[0] + (0,)
    for bad_length in (kappa[:-1], kappa + (Q(1),)):
        with pytest.raises(DimensionMismatchError):
            k.partition_by_chamber(PARTITION_LATTICE, roots, bad_length)
    pairings = [dense_bilinear(PARTITION_GRAM, whole, r) for r in roots.roots]
    if dense_bilinear(PARTITION_GRAM, whole, whole) <= 0:
        for kap in (kappa, scaled):
            with pytest.raises(NonPositiveKappaError):
                k.partition_by_chamber(PARTITION_LATTICE, roots, kap)
        return
    with pytest.raises(DimensionMismatchError):
        k.partition_by_chamber(PARTITION_LATTICE, [padded_root], kappa)
    if 0 in pairings:
        for kap in (kappa, scaled):
            with pytest.raises(WallError):
                k.partition_by_chamber(PARTITION_LATTICE, roots, kap)
        return
    part, part_scaled = (k.partition_by_chamber(PARTITION_LATTICE, roots, kap) for kap in (kappa, scaled))
    assert part.plus == part_scaled.plus == tuple(r for r, s in zip(roots.roots, pairings) if s > 0)
    assert part.minus == part_scaled.minus == tuple(r for r, s in zip(roots.roots, pairings) if s < 0)
    assert (part.kappa, part_scaled.kappa) == (kappa, scaled)


# Positive-definite Cartan forms whose negatives carry the root systems of the
# partition scan test: A_2..A_5, D_4, D_5 and E8.
SCAN_SYSTEMS = (_a(2), _a(3), _a(4), _a(5), _d(4), _d(5), k.E8_GRAM)


@st.composite
def partition_scan_cases(draw):
    """(lattice, plus, depth): a positive system of the negated form from a
    generic kappa, as it is, with one non-simple root flipped in place, or a
    random subset.  E8 has 120 positive roots, too many for the exhaustive
    oracle unless a flip stops it early, so its unflipped draws are subsets
    of at most 12 roots."""
    gram = draw(st.sampled_from(SCAN_SYSTEMS))
    n = len(gram)
    roots = k.enumerate_norm_vectors(gram, 2)  # inputs only; the oracle below decides
    kappa = draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
    signs = [sum(a * g * b for a, row in zip(kappa, gram) for g, b in zip(row, r)) for r in roots]
    assume(0 not in signs)
    plus = [r for r, s in zip(roots, signs) if s > 0]  # kappa . G . r > 0, i.e. <kappa, r> < 0 in -G
    mode = draw(st.sampled_from(("as", "flip", "subset")))
    if mode == "as" and n == 8:
        mode = "subset"
    if mode == "flip":
        members = set(plus)
        non_simple = [r for r in plus if any(tuple(a - b for a, b in zip(r, s)) in members for s in plus)]
        i = plus.index(draw(st.sampled_from(non_simple)))
        plus[i] = tuple(-x for x in plus[i])
    elif mode == "subset":
        plus = draw(st.lists(st.sampled_from(plus), min_size=1, max_size=min(len(plus), 12), unique=True))
    lattice = k.IntegralLattice(k.QuadraticSpace(tuple(tuple(-x for x in row) for row in gram)))
    return lattice, plus, draw(st.integers(3, 4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(partition_scan_cases())
def test_partition_property_matches_exhaustive_scan(case):
    lattice, plus, depth = case
    got = k.check_partition_property(lattice, plus, depth)
    want = reference_partition_scan(lattice.gram_int, plus, depth)
    assert (got.ok, got.violation) == (want is None, want)


DIAG6 = k.make_standard_lattice("diag", signs=[1, 1, 1, -1, -1, -1])
gauss_small = st.builds(GaussRational, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def nonreal_threespaces(draw):
    """Rows with entries in [-2,2] + i[-2,2]; or the first row e1 + e4, which
    puts an exact base point on the conic; or, for conics inside the domain, a
    basis change of V_t = C(e1 + i t e4) + C e2 + C e3 with t in (1, 3].  Each
    row is then divided by 1, 2 or 3."""
    rows = [[draw(gauss_small) for _ in range(6)] for _ in range(3)]
    shape = draw(st.sampled_from(("random", "isotropic", "family")))
    if shape == "isotropic":
        rows[0] = [1, 0, 0, 1, 0, 0]
    if shape == "family":
        t = Q(draw(st.integers(33, 96)), 32)
        family = [[GaussRational.of(0)] * 6 for _ in range(3)]
        family[0][0], family[0][3], family[1][1], family[2][2] = 1, GaussRational(0, t), 1, 1
        rows = [[sum((row[j] * family[j][c] for j in range(3)), start=GaussRational.of(0)) for c in range(6)] for row in rows]
    scales = [Q(1, draw(st.integers(1, 3))) for _ in range(3)]
    try:
        v = k.ThreeSpace(ambient=DIAG6, basis=tuple(tuple(x * c for x in row) for row, c in zip(rows, scales)))
    except InputError:
        assume(False)
    assume(not v.is_real())
    return v


# span(e1 + e4, r2, r3) for the (r2, r3) of the pinned cases of
# test_cyclespace.test_sampled_counterexample_exact_witness: the base point
# e1 + e4 is exact, and each sweep ends in an exact counterexample point,
# which random draws almost never reach.
EXACT_WITNESS_BASES = tuple(
    (tuple(GaussRational.of(int(c in (0, 3))) for c in range(6)),) + tuple(tuple(GaussRational(x, y) for x, y in r) for r in rows)
    for rows in (
        (((-1, -1), (1, -2), (0, 2), (1, 2), (0, -1), (2, 0)), ((-1, 0), (1, 1), (1, 2), (2, -1), (1, -1), (2, 1))),
        (((0, -2), (2, 1), (2, 0), (1, -2), (2, 0), (-2, 2)), ((-2, -1), (-2, 1), (1, 2), (-2, 0), (-1, 1), (-1, -2))),
        (((-2, 1), (1, -2), (2, -2), (2, -1), (-1, 2), (2, -2)), ((0, 0), (2, -1), (0, 1), (2, -1), (0, -1), (2, -2))),
    )
)


@pytest.mark.parametrize("bits", [64, 128])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nonreal_threespaces())
@example(k.ThreeSpace(ambient=DIAG6, basis=EXACT_WITNESS_BASES[0]))
@example(k.ThreeSpace(ambient=DIAG6, basis=EXACT_WITNESS_BASES[1]))
@example(k.ThreeSpace(ambient=DIAG6, basis=EXACT_WITNESS_BASES[2]))
def test_exact_conic_sweep_matches_mpmath_sweep(bits, v):
    samples = 48
    got = _sample_domain(v, False, samples, bits)
    kind, done, point, exact = reference_conic_sweep(v, samples, bits)
    assert (got.kind, got.samples, got.precision_bits) == (kind, done, bits)
    assert got.exact_point == exact
    assert got.certified_exact == (exact is not None)
    assert (got.point is None) == (point is None)
    if point is not None:
        with mpmath.workprec(bits + 64):
            err = max(abs(x - y) for x, y in zip(got.point, point))
            assert err <= max(abs(y) for y in point) * mpmath.mpf(2) ** (8 - bits)


def _hermitian_value(m, w):
    """sum_ij w_i m_ij conj(w_j) for Gaussian-integer (re, im) pairs; real for Hermitian m."""
    re = im = 0
    for (a, b), row in zip(w, m):
        for (x, y), (c, d) in zip(row, w):
            u, v = a * x - b * y, a * y + b * x  # w_i m_ij
            re, im = re + u * c + v * d, im + v * c - u * d  # times conj(w_j)
    assert im == 0
    return re


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nonreal_threespaces(), st.sampled_from((64, 128)))
def test_sample_values_equal_the_explicit_point(v, bits):
    # _second_intersection returns W E W* and W H W* in closed form, without W;
    # rebuild W = alpha p - beta delta here and evaluate both forms on it.
    seen = []

    def record(conic, ell):
        out = _second_intersection(conic, ell)
        seen.append((conic[0], ell, out))
        return out

    with patch.object(cyclespace, "_second_intersection", record):
        _sample_domain(v, False, 12, bits)
    re, im, _ = v.ints
    b_rows = [tuple(zip(r, i)) for r, i in zip(re, im)]
    E = [[(sum(x * u + y * t for (x, y), (u, t) in zip(bi, bj)), sum(y * u - x * t for (x, y), (u, t) in zip(bi, bj))) for bj in b_rows] for bi in b_rows]
    H = v.gram_ints[1]
    D = PENCIL_DEN
    for p, (x, y), out in seen:
        if out is None:
            continue
        values, (ar, ai), (br, bi) = out
        delta = ((D * D, 0), (D * x, D * y), (x * x - y * y, 2 * x * y))
        w = [(ar * u - ai * t - (br * c - bi * d), ar * t + ai * u - (br * d + bi * c)) for (u, t), (c, d) in zip(p, delta)]
        assert values == (_hermitian_value(E, w), _hermitian_value(H, w))
        assert values == tuple(sum(map(mul, _herm_coeffs(m), _herm_products(w))) for m in (E, H))


def _sweep_conic(v, bits):
    """The conic of one `_sample_domain` call on v, taken from its first attempt."""
    conics = []

    def record(conic, ell):
        conics.append(conic)
        return _second_intersection(conic, ell)

    with patch.object(cyclespace, "_second_intersection", record):
        _sample_domain(v, False, 1, bits)
    return conics[0]


@pytest.mark.parametrize("bits", [64, 128])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(nonreal_threespaces())
def test_row_sweep_matches_the_complex_parameter_formula(bits, v):
    # Each row of fixed Im ell is evaluated from its polynomials in Re ell;
    # every row, at each of the 17 x-values of every visit of the sweep to it,
    # must give what the complex-ell evaluation gives, whatever the order in
    # which the rows are first reached.
    conic = _sweep_conic(v, bits)
    ells = [cyclespace._pencil_parameter(i) for i in range(2 * 17 * 17)]
    for order in (ells, ells[::-1]):
        fresh = conic[:-1] + ({},)
        got = [_second_intersection(fresh, ell) for ell in order]
        assert any(got)
        assert got == [reference_second_intersection(fresh, ell) for ell in order]
        assert sorted(fresh[-1]) == sorted({y for _, y in ells})


@st.composite
def symmetric_or_hermitian(draw):
    """(hermitian, m): a symmetric Fraction or Hermitian GaussRational matrix,
    half of them with an all-zero diagonal, which forces the pair split."""
    hermitian = draw(st.booleans())
    n = draw(st.integers(1, 6))
    zero_diagonal = draw(st.booleans())
    entry = st.one_of(st.just(Q(0)), rationals)
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Q(0) if zero_diagonal else draw(entry)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(entry)
            if hermitian:
                m[i][j] = GaussRational(m[i][j], draw(entry))
                m[j][i] = m[i][j].conjugate()
    if hermitian:
        m = [[GaussRational.of(x) for x in row] for row in m]
    return hermitian, tuple(map(tuple, m))


@SETTINGS
@given(symmetric_or_hermitian())
def test_signature_and_definiteness_match_the_reference_inertia(case):
    hermitian, m = case
    if hermitian:
        assert k.hermitian_signature(m) == reference_inertia(m)
        return
    n = len(m)
    assert k.signature(m) == reference_inertia(m)
    den = lcm(*(x.denominator for row in m for x in row))
    assert _positive_definite([[x.numerator * (den // x.denominator) for x in row] for row in m]) == (reference_inertia(m) == (n, 0, 0))


@SETTINGS
@given(posdef_grams(max_n=6))
def test_ldl_leads_are_the_leading_principal_minors(gram):
    lead = _ldl(gram)[0]
    assert lead == [cofactor_det([row[:k + 1] for row in gram[:k + 1]]) for k in range(len(gram))]


@st.composite
def det_matrices(draw):
    """Square int matrices up to 5x5; about half have one row replaced by a
    multiple of the row before it (zero when n == 1), so they are singular."""
    n = draw(st.integers(1, 5))
    m = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3)) if n > 1 else 0
        m[i] = [c * x for x in m[i - 1]]
    return tuple(map(tuple, m))


@SETTINGS
@given(det_matrices())
@example(((0, 2, 1), (3, 1, 0), (1, 0, 4)))  # the first pivot is zero: rows swap
@example(((0, 1), (0, 2)))  # singular, with a zero first column
def test_det_matches_cofactor_expansion(m):
    value = det(m)
    assert type(value) is int
    assert value == cofactor_det(m)
    if value:
        assert inverse(m) == tuple(map(tuple, _inverse_fraction(m)))
    else:
        with pytest.raises(ZeroDivisionError):
            inverse(m)


@st.composite
def unimodular_candidates(draw):
    """Square integer matrices: small random ones (mostly |det| != 1), products
    of signed row swaps and row additions (unimodular), and such a product with
    one row repeated (singular) or scaled by 2 or 3 (|det| 2 or 3)."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(("random", "unimodular", "repeated", "scaled")))
    if shape == "random":
        return tuple(tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, q in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3)), max_size=4 * n)):
        if i == j:
            m[i] = [-x for x in m[i]]
        elif q == 0:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if shape == "repeated" and i != j:
        m[i] = list(m[j])
    if shape == "scaled":
        m[i] = [draw(st.sampled_from((2, 3))) * x for x in m[i]]
    return tuple(map(tuple, m))


@SETTINGS
@given(unimodular_candidates())
@example(((1, 2), (2, 4)))  # singular: the second pivot is 0
@example(((2, 1), (1, 1)))  # |det| 1 with no entry 1 on the diagonal
def test_unimodularity_matches_the_determinant(m):
    # The LLL certificate reads |det H| = 1 off Euclid pivots, each of which must be 1.
    assert _is_unimodular(m) is (abs(det(m)) == 1)


@pytest.mark.parametrize("entry", [Q(1), Q(1, 2), GaussRational(Q(1), Q(1)), True])
def test_integer_routines_reject_other_entries(entry):
    m = ((entry, 0), (0, 1))
    for f in (det, rank, inverse):
        with pytest.raises(TypeError):
            f(m)


# Entry points that read a number, each given a bool where an int is taken,
# and the error it must raise: True is no number, so none may read it as 1.
BOOL_INPUTS = {
    "as_fraction": (lambda: as_fraction(True), TypeError),
    "GaussRational": (lambda: GaussRational(True, 0), TypeError),
    "enumerate_norm_vectors": (lambda: k.enumerate_norm_vectors(E8_GRAM, True), TypeError),
    "QuadraticSpace": (lambda: k.QuadraticSpace(((True, 0), (0, -1))), TypeError),
    "example_family": (lambda: k.example_family(True), TypeError),
    "reflect": (lambda: k.reflect(K3_SPACE, (True, -1) + (0,) * 20, (1,) + (0,) * 21), NotARootError),  # e1 - f1 as ints
    "reflection_matrix": (lambda: k.reflection_matrix(K3_SPACE, (True, -1) + (0,) * 20), NotARootError),
}


@pytest.mark.parametrize("name", sorted(BOOL_INPUTS))
def test_bools_are_not_numbers(name):
    call, error = BOOL_INPUTS[name]
    with pytest.raises(error):
        call()


def test_inverse_rejects_non_square_and_ragged_matrices():
    for m in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3,))):
        with pytest.raises(DimensionMismatchError):
            inverse(m)
    with pytest.raises(DimensionMismatchError):  # a 2x3 times a 2x3: rows of 3 against 2 rows
        mat_mul(((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (4, 5, 6)))


def test_rank_rejects_ragged_matrices():
    assert rank(((1, 2, 3), (4, 5, 6))) == 2
    with pytest.raises(DimensionMismatchError):
        rank(((1, 2), (3,)))


int_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=1, max_size=5)
)


@SETTINGS
@given(int_matrices)
def test_int_kernel_is_a_full_kernel(m):
    kernel = int_kernel(m)
    n = len(m[0])
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m for vec in kernel)
    assert len(kernel) == exact_rank(kernel) == n - exact_rank(m)


@SETTINGS
@given(int_matrices)
def test_kernel_rows_are_a_basis_of_the_saturated_kernel(m):
    # The complete root search LLL-reduces the Euclid rows without their HNF;
    # they must span the same lattice as the HNF kernel, which is saturated.
    rows = _kernel_rows(m)
    assert hnf(rows) == int_kernel(m)
    assert all(sum(map(mul, row, x)) == 0 for row in m for x in rows)
    assert len(rows) == len(m[0]) - exact_rank(m)


@SETTINGS
@given(int_matrices, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=8))
def test_hnf_is_idempotent_and_canonical(m, moves):
    h = hnf(m)
    assert hnf(h) == h
    # unimodular row moves (row i += q row j) span the same lattice, so the same HNF
    rows = [list(r) for r in m]
    for i, j, q in moves:
        i, j = i % len(rows), j % len(rows)
        if i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    assert hnf(rows) == h


def _real_space(rows):
    return k.ThreeSpace(ambient=DIAG6, basis=tuple(tuple(GaussRational.of(x) for x in row) for row in rows))


@pytest.mark.parametrize(
    "rows, witness",
    [
        # real Gram [[0,2,0],[2,0,0],[0,0,1]]: the zero-diagonal block takes the pair split
        (((1, 0, 0, 1, 0, 0), (1, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0)), (0, 1, 0, -1, 0, 0)),
        # real Gram [[0,0,1],[0,0,1],[1,1,3]] has a radical vector
        (((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (1, 1, 1, 0, 0, 0)), (-1, 1, 0, -1, 1, 0)),
        (((0, 0, 1, 1, -1, -2), (1, 2, -1, 1, 0, -1), (-2, 1, 0, 2, 2, 2)), (Q(5, 6), Q(5, 3), Q(-1, 2), Q(7, 6), Q(-1, 3), Q(-3, 2))),
    ],
)
def test_real_witness_points_are_pinned(rows, witness):
    d = k.classify_cycle(_real_space(rows), samples=8).domain_status
    assert (d.kind, d.samples, d.certified_exact) == ("counterexample", 0, True)
    assert d.exact_point == tuple(GaussRational.of(x) for x in witness)


# raw mpf tuples (sign, mantissa, exponent, bit count) of 0 and 1
RAW_ZERO = (0, 0, 0, 0)
RAW_ONE = (0, 1, 0, 1)


@pytest.mark.parametrize(
    "rows, bits, real_parts",
    [
        # real Gram diag(1, 1, -2): q = 2, so the witness sqrt(2) e1 + e4 + e5 has no rational point
        (((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), 53, ((0, 6369051672525773, -52, 53), RAW_ZERO, RAW_ZERO, RAW_ONE, RAW_ONE, RAW_ZERO)),
        (((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), 128, ((0, 240615969168004511545033772477625056927, -127, 128), RAW_ZERO, RAW_ZERO, RAW_ONE, RAW_ONE, RAW_ZERO)),
        # q irrational again, and coordinates that are not dyadic, so that every one rounds
        (
            ((1, 1, 1, 2, 1, -1), (0, -2, -2, -1, 1, -1), (0, 1, 0, 1, 2, 1)),
            53,
            (
                (0, 1268118142244301, -52, 51),
                (1, 3585104085444993, -52, 52),
                (1, 3585104085444993, -52, 52),
                (0, 109625170643955, -52, 47),
                (0, 3694729256088947, -52, 52),
                (1, 3694729256088947, -52, 52),
            ),
        ),
        (
            ((1, 1, 1, 2, 1, -1), (0, -2, -2, -1, 1, -1), (0, 1, 0, 1, 2, 1)),
            128,
            (
                (0, 47908148890027252846429447368977050939, -127, 126),
                (1, 135441402965635715481457337151383531243, -127, 127),
                (1, 135441402965635715481457337151383531243, -127, 127),
                (0, 4141521852223021528915502477773810787, -127, 122),
                (0, 139582924817858737010372839629157342031, -127, 127),
                (1, 139582924817858737010372839629157342031, -127, 127),
            ),
        ),
    ],
)
def test_irrational_real_witness_points_are_pinned(rows, bits, real_parts):
    # s^2 = q is irrational here, so the witness is numeric only: each
    # coordinate's raw mpc is pinned bit for bit.
    d = k.classify_cycle(_real_space(rows), samples=8, precision=bits).domain_status
    assert (d.kind, d.samples, d.certified_exact, d.exact_point, d.precision_bits) == ("counterexample", 0, True, None, bits)
    assert tuple(z._mpc_ for z in d.point) == tuple((x, RAW_ZERO) for x in real_parts)


# ---------------------------------------------------------------------------
# Integer three-spaces, the orientation test and rational parsing

K3_SPACE = k.make_standard_lattice("K3").space
DIAG22 = k.make_standard_lattice("diag", signs=[1, 1, 1] + [-1] * 19)
RATIONAL_DIAG6 = k.QuadraticSpace(
    tuple(tuple(g if i == j else 0 for j in range(6)) for i, g in enumerate((Q(1, 2), Q(3), Q(2, 3), Q(-1, 5), Q(-7, 2), Q(-4))))
)
RATIONAL_U3 = k.QuadraticSpace(_block_sum([((0, Q(3, 2)), (Q(3, 2), 0))] * 3))


@st.composite
def gauss_bases(draw):
    """(ambient, rows): three rows with 1-4 nonzero Gauss-rational or real
    entries over K3, diag(1,1,1,-1^19), a non-integral rational diagonal
    form or U(3/2)^3, mixed by a random Gauss-rational 3x3 matrix.  Real rows stay a
    real V under an invertible mix, with a non-real basis; a singular mix
    or dependent rows give a dependent basis."""
    ambient = draw(st.sampled_from((K3_SPACE, DIAG22, RATIONAL_DIAG6, RATIONAL_U3)))
    n = ambient.n
    entries = draw(st.sampled_from((rationals, gauss_rationals)))
    rows = []
    for _ in range(3):
        support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
        rows.append([GaussRational.of(draw(entries)) if c in support else GaussRational.of(0) for c in range(n)])
    mix = [[draw(st.sampled_from((0, 1, -1, GaussRational(0, 1)))) if draw(st.booleans()) else draw(gauss_rationals) for _ in range(3)] for _ in range(3)]
    mixed = [tuple(sum((m * row[c] for m, row in zip(coeffs, rows)), start=GaussRational.of(0)) for c in range(n)) for coeffs in mix]
    return ambient, tuple(mixed)


def _over(pairs, den):
    """The GaussRational matrix of Gaussian-integer (re, im) pairs over den."""
    return tuple(tuple(GaussRational(Q(x, den), Q(y, den)) for x, y in row) for row in pairs)


PERIOD_BLOCKS = (U_GRAM, ((1,),), ((-1,),), ((2, 1), (1, -2)))
I_ = GaussRational(0, 1)
small_gauss = st.sampled_from((0, 1, -1, Q(1, 2), I_, -I_, GaussRational(1, 1), GaussRational(Q(1, 3), Q(-1, 2))))
# (blocks, x): x is a period point of the sum of the blocks
PERIOD_POINTS = (
    ((U_GRAM, U_GRAM), (1, 1, I_, I_)),
    ((((1,),), ((1,),)), (1, I_)),
    ((((1,),), U_GRAM), (1, I_, Q(1, 2) * I_)),
)


@st.composite
def gauss_row_cases(draw):
    """(gram, rows): 1-3 rows of int, Fraction or Gauss-rational entries over
    an orthogonal sum of small forms or a random symmetric Gram with rational
    entries, times a scale of GRAM_SCALES.  Small entries over sums of +-1
    and U blocks often give an isotropic first row; a third of the cases
    start with a Gauss-rational multiple of a known period point."""
    kind = draw(st.sampled_from(("blocks", "random", "period")))
    point = ()
    if kind == "random":
        n = draw(st.integers(1, 4))
        upper = {(i, j): draw(st.one_of(st.just(0), st.integers(-3, 3), rationals)) for i in range(n) for j in range(i, n)}
        gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    else:
        blocks, point = draw(st.sampled_from(PERIOD_POINTS)) if kind == "period" else ((), ())
        gram = _block_sum(blocks + tuple(draw(st.lists(st.sampled_from(PERIOD_BLOCKS), min_size=0 if blocks else 1, max_size=2))))
    scale = draw(st.sampled_from(GRAM_SCALES))
    entries = draw(st.sampled_from((small_gauss, scalars)))
    rows = [tuple(draw(entries) for _ in gram) for _ in range(draw(st.integers(1, 3)))]
    if point:
        scalar = draw(gauss_rationals.filter(bool))
        rows[0] = tuple(scalar * z for z in point) + (0,) * (len(gram) - len(point))
    return tuple(tuple(scale * g for g in row) for row in gram), tuple(rows)


DIAG_PLUS = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
DIAG_MINUS = ((1, 0, 0), (0, -1, 0), (0, 0, -1))


@SETTINGS
@given(gauss_row_cases())
@example((tuple(tuple(Q(g, 2) for g in row) for row in DIAG_PLUS), ((1, I_, 0), (0, 1, Q(1, 3)))))  # a period point
@example((DIAG_PLUS, ((0, 0, 0),)))  # zero
@example((DIAG_PLUS, ((1, 0, I_),)))  # <x,x> = 2
@example((DIAG_PLUS, ((1, 0, 1),)))  # isotropic, <x, conj x> = 0
@example((tuple(tuple(3 * g for g in row) for row in DIAG_MINUS), ((0, 1, I_),)))  # isotropic, <x, conj x> = -6
def test_gauss_grams_and_period_points_match_dense_pairings(case):
    gram, rows = case
    assume(cofactor_det(gram) != 0)
    space = k.QuadraticSpace(gram)
    re, im, d = clear_gauss_rows([[GaussRational.of(z).ratios() for z in row] for row in rows])
    assert all(GaussRational(Q(a, d), Q(b, d)) == z for r, i, row in zip(re, im, rows) for a, b, z in zip(r, i, row))
    A, H = gauss_grams(space.sparse_rows, re, im)
    den = space.den * d * d
    assert _over(A, den) == tuple(tuple(dense_bilinear(gram, x, y) for y in rows) for x in rows)
    assert _over(H, den) == tuple(tuple(dense_bilinear(gram, x, conj_vec(y)) for y in rows) for x in rows)
    # PeriodPoint decides length, then zero, then isotropy, then positivity.
    x = rows[0]
    with pytest.raises(DimensionMismatchError):
        k.PeriodPoint(space, x + (0,))
    if not any(x):
        with pytest.raises(InputError, match="nonzero"):
            k.PeriodPoint(space, x)
    elif dense_bilinear(gram, x, x) != 0:
        with pytest.raises(InputError, match="isotropic"):
            k.PeriodPoint(space, x)
    elif GaussRational.of(dense_bilinear(gram, x, conj_vec(x))).re <= 0:
        with pytest.raises(InputError, match="conj x"):
            k.PeriodPoint(space, x)
    else:
        assert k.PeriodPoint(space, x).x == tuple(map(GaussRational.of, x))


def _rank_and_reality(rows):
    """Rank over Q(i), and whether V is real: V + conj V is no larger than V."""
    rank = gauss_rank(rows)
    return rank, gauss_rank(list(rows) + [conj_vec(row) for row in rows]) == rank


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gauss_bases(), gauss_rationals.filter(bool), st.integers(0, 2))
def test_integer_threespace_matches_dense_oracle(case, scale, which):
    ambient, rows = case
    rank, real = _rank_and_reality(rows)
    if rank < 3:
        with pytest.raises(InputError, match="linearly dependent"):
            k.ThreeSpace(ambient=ambient, basis=rows)
        return
    v = k.ThreeSpace(ambient=ambient, basis=rows)
    assert v.basis == rows
    assert v.is_real() is real
    A, H, den = v.gram_ints
    assert _over(A, den) == tuple(tuple(dense_bilinear(ambient.gram, x, y) for y in rows) for x in rows)
    hermitian = tuple(tuple(dense_bilinear(ambient.gram, x, conj_vec(y)) for y in rows) for x in rows)
    assert _over(H, den) == hermitian
    assert v.hermitian_inertia == reference_inertia(hermitian)
    re, im, d = v.ints
    assert d > 0 and all(type(x) is int for row in re + im for x in row)
    assert all(GaussRational(Q(x, d), Q(y, d)) == z for r, i, row in zip(re, im, rows) for x, y, z in zip(r, i, row))
    # a nonzero Gauss-rational multiple of one row spans the same V
    scaled = tuple(tuple(x * scale for x in row) if j == which else row for j, row in enumerate(rows))
    w = k.ThreeSpace(ambient=ambient, basis=scaled)
    assert (w.is_real(), w.hermitian_inertia) == (v.is_real(), v.hermitian_inertia)


def _greedy_real_basis(rows):
    """The first of re(row_0), im(row_0), re(row_1), ... that raise the rank of
    those picked before, by plain Fraction elimination."""
    picked = []
    for c in (tuple(getattr(x, part) for x in row) for row in rows for part in ("re", "im")):
        if exact_rank(picked + [c]) > len(picked):
            picked.append(c)
    return tuple(picked)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(gauss_bases(), nonreal_threespaces().map(lambda v: (v.ambient, v.basis))))
@example((DIAG6, EXACT_WITNESS_BASES[0]))
def test_threespace_decisions_match_the_rational_oracles(case):
    # Reality is rank(re u im) = 3; the real rows over d are the greedy pick over the
    # Gauss-rational basis; an exact counterexample is the reference
    # reconstruction of the same sample W.
    ambient, rows = case
    try:
        v = k.ThreeSpace(ambient=ambient, basis=rows)
    except InputError:
        assume(False)
    real = exact_rank([tuple(getattr(x, part) for x in row) for row in rows for part in ("re", "im")]) == 3
    assert v.is_real() is real
    if real:
        d = v.ints[2]
        assert tuple(tuple(Q(x, d) for x in row) for row in v._real_rows()) == _greedy_real_basis(rows)
        return
    seen = []

    def record(threespace, w):
        seen.append((w, _try_exact_counterexample(threespace, w)))
        return seen[-1][1]

    with patch.object(cyclespace, "_try_exact_counterexample", record):
        got = _sample_domain(v, False, 48, 128)
    assert len(seen) == (got.kind == "counterexample")
    A, H = dense_grams(v)
    for w, exact in seen:
        with mpmath.workprec(1024):
            assert exact == got.exact_point == _reference_exact_point(v, A, H, [mpmath.mpc(x, y) for x, y in w])


@cache
def _isotropic_rows(ambient):
    """The nonzero rows with entries in [-2, 2] that are isotropic for a diagonal ambient form."""
    diagonal = [ambient.gram_int[i][i] for i in range(ambient.n)]
    return tuple(x for x in product(range(-2, 3), repeat=ambient.n) if any(x) and sum(g * c * c for g, c in zip(diagonal, x)) == 0)


@st.composite
def real_threespaces(draw):
    """(v, u): a real three-space v over DIAG6 or RATIONAL_DIAG6 with basis rows
    (1 + i t_kk) u_k + i sum_{j<k} t_kj u_j, so that its real rows are u.  The u
    have entries in [-2, 2]; for "split" all three are isotropic, so their Gram
    has an all-zero diagonal; for "radical" u_2 is isotropic and u_0, u_1 are
    moved into its orthogonal complement, so their Gram is singular; for
    "definite" they lie in the positive or the negative coordinate half."""
    ambient = draw(st.sampled_from((DIAG6, RATIONAL_DIAG6)))
    shape = draw(st.sampled_from(("random", "split", "radical", "definite")))
    isotropic, small = st.sampled_from(_isotropic_rows(ambient)), st.tuples(*[st.integers(-2, 2)] * 6)
    u = [draw(isotropic if shape == "split" or (shape == "radical" and i == 2) else small) for i in range(3)]
    if shape == "definite":
        half = draw(st.sampled_from((range(3), range(3, 6))))
        u = [tuple(x if c in half else 0 for c, x in enumerate(r)) for r in u]
    if shape == "radical":
        def pair(x, y):
            return dense_bilinear(ambient.gram, x, y)
        w = next(e for e in (tuple(int(c == j) for c in range(6)) for j in range(6)) if pair(e, u[2]))
        u[:2] = [tuple(pair(w, u[2]) * x - pair(r, u[2]) * y for x, y in zip(r, w)) for r in u[:2]]
    t = [[draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(3)]
    rows = tuple(tuple(GaussRational(u[i][c], t[i][i] * u[i][c] + sum(t[i][j] * u[j][c] for j in range(i))) for c in range(6)) for i in range(3))
    try:
        v = k.ThreeSpace(ambient=ambient, basis=rows)
    except InputError:
        assume(False)
    return v, u


@pytest.mark.parametrize("bits", [53, 128])
@SETTINGS
@given(real_threespaces())
def test_real_witness_is_an_isotropic_point_of_V_unless_the_real_form_is_definite(bits, case):
    v, u = case
    gram = v.ambient.gram
    inertia = reference_inertia([[dense_bilinear(gram, x, y) for y in u] for x in u])
    got = cyclespace._real_isotropic_witness(v, bits)
    assert (got is None) == (inertia in ((3, 0, 0), (0, 3, 0)))
    if got is None:
        return
    assert (got.kind, got.samples, got.certified_exact, got.precision_bits) == ("counterexample", 0, True, bits)
    assert all(z.imag == 0 for z in got.point)
    if got.exact_point is None:
        # s is irrational: the rounded point is isotropic up to its rounding
        with mpmath.workprec(4 * bits):
            x = [z.real for z in got.point]
            diagonal = [mpmath.mpf(g[i].numerator) / g[i].denominator for i, g in enumerate(gram)]
            value = sum(g * c * c for g, c in zip(diagonal, x))
            size = sum(abs(g) * c * c for g, c in zip(diagonal, x))
            assert size > 0 and abs(value) <= size * mpmath.ldexp(1, 4 - bits)
        return
    point = got.exact_point
    assert all(z.im == 0 for z in point) and any(point)
    assert dense_bilinear(gram, point, point) == 0
    assert exact_rank([*u, tuple(z.re for z in point)]) == 3
    with mpmath.workprec(4 * bits):
        exact = [mpmath.mpf(z.re.numerator) / z.re.denominator for z in point]
        assert all(abs(z.real - x) <= abs(x) * mpmath.ldexp(1, 2 - bits) for z, x in zip(got.point, exact))


def _respelled(obj, rng):
    """A JSON document with every rational literal written another way that
    means the same: "p/q" as "kp/kq" (unreduced), an integer as "p/1", a JSON
    int or "+p", and spaces around it."""
    if isinstance(obj, list):
        return [_respelled(x, rng) for x in obj]
    if isinstance(obj, dict):
        return {key: _respelled(x, rng) for key, x in obj.items()}
    x, m = Q(obj), rng.randint(1, 4)
    if x.denominator == 1 and m == 1:
        return rng.choice((x.numerator, f"{x.numerator}/1", f"+{x.numerator}" if x >= 0 else obj))
    return rng.choice(("", " ", "\t")) + f"{x.numerator * m}/{x.denominator * m}" + rng.choice(("", "  ", "\n"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gauss_bases(), st.randoms(use_true_random=False))
def test_json_decode_matches_the_rational_constructor(case, rng):
    ambient, rows = case
    doc = {"ambient": space_doc(ambient), "basis": [jsonio.encode_gauss_vector(row) for row in rows]}
    doc = json.loads(json.dumps(_respelled(doc, rng)))
    try:
        v = k.ThreeSpace(ambient=ambient, basis=rows)
    except InputError:
        with pytest.raises(InputError, match="linearly dependent"):
            jsonio.threespace_from_json(doc)
        return
    back = jsonio.threespace_from_json(doc)
    assert (back.ambient.gram_int, back.ambient.den) == (ambient.gram_int, ambient.den)
    assert back.ints == v.ints and back.basis == v.basis == rows
    assert back == v and hash(back) == hash(v)
    # ints over a multiple of d are the same three-space
    re, im, d = v.ints
    assert k.ThreeSpace(ambient=ambient, ints=(tuple(tuple(3 * x for x in r) for r in re), tuple(tuple(3 * x for x in r) for r in im), 3 * d)) == v


def _integral_reflections(gram):
    """(matrix, norm) of the reflections in e_i and e_i +- e_(i+1) that are
    integer matrices: x - (2 <x,v> / <v,v>) v."""
    n = len(gram)
    units = _units(n)
    candidates = units + [tuple(a + s * b for a, b in zip(units[i], units[i + 1])) for i in range(n - 1) for s in (1, -1)]
    out = []
    for v in candidates:
        gv = [dense_bilinear(gram, e, v) for e in units]
        q = sum(x * y for x, y in zip(v, gv))
        if q != 0 and all((2 * x / q).denominator == 1 for x in gv):
            out.append((tuple(tuple(int(i == j) - int(2 * v[i] * gv[j] / q) for j in range(n)) for i in range(n)), q))
    return out


O_PLUS_CASES = (
    (K3_SPACE, [tuple(int(c in (2 * b, 2 * b + 1)) for c in range(22)) for b in range(3)]),
    (DIAG6, _units(6)[:3]),
    (RATIONAL_DIAG6, _units(6)[:3]),
)
O_PLUS_REFLECTIONS = [_integral_reflections(space.gram) for space, _ in O_PLUS_CASES]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(O_PLUS_CASES) - 1), st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_is_in_O_plus_matches_dense_projection(case, picks):
    # A reflection in a vector of positive norm reverses the orientation of
    # the positive directions; one in a vector of negative norm keeps it.
    space, frame = O_PLUS_CASES[case]
    pool = O_PLUS_REFLECTIONS[case]
    word, flips = _units(space.n), 0
    for p in picks:
        r, q = pool[p % len(pool)]
        word = tuple(tuple(int(x) for x in row) for row in mat_mul(r, word))
        flips += q > 0
    want = reference_in_O_plus(space.gram, frame, word)
    assert want is (flips % 2 == 0)
    assert k.is_in_O_plus(space, word) is want
    assert k.is_in_O_plus(space, k.Isometry(space=space, matrix=word)) is want


integer_texts = st.from_regex(r"\s*[-+]?[0-9]{1,30}\s*", fullmatch=True)


@SETTINGS
@given(st.one_of(st.text(), integer_texts, st.text(alphabet="0123456789-+/_. e\u00b2\u0663")))
@example("+5")
@example(" -0 ")
@example("1_0")
@example("")
@example("-")
@example("--5")
@example("\u00b2")  # a digit to str.isdigit, not to int()
@example("\u0663")  # an Arabic-Indic 3: int() and Fraction() take it
@example("3/4")
@example(" 12 ")
def test_parse_rational_matches_fraction(text):
    try:
        want = Q(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert type(got) is Q and got == want
