"""Property tests: the Fincke-Pohst walk and the sparse pairing against the
independent oracles in oracles.py, on random inputs drawn by hypothesis."""

from fractions import Fraction as Q

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3cycles as k
from k3cycles.gaussrat import GaussRational
from k3cycles.linalg import det
from k3cycles.rootenum import _enumerate_up_to

from oracles import _floor_sqrt, _inverse_fraction, dense_bilinear, naive_box_norm_vectors, naive_box_radius_vectors

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def posdef_grams(draw):
    """D + B^T B with |B| <= 70: entries up to about 2e4, leading minors up to
    about 6e15 and common denominators up to about 1e40."""
    n = draw(st.integers(1, 4))
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
@given(grams_and_bounds(slack=3))
def test_radius_mode_matches_box_scan(case):
    gram, radius = case
    assert list(_enumerate_up_to(gram, radius)) == naive_box_radius_vectors(gram, radius)


@SETTINGS
@given(grams_and_bounds(), st.integers(2, 9))
def test_rational_gram_and_target_scale_out(case, m):
    gram, target = case
    scaled = tuple(tuple(Q(x, m) for x in row) for row in gram)
    assert k.enumerate_norm_vectors(scaled, Q(target, m)) == k.enumerate_norm_vectors(gram, target)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.one_of(
    st.integers(-4, 4),
    rationals,
    st.builds(GaussRational, rationals, rationals),
    st.just(0),
    st.just(Q(0)),
)


@st.composite
def grams_and_vectors(draw):
    """A symmetric rational Gram (integral or not) and two vectors of int,
    Fraction or Gauss-rational entries."""
    n = draw(st.integers(1, 5))
    upper = {(i, j): draw(st.one_of(st.just(0), st.integers(-3, 3), rationals)) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    entries = draw(st.sampled_from((st.integers(-4, 4), scalars)))
    return gram, tuple(draw(entries) for _ in range(n)), tuple(draw(entries) for _ in range(n))


@SETTINGS
@given(grams_and_vectors())
def test_sparse_bilinear_matches_dense(case):
    gram, x, y = case
    assume(det(tuple(tuple(Q(g) for g in row) for row in gram)) != 0)
    got = k.bilinear(k.QuadraticSpace(gram), x, y)
    want = dense_bilinear(gram, x, y)
    assert type(got) is type(want)
    assert got == want
