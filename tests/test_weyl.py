import random
from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import GaussRational
from k3cycles.errors import (
    AmbientMismatchError,
    FrameError,
    InputError,
    NonPositiveKappaError,
    NotARootError,
    NotIsometryError,
    WallError,
)
from k3cycles.linalg import identity_int, mat_mul

from conftest import uvec
from oracles import k3_u3_box_roots


def unit(i, n=22):
    return tuple(1 if j == i else 0 for j in range(n))


def e1_minus_f1(n=22):
    return tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(n))


def test_reflect_swaps_hyperbolic_pair(k3):
    d = e1_minus_f1()
    image = k.reflect(k3, d, unit(0))
    assert image == unit(1)  # e1 -> f1
    assert k.reflect(k3, d, unit(1)) == unit(0)


def test_reflect_negates_root(k3):
    d = e1_minus_f1()
    assert k.reflect(k3, d, d) == tuple(-x for x in d)


def test_reflect_fixes_orthogonal(k3):
    d = e1_minus_f1()
    x = uvec(0)
    assert tuple(k.reflect(k3, d, x)) == tuple(x)


def test_reflect_requires_root(k3):
    with pytest.raises(NotARootError):
        k.reflect(k3, unit(0), unit(1))


def test_reflect_involution_isometry_property(k3):
    rng = random.Random(61)
    roots = k.roots_orthogonal_to_threespace(
        k3,
        k.ThreeSpace(
            ambient=k3.space,
            basis=tuple(tuple(GaussRational.of(x) for x in uvec(i)) for i in range(3)),
        ),
    ).roots
    for _ in range(30):
        d = roots[rng.randrange(len(roots))]
        x = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22))
        y = tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22))
        rx, ry = k.reflect(k3, d, x), k.reflect(k3, d, y)
        assert tuple(k.reflect(k3, d, rx)) == x
        assert k.bilinear(k3, rx, ry) == k.bilinear(k3, x, y)


def test_reflection_matrix_shape(k3):
    d = e1_minus_f1()
    iso = k.reflection_matrix(k3, d)
    # swaps the first hyperbolic pair, identity elsewhere
    expected = [[0] * 22 for _ in range(22)]
    expected[0][1] = expected[1][0] = 1
    for i in range(2, 22):
        expected[i][i] = 1
    assert iso.matrix == tuple(tuple(r) for r in expected)
    sq = mat_mul(iso.matrix, iso.matrix)
    assert tuple(tuple(int(x) for x in row) for row in sq) == identity_int(22)
    assert iso.determinant == -1


def test_is_in_o_plus_basics(k3):
    neg_ident = tuple(tuple(-1 if i == j else 0 for j in range(22)) for i in range(22))
    assert not k.is_in_O_plus(k3, neg_ident)
    d = e1_minus_f1()
    assert k.is_in_O_plus(k3, k.reflection_matrix(k3, d))
    # swap of hyperbolic blocks 1 and 2
    perm = [[0] * 22 for _ in range(22)]
    for c in range(2):
        perm[c][2 + c] = 1
        perm[2 + c][c] = 1
    for i in range(4, 22):
        perm[i][i] = 1
    assert not k.is_in_O_plus(k3, tuple(tuple(r) for r in perm))


def test_is_in_o_plus_diag_frame():
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    flip_last = tuple(tuple((-1 if i == 3 else 1) if i == j else 0 for j in range(4)) for i in range(4))
    assert k.is_in_O_plus(sp, flip_last)
    flip_first = tuple(tuple((-1 if i == 0 else 1) if i == j else 0 for j in range(4)) for i in range(4))
    assert not k.is_in_O_plus(sp, flip_first)


def test_is_in_o_plus_rejects_an_isometry_of_another_space(k3):
    # The reflection in e4 + e5 of diag(1,1,1,-1^19) is no isometry of K3:
    # as an Isometry it names the wrong space, as a bare matrix it fails the check.
    diag = k.make_standard_lattice("diag", signs=[1, 1, 1] + [-1] * 19)
    r = k.reflection_matrix(diag, tuple(int(i in (3, 4)) for i in range(22)))
    assert k.is_in_O_plus(diag, r)
    with pytest.raises(AmbientMismatchError):
        k.is_in_O_plus(k3, r)
    with pytest.raises(NotIsometryError):
        k.is_in_O_plus(k3, r.matrix)


def test_is_in_o_plus_no_frame(hyperbolic):
    with pytest.raises(FrameError):
        k.is_in_O_plus(hyperbolic, identity_int(2))


def test_o_plus_multiplicative_on_reflections(k3):
    rng = random.Random(67)
    roots = k.roots_orthogonal_to_threespace(
        k3,
        k.ThreeSpace(
            ambient=k3.space,
            basis=tuple(tuple(GaussRational.of(x) for x in uvec(i)) for i in range(3)),
        ),
    ).roots
    word = identity_int(22)
    for _ in range(8):
        d = roots[rng.randrange(len(roots))]
        word = tuple(tuple(int(x) for x in row) for row in mat_mul(k.reflection_matrix(k3, d).matrix, word))
        assert k.is_in_O_plus(k3, word)  # products of reflections stay in O+


def test_period_point_validation(k3):
    x = tuple(
        GaussRational(a, b)
        for a, b in zip([Q(x) for x in uvec(0)], [Q(x) for x in uvec(1)])
    )
    p = k.PeriodPoint(space=k3.space, x=x)
    assert p.real_part() == tuple(Q(x) for x in uvec(0))
    with pytest.raises(InputError):
        k.PeriodPoint(space=k3.space, x=tuple(GaussRational.of(x) for x in uvec(0)))  # <x,x> = 2 != 0
    with pytest.raises(InputError):
        k.PeriodPoint(space=k3.space, x=tuple(GaussRational.of(0) for _ in range(22)))


def test_period_point_accepts_the_lattice_for_its_space(k3):
    x = tuple(GaussRational(Q(a), Q(b)) for a, b in zip(uvec(0), uvec(1)))
    p = k.PeriodPoint(space=k3, x=x)
    assert p == k.PeriodPoint(space=k3.space, x=x)
    assert k.delta_p_bounded(k3, p, 1) == k.delta_p_bounded(k3, k.PeriodPoint(space=k3.space, x=x), 1)


def test_delta_p_bounded_contains_root(k3):
    x = tuple(
        GaussRational(a, b)
        for a, b in zip([Q(x) for x in uvec(0)], [Q(x) for x in uvec(1)])
    )
    p = k.PeriodPoint(space=k3.space, x=x)
    rl = k.delta_p_bounded(k3, p, 1)
    assert not rl.complete and rl.bound_used == 1
    e3f3 = tuple(1 if i == 4 else (-1 if i == 5 else 0) for i in range(22))
    assert e3f3 in rl.roots
    assert len(k.delta_p_bounded(k3, p, 0)) == 0


@pytest.mark.parametrize("i, j, s, t", [(0, 1, 1, 1), (2, 0, -1, 1), (1, 2, 1, -1)])
def test_delta_p_bounded_matches_closed_form(k3, i, j, s, t):
    # p = s(e_i + f_i) + i t(e_j + f_j), the chamber benchmark's period points
    re, im = [0] * 22, [0] * 22
    re[2 * i] = re[2 * i + 1] = s
    im[2 * j] = im[2 * j + 1] = t
    p = k.PeriodPoint(space=k3.space, x=tuple(GaussRational(a, b) for a, b in zip(re, im)))
    rl = k.delta_p_bounded(k3, p, 1)
    expect = k3_u3_box_roots(k3.gram_int, re, im)
    assert len(expect) == 19_694
    assert list(rl.roots) == expect


def test_delta_p_bounded_kernel_rank_drop(k3):
    # perturbing the period point makes previously orthogonal roots pair
    # nontrivially and drop out of the bounded set
    a = Q(1, 3)
    re = [Q(x) for x in uvec(0)]
    re[4] += a
    re[5] -= a  # + a (e3 - f3): norm 2 - 2a^2
    im = [Q(x) for x in uvec(1)]
    im[6] += a  # + a g1 in the first E8(-1) block: norm 2 - 2a^2
    x = tuple(GaussRational(r, i) for r, i in zip(re, im))
    p = k.PeriodPoint(space=k3.space, x=x)
    rl = k.delta_p_bounded(k3, p, 1)
    e3f3 = tuple(1 if i == 4 else (-1 if i == 5 else 0) for i in range(22))
    base = k.delta_p_bounded(k3, k.PeriodPoint(space=k3.space, x=tuple(
        GaussRational(a_, b_) for a_, b_ in zip([Q(v) for v in uvec(0)], [Q(v) for v in uvec(1)])
    )), 1)
    assert e3f3 in base.roots and e3f3 not in rl.roots
    assert len(rl) < len(base)


def test_partition_basic(k3):
    r = e1_minus_f1()
    roots = k.RootList(roots=tuple(sorted([r, tuple(-x for x in r)])), complete=False)
    kappa = tuple(Q(x) for x in uvec(0))
    with pytest.raises(WallError):
        k.partition_by_chamber(k3, roots, kappa)  # kappa on the wall of e1-f1
    kappa2 = [Q(0)] * 22
    kappa2[0], kappa2[1] = Q(1), Q(2)  # e1 + 2 f1: <k,k> = 4 > 0, <k, e1-f1> = 1
    part = k.partition_by_chamber(k3, roots, tuple(kappa2))
    assert part.plus == (r,)
    assert part.minus == (tuple(-x for x in r),)
    assert sorted(part.plus + part.minus) == sorted(roots.roots)


def test_partition_example_third_block(k3):
    r = tuple(1 if i == 4 else (-1 if i == 5 else 0) for i in range(22))  # e3 - f3
    kappa = [Q(0)] * 22
    kappa[4], kappa[5] = Q(1), Q(2)  # e3 + 2 f3
    part = k.partition_by_chamber(k3, [r, tuple(-x for x in r)], tuple(kappa))
    assert part.plus == (r,)


def test_partition_kappa_must_be_positive(k3):
    r = e1_minus_f1()
    with pytest.raises(NonPositiveKappaError):
        k.partition_by_chamber(k3, [r], tuple(Q(x) for x in r))


def _a2_triple(e8_neg):
    # chain-adjacent basis roots of E8(-1) with their sum: an A2 configuration
    d1 = unit(2, 8)
    d2 = unit(3, 8)
    s = tuple(a + b for a, b in zip(d1, d2))
    assert k.bilinear(e8_neg, d1, d1) == -2
    assert k.bilinear(e8_neg, s, s) == -2
    return d1, d2, s


def test_partition_property_orthogonal_roots(k3):
    d1 = e1_minus_f1()
    d2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(22))
    res = k.check_partition_property(k3, [d1, d2], depth=4)
    assert res.ok


def test_partition_property_a2(e8_neg):
    d1, d2, s = _a2_triple(e8_neg)
    assert k.check_partition_property(e8_neg, [d1, d2, s], depth=4).ok
    bad = k.check_partition_property(e8_neg, [d1, d2], depth=4)
    assert not bad.ok
    coeffs, delta = bad.violation
    assert delta == s
    assert coeffs == (1, 1)


def test_partition_property_rejects_sign_pair(k3):
    d = e1_minus_f1()
    with pytest.raises(InputError):
        k.check_partition_property(k3, [d, tuple(-x for x in d)])


@pytest.mark.parametrize("depth", [2.5, True, "3"])
def test_partition_property_rejects_a_depth_that_is_not_an_int(e8_neg, depth):
    # depth 2.5 once returned ok after the pair scan.
    d1, d2, _ = _a2_triple(e8_neg)
    with pytest.raises(InputError, match="depth must be an integer"):
        k.check_partition_property(e8_neg, [d1, d2], depth=depth)


@pytest.mark.parametrize("depth", [0, -3])
def test_partition_property_rejects_depth_below_one(e8_neg, depth):
    d1, d2, _ = _a2_triple(e8_neg)
    with pytest.raises(InputError):
        k.check_partition_property(e8_neg, [d1, d2], depth=depth)
    # depth 1 scans no sum of two or more roots, so it finds nothing
    assert k.check_partition_property(e8_neg, [d1, d2], depth=1).ok


def test_chamber_transport_a2(k3):
    # Reflecting kappa in a simple plus-root flips exactly that root's sign
    # when the root set is closed under the reflection (finite analog of the
    # simply transitive Weyl action).  The A2 sits in the first E8(-1) block
    # of K3; kappa gains positive norm from the first hyperbolic block.
    d1 = unit(8, 22)
    d2 = unit(9, 22)
    s = tuple(a + b for a, b in zip(d1, d2))
    assert k.bilinear(k3, d1, d1) == -2 and k.bilinear(k3, s, s) == -2
    roots = sorted([d1, d2, s, tuple(-x for x in d1), tuple(-x for x in d2), tuple(-x for x in s)])
    rl = k.RootList(roots=tuple(roots), complete=False)
    kappa = tuple(2 * Q(a) - Q(b) for a, b in zip(uvec(0), s))
    assert k.bilinear(k3, kappa, kappa) == 6
    part = k.partition_by_chamber(k3, rl, kappa)
    assert set(part.plus) == {d1, d2, s}
    refl_kappa = tuple(k.reflect(k3, d1, kappa))
    part2 = k.partition_by_chamber(k3, rl, refl_kappa)
    assert set(part2.plus) == {tuple(-x for x in d1), d2, s}


# U + U in coordinates (e1, f1, e2, f2).
UU_GRAM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
# Span semidefinite with a radical: Gram [[-2, 2], [2, -2]], signature (0, 1, 1).
UU_SEMIDEFINITE = [(-1, 1, -2, 0), (-1, -1, 2, -1)]
# Span indefinite, signature (2, 2, 0).
UU_INDEFINITE = [(-1, 1, 0, 2), (1, 1, 2, -1), (0, -2, 1, -1), (2, 0, -1, 1)]


def _uu():
    return k.IntegralLattice(k.QuadraticSpace(UU_GRAM))


def _e8_neg_positive_system(e8_neg):
    kappa = (1, 10, 100, 1000, 10**4, 10**5, 10**6, 10**7)  # generic: off every wall
    roots = k.enumerate_norm_vectors(k.E8_GRAM, 2)
    plus = [r for r in roots if k.bilinear(e8_neg, kappa, r) > 0]
    assert len(plus) == 120
    return plus


def test_partition_property_semidefinite_span_keeps_scanning():
    uu = _uu()
    assert k.signature([[k.bilinear(uu, x, y) for y in UU_SEMIDEFINITE] for x in UU_SEMIDEFINITE]) == (0, 1, 1)
    assert k.check_partition_property(uu, UU_SEMIDEFINITE, depth=2).ok
    bad = k.check_partition_property(uu, UU_SEMIDEFINITE, depth=3)
    assert bad.violation == ((2, 1), (-3, 1, -2, -1))


def test_partition_property_indefinite_span_keeps_scanning():
    uu = _uu()
    assert k.signature([[k.bilinear(uu, x, y) for y in UU_INDEFINITE] for x in UU_INDEFINITE]) == (2, 2, 0)
    assert k.check_partition_property(uu, UU_INDEFINITE, depth=2).ok
    bad = k.check_partition_property(uu, UU_INDEFINITE, depth=3)
    assert bad.violation == ((1, 0, 1, 1), (1, -1, 0, 2))


def test_partition_property_e8_positive_system_depth_4(e8_neg):
    plus = _e8_neg_positive_system(e8_neg)
    assert k.check_partition_property(e8_neg, plus, depth=4) == k.PartitionCheck(ok=True)
    members = set(plus)
    r = next(r for r in plus if any(tuple(a - b for a, b in zip(r, s)) in members for s in plus))  # not simple
    flipped = [tuple(-x for x in r)] + [s for s in plus if s != r]
    coeffs, delta = k.check_partition_property(e8_neg, flipped, depth=4).violation
    assert sum(coeffs) == 2 and delta not in flipped and k.bilinear(e8_neg, delta, delta) == -2


class _Scanned(Exception):
    pass


def test_partition_property_scans_only_spans_that_are_not_negative_definite(e8_neg, monkeypatch):
    def scan(*args):
        raise _Scanned

    monkeypatch.setattr(k.weyl, "combinations_with_replacement", scan)
    # Negative definite: the pairs decide every depth.
    assert k.check_partition_property(e8_neg, _e8_neg_positive_system(e8_neg), depth=4).ok
    for plus in (UU_SEMIDEFINITE, UU_INDEFINITE):
        assert k.check_partition_property(_uu(), plus, depth=2).ok
        with pytest.raises(_Scanned):
            k.check_partition_property(_uu(), plus, depth=3)
