import random
from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import GaussRational, rootenum
from k3cycles.errors import BudgetExceededError, InputError, InternalCheckError, NotPositiveDefiniteError, NotPositiveError
from k3cycles.linalg import hnf, identity_int, int_kernel
from k3cycles.rootenum import _enumerate_up_to, _ldl, _positive_definite

from conftest import gauss_rows, uvec, vprime_rows
from oracles import block_sum_roots, box_scan_roots, dense_bilinear, naive_box_norm_vectors, naive_box_radius_vectors


def test_enumerate_rank_one():
    assert k.enumerate_norm_vectors(((2,),), 2) == ((-1,), (1,))


def test_enumerate_a2_against_naive():
    a2 = ((2, -1), (-1, 2))
    got = k.enumerate_norm_vectors(a2, 2)
    assert len(got) == 6
    assert list(got) == naive_box_norm_vectors(a2, 2)


def test_enumerate_e8_count(e8):
    got = k.enumerate_norm_vectors(e8.gram_int, 2)
    assert len(got) == 240
    # closed under negation
    got_set = set(got)
    assert all(tuple(-x for x in v) in got_set for v in got)


NOT_POSITIVE_DEFINITE = (
    ((0, 1), (1, 0)),
    # Forms a pivoting elimination runs past: a zero pivot it would skip, a
    # radical it would stop at, a negative pivot, a pivot out of order.
    ((0, 0), (0, 1)),
    ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
    ((1, 1), (1, 1)),
    ((1, 0), (0, -1)),
    ((0, 1), (1, 2)),
)


def test_enumerate_requires_positive_definite():
    for gram in NOT_POSITIVE_DEFINITE:
        assert not _positive_definite(gram)
        with pytest.raises(NotPositiveDefiniteError):
            _ldl(gram)
        with pytest.raises(NotPositiveDefiniteError):
            k.enumerate_norm_vectors(gram, 2)
    with pytest.raises(InputError):
        k.enumerate_norm_vectors(((2,),), 0)


def test_fractional_targets():
    # An integer Gram has only integer norms, so 3/2 has no vectors; `_ldl`
    # still decides definiteness, with no walk.
    assert k.enumerate_norm_vectors(k.quadspace.E8_GRAM, Q(3, 2)) == ()
    with pytest.raises(NotPositiveDefiniteError):
        k.enumerate_norm_vectors(((1, 0), (0, -1)), Q(3, 2))
    # The target is checked before the Gram: a non-square, non-symmetric or
    # non-rational Gram with target 0 is an InputError.
    for gram in (((1, 2), (3, 4)), ((1, 2),), (("a",),)):
        with pytest.raises(InputError) as err:
            k.enumerate_norm_vectors(gram, 0)
        assert err.type is InputError


@pytest.mark.parametrize("sign", [1, -1])
def test_a_non_positive_diagonal_is_rejected_before_elimination(monkeypatch, sign):
    # K3 and K3(-1) have zero diagonal entries (the U blocks): no form with
    # e_i^T G e_i <= 0 is positive definite, so no elimination runs.
    gram = tuple(tuple(sign * x for x in row) for row in k.quadspace.K3_GRAM)

    def refuse(m):
        raise AssertionError("the elimination ran")

    monkeypatch.setattr(rootenum, "_symmetric_bareiss", refuse)
    with pytest.raises(NotPositiveDefiniteError, match="form is not positive definite"):
        _ldl(gram)
    assert not _positive_definite(gram)
    with pytest.raises(NotPositiveDefiniteError):
        k.enumerate_norm_vectors(gram, 2)
    # a positive diagonal still needs the elimination
    with pytest.raises(AssertionError, match="the elimination ran"):
        _ldl(((1, 2), (2, 1)))


def up_to(gram, radius):
    """The walk's leaves with norm <= radius, sorted, from their images under identity rows."""
    return sorted(x for xs in _enumerate_up_to(gram, radius, identity_int(len(gram))).values() for x in xs)


def test_walk_matches_box_oracles_e8_and_vprime_complement(e8, k3):
    # The target search and the one Fincke-Pohst walk under it against the box scans.
    # E8 gives the full 240 roots.  The rank-19 vprime complement box has
    # about 4.7e14 points, so its principal sub-grams carrying the largest
    # entries (1292 and 990) stand in for it.
    got = k.enumerate_norm_vectors(e8.gram_int, 2)
    assert len(got) == 240
    assert list(got) == naive_box_norm_vectors(e8.gram_int, 2)
    assert up_to(e8.gram_int, 2) == naive_box_radius_vectors(e8.gram_int, 2)
    sub = k.orthogonal_complement_lattice(k3, vprime_rows())
    neg = [[-x for x in row] for row in sub.restricted_gram]
    assert max(abs(x) for row in neg for x in row) == 1292
    for idx, targets in ((range(12, 19), (2, 4, 6)), (range(8), (10, 20, 40))):
        block = tuple(tuple(neg[i][j] for j in idx) for i in idx)
        found = 0
        for t in targets:
            got = k.enumerate_norm_vectors(block, t)
            assert list(got) == naive_box_norm_vectors(block, t)
            assert up_to(block, t) == naive_box_radius_vectors(block, t)
            found += len(got)
        assert found > 0


def test_enumerate_small_grams_against_naive():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            g = [[sum(b[i][l] * b[j][l] for l in range(n)) + (2 if i == j else 0) for j in range(n)] for i in range(n)]
            if k.signature(g) == (n, 0, 0):
                break
        target = rng.choice([2, 4, 6])
        got = list(k.enumerate_norm_vectors(tuple(tuple(r) for r in g), target))
        assert got == naive_box_norm_vectors(g, target)


def test_complement_of_u3_diagonal(k3):
    sub = k.orthogonal_complement_lattice(k3, [uvec(i) for i in range(3)])
    assert sub.rank == 19
    # restricted gram is diag(-2,-2,-2) + E8(-1) + E8(-1) up to basis order
    diag_counts = sorted(sub.restricted_gram[i][i] for i in range(19))
    assert all(d == -2 for d in diag_counts)
    roots = block_sum_roots(sub.restricted_gram)
    assert len(roots) == 486


def test_complement_in_u(hyperbolic):
    e1 = (Q(1), Q(0))
    sub = k.orthogonal_complement_lattice(hyperbolic, [e1])
    assert sub.rank == 1
    assert sub.basis == ((1, 0),)
    assert sub.restricted_gram == ((0,),)


def test_complement_no_constraints(k3):
    sub = k.orthogonal_complement_lattice(k3, [])
    assert sub.rank == 22
    assert sub.basis == tuple(tuple(1 if i == j else 0 for j in range(22)) for i in range(22))


def test_complement_saturation_random(k3):
    rng = random.Random(23)
    for _ in range(8):
        m = rng.randint(1, 4)
        constraints = [tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22)) for _ in range(m)]
        sub = k.orthogonal_complement_lattice(k3, constraints)
        # double-complement certification: the kernel of the kernel's rational
        # complement reproduces the basis span, so the index is 1
        comp = int_kernel(sub.basis)
        again = int_kernel(comp) if comp else hnf(tuple(tuple(1 if i == j else 0 for j in range(22)) for i in range(22)))
        assert hnf(sub.basis) == again


def test_roots_orthogonal_counts(k3, u3_diagonal):
    rl = k.roots_orthogonal_to_threespace(k3, u3_diagonal)
    assert rl.complete
    assert len(rl) == 486
    assert rl.roots == tuple(block_sum_roots_in_ambient(k3, u3_diagonal))
    # negation closure and norm recheck
    got = set(rl.roots)
    for v in rl.roots:
        assert tuple(-x for x in v) in got
        assert dense_bilinear(k3.gram_int, v, v) == -2


def block_sum_roots_in_ambient(k3, threespace):
    """Oracle: roots of the block restricted form mapped to ambient coordinates."""
    sub = k.orthogonal_complement_lattice(
        k3, [tuple(x.re for x in row) for row in threespace.basis]
    )
    out = []
    for t in block_sum_roots(sub.restricted_gram):
        out.append(sub.to_ambient(t))
    out.sort()
    return out


def test_roots_orthogonal_to_vprime_empty(k3, vprime):
    rl = k.roots_orthogonal_to_threespace(k3, vprime)
    assert rl.complete
    assert len(rl) == 0


def _diag_threespace(signs):
    lattice = k.IntegralLattice(k.make_standard_lattice("diag", signs=signs))
    rows = [tuple(int(i == j) for j in range(len(signs))) for i in range(3)]
    return lattice, k.ThreeSpace(ambient=lattice.space, basis=gauss_rows(rows))


@pytest.mark.parametrize("negatives", [2, 4])
def test_roots_of_odd_diagonal_complements_cross_blocks(negatives):
    # The complement of span(e1, e2, e3) in diag(1,1,1,-1,...,-1) is <-1>^m: each
    # coordinate is its own block and every root +-e_i +-e_j takes norm -1 from
    # two of them, so a union of per-block roots would be empty.
    lattice, v = _diag_threespace([1, 1, 1] + [-1] * negatives)
    n = 3 + negatives
    expect = sorted(
        tuple(a if c == i else b if c == j else 0 for c in range(n))
        for i in range(3, n)
        for j in range(i + 1, n)
        for a in (1, -1)
        for b in (1, -1)
    )
    rl = k.roots_orthogonal_to_threespace(lattice, v)
    assert rl.complete
    assert len(rl) == {2: 4, 4: 24}[negatives]
    assert list(rl.roots) == expect
    with pytest.raises(ValueError, match="even blocks"):
        block_sum_roots([row[3:] for row in lattice.gram_int[3:]])  # the one-block oracle refuses odd blocks


def _recorded_summands(monkeypatch):
    """The components whose shells the complete search reads from the summand table."""
    summand, read = rootenum._summand_shell, []
    monkeypatch.setattr(rootenum, "_summand_shell", lambda gram, comp: read.append(comp) or summand(gram, comp))
    return read


def _k3_row(*entries):
    return [Q(sum(x for c, x in entries if c == j)) for j in range(22)]


E8_A, E8_B = tuple(range(6, 14)), tuple(range(14, 22))


@pytest.mark.parametrize("rows, untouched, count", [
    ([uvec(0), uvec(1), uvec(2)], (E8_A, E8_B), 486),
    ([uvec(0), uvec(1), _k3_row((4, 2), (5, 2), (13, 1))], (E8_B,), 376),
    ([uvec(0), _k3_row((2, 2), (3, 2), (13, 1)), _k3_row((4, 2), (5, 2), (21, 1))], (), 266),
], ids=["no_e8_touched", "one_e8_touched", "both_e8_touched"])
def test_untouched_e8_summands_join_the_reduced_touched_part(monkeypatch, k3, rows, untouched, count):
    # V touches zero, one or both E8(-1) blocks (each row 2(e_i + f_i) plus a
    # root of one block keeps V positive); the blocks it leaves untouched are
    # read from the summand table, and the roots of the whole complement,
    # from the oracle's box scans of its HNF blocks, must come out.
    v = k.ThreeSpace(ambient=k3.space, basis=gauss_rows(rows))
    read = _recorded_summands(monkeypatch)
    rl = k.roots_orthogonal_to_threespace(k3, v)
    assert read == list(untouched)
    assert (rl.complete, len(rl)) == (True, count)
    assert rl.roots == tuple(block_sum_roots_in_ambient(k3, v))


def test_a_cached_minus_one_summand_joins_a_walked_block(monkeypatch):
    # In diag(1,1,1,-1,-1,-1,-1), V = span(e0, e1, 2e2 + e3 + e4) touches
    # coordinates 2..4, whose kernel 2x2 = x3 + x4 is <-2> + <-1> on
    # (0, 1, -1) and (1, 1, 1).  The untouched <-1> summands e5 and e6 come
    # from the table, and the roots +-(e2 + e3 + e4) +-e5 and +-(e2 + e3 + e4)
    # +-e6 each take -1 from the walked block and -1 from a cached one.
    signs = [1, 1, 1, -1, -1, -1, -1]
    lattice = k.IntegralLattice(k.make_standard_lattice("diag", signs=signs))
    rows = [[int(j == 0) for j in range(7)], [int(j == 1) for j in range(7)], [0, 0, 2, 1, 1, 0, 0]]
    v = k.ThreeSpace(ambient=lattice.space, basis=gauss_rows(rows))
    read = _recorded_summands(monkeypatch)
    rl = k.roots_orthogonal_to_threespace(lattice, v)
    assert read == [(5,), (6,)]
    want = box_scan_roots(lattice.gram_int, rows, 2)
    assert list(rl.roots) == want and len(want) == 14
    crossing = [r for r in want if r[2] and (r[5] or r[6])]
    assert len(crossing) == 8


@pytest.mark.parametrize("gram", [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((2, 1, 0), (1, 2, 0), (0, 0, -1))])
def test_lll_rejects_a_form_that_is_not_positive_definite(gram):
    with pytest.raises(NotPositiveDefiniteError):
        rootenum._lll(gram)


def _patched_lll(monkeypatch, edit):
    lll = rootenum._lll
    monkeypatch.setattr(rootenum, "_lll", lambda gram: edit([list(r) for r in lll(gram)]))


def test_certificate_rejects_a_transform_that_is_not_unimodular(monkeypatch, k3, vprime):
    def double_first_row(H):
        H[0] = [2 * x for x in H[0]]
        return H

    _patched_lll(monkeypatch, double_first_row)
    with pytest.raises(InternalCheckError, match="unimodular"):
        k.roots_orthogonal_to_threespace(k3, vprime)


@pytest.mark.parametrize("edit", ["reverse", "negate", "rotate"])
def test_certificate_takes_the_block_form_from_the_ambient_rows(monkeypatch, k3, u3_diagonal, edit):
    # The LLL returns only its transform H; the blocks come from the ambient
    # Gram of the rows of H, so no Gram the LLL could falsify reaches the walk.
    # Any signed permutation of the rows of H is unimodular and spans the same
    # complement, so it must give the same 486 roots.  The LLL sees only the
    # touched part, so the reflected image, whose touched part has rank 11,
    # gives each edit an H that it changes.
    v = _reflected(k3, u3_diagonal, 2)
    ranks = []

    def falsify(H):
        if edit == "reverse":
            edited = H[::-1]
        elif edit == "negate":
            edited = [[-x for x in row] if i % 2 else row for i, row in enumerate(H)]
        else:
            edited = H[3:] + H[:3]
        assert edited != H
        ranks.append(len(H))
        return edited

    expect = k.roots_orthogonal_to_threespace(k3, v)
    _patched_lll(monkeypatch, falsify)
    got = k.roots_orthogonal_to_threespace(k3, v)
    assert ranks == [11]
    assert (got.complete, len(got)) == (True, 486)
    assert got.roots == expect.roots


def test_certificate_rejects_a_walk_beyond_its_radius(monkeypatch, k3, u3_diagonal):
    # A walk that runs one step past both ends of every interval reaches leaves
    # outside its radius; each leaf's norm, summed from the block Gram, must
    # catch them.
    interval = rootenum._int_interval

    def widened(s, lead, bound):
        lo, hi = interval(s, lead, bound)
        return lo - 1, hi + 1

    monkeypatch.setattr(rootenum, "_int_interval", widened)
    with pytest.raises(InternalCheckError, match="outside the walk radius"):
        k.roots_orthogonal_to_threespace(k3, u3_diagonal)


def test_exact_walk_checks_each_leaf_norm(monkeypatch):
    # The target search walks out to its target and keeps that norm group;
    # each leaf's norm from the Gram must lie within the walk radius.  Walking
    # A2 by the LDL^T of the identity reaches (-1, 1), of A2-norm 6 (its
    # mirror (1, -1) is not walked).
    ldl = rootenum._ldl
    monkeypatch.setattr(rootenum, "_ldl", lambda gram: ldl(((1, 0), (0, 1))))
    with pytest.raises(InternalCheckError, match="block vector \\(-1, 1\\) has norm 6 outside the walk radius 2"):
        k.enumerate_norm_vectors(((2, -1), (-1, 2)), 2)


def test_rank_one_walk_has_only_the_leaf_level(monkeypatch):
    # Level 0 is the only level, so it emits every leaf itself: 0 once, and
    # the positive half of its interval, each with its mirror.
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    assert _enumerate_up_to(((2,),), 2) == {0: [(0,)], 2: [(1,), (-1,)]}
    assert _enumerate_up_to(((2,),), 2, [(1, 0, -1)]) == {0: [(0, 0, 0)], 2: [(1, 0, -1), (-1, 0, 1)]}
    assert len(calls) == 2
    assert _enumerate_up_to((), 2) == {0: [()]}


def test_walk_mirrors_the_zero_path_at_the_leaf_level():
    # With x_1 = 0 the leaf level is on the zero path: it walks x_0 in [0, 1]
    # and mirrors (1, 0); with x_1 = 1 it is off that path and walks x_0 = 0.
    rows = [(0, 1, 0), (0, 0, 2)]
    assert _enumerate_up_to(((1, 0), (0, 1)), 1) == {0: [(0, 0)], 1: [(1, 0), (-1, 0), (0, 1), (0, -1)]}
    assert _enumerate_up_to(((1, 0), (0, 1)), 1, rows) == {0: [(0, 0, 0)], 1: [(0, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, -2)]}
    # On A2 the branch x_1 = 1 is off the zero path: its leaf level walks
    # x_0 in [0, 1], and each leaf comes with its mirror.
    assert _enumerate_up_to(((2, -1), (-1, 2)), 2)[2] == [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def test_certificate_rejects_a_leaf_beyond_the_radius_of_a_rank_one_walk(monkeypatch):
    # On a rank-1 walk the one level is the leaf level: its first step past
    # the interval, x = 2, has norm 8.
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: (lambda lo, hi: (lo - 1, hi + 1))(*interval(*a)))
    with pytest.raises(InternalCheckError, match="block vector \\(2,\\) has norm 8 outside the walk radius 2"):
        _enumerate_up_to(((2,),), 2, [(1, 0, -1)])


# U + U + A1(-1) under the pinned constraint of test_properties: a kernel of
# rank 4 in two blocks, of ranks 3 (scanned) and 1 (walked), sharing a
# coordinate on which the join drops leaves outside the box; 12 roots.
SHARED_GRAM = ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, -2))
SHARED_CONSTRAINT = (Q(-1), Q(-1), Q(1), Q(2), Q(1))


def _shared_search():
    return k.bounded_root_search(k.IntegralLattice(k.QuadraticSpace(SHARED_GRAM)), [SHARED_CONSTRAINT], 1)


def test_certificate_rejects_a_walked_partial_that_is_not_its_coefficients_image(monkeypatch):
    # The walked block is the rank-1 one, row (0, 0, 0, 2, 1); its table must
    # hold the images t rows[0] of the walk's t, whose ambient norm is the key
    # t^T B t.  Doubling the row makes each partial's norm four times its key.
    assert len(_shared_search()) == 12
    walk = rootenum._enumerate_up_to

    def doubled(gram, radius, rows=None, clip=None):
        if rows is not None and len(rows) == 1:
            rows = [tuple(2 * c for c in rows[0])]
        return walk(gram, radius, rows, clip)

    monkeypatch.setattr(rootenum, "_enumerate_up_to", doubled)
    with pytest.raises(InternalCheckError, match="fails its norm -2"):
        _shared_search()


def test_certificate_rejects_a_walked_partial_off_its_block_span(monkeypatch):
    # The walked block's local coordinates are ambient 3 and 4, where its row
    # is (2, 1) and the constraint row G c is (1, -2): every combination of
    # the block's local rows pairs to 0 with it.  Adding 1 on local coordinate
    # 0 (ambient 3, isotropic) keeps each partial's local norm, and the block
    # has no own coordinate to box, but each partial then pairs to 1.
    walk = rootenum._enumerate_up_to

    def shifted(gram, radius, rows=None, clip=None):
        groups = walk(gram, radius, rows, clip)
        if rows is not None and len(rows) == 1:
            groups = {a: [(x[0] + 1,) + x[1:] for x in xs] for a, xs in groups.items()}
        return groups

    monkeypatch.setattr(rootenum, "_enumerate_up_to", shifted)
    with pytest.raises(InternalCheckError, match="block 1 does not pair to 0 with a constraint row"):
        _shared_search()


def test_certificate_rejects_a_table_key_off_by_one(monkeypatch):
    # The walked table's keys are the walk's norms, negated: moving the
    # walk's largest norm up by one moves the table's lowest key down by one.
    walk = rootenum._enumerate_up_to

    def off_by_one(*args, **kwargs):
        groups = walk(*args, **kwargs)
        top = max(groups)
        groups[top + 1] = groups.pop(top)
        return groups

    monkeypatch.setattr(rootenum, "_enumerate_up_to", off_by_one)
    with pytest.raises(InternalCheckError, match="fails its norm"):
        _shared_search()


def test_certificate_rejects_a_leaf_group_found_under_another_key(monkeypatch):
    # The join looks the last table up by the rest of the target; the group it
    # finds must carry the key that makes up that rest with the keys entered.
    join = rootenum._join

    def shifted(tables, *args):
        return join(tables[:-1] + [{a + 2: group for a, group in tables[-1].items()}], *args)

    monkeypatch.setattr(rootenum, "_join", shifted)
    with pytest.raises(InternalCheckError, match="add up to -4, not the target -2"):
        _shared_search()


def test_certificate_rejects_a_restricted_gram_coupling_two_blocks(monkeypatch):
    # Block keys add up to a root's norm only if the kernel rows of two blocks
    # are orthogonal in the ambient Gram, which the restricted Gram must show.
    row_gram = rootenum.row_gram

    def coupled(rows, vectors):
        g = [list(r) for r in row_gram(rows, vectors)]
        assert rootenum._components(g) == [[0, 1, 2], [3]]
        g[0][3] = g[3][0] = 1
        return tuple(map(tuple, g))

    monkeypatch.setattr(rootenum, "row_gram", coupled)
    with pytest.raises(InternalCheckError, match="restricted Gram differs"):
        _shared_search()


def test_certificate_rejects_a_leaf_group_whose_prefixes_are_mis_sized(monkeypatch):
    # A leaf is its prefix (zeros on the free coordinates, then the own parts
    # of every table but the last) concatenated with the last own part and
    # the shared sum.  One extra coordinate on the first table's own parts
    # leaves the coordinate order a permutation, but every leaf group's
    # prefixes one coordinate too long.
    join = rootenum._join

    def padded(tables, *args):
        first = {a: (a, [(o + (0,), s) for o, s in xs]) for a, (_, xs) in tables[0].items()}
        return join([first] + tables[1:], *args)

    monkeypatch.setattr(rootenum, "_join", padded)
    with pytest.raises(InternalCheckError, match="prefixes have 4 coordinates, not 3"):
        _shared_search()


def test_certificate_rejects_a_leaf_outside_the_box_on_a_shared_coordinate(monkeypatch):
    join = rootenum._join
    # An unbounded box on the summed shared parts drops the join's leaf test there.
    monkeypatch.setattr(rootenum, "_join", lambda tables, target, bound, *layout: join(tables, target, 10**9, *layout))
    with pytest.raises(InternalCheckError, match="shared coordinate"):
        _shared_search()


def test_certificate_rejects_a_join_order_that_repeats_a_coordinate(monkeypatch):
    # A leaf is put back in coordinate order from the concatenated parts; the
    # order must be a permutation, or a coordinate would be read twice.
    join = rootenum._join

    def repeated(tables, target, bound, free, own, shared):
        return join(tables, target, bound, free + own[0][:1], own, shared)

    monkeypatch.setattr(rootenum, "_join", repeated)
    with pytest.raises(InternalCheckError, match="not a permutation"):
        _shared_search()


def test_certificate_rejects_a_partial_off_its_own_and_shared_coordinates(monkeypatch):
    # Each block is walked and certified in its local coordinates, its own and
    # the shared ones.  The walked block's row (0, 0, 0, 2, 1) touches only the
    # shared coordinates 3 and 4; read without its entry on coordinate 4, it
    # leaves 4 to the other block alone, and its local row (2,) would drop
    # that entry, so its partials would be nonzero off the coordinates they
    # are joined on.
    rows = rootenum.sparse_rows
    monkeypatch.setattr(rootenum, "sparse_rows", lambda m: tuple(r[:1] if r == ((3, 2), (4, 1)) else r for r in rows(m)))
    with pytest.raises(InternalCheckError, match="a row of block 1 is nonzero off its own and shared coordinates"):
        _shared_search()


def test_certificate_rejects_an_asymmetric_restricted_gram(monkeypatch):
    # The restricted Gram is paired with the ambient Gram on and above its
    # diagonal only, so below it it must mirror the entries paired above.
    row_gram = rootenum.row_gram

    def lower(rows, vectors):
        g = [list(r) for r in row_gram(rows, vectors)]
        g[3][0] = 1
        return tuple(map(tuple, g))

    monkeypatch.setattr(rootenum, "row_gram", lower)
    with pytest.raises(InternalCheckError, match="restricted Gram differs"):
        _shared_search()


def test_walked_block_with_no_own_coordinate_keeps_every_partial(monkeypatch):
    # The rank-1 block's row (0, 0, 0, 2, 1) touches only the shared
    # coordinates 3 and 4: it has no own coordinate to box, so its table keeps
    # every walked partial, in local coordinates (3, 4), all as shared parts.
    walks, tables = [], []
    walk, join = rootenum._enumerate_up_to, rootenum._join
    monkeypatch.setattr(rootenum, "_enumerate_up_to", lambda *args: walks.append(walk(*args)) or walks[-1])
    monkeypatch.setattr(rootenum, "_join", lambda parts, *args: tables.append(parts) or join(parts, *args))
    assert len(_shared_search()) == 12
    assert walks == [{0: [(0, 0)], 2: [(2, 1), (-2, -1)]}]
    assert tables[0][1] == {0: (0, [((), (0, 0))]), -2: (-2, [((), (-2, -1)), ((), (2, 1))])}


def test_scanned_table_is_in_local_coordinates(monkeypatch):
    # U + A1(-1) with U on coordinates 0 and 2: the scanned U block's
    # partials are pairs on its own coordinates, not triples.
    scans, table = [], rootenum._block_table
    monkeypatch.setattr(rootenum, "_block_table", lambda *args: scans.append(table(*args)) or scans[-1])
    lattice = k.IntegralLattice(k.QuadraticSpace(((0, 0, 1), (0, -2, 0), (1, 0, 0))))
    assert len(k.bounded_root_search(lattice, [], 1)) == 12  # +-e1 with one of 0, +-e0, +-e2, and +-(e0 - e2)
    assert scans == [{-2: (-2, [(-1, 1), (1, -1)]), 0: (0, [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]), 2: (2, [(-1, -1), (1, 1)])}]


def test_walked_table_drops_a_group_the_box_empties(monkeypatch):
    # U + A3(-1) under two constraints: the kernel is one negative definite
    # block of rank 3.  Its walk out to norm 2 finds +-(0, 2, 1, 1, 0), which
    # leave the unit box on the block's own coordinate 1, so that group is
    # dropped, as the scanned blocks' builder makes no empty group; kept, its
    # key -2 would widen the join's norm bounds.
    lattice = k.IntegralLattice(k.QuadraticSpace(((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, -2, 1, 0), (0, 0, 1, -2, 1), (0, 0, 0, 1, -2))))
    constraints = [tuple(map(Q, c)) for c in ((-1, -1, -1, -2, -1), (0, -1, 0, 1, 1))]
    walks, keys = [], []
    walk, join = rootenum._enumerate_up_to, rootenum._join
    monkeypatch.setattr(rootenum, "_enumerate_up_to", lambda *args, **kwargs: walks.append(walk(*args, **kwargs)) or walks[-1])
    monkeypatch.setattr(rootenum, "_join", lambda tables, *args: keys.append([sorted(t) for t in tables]) or join(tables, *args))
    assert len(k.bounded_root_search(lattice, constraints, 1)) == 0
    assert walks == [{0: [(0, 0, 0, 0, 0)], 2: [(0, 2, 1, 1, 0), (0, -2, -1, -1, 0)]}]
    assert keys == [[[0]]]


def test_certificate_rejects_an_asymmetric_interval_on_the_zero_path(monkeypatch):
    # While every coordinate walked so far is 0 the walk takes x_i >= 0 only
    # and mirrors each leaf; that gives back the skipped half only if the
    # interval is symmetric.
    interval = rootenum._int_interval

    def shifted(s, lead, bound):
        lo, hi = interval(s, lead, bound)
        return (lo, hi + 1) if s == 0 else (lo, hi)

    monkeypatch.setattr(rootenum, "_int_interval", shifted)
    with pytest.raises(InternalCheckError, match="not symmetric"):
        k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 2)


def _reflected(k3, v, seed):
    """v moved by the reflection in a seeded root: +-e_i or +-f_i of one U
    block (isotropic) plus a root of one E8(-1) block."""
    rng = random.Random(seed)
    d = [0] * 22
    d[rng.randrange(6)] = rng.choice((1, -1))
    off = rng.choice((6, 14))
    d[off:off + 8] = rng.choice(k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 2))
    return k.apply_isometry(k.reflection_matrix(k3, tuple(d)), v)


@pytest.mark.parametrize("fixture, seed, cold, warm, count", [
    pytest.param("u3_diagonal", None, 257, 3, 486, id="u3_diagonal-257-486"),
    pytest.param("vprime", None, 19, 19, 0, id="vprime-19-0"),
    pytest.param("u3_diagonal", 2, 511, 257, 486, id="u3_diagonal_reflected-511-486"),
    pytest.param("vprime", 2, 19, 19, 0, id="vprime_reflected-19-0"),
])
def test_complete_search_node_counts(monkeypatch, request, k3, fixture, seed, cold, warm, count):
    # Fincke-Pohst visits are machine-independent: one `_int_interval` call per
    # interior node of the walk, the calls the benchmark's fp_nodes counts.
    # A change to the reduction or to the walk that visits other nodes shows
    # here.  A cold call also walks the untouched E8(-1) summands, once for
    # both (254 nodes); a warm one reads them from the table.  The U^3
    # diagonal touches no E8(-1) block (its touched part walks 3 nodes), its
    # reflected image one, which the LLL then reduces with the rest (257
    # nodes); `vprime` and its image touch every coordinate.
    v = request.getfixturevalue(fixture)
    v = v if seed is None else _reflected(k3, v, seed)
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    counts = []  # the tables start empty (conftest)
    for _ in range(2):
        calls.clear()
        found = len(k.roots_orthogonal_to_threespace(k3, v))
        counts.append((len(calls), found))
    assert counts == [(cold, count), (warm, count)]


def _delta_p_e1f1_e2f2(k3):
    """Delta_p at bound 1 for p = (e1 + f1) + i (e2 + f2): the chamber workload's point."""
    x = tuple(GaussRational(a, b) for a, b in zip(uvec(0), uvec(1)))
    return k.delta_p_bounded(k3, k.PeriodPoint(space=k3.space, x=x), 1)


@pytest.mark.parametrize("search, nodes, count", [
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 2), 254, 240),
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 4), 1564, 2160),
    (_delta_p_e1f1_e2f2, 341, 19694),
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, Q(15, 2)), 0, 0),
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, Q(3, 2)), 0, 0),
], ids=["e8_norm_2", "e8_norm_4", "delta_p_bound_1", "e8_norm_15_2", "e8_norm_3_2"])
def test_target_and_bounded_walk_node_counts(monkeypatch, k3, search, nodes, count):
    # The same `_int_interval` count as the complete search's, for the target
    # search and for the walked blocks of the bounded search.  A target that
    # clears to a non-integer has no vectors and is not walked.
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    found = search(k3)
    assert (len(calls), len(found)) == (nodes, count)


def test_delta_p_walks_each_distinct_block_once(monkeypatch, k3):
    # Delta_p's kernel has two E8(-1) blocks and two rank-1 blocks, the rows
    # e1 - f1 and e2 - f2; each pair has one negated Gram, local rows, own
    # width and clip, so it shares one walked table: one E8 walk (340 nodes)
    # and one rank-1 walk (1 node), not two of each.
    calls, walk = [], rootenum._enumerate_up_to
    monkeypatch.setattr(rootenum, "_enumerate_up_to", lambda *args: calls.append(args) or walk(*args))
    assert len(_delta_p_e1f1_e2f2(k3)) == 19694
    assert sorted(len(gram) for gram, *_ in calls) == [1, 8]


@pytest.mark.parametrize("clip, nodes, leaves", [(None, 1564, 2401), ([1] * 8, 340, 561)], ids=["unclipped", "clipped_1"])
def test_clipped_walk_node_counts(monkeypatch, clip, nodes, leaves):
    # One E8 block of Delta_p, walked out to radius 4: the bounded search
    # clips it to its coefficient box [-1, 1]^8, which keeps 561 of the 2,401
    # vectors and skips the nodes that lead only to the others.
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    walk = _enumerate_up_to(k.quadspace.E8_GRAM, 4, clip=clip)
    assert (len(calls), sum(map(len, walk.values()))) == (nodes, leaves)


def test_certificate_rejects_a_one_sided_clip(monkeypatch, k3):
    # The bounded search clips each walked coordinate to [-W_k, W_k]; a clip
    # to [0, W_k] alone leaves the zero path's interval asymmetric, so the
    # mirrored leaves would not give back the skipped half.
    class Upper(int):
        def __neg__(self):
            return 0

    walk = rootenum._enumerate_up_to

    def one_sided(gram, radius, rows=None, clip=None):
        return walk(gram, radius, rows, clip and [Upper(c) for c in clip])

    monkeypatch.setattr(rootenum, "_enumerate_up_to", one_sided)
    with pytest.raises(InternalCheckError, match="not symmetric"):
        _delta_p_e1f1_e2f2(k3)


@pytest.mark.parametrize("fixture, count", [("u3_diagonal", 486), ("vprime", 0)])
def test_complete_search_walks_every_block_without_a_bound(monkeypatch, request, k3, fixture, count):
    # The reduced complement is negative definite, so the complete search
    # joins its shells itself: it neither bounds coefficients nor tests a
    # block for definiteness, and never enters the bounded search's join.
    def refuse(*args):
        raise AssertionError("the complete search has no box")

    monkeypatch.setattr(rootenum, "_block_roots", refuse)
    monkeypatch.setattr(rootenum, "_coefficient_bounds", refuse)
    monkeypatch.setattr(rootenum, "_positive_definite", refuse)
    rl = k.roots_orthogonal_to_threespace(k3, request.getfixturevalue(fixture))
    assert (rl.complete, len(rl)) == (True, count)


def test_roots_orthogonal_requires_positive(k3):
    neg = [uvec(0), uvec(1)]
    third = [Q(0)] * 22
    third[6] = Q(1)  # an E8(-1) direction: not positive
    with pytest.raises(NotPositiveError):
        k.roots_orthogonal_to_threespace(k3, k.ThreeSpace(ambient=k3.space, basis=gauss_rows(neg + [tuple(third)])))


def test_bounded_search_contains_known_root(k3):
    rl = k.bounded_root_search(k3, [uvec(0), uvec(1)], 1)
    assert not rl.complete and rl.bound_used == 1
    e3f3 = tuple(1 if i == 4 else (-1 if i == 5 else 0) for i in range(22))
    assert e3f3 in rl.roots
    assert tuple(-x for x in e3f3) in rl.roots
    for v in rl.roots:
        assert all(abs(c) <= 1 for c in v)
        assert dense_bilinear(k3.gram_int, v, v) == -2


def test_bounded_search_matches_exhaustive_scan(hyperbolic):
    # rank small enough for a literal box scan
    import itertools

    got = k.bounded_root_search(hyperbolic, [], 2)
    expect = sorted(
        v
        for v in itertools.product(range(-2, 3), repeat=2)
        if dense_bilinear(hyperbolic.gram_int, v, v) == -2
    )
    assert list(got.roots) == expect


def test_bounded_search_matches_scan_in_u3():
    import itertools

    u3 = k.IntegralLattice(
        space=k.QuadraticSpace(
            tuple(
                tuple((1 if (i // 2 == j // 2 and i != j) else 0) for j in range(6))
                for i in range(6)
            )
        )
    )
    got = k.bounded_root_search(u3, [], 1)
    expect = sorted(
        v
        for v in itertools.product(range(-1, 2), repeat=6)
        if dense_bilinear(u3.gram_int, v, v) == -2
    )
    assert list(got.roots) == expect


def test_bounded_search_box_budget(hyperbolic):
    # U is one indefinite block: bound b scans (2b + 1)^2 coefficient vectors,
    # at most 2,000,000 of them.
    with pytest.raises(BudgetExceededError) as err:
        k.bounded_root_search(hyperbolic, [], 707)  # 1415^2 = 2,002,225 points; 1413^2 at bound 706 would pass
    assert err.value.code == "budget_exceeded"
    assert isinstance(err.value, k.K3CyclesError) and not isinstance(err.value, InputError)


@pytest.mark.parametrize("kind, bound", [("E8_neg", 1.5), ("U", 1.5), ("E8_neg", True), ("U", Q(1))])
def test_bounded_search_rejects_a_bound_that_is_not_an_int(kind, bound):
    # A float once gave 88 E8(-1) roots reported at bound 1.5, and True was
    # reported as bound_used=True, which the JSON decoder refuses.
    with pytest.raises(InputError, match="coordinate bound must be an integer"):
        k.bounded_root_search(k.make_standard_lattice(kind), [], bound)


def test_float_constraints_are_refused_as_inexact(k3):
    # Inexact input is refused with the TypeError of every other rational entry point.
    constraint = [0.5] + [0] * 21
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        k.orthogonal_complement_lattice(k3, [constraint])
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        k.bounded_root_search(k3, [uvec(0), constraint], 1)


def test_bounded_search_trivial_cases(k3):
    rng = random.Random(5)
    full = [tuple(Q(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(22)) for _ in range(22)]
    assert len(k.bounded_root_search(k3, full, 3)) == 0
    assert len(k.bounded_root_search(k3, [uvec(0)], 0)) == 0


def test_bounded_search_of_a_rank_one_lattice():
    # One table on one coordinate: the join's leaf is a 1-tuple, not a scalar.
    # In <2> no key can add up to -2, so no partial is joined.
    a1 = k.IntegralLattice(k.QuadraticSpace(((-2,),)))
    assert k.bounded_root_search(a1, [], 1).roots == ((-1,), (1,))
    assert k.bounded_root_search(k.IntegralLattice(k.QuadraticSpace(((2,),))), [], 1).roots == ()


def test_bounded_search_vprime_empty(k3):
    assert len(k.bounded_root_search(k3, vprime_rows(), 2)) == 0


def test_negative_definite_box_matches_naive(e8_neg):
    import itertools

    got = k.bounded_root_search(e8_neg, [], 1)
    expect = sorted(
        v
        for v in itertools.product(range(-1, 2), repeat=8)
        if dense_bilinear(e8_neg.gram_int, v, v) == -2
    )
    assert list(got.roots) == expect


def test_bounded_search_random_small_lattices():
    # randomized cross-check against the literal box scan on indefinite
    # lattices small enough to scan exhaustively
    import itertools

    rng = random.Random(97)
    done = 0
    while done < 12:
        n = rng.randint(2, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-3, 3)
                if i == j and rng.random() < 0.3:
                    v = 0
                m[i][j] = m[j][i] = v
        from k3cycles.linalg import det

        if det(m) == 0:
            continue
        sig = k.signature(m)
        if sig[0] == 0 or sig[1] == 0:
            continue  # want genuinely indefinite instances
        lattice = k.IntegralLattice(space=k.QuadraticSpace(tuple(tuple(r) for r in m)))
        ncons = rng.randint(0, 2)
        constraints = [tuple(Q(rng.randint(-2, 2)) for _ in range(n)) for _ in range(ncons)]
        bound = rng.randint(1, 2)
        got = k.bounded_root_search(lattice, constraints, bound)
        gi = lattice.gram_int

        def satisfied(v):
            for c in constraints:
                if sum(v[i] * sum(gi[i][j] * c[j] for j in range(n)) for i in range(n)) != 0:
                    return False
            return True

        expect = sorted(
            v
            for v in itertools.product(range(-bound, bound + 1), repeat=n)
            if dense_bilinear(gi, v, v) == -2 and satisfied(v)
        )
        assert list(got.roots) == expect, (m, constraints, bound)
        done += 1
