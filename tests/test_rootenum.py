import random
from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import GaussRational, rootenum
from k3cycles.errors import BudgetExceededError, InputError, InternalCheckError, NotPositiveDefiniteError, NotPositiveError
from k3cycles.linalg import hnf, identity_int, int_kernel
from k3cycles.rootenum import _enumerate_up_to, _ldl, _positive_definite

from conftest import gauss_rows, uvec, vprime_rows
from oracles import block_sum_roots, dense_bilinear, naive_box_norm_vectors, naive_box_radius_vectors


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
    # An integer Gram has only integer norms, so 3/2 has no vectors; the walk
    # out to floor(3/2) still decides definiteness.
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
    # complement, so it must give the same 486 roots.
    def falsify(H):
        if edit == "reverse":
            return H[::-1]
        if edit == "negate":
            return [[-x for x in row] if i % 2 else row for i, row in enumerate(H)]
        return H[3:] + H[:3]

    expect = k.roots_orthogonal_to_threespace(k3, u3_diagonal)
    _patched_lll(monkeypatch, falsify)
    got = k.roots_orthogonal_to_threespace(k3, u3_diagonal)
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
    # A2 by the LDL^T of the identity reaches (1, -1), of A2-norm 6.
    ldl = rootenum._ldl
    monkeypatch.setattr(rootenum, "_ldl", lambda gram: ldl(((1, 0), (0, 1))))
    with pytest.raises(InternalCheckError, match="block vector \\(1, -1\\) has norm 6 outside the walk radius 2"):
        k.enumerate_norm_vectors(((2, -1), (-1, 2)), 2)


@pytest.mark.parametrize("fixture, nodes, count", [("u3_diagonal", 983, 486), ("vprime", 19, 0)])
def test_complete_search_node_counts(monkeypatch, request, k3, fixture, nodes, count):
    # Fincke-Pohst visits are machine-independent: one `_int_interval` call per
    # interior node of the walk, the calls the benchmark's fp_nodes counts.
    # A change to the reduction or to the walk that visits other nodes shows here.
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    rl = k.roots_orthogonal_to_threespace(k3, request.getfixturevalue(fixture))
    assert (len(calls), len(rl)) == (nodes, count)


def _delta_p_e1f1_e2f2(k3):
    """Delta_p at bound 1 for p = (e1 + f1) + i (e2 + f2): the chamber workload's point."""
    x = tuple(GaussRational(a, b) for a, b in zip(uvec(0), uvec(1)))
    return k.delta_p_bounded(k3, k.PeriodPoint(space=k3.space, x=x), 1)


@pytest.mark.parametrize("search, nodes, count", [
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 2), 500, 240),
    (lambda k3: k.enumerate_norm_vectors(k.quadspace.E8_GRAM, 4), 3120, 2160),
    (_delta_p_e1f1_e2f2, 6242, 19694),
], ids=["e8_norm_2", "e8_norm_4", "delta_p_bound_1"])
def test_target_and_bounded_walk_node_counts(monkeypatch, k3, search, nodes, count):
    # The same `_int_interval` count as the complete search's, for the target
    # search and for the walked blocks of the bounded search.
    calls = []
    interval = rootenum._int_interval
    monkeypatch.setattr(rootenum, "_int_interval", lambda *a: calls.append(a) or interval(*a))
    found = search(k3)
    assert (len(calls), len(found)) == (nodes, count)


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


def test_bounded_search_trivial_cases(k3):
    rng = random.Random(5)
    full = [tuple(Q(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(22)) for _ in range(22)]
    assert len(k.bounded_root_search(k3, full, 3)) == 0
    assert len(k.bounded_root_search(k3, [uvec(0)], 0)) == 0


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
