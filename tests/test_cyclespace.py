import fractions
import json
import pathlib
import random
import sys
from fractions import Fraction as Q
from unittest.mock import patch

import mpmath
import pytest

import k3cycles as k
from k3cycles import GaussRational, cyclespace, gaussrat, jsonio, quadspace
from k3cycles.errors import AmbientMismatchError, DimensionMismatchError, InputError
from k3cycles.linalg import hnf

from conftest import gauss_rows, threespace_doc, uvec
from oracles import cofactor_det, dense_grams, gauss_rank, reference_conic_sweep


def diag_space(n=22):
    return k.make_standard_lattice("diag", signs=[1, 1, 1] + [-1] * (n - 3))


def unit_rows(space, idxs):
    n = space.n
    rows = []
    for i in idxs:
        r = [GaussRational.of(0)] * n
        r[i] = GaussRational.of(1)
        rows.append(tuple(r))
    return k.ThreeSpace(ambient=space, basis=tuple(rows))


def spans_equal(a, b):
    return gauss_rank(a.basis + b.basis) == 3


# ---------------------------------------------------------------------------
# example family and classification


def test_family_base_cycle():
    c = k.classify_cycle(k.example_family(Q(0)), samples=4)
    assert c.smooth and c.real and c.positive
    assert c.hermitian_signature == (3, 0, 0)
    assert c.domain_status.kind == "verified_positive"
    assert c.twistor.status == "not_applicable"


def test_family_below_threshold():
    c = k.classify_cycle(k.example_family(Q(1, 2)), samples=4)
    assert c.smooth and not c.real and c.positive
    assert c.hermitian_signature == (3, 0, 0)
    assert c.domain_status.kind == "verified_positive"


def test_family_at_and_above_threshold():
    for t, sig in ((Q(1), (2, 0, 1)), (Q(3, 2), (2, 1, 0)), (Q(2), (2, 1, 0))):
        c = k.classify_cycle(k.example_family(t), samples=16)
        assert c.smooth
        assert c.hermitian_signature == sig
        assert not c.positive
        assert c.domain_status.kind == "sampled_ok"


def test_family_trichotomy_sweep():
    allowed = {(3, 0, 0), (2, 1, 0), (2, 0, 1)}
    for num in range(0, 17):
        A, H = dense_grams(k.example_family(Q(num, 5)))
        assert k.hermitian_signature(H) in allowed
        assert cofactor_det(A) != 0


def test_family_needs_rank_above_three():
    with pytest.raises(InputError):
        k.example_family(Q(1), n=3)


def test_family_parametric_rank():
    v = k.example_family(Q(1, 2), n=5)
    assert v.n == 5
    assert k.hermitian_signature(dense_grams(v)[1]) == (3, 0, 0)


def test_not_smooth_example():
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    i = GaussRational(Q(0), Q(1))
    row1 = (GaussRational.of(1), i, GaussRational.of(0), GaussRational.of(0))
    row2 = (GaussRational.of(0), GaussRational.of(0), GaussRational.of(1), GaussRational.of(0))
    row3 = (GaussRational.of(0), GaussRational.of(0), GaussRational.of(0), GaussRational.of(1))
    v = k.ThreeSpace(ambient=sp, basis=(row1, row2, row3))
    c = k.classify_cycle(v, samples=4)
    assert not c.smooth


def test_threespace_validation():
    sp = diag_space(22)
    rows = [uvec(0), uvec(0), uvec(1)]
    with pytest.raises(InputError):
        k.ThreeSpace(ambient=k.make_standard_lattice("K3").space, basis=gauss_rows(rows))
    with pytest.raises(InputError):
        # ambient signature not (3, n-)
        k.ThreeSpace(
            ambient=k.make_standard_lattice("diag", signs=[1, 1, -1, -1]),
            basis=gauss_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        )


def test_threespace_accepts_the_lattice_for_its_space(k3, u3_diagonal):
    v = k.ThreeSpace(ambient=k3, basis=u3_diagonal.basis)
    assert v == u3_diagonal and v.ambient == k3.space


def test_threespace_from_ints_builds_its_basis_when_read():
    sp = diag_space(4)
    re, im = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)), ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    v = k.ThreeSpace(ambient=sp, ints=(re, im, 2))
    assert "basis" not in vars(v)
    assert v.basis == (
        (GaussRational.of(1), GaussRational.of(0), GaussRational.of(0), GaussRational(0, Q(1, 2))),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
    )
    assert v == k.ThreeSpace(ambient=sp, basis=v.basis) and not v.is_real()
    with pytest.raises(TypeError):
        k.ThreeSpace(ambient=sp)
    with pytest.raises(TypeError):
        k.ThreeSpace(ambient=sp, basis=v.basis, ints=v.ints)
    for d in (0, -2, True, Q(1, 2)):
        with pytest.raises(InputError, match="denominator"):
            k.ThreeSpace(ambient=sp, ints=(re, im, d))
    with pytest.raises(DimensionMismatchError):
        k.ThreeSpace(ambient=sp, ints=(re[:2], im[:2], 2))


@pytest.mark.parametrize("entry, error, message", [
    (True, TypeError, "expected an exact rational, got bool"),
    (1.5, TypeError, "expected an exact rational, got float"),
    (Q(1, 2), InputError, "basis row entries must be integers"),
])
def test_threespace_from_ints_refuses_entries_that_are_not_ints(entry, error, message):
    # True was read as 1, giving Hermitian signature (3, 0, 0), and 1.5 raised
    # a bare TypeError from gcd; both are refused as every exact entry point does.
    re, im = ((entry, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), ((0, 0, 0, 0),) * 3
    for rows in ((re, im), (im, re)):
        with pytest.raises(error, match=message):
            k.ThreeSpace(ambient=diag_space(4), ints=(*rows, 1))


def test_k3_decode_and_classify_pair_in_ints_and_reuse_the_inertia(monkeypatch, k3):
    # The integer three-space takes no Gauss-rational bilinear pairing, and
    # the K3 Gram is diagonalised at most once (if the inertia cache lost it).
    calls = {"bilinear": 0, "signature": 0}
    for name in calls:
        original = getattr(quadspace, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod in [m for key, m in sys.modules.items() if key.startswith("k3cycles")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    doc = json.loads((pathlib.Path(__file__).parent / "data" / "threespace_vprime.json").read_text())
    for _ in range(2):
        c = k.classify_cycle(jsonio.threespace_from_json(doc), lattice=k3)
        assert (c.positive, c.twistor.status) == (True, "true")
    assert calls["bilinear"] == 0
    assert calls["signature"] <= 1


def test_moduli_dimension_values():
    assert k.moduli_dimension(22, 2) == 57
    assert k.moduli_dimension(22, 4) == 97
    assert k.moduli_dimension(3, 2) == 0
    for n in range(4, 31):
        assert k.moduli_dimension(n, 2) == 3 * (n - 3)
    with pytest.raises(InputError):
        k.moduli_dimension(2, 2)
    with pytest.raises(InputError):
        k.moduli_dimension(5, 0)


# ---------------------------------------------------------------------------
# twistor predicate


def test_twistor_diagonal_false(k3, u3_diagonal):
    t = k.is_twistor(k3, u3_diagonal)
    assert t.status == "false"
    expected_cert = tuple(-1 if i == 0 else (1 if i == 1 else 0) for i in range(22))
    assert t.certificate == expected_cert


def test_twistor_vprime_true(k3, vprime):
    assert k.is_twistor(k3, vprime).status == "true"


def test_twistor_not_applicable_without_lattice():
    c = k.classify_cycle(unit_rows(diag_space(), [0, 1, 2]), samples=4)
    assert c.twistor.status == "not_applicable"


def test_twistor_not_applicable_nonreal(k3):
    v = k.example_family(Q(1, 2))
    with pytest.raises(AmbientMismatchError):
        k.is_twistor(k3, v)
    # positive but not real: tilt the first row along i*(e3 - f3)
    i = GaussRational(Q(0), Q(1))
    e3f3 = [Q(0)] * 22
    e3f3[4] = Q(1, 2)
    e3f3[5] = Q(-1, 2)
    rows = gauss_rows([uvec(0), uvec(1), uvec(2)])
    tilted = (tuple(a + i * GaussRational.of(b) for a, b in zip(rows[0], e3f3)), rows[1], rows[2])
    v2 = k.ThreeSpace(ambient=k3.space, basis=tilted)
    assert k.hermitian_signature(dense_grams(v2)[1]) == (3, 0, 0)
    assert not v2.is_real()
    assert k.is_twistor(k3, v2).status == "not_applicable"


# ---------------------------------------------------------------------------
# hyperplane intersections


def test_intersect_containment():
    v0 = unit_rows(diag_space(4), [0, 1, 2])
    delta = (Q(0), Q(0), Q(0), Q(1))
    h = k.intersect_hyperplane(v0, delta)
    assert h.kind == "containment"


def test_intersect_two_points_base():
    v0 = unit_rows(diag_space(4), [0, 1, 2])
    delta = (Q(1), Q(0), Q(0), Q(0))
    h = k.intersect_hyperplane(v0, delta)
    assert h.kind == "two_points"
    a, b, c = h.quad_coeffs
    assert (a, b, c) == (1, 0, 1)
    assert h.discriminant == -1
    # numeric points are e2 +- i e3 up to scale
    for pt in h.numeric_points:
        assert abs(pt[0]) < 1e-25
        assert abs(abs(pt[1]) - abs(pt[2])) < 1e-25
        assert abs(pt[3]) < 1e-25


def test_intersect_family_member():
    v = k.example_family(Q(1, 2), n=4)
    delta = (Q(0), Q(0), Q(0), Q(1))
    h = k.intersect_hyperplane(v, delta)
    assert h.kind == "two_points"
    for pt in h.numeric_points:
        assert abs(pt[0]) < 1e-25 and abs(pt[3]) < 1e-25


def test_intersect_rejects_zero_delta():
    v0 = unit_rows(diag_space(4), [0, 1, 2])
    with pytest.raises(InputError):
        k.intersect_hyperplane(v0, (Q(0),) * 4)
    with pytest.raises(DimensionMismatchError):
        k.intersect_hyperplane(v0, (Q(1),) * 5)


def test_intersect_points_on_quadric_and_positive(k3, u3_diagonal):
    rng = random.Random(31)
    count = 0
    while count < 25:
        delta = tuple(rng.randint(-2, 2) for _ in range(22))
        if all(x == 0 for x in delta):
            continue
        pairings = [k.bilinear(k3, row, delta) for row in u3_diagonal.basis]
        if all(p == 0 for p in pairings):
            continue
        h = k.intersect_hyperplane(u3_diagonal, [Q(x) for x in delta])
        assert h.kind == "two_points"
        assert h.discriminant != 0
        gram = k3.space.gram
        for pt in h.numeric_points:
            quad = sum(pt[i] * sum(mpmath.mpf(int(gram[i][j])) * pt[j] for j in range(22)) for i in range(22))
            herm = sum(pt[i] * sum(mpmath.mpf(int(gram[i][j])) * mpmath.conj(pt[j]) for j in range(22)) for i in range(22))
            assert abs(quad) < 1e-9
            assert herm.real > 1e-9
        count += 1


# ---------------------------------------------------------------------------
# isometry action


def test_apply_identity(k3, u3_diagonal):
    ident = k.Isometry(space=k3.space, matrix=tuple(tuple(1 if i == j else 0 for j in range(22)) for i in range(22)))
    assert spans_equal(k.apply_isometry(ident, u3_diagonal), u3_diagonal)


def test_apply_reflection_fixes_diagonal(k3, u3_diagonal):
    d = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(22))
    iso = k.reflection_matrix(k3, d)
    moved = k.apply_isometry(iso, u3_diagonal)
    assert spans_equal(moved, u3_diagonal)


def test_apply_block_swap_fixes_diagonal(k3, u3_diagonal):
    perm = [[0] * 22 for _ in range(22)]
    for i in range(6):
        perm[i][i] = 1
    for c in range(8):
        perm[6 + c][14 + c] = 1
        perm[14 + c][6 + c] = 1
    iso = k.Isometry(space=k3.space, matrix=tuple(tuple(r) for r in perm))
    assert spans_equal(k.apply_isometry(iso, u3_diagonal), u3_diagonal)


def test_apply_isometry_matches_the_dense_gauss_product(k3, vprime):
    # The integer image of the cleared rows against the product of g with
    # each Gauss-rational row, with d > 1 and a root d = e1 + f2 + b1 that
    # meets all three rows.
    rows = (tuple(x * GaussRational(Q(1, 2), Q(1, 3)) for x in vprime.basis[0]),) + vprime.basis[1:]
    v = k.ThreeSpace(ambient=k3.space, basis=rows)
    d = tuple(int(i in (0, 3, 6)) for i in range(22))
    assert all(k.bilinear(k3, row, d) for row in rows)
    g = k.reflection_matrix(k3, d)
    moved = k.apply_isometry(g, v)
    dense = tuple(tuple(sum((m * x for m, x in zip(grow, row)), start=GaussRational.of(0)) for grow in g.matrix) for row in rows)
    assert moved.basis == dense
    assert moved == k.ThreeSpace(ambient=k3.space, basis=dense)
    assert moved.ints[2] == v.ints[2] > 1 and moved != v


def _classification_key(c):
    return (c.smooth, c.hermitian_signature, c.real, c.positive, c.twistor.status, c.domain_status.kind)


def _random_gl3(rng):
    while True:
        m = tuple(
            tuple(GaussRational(Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))) for _ in range(3))
            for _ in range(3)
        )
        if cofactor_det(m) != 0:
            return m


def test_classification_basis_change_invariance():
    rng = random.Random(41)
    for t in (Q(1, 2), Q(1), Q(2)):
        v = k.example_family(t)
        base = _classification_key(k.classify_cycle(v, samples=8))
        for _ in range(10):
            m = _random_gl3(rng)
            rows = tuple(
                tuple(sum((m[i][j] * v.basis[j][c] for j in range(3)), start=GaussRational.of(0)) for c in range(v.n))
                for i in range(3)
            )
            v2 = k.ThreeSpace(ambient=v.ambient, basis=rows)
            assert _classification_key(k.classify_cycle(v2, samples=8)) == base


def test_classification_reflection_invariance(k3, u3_diagonal):
    rng = random.Random(43)
    roots = k.roots_orthogonal_to_threespace(
        k3,
        k.ThreeSpace(
            ambient=k3.space,
            basis=gauss_rows([uvec(0), uvec(1), uvec(2)]),
        ),
    ).roots
    base = _classification_key(k.classify_cycle(u3_diagonal, samples=8, lattice=k3))
    v = u3_diagonal
    for _ in range(6):
        d = roots[rng.randrange(len(roots))]
        v = k.apply_isometry(k.reflection_matrix(k3, d), v)
        assert _classification_key(k.classify_cycle(v, samples=8, lattice=k3)) == base


# ---------------------------------------------------------------------------
# fixed-cycle law


def _project_frame_into_root_complement(k3, delta):
    rows = []
    for i in range(3):
        p = uvec(i)
        pairing = k.bilinear(k3, p, [Q(x) for x in delta])
        # p + <p, d>/2 * d is orthogonal to d since <d,d> = -2
        rows.append(tuple(a + Q(pairing, 2) * d for a, d in zip(p, delta)))
    return rows


def test_fixed_cycle_law_both_directions(k3):
    rng = random.Random(47)
    roots = k.roots_orthogonal_to_threespace(
        k3, k.ThreeSpace(ambient=k3.space, basis=gauss_rows([uvec(i) for i in range(3)]))
    ).roots
    fixed = moved = 0
    while fixed < 10 or moved < 10:
        d = roots[rng.randrange(len(roots))]
        iso = k.reflection_matrix(k3, d)
        if fixed < 10:
            rows = _project_frame_into_root_complement(k3, d)
            v = k.ThreeSpace(ambient=k3.space, basis=gauss_rows(rows))
            assert k.hermitian_signature(dense_grams(v)[1]) == (3, 0, 0)
            assert all(k.bilinear(k3, r, [Q(x) for x in d]) == 0 for r in rows)
            assert spans_equal(k.apply_isometry(iso, v), v)
            fixed += 1
        if moved < 10:
            rows = [uvec(i) for i in range(3)]
            rows[0] = tuple(a + Q(rng.randint(-1, 1), 3) * b for a, b in zip(rows[0], uvec(1)))
            v = k.ThreeSpace(ambient=k3.space, basis=gauss_rows(rows))
            pair = [k.bilinear(k3, r, [Q(x) for x in d]) for r in v.basis]
            if all(p == 0 for p in pair) or k.hermitian_signature(dense_grams(v)[1]) != (3, 0, 0):
                continue
            assert not spans_equal(k.apply_isometry(iso, v), v)
            moved += 1


# ---------------------------------------------------------------------------
# domain sampling


def test_domain_sampling_family_inside(k3):
    for t in (Q(1), Q(2)):
        c = k.classify_cycle(k.example_family(t), samples=200)
        assert c.domain_status.kind == "sampled_ok"
        assert c.domain_status.samples == 200


def test_domain_sampling_shortfall_is_reported():
    # V = span(e1 + e4, e2 + e5, e3 + e7 + e8 + i e9): the symmetric Gram is 0, so
    # every pencil line is degenerate and the sweep ends at its attempt cap with
    # no sample, although e1 + e4 is a conic point with <x, conj x> = 0.
    sp = diag_space(22)
    rows = [[GaussRational.of(0)] * 22 for _ in range(3)]
    rows[0][0] = rows[0][3] = rows[1][1] = rows[1][4] = rows[2][2] = rows[2][6] = rows[2][7] = GaussRational.of(1)
    rows[2][8] = GaussRational(Q(0), Q(1))
    v = k.ThreeSpace(ambient=sp, basis=tuple(map(tuple, rows)))
    assert all(x == 0 for row in dense_grams(v)[0] for x in row)
    c = k.classify_cycle(v, samples=50)
    assert c.hermitian_signature == (0, 1, 2)
    assert (c.domain_status.kind, c.domain_status.samples) == ("sampled_short", 0)
    assert reference_conic_sweep(v, 50, 128)[:2] == ("sampled_short", 0)


def test_domain_counterexample_real_indefinite():
    v = unit_rows(diag_space(22), [0, 1, 3])  # span(e1, e2, e4): signature (2,1,0)
    c = k.classify_cycle(v, samples=50)
    assert c.hermitian_signature == (2, 1, 0)
    assert c.real and c.smooth and not c.positive
    assert c.domain_status.kind == "counterexample"
    assert c.domain_status.certified_exact
    pt = c.domain_status.exact_point
    assert pt is not None
    # the witness is e1 + e4 up to scale and sign
    nz = [(i, x) for i, x in enumerate(pt) if x != 0]
    assert [i for i, _ in nz] == [0, 3]
    assert abs(nz[0][1].re) == abs(nz[1][1].re)


def test_domain_counterexample_real_degenerate():
    # span(e1 + e4, e2, e3) is real with a radical direction
    sp = diag_space(22)
    row1 = [GaussRational.of(0)] * 22
    row1[0] = GaussRational.of(1)
    row1[3] = GaussRational.of(1)
    row2 = [GaussRational.of(0)] * 22
    row2[1] = GaussRational.of(1)
    row3 = [GaussRational.of(0)] * 22
    row3[2] = GaussRational.of(1)
    v = k.ThreeSpace(ambient=sp, basis=(tuple(row1), tuple(row2), tuple(row3)))
    c = k.classify_cycle(v, samples=20)
    assert c.hermitian_signature == (2, 0, 1)
    assert not c.smooth
    assert c.domain_status.kind == "counterexample"
    assert c.domain_status.certified_exact


@pytest.mark.parametrize("precision", [0, -5, 52])
def test_classify_rejects_precision_below_53(precision):
    with pytest.raises(InputError):
        k.classify_cycle(k.example_family(2), precision=precision)


@pytest.mark.parametrize("samples", [0, -1])
def test_classify_rejects_samples_below_one(samples):
    with pytest.raises(InputError):
        k.classify_cycle(k.example_family(2), samples=samples)


@pytest.mark.parametrize("samples", [1.5, 4.0, True, "8"])
def test_classify_rejects_non_integer_samples(samples):
    # 1.5 used to run as a sweep of 2 good samples reported short, True as 1.
    with pytest.raises(InputError):
        k.classify_cycle(k.example_family(2, n=5), samples=samples)


@pytest.mark.parametrize("bits", [100.7, 128.0, True, "128"])
def test_resolve_precision_rejects_non_integer_bits(bits):
    # 100.7 used to become 100 bits silently.
    with pytest.raises(InputError):
        k.resolve_precision(bits)
    with pytest.raises(InputError):
        k.classify_cycle(k.example_family(2, n=5), samples=4, precision=bits)


def _calls_into(fn, module=fractions):
    """Python-level calls into the module's file (fractions.py by default) while fn runs, counted by a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == module.__file__:
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_integer_inertia_paths_make_no_fraction_calls(u3_diagonal):
    # Inertia and smoothness run on integer Grams alone; the counter itself
    # sees the Gauss-rational basis of a three-space built from its integer
    # rows, which is built from Fractions.
    w = k.ThreeSpace(ambient=u3_diagonal.ambient, ints=u3_diagonal.ints)
    assert _calls_into(lambda: w.basis) > 0
    assert _calls_into(lambda: k.signature(quadspace.K3_GRAM)) == 0
    for build in (lambda: k.example_family(Q(1, 2)), lambda: k.example_family(2), lambda: k.ThreeSpace(ambient=u3_diagonal.ambient, basis=u3_diagonal.basis)):
        v = build()
        assert _calls_into(lambda: v.hermitian_inertia) == 0
        w = build()
        assert _calls_into(lambda: k.cyclespace.exact_classification(w)) == 0
        assert k.cyclespace.exact_classification(w) == k.cyclespace.exact_classification(v)


def test_integer_decode_and_isometry_make_no_fraction_calls(k3):
    # An integer three-space document decodes to cleared rows, and an
    # isometry moves them, without a Fraction or a Gauss-rational basis.
    doc = json.loads((pathlib.Path(__file__).parent / "data" / "threespace_u3_diagonal.json").read_text())
    assert _calls_into(lambda: jsonio.threespace_from_json(doc)) == 0
    v = jsonio.threespace_from_json(doc)
    g = k.reflection_matrix(k3, tuple(int(i in (0, 3, 6)) for i in range(22)))
    assert _calls_into(lambda: k.apply_isometry(g, v)) == 0
    assert "basis" not in vars(v) and "basis" not in vars(k.apply_isometry(g, v))


def test_decoded_domain_input_samples_without_gauss_rationals():
    # A Z[i] basis change of V_t with t in (1, 3], decoded from JSON: the conic
    # lies in the domain, and the whole classification, base point and sweep
    # included, runs on the integer rows and Grams.  No Fraction call is made
    # per sample.
    i = GaussRational(0, 1)
    family = k.example_family(Q(77, 32)).basis
    change = ((1, i, 0), (0, 1, 1 + i), (0, 0, 1))
    rows = tuple(tuple(sum((m * row[c] for m, row in zip(coeffs, family)), start=GaussRational.of(0)) for c in range(22)) for coeffs in change)
    doc = json.loads(json.dumps(threespace_doc(k.ThreeSpace(ambient=diag_space(22), basis=rows))))
    v = jsonio.threespace_from_json(doc)
    c = k.classify_cycle(v, samples=256, precision=128)
    assert (c.domain_status.kind, c.domain_status.samples) == ("sampled_ok", 256)
    assert _calls_into(lambda: k.classify_cycle(v, samples=256, precision=128), gaussrat) == 0
    assert _calls_into(lambda: k.classify_cycle(v, samples=16, precision=128)) == _calls_into(lambda: k.classify_cycle(v, samples=256, precision=128))
    assert "basis" not in vars(v)


def test_each_threespace_construction_runs_one_echelon_form(k3, u3_diagonal):
    # One HNF of the realification decides both independence and reality.
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return hnf(rows)

    doc = threespace_doc(u3_diagonal)
    g = k.reflection_matrix(k3, tuple(int(i in (0, 3, 6)) for i in range(22)))
    builds = (
        lambda: k.example_family(Q(1, 2)),
        lambda: k.ThreeSpace(ambient=u3_diagonal.ambient, basis=u3_diagonal.basis),
        lambda: k.ThreeSpace(ambient=u3_diagonal.ambient, ints=u3_diagonal.ints),
        lambda: jsonio.threespace_from_json(doc),
        lambda: k.apply_isometry(g, u3_diagonal),
    )
    for build in builds:
        calls.clear()
        with patch.object(cyclespace, "hnf", counted):
            v = build()
            v.is_real()
        assert calls == [6]


def test_library_precision_ignores_the_environment(monkeypatch):
    # K3CYCLES_PRECISION is a CLI setting: the library takes its precision
    # from the argument alone, default 128, whatever the environment holds.
    monkeypatch.setenv("K3CYCLES_PRECISION", "52")
    assert k.resolve_precision() == 128
    assert k.classify_cycle(k.example_family(2), samples=4).domain_status.precision_bits == 128


def test_domain_counterexample_nonreal_first_sample():
    # span(e1 + 2i e4, e2, e5): Hermitian form diag(-3, 1, -1), not real
    sp = diag_space(6)
    rows = [[GaussRational.of(0)] * 6 for _ in range(3)]
    rows[0][0], rows[0][3] = GaussRational.of(1), GaussRational(Q(0), Q(2))
    rows[1][1] = GaussRational.of(1)
    rows[2][4] = GaussRational.of(1)
    v = k.ThreeSpace(ambient=sp, basis=tuple(map(tuple, rows)))
    c = k.classify_cycle(v, samples=64)
    assert not c.real and not c.positive
    d = c.domain_status
    assert d.kind == "counterexample" and d.samples == 0 and d.precision_bits == 128
    signs = [1, 1, 1, -1, -1, -1]
    with mpmath.workprec(256):
        x = [mpmath.mpc(z) for z in d.point]
        norm = sum(abs(z) ** 2 for z in x)
        quadric = abs(sum(s * z * z for s, z in zip(signs, x))) / norm
        hermitian = sum(s * abs(z) ** 2 for s, z in zip(signs, x)) / norm
        assert norm > 0
        assert quadric < mpmath.mpf(2) ** -100
        assert hermitian <= 1e-9


@pytest.mark.parametrize(
    "rows, done",
    [
        ((((-1, -1), (1, -2), (0, 2), (1, 2), (0, -1), (2, 0)), ((-1, 0), (1, 1), (1, 2), (2, -1), (1, -1), (2, 1))), 2),
        ((((0, -2), (2, 1), (2, 0), (1, -2), (2, 0), (-2, 2)), ((-2, -1), (-2, 1), (1, 2), (-2, 0), (-1, 1), (-1, -2))), 7),
        ((((-2, 1), (1, -2), (2, -2), (2, -1), (-1, 2), (2, -2)), ((0, 0), (2, -1), (0, 1), (2, -1), (0, -1), (2, -2))), 12),
    ],
)
def test_sampled_counterexample_exact_witness(rows, done):
    # span(e1 + e4, r2, r3): the base point e1 + e4 is exact, so samples are exact conic points
    sp = diag_space(6)
    first = tuple(GaussRational.of(int(c in (0, 3))) for c in range(6))
    v = k.ThreeSpace(ambient=sp, basis=(first,) + tuple(tuple(GaussRational(Q(x), Q(y)) for x, y in r) for r in rows))
    d = k.classify_cycle(v, samples=48).domain_status
    assert (d.kind, d.samples, d.certified_exact) == ("counterexample", done, True)
    pt = d.exact_point
    assert k.bilinear(sp, pt, pt) == 0
    h = GaussRational.of(k.hermitian_pair(sp, pt, pt))
    assert h.im == 0 and h.re <= 0
    assert d.exact_point == reference_conic_sweep(v, 48, 128)[3]
    # the numeric point spans the same line as the exact one
    with mpmath.workprec(128):
        exact = [mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator, mpmath.mpf(x.im.numerator) / x.im.denominator) for x in pt]
        c = max(range(6), key=lambda i: abs(exact[i]))
        ratio = d.point[c] / exact[c]
        assert all(abs(x - ratio * y) <= abs(ratio) * mpmath.mpf(2) ** -100 for x, y in zip(d.point, exact))


def test_interleaved_sweeps_return_what_fresh_sweeps_return(monkeypatch):
    # Each sweep builds its rows of fixed Im ell into a dict of its own conic.
    # A whole sweep of the other input, run before every attempt of one sweep
    # while its rows are partly built, must leave both results as fresh calls
    # give them: a sampled_ok family member and an exact counterexample.
    first = tuple(GaussRational.of(int(c in (0, 3))) for c in range(6))
    rows = (((-2, 1), (1, -2), (2, -2), (2, -1), (-1, 2), (2, -2)), ((0, 0), (2, -1), (0, 1), (2, -1), (0, -1), (2, -2)))
    witness = k.ThreeSpace(ambient=diag_space(6), basis=(first,) + tuple(tuple(GaussRational(Q(x), Q(y)) for x, y in r) for r in rows))
    inputs = (k.example_family(2, n=6), witness)
    fresh = [cyclespace._sample_domain(v, False, 40, 128) for v in inputs]
    assert [d.kind for d in fresh] == ["sampled_ok", "counterexample"]
    original = cyclespace._second_intersection
    for outer, inner in ((0, 1), (1, 0)):
        busy, nested = [], []

        def interleaved(conic, ell):
            if not busy:
                busy.append(True)
                nested.append(cyclespace._sample_domain(inputs[inner], False, 40, 128))
                busy.pop()
            return original(conic, ell)

        monkeypatch.setattr(cyclespace, "_second_intersection", interleaved)
        assert cyclespace._sample_domain(inputs[outer], False, 40, 128) == fresh[outer]
        assert nested and all(d == fresh[inner] for d in nested)


def test_numeric_paths_neither_read_nor_write_the_global_precision(monkeypatch, u3_diagonal):
    sp = diag_space(6)

    def space(*rows):
        return k.ThreeSpace(ambient=sp, basis=tuple(tuple(GaussRational(Q(x), Q(y)) for x, y in row) for row in rows))

    def real(*rows):
        return space(*(tuple((x, 0) for x in row) for row in rows))

    cycles = [
        (k.example_family(2, n=6), 16),  # sampled, no counterexample
        # a sampled counterexample with an exact point
        (space(((1, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, 0)), ((-1, -1), (1, -2), (0, 2), (1, 2), (0, -1), (2, 0)), ((-1, 0), (1, 1), (1, 2), (2, -1), (1, -1), (2, 1))), 48),
        (real((1, 0, 0, 1, 0, 0), (1, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0)), 8),  # rational real witness
        (real((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), 8),  # irrational real witness
    ]
    sections = [
        (u3_diagonal, [Q(x) for x in (1, 0, 0, 2, 1, 1, 1) + (0,) * 14 + (-1,)]),
        (real((1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0)), [Q(0), Q(1), Q(0), Q(0), Q(0), Q(0)]),  # a = 0, c != 0
    ]

    def outputs():
        out = []
        for bits in (53, 128):
            for v, samples in cycles:
                c = k.classify_cycle(v, samples=samples, precision=bits)
                point = c.domain_status.point
                out.append((None if point is None else [z._mpc_ for z in point], jsonio.classification_to_json(c)))
            for v, delta in sections:
                h = k.intersect_hyperplane(v, delta, precision=bits)
                out.append(([z._mpc_ for pt in h.numeric_points for z in pt], jsonio.intersection_to_json(h)))
        return out

    expected = outputs()
    assert [o[1]["domain"]["status"] for o in expected[:4]] == ["sampled_ok"] + ["counterexample"] * 3
    writes = []
    context = type(mpmath.mp)
    with mpmath.workprec(24):
        with monkeypatch.context() as patched:
            for name in ("prec", "dps"):
                prop = getattr(context, name)

                def record(ctx, value, name=name, setter=prop.fset):
                    writes.append((name, value))
                    setter(ctx, value)

                patched.setattr(context, name, property(prop.fget, record))
            got = outputs()
    assert writes == []
    assert got == expected


def test_tangent_pencil_line_is_skipped():
    # span(e1 + e4, (146+112i) e1 + e2, 119 e1 + e3): the base point is e1 + e4
    # exactly, and the first pencil line, lambda_0 = -(146+112i)/119, is tangent
    # to the conic there (beta = 0).  It must be skipped, not taken as a sample
    # at the base point, where the Hermitian value is 0.
    sp = diag_space(6)
    rows = [[GaussRational.of(0)] * 6 for _ in range(3)]
    rows[0][0], rows[0][3] = GaussRational.of(1), GaussRational.of(1)
    rows[1][0], rows[1][1] = GaussRational(Q(146), Q(112)), GaussRational.of(1)
    rows[2][0], rows[2][2] = GaussRational.of(119), GaussRational.of(1)
    v = k.ThreeSpace(ambient=sp, basis=tuple(map(tuple, rows)))
    d = k.classify_cycle(v, samples=16).domain_status
    kind, done, _, exact = reference_conic_sweep(v, 16, 128)
    assert (d.kind, d.samples, d.exact_point) == (kind, done, exact) == ("sampled_ok", 16, None)


def test_real_smooth_in_domain_is_positive():
    # contrapositive sampling check: every real smooth V whose conic stays in
    # the domain must have signature (3,0,0); a real smooth (2,1,0) space
    # always yields a counterexample point
    rng = random.Random(53)
    sp = diag_space(8)
    for _ in range(10):
        idxs = sorted(rng.sample(range(8), 3))
        v = unit_rows(sp, idxs)
        c = k.classify_cycle(v, samples=30)
        if c.real and c.smooth and c.hermitian_signature != (3, 0, 0):
            assert c.domain_status.kind == "counterexample"
        if c.positive:
            assert c.domain_status.kind == "verified_positive"


@pytest.mark.parametrize("reject_every", [0, 3])
def test_one_counted_call_per_conic_attempt(monkeypatch, reject_every):
    # The benchmark counts conic attempts by wrapping the module-level
    # _second_intersection: the sweep must call it once per attempt, in
    # pencil order, also when an attempt is rejected.
    original, calls = k.cyclespace._second_intersection, []

    def counted(conic, ell):
        calls.append(ell)
        if reject_every and len(calls) % reject_every == 0:
            return None
        return original(conic, ell)

    monkeypatch.setattr(k.cyclespace, "_second_intersection", counted)
    c = k.classify_cycle(k.example_family(2), samples=64)
    assert (c.domain_status.kind, c.domain_status.samples) == ("sampled_ok", 64)
    attempts = {0: 64, 3: 95}[reject_every]  # 95 calls, 31 of them rejected
    assert calls == [k.cyclespace._pencil_parameter(i) for i in range(attempts)]
