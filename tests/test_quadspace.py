import random
from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import GaussRational, bilinear, hermitian_pair, hermitian_signature, signature
from k3cycles.errors import (
    DegenerateGramError,
    DimensionMismatchError,
    InputError,
    NotHermitianError,
    NotIntegralError,
    NotSymmetricError,
)

from oracles import cofactor_det


def test_standard_lattice_u(hyperbolic):
    assert hyperbolic.n == 2
    inv = k.lattice_invariants(hyperbolic)
    assert inv.even and inv.determinant == -1 and inv.unimodular
    assert hyperbolic.space.inertia == (1, 1, 0)


def test_standard_lattice_k3(k3):
    assert k3.n == 22
    assert k3.space.inertia == (3, 19, 0)
    inv = k.lattice_invariants(k3)
    assert inv.even and inv.determinant == -1 and inv.unimodular


def test_standard_lattice_e8(e8):
    inv = k.lattice_invariants(e8)
    assert inv.even and inv.determinant == 1 and inv.unimodular
    assert e8.space.inertia == (8, 0, 0)


def test_diag_space():
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    assert sp.gram == tuple(tuple(Q(x) for x in row) for row in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))
    with pytest.raises(InputError):
        k.make_standard_lattice("diag", signs=[])
    with pytest.raises(InputError):
        k.make_standard_lattice("diag", signs=[2])


def test_space_keeps_one_integer_gram():
    # The integer Gram over its least denominator is the form: the rational
    # Gram is only built when read, and the inertia cache is keyed by ints.
    from k3cycles.quadspace import _gram_inertia

    sp = k.QuadraticSpace(((Q(1, 2), Q(1, 3)), (Q(1, 3), -1)))
    assert (sp.gram_int, sp.den) == (((3, 2), (2, -6)), 6)
    assert "gram" not in vars(sp)
    assert sp.gram == ((Q(1, 2), Q(1, 3)), (Q(1, 3), Q(-1)))
    assert sp == k.QuadraticSpace(((Q(3, 6), Q(2, 6)), (Q(2, 6), Q(-6, 6)))) != k.QuadraticSpace(((3, 2), (2, -6)))
    lattice = k.IntegralLattice(k.QuadraticSpace(((2, 1), (1, Q(-4, 2)))))
    assert lattice.gram_int is lattice.space.gram_int == ((2, 1), (1, -2))
    assert _gram_inertia(((3, 2), (2, -6))) == (sp.gram_int, sp.inertia)
    assert _gram_inertia(((3, 2), (2, -6)))[0] is sp.gram_int
    with pytest.raises(NotIntegralError):
        k.IntegralLattice(sp)


def test_space_over_a_denominator_is_reduced():
    # QuadraticSpace(g, den) is the form g / den, kept over its least denominator.
    sp = k.QuadraticSpace(((Q(1, 2), Q(1, 3)), (Q(1, 3), -1)))
    assert k.QuadraticSpace(((6, 4), (4, -12)), den=12) == sp
    assert k.QuadraticSpace(((Q(3, 2), 1), (1, -3)), den=3) == sp
    integral = k.QuadraticSpace(((4, 2), (2, -4)), den=2)
    assert (integral.gram_int, integral.den) == (((2, 1), (1, -2)), 1)
    for den in (0, -2, True, 1.5, Q(1, 2)):
        with pytest.raises(InputError, match="denominator"):
            k.QuadraticSpace(((1, 0), (0, -1)), den=den)


def test_space_validation():
    with pytest.raises(NotSymmetricError):
        k.QuadraticSpace(((0, 1), (2, 0)))
    with pytest.raises(DegenerateGramError):
        k.QuadraticSpace(((1, 1), (1, 1)))


def test_bilinear_first_block(k3):
    e1 = tuple(Q(1) if i == 0 else Q(0) for i in range(22))
    f1 = tuple(Q(1) if i == 1 else Q(0) for i in range(22))
    assert bilinear(k3, e1, f1) == 1
    assert bilinear(k3, e1, e1) == 0


def test_bilinear_refuses_bool_entries(k3):
    # True is no number: the pairing refuses it as `as_fraction` does, also
    # through hermitian_pair and the x of reflect (True once read as 1).
    one, true = (1,) + (0,) * 21, (True,) + (0,) * 21
    e1_minus_f1 = (1, -1) + (0,) * 20
    for pair in (lambda: bilinear(k3, true, true), lambda: bilinear(k3, one, true),
                 lambda: hermitian_pair(k3, true, one), lambda: k.reflect(k3, e1_minus_f1, true)):
        with pytest.raises(TypeError, match="expected an exact rational, got bool"):
            pair()


def test_bilinear_isotropic_in_diag():
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    i = GaussRational(Q(0), Q(1))
    v = (GaussRational.of(1), i, GaussRational.of(0), GaussRational.of(0))
    assert bilinear(sp, v, v) == 0


@pytest.mark.parametrize("t,expected", [(Q(1), Q(0)), (Q(1, 2), Q(3, 4)), (Q(2), Q(-3))])
def test_conjugate_pairing_of_family_vector(t, expected):
    # <e1 + i t e4, conj(same)> = 1 - t^2
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    v = (GaussRational.of(1), GaussRational.of(0), GaussRational.of(0), GaussRational(Q(0), t))
    assert hermitian_pair(sp, v, v) == expected
    # while the bilinear extension gives 1 + t^2
    assert bilinear(sp, v, v) == 1 + t * t


def test_hermitian_pair_zero_vector(k3):
    z = tuple(GaussRational.of(0) for _ in range(22))
    x = tuple(GaussRational.of(1) for _ in range(22))
    assert hermitian_pair(k3, z, x) == 0


def test_dimension_mismatch(k3):
    with pytest.raises(DimensionMismatchError):
        bilinear(k3, (Q(1),), (Q(1),))


def test_signature_examples(k3):
    assert signature(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))) == (3, 1, 0)
    assert signature(((0, 1), (1, 0))) == (1, 1, 0)
    assert signature(k3.space.gram) == (3, 19, 0)
    assert signature(((0, 0), (0, 0))) == (0, 0, 2)
    with pytest.raises(NotSymmetricError):
        signature(((0, 1), (2, 0)))


def test_hermitian_signature_examples():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert hermitian_signature(ident) == (3, 0, 0)
    # Hermitian gram of the deformation family at t = 1 and t = 2
    for t, expected in ((Q(1), (2, 0, 1)), (Q(2), (2, 1, 0))):
        h = ((1 - t * t, 0, 0), (0, 1, 0), (0, 0, 1))
        assert hermitian_signature(h) == expected
    i = GaussRational(Q(0), Q(1))
    off = ((GaussRational.of(0), i), (-i, GaussRational.of(0)))
    assert hermitian_signature(off) == (1, 1, 0)
    with pytest.raises(NotHermitianError):
        hermitian_signature(((GaussRational.of(0), i), (i, GaussRational.of(0))))


def _random_invertible(rng, n, gaussian=False):
    while True:
        if gaussian:
            m = tuple(
                tuple(GaussRational(Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))) for _ in range(n))
                for _ in range(n)
            )
        else:
            m = tuple(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)) for _ in range(n))
        if cofactor_det(m) != 0:
            return m


def test_signature_congruence_invariance():
    rng = random.Random(11)
    from k3cycles.linalg import mat_mul, transpose

    for _ in range(25):
        n = rng.randint(2, 5)
        m = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
        m = tuple(tuple(row) for row in m)
        a = _random_invertible(rng, n)
        cong = mat_mul(transpose(a), mat_mul(m, a))
        assert signature(m) == signature(cong)


def test_hermitian_signature_congruence_invariance():
    rng = random.Random(12)
    from k3cycles.linalg import mat_mul

    for _ in range(20):
        n = rng.randint(2, 4)
        h = [[GaussRational.of(0)] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = GaussRational.of(rng.randint(-4, 4))
            for j in range(i + 1, n):
                z = GaussRational(Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3)))
                h[i][j] = z
                h[j][i] = z.conjugate()
        h = tuple(tuple(row) for row in h)
        a = _random_invertible(rng, n, gaussian=True)
        ah = tuple(tuple(sum((a[k][i].conjugate() * h[k][l] for k in range(n)), start=GaussRational.of(0)) for l in range(n)) for i in range(n))
        cong = tuple(tuple(sum((ah[i][k] * a[k][j] for k in range(n)), start=GaussRational.of(0)) for j in range(n)) for i in range(n))
        assert hermitian_signature(h) == hermitian_signature(cong)


def test_hermitian_pair_diagonal_is_real(k3):
    rng = random.Random(13)
    for _ in range(20):
        x = tuple(GaussRational(Q(rng.randint(-3, 3), rng.randint(1, 2)), Q(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(22))
        v = GaussRational.of(hermitian_pair(k3, x, x))
        assert v.im == 0


def test_is_isometry(k3):
    n = 22
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    assert k.is_isometry(k3, ident)
    # swap of the two E8(-1) blocks
    perm = [[0] * n for _ in range(n)]
    for i in range(6):
        perm[i][i] = 1
    for c in range(8):
        perm[6 + c][14 + c] = 1
        perm[14 + c][6 + c] = 1
    assert k.is_isometry(k3, tuple(tuple(r) for r in perm))
    twice = tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))
    assert not k.is_isometry(k3, twice)


def test_isometry_group_closure(k3):
    from k3cycles.linalg import mat_mul
    from k3cycles.weyl import reflection_matrix

    d1 = tuple(1 if i == 0 else (-1 if i == 1 else 0) for i in range(22))  # e1 - f1
    d2 = tuple(1 if i == 2 else (-1 if i == 3 else 0) for i in range(22))  # e2 - f2
    s1 = reflection_matrix(k3, d1).matrix
    s2 = reflection_matrix(k3, d2).matrix
    prod = mat_mul(s1, s2)
    prod = tuple(tuple(int(x) for x in row) for row in prod)
    assert k.is_isometry(k3, prod)
    from k3cycles.linalg import inverse

    inv = inverse(prod)
    inv_int = tuple(tuple(int(x) for x in row) for row in inv)
    assert k.is_isometry(k3, inv_int)


def test_isometry_type_rejects_bad_matrices(k3):
    from k3cycles.errors import NotIntegralError, NotIsometryError

    with pytest.raises(NotIsometryError):
        k.Isometry(space=k3.space, matrix=tuple(tuple(2 if i == j else 0 for j in range(22)) for i in range(22)))
    with pytest.raises(NotIntegralError):
        k.Isometry(space=k3.space, matrix=tuple(tuple(Q(1, 2) if i == j else 0 for j in range(22)) for i in range(22)))
    with pytest.raises(NotIntegralError):  # det takes int entries only, and a bool is none
        k.Isometry(space=k3.space, matrix=tuple(tuple(i == j for j in range(22)) for i in range(22)))


def test_gauss_rational_arithmetic():
    i = GaussRational(Q(0), Q(1))
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (GaussRational(Q(1), Q(2)) / GaussRational(Q(1), Q(2))) == 1
    assert i.conjugate() == -i
    assert GaussRational(Q(3, 6), Q(0)) == Q(1, 2)
    with pytest.raises(ZeroDivisionError):
        i / GaussRational.of(0)
