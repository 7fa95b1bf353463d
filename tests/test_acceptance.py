"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines print;
tolerances and runtime budgets are asserted, not just reported.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as Q

import mpmath

import k3cycles as k
from k3cycles import GaussRational
from k3cycles.linalg import identity_int, mat_mul

from conftest import gauss_rows, uvec, vprime_rows
from oracles import block_sum_roots, cofactor_det, dense_bilinear, dense_grams, gauss_rank, naive_box_norm_vectors


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {number} ({elapsed:.2f}s): {description}")


def _u3_threespace(k3):
    return k.ThreeSpace(ambient=k3.space, basis=gauss_rows([uvec(i) for i in range(3)]))


def test_criterion_01_example_family_sweep():
    with criterion(1, "example-family sweep signatures and smoothness", budget=1.0):
        expected = [(3, 0, 0), (3, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 0)]
        for t, sig in zip((Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)), expected):
            A, H = dense_grams(k.example_family(t))
            assert k.hermitian_signature(H) == sig
            assert cofactor_det(A) != 0


def test_criterion_02_k3_invariants(k3):
    with criterion(2, "K3 lattice invariants", budget=1.0):
        inv = k.lattice_invariants(k3)
        assert inv.even is True
        assert abs(inv.determinant) == 1
        assert k.signature(k3.space.gram) == (3, 19, 0)


def test_criterion_03_root_counts(k3, e8):
    with criterion(3, "root counts (E8: 240, complement of V: 486) against box oracles", budget=60.0):
        enum = k.enumerate_norm_vectors(e8.gram_int, 2)
        assert len(enum) == 240
        assert list(enum) == naive_box_norm_vectors(e8.gram_int, 2)
        rl = k.roots_orthogonal_to_threespace(k3, _u3_threespace(k3))
        assert rl.complete and len(rl) == 486
        sub = k.orthogonal_complement_lattice(k3, [uvec(i) for i in range(3)])
        oracle = [sub.to_ambient(t) for t in block_sum_roots(sub.restricted_gram)]
        oracle.sort()
        assert list(rl.roots) == oracle


def _enumerated_root_pool(k3, minimum=1000):
    """Distinct lattice roots drawn from complete complement enumerations."""
    e8roots = k.enumerate_norm_vectors(k.E8_GRAM, 2)
    variants = [(None, 0)]
    variants += [(e8roots[j], 0) for j in (0, 1, 3, 7, 15)]
    variants += [(e8roots[j], 1) for j in (0, 2, 5, 11)]
    pool = set()
    for w, blk in variants:
        v3 = uvec(2)
        if w is not None:
            v3[5] += Q(1)  # e3 + 2 f3 keeps the row positive after adding a root
            for c in range(8):
                v3[6 + 8 * blk + c] += Q(w[c])
        v = k.ThreeSpace(ambient=k3.space, basis=gauss_rows([uvec(0), uvec(1), tuple(v3)]))
        pool |= set(k.roots_orthogonal_to_threespace(k3, v).roots)
        if len(pool) >= minimum:
            break
    assert len(pool) >= minimum
    return sorted(pool)[:minimum]


def test_criterion_04_reflection_suite(k3):
    with criterion(4, "1000-root reflection suite (involution, isometry, fixed rank-21, O+)"):
        roots = _enumerated_root_pool(k3, 1000)
        assert len(roots) == 1000
        for d in roots:
            iso = k.reflection_matrix(k3, d)  # validates g^T G g = G on construction
            sq = mat_mul(iso.matrix, iso.matrix)
            assert tuple(tuple(int(x) for x in row) for row in sq) == identity_int(22)
            sub = k.orthogonal_complement_lattice(k3, [tuple(Q(x) for x in d)])
            assert sub.rank == 21
            for row in sub.basis:
                assert tuple(k.reflect(k3, d, row)) == tuple(row)
            assert k.is_in_O_plus(k3, iso)


def _random_positive_threespace(k3, rng):
    while True:
        rows = []
        for i in range(3):
            v = uvec(i)
            for _ in range(4):
                c = rng.randrange(22)
                v[c] += Q(rng.randint(-1, 1), 5)
            rows.append(tuple(v))
        gram = [[k.bilinear(k3, r, s) for s in rows] for r in rows]
        if k.signature(gram) == (3, 0, 0):
            return k.ThreeSpace(ambient=k3.space, basis=gauss_rows(rows))


def test_criterion_05_transversality(k3):
    with criterion(5, "200 transversal hyperplane sections with positive numeric points"):
        rng = random.Random(20250810)
        gram = k3.space.gram
        gram_f = [[mpmath.mpf(int(x)) for x in row] for row in gram]
        done = 0
        while done < 200:
            v = _random_positive_threespace(k3, rng)
            delta = tuple(rng.randint(-2, 2) for _ in range(22))
            if all(x == 0 for x in delta):
                continue
            pairings = [k.bilinear(k3, row, [Q(x) for x in delta]) for row in v.basis]
            if all(p == 0 for p in pairings):
                continue
            h = k.intersect_hyperplane(v, [Q(x) for x in delta])
            assert h.kind == "two_points"
            assert h.discriminant != 0
            for pt in h.numeric_points:
                quad = sum(pt[i] * sum(gram_f[i][j] * pt[j] for j in range(22)) for i in range(22))
                herm = sum(pt[i] * sum(gram_f[i][j] * mpmath.conj(pt[j]) for j in range(22)) for i in range(22))
                assert abs(quad) < 1e-9
                assert herm.real > 1e-9
            done += 1


def _spans_equal(a, b):
    return gauss_rank(a.basis + b.basis) == 3


def test_criterion_06_fixed_cycle_law(k3):
    with criterion(6, "fixed-cycle law: 100 fixed inside root walls, 100 moved outside"):
        rng = random.Random(60)
        roots = _enumerated_root_pool(k3, 300)
        fixed = moved = 0
        while fixed < 100:
            d = roots[rng.randrange(len(roots))]
            rows = []
            for i in range(3):
                p = uvec(i)
                pairing = k.bilinear(k3, p, [Q(x) for x in d])
                rows.append(tuple(a + Q(pairing, 2) * x for a, x in zip(p, d)))
            gram = [[k.bilinear(k3, r, s) for s in rows] for r in rows]
            if k.signature(gram) != (3, 0, 0):
                continue
            v = k.ThreeSpace(ambient=k3.space, basis=gauss_rows(rows))
            assert all(k.bilinear(k3, r, [Q(x) for x in d]) == 0 for r in rows)
            assert _spans_equal(k.apply_isometry(k.reflection_matrix(k3, d), v), v)
            fixed += 1
        while moved < 100:
            d = roots[rng.randrange(len(roots))]
            v = _random_positive_threespace(k3, rng)
            pairings = [k.bilinear(k3, row, [Q(x) for x in d]) for row in v.basis]
            if all(p == 0 for p in pairings):
                continue
            assert not _spans_equal(k.apply_isometry(k.reflection_matrix(k3, d), v), v)
            moved += 1


def test_criterion_07_dimension_formula():
    with criterion(7, "cycle-space dimension formula"):
        assert k.moduli_dimension(22, 2) == 57
        for n in range(4, 31):
            assert k.moduli_dimension(n, 2) == 3 * (n - 3)


def test_criterion_08_twistor_predicate(k3, u3_diagonal, vprime):
    with criterion(8, "twistor predicate: diagonal False with certificate, perturbation True", budget=120.0):
        res = k.is_twistor(k3, u3_diagonal)
        assert res.status == "false"
        cert = res.certificate
        assert dense_bilinear(k3.gram_int, cert, cert) == -2
        assert all(k.bilinear(k3, cert, row) == 0 for row in u3_diagonal.basis)
        all_orth = k.roots_orthogonal_to_threespace(k3, u3_diagonal)
        assert cert == all_orth.roots[0]  # lexicographically smallest

        res2 = k.is_twistor(k3, vprime)
        assert res2.status == "true"
        empty = k.roots_orthogonal_to_threespace(k3, vprime)
        assert empty.complete and len(empty) == 0
        # independent algorithm: block-assembled bounded box search
        assert len(k.bounded_root_search(k3, vprime_rows(), 2)) == 0


def test_criterion_09_domain_sampling(k3):
    with criterion(9, "conic domain sampling: family inside, real indefinite counterexample"):
        for t in (Q(1), Q(2)):
            c = k.classify_cycle(k.example_family(t), samples=1000)
            assert c.domain_status.kind == "sampled_ok"
            assert c.domain_status.samples == 1000
        sp = k.make_standard_lattice("diag", signs=[1, 1, 1] + [-1] * 19)
        rows = []
        for idx in (0, 1, 3):
            r = [GaussRational.of(0)] * 22
            r[idx] = GaussRational.of(1)
            rows.append(tuple(r))
        c = k.classify_cycle(k.ThreeSpace(ambient=sp, basis=tuple(rows)), samples=1000)
        assert c.hermitian_signature == (2, 1, 0)
        assert c.real and c.smooth
        assert c.domain_status.kind == "counterexample"
        pt = c.domain_status.exact_point
        assert pt is not None and c.domain_status.certified_exact
        assert k.bilinear(sp, pt, pt) == 0  # on the quadric, exactly
        assert k.hermitian_pair(sp, pt, pt) == 0  # not in the open domain


def _classification_key(c):
    return (c.smooth, c.hermitian_signature, c.real, c.positive, c.twistor.status, c.domain_status.kind)


def test_criterion_10_invariance_suites(k3, u3_diagonal):
    with criterion(10, "classification and signature invariance suites"):
        rng = random.Random(100)
        # 100 random GL3(Q(i)) basis changes
        for t in (Q(1, 2), Q(2)):
            v = k.example_family(t)
            base = _classification_key(k.classify_cycle(v, samples=8))
            for _ in range(50):
                while True:
                    m = tuple(
                        tuple(GaussRational(Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))) for _ in range(3))
                        for _ in range(3)
                    )
                    if cofactor_det(m) != 0:
                        break
                rows = tuple(
                    tuple(sum((m[i][j] * v.basis[j][c] for j in range(3)), start=GaussRational.of(0)) for c in range(v.n))
                    for i in range(3)
                )
                v2 = k.ThreeSpace(ambient=v.ambient, basis=rows)
                assert _classification_key(k.classify_cycle(v2, samples=8)) == base

        # 100 random reflection-word isometries
        roots = _enumerated_root_pool(k3, 200)
        base = _classification_key(k.classify_cycle(u3_diagonal, samples=8))
        v = u3_diagonal
        for step in range(100):
            d = roots[rng.randrange(len(roots))]
            v = k.apply_isometry(k.reflection_matrix(k3, d), v)
            assert _classification_key(k.classify_cycle(v, samples=8)) == base
        # twistor status rides along under the lattice action (spot checks)
        v = u3_diagonal
        for _ in range(3):
            d = roots[rng.randrange(len(roots))]
            v = k.apply_isometry(k.reflection_matrix(k3, d), v)
            assert k.is_twistor(k3, v).status == "false"

        # signature invariance under rational congruence
        for _ in range(20):
            n = rng.randint(2, 5)
            m = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    m[i][j] = m[j][i]
            m = tuple(tuple(row) for row in m)
            while True:
                a = tuple(tuple(Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)) for _ in range(n))
                if cofactor_det(a) != 0:
                    break
            cong = mat_mul(tuple(zip(*a)), mat_mul(m, a))
            assert k.signature(m) == k.signature(cong)
