"""Shared fixtures: standard lattices, the U^3-diagonal three-space, and the
frozen root-free perturbation used by the twistor acceptance criterion."""

from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import jsonio, rootenum
from k3cycles.gaussrat import GaussRational, format_rational


def uvec(i, n=22):
    """e_i + f_i of the i-th hyperbolic block in K3 coordinates."""
    v = [Q(0)] * n
    v[2 * i] = Q(1)
    v[2 * i + 1] = Q(1)
    return v


def gauss_rows(rows):
    return tuple(tuple(GaussRational.of(x) for x in row) for row in rows)


def space_doc(space):
    """The JSON document of a quadratic space: its rational Gram as "p/q" strings."""
    return {"gram": [[format_rational(x) for x in row] for row in space.gram]}


def threespace_doc(v):
    """The JSON document of a three-space: its ambient Gram and its Gauss-rational basis rows."""
    return {"ambient": space_doc(v.ambient), "basis": [jsonio.encode_gauss_vector(row) for row in v.basis]}


# Perturbation of the U^3 diagonal with no orthogonal roots: the U tweaks
# (denominator 2) break the e_i - f_i roots, the two E8 components
# (denominators 5 and 7, both larger than any root pairing against them)
# are chosen so no root of either E8 block is orthogonal to all three rows.
VPRIME_P = ((1, 1, -1, 0, 0, 0, 0, 0), (0, 0, 0, -1, 1, 0, 0, -1), (-1, 0, -1, 0, 0, -1, 0, 0))
VPRIME_Q = ((0, 0, -1, 0, 0, 1, 0, -1), (0, 0, 0, 0, 0, -1, 1, -1), (0, 1, 0, -1, 0, 1, 0, 0))
VPRIME_USIGNS = (1, -1, 1)


def vprime_rows(n=22):
    rows = []
    for i in range(3):
        v = uvec(i, n)
        j = (i + 1) % 3
        v[2 * j + 1] += Q(VPRIME_USIGNS[i], 2)
        for c in range(8):
            if VPRIME_P[i][c]:
                v[6 + c] += Q(VPRIME_P[i][c], 5)
            if VPRIME_Q[i][c]:
                v[14 + c] += Q(VPRIME_Q[i][c], 7)
        rows.append(tuple(v))
    return rows


@pytest.fixture(autouse=True)
def _fresh_summand_shells():
    """Each test starts with empty tables of summand and block shells: a test
    that patches the walk can neither leave a faulty table behind nor pass by
    reading a good one."""
    rootenum._summand_shell.cache_clear()
    rootenum._block_shell.cache_clear()


@pytest.fixture(scope="session")
def k3():
    return k.make_standard_lattice("K3")


@pytest.fixture(scope="session")
def e8():
    return k.make_standard_lattice("E8")


@pytest.fixture(scope="session")
def e8_neg():
    return k.make_standard_lattice("E8_neg")


@pytest.fixture(scope="session")
def hyperbolic():
    return k.make_standard_lattice("U")


@pytest.fixture(scope="session")
def u3_diagonal(k3):
    return k.ThreeSpace(ambient=k3.space, basis=gauss_rows([uvec(i) for i in range(3)]))


@pytest.fixture(scope="session")
def vprime(k3):
    return k.ThreeSpace(ambient=k3.space, basis=gauss_rows(vprime_rows()))
