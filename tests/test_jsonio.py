import json
from fractions import Fraction as Q

import pytest

import k3cycles as k
from k3cycles import GaussRational, jsonio
from k3cycles.errors import DegenerateGramError, DimensionMismatchError, InputError, NotSymmetricError
from k3cycles.gaussrat import format_rational, parse_rational, parse_ratio
from k3cycles.linalg import clear_rows

from conftest import gauss_rows, space_doc, threespace_doc


def test_rational_strings():
    assert format_rational(Q(1, 2)) == "1/2"
    assert format_rational(Q(-3)) == "-3"
    assert parse_rational("7/3") == Q(7, 3)
    assert parse_rational(5) == Q(5)
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("x")


def test_repeated_literals_decode_as_when_parsed_one_by_one():
    # decode_rational_matrix parses each distinct literal once.  Its memo is
    # keyed by type as well as value, so 1, "1", 1.0 and true stay apart: a
    # bool or float after an equal int is still refused.
    lits = ["1", 1, "-1/2", "2/4", " 3", "0", 0, "1/1", "-1/2"]
    gram = [[lits[(3 * i + j) % len(lits)] for j in range(6)] for i in range(5)]
    assert jsonio.decode_rational_matrix(gram) == clear_rows([[parse_ratio(x) for x in row] for row in gram])
    for bad in (True, False, 1.0, [1], {"re": 1}):
        with pytest.raises(InputError):
            jsonio.decode_rational_matrix(gram + [[1, "1", 0, "0", bad, 1]])


@pytest.mark.parametrize("literal, decoded", [
    (True, None),
    (" 1 ", (((1,),), 1)),
    ("1/0", None),
    (1.5, None),
    ("1_0", (((10,),), 1)),
])
def test_edge_literals_decode_or_fail_as_parse_ratio_reads_them(literal, decoded):
    # Only strings are memoised; every other value goes to parse_ratio, so a
    # bool or float is refused even after an equal int or string.
    for before in ([], [1], ["1"], [literal]):
        gram = [before + [literal]]
        if decoded is None:
            with pytest.raises(InputError):
                jsonio.decode_rational_matrix(gram)
        else:
            rows, d = decoded
            assert jsonio.decode_rational_matrix(gram) == ((tuple(parse_ratio(x)[0] for x in before) + rows[0],), d)


def test_gauss_roundtrip():
    z = GaussRational(Q(1, 2), Q(-3))
    assert jsonio.encode_gauss(z) == {"re": "1/2", "im": "-3"}


def test_space_roundtrip(k3):
    doc = space_doc(k3.space)
    back = jsonio.space_from_json(json.loads(json.dumps(doc)))
    assert back.gram == k3.space.gram


def test_threespace_roundtrip(k3, vprime):
    doc = threespace_doc(vprime)
    back = jsonio.threespace_from_json(json.loads(json.dumps(doc)))
    assert back.basis == vprime.basis
    assert back.ambient.gram == k3.space.gram


def test_rootlist_roundtrip(k3, u3_diagonal):
    rl = k.roots_orthogonal_to_threespace(k3, u3_diagonal)
    doc = jsonio.rootlist_to_json(rl)
    back = jsonio.rootlist_from_json(json.loads(json.dumps(doc)))
    assert back == rl


def test_partition_shape(k3):
    r = tuple(1 if i == 4 else (-1 if i == 5 else 0) for i in range(22))
    kappa = [Q(0)] * 22
    kappa[4], kappa[5] = Q(1), Q(2)
    part = k.partition_by_chamber(k3, [r, tuple(-x for x in r)], tuple(kappa))
    doc = jsonio.partition_to_json(part)
    assert set(doc.keys()) == {"kappa", "plus", "minus"}
    assert doc["plus"] == [list(r)]


def test_classification_serialization(k3, u3_diagonal):
    c = k.classify_cycle(u3_diagonal, samples=4, lattice=k3)
    doc = jsonio.classification_to_json(c)
    assert doc["smooth"] is True
    assert doc["hermitian_signature"] == [3, 0, 0]
    assert doc["twistor"]["status"] == "false"
    assert doc["domain"]["status"] == "verified_positive"
    json.dumps(doc)  # must be valid JSON end to end


def test_intersection_serialization():
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1])
    rows = gauss_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    v = k.ThreeSpace(ambient=sp, basis=rows)
    h = k.intersect_hyperplane(v, (Q(1), Q(0), Q(0), Q(0)))
    doc = jsonio.intersection_to_json(h)
    assert doc["kind"] == "two_points"
    assert doc["quad_coeffs"]["a"] == {"re": "1", "im": "0"}
    assert doc["discriminant"] == {"re": "-1", "im": "0"}
    assert len(doc["points"]) == 2
    # 1/sqrt(2) to all 36 printed digits at the default 128 bits
    assert doc["points"][0][2]["re"] == "0.707106781186547524400844362104849039"
    json.dumps(doc)
    contain = k.intersect_hyperplane(v, (Q(0), Q(0), Q(0), Q(1)))
    assert jsonio.intersection_to_json(contain) == {"kind": "containment"}


def test_counterexample_point_keeps_its_precision():
    # span(e1 + 2i e4, e2, e5): the first sample is a counterexample; its
    # 128-bit point must print 36 correct digits, not a 53-bit rounding.
    sp = k.make_standard_lattice("diag", signs=[1, 1, 1, -1, -1, -1])
    rows = [[GaussRational.of(0)] * 6 for _ in range(3)]
    rows[0][0], rows[0][3], rows[1][1], rows[2][4] = 1, GaussRational(Q(0), Q(2)), 1, 1
    v = k.ThreeSpace(ambient=sp, basis=tuple(map(tuple, rows)))
    doc = jsonio.classification_to_json(k.classify_cycle(v, samples=64, precision=128))
    assert doc["domain"]["status"] == "counterexample"
    assert doc["domain"]["point"][0]["re"] == "0.244287195392330744946359003630283675"


def _diag_doc():
    """diag(1,1,1,-1) with the three-space span(e1, e2 + e4/2, e3)."""
    gram = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "-1"]]
    basis = [["1", "0", "0", "0"], ["0", "1", "0", {"re": "1/2", "im": "0"}], ["0", "0", "1", "0"]]
    return {"ambient": {"gram": gram}, "basis": basis}


def _with(path, value):
    doc = _diag_doc()
    *keys, last = path
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "doc, error",
    [
        (_with(("ambient", "gram", 0, 0), "1/0"), InputError),
        (_with(("ambient", "gram", 1, 1), "x"), InputError),
        (_with(("ambient", "gram", 2, 2), True), InputError),
        (_with(("ambient", "gram", 2, 2), 1.5), InputError),
        (_with(("ambient", "gram", 0), "1"), InputError),
        (_with(("ambient", "gram"), 5), InputError),
        (_with(("ambient", "gram", 3), ["0", "0", "0"]), DimensionMismatchError),
        (_with(("ambient", "gram", 0, 1), "2/4"), NotSymmetricError),
        (_with(("ambient", "gram", 3, 3), "0"), DegenerateGramError),
        (_with(("ambient", "gram", 3, 3), "1"), InputError),  # signature (4, 0, 0)
        (_with(("basis", 0, 0), True), InputError),
        (_with(("basis", 0, 0), {"re": "1", "im": True}), InputError),
        (_with(("basis", 0, 0), ["1"]), InputError),
        (_with(("basis", 0, 0), " 1/0 "), InputError),
        (_with(("basis", 1), ["0", "1", "0"]), DimensionMismatchError),
        (_with(("basis", 2), ["0", "2", "0", "1"]), InputError),  # dependent rows
        (_with(("basis", 2), "0"), InputError),
        (_with(("basis",), [["1", "0", "0", "0"], ["0", "1", "0", "0"]]), DimensionMismatchError),
    ],
)
def test_bad_threespace_documents_raise_their_error_class(doc, error):
    assert jsonio.threespace_from_json(_diag_doc()).ints == (((2, 0, 0, 0), (0, 2, 0, 1), (0, 0, 2, 0)), ((0,) * 4,) * 3, 2)
    with pytest.raises(error) as info:
        jsonio.threespace_from_json(json.loads(json.dumps(doc)))
    assert type(info.value) is error
