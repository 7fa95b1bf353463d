"""Tests of the benchmark's own checkers: each accepts the program's real
result and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import k3cycles  # noqa: E402
import k3cycles.jsonio  # noqa: E402,F401
import pytest  # noqa: E402

import lattice as L  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _op(workload, pick, seed=1):
    """Run one item of a workload through the program; (w, item, expected, result)."""
    w = WORKLOADS[workload]
    items = w.make_items(random.Random(f"{workload}:{seed}"))
    item = next(it for it in items if pick(it))
    ctx = w.prepare(k3cycles, [item])
    result = w.run(k3cycles, ctx, item, ctx["args"][0])
    return w, item, w.expect({}, item), result


def test_closed_forms():
    assert len(L.e8_roots()) == 240
    roots = L.u3_diagonal_roots()
    assert len(roots) == 486
    assert roots[0] == (-1, 1) + (0,) * 20  # certificate f1 - e1
    re = (1, 1) + (0,) * 20
    im = (0, 0, 1, 1) + (0,) * 18
    assert len(L.delta_p_closed_form(re, im, L.box_norm_table())) == 19694


@pytest.fixture(scope="module")
def twistor_image():
    return _op("twistor", lambda it: it["base"] == "u3_diagonal" and it["root"] is not None)


def test_twistor_accepts_and_rejects_dropped_root(twistor_image):
    w, item, expected, result = twistor_image
    assert w.check(item, expected, result) == []
    # With the least orthogonal root dropped, the certificate would be the next one.
    image_roots = sorted(L.reflect(item["root"], r) for r in L.u3_diagonal_roots())
    bad = copy.deepcopy(result)
    bad["twistor"]["certificate"] = list(image_roots[1])
    assert w.check(item, expected, bad)


def test_twistor_rejects_roots_on_root_free_space():
    w, item, expected, result = _op("twistor", lambda it: it["name"] == "vprime")
    assert w.check(item, expected, result) == []
    bad = copy.deepcopy(result)
    bad["twistor"] = {"status": "false", "certificate": [-1, 1] + [0] * 20, "reason": None}
    assert w.check(item, expected, bad)


def test_reflect_rejects_flipped_o_plus_and_bad_matrix():
    w, item, expected, result = _op("reflect", lambda it: True)
    assert w.check(item, expected, result) == []
    assert w.check(item, expected, dict(result, o_plus=False))
    m = [list(row) for row in result["matrix"]]
    m[0][0] += 1
    assert w.check(item, expected, dict(result, matrix=m))
    assert w.check(item, expected, dict(result, reflected_d=item["root"]))


def test_domain_rejects_short_sample_count():
    w, item, expected, result = _op("domain", lambda it: True)
    assert w.check(item, expected, result) == []
    bad = copy.deepcopy(result)
    bad["domain"]["samples"] = item["samples"] - 1
    assert w.check(item, expected, bad)
    bad = copy.deepcopy(result)
    bad["domain"] = {"status": "counterexample", "samples": 3, "precision_bits": item["precision"]}
    assert w.check(item, expected, bad)


def test_chamber_rejects_dropped_root_in_delta_p():
    w, item, expected, result = _op("chamber", lambda it: it["kind"] == "delta_p")
    assert len(result["roots"]) == 19694
    assert w.check(item, expected, result) == []
    assert w.check(item, expected, dict(result, roots=result["roots"][1:]))


def test_chamber_rejects_wrong_first_violation():
    w, item, expected, result = _op("chamber", lambda it: it["kind"] == "partition" and it["flip"] and it["depth"] == 3)
    assert result["ok"] is False
    assert w.check(item, expected, result) == []
    coeffs, root = result["violation"]
    assert w.check(item, expected, dict(result, violation=(coeffs, tuple(-x for x in root))))
    shifted = (tuple(coeffs[1:]) + tuple(coeffs[:1]), root)
    assert w.check(item, expected, dict(result, violation=shifted))
    assert w.check(item, expected, dict(result, ok=True, violation=None))
    swapped = dict(result, plus=result["minus"], minus=result["plus"])
    assert w.check(item, expected, swapped)
