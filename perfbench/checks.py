"""Output checks, one set per workload, computed apart from k3cycles.

Each checker takes an input item, the expected values the benchmark derived
on its own (lattice.py), and the program's result as plain data, and returns
a list of problems; an empty list means the operation is correct.
"""

from __future__ import annotations

from fractions import Fraction

from lattice import IDENTITY, K3, apply, mat_mul, norm, pair, reflection_matrix, transpose


def _fail(problems, cond, message):
    if not cond:
        problems.append(message)


def check_twistor(expected, result):
    """classification_to_json output for a positive real three-space in K3.

    expected: {"certificate": tuple | None} -- None when no root is
    orthogonal, otherwise the least root of the independently computed set.
    """
    p = []
    _fail(p, result["smooth"] is True, "three-space should be smooth")
    _fail(p, result["real"] is True, "three-space should be real")
    _fail(p, result["positive"] is True, "three-space should be positive")
    _fail(p, list(result["hermitian_signature"]) == [3, 0, 0], "hermitian signature should be (3,0,0)")
    _fail(p, result["domain"] == {"status": "verified_positive"}, "domain status should be verified_positive")
    tw = result["twistor"]
    cert = expected["certificate"]
    if cert is None:
        _fail(p, tw["status"] == "true", f"twistor status {tw['status']!r}, expected 'true'")
        _fail(p, tw["certificate"] is None, "a root-free three-space has no certificate")
    else:
        _fail(p, tw["status"] == "false", f"twistor status {tw['status']!r}, expected 'false'")
        got = tuple(tw["certificate"]) if tw["certificate"] is not None else None
        _fail(p, got == tuple(cert), f"certificate {got} is not the least orthogonal root {tuple(cert)}")
    return p


def check_reflect(item, result):
    """Weyl-action operation on one root d (see workloads.Reflect.run)."""
    p = []
    d = tuple(item["root"])
    _fail(p, norm(d) == -2, "input is not a root")
    own = reflection_matrix(d)
    _fail(p, tuple(tuple(row) for row in result["matrix"]) == own, "reflection matrix differs from I + d (G d)^T")
    _fail(p, tuple(tuple(row) for row in result["square"]) == IDENTITY, "R*R is not the identity")
    _fail(p, mat_mul(mat_mul(transpose(own), K3), own) == K3, "R^T G R != G")
    rows = [tuple(row) for row in result["complement"]]
    _fail(p, len(rows) == len(d) - 1, f"complement rank {len(rows)}, expected {len(d) - 1}")
    _fail(p, all(pair(row, d) == 0 for row in rows), "a complement row is not orthogonal to d")
    _fail(p, [tuple(x) for x in result["reflected_rows"]] == rows, "reflect moved a complement row")
    _fail(p, tuple(result["reflected_d"]) == tuple(-x for x in d), "reflect(d) != -d")
    _fail(p, result["o_plus"] is True, "a reflection in a -2 root must lie in O+")
    src = [tuple(row) for row in item["threespace_rows"]]
    _fail(p, all(im == 0 for row in result["image_rows"] for _, im in row), "image of a real space has imaginary parts")
    img = [tuple(re for re, _ in row) for row in result["image_rows"]]
    _fail(p, img == [apply(own, v) for v in src], "apply_isometry rows differ from R v")
    _fail(
        p,
        [[pair(a, b) for b in img] for a in img] == [[pair(a, b) for b in src] for a in src],
        "apply_isometry changed the Gram matrix of the basis rows",
    )
    return p


def check_domain(item, result):
    """classification_to_json output for a basis change of example_family(t), t > 1.

    On the conic of V_t the Hermitian value is at least 2|a|^2 > 0, so every
    sample is accepted: sampled_ok with all samples, signature (2,1,0),
    smooth and not real.
    """
    p = []
    t = Fraction(item["t"])
    _fail(p, t > 1, "input t must exceed 1")
    _fail(p, result["smooth"] is True, "V_t is smooth (<x,x> = 1 + t^2 != 0)")
    _fail(p, result["real"] is False, "V_t is not real for t != 0")
    _fail(p, result["positive"] is False, "V_t is not positive for t > 1")
    _fail(p, list(result["hermitian_signature"]) == [2, 1, 0], "hermitian signature should be (2,1,0) since 1 - t^2 < 0")
    _fail(p, result["twistor"]["status"] == "not_applicable", "no lattice context: twistor is not applicable")
    dom = result["domain"]
    _fail(p, dom.get("status") == "sampled_ok", f"domain status {dom.get('status')!r}, expected 'sampled_ok'")
    _fail(p, dom.get("samples") == item["samples"], f"{dom.get('samples')} samples, expected {item['samples']}")
    _fail(p, dom.get("precision_bits") == item["precision"], "precision_bits differs from the request")
    return p


def check_delta_p(expected, result):
    """Bounded Delta_p: equal, list for list, to the closed-form enumeration."""
    p = []
    roots = [tuple(r) for r in result["roots"]]
    _fail(p, result["complete"] is False and result["bound"] == 1, "bounded search must report complete=False, bound=1")
    want = expected["roots"]
    if roots != want:
        missing = len(set(want) - set(roots))
        extra = len(set(roots) - set(want))
        p.append(f"Delta_p has {len(roots)} roots, closed form {len(want)} ({missing} missing, {extra} extra)")
    return p


def check_chamber(item, expected, result):
    """partition_by_chamber + check_partition_property on a complete root system.

    expected: {"violation": None | (coeffs, root)} from lattice.first_violation
    on the (possibly flipped) plus list.
    """
    p = []
    kappa = [Fraction(x) for x in item["kappa"]]
    roots = {tuple(r) for r in item["roots"]}
    plus = [tuple(r) for r in result["plus"]]
    minus = [tuple(r) for r in result["minus"]]
    _fail(p, set(plus) | set(minus) == roots and len(plus) + len(minus) == len(roots), "plus and minus do not partition the roots")
    _fail(p, sorted(minus) == sorted(tuple(-x for x in r) for r in plus), "minus != -plus")
    _fail(p, all(pair(kappa, r) > 0 for r in plus), "a plus-root pairs non-positively with kappa")
    _fail(p, all(pair(kappa, r) < 0 for r in minus), "a minus-root pairs non-negatively with kappa")
    ok, violation = result["ok"], result["violation"]
    want = expected["violation"]
    if want is None:
        _fail(p, ok is True and violation is None, "complete positive system must pass the partition check")
    else:
        got = None if violation is None else (tuple(violation[0]), tuple(violation[1]))
        _fail(p, ok is False and got == want, f"first violation {got}, expected {want}")
    return p
