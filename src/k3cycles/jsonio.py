"""JSON encodings shared by the library and the CLI.

Rationals travel as strings "p/q" (bare "p" when q = 1), Gauss rationals as
{"re": ..., "im": ...}, matrices as row-major arrays.  Numeric (sampled or
intersection) data is emitted as decimal strings tagged with the binary
precision used to compute it.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .cyclespace import (
    CycleClassification,
    DomainStatus,
    HyperplaneIntersection,
    ThreeSpace,
    TwistorStatus,
)
from .errors import InputError
from .gaussrat import GaussRational, format_rational, parse_ratio
from .linalg import clear_gauss_rows, clear_rows
from .quadspace import IntegralLattice, QuadraticSpace
from .rootenum import RootList, Sublattice
from .weyl import ChamberPartition, PartitionCheck


def encode_gauss(x) -> dict:
    g = GaussRational.of(x)
    return {"re": format_rational(g.re), "im": format_rational(g.im)}


def _gauss_ratios(obj) -> tuple:
    """The (p, q) pairs of the real and imaginary parts of a JSON Gauss rational."""
    if isinstance(obj, (int, str)):
        return parse_ratio(obj), (0, 1)
    if isinstance(obj, dict):
        return parse_ratio(obj.get("re", 0)), parse_ratio(obj.get("im", 0))
    raise InputError(f"bad Gauss-rational value {obj!r}")


def encode_rational_vector(v) -> list:
    return [format_rational(x) for x in v]


class _Literals(dict):
    """The `parse_ratio` of each distinct string literal, parsed when first looked up."""

    def __missing__(self, s):
        self[s] = pair = parse_ratio(s)
        return pair


def _ratios(obj, seen=None) -> list:
    """The (p, q) pairs of a JSON rational vector: strings through the memo `seen`, any
    other value to `parse_ratio`, so true and 1.0 are refused even after a 1 or a "1"."""
    if not isinstance(obj, list):
        raise InputError("expected a JSON array for a rational vector")
    seen = _Literals() if seen is None else seen
    return [seen[x] if type(x) is str else parse_ratio(x) for x in obj]


def _gauss_row(obj) -> list:
    """The `_gauss_ratios` of a JSON Gauss-rational vector."""
    if not isinstance(obj, list):
        raise InputError("expected a JSON array for a vector")
    return [_gauss_ratios(x) for x in obj]


def decode_rational_vector(obj) -> tuple:
    return tuple(Fraction(p, q) for p, q in _ratios(obj))


def _rows(obj) -> list:
    """The one array check of every JSON row list."""
    if not isinstance(obj, list):
        raise InputError("expected a JSON array of rows")
    return obj


def decode_rational_matrix(obj) -> tuple:
    """(rows, d): the rational rows as integer rows over their least common denominator
    d > 0, with one memo of string literals for all rows."""
    seen = _Literals()
    return clear_rows([_ratios(row, seen) for row in _rows(obj)])


def decode_int_vector(obj) -> tuple:
    v = _ratios(obj)
    if any(q != 1 for _, q in v):
        raise InputError("expected integer entries")
    return tuple(p for p, _ in v)


def decode_int_matrix(obj) -> tuple:
    return tuple(decode_int_vector(row) for row in _rows(obj))


def encode_gauss_vector(v) -> list:
    return [encode_gauss(x) for x in v]


def space_from_json(obj) -> QuadraticSpace:
    if not isinstance(obj, dict) or "gram" not in obj:
        raise InputError("quadratic space JSON needs a 'gram' key")
    return QuadraticSpace(*decode_rational_matrix(obj["gram"]))


def lattice_from_json(obj) -> IntegralLattice:
    return IntegralLattice(space=space_from_json(obj))


def threespace_from_json(obj) -> ThreeSpace:
    if not isinstance(obj, dict) or "ambient" not in obj or "basis" not in obj:
        raise InputError("three-space JSON needs 'ambient' and 'basis'")
    ambient = space_from_json(obj["ambient"])
    return ThreeSpace(ambient=ambient, ints=clear_gauss_rows([_gauss_row(row) for row in _rows(obj["basis"])]))


def rootlist_to_json(r: RootList) -> dict:
    return {
        "complete": r.complete,
        "bound": r.bound_used,
        "roots": [list(v) for v in r.roots],
    }


def rootlist_from_json(obj) -> RootList:
    """A root list document, or a bare array of roots (not complete, no bound)."""
    if not isinstance(obj, dict):
        obj = {"roots": obj}
    if "roots" not in obj:
        raise InputError("root list JSON needs a 'roots' key")
    complete, bound = obj.get("complete", False), obj.get("bound")
    if not isinstance(complete, bool):
        raise InputError("root list 'complete' must be true or false")
    if bound is not None and type(bound) is not int:
        raise InputError("root list 'bound' must be an integer or null")
    return RootList(roots=decode_int_matrix(obj["roots"]), complete=complete, bound_used=bound)


def sublattice_to_json(s: Sublattice) -> dict:
    return {
        "rank": s.rank,
        "basis": [list(row) for row in s.basis],
        "restricted_gram": [list(row) for row in s.restricted_gram],
    }


def _digits_for_bits(bits: int) -> int:
    return max(int(bits * 0.30103) - 2, 8)


def encode_numeric_complex(z: mpmath.mpc, bits: int) -> dict:
    """An mpc printed as it is, at the decimal digits of `bits` bits."""
    digits = _digits_for_bits(bits)
    return {
        "re": mpmath.nstr(z.real, digits),
        "im": mpmath.nstr(z.imag, digits),
    }


def encode_numeric_vector(v, bits: int) -> list:
    return [encode_numeric_complex(x, bits) for x in v]


def twistor_to_json(t: TwistorStatus) -> dict:
    return {
        "status": t.status,
        "certificate": list(t.certificate) if t.certificate is not None else None,
        "reason": t.reason,
    }


def domain_to_json(d: DomainStatus) -> dict:
    out = {"status": d.kind}
    if d.kind != "verified_positive":
        out["samples"] = d.samples
        out["precision_bits"] = d.precision_bits
    if d.kind == "counterexample":
        out["point"] = encode_numeric_vector(d.point, d.precision_bits)
        out["exact_point"] = (
            [encode_gauss(x) for x in d.exact_point] if d.exact_point is not None else None
        )
        out["certified_exact"] = d.certified_exact
    return out


def classification_to_json(c: CycleClassification) -> dict:
    return {
        "smooth": c.smooth,
        "hermitian_signature": list(c.hermitian_signature),
        "real": c.real,
        "positive": c.positive,
        "twistor": twistor_to_json(c.twistor),
        "domain": domain_to_json(c.domain_status),
    }


def intersection_to_json(h: HyperplaneIntersection) -> dict:
    if h.kind == "containment":
        return {"kind": "containment"}
    a, b, c = h.quad_coeffs
    return {
        "kind": "two_points",
        "line_basis": [encode_gauss_vector(row) for row in h.line_basis],
        "quad_coeffs": {"a": encode_gauss(a), "b": encode_gauss(b), "c": encode_gauss(c)},
        "discriminant": encode_gauss(h.discriminant),
        "points": [encode_numeric_vector(p, h.precision_bits) for p in h.numeric_points],
        "precision_bits": h.precision_bits,
    }


def partition_to_json(p: ChamberPartition) -> dict:
    return {
        "kappa": encode_rational_vector(p.kappa),
        "plus": [list(v) for v in p.plus],
        "minus": [list(v) for v in p.minus],
    }


def partition_check_to_json(c: PartitionCheck) -> dict:
    if c.ok:
        return {"ok": True, "violation": None}
    coeffs, delta = c.violation
    return {"ok": False, "violation": {"coefficients": list(coeffs), "delta": list(delta)}}
