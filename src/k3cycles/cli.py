"""Batch CLI over the library: one JSON document per invocation.

Exit codes: 0 success, 1 I/O failure, 2 domain validation error (the error is
itself a JSON object {code, message} on stdout).  Output field order and all
list sort orders are fixed, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from . import jsonio
from .cyclespace import classify_cycle, example_family, exact_classification, intersect_hyperplane
from .errors import InputError, K3CyclesError
from .gaussrat import parse_rational
from .linalg import det
from .quadspace import (
    IntegralLattice,
    Isometry,
    is_isometry,
    lattice_invariants,
    make_standard_lattice,
)
from .rootenum import bounded_root_search, enumerate_norm_vectors, orthogonal_complement_lattice
from .weyl import (
    check_partition_property,
    is_in_O_plus,
    partition_by_chamber,
    reflect,
    reflection_matrix,
)

STANDARD_KINDS = ("U", "E8", "E8_neg", "K3")


def _emit(doc) -> None:
    click.echo(json.dumps(doc, indent=2))


def _load_arg(value: str):
    """Inline JSON, or @path to read the JSON from a file."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = value
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON argument: {exc}") from exc


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: {exc}") from exc


def _lattice_option(kind, lattice_file):
    if (kind is None) == (lattice_file is None):
        raise InputError("provide exactly one of --kind or --lattice-file")
    if kind is not None:
        if kind not in STANDARD_KINDS:
            raise InputError(f"--kind must be one of {', '.join(STANDARD_KINDS)}")
        return make_standard_lattice(kind)
    return jsonio.lattice_from_json(_load_json_file(lattice_file))


def _run(fn):
    try:
        fn()
    except K3CyclesError as exc:
        _emit({"code": exc.code, "message": str(exc)})
        sys.exit(2)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(1)


@click.group()
def main():
    """Exact lattice arithmetic and cycle classification for IHS period domains."""


@main.command("lattice-info")
@click.option("--kind", default=None, help="One of U, E8, E8_neg, K3, diag.")
@click.option("--signs", default=None, help="Comma-separated +-1 list for --kind diag.")
@click.option("--lattice-file", default=None, type=click.Path(), help="Custom integral gram JSON.")
def lattice_info(kind, signs, lattice_file):
    """Rank, signature, parity, determinant and unimodularity."""

    def go():
        if kind == "diag":
            if not signs:
                raise InputError("--kind diag requires --signs")
            try:
                sign_list = [int(s) for s in signs.split(",")]
            except ValueError as exc:
                raise InputError("--signs must be a comma-separated list of 1/-1") from exc
            space = make_standard_lattice("diag", signs=sign_list)
            lattice = IntegralLattice(space=space)
            shown = "diag"
        else:
            lattice = _lattice_option(kind, lattice_file)
            shown = kind or "custom"
        inv = lattice_invariants(lattice)
        p, n, z = lattice.space.inertia
        _emit(
            {
                "kind": shown,
                "rank": lattice.n,
                "signature": [p, n, z],
                "even": inv.even,
                "det": inv.determinant,
                "unimodular": inv.unimodular,
            }
        )

    _run(go)


@main.command("roots")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--norm", default="2", show_default=True, help="Target norm (rational).")
@click.option("--bound", default=None, type=int, help="Bounded root search: coordinate box radius.")
@click.option("--constraints", default=None, help="Orthogonality constraints for the bounded search (JSON or @file).")
def roots_cmd(kind, lattice_file, norm, bound, constraints):
    """Complete norm-vector enumeration in a definite lattice, or a bounded
    norm -2 search (with optional orthogonality constraints) in any lattice."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        if bound is not None:
            if parse_rational(norm) != -2:
                raise InputError("bounded searches enumerate norm -2 vectors")
            rows = ()
            if constraints is not None:
                obj = _load_arg(constraints)
                rows = jsonio.decode_rational_matrix(obj) if obj else ()
            rl = bounded_root_search(lattice, rows, bound)
            _emit(
                {
                    "count": len(rl.roots),
                    "complete": rl.complete,
                    "bound": rl.bound_used,
                    "roots": [list(v) for v in rl.roots],
                }
            )
            return
        if constraints is not None:
            raise InputError("--constraints requires --bound")
        target = parse_rational(norm)
        p, nneg, z = lattice.space.inertia
        if z == 0 and nneg == 0:
            gram = lattice.space.gram
        elif z == 0 and p == 0:
            gram = tuple(tuple(-x for x in row) for row in lattice.space.gram)
            target = -target
        else:
            raise InputError("complete enumeration requires a definite lattice; pass --bound for a box search")
        if target <= 0:
            raise InputError("target norm has the wrong sign for this lattice")
        vectors = enumerate_norm_vectors(gram, target)
        _emit(
            {
                "count": len(vectors),
                "complete": True,
                "bound": None,
                "roots": [list(v) for v in vectors],
            }
        )

    _run(go)


@main.command("complement")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--constraints", required=True, help="JSON array of rational vectors (or @file).")
def complement_cmd(kind, lattice_file, constraints):
    """Saturated orthogonal-complement sublattice of a constraint set."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        obj = _load_arg(constraints)
        rows = jsonio.decode_rational_matrix(obj) if obj else ()
        sub = orthogonal_complement_lattice(lattice, rows)
        _emit(jsonio.sublattice_to_json(sub))

    _run(go)


@main.command("cycle-classify")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Three-space JSON file.")
@click.option("--kind", default=None, help="Integral lattice context for the twistor predicate.")
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--samples", default=256, show_default=True)
@click.option("--precision", default=None, type=int, help="Binary precision, at least 53 (default 128 or K3CYCLES_PRECISION).")
def cycle_classify(input_path, kind, lattice_file, samples, precision):
    """Smoothness, Hermitian signature, reality, positivity, twistor, domain."""

    def go():
        v = jsonio.threespace_from_json(_load_json_file(input_path))
        lattice = None
        if kind is not None or lattice_file is not None:
            lattice = _lattice_option(kind, lattice_file)
        c = classify_cycle(v, samples=samples, lattice=lattice, precision=precision)
        _emit(jsonio.classification_to_json(c))

    _run(go)


@main.command("cycle-intersect")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--delta", required=True, help="Rational vector (JSON array or @file).")
@click.option("--precision", default=None, type=int)
def cycle_intersect(input_path, delta, precision):
    """Intersection of the cycle with a hyperplane section."""

    def go():
        v = jsonio.threespace_from_json(_load_json_file(input_path))
        d = jsonio.decode_rational_vector(_load_arg(delta))
        h = intersect_hyperplane(v, d, precision=precision)
        _emit(jsonio.intersection_to_json(h))

    _run(go)


@main.command("cycle-sweep-example")
@click.option("--t", "t_values", required=True, help="Comma-separated rational parameters.")
@click.option("--rank", default=22, show_default=True)
def cycle_sweep_example(t_values, rank):
    """Exact classification sweep of the deformation family V_t."""

    def go():
        ts = [parse_rational(s) for s in t_values.split(",")]
        records = []
        for t in ts:
            records.append({"t": jsonio.encode_rational(Fraction(t)), **exact_classification(example_family(t, n=rank))})
        _emit({"rank": rank, "family": records})

    _run(go)


@main.command("reflect")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--delta", required=True, help="Root vector (JSON array or @file).")
@click.option("--x", "x_vec", default=None, help="Optional vector to reflect.")
def reflect_cmd(kind, lattice_file, delta, x_vec):
    """Picard-Lefschetz reflection: matrix, orientation, optional image vector."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        d = jsonio.decode_int_vector(_load_arg(delta))
        iso = reflection_matrix(lattice, d)
        doc = {
            "delta": list(d),
            "matrix": [list(r) for r in iso.matrix],
            "determinant": iso.determinant,
            "in_o_plus": is_in_O_plus(lattice, iso),
        }
        if x_vec is not None:
            xv = jsonio.decode_rational_vector(_load_arg(x_vec))
            doc["vector"] = jsonio.encode_rational_vector(reflect(lattice, d, xv))
        _emit(doc)

    _run(go)


@main.command("isometry-check")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--matrix", required=True, help="Integer matrix (JSON rows or @file).")
def isometry_check(kind, lattice_file, matrix):
    """Gram preservation, determinant and O+ membership of an integer matrix."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        m = jsonio.decode_int_matrix(_load_arg(matrix))
        ok = is_isometry(lattice, m)
        doc = {"isometry": ok}
        if ok:
            iso = Isometry(space=lattice.space, matrix=m)
            doc["determinant"] = iso.determinant
            doc["in_o_plus"] = is_in_O_plus(lattice, iso)
        else:
            d = det(m)
            doc["determinant"] = int(d) if d.denominator == 1 else None
            doc["in_o_plus"] = None
        _emit(doc)

    _run(go)


@main.command("chamber-partition")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--roots", required=True, help="RootList JSON or array of roots (or @file).")
@click.option("--kappa", required=True, help="Rational vector (JSON array or @file).")
def chamber_partition(kind, lattice_file, roots, kappa):
    """Sign partition of a root set by a chamber representative."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        obj = _load_arg(roots)
        if isinstance(obj, dict):
            rl = jsonio.rootlist_from_json(obj)
        else:
            rl = jsonio.rootlist_from_json({"roots": obj, "complete": False, "bound": None})
        k = jsonio.decode_rational_vector(_load_arg(kappa))
        part = partition_by_chamber(lattice, rl, k)
        _emit(jsonio.partition_to_json(part))

    _run(go)


@main.command("partition-check")
@click.option("--kind", default=None)
@click.option("--lattice-file", default=None, type=click.Path())
@click.option("--plus", required=True, help="Array of plus-roots (or @file).")
@click.option("--depth", default=4, show_default=True)
def partition_check(kind, lattice_file, plus, depth):
    """Check the chamber property on N-combinations up to the given depth."""

    def go():
        lattice = _lattice_option(kind, lattice_file)
        rows = jsonio.decode_int_matrix(_load_arg(plus))
        result = check_partition_property(lattice, rows, depth=depth)
        _emit(jsonio.partition_check_to_json(result))

    _run(go)


if __name__ == "__main__":
    main()
