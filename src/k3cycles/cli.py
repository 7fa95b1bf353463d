"""Batch CLI over the library: one JSON document per invocation.

Exit codes: 0 success, 1 I/O failure, 2 domain validation error (the error is
itself a JSON object {code, message} on stdout).  Output field order and all
list sort orders are fixed, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import jsonio
from .cyclespace import classify_cycle, example_family, exact_classification, intersect_hyperplane
from .errors import FrameError, InputError, K3CyclesError, NotIsometryError
from .gaussrat import format_rational, parse_rational
from .linalg import det
from .quadspace import (
    IntegralLattice,
    is_isometry,
    lattice_invariants,
    make_standard_lattice,
)
from .rootenum import RootList, bounded_root_search, enumerate_norm_vectors, orthogonal_complement_lattice
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
        return _load_json_file(value[1:])
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON argument: {exc}") from exc


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: {exc}") from exc


def _in_o_plus(lattice, g):
    """O+ membership of g, or None when g is no isometry or the ambient has no positive frame."""
    try:
        return is_in_O_plus(lattice, g)
    except (FrameError, NotIsometryError):
        return None


def _lattice_option(kind, lattice_file):
    if (kind is None) == (lattice_file is None):
        raise InputError("provide exactly one of --kind or --lattice-file")
    if kind is not None:
        if kind not in STANDARD_KINDS:
            raise InputError(f"--kind must be one of {', '.join(STANDARD_KINDS)}")
        return make_standard_lattice(kind)
    return jsonio.lattice_from_json(_load_json_file(lattice_file))


# The lattice source of every command that gives it no help text of its own.
_kind_option = click.option("--kind", default=None)
_lattice_file_option = click.option("--lattice-file", default=None, type=click.Path())


def _guarded(command):
    """The exit-code policy of every command: a K3CyclesError prints its
    {code, message} document and exits 2, an OSError exits 1."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except K3CyclesError as exc:
            _emit({"code": exc.code, "message": str(exc)})
            sys.exit(2)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(1)

    return run


@click.group()
def main():
    """Exact lattice arithmetic and cycle classification for IHS period domains."""


@main.command("lattice-info")
@click.option("--kind", default=None, help="One of U, E8, E8_neg, K3, diag.")
@click.option("--signs", default=None, help="Comma-separated +-1 list for --kind diag.")
@click.option("--lattice-file", default=None, type=click.Path(), help="Custom integral gram JSON.")
@_guarded
def lattice_info(kind, signs, lattice_file):
    """Rank, signature, parity, determinant and unimodularity."""
    if signs is not None and kind != "diag":
        raise InputError("--signs requires --kind diag")
    if kind != "diag" or lattice_file is not None:
        lattice = _lattice_option(kind, lattice_file)  # also rejects --kind diag with --lattice-file
    else:
        if not signs:
            raise InputError("--kind diag requires --signs")
        try:
            sign_list = [int(s) for s in signs.split(",")]
        except ValueError as exc:
            raise InputError("--signs must be a comma-separated list of 1/-1") from exc
        lattice = IntegralLattice(make_standard_lattice("diag", signs=sign_list))
    inv = lattice_invariants(lattice)
    p, n, z = lattice.space.inertia
    _emit(
        {
            "kind": kind or "custom",
            "rank": lattice.n,
            "signature": [p, n, z],
            "even": inv.even,
            "det": inv.determinant,
            "unimodular": inv.unimodular,
        }
    )


@main.command("roots")
@_kind_option
@_lattice_file_option
@click.option("--norm", default="2", show_default=True, help="Target norm (rational).")
@click.option("--bound", default=None, type=int, help="Bounded root search: coordinate box radius.")
@click.option("--constraints", default=None, help="Orthogonality constraints for the bounded search (JSON or @file).")
@_guarded
def roots_cmd(kind, lattice_file, norm, bound, constraints):
    """Complete norm-vector enumeration in a definite lattice, or a bounded
    norm -2 search (with optional orthogonality constraints) in any lattice."""
    lattice = _lattice_option(kind, lattice_file)
    if bound is not None:
        if parse_rational(norm) != -2:
            raise InputError("bounded searches enumerate norm -2 vectors")
        # Cleared to integer rows over one denominator d > 0: the same orthogonality constraints.
        rows = () if constraints is None else jsonio.decode_rational_matrix(_load_arg(constraints))[0]
        rl = bounded_root_search(lattice, rows, bound)
    else:
        if constraints is not None:
            raise InputError("--constraints requires --bound")
        target = parse_rational(norm)
        p, nneg, z = lattice.space.inertia
        if z or p and nneg:
            raise InputError("complete enumeration requires a definite lattice; pass --bound for a box search")
        sign = -1 if nneg else 1  # enumerate in the positive definite form
        gram, target = tuple(tuple(sign * x for x in row) for row in lattice.gram_int), sign * target
        if target <= 0:
            raise InputError("target norm has the wrong sign for this lattice")
        rl = RootList(roots=tuple(enumerate_norm_vectors(gram, target)), complete=True)
    _emit({"count": len(rl), **jsonio.rootlist_to_json(rl)})


@main.command("complement")
@_kind_option
@_lattice_file_option
@click.option("--constraints", required=True, help="JSON array of rational vectors (or @file).")
@_guarded
def complement_cmd(kind, lattice_file, constraints):
    """Saturated orthogonal-complement sublattice of a constraint set."""
    lattice = _lattice_option(kind, lattice_file)
    rows = jsonio.decode_rational_matrix(_load_arg(constraints))[0]
    sub = orthogonal_complement_lattice(lattice, rows)
    _emit(jsonio.sublattice_to_json(sub))


@main.command("cycle-classify")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Three-space JSON file.")
@click.option("--kind", default=None, help="Integral lattice context for the twistor predicate.")
@_lattice_file_option
@click.option("--samples", default=256, show_default=True)
@click.option("--precision", default=None, type=int, help="Binary precision, at least 53 (default 128 or K3CYCLES_PRECISION).")
@_guarded
def cycle_classify(input_path, kind, lattice_file, samples, precision):
    """Smoothness, Hermitian signature, reality, positivity, twistor, domain."""
    v = jsonio.threespace_from_json(_load_json_file(input_path))
    lattice = None
    if kind is not None or lattice_file is not None:
        lattice = _lattice_option(kind, lattice_file)
    c = classify_cycle(v, samples=samples, lattice=lattice, precision=precision)
    _emit(jsonio.classification_to_json(c))


@main.command("cycle-intersect")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--delta", required=True, help="Rational vector (JSON array or @file).")
@click.option("--precision", default=None, type=int)
@_guarded
def cycle_intersect(input_path, delta, precision):
    """Intersection of the cycle with a hyperplane section."""
    v = jsonio.threespace_from_json(_load_json_file(input_path))
    d = jsonio.decode_rational_vector(_load_arg(delta))
    h = intersect_hyperplane(v, d, precision=precision)
    _emit(jsonio.intersection_to_json(h))


@main.command("cycle-sweep-example")
@click.option("--t", "t_values", required=True, help="Comma-separated rational parameters.")
@click.option("--rank", default=22, show_default=True)
@_guarded
def cycle_sweep_example(t_values, rank):
    """Exact classification sweep of the deformation family V_t."""
    ts = [parse_rational(s) for s in t_values.split(",")]
    records = [{"t": format_rational(t), **exact_classification(example_family(t, n=rank))} for t in ts]
    _emit({"rank": rank, "family": records})


@main.command("reflect")
@_kind_option
@_lattice_file_option
@click.option("--delta", required=True, help="Root vector (JSON array or @file).")
@click.option("--x", "x_vec", default=None, help="Optional vector to reflect.")
@_guarded
def reflect_cmd(kind, lattice_file, delta, x_vec):
    """Picard-Lefschetz reflection: matrix, orientation, optional image vector."""
    lattice = _lattice_option(kind, lattice_file)
    d = jsonio.decode_int_vector(_load_arg(delta))
    iso = reflection_matrix(lattice, d)
    doc = {
        "delta": list(d),
        "matrix": [list(r) for r in iso.matrix],
        "determinant": iso.determinant,
        "in_o_plus": _in_o_plus(lattice, iso),
    }
    if x_vec is not None:
        xv = jsonio.decode_rational_vector(_load_arg(x_vec))
        doc["vector"] = jsonio.encode_rational_vector(reflect(lattice, d, xv))
    _emit(doc)


@main.command("isometry-check")
@_kind_option
@_lattice_file_option
@click.option("--matrix", required=True, help="Integer matrix (JSON rows or @file).")
@_guarded
def isometry_check(kind, lattice_file, matrix):
    """Gram preservation, determinant and O+ membership of an integer matrix."""
    lattice = _lattice_option(kind, lattice_file)
    m = jsonio.decode_int_matrix(_load_arg(matrix))
    _emit({"isometry": is_isometry(lattice, m), "determinant": det(m), "in_o_plus": _in_o_plus(lattice, m)})


@main.command("chamber-partition")
@_kind_option
@_lattice_file_option
@click.option("--roots", required=True, help="RootList JSON or array of roots (or @file).")
@click.option("--kappa", required=True, help="Rational vector (JSON array or @file).")
@_guarded
def chamber_partition(kind, lattice_file, roots, kappa):
    """Sign partition of a root set by a chamber representative."""
    lattice = _lattice_option(kind, lattice_file)
    rl = jsonio.rootlist_from_json(_load_arg(roots))
    k = jsonio.decode_rational_vector(_load_arg(kappa))
    part = partition_by_chamber(lattice, rl, k)
    _emit(jsonio.partition_to_json(part))


@main.command("partition-check")
@_kind_option
@_lattice_file_option
@click.option("--plus", required=True, help="Array of plus-roots (or @file).")
@click.option("--depth", default=4, show_default=True)
@_guarded
def partition_check(kind, lattice_file, plus, depth):
    """Check the chamber property on N-combinations up to the given depth."""
    lattice = _lattice_option(kind, lattice_file)
    rows = jsonio.decode_int_matrix(_load_arg(plus))
    result = check_partition_property(lattice, rows, depth=depth)
    _emit(jsonio.partition_check_to_json(result))


if __name__ == "__main__":
    main()
