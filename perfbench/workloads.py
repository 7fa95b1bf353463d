"""The four workloads: seeded inputs, the operation each one times, and the
glue that hands the program's result to the independent checks.

Every workload is a fixed list of items (one "round").  `make_items` builds
the list from the seed with the benchmark's own arithmetic; `prepare` decodes
it into program objects (both are part of set-up); `run` is the timed call
into k3cycles; `expect` derives the check values apart from the program and
`check` compares.  Program functions are reached through their modules at call
time, so the wrappers that trace.py installs see the top-level calls too.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import checks
import lattice as L

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = {
    "u3_diagonal": os.path.join(ROOT, "tests", "data", "threespace_u3_diagonal.json"),
    "vprime": os.path.join(ROOT, "tests", "data", "threespace_vprime.json"),
}

# Round sizes; README.md gives the make-up and per-operation costs.
TWISTOR_REFLECTIONS = 8  # each reflection gives an image of both fixtures
REFLECT_ROOTS = 16
DOMAIN_INPUTS = 16
DOMAIN_SAMPLES = 256
DOMAIN_PRECISION = 128


def _encode_rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _threespace_json(gram, rows):
    """Three-space JSON as `cycle-classify --input` reads it; rows hold (re, im)."""
    return {
        "ambient": {"gram": [[_encode_rational(x) for x in row] for row in gram]},
        "basis": [[{"re": _encode_rational(re), "im": _encode_rational(im)} for re, im in row] for row in rows],
    }


def _load_fixture(name):
    with open(FIXTURES[name]) as fh:
        obj = json.load(fh)
    gram = tuple(tuple(int(Fraction(x)) for x in row) for row in obj["ambient"]["gram"])
    if gram != L.K3:
        raise ValueError(f"fixture {name} does not live in the K3 lattice")
    rows = []
    for row in obj["basis"]:
        if any(Fraction(x["im"]) != 0 for x in row):
            raise ValueError(f"fixture {name} is expected to be real")
        rows.append(tuple(Fraction(x["re"]) for x in row))
    return obj, rows


def _k3_lattice(k):
    return k.quadspace.make_standard_lattice("K3")


# ---------------------------------------------------------------------------
# twistor: classify_cycle(V, lattice=K3) on K3 three-spaces


class Twistor:
    name = "twistor"

    @staticmethod
    def make_items(rng):
        u3_json, u3_rows = _load_fixture("u3_diagonal")
        vp_json, vp_rows = _load_fixture("vprime")
        for b, row in enumerate(u3_rows):
            want = [0] * L.N
            want[2 * b] = want[2 * b + 1] = 1
            if list(row) != want:
                raise ValueError("u3_diagonal fixture is not span(e_i + f_i)")
        e8_box_roots = L.box_norm_table()[2]
        items = [
            {"name": "u3_diagonal", "base": "u3_diagonal", "root": None, "json": u3_json},
            {"name": "vprime", "base": "vprime", "root": None, "json": vp_json},
        ]
        for j in range(TWISTOR_REFLECTIONS):
            # d = +-e_i or +-f_i plus an E8(-1) root with coordinates in [-1, 1]:
            # the hyperbolic part is isotropic, so norm(d) = -2.
            d = [0] * L.N
            d[2 * rng.randrange(3) + rng.randrange(2)] = rng.choice((1, -1))
            off = rng.choice(L.E8_OFFSETS)
            d[off : off + 8] = rng.choice(e8_box_roots)
            d = tuple(d)
            for base, rows in (("u3_diagonal", u3_rows), ("vprime", vp_rows)):
                image = [L.reflect(d, v) for v in rows]
                items.append(
                    {
                        "name": f"{base}@s{j}",
                        "base": base,
                        "root": d,
                        "json": _threespace_json(L.K3, [[(x, 0) for x in v] for v in image]),
                    }
                )
        return items

    @staticmethod
    def prepare(k, items):
        for it in items:
            k.jsonio.threespace_from_json(it["json"])  # the generated JSON decodes
        return {"K3": _k3_lattice(k), "args": [None] * len(items)}

    @staticmethod
    def run(k, ctx, item, arg):
        v = k.jsonio.threespace_from_json(item["json"])
        return k.jsonio.classification_to_json(k.cyclespace.classify_cycle(v, lattice=ctx["K3"]))

    @staticmethod
    def expect(cache, item):
        if item["base"] == "vprime":
            return {"certificate": None}
        if "u3_roots" not in cache:
            cache["u3_roots"] = L.u3_diagonal_roots()
        roots = cache["u3_roots"]
        if item["root"] is not None:
            roots = [L.reflect(item["root"], r) for r in roots]
        return {"certificate": min(roots)}

    @staticmethod
    def check(item, expected, result):
        return checks.check_twistor(expected, result)


# ---------------------------------------------------------------------------
# reflect: the Weyl action, one operation per seeded root


def _reflect_root(rng):
    """E8(-1) parts with coordinates in [-1, 1], hyperbolic part solved for
    norm -2: with U^3 part sum a_i e_i + b_i f_i the norm is
    2 sum a_i b_i - E8(x) - E8(y), so a_1 = 1 and b_1 absorbs the rest."""
    x = tuple(rng.randint(-1, 1) for _ in range(8))
    y = tuple(rng.randint(-1, 1) for _ in range(8))
    k = (L.e8_norm(x) + L.e8_norm(y) - 2) // 2
    blocks = [0, 1, 2]
    rng.shuffle(blocks)
    u = [0] * 6
    rest = 0
    for b in blocks[1:]:
        a, c = rng.randint(-1, 1), rng.randint(-1, 1)
        u[2 * b], u[2 * b + 1] = a, c
        rest += a * c
    u[2 * blocks[0]], u[2 * blocks[0] + 1] = 1, k - rest
    d = tuple(u) + x + y
    if L.norm(d) != -2:
        raise AssertionError("root generator produced a vector of norm != -2")
    return d


class Reflect:
    name = "reflect"

    @staticmethod
    def make_items(rng):
        u3_rows = []
        for b in range(3):
            v = [0] * L.N
            v[2 * b] = v[2 * b + 1] = 1
            u3_rows.append(tuple(v))
        return [{"root": _reflect_root(rng), "threespace_rows": u3_rows} for _ in range(REFLECT_ROOTS)]

    @staticmethod
    def prepare(k, items):
        K3 = _k3_lattice(k)
        gr = k.gaussrat.GaussRational
        u3 = k.cyclespace.ThreeSpace(
            ambient=K3.space, basis=tuple(tuple(gr.of(x) for x in row) for row in items[0]["threespace_rows"])
        )
        return {"K3": K3, "u3": u3, "args": [None] * len(items)}

    @staticmethod
    def run(k, ctx, item, arg):
        K3, d = ctx["K3"], item["root"]
        weyl = k.weyl
        r = weyl.reflection_matrix(K3, d)
        square = k.linalg.mat_mul(r.matrix, r.matrix)
        sub = k.rootenum.orthogonal_complement_lattice(K3, [d])
        moved = [weyl.reflect(K3, d, row) for row in sub.basis]
        minus_d = weyl.reflect(K3, d, d)
        o_plus = weyl.is_in_O_plus(K3, r)
        image = k.cyclespace.apply_isometry(r, ctx["u3"])
        return {
            "matrix": r.matrix,
            "square": square,
            "complement": sub.basis,
            "reflected_rows": moved,
            "reflected_d": minus_d,
            "o_plus": o_plus,
            "image_rows": [[(x.re, x.im) for x in row] for row in image.basis],
        }

    @staticmethod
    def expect(cache, item):
        return None

    @staticmethod
    def check(item, expected, result):
        return checks.check_reflect(item, result)


# ---------------------------------------------------------------------------
# domain: classify_cycle with no lattice on example_family(t), t in (1, 3]


def _gl3_gauss(rng):
    """A seeded matrix of GL3(Z[i]) with entries in [-2,2] + i[-2,2]."""
    while True:
        m = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        if L.gdet3(m) in L.GAUSS_UNITS:
            return m


class Domain:
    name = "domain"

    @staticmethod
    def make_items(rng):
        n = L.N
        gram = [[(1 if i < 3 else -1) if i == j else 0 for j in range(n)] for i in range(n)]
        items = []
        for _ in range(DOMAIN_INPUTS):
            t = 1 + Fraction(rng.randint(1, 64), 32)
            # V_t = C(e1 + i t e4) + C e2 + C e3, as (re, im) pairs
            base = [[(0, 0)] * n for _ in range(3)]
            base[0][0], base[0][3] = (1, 0), (0, t)
            base[1][1] = (1, 0)
            base[2][2] = (1, 0)
            m = _gl3_gauss(rng)
            rows = []
            for i in range(3):
                row = []
                for c in range(n):
                    acc = (0, 0)
                    for j in range(3):
                        acc = L.gadd(acc, L.gmul(m[i][j], base[j][c]))
                    row.append(acc)
                rows.append(row)
            items.append(
                {
                    "t": _encode_rational(t),
                    "basis_change": m,
                    "json": _threespace_json(gram, rows),
                    "samples": DOMAIN_SAMPLES,
                    "precision": DOMAIN_PRECISION,
                }
            )
        return items

    @staticmethod
    def prepare(k, items):
        for it in items:
            k.jsonio.threespace_from_json(it["json"])
        return {"args": [None] * len(items)}

    @staticmethod
    def run(k, ctx, item, arg):
        v = k.jsonio.threespace_from_json(item["json"])
        c = k.cyclespace.classify_cycle(v, samples=item["samples"], precision=item["precision"])
        return k.jsonio.classification_to_json(c)

    @staticmethod
    def expect(cache, item):
        return None

    @staticmethod
    def check(item, expected, result):
        return checks.check_domain(item, result)


# ---------------------------------------------------------------------------
# chamber: bounded Delta_p and chamber partitions of complete root systems

# Simple roots of E8 in chain coordinates: -b1, b2, ..., b8.  Dynkin edges
# 0-1, 1-3, 2-3, 3-4, 4-5, 5-6, 6-7 (branch node 3, arms 2, 1, 4).
E8_SIMPLE = tuple(tuple((-1 if (i == 0 and j == 0) else int(i == j)) for j in range(8)) for i in range(8))
# Dynkin sub-diagrams by type, as node sets; the seed picks among the listed
# embeddings (one each here) and the E8(-1) block.
SUBDIAGRAMS = {
    "E7": ((0, 1, 2, 3, 4, 5, 6),),
    "E6": ((0, 1, 2, 3, 4, 5),),
    "D6": ((1, 2, 3, 4, 5, 6),),
    "D5": ((1, 2, 3, 4, 5),),
}
# Depth of each partition check.  With A1^3 added, E7 has 66 plus-roots and
# E6 39, checked to depth 2; D6 has 33 and D5 23, checked to depth 3.  Every
# unflipped check takes under 0.7 s, so that each operation repeats often
# within a run (README.md).
DEPTHS = {"E7": 2, "E6": 2, "D6": 3, "D5": 3}
# One round in order: partition items as (type, flipped) and the Delta_p
# point.  A cheap item comes first: it is the warm-up, and smoke mode runs the
# first two.  With eight items, op_p50_ms is the mean of the unflipped E6 and
# D5 checks rather than the time of one short item.
CHAMBER_ROUND = (("E6", True), "delta_p", ("E7", False), ("D5", True), ("D6", False),
                 ("E6", False), ("D5", False), ("D6", True))


def _positive_closure(simple):
    pos = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for b in frontier:
            for a in simple:
                c = tuple(x + y for x, y in zip(a, b))
                if c not in pos and L.e8_norm(c) == 2:
                    pos.add(c)
                    nxt.append(c)
        frontier = nxt
    return pos


def _root_system(rng, kind):
    """All roots of A1^3 + R in K3, with R the roots of a seeded embedding of
    the sub-diagram `kind` in a seeded E8(-1) block.

    The roots of an ADE root lattice are its norm 2 vectors, and a norm -2
    vector of an orthogonal sum of negative definite lattices lies in one
    summand, so the list is every root of the sublattice it spans: a complete
    root system, orthogonal to the positive three-space span(e_i + f_i)."""
    simple = [E8_SIMPLE[i] for i in rng.choice(SUBDIAGRAMS[kind])]
    off = rng.choice(L.E8_OFFSETS)
    roots = []
    for r in _positive_closure(simple):
        roots.append(L.embed(r, off))
        roots.append(L.embed(tuple(-x for x in r), off))
    for b in range(3):
        for s in (1, -1):
            v = [0] * L.N
            v[2 * b], v[2 * b + 1] = s, -s
            roots.append(tuple(v))
    return sorted(roots), off


def _kappa(rng, roots, off):
    """Seeded positive kappa off every wall of the root system."""
    while True:
        v = [0] * L.N
        for b in range(3):
            a = rng.randint(100, 200)
            v[2 * b], v[2 * b + 1] = a, a + rng.randint(1, 50)
        for j in range(8):
            v[off + j] = rng.randint(-50, 50)
        v = tuple(v)
        if L.norm(v) > 0 and all(L.pair(v, r) != 0 for r in roots):
            return v


def _flip_choice(rng, roots, kappa):
    """A seeded non-simple root of the kappa-positive system."""
    plus = [r for r in roots if L.pair(kappa, r) > 0]
    members = set(plus)
    non_simple = [
        r for r in plus if any(tuple(x - y for x, y in zip(r, s)) in members for s in plus if s != r)
    ]
    return rng.choice(non_simple)


def _flipped(plus, flip):
    """The plus list with `flip` negated and moved to the front, so that the
    scan meets the violation it causes within the first row of combinations."""
    plus = list(plus)
    if flip is not None:
        plus.remove(flip)
        plus.insert(0, tuple(-x for x in flip))
    return plus


class Chamber:
    name = "chamber"

    @staticmethod
    def make_items(rng):
        i, j = rng.sample(range(3), 2)
        re, im = [0] * L.N, [0] * L.N
        s, t = rng.choice((1, -1)), rng.choice((1, -1))
        re[2 * i] = re[2 * i + 1] = s
        im[2 * j] = im[2 * j + 1] = t
        point = {"kind": "delta_p", "re": tuple(re), "im": tuple(im), "bound": 1}
        items = []
        for slot in CHAMBER_ROUND:
            if slot == "delta_p":
                items.append(point)
                continue
            kind, flipped = slot
            roots, off = _root_system(rng, kind)
            kappa = _kappa(rng, roots, off)
            flip = _flip_choice(rng, roots, kappa) if flipped else None
            items.append(
                {"kind": "partition", "system": kind, "roots": roots, "kappa": kappa, "depth": DEPTHS[kind], "flip": flip}
            )
        return items

    @staticmethod
    def prepare(k, items):
        K3 = _k3_lattice(k)
        gr = k.gaussrat.GaussRational
        args = []
        for it in items:
            point = None
            if it["kind"] == "delta_p":
                point = k.weyl.PeriodPoint(K3.space, tuple(gr(a, b) for a, b in zip(it["re"], it["im"])))
            args.append(point)
        return {"K3": K3, "args": args}

    @staticmethod
    def run(k, ctx, item, arg):
        K3 = ctx["K3"]
        if item["kind"] == "delta_p":
            rl = k.weyl.delta_p_bounded(K3, arg, item["bound"])
            return {"roots": rl.roots, "complete": rl.complete, "bound": rl.bound_used}
        part = k.weyl.partition_by_chamber(K3, item["roots"], item["kappa"])
        plus = _flipped(part.plus, item["flip"])
        chk = k.weyl.check_partition_property(K3, plus, item["depth"])
        return {"plus": part.plus, "minus": part.minus, "ok": chk.ok, "violation": chk.violation}

    @staticmethod
    def expect(cache, item):
        if item["kind"] == "delta_p":
            if "box" not in cache:
                cache["box"] = L.box_norm_table()
            return {"roots": L.delta_p_closed_form(item["re"], item["im"], cache["box"])}
        if item["flip"] is None:
            return {"violation": None}
        plus = [r for r in item["roots"] if L.pair(item["kappa"], r) > 0]
        return {"violation": L.first_violation(_flipped(plus, item["flip"]), item["depth"])}

    @staticmethod
    def check(item, expected, result):
        if item["kind"] == "delta_p":
            return checks.check_delta_p(expected, result)
        return checks.check_chamber(item, expected, result)


WORKLOADS = {w.name: w for w in (Twistor, Reflect, Domain, Chamber)}
