import json
import os

import pytest
from click.testing import CliRunner

from k3cycles.cli import main

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_ok(*args):
    res = run(*args)
    assert res.exit_code == 0, res.output
    return res.output


BASIS5 = {"ambient": {"gram": [[1, 0], [0, 1]]}, "basis": 5}  # a three-space whose basis is no array


def assert_input_error(res, args):
    assert res.exit_code == 2, (args, res.output)
    assert json.loads(res.output)["code"] == "input", args


GOLDEN_CASES = [
    ("lattice_info_k3.json", ("lattice-info", "--kind", "K3")),
    ("lattice_info_u.json", ("lattice-info", "--kind", "U")),
    ("sweep.json", ("cycle-sweep-example", "--t", "0,1/2,1,3/2,2")),
    ("roots_e8.json", ("roots", "--kind", "E8", "--norm", "2")),
    ("complement_u_e1.json", ("complement", "--kind", "U", "--constraints", '[["1","0"]]')),
    (
        "reflect_e1f1.json",
        (
            "reflect",
            "--kind",
            "K3",
            "--delta",
            "[1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]",
            "--x",
            "[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]",
        ),
    ),
    (
        "partition_e3f3.json",
        (
            "chamber-partition",
            "--kind",
            "K3",
            "--roots",
            "[[0,0,0,0,1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[0,0,0,0,-1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]",
            "--kappa",
            "[0,0,0,0,1,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]",
        ),
    ),
    ("roots_u_bounded.json", ("roots", "--kind", "U", "--norm", "-2", "--bound", "2")),
    (
        "classify_u3_diagonal.json",
        ("cycle-classify", "--input", os.path.join(DATA, "threespace_u3_diagonal.json"), "--kind", "K3", "--samples", "4"),
    ),
    (
        "classify_vprime.json",
        ("cycle-classify", "--input", os.path.join(DATA, "threespace_vprime.json"), "--kind", "K3", "--samples", "4"),
    ),
    (
        "intersect_u3_diagonal.json",
        (
            "cycle-intersect",
            "--input",
            os.path.join(DATA, "threespace_u3_diagonal.json"),
            "--delta",
            "[1,0,0,2,1,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,-1]",
        ),
    ),
    (
        "intersect_v0_diag4.json",
        ("cycle-intersect", "--input", os.path.join(DATA, "threespace_v0_diag4.json"), "--delta", "[1,0,0,0]", "--precision", "64"),
    ),
]


@pytest.mark.parametrize("golden,args", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden_outputs(golden, args):
    with open(os.path.join(GOLDEN, golden), "r", encoding="utf-8") as fh:
        expected = fh.read()
    assert run_ok(*args) == expected
    # byte-identical across runs
    assert run_ok(*args) == expected


def test_sweep_signatures_match_expected():
    doc = json.loads(run_ok("cycle-sweep-example", "--t", "0,1/2,1,3/2,2"))
    sigs = [tuple(rec["hermitian_signature"]) for rec in doc["family"]]
    assert sigs == [(3, 0, 0), (3, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 0)]
    assert all(rec["smooth"] for rec in doc["family"])


def test_lattice_info_k3_values():
    doc = json.loads(run_ok("lattice-info", "--kind", "K3"))
    assert doc["even"] is True
    assert doc["det"] == -1
    assert doc["signature"] == [3, 19, 0]


def test_roots_count():
    doc = json.loads(run_ok("roots", "--kind", "E8", "--norm", "2"))
    assert doc["count"] == 240
    doc_neg = json.loads(run_ok("roots", "--kind", "E8_neg", "--norm", "-2"))
    assert doc_neg["count"] == 240


def test_roots_fractional_norm_is_empty():
    # An even lattice has no vector of norm 3/2: an empty complete list, not an error.
    doc = json.loads(run_ok("roots", "--kind", "E8", "--norm", "3/2"))
    assert (doc["count"], doc["complete"], doc["roots"]) == (0, True, [])


def test_roots_indefinite_is_validation_error():
    res = run("roots", "--kind", "K3", "--norm", "-2")
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert set(doc.keys()) == {"code", "message"}


def test_roots_bounded_with_constraints():
    cons = [[1, 1] + [0] * 20, [0, 0, 1, 1] + [0] * 18]
    doc = json.loads(
        run_ok("roots", "--kind", "K3", "--norm", "-2", "--bound", "1", "--constraints", json.dumps(cons))
    )
    assert doc["complete"] is False and doc["bound"] == 1
    e3f3 = [0, 0, 0, 0, 1, -1] + [0] * 16
    assert e3f3 in doc["roots"]


def test_roots_bounded_over_budget_is_typed():
    # bound 1000 in U is a box of 2001^2 points, over the 2,000,000 budget
    res = run("roots", "--kind", "U", "--norm", "-2", "--bound", "1000")
    assert res.exit_code == 2
    assert json.loads(res.output)["code"] == "budget_exceeded"


def test_lattice_info_diag():
    doc = json.loads(run_ok("lattice-info", "--kind", "diag", "--signs", "1,1,1,-1"))
    assert doc["signature"] == [3, 1, 0]
    assert doc["even"] is False


def test_cycle_classify_diagonal_twistor_false():
    doc = json.loads(
        run_ok(
            "cycle-classify",
            "--input",
            os.path.join(DATA, "threespace_u3_diagonal.json"),
            "--kind",
            "K3",
            "--samples",
            "4",
        )
    )
    assert doc["positive"] and doc["real"]
    assert doc["twistor"]["status"] == "false"
    cert = doc["twistor"]["certificate"]
    assert cert[:2] == [-1, 1] and all(x == 0 for x in cert[2:])
    assert doc["domain"]["status"] == "verified_positive"


def test_cycle_classify_vprime_twistor_true():
    doc = json.loads(
        run_ok(
            "cycle-classify",
            "--input",
            os.path.join(DATA, "threespace_vprime.json"),
            "--kind",
            "K3",
            "--samples",
            "4",
        )
    )
    assert doc["twistor"]["status"] == "true"
    assert doc["twistor"]["certificate"] is None


def test_cycle_classify_without_lattice():
    doc = json.loads(
        run_ok(
            "cycle-classify",
            "--input",
            os.path.join(DATA, "threespace_u3_diagonal.json"),
            "--samples",
            "4",
        )
    )
    assert doc["twistor"]["status"] == "not_applicable"


def test_cycle_intersect_containment_and_points():
    doc = json.loads(
        run_ok(
            "cycle-intersect",
            "--input",
            os.path.join(DATA, "threespace_v0_diag4.json"),
            "--delta",
            "[0,0,0,1]",
        )
    )
    assert doc == {"kind": "containment"}
    doc2 = json.loads(
        run_ok(
            "cycle-intersect",
            "--input",
            os.path.join(DATA, "threespace_v0_diag4.json"),
            "--delta",
            "[1,0,0,0]",
        )
    )
    assert doc2["kind"] == "two_points"
    assert doc2["discriminant"] == {"re": "-1", "im": "0"}


def test_isometry_check():
    ident = [[1 if i == j else 0 for j in range(22)] for i in range(22)]
    doc = json.loads(run_ok("isometry-check", "--kind", "K3", "--matrix", json.dumps(ident)))
    assert doc == {"isometry": True, "determinant": 1, "in_o_plus": True}
    double = [[2 if i == j else 0 for j in range(22)] for i in range(22)]
    doc2 = json.loads(run_ok("isometry-check", "--kind", "K3", "--matrix", json.dumps(double)))
    assert doc2["isometry"] is False and doc2["in_o_plus"] is None


def test_frameless_ambient_reports_null_orientation():
    # U has no positive reference frame: the matrix, determinant and image are still reported.
    doc = json.loads(run_ok("reflect", "--kind", "U", "--delta", "[1,-1]", "--x", "[1,0]"))
    assert doc == {"delta": [1, -1], "matrix": [[0, 1], [1, 0]], "determinant": -1, "in_o_plus": None, "vector": ["0", "1"]}
    doc = json.loads(run_ok("isometry-check", "--kind", "U", "--matrix", "[[1,0],[0,1]]"))
    assert doc == {"isometry": True, "determinant": 1, "in_o_plus": None}


@pytest.mark.parametrize(
    "args",
    [
        ("lattice-info", "--kind", "K3", "--signs", "1,-1"),
        ("lattice-info", "--kind", "diag", "--signs", "1,-1", "--lattice-file", "/nonexistent.json"),
    ],
)
def test_lattice_info_rejects_conflicting_options(args):
    assert_input_error(run(*args), args)


def test_partition_check_cli():
    d1 = [0] * 22
    d1[8] = 1
    d2 = [0] * 22
    d2[9] = 1
    s = [a + b for a, b in zip(d1, d2)]
    doc = json.loads(run_ok("partition-check", "--kind", "K3", "--plus", json.dumps([d1, d2, s])))
    assert doc == {"ok": True, "violation": None}
    doc2 = json.loads(run_ok("partition-check", "--kind", "K3", "--plus", json.dumps([d1, d2])))
    assert doc2["ok"] is False
    assert doc2["violation"]["delta"] == s
    assert doc2["violation"]["coefficients"] == [1, 1]
    for depth in ("0", "-3"):
        res = run("partition-check", "--kind", "K3", "--plus", json.dumps([d1, d2]), "--depth", depth)
        assert res.exit_code == 2
        assert json.loads(res.output)["code"] == "input"


def test_wall_error_exit_code():
    res = run(
        "chamber-partition",
        "--kind",
        "K3",
        "--roots",
        "[[0,0,0,0,1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]",
        "--kappa",
        "[0,0,0,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]",
    )
    assert res.exit_code == 2
    assert json.loads(res.output)["code"] == "wall"


def test_missing_file_is_io_error():
    res = run("cycle-classify", "--input", os.path.join(DATA, "nope.json"))
    assert res.exit_code == 1


def test_undecodable_file_is_input_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff[1]")
    for args in (("complement", "--kind", "U", "--constraints", f"@{path}"), ("cycle-classify", "--input", str(path))):
        assert_input_error(run(*args), args)


def test_custom_lattice_file(tmp_path):
    path = tmp_path / "a2neg.json"
    path.write_text(json.dumps({"gram": [[-2, 1], [1, -2]]}))
    doc = json.loads(run_ok("roots", "--lattice-file", str(path), "--norm", "-2"))
    assert doc["count"] == 6
    info = json.loads(run_ok("lattice-info", "--lattice-file", str(path)))
    assert info["signature"] == [0, 2, 0]
    assert info["det"] == 3
    res = run("roots", "--kind", "U", "--lattice-file", str(path))
    assert res.exit_code == 2  # exactly one lattice source allowed


def test_bounded_roots_of_a_rank_one_lattice(tmp_path):
    # One block, one coordinate: the join's leaf is a 1-tuple, not a scalar.
    path = tmp_path / "a1neg.json"
    path.write_text(json.dumps({"gram": [[-2]]}))
    doc = json.loads(run_ok("roots", "--lattice-file", str(path), "--norm", "-2", "--bound", "1"))
    assert (doc["count"], doc["complete"], doc["bound"], doc["roots"]) == (2, False, 1, [[-1], [1]])


def test_at_file_argument(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text("[1,0,0,0]")
    doc = json.loads(
        run_ok(
            "cycle-intersect",
            "--input",
            os.path.join(DATA, "threespace_v0_diag4.json"),
            "--delta",
            f"@{path}",
        )
    )
    assert doc["kind"] == "two_points"


def test_precision_env_var(monkeypatch):
    monkeypatch.setenv("K3CYCLES_PRECISION", "64")
    doc = json.loads(
        run_ok(
            "cycle-intersect",
            "--input",
            os.path.join(DATA, "threespace_v0_diag4.json"),
            "--delta",
            "[1,0,0,0]",
        )
    )
    assert doc["precision_bits"] == 64


@pytest.mark.parametrize(
    "flags",
    [("--precision", "0"), ("--precision", "-5"), ("--precision", "52"), ("--samples", "0"), ("--samples", "-1")],
)
def test_cycle_classify_rejects_bad_sampler_settings(flags):
    res = run("cycle-classify", "--input", os.path.join(DATA, "threespace_u3_diagonal.json"), *flags)
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert set(doc) == {"code", "message"} and doc["code"] == "input"


def test_precision_env_var_below_minimum(monkeypatch):
    monkeypatch.setenv("K3CYCLES_PRECISION", "24")
    res = run("cycle-intersect", "--input", os.path.join(DATA, "threespace_v0_diag4.json"), "--delta", "[1,0,0,0]")
    assert res.exit_code == 2
    assert json.loads(res.output)["code"] == "input"


def test_precision_env_var_must_be_an_integer(monkeypatch):
    # The variable is the default of --precision, so a non-integer gets
    # click's usage error, exit 2, on both commands, as the flag does.
    data = ("--input", os.path.join(DATA, "threespace_v0_diag4.json"))
    commands = (("cycle-intersect", *data, "--delta", "[1,0,0,0]"), ("cycle-classify", *data))
    flagged = [run(*args, "--precision", "abc") for args in commands]
    monkeypatch.setenv("K3CYCLES_PRECISION", "abc")
    for args, flag in zip(commands, flagged):
        env = run(*args)
        assert flag.exit_code == env.exit_code == 2, args
        assert "is not a valid integer" in env.output, args


def test_roots_must_be_integers():
    kappa = ("--kind", "U", "--kappa", "[1,2]")
    assert json.loads(run_ok("chamber-partition", *kappa, "--roots", '[["1",-1]]'))["plus"] == [[1, -1]]
    for roots in ('[[1.9,-1]]', '[[true,-1]]', '[["1/2",-1]]', '{"roots": [[1,-1]], "complete": 1}', '{"roots": [[1,-1]], "bound": true}'):
        args = ("chamber-partition", *kappa, "--roots", roots)
        assert_input_error(run(*args), args)


def test_row_lists_must_be_arrays(tmp_path):
    path = tmp_path / "basis5.json"
    path.write_text(json.dumps(BASIS5))
    for args in (
        ("isometry-check", "--kind", "U", "--matrix", "5"),
        ("partition-check", "--kind", "U", "--plus", "5"),
        ("cycle-classify", "--input", str(path)),
    ):
        assert_input_error(run(*args), args)


def test_constraints_must_be_an_array():
    assert json.loads(run_ok("complement", "--kind", "U", "--constraints", "[]"))["rank"] == 2
    for command in (("complement",), ("roots", "--norm", "-2", "--bound", "1")):
        for constraints in ("0", "null", "{}", "[[true,false]]"):
            args = (*command, "--kind", "U", "--constraints", constraints)
            assert_input_error(run(*args), args)


def _domain_error_args(tmp):
    """Per command, arguments that end in a domain error."""
    basis5 = tmp / "basis5.json"
    basis5.write_text(json.dumps(BASIS5))
    gram = tmp / "gram.json"
    gram.write_text(json.dumps({"gram": [[True, 0], [0, 1]]}))
    return {
        "chamber-partition": ("--kind", "U", "--roots", "[[1.9,-1]]", "--kappa", "[1,2]"),
        "complement": ("--kind", "U", "--constraints", "0"),
        "cycle-classify": ("--input", str(basis5)),
        "cycle-intersect": ("--input", os.path.join(DATA, "threespace_v0_diag4.json"), "--delta", "[true,0,0,0]"),
        "cycle-sweep-example": ("--t", "0", "--rank", "3"),
        "isometry-check": ("--kind", "U", "--matrix", "5"),
        "lattice-info": ("--lattice-file", str(gram)),
        "partition-check": ("--kind", "U", "--plus", "5"),
        "reflect": ("--kind", "K3", "--delta", json.dumps([True, -1] + [0] * 20)),
        "roots": ("--kind", "U", "--norm", "-2", "--bound", "1", "--constraints", "null"),
    }


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_reports_domain_errors_as_json(command, tmp_path):
    res = run(command, *_domain_error_args(tmp_path)[command])
    assert res.exit_code == 2, res.output
    assert set(json.loads(res.output)) == {"code", "message"}
