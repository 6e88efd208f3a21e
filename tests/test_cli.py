"""Unit tests for the command-line interface: parsing, round-trips,
determinism, and exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from importlib.resources import files
from pathlib import Path

import pytest

import torfan
from torfan import errors
from torfan.cli import COMMANDS, main, parse_fan_document, parse_matrix_document

EXAMPLES = files("torfan") / "examples"


def example(name):
    return str(EXAMPLES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_projective_plane_document():
    fan, P, options = parse_fan_document((EXAMPLES / "p2.json").read_text())
    assert len(fan.edges) == 3 and len(fan.max_cones) == 3
    assert not options


def test_parse_rejects_non_primitive_edge(capsys, tmp_path):
    doc = {
        "rank": 2,
        "edges": [[2, 4], [0, 1], [-1, -1]],
        "max_cones": [[1, 2]],
        "lambdas": ["0", "0", "-1"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 2 and "ValidationError" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "qh", "--input", str(path))
    assert code == 2 and "ParseError" in err


def test_domain_error_exit_code(capsys):
    # Galkin point of a non-compact fan: domain error, exit 1
    code, _, err = run(capsys, "galkin", "--input", example("p2_nlb.json"))
    assert code == 1 and "HalfSpaceFan" in err
    assert err.rstrip().endswith("certificate (-1, 0, -1)")


def test_success_exit_code_and_content(capsys):
    code, out, _ = run(
        capsys, "qh", "--input", example("p2.json"), "--t-symbolic"
    )
    assert code == 0
    assert '"x1*x2*x3 - T^3"' in out and '"dimension": 3' not in out


def test_json_determinism(capsys):
    args = (
        "separate",
        "--input",
        example("p1xp1.json"),
        "--seed",
        "3",
        "--format",
        "json",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 3 and report["results"]["ok"] is True


def test_document_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "linebundle",
        "--input",
        example("p2.json"),
        "--k",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)["results"]["document"]
    fan, P, _ = parse_fan_document(json.dumps(doc))
    code2, out2, _ = run(
        capsys, "sh", "--input", example("p2_nlb.json"), "--format", "json"
    )
    # the emitted total-space document matches the bundle-field route
    assert len(fan.edges) == 4 and fan.rank == 3
    assert json.loads(out2)["results"]["dimension"] == 2


def test_nlb_document_builds_total_space(capsys):
    code, out, _ = run(
        capsys, "validate", "--input", example("p2_nlb.json"), "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0 and results["smooth"] and not results["complete"]
    assert results["notes"] == ["support is a proper subset of the ambient space"]


def test_kato_pole_exponent(capsys):
    # every branch of both Kato examples has a simple pole, including the
    # two branches at the exact double eigenvalue 0 of kato_3x3
    for name in ("kato_upper.json", "kato_3x3.json"):
        code, out, _ = run(capsys, "kato", "--input", example(name), "--format", "json")
        assert code == 0
        branches = json.loads(out)["results"]["branches"]
        assert branches and all(
            b["pole_exponent"] is not None and abs(b["pole_exponent"] + 1) < 0.05
            for b in branches
        ), name


def test_matrix_document_complex_coefficients():
    fam = parse_matrix_document(
        json.dumps({"entries": [[[[0, 1]], [0]], [[0], [1, 2]]]})
    )
    A = fam(0.5)
    assert A[0][0] == 1j and A[1][1] == pytest.approx(2.0)


def test_blowup_command_vertex_counts(capsys):
    code, out, _ = run(
        capsys, "blowup", "--input", example("c3_blowup.json"), "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0
    assert results["vertex_count_before"] == 1
    assert results["vertex_count_after"] == 3


@pytest.mark.parametrize("command", ["separate", "blowup"])
def test_zero_denominator_epsilon_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", example("c3_blowup.json"), "--epsilon", "1/0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--epsilon" in err and "Traceback" not in err


def test_sh_of_affine_space_is_zero(capsys):
    # SH*(C^3) = 0: an empty omega operator, not a traceback
    code, out, _ = run(
        capsys, "sh", "--input", example("c3_blowup.json"), "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0
    assert results["dimension"] == 0
    assert results["kernel_dimension"] == 1
    assert results["omega_eigenvalues"] == []


def test_sh_of_closed_manifold_is_qh(capsys):
    # SH* is QH* localized at the toric divisors x_1⋯x_r; on closed
    # P^1 x P^1 that product is invertible, although omega = c1 has a
    # 2-dimensional 0-eigenspace
    code, out, _ = run(
        capsys, "sh", "--input", example("p1xp1.json"), "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0
    assert results["dimension"] == results["qh_dimension"] == 4
    assert results["kernel_dimension"] == 0
    assert results["charpoly"] == "X^4 - 4*X^2"


def test_mirror_of_affine_blowup_compares_sh(capsys):
    # QH*(C^3) has dimension 1 and Jac(W) dimension 0; the mirror
    # compares Jac(W) with SH* = 0, with or without a bundle field
    code, out, _ = run(
        capsys, "mirror", "--input", example("c3_blowup.json"), "--format", "json"
    )
    results = json.loads(out)["results"]
    assert code == 0 and results["ok"] is True
    assert results["jacobian_dimension"] == results["quantum_dimension"] == 0


P2 = {
    "rank": 2,
    "edges": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[1, 2], [2, 3], [3, 1]],
    "lambdas": ["0", "0", "-1"],
}

MALFORMED = [
    ("mirror", {**P2, "twist": [0.1, 0.2, 0.3]}),
    ("critical", {**P2, "twist": [0.1, 0.2]}),
    ("qh", {**P2, "bundle": {"k": "a"}}),
    ("validate", {**P2, "bundle": {"k": "a"}}),
    ("qh", {**P2, "bundle": {"k": 1.5}}),
    ("qh", {**P2, "bundle": {"k": True}}),
    ("qh", {**P2, "bundle": {"n": [1, 1, 1]}}),
    ("qh", {**P2, "bundle": 1}),
    ("validate", {**P2, "edges": 5}),
    ("validate", {**P2, "edges": [[1, 0], [0, "1"], [-1, -1]]}),
    ("validate", {**P2, "edges": [[1, 0], [0, 1.5], [-1, -1]]}),
    ("qh", {**P2, "edges": [[1, 0], [1, 2], [-1, -1]]}),
    ("validate", {**P2, "max_cones": [[1, "2"], [2, 3], [3, 1]]}),
    ("validate", {**P2, "max_cones": 3}),
    ("validate", {**P2, "lambdas": 0}),
    ("blowup", {**P2, "blowup": {"I": ["1", "2"]}}),
    ("blowup", {**P2, "blowup": {"I": 1}}),
    ("blowup", {**P2, "blowup": [1, 2]}),
    ("mirror", {"rank": 0, "edges": [], "max_cones": [], "lambdas": []}),
    ("critical", {"rank": 0, "edges": [], "max_cones": [], "lambdas": []}),
    ("critical", {"rank": 2, "edges": [], "max_cones": [], "lambdas": []}),
    ("qh", {**P2, "rank": "2"}),
    ("kato", {"entries": [[[float("nan")], [0]], [[0], [1]]]}),
    ("kato", {"entries": [[[[0, float("inf")]], [0]], [[0], [1]]]}),
    ("kato", {"entries": [[["a", 0]], [[0], [1]]]}),
    ("kato", {"entries": [1]}),
    ("kato", {"entries": 1}),
    (
        "validate",
        {
            "rank": 2,
            "edges": [[-5, -4], [-5, -2], [1, -3], [-1, 2]],
            "max_cones": [[1, 3], [2, 4], [3, 1], [4, 2]],
            "lambdas": ["-1"] * 4,
        },
    ),
]


@pytest.mark.parametrize("cmd,doc", MALFORMED)
def test_malformed_document_exits_2_with_named_error(capsys, tmp_path, cmd, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, cmd, "--input", str(path))
    name = err.strip().splitlines()[-1].split(":")[0]
    assert code == 2
    assert issubclass(getattr(errors, name), errors.TorfanError)
    assert "Traceback" not in err


def test_overlapping_cones_exit_1(capsys, tmp_path):
    # the pentagram: five rays, each cone joins a ray to the next but one
    doc = {
        "rank": 2,
        "edges": [[1, 0], [1, 2], [-1, 1], [-1, -1], [1, -2]],
        "max_cones": [[1, 3], [3, 5], [5, 2], [2, 4], [4, 1]],
        "lambdas": ["-1"] * 5,
    }
    path = tmp_path / "pentagram.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--input", str(path))
    assert code == 1
    assert err.strip().splitlines()[-1].startswith("OverlappingCones")
    assert "Traceback" not in err


FRACTIONAL_SUPPORT = [
    ({**P2, "lambdas": ["1/2", 0, -1]}, 3),
    (
        {
            "rank": 2,
            "edges": [[1, 0], [-1, 0], [0, 1], [0, -1]],
            "max_cones": [[1, 3], [1, 4], [2, 3], [2, 4]],
            "lambdas": ["1/3", -1, 0, -1],
        },
        4,
    ),
]


@pytest.mark.parametrize("doc,count", FRACTIONAL_SUPPORT)
def test_fractional_support_numbers_run_at_t_equal_one(capsys, tmp_path, doc, count):
    # W is taken at t = 1, so a support number that is not an integer
    # leaves every coefficient 1
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "critical", "--input", str(path), "--format", "json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["results"]["count"] == count
    code, out, err = run(capsys, "mirror", "--input", str(path), "--format", "json")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["results"]["ok"]


def test_critical_is_not_morse_when_points_are_missing(capsys, tmp_path):
    # dim Jac(W) = 52 here, but the eigenvector step finds fewer points
    # (and numpy overflows on the way): the count falls short of the
    # dimension, so W is not reported Morse
    doc = {"rank": 2, "edges": [[1, 0], [0, 1], [-1, -50]],
           "max_cones": [[1, 2], [2, 3], [3, 1]], "lambdas": ["0", "0", "-1"]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(RuntimeWarning):
        code, out, _ = run(capsys, "critical", "--input", str(path), "--format", "json")
    results = json.loads(out)["results"]
    assert code == 0 and results["count"] < 52 and results["morse"] is False


# Runs the CLI with every import of sympy failing: sys.modules["sympy"]
# = None makes "import sympy" raise ImportError.
_WITHOUT_SYMPY = (
    "import sys; sys.modules['sympy'] = None; "
    "from torfan.cli import main; sys.exit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "cmd,doc",
    [
        ("kato", "kato_upper.json"),
        ("kato", "kato_3x3.json"),
        ("qh", "p2_nlb.json"),
        ("sh", "p2_nlb.json"),
        ("mirror", "p2_nlb.json"),
        ("separate", "p2_nlb.json"),
    ],
)
def test_cli_commands_run_without_sympy(capsys, cmd, doc):
    argv = [cmd, "--input", example(doc), "--format", "json"]
    env = dict(os.environ)
    src = str(Path(torfan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    blocked = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY, *argv], env=env, capture_output=True, text=True
    )
    code, out, err = run(capsys, *argv)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (code, out, err)
    assert code == 0


def _torfan_errors():
    """Every TorfanError subclass by name."""
    found, todo = {}, [errors.TorfanError]
    while todo:
        cls = todo.pop()
        found[cls.__name__] = cls
        todo.extend(cls.__subclasses__())
    return found


def test_every_command_on_every_example_ends_in_a_report_or_a_named_error(capsys):
    """Each fan command on each shipped fan document, and kato on each
    matrix document: exit 0 with a JSON report, or exit 1 (domain) or 2
    (parse or validation) with a named TorfanError, and nothing else."""
    named = _torfan_errors()
    statuses = Counter()
    for path in sorted(Path(str(EXAMPLES)).glob("*.json")):
        if path.name == "schema.json":
            continue
        commands = ["kato"] if path.name.startswith("kato") else [c for c in COMMANDS if c != "kato"]
        for cmd in commands:
            code, out, err = run(capsys, cmd, "--input", str(path), "--format", "json")
            statuses[code] += 1
            where = f"{cmd} {path.name}"
            if code == 0:
                assert set(json.loads(out)) == {"command", "seed", "results"}, where
                continue
            assert code in (1, 2) and not out, where
            cls = named[err.split(":")[0]]
            documented = issubclass(cls, (errors.ParseError, errors.ValidationError))
            assert code == (2 if documented else 1), where
    assert statuses == {0: 80, 1: 7, 2: 15}


MALFORMED_CORPUS = sorted((Path(__file__).parent / "malformed").glob("*.json"))


@pytest.mark.parametrize("path", MALFORMED_CORPUS, ids=lambda p: p.stem)
def test_every_command_on_the_malformed_corpus_ends_in_a_report_or_a_named_error(capsys, path):
    """tests/malformed holds documents that are not JSON, of the wrong
    shape, out of range or outside float range: every command on each
    ends in a report or a named TorfanError, never a traceback."""
    named = _torfan_errors()
    for cmd in COMMANDS:
        code, out, err = run(capsys, cmd, "--input", str(path), "--format", "json")
        where = f"{cmd} {path.name}"
        assert "Traceback" not in err, where
        if code == 0:
            assert set(json.loads(out)) == {"command", "seed", "results"}, where
            continue
        assert code in (1, 2) and not out, where
        cls = named[err.split(":")[0]]
        documented = issubclass(cls, (errors.ParseError, errors.ValidationError))
        assert code == (2 if documented else 1), where


@pytest.mark.parametrize(
    "name,entry",
    [("lambda_overflow", "lambdas[0]: '1e400'"), ("edge_overflow", "edges[2][1]: -1000")],
)
@pytest.mark.parametrize("cmd", ["qh", "sh", "separate", "galkin", "critical"])
def test_numbers_outside_float_range_are_parse_errors(capsys, name, entry, cmd):
    path = Path(__file__).parent / "malformed" / f"{name}.json"
    code, out, err = run(capsys, cmd, "--input", str(path))
    assert code == 2 and not out
    assert err.startswith(f"ParseError: {entry}") and "outside the range of a float" in err
