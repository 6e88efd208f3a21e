"""Unit tests for the command-line interface: parsing, round-trips,
determinism, and exit codes."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

import torfan
from torfan import errors, perturbation
from torfan.cli import COMMANDS, main, parse_fan_document, parse_matrix_document
from torfan.exact_algebra import inverse, mat_mul
from torfan.superpotential import perturb_and_separate

EXAMPLES = files("torfan") / "examples"


def example(name):
    return str(EXAMPLES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    the CLI in a child process."""
    env = dict(os.environ)
    src = str(Path(torfan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


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


@pytest.mark.parametrize("name", ["kato_upper.json", "kato_3x3.json"])
def test_kato_examples_make_no_contour_call(capsys, monkeypatch, name):
    # total projections and pole exponents come from the eigen-decomposition
    calls = []
    project = perturbation.eigenprojection

    def counting(*args, **kwargs):
        calls.append(args[1])
        return project(*args, **kwargs)

    monkeypatch.setattr(perturbation, "eigenprojection", counting)
    code, _, _ = run(capsys, "kato", "--input", example(name), "--format", "json")
    assert code == 0
    assert calls == []


def _kato(capsys, tmp_path, entries):
    """Write a matrix document with these entries, run `kato --format json`
    on it, and return the exit code and the results; nothing may reach
    stderr."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, "kato", "--input", str(path), "--format", "json")
    assert not err, err
    return code, json.loads(out)["results"]


def test_kato_reports_a_cluster_the_contour_cannot_resolve(capsys, tmp_path):
    # [[x^2, 1], [0, 0]]: near x = 3e-6 the gap x^2 is ~1e-11, so every
    # node of the cluster circle lies within 1e-12 of the spectrum
    code, results = _kato(capsys, tmp_path, [[[0, 0, 1], [1]], [[0], [0]]])
    assert code == 0
    branches = results["branches"]
    assert len(branches) == 2
    assert all(b["pole_exponent"] is None for b in branches)


def test_kato_reports_a_cluster_the_contour_leaves_unprojected(capsys, tmp_path):
    # kato_3x3.json's family beside a 1 x 1 block (3), conjugated by a
    # unimodular S: at some branch the contour's projection is not
    # idempotent: that branch has no pole exponent, and the report goes on
    A0 = [[14, 12, 36, -20], [5, 3, 12, -8], [4, 6, 12, -4], [20, 21, 54, -26]]
    A1 = [[16, 14, 40, -22], [16, 14, 40, -22], [-16, -14, -40, 22], [-8, -7, -20, 11]]
    entries = [[[A0[i][j], A1[i][j]] for j in range(4)] for i in range(4)]
    code, results = _kato(capsys, tmp_path, entries)
    assert code == 0
    assert len(results["branches"]) == 4
    assert any(b["pole_exponent"] is None for b in results["branches"])


def test_kato_on_the_swap_family_converges(capsys, tmp_path):
    # x [[0, 1], [1, 0]] has the constant eigenvectors (1, +-1), and every
    # line of C^2 is invariant under A(0) = 0
    code, results = _kato(capsys, tmp_path, [[[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    assert code == 0 and results["gevec_ok"] is True
    assert [c["final_distance"] for c in results["gevec_clusters"]] == [0.0, 0.0]


def test_kato_on_a_puiseux_pair_converges(capsys, tmp_path):
    # [[0, 1], [x, 0]] has eigenvalues +-sqrt(x) and eigenlines (1, +-sqrt(x)),
    # whose gap closes like sqrt(x): one cluster of two
    code, results = _kato(capsys, tmp_path, [[[0], [1]], [[0, 1], [0]]])
    assert code == 0 and results["gevec_ok"] is True
    assert [c["size"] for c in results["gevec_clusters"]] == [2]


def test_kato_on_a_constant_triple_eigenspace_converges(capsys, tmp_path):
    # the eigenvalue x is triple, its eigenspace (2 - x)(v0 + 12 v1 + 25 v2
    # - 9 v3) = 0 is the same at every x, and eig's basis of it is not:
    # aligned onto the previous point's lines, the four lines are constant
    entries = [
        [[2], [24, -12], [50, -25], [-18, 9]],
        [[0], [0, 1], [0], [0]],
        [[0], [0], [0, 1], [0]],
        [[0], [0], [0], [0, 1]],
    ]
    code, results = _kato(capsys, tmp_path, entries)
    assert code == 0 and results["gevec_ok"] is True
    assert [c["size"] for c in results["gevec_clusters"]] == [1, 1, 1, 1]


def test_kato_warns_when_branches_meet_at_the_ray_end(capsys, tmp_path):
    # [[x^2, 1], [0, 0]]: the eigenvectors (1, 0) and (1, -x^2) are
    # dependent to 1e-8 from x = 1e-4 on, the ray's last ten points
    code, results = _kato(capsys, tmp_path, [[[0, 0, 1], [1]], [[0], [0]]])
    assert code == 0 and "gevec_ok" not in results
    assert results["gevec_warning"].startswith("ClusterAmbiguous: ")
    assert "fewer than six" in results["gevec_warning"]


def test_kato_reads_the_primary_components_of_a_float_rounded_a0(capsys, tmp_path):
    # S diag(x, x, 1, 2) S^-1 in floats: A(0)'s entries such as 1/11 are
    # rounded, and read as exact they split the double eigenvalue 0 into
    # an exact 0 and a root near 1e-15 of an irreducible cubic.  The
    # primary components of X and of the cubic add up to 4, so gevec
    # reports: one line at 0 lies in the cubic's component, where it is
    # not invariant under A(0) - c, c the mean of the cubic's roots
    S = [[-2, 1, 3, 3], [3, -3, -1, -3], [0, 3, 0, 0], [2, 0, 3, -2]]
    S = [[Fraction(v) for v in row] for row in S]

    def conjugate(values):
        D = [[Fraction(v * (i == j)) for j in range(4)] for i, v in enumerate(values)]
        return mat_mul(mat_mul(S, D), inverse(S))

    A0, A1 = conjugate([0, 0, 1, 2]), conjugate([1, 1, 0, 0])
    entries = [[[float(A0[i][j]), float(A1[i][j])] for j in range(4)] for i in range(4)]
    code, results = _kato(capsys, tmp_path, entries)
    assert code == 0 and "gevec_warning" not in results
    assert results["gevec_ok"] is False
    clusters = results["gevec_clusters"]
    assert [c["size"] for c in clusters] == [1, 1, 1, 1]
    assert sum(abs(c["final_distance"] - 0.47) < 0.01 for c in clusters) == 1


def test_kato_at_defective_irrational_eigenvalues(capsys, tmp_path):
    # the companion matrix of (X^2 - 2)^2 plus x A_1, A_1 from
    # random.Random(1): a Jordan block at each of +-sqrt(2), which eig
    # spreads by about sqrt(eps); the primary component of X^2 - 2 is exact
    A0 = [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]
    rng = random.Random(1)
    A1 = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
    entries = [[[A0[i][j], A1[i][j]] for j in range(4)] for i in range(4)]
    code, results = _kato(capsys, tmp_path, entries)
    assert code == 0 and "gevec_warning" not in results
    assert results["gevec_ok"] is True


def test_kato_on_an_empty_family_is_a_validation_error(capsys):
    path = Path(__file__).parent / "malformed" / "kato_empty.json"
    code, out, err = run(capsys, "kato", "--input", str(path))
    assert code == 2 and not out
    assert err == "ValidationError: matrix family needs at least one row\n"


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


def test_blowup_of_a_ray_is_not_a_face(capsys, tmp_path):
    # the maximal cones of P^1 are rays: no face blow-up, no duplicated edge
    doc = {
        "rank": 1,
        "edges": [[1], [-1]],
        "max_cones": [[1], [2]],
        "lambdas": [-1, -1],
        "blowup": {"I": [1], "epsilon": "1/2"},
    }
    path = tmp_path / "p1_blowup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "blowup", "--input", str(path))
    assert code == 1 and not out and err.startswith("NotAFace:")


def test_chop_too_deep_names_the_vertex_in_rationals(capsys, tmp_path):
    # chopping the corner of P^2 at depth 100 removes the vertex (0, 1)
    doc = {
        "rank": 2,
        "edges": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[1, 2], [2, 3], [3, 1]],
        "lambdas": [0, 0, -1],
        "blowup": {"I": [1, 2], "epsilon": 100},
    }
    path = tmp_path / "deep_chop.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "blowup", "--input", str(path))
    assert code == 1 and not out
    assert err == "ChopTooDeep: vertex (0, 1) away from the chopped face is removed\n"


def _p1xp1_blowup(tmp_path, I):
    doc = json.loads((EXAMPLES / "p1xp1.json").read_text())
    doc["blowup"] = {"I": I}
    path = tmp_path / "p1xp1_blowup.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_chop_onto_a_vertex_exits_1(capsys, tmp_path):
    # the monotone depth 1 at the corner of the unit square reaches the
    # vertices (1, 0) and (0, 1): a triangle, not the pentagon
    code, out, err = run(capsys, "blowup", "--input", _p1xp1_blowup(tmp_path, [1, 3]))
    assert code == 1 and not out
    assert err == "ChopTooDeep: vertex (0, 1) away from the chopped face is on the new facet\n"


def test_not_a_face_names_the_edges(capsys, tmp_path):
    # the document's 1-based indices 1 and 2 are the opposite edges (1, 0)
    # and (-1, 0)
    code, out, err = run(capsys, "blowup", "--input", _p1xp1_blowup(tmp_path, [1, 2]))
    assert code == 1 and not out
    assert err == "NotAFace: edges (1, 0), (-1, 0) span no cone of the fan\n"


def test_blowup_index_out_of_range_is_a_validation_error(capsys):
    path = Path(__file__).parent / "malformed" / "blowup_index_out_of_range.json"
    code, out, err = run(capsys, "blowup", "--input", str(path))
    assert code == 2 and not out
    assert err == "ValidationError: blowup index 9 out of range\n"


@pytest.mark.parametrize("command", ["separate", "blowup"])
def test_zero_denominator_epsilon_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", example("c3_blowup.json"), "--epsilon", "1/0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--epsilon" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "epsilon, message",
    [
        ("1e300", "radius 1e+300 sends a coefficient out of range"),  # e^-lambda' overflows
        ("40", "radius 40 sends a coefficient out of range"),  # e^-lambda' rounds to 0
        ("-5", "radius -5 is negative"),
    ],
)
def test_separate_radius_out_of_range_is_a_validation_error(capsys, epsilon, message):
    code, out, err = run(
        capsys, "separate", "--input", example("p1xp1_nlb.json"), f"--epsilon={epsilon}"
    )
    assert code == 2 and not out
    assert err.startswith("ValidationError: perturbation ") and message in err


def test_separate_radius_beyond_the_floats_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["separate", "--input", example("p1xp1_nlb.json"), "--epsilon=1e400"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "'1e400' is outside the range of a float" in err and "Traceback" not in err


def test_perturb_and_separate_beyond_the_floats_is_a_validation_error():
    _, P, _ = parse_fan_document((EXAMPLES / "p2.json").read_text())
    with pytest.raises(errors.ValidationError) as exc:
        perturb_and_separate(P, 0, radius=Fraction(10 ** 400))
    assert str(exc.value) == "perturbation radius is outside the range of a float"


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


FAN_DOCUMENTS = sorted(
    p.name for p in EXAMPLES.iterdir()
    if p.name.endswith(".json") and p.name != "schema.json" and not p.name.startswith("kato")
)


@pytest.mark.parametrize("name", FAN_DOCUMENTS, ids=lambda n: n.removesuffix(".json"))
def test_mirror_of_every_shipped_fan_document(capsys, name):
    # Jac(W) is isomorphic to SH*, QH* localized at the toric divisors;
    # for C^3 (c3_blowup.json) QH* has dimension 1 and both sides are 0
    code, out, _ = run(capsys, "mirror", "--input", example(name), "--format", "json")
    results = json.loads(out)["results"]
    assert code == 0 and results["ok"] is True
    assert results["jacobian_dimension"] == results["quantum_dimension"]
    if name == "c3_blowup.json":
        assert results["quantum_dimension"] == 0


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


PENTAGRAM = {
    "rank": 2,
    "edges": [[1, 0], [1, 2], [-1, 1], [-1, -1], [1, -2]],
    "max_cones": [[1, 3], [3, 5], [5, 2], [2, 4], [4, 1]],
    "lambdas": ["-1"] * 5,
}


def test_overlap_names_the_cones_by_their_edges(capsys, tmp_path):
    # the document's cones [1, 3] and [2, 4] both hold the ray (0, 1)
    path = tmp_path / "pentagram.json"
    path.write_text(json.dumps(PENTAGRAM))
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 1 and not out
    assert err == (
        "OverlappingCones: the ray (0, 1) through the interior of cone [(1, 0), (-1, 1)]"
        " lies in 2 maximal cones: [(1, 0), (-1, 1)], [(1, 2), (-1, -1)]\n"
    )


def test_non_smooth_note_names_the_cone_by_its_edges(capsys, tmp_path):
    doc = {**P2, "edges": [[1, 0], [1, 2], [-1, -1]], "lambdas": ["-1"] * 3}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--input", str(path), "--format", "json")
    results = json.loads(out)["results"]
    assert code == 0 and not results["smooth"]
    assert results["notes"] == ["cone [(1, 0), (1, 2)] does not extend to a lattice basis"]
    assert results["primitive_collections"] == [[1, 2, 3]]


def test_validate_reflexive_p8_reads_reflexivity_off_the_support(tmp_path):
    # the bounding box of reflexive P^8 holds 10^8 lattice points; a scan
    # of them would not finish within the timeout
    m = 8
    doc = {
        "rank": m,
        "edges": [[int(i == j) for j in range(m)] for i in range(m)] + [[-1] * m],
        "max_cones": [[j for j in range(1, m + 2) if j != i] for i in range(1, m + 2)],
        "lambdas": ["-1"] * (m + 1),
    }
    path = tmp_path / "p8_reflexive.json"
    path.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "-m", "torfan.cli", "validate", "--input", str(path), "--format", "json"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["reflexive"] is True and results["vertex_count"] == m + 1


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


HUGE = 10 ** 20
DEGREE_CAP_DOCUMENTS = {
    "edge": {"rank": 2, "edges": [[1, 0], [0, 1], [-1, -HUGE]],
             "max_cones": [[1, 2], [2, 3], [3, 1]], "lambdas": ["0", "0", "-1"]},
    # P^1 x P^1 sheared by HUGE: smooth, and dim Jac(W) = 4
    "shear": {"rank": 2, "edges": [[1, 0], [-1, 0], [HUGE, 1], [-HUGE, -1]],
              "max_cones": [[1, 3], [3, 2], [2, 4], [4, 1]], "lambdas": ["-1"] * 4},
}


@pytest.mark.parametrize("cmd", ["critical", "separate"])
@pytest.mark.parametrize("name", DEGREE_CAP_DOCUMENTS)
def test_jacobian_generators_above_the_degree_cap_are_refused(tmp_path, name, cmd):
    # the edge (-1, -HUGE) or (-HUGE, -1) becomes u^HUGE times a monomial of
    # degree HUGE - 1; Buchberger's algorithm on it did not finish
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEGREE_CAP_DOCUMENTS[name]))
    done = subprocess.run(
        [sys.executable, "-m", "torfan.cli", cmd, "--input", str(path), "--format", "json"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"DegreeCapExceeded: a Jacobian generator has total degree {2 * HUGE - 1}, "
        "above the cap 1000\n"
    )


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
    blocked = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SYMPY, *argv], env=_src_env(), capture_output=True, text=True
    )
    code, out, err = run(capsys, *argv)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (code, out, err)
    assert code == 0


# Runs the CLI with every import of numpy failing, once per document named
# after the command, and prints [exit status, stdout, stderr] of each run
# as one JSON list.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from torfan.cli import main
runs = []
for path in sys.argv[2:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([sys.argv[1], "--input", path, "--format", "json"])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""

_FAN_DOCUMENTS = sorted(
    p.name for p in Path(str(EXAMPLES)).glob("*.json") if p.name != "schema.json" and not p.name.startswith("kato")
)
_HALF_SPACE_DOCUMENTS = ["c3_blowup.json", "p1xp1_nlb.json", "p2_nlb.json", "p3_nlb.json", "p4_nlb.json"]


@pytest.mark.parametrize(
    "cmd,docs",
    [
        (cmd, _FAN_DOCUMENTS)
        for cmd in ("validate", "qh", "sh", "mirror", "barycentre", "linebundle", "blowup")
    ]
    + [("galkin", _HALF_SPACE_DOCUMENTS)],
    ids=lambda v: v if isinstance(v, str) else f"{len(v)}-documents",
)
def test_cli_commands_run_without_numpy(capsys, cmd, docs):
    """The exact commands, and galkin's refusal on a fan in a half-space,
    never import numpy: each run matches a normal one byte for byte."""
    blocked = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, cmd, *map(example, docs)],
        env=_src_env(), capture_output=True, text=True,
    )
    assert blocked.returncode == 0, blocked.stderr
    normal = [list(run(capsys, cmd, "--input", example(doc), "--format", "json")) for doc in docs]
    assert json.loads(blocked.stdout) == normal
    if cmd == "galkin":
        assert all(code == 1 and err.startswith("HalfSpaceFan: ") for code, _, err in normal)


def test_importing_the_cli_leaves_numpy_unloaded():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, torfan.cli; print('numpy' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_qh_reads_a_double_eigenvalue_exactly(capsys):
    # omega = c1 on QH*(P^1 x P^1) has charpoly X^2 (X - 2)(X + 2): the
    # eigenvalue 0 comes from an exact linear factor, with no round-off
    code, out, _ = run(capsys, "qh", "--input", example("p1xp1.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["omega_eigenvalues"] == [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]


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
    shape, out of range, outside float range or outside the Fano class:
    every command on each ends in a report or a named TorfanError, never
    a traceback."""
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


@pytest.mark.parametrize(
    "name", ["kato_row_sum_overflow", "kato_eigenvalue_gap_overflow", "kato_complex_modulus_overflow"]
)
def test_kato_rows_beyond_half_the_float_range_are_validation_errors(capsys, name):
    # each entry is finite, but a row sum of coefficient moduli (a bound on
    # ||A(x)||_inf), twice it (a bound on the distance of two eigenvalues)
    # or the modulus of one complex coefficient is not
    path = Path(__file__).parent / "malformed" / f"{name}.json"
    code, out, err = run(capsys, "kato", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith("ValidationError: a row's coefficient moduli sum")
