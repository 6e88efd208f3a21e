"""Command-line front end: parse fan/polytope and matrix-family
documents, dispatch to the library, and render deterministic text or
JSON reports.

Exit status: 0 on success, 1 on domain errors, 2 on parse or
validation errors.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .bundle_blowup import blowup_face, blowup_point, nlb_from_k
from .errors import ClusterAmbiguous, ParseError, TorfanError, Unbounded, ValidationError
from .exact_algebra import char_min_poly, complex_eigen, spectral_order, to_numpy
from .lattice_fan import Fan, primitive_collections, validate_fan
from .perturbation import (
    MatrixFamily,
    _cluster_radius,
    default_ray,
    eigenprojection,
    gevec_convergence,
    track_eigenvalues,
)
from .polytope import (
    MomentPolytope,
    barycentre,
    check_reflexive,
    fano_index,
    is_bounded,
    vertices,
)
from .quantum_algebra import (
    eigen_family_check,
    omega_operator,
    qh_presentation,
    symplectic_cohomology,
)
from .superpotential import (
    build_superpotential,
    critical_points,
    galkin_point,
    is_morse,
    jacobian_ring,
    mirror_check,
    perturb_and_separate,
)

__all__ = [
    "main",
    "parse_fan_document",
    "parse_matrix_document",
    "run_command",
    "render_report",
]

COMMANDS = (
    "validate",
    "qh",
    "sh",
    "mirror",
    "critical",
    "galkin",
    "barycentre",
    "linebundle",
    "blowup",
    "separate",
    "kato",
)


# -- document parsing -------------------------------------------------


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _float_range(x, value, where):
    try:
        float(x)
    except OverflowError:
        raise ParseError(f"{where}: {value!r} is outside the range of a float")
    return x


def _rational(value, where):
    try:
        x = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: {value!r} is not a rational p/q")
    return _float_range(x, value, where)


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: {value!r} is not an integer")
    return _float_range(value, value, where)


def _list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list")
    return value


def _integers(value, where):
    return [_integer(x, f"{where}[{i}]") for i, x in enumerate(_list(value, where))]


def parse_fan_document(text):
    """JSON fan/polytope document -> (Fan, MomentPolytope, options).

    Cone and blow-up indices are 1-based in documents, 0-based in the
    returned objects.  Options may carry ``bundle`` and ``blowup``
    entries.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("rank", "edges", "max_cones", "lambdas"):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    if "twist" in doc:
        raise ParseError(
            "field 'twist' is not supported: superpotential terms carry no coefficients"
        )
    rank = _integer(doc["rank"], "rank")
    if rank < 1:
        raise ValidationError(f"rank {rank} is not positive")
    edges = [
        tuple(_integers(e, f"edges[{i}]")) for i, e in enumerate(_list(doc["edges"], "edges"))
    ]
    if not edges:
        raise ValidationError("a fan needs at least one edge")
    cones = []
    for c, cone in enumerate(_list(doc["max_cones"], "max_cones")):
        cone = _integers(cone, f"max_cones[{c}]")
        for i in cone:
            if not 1 <= i <= len(edges):
                raise ValidationError(f"cone index {i} out of range")
        cones.append(tuple(i - 1 for i in cone))
    lambdas = [
        _rational(l, f"lambdas[{i}]") for i, l in enumerate(_list(doc["lambdas"], "lambdas"))
    ]
    try:
        fan = Fan.make(rank, edges, cones)
        P = MomentPolytope.make(rank, edges, lambdas)
    except (ValidationError, ValueError, TypeError) as exc:
        raise ValidationError(str(exc))
    options = {}
    if "bundle" in doc:
        b = doc["bundle"]
        if not isinstance(b, dict) or set(b) != {"k"}:
            raise ParseError("bundle must be an object with the one field k")
        options["bundle"] = {"k": _integer(b["k"], "bundle.k")}
    if "blowup" in doc:
        b = doc["blowup"]
        if not isinstance(b, dict) or "I" not in b:
            raise ParseError("blowup needs a field I")
        options["blowup"] = {
            "I": [i - 1 for i in _integers(b["I"], "blowup.I")],
            "epsilon": _rational(b["epsilon"], "blowup.epsilon")
            if "epsilon" in b
            else None,
        }
    return fan, P, options


def _real(x, where):
    try:
        if not isinstance(x, bool) and math.isfinite(x):
            return float(x)
    except (TypeError, OverflowError):
        pass
    raise ParseError(f"{where}: {x!r} is not a finite number")


def _coefficient(c, where):
    if not isinstance(c, list):
        return complex(_real(c, where))
    if len(c) == 2:
        return complex(_real(c[0], where), _real(c[1], where))
    raise ParseError(f"{where}: coefficient must be a number or [re, im]")


def parse_matrix_document(text):
    """JSON matrix-family document -> MatrixFamily.  Each entry is a
    list of polynomial coefficients in ascending powers of x; a complex
    coefficient is written [re, im]."""
    doc = _load_json(text)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError("matrix document needs a field 'entries'")
    rows = []
    for i, row in enumerate(_list(doc["entries"], "entries")):
        cells = []
        for j, cell in enumerate(_list(row, f"entries[{i}]")):
            if not isinstance(cell, list):
                raise ParseError(f"entries[{i}][{j}] must be a coefficient list")
            cells.append(
                [_coefficient(c, f"entries[{i}][{j}][{k}]") for k, c in enumerate(cell)]
            )
        rows.append(cells)
    try:
        return MatrixFamily.make(rows)
    except ValueError as exc:
        raise ValidationError(str(exc))


# -- serialization ----------------------------------------------------


def _ser(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return _ser(value.item())
    if isinstance(value, dict):
        return {str(k): _ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_ser(v) for v in value]
    if hasattr(value, "pretty"):
        return value.pretty()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _fan_to_doc(fan, P):
    return {
        "rank": fan.rank,
        "edges": [list(e) for e in fan.edges],
        "max_cones": [[i + 1 for i in c] for c in fan.max_cones],
        "lambdas": [_ser(l) for l in P.lambdas],
    }


# -- command handlers -------------------------------------------------


def _apply_bundle(fan, P, options, k_flag):
    """Replace fan/P by the line-bundle total space when requested."""
    k = k_flag if k_flag is not None else options.get("bundle", {}).get("k")
    if k is None:
        return fan, P, None
    return nlb_from_k(fan, P, k)


def _cmd_validate(fan, P, options, args, spec=None):
    report = validate_fan(fan)
    out = {
        "smooth": report.smooth,
        "complete": report.complete,
        "notes": list(report.notes),
        "primitive_collections": [
            sorted(i + 1 for i in I) for I in sorted(primitive_collections(fan), key=sorted)
        ],
        "bounded": is_bounded(P),
    }
    try:
        out["reflexive"] = check_reflexive(P)
        out["vertex_count"] = len(vertices(P).vertices)
    except Unbounded:
        out["reflexive"] = False
    return out


def _cmd_qh(fan, P, options, args, spec=None):
    pres, A = qh_presentation(fan, P)
    relations = (
        [f.pretty() for f in pres.relations()]
        if args.t_symbolic
        else [f.pretty() for f in pres.relations_t1()]
    )
    M = omega_operator(A, P)
    chi, mu = char_min_poly(M)
    out = {
        "dimension": A.dimension,
        "fano_index": pres.lam_X,
        "relations": relations,
        "charpoly": chi.pretty(),
        "minpoly": mu.pretty(),
        "omega_eigenvalues": spectral_order(complex_eigen(to_numpy(M))[0]),
    }
    if pres.lam_X:
        fam = eigen_family_check(chi, pres.lam_X)
        out["eigen_family"] = {"d0": fam.d0, "holds": fam.holds}
    return out


def _cmd_sh(fan, P, options, args, spec=None):
    pres, A = qh_presentation(fan, P)
    SH = symplectic_cohomology(A)
    M = omega_operator(SH, P)
    chi, mu = char_min_poly(M)
    return {
        "qh_dimension": A.dimension,
        "dimension": SH.dimension,
        "kernel_dimension": A.dimension - SH.dimension,
        "charpoly": chi.pretty(),
        "minpoly": mu.pretty(),
        "omega_eigenvalues": spectral_order(complex_eigen(to_numpy(M))[0]),
    }


def _cmd_mirror(fan, P, options, args, spec=None):
    pres, A = qh_presentation(fan, P)
    sh_algebra = symplectic_cohomology(A)
    W = build_superpotential(P)
    J = jacobian_ring(W)
    report = mirror_check(fan, P, A, J, sh_algebra=sh_algebra)
    return {
        "monomial_identities": report.monomial_identities,
        "derivative_match": report.derivative_match,
        "dimension_match": report.dimension_match,
        "eigenvalue_match": report.eigenvalue_match,
        "worst_eigen_residual": report.worst_eigen_residual,
        "jacobian_dimension": J.dimension,
        "quantum_dimension": sh_algebra.dimension,
        "ok": report.ok,
    }


def _cmd_critical(fan, P, options, args, spec=None):
    W = build_superpotential(P)
    J = jacobian_ring(W)
    points = critical_points(W, seed=args.seed, jac=J)
    return {
        "count": len(points),
        "morse": is_morse(points, J.dimension),
        "points": [
            {
                "coordinates": [complex(c) for c in p.coordinates],
                "value": complex(p.value),
                "hessian_rank": p.hessian_rank,
                "nondegenerate": p.nondegenerate,
            }
            for p in spectral_order(points, key=lambda p: p.value)
        ],
    }


def _cmd_galkin(fan, P, options, args, spec=None):
    point, value = galkin_point(fan)
    return {"point": [float(x) for x in point], "value": float(value)}


def _cmd_barycentre(fan, P, options, args, spec=None):
    lam_X = fano_index(P)
    y = barycentre(P, lam_X)
    return {"fano_index": lam_X, "barycentre": [_ser(c) for c in y]}


def _cmd_linebundle(fan, P, options, args, spec=None):
    if spec is None:
        raise ValidationError("linebundle needs --k or a bundle field")
    return {
        "k": spec.k,
        "base_index": spec.lam_B,
        "total_index": spec.lam_E,
        "twist": list(spec.n),
        "document": _fan_to_doc(fan, P),
    }


def _cmd_blowup(fan, P, options, args, spec=None):
    if "blowup" not in options:
        raise ValidationError("blowup needs a blowup field in the document")
    I = options["blowup"]["I"]
    epsilon = options["blowup"]["epsilon"]
    if args.epsilon is not None:
        epsilon = args.epsilon
    before = len(vertices(P).vertices)
    if tuple(sorted(I)) in {tuple(sorted(c)) for c in fan.max_cones}:
        idx = [tuple(sorted(c)) for c in fan.max_cones].index(tuple(sorted(I)))
        new_fan, new_P = blowup_point(fan, P, idx, epsilon)
    else:
        new_fan, new_P = blowup_face(fan, P, I, epsilon)
    return {
        "vertex_count_before": before,
        "vertex_count_after": len(vertices(new_P).vertices),
        "document": _fan_to_doc(new_fan, new_P),
    }


def _cmd_separate(fan, P, options, args, spec=None):
    radius = args.epsilon if args.epsilon is not None else Fraction(1, 100)
    lam_pert, report = perturb_and_separate(P, args.seed, radius=radius)
    return {
        "perturbed_lambdas": [_ser(l) for l in lam_pert],
        "morse": report.morse,
        "min_gap": report.min_gap,
        "min_abs_value": report.min_abs_value,
        "jacobian_dimension": report.jac_dimension,
        "critical_values": spectral_order(report.values),
        "ok": report.ok,
    }


def _pole_exponent(fam, path):
    """Least-squares slope of log ||P(x)|| against log x over the tail
    of the ray, P the total projection of the eigenvalues within 1e-12
    of the branch; None when that cluster is not isolated."""
    xs, norms = [], []
    for x, lam in path.samples[-6:]:
        A = fam(x)
        w = np.linalg.eigvals(A)
        try:
            radius = _cluster_radius(w, lam, int(np.sum(np.abs(w - lam) <= 1e-12)))
        except ClusterAmbiguous:
            return None
        P = eigenprojection(A, lam, radius, spectrum=w)
        xs.append(np.log(x))
        norms.append(np.log(np.linalg.norm(P.matrix, 2)))
    return float(np.polyfit(xs, norms, 1)[0])


def _cmd_kato(fam, args):
    ray = default_ray()
    paths = track_eigenvalues(fam, ray)
    branches = []
    for path in paths:
        branches.append(
            {
                "start": complex(path.samples[0][1]),
                "limit": complex(path.samples[-1][1]),
                "matched": path.matched,
                "pole_exponent": _pole_exponent(fam, path),
            }
        )
    branches.sort(key=lambda b: (abs(complex(b["limit"])), abs(complex(b["start"]))))
    out = {"size": fam.size, "branches": branches}
    try:
        rep = gevec_convergence(fam, ray)
        out["gevec_clusters"] = [
            {
                "size": c.size,
                "block_size": c.block_size,
                "final_distance": c.final_distance,
                "decreasing": c.decreasing,
            }
            for c in sorted(rep.clusters, key=lambda c: (c.size, c.final_distance))
        ]
        out["gevec_ok"] = rep.ok
    except (TorfanError, ValueError) as exc:
        out["gevec_warning"] = f"{type(exc).__name__}: {exc}"
    return out


# -- rendering --------------------------------------------------------


def render_report(report, fmt="text"):
    if fmt == "json":
        return json.dumps(_ser(report), sort_keys=True, indent=2)
    lines = []
    _render_text(_ser(report), lines, 0)
    return "\n".join(lines)


def _render_text(value, lines, depth, label=None):
    pad = "  " * depth
    head = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for k in value:
            _render_text(value[k], lines, depth + (label is not None), k)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        if label is not None:
            lines.append(f"{pad}{label}:")
        for v in value:
            _render_text(v, lines, depth + (label is not None), "-")
    else:
        lines.append(f"{head}{json.dumps(value)}")


# -- dispatch ---------------------------------------------------------


def run_command(cmd, text, args):
    """Dispatch a command against a raw document; returns the report
    dict (with a command echo)."""
    if cmd == "kato":
        fam = parse_matrix_document(text)
        results = _cmd_kato(fam, args)
    else:
        fan, P, options = parse_fan_document(text)
        # a document with a bundle field denotes the total space
        fan, P, spec = _apply_bundle(fan, P, options, args.k)
        handler = {
            "validate": _cmd_validate,
            "qh": _cmd_qh,
            "sh": _cmd_sh,
            "mirror": _cmd_mirror,
            "critical": _cmd_critical,
            "galkin": _cmd_galkin,
            "barycentre": _cmd_barycentre,
            "linebundle": _cmd_linebundle,
            "blowup": _cmd_blowup,
            "separate": _cmd_separate,
        }[cmd]
        results = handler(fan, P, options, args, spec)
    return {"command": cmd, "seed": args.seed, "results": results}


def _epsilon(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational p/q")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torfan",
        description="Exact toric fan, quantum-algebra, superpotential, "
        "and spectral-perturbation reports.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="document file (JSON)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--t-symbolic",
        action="store_true",
        help="report relations with the Novikov variable symbolic",
    )
    parser.add_argument("--k", type=int, default=None, help="line-bundle twist")
    parser.add_argument(
        "--epsilon",
        type=_epsilon,
        default=None,
        help="rational chop depth / perturbation radius, e.g. 1/2",
    )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_command(args.command, text, args)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except TorfanError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(render_report(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
