"""The benchmark's four workloads and the fingerprints of their outputs.

Each workload builds, from the seed, one pass: a list of operations that
run one at a time.  An operation returns a JSON fingerprint of its output,
which the runner compares with the committed reference in
``reference/<workload>.json``.  The seed fixes the order of the operations
in each pass, the seeds handed to the program's own random draws in the
library workloads, and the random matrix families; it never changes which
fans are built, so every seed has the same reference and about the same
amount of work.

``WORKLOADS`` at the end gives the reason for each workload; README.md
lists what each one runs and which layer each should load.
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from fingerprint import scalar, spectrum
from tracing import TRACE_PREFIX
from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.cli import parse_matrix_document
from torfan.errors import SeparationFailed
from torfan.exact_algebra import (
    Ring,
    char_min_poly,
    complex_eigen,
    groebner_basis,
    jordan_profile,
    quotient_algebra,
    to_numpy,
)
from torfan.lattice_fan import Fan, primitive_collections, validate_fan
from torfan.perturbation import (
    MatrixFamily,
    default_ray,
    derivative_spectrum,
    gevec_convergence,
    semisimple_convergence_check,
    total_projection_limit_check,
    track_eigenvalues,
)
from torfan.polytope import MomentPolytope
from torfan.quantum_algebra import omega_operator, qh_presentation, sh_presentation
from torfan.superpotential import (
    build_superpotential,
    critical_points,
    jacobian_ring,
    mirror_check,
    perturb_and_separate,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXAMPLES = ROOT / "src" / "torfan" / "examples"
CLI_CHILD = BENCH_DIR / "cli_child.py"


class CliCrash(Exception):
    """A CLI process ended in a traceback or an undocumented exit status."""


@dataclass
class Op:
    name: str
    run: Callable  # run(ctx) -> fingerprint


class Context:
    """What an operation may need besides its input: the tracer of a
    traced pass (or None), and the environment for child processes."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cli_import_s = []
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")


# -- the toric ladder ----------------------------------------------------


def projective_space(m, lambdas=None):
    edges = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    edges.append((-1,) * m)
    cones = [tuple(j for j in range(m + 1) if j != i) for i in range(m + 1)]
    return Fan.make(m, edges, cones), MomentPolytope.make(m, edges, lambdas or [0] * m + [-1])


def product_of_lines(k):
    edges, cones = [], [()]
    for i in range(k):
        unit = [0] * k
        unit[i] = 1
        edges += [tuple(unit), tuple(-x for x in unit)]
        cones = [c + (2 * i + s,) for c in cones for s in (0, 1)]
    return Fan.make(k, edges, cones), MomentPolytope.make(k, edges, [0, -1] * k)


def point_blowups(m, points):
    """Reflexive P^m blown up at ``points`` of its torus-fixed points."""
    fan, P = projective_space(m, [-1] * (m + 1))
    for _ in range(points):
        cone = next(i for i, c in enumerate(fan.max_cones) if max(c) <= m)
        fan, P = blowup_point(fan, P, cone)
    return fan, P, None


def ladder():
    """(name, make) pairs; make() returns (fan, polytope, bundle spec or None)
    and runs inside the timed operation."""
    cases = []
    for m in range(2, 9):
        cases.append((f"P{m}", lambda m=m: projective_space(m) + (None,)))
    for k in range(2, 6):
        cases.append((f"P1^{k}", lambda k=k: product_of_lines(k) + (None,)))
    for m in range(1, 5):
        for k in range(1, m + 1):
            cases.append((f"O(-{k})->P{m}", lambda m=m, k=k: nlb_from_k(*projective_space(m), k)))
    for points in (1, 2, 3):
        cases.append((f"Bl{points}P2", lambda p=points: point_blowups(2, p)))
    cases.append(("Bl1P3", lambda: point_blowups(3, 1)))
    return cases


def _fiber_class(ring, twist):
    return sum((Fraction(n) * ring.var(i) for i, n in enumerate(twist)), ring.zero())


def _leading_monomials(G):
    return sorted(list(m) for m in G.leading_monomials())


def _quantum_case(make):
    def run(ctx):
        fan, P, spec = make()
        report = validate_fan(fan)
        pcs = sorted(sorted(I) for I in primitive_collections(fan))
        pres, A = qh_presentation(fan, P)
        fp = {
            "smooth": bool(report.smooth),
            "complete": bool(report.complete),
            "primitive_collections": pcs,
            "fano_index": pres.lam_X,
            "qh_dimension": A.dimension,
            "qh_leading_monomials": _leading_monomials(A.groebner),
        }
        if spec is not None:
            fp["sh_dimension"] = sh_presentation(A, [_fiber_class(A.ring, spec.n)]).dimension
        M = omega_operator(A, P)
        chi, mu = char_min_poly(M)
        profile = jordan_profile(M)
        eigs, _ = complex_eigen(to_numpy(M))
        fp["charpoly"] = chi.pretty()
        fp["minpoly"] = mu.pretty()
        fp["jordan"] = [[p.pretty(), list(sizes)] for p, sizes in profile.entries]
        fp["omega_spectrum"] = spectrum(eigs)
        return fp

    return run


def _mirror_case(make, seed):
    def run(ctx):
        fan, P, spec = make()
        W = build_superpotential(P)
        J = jacobian_ring(W)
        points = critical_points(W, seed=seed, jac=J)
        _, A = qh_presentation(fan, P)
        SH = None if spec is None else sh_presentation(A, [_fiber_class(A.ring, spec.n)])
        fp = {
            "jacobian_dimension": J.dimension,
            "jacobian_leading_monomials": _leading_monomials(J.algebra.groebner),
            "critical_points": len(points),
            "nondegenerate": all(p.nondegenerate for p in points),
            "critical_values": spectrum([p.value for p in points]),
            "mirror_ok": bool(mirror_check(fan, P, A, J, sh_algebra=SH).ok),
        }
        if fan.rank <= 4:
            rep = _separate(P, seed)
            fp["separation"] = {
                "jacobian_dimension": rep.jac_dimension,
                "critical_values": len(rep.values),
                "morse": bool(rep.morse),
                "ok": bool(rep.ok),
            }
        return fp

    return run


def _separate(P, seed, attempts=3):
    """perturb_and_separate, retried with the next seed when the draw left
    colliding values, as SeparationFailed asks; about one draw in fifty
    does on some fans."""
    for attempt in range(attempts):
        try:
            return perturb_and_separate(P, seed + attempt)[1]
        except SeparationFailed:
            if attempt == attempts - 1:
                raise


def _four_variable_ideal(ctx):
    """The Groebner system of benchmarks/bench_kernels.py."""
    ring = Ring(("x", "y", "z", "w"))
    x, y, z, w = (ring.var(i) for i in range(4))
    G = groebner_basis(
        [x ** 3 + y ** 2 - z * w, y ** 3 - x * z + w ** 2, z ** 3 - x * y * w - 1, w ** 2 - x - y - z]
    )
    A = quotient_algebra(G)
    return {"leading_monomials": _leading_monomials(G), "dimension": A.dimension}


def quantum_ladder(seed):
    return [Op(name, _quantum_case(make)) for name, make in ladder()]


# The Jacobian rings of P^7 and P^8 take 4 s and 8 s with today's
# Buchberger, which made one pass 22 s: a run held a single pass, and with
# one sample per operation op_p50_s and op_p90_s spread 0.15 over ten seeds.
MIRROR_SKIPS = ("P7", "P8")


def mirror_ladder(seed):
    rng = random.Random(seed)
    ops = [
        Op(name, _mirror_case(make, rng.randrange(10 ** 6)))
        for name, make in ladder()
        if name not in MIRROR_SKIPS
    ]
    ops.append(Op("four-variable-ideal", _four_variable_ideal))
    return ops


# -- spectral families ----------------------------------------------------

# (size, multiplicity of the eigenvalue 0 at x = 0)
SEMISIMPLE_SIZES = ((4, 2), (12, 4), (24, 3))
KATO_BLOCKS = (2, 3, 4)
SPECTRAL_RTOL = 1e-6


def _int_matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _conjugator(rng, n):
    """Integer S and its integer inverse: a permutation times a sparse
    unit upper triangular matrix."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        U[i][j] = rng.choice((-1, 1))
    Uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):  # back substitution, bottom row first
        for j in range(i + 1, n):
            Uinv[i][j] = -sum(U[i][k] * Uinv[k][j] for k in range(i + 1, j + 1))
    perm = list(range(n))
    rng.shuffle(perm)
    Pm = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    Pinv = [list(col) for col in zip(*Pm)]
    return _int_matmul(Pm, U), _int_matmul(Uinv, Pinv)


def _family(S, Sinv, A0, A1):
    C0 = _int_matmul(_int_matmul(S, A0), Sinv)
    C1 = _int_matmul(_int_matmul(S, A1), Sinv)
    n = len(S)
    return MatrixFamily.make([[(C0[i][j], C1[i][j]) for j in range(n)] for i in range(n)])


def semisimple_family(rng, n, m):
    """A(x) = S (D + x B) S^-1 with D = diag(0 (m times), rest).  The
    first m rows of B are diagonal, so the branches through 0 are exactly
    x * B[i][i] and their eigenlines converge at rate x; the other rows are
    random.  Returns the family, the eigenvalues of A(0) and the
    derivatives."""
    rest = rng.sample([d for d in range(-3 * n, 3 * n + 1) if abs(d) >= 3], n - m)
    # Branches are matched from one ray point to the next (x halves) by the
    # nearest eigenvalue; derivatives 4 times apart keep that unambiguous.
    derivs = rng.sample([-4, -1, 1, 4], m)
    D = [[0] * n for _ in range(n)]
    for i, d in enumerate(rest):
        D[m + i][m + i] = d
    B = [[rng.choice((-1, 0, 1)) if i >= m else 0 for j in range(n)] for i in range(n)]
    for i in range(m):
        B[i][i] = derivs[i]
    S, Sinv = _conjugator(rng, n)
    return _family(S, Sinv, D, B), [0] * m + rest, derivs


def kato_sum(rng, blocks):
    """Direct sum of 2 x 2 Kato blocks [[l + c x, 1], [0, l]], conjugated
    by a permutation; each block is one Jordan block of size 2 at x = 0."""
    n = 2 * blocks
    shifts = rng.sample(range(-6, 7), blocks)
    A0 = [[0] * n for _ in range(n)]
    A1 = [[0] * n for _ in range(n)]
    for b, l in enumerate(shifts):
        A0[2 * b][2 * b] = A0[2 * b + 1][2 * b + 1] = l
        A0[2 * b][2 * b + 1] = 1
        A1[2 * b][2 * b] = rng.choice((1, 2, 3))
    perm = list(range(n))
    rng.shuffle(perm)
    Pm = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return _family(Pm, [list(c) for c in zip(*Pm)], A0, A1), [l for l in shifts for _ in (0, 1)]


def _close_multisets(got, want, rtol=SPECTRAL_RTOL):
    got = [complex(v) for v in got]
    want = [complex(v) for v in want]
    if len(got) != len(want):
        return False
    scale = max([abs(v) for v in want] + [1.0])
    remaining = list(got)
    for w in want:
        best = min(remaining, key=lambda v: abs(v - w))
        if abs(best - w) > rtol * scale:
            return False
        remaining.remove(best)
    return True


def _track_fp(fam, ray, limits):
    paths = track_eigenvalues(fam, ray)
    return {
        "paths": len(paths),
        "all_matched": all(bool(p.matched) for p in paths),
        "limits_match": _close_multisets([p.samples[-1][1] for p in paths], limits, rtol=1e-5),
    }


def _gevec_fp(fam, ray):
    rep = gevec_convergence(fam, ray)
    return {
        "clusters": sorted([c.size, c.block_size, bool(c.decreasing)] for c in rep.clusters),
        "gevec_ok": bool(rep.ok),
    }


def _semisimple_case(fam, eigs0, derivs):
    def run(ctx):
        ray = default_ray()
        tot = total_projection_limit_check(fam, 0, ray)
        ders = derivative_spectrum(fam, 0, ray)
        semi = semisimple_convergence_check(fam, 0, ray)
        return {
            "size": fam.size,
            "track": _track_fp(fam, ray, eigs0),
            "total_projection_ok": bool(tot.ok),
            "derivatives_match": _close_multisets(ders, derivs),
            "semisimple_ok": bool(semi.ok),
            "semisimple_derivatives_match": _close_multisets(semi.derivatives, derivs),
        }

    return run


def _kato_case(fam, eigs0):
    def run(ctx):
        ray = default_ray()
        return {"size": fam.size, "track": _track_fp(fam, ray, eigs0), **_gevec_fp(fam, ray)}

    return run


def _kato_document(path):
    def run(ctx):
        fam = parse_matrix_document(path.read_text(encoding="utf-8"))
        ray = default_ray()
        paths = track_eigenvalues(fam, ray)
        return {
            "size": fam.size,
            "matched": [bool(p.matched) for p in paths],
            "limits": spectrum([p.samples[-1][1] for p in paths]),
            **_gevec_fp(fam, ray),
        }

    return run


def spectral_families(seed):
    rng = random.Random(seed)
    ops = []
    for n, m in SEMISIMPLE_SIZES:
        ops.append(Op(f"semisimple-n{n}-m{m}", _semisimple_case(*semisimple_family(rng, n, m))))
    for blocks in KATO_BLOCKS:
        ops.append(Op(f"kato-sum-{blocks}", _kato_case(*kato_sum(rng, blocks))))
    for name in ("kato_upper.json", "kato_3x3.json"):
        ops.append(Op(name, _kato_document(EXAMPLES / name)))
    return ops


# -- CLI examples -----------------------------------------------------------

# The main commands, the documented error exits (1 for galkin on a bundle,
# 2 for linebundle without a twist) and the known crash of `sh` on
# c3_blowup.json, which counts as a failed operation.  Eleven invocations,
# so the 50th and 90th percentiles over them fall on single invocations
# (the 6th and the faster `kato`), and a pass is short enough for four.
CLI_CASES = (
    ("validate", "p3.json"),
    ("qh", "p4.json"),
    ("sh", "p3_nlb.json"),
    ("sh", "c3_blowup.json"),
    ("mirror", "p2.json"),
    ("critical", "p4_nlb.json"),
    ("galkin", "p2_nlb.json"),
    ("linebundle", "p1.json"),
    ("separate", "p1xp1_nlb.json"),
    ("kato", "kato_upper.json"),
    ("kato", "kato_3x3.json"),
)

SPECTRUM_FIELDS = ("omega_eigenvalues", "critical_values")
COMPLEX_FIELDS = ("start", "limit", "value")


def _cli_value(value, key=None):
    if key in SPECTRUM_FIELDS:
        return spectrum(complex(*v) for v in value)
    if key in COMPLEX_FIELDS and isinstance(value, list):
        return scalar(complex(*value))
    if key == "points":  # critical points: their order breaks ties by angle
        return {
            "values": spectrum(complex(*p["value"]) for p in value),
            "hessian_ranks": sorted(p["hessian_rank"] for p in value),
            "nondegenerate": all(p["nondegenerate"] for p in value),
        }
    if isinstance(value, float):
        return scalar(value)
    if isinstance(value, dict):
        return {k: _cli_value(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_cli_value(v) for v in value]
    return value


def _read_trace(stderr, ctx):
    lines = []
    for line in stderr.splitlines():
        if line.startswith(TRACE_PREFIX):
            summary = json.loads(line[len(TRACE_PREFIX):])
            ctx.tracer.merge(summary["stats"])
            ctx.tracer.credit(summary["covered_s"])
            ctx.cli_import_s.append(summary["import_s"])
        else:
            lines.append(line)
    return "\n".join(lines)


def _cli_case(cmd, example):
    def run(ctx):
        args = [cmd, "--input", str(EXAMPLES / example), "--format", "json"]
        head = [str(CLI_CHILD)] if ctx.tracer is not None else ["-m", "torfan.cli"]
        proc = subprocess.run(
            [sys.executable, *head, *args],
            cwd=ROOT,
            env=ctx.env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        stderr = proc.stderr if ctx.tracer is None else _read_trace(proc.stderr, ctx)
        if "Traceback (most recent call last)" in stderr or proc.returncode not in (0, 1, 2):
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            raise CliCrash(f"exit {proc.returncode}: {last}")
        if proc.returncode:
            return {"exit": proc.returncode, "error": stderr.strip().splitlines()[-1].split(":")[0]}
        return {"exit": 0, "results": _cli_value(json.loads(proc.stdout)["results"])}

    return run


def cli_examples(seed):
    """The seed only orders the invocations: they run with the CLI's default
    --seed, whose draw for `separate` is known to separate the values."""
    return [Op(f"{cmd} {example}", _cli_case(cmd, example)) for cmd, example in CLI_CASES]


@dataclass
class Workload:
    build: Callable  # build(seed) -> list of Op (one pass)
    in_process: bool  # False when operations run in child processes
    why: str


WORKLOADS = {
    "quantum-ladder": Workload(
        quantum_ladder,
        True,
        "exact linear algebra and fan checks on the quantum presentations of the toric ladder",
    ),
    "mirror-ladder": Workload(
        mirror_ladder,
        True,
        "the Groebner layer under load: Jacobian ideals of the ladder up to P^6, many S-pairs, large denominators",
    ),
    "spectral-families": Workload(
        spectral_families,
        True,
        "contour quadrature and numeric spectra on seeded matrix families; exact algebra nearly idle",
    ),
    "cli-examples": Workload(
        cli_examples,
        False,
        "one fresh CLI process per command on the shipped examples; the only workload paying start-up each time",
    ),
}


def warm_up():
    """Lazy set-up users pay once per process: the sympy import behind
    factor_rational_poly and the first LAPACK call."""
    from torfan.exact_algebra import UNIVARIATE, factor_rational_poly

    factor_rational_poly(UNIVARIATE.var(0) ** 2 - UNIVARIATE.one())
    np.linalg.eig(np.eye(2))
