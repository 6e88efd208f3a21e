"""Tests of the benchmark itself (not of torfan).

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import torfan.lattice_fan  # noqa: E402
import workloads  # noqa: E402
from fingerprint import mismatches, normalize, spectrum  # noqa: E402
from torfan.errors import NotMonotone  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from worker import Measurement, measure, run_op  # noqa: E402


def _reference(name):
    return json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())


def _cheap(ops, names):
    return [op for op in ops if op.name in names]


def test_two_passes_in_one_process_give_the_same_fingerprints():
    ops = _cheap(workloads.quantum_ladder(7), {"P2", "P1^2", "O(-2)->P2", "Bl1P2"})
    ops += _cheap(workloads.spectral_families(7), {"kato_upper.json", "kato-sum-2"})
    reference = {**_reference("quantum-ladder"), **_reference("spectral-families")}
    m = Measurement()
    first = m.run_pass(ops, reference, random.Random(7))
    second = m.run_pass(ops, reference, random.Random(8))
    assert normalize(first) == normalize(second)
    assert m.outcomes == {"ok": 2 * len(ops), "crashed": 0, "mismatched": 0}


def test_unexpected_exception_is_a_failure_and_the_run_continues():
    def boom(ctx):
        raise ValueError("not a documented error")

    def domain_error(ctx):
        raise NotMonotone("documented")

    ops = [
        workloads.Op("boom", boom),
        workloads.Op("domain", domain_error),
        workloads.Op("after", lambda ctx: {"x": 1}),
    ]
    reference = {"boom": {"x": 1}, "domain": {"error": "NotMonotone"}, "after": {"x": 1}}
    m = Measurement()
    fingerprints = m.run_pass(ops, reference, random.Random(0))
    assert m.outcomes == {"ok": 2, "crashed": 1, "mismatched": 0}
    assert fingerprints["after"] == {"x": 1}
    assert fingerprints["domain"] == {"error": "NotMonotone"}


def test_a_wrong_answer_is_a_failure():
    ops = [workloads.Op("answer", lambda ctx: {"dimension": 4})]
    m = Measurement()
    m.run_pass(ops, {"answer": {"dimension": 3}}, random.Random(0))
    m.run_pass(ops, {}, random.Random(0))  # no reference at all
    assert m.outcomes == {"ok": 0, "crashed": 0, "mismatched": 2}


def _bindings():
    out = {}
    for _, modname, fns in TARGETS:
        for mod in (sys.modules[modname], workloads, torfan.lattice_fan):
            for fn in fns:
                if hasattr(mod, fn):
                    out[(mod.__name__, fn)] = getattr(mod, fn)
    return out


def test_wrappers_exist_only_in_the_traced_passes():
    originals = _bindings()
    seen = []

    def probe(ctx):
        # the benchmark's own binding and the defining module's binding
        seen.append(
            (
                ctx.tracer is not None,
                hasattr(workloads.validate_fan, "__wrapped__"),
                hasattr(torfan.lattice_fan.validate_fan, "__wrapped__"),
            )
        )
        return {}

    m = measure([workloads.Op("probe", probe)], {"probe": {}}, seed=0, seconds=0.0, trace=True)
    assert seen == [(False, False, False), (True, True, True)]
    assert _bindings() == originals
    assert len(m.walls) == 1 and len(m.traced_walls) == 1


def test_self_time_excludes_child_spans():
    fan, P = workloads.projective_space(3)
    with Tracer(("workloads",)) as tracer:
        tracer.op_span(lambda: workloads.qh_presentation(fan, P))
    stats = tracer.take_pass()
    assert stats.calls["quantum_algebra.qh_presentation"] == 1
    for child in ("lattice_fan.validate_fan", "exact_algebra.groebner_basis"):
        assert stats.calls[child] == 1
    total = sum(stats.self_s.values())
    assert all(v >= 0 for v in stats.self_s.values())
    assert stats.self_s["quantum_algebra.qh_presentation"] < total
    assert stats.metrics()["exact_algebra.quotient_algebra.dimension"] == 4


def test_cli_crash_and_documented_exits():
    ops = {op.name: op for op in workloads.cli_examples(0)}
    reference = _reference("cli-examples")
    ctx = workloads.Context()
    assert run_op(ops["sh c3_blowup.json"], ctx, reference)[0] == "crashed"
    outcome, fp = run_op(ops["linebundle p1.json"], ctx, reference)
    assert outcome == "ok" and fp == {"exit": 2, "error": "ValidationError"}


def test_spectrum_fingerprint_tolerates_a_split_jordan_block():
    eps = 1e-12
    exact = [0, 0, 0, 2]
    split = [eps ** (1 / 3) * z for z in (1, -0.5 + 0.866025j, -0.5 - 0.866025j)] + [2]
    assert mismatches(normalize(spectrum(split)), normalize(spectrum(exact))) == []
    assert mismatches(normalize(spectrum([0, 0, 1, 1])), normalize(spectrum(exact)))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
