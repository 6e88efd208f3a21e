"""One run of one workload, in a fresh interpreter started by run.py.

The worker imports torfan, builds the workload's operations from the seed,
finishes lazy set-up, and prints ``ready``; run.py times the interval from
process start to that line as set-up.  It then runs whole passes of the
operation list, one operation at a time, until the next pass would end
after ``--seconds``, and prints one JSON line with the raw measurements.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, so the tracing overhead is the difference of the
two median pass times.  The wrappers exist only inside the traced half.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# On a host with 2 shared vCPUs (where the figures below were measured)
# the same Python code runs up to 2x slower or faster from one few-second
# stretch to the next, and the speed differs between runs.  Every operation
# is therefore bracketed by a probe, and its time is scaled by the probe's
# nominal time over the mean of the two probes: reported times are seconds
# at the speed at which the probe takes its nominal time.
#
# In-process operations use ``calibrate()``, 5 ms of exact rational
# arithmetic.  Over eight runs of the quantum-ladder workload this cut the
# spread (interquartile range over median) of the pass time from 0.15 to
# 0.044; a probe of small numpy solves tracked the speed worse.  CLI
# invocations, which spend their time starting up and importing, did not
# follow that probe; they use ``calibrate_process()``, a fresh interpreter
# importing numpy.  Its time correlated 0.95 with that of neighbouring
# ``torfan.cli qh`` invocations, and scaling by it cut their spread from
# 0.28 to 0.14 over 40 s.  The probe does not import torfan, so a change
# to torfan's start-up still shows in full.
CALIBRATION_S = 0.005
PROCESS_CALIBRATION_S = 0.25
_CAL_MATRIX = [[Fraction(7 * i + 3 * j + 1, j + 2) for j in range(6)] for i in range(6)]


def calibrate():
    """Seconds a fixed piece of exact rational arithmetic takes right now."""
    start = time.perf_counter()
    A = _CAL_MATRIX
    for _ in range(3):
        A = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_CAL_MATRIX)] for row in A]
        A = [[x / (abs(x) + 1) for x in row] for row in A]
    return time.perf_counter() - start


def calibrate_process():
    """Seconds a fresh interpreter takes right now to start and import numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def run_op(op, ctx, reference):
    """Run one operation; returns "ok", "crashed" or "mismatched".

    A documented ``TorfanError`` is a completed operation whose fingerprint
    is the error class.  Any other exception is a crash.  A reference of
    None marks an operation that crashed when the reference was made; a
    later completion of it has nothing to be compared with.
    """
    from fingerprint import mismatches, normalize
    from torfan.errors import TorfanError

    def attempt():
        try:
            return op.run(ctx)
        except TorfanError as exc:
            return {"error": type(exc).__name__}

    try:
        fp = attempt() if ctx.tracer is None else ctx.tracer.op_span(attempt)
    except Exception:
        print(f"[perfbench] {op.name}: crashed", file=sys.stderr)
        traceback.print_exc(limit=2, file=sys.stderr)
        return "crashed", None
    if op.name not in reference:
        print(f"[perfbench] {op.name}: no reference fingerprint", file=sys.stderr)
        return "mismatched", fp
    want = reference[op.name]
    diff = [] if want is None else mismatches(normalize(fp), want)
    if diff:
        print(f"[perfbench] {op.name}: differs from reference: {diff[:5]}", file=sys.stderr)
        return "mismatched", fp
    return "ok", fp


class Measurement:
    """Everything one run records, pass by pass."""

    def __init__(self, probe=calibrate, probe_s=CALIBRATION_S):
        self.probe = probe
        self.probe_s = probe_s
        self.walls = []  # per untraced pass: sum of scaled operation times
        self.traced_walls = []
        self.raw_walls = []  # per untraced pass, unscaled
        self.op_times = {}  # operation name -> scaled time in each untraced pass
        self.outcomes = {"ok": 0, "crashed": 0, "mismatched": 0}
        self.layer_passes = []  # PassStats.metrics() of each traced pass
        self.cli_import_s = []

    def run_pass(self, ops, reference, rng, tracer=None):
        """One pass over the operations in a seeded order; returns the
        fingerprints by operation name."""
        from workloads import Context

        ctx = Context(tracer)
        order = list(ops)
        rng.shuffle(order)
        fingerprints = {}
        before = self.probe()
        raw = scaled = 0.0
        for op in order:
            t = time.perf_counter()
            outcome, fingerprints[op.name] = run_op(op, ctx, reference)
            latency = time.perf_counter() - t
            after = self.probe()
            latency_scaled = latency * self.probe_s * 2 / (before + after)
            before = after
            raw += latency
            scaled += latency_scaled
            if tracer is None:
                self.op_times.setdefault(op.name, []).append(latency_scaled)
            self.outcomes[outcome] += 1
        if tracer is None:
            self.walls.append(scaled)
            self.raw_walls.append(raw)
        else:
            self.traced_walls.append(scaled)
            layers = tracer.take_pass().metrics()
            for name in layers:
                if name.endswith("self_s"):
                    layers[name] *= scaled / raw
            self.layer_passes.append(layers)
            self.cli_import_s.extend(ctx.cli_import_s)
        return fingerprints


def passes_within(budget, run_one):
    """Run whole passes while the next one, at the median pass time so far,
    still ends within ``budget`` seconds; at least one."""
    start = time.perf_counter()
    walls = []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= budget:
        t = time.perf_counter()
        run_one()
        walls.append(time.perf_counter() - t)


def measure(
    ops, reference, seed, seconds, trace, probe=calibrate, probe_s=CALIBRATION_S, consumers=("workloads",)
):
    """Untraced passes for ``seconds`` (half of it with ``trace``), then,
    with ``trace``, traced passes for the other half."""
    from tracing import Tracer

    m = Measurement(probe, probe_s)
    rng = random.Random(seed)
    passes_within(seconds / 2 if trace else seconds, lambda: m.run_pass(ops, reference, rng))
    if trace:
        with Tracer(consumers) as tracer:
            passes_within(seconds / 2, lambda: m.run_pass(ops, reference, rng, tracer))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import torfan
    import torfan.cli  # noqa: F401  (imports every layer)

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    reference = json.loads((BENCH_DIR / "reference" / f"{args.workload}.json").read_text())
    if workload.in_process:
        workloads.warm_up()
    prepare_s = time.perf_counter() - start
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if workload.in_process:
        probe, probe_s = calibrate, CALIBRATION_S
    else:
        probe, probe_s = calibrate_process, PROCESS_CALIBRATION_S
    m = measure(ops, reference, args.seed, args.seconds, bool(args.trace), probe, probe_s)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    out = {
        "kernel": torfan.KERNEL,
        "ops_per_pass": len(ops),
        "walls": m.walls,
        "traced_walls": m.traced_walls,
        "raw_walls": m.raw_walls,
        "op_times": m.op_times,
        "outcomes": m.outcomes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "import_s": statistics.median(m.cli_import_s) if m.cli_import_s else import_s,
        "prepare_s": prepare_s,
        "layer_passes": m.layer_passes,
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
