#!/usr/bin/env python3
"""torfan's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quantum-ladder --seed 1 --seconds 30 --trace 0

Runs from the root of a plain checkout: torfan is imported from ``src``
(PYTHONPATH=src, handed on to every child process), nothing is installed
or built.  Every run is a closed loop with one client: one process runs the
workload's operations one at a time, and starts no threads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
README.md).  The line before it records the workload, the seed, the active
monomial kernel and the sample counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROCESS_CALIBRATION_S, calibrate_process

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

# Fresh interpreters timed for setup_s before the measuring one starts.
# Like a CLI invocation (see worker.py), each is scaled by the mean of the
# fresh-interpreter probes run just before and after it.
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170

# One client on a host with 2 shared vCPUs: numpy's BLAS starts no thread
# pool, in the worker, in the CLI processes or in the probes.  With its
# default two threads the probe-scaled time of a CLI invocation spread 0.086
# over 80 s; single-threaded it spread 0.056.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(argv, deadline):
    """Start a worker; returns it and the seconds until it printed ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up ran past the deadline")
    return proc, setup


def quantile(values, q):
    """Inclusive quantile of at least two values, q in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(raw, setups):
    # Operations differ by orders of magnitude, so percentiles are taken
    # over the operations, each at its mean over the passes; a percentile
    # that falls between two operations then does not jump with noise.  With
    # two to eight passes a run, the mean spread less than the median over
    # eight runs (cli-examples op_p90_s 0.046 against 0.064).
    per_op = [statistics.mean(times) for times in raw["op_times"].values()]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(raw["walls"]), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (quantile(per_op, 0.9), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw):
    passes = raw["layer_passes"]
    out = {}
    for name in passes[0]:
        unit = "s" if name.endswith("_s") else "count"
        if name.endswith(("yield", "defect_max")):
            unit = "ratio"
        out[name] = (statistics.median(p[name] for p in passes), unit)
    untraced = statistics.median(raw["walls"])
    traced = statistics.median(raw["traced_walls"])
    out["cli.import_s"] = (raw["import_s"], "s")
    out["setup.prepare_s"] = (raw["prepare_s"], "s")
    out["trace.wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one workload of torfan's benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torfan" / "__init__.py").is_file():
        print(f"perfbench: no torfan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    proc = None
    try:
        setups = []
        probes = [calibrate_process()]
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker([*common, "--seconds", "0", "--setup-only"], deadline)
            proc.communicate(timeout=30)
            probes.append(calibrate_process())
            setups.append(setup * PROCESS_CALIBRATION_S * 2 / (probes[-2] + probes[-1]))
        proc, _ = start_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(out.strip().splitlines()[-1])

    outcomes = raw["outcomes"]
    attempted = sum(outcomes.values())
    failed = outcomes["crashed"] + outcomes["mismatched"]
    metrics = per_layer(raw) if args.trace else end_to_end(raw, setups)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel": raw["kernel"],
        "passes": len(raw["walls"]),
        "traced_passes": len(raw["traced_walls"]),
        "ops_per_pass": raw["ops_per_pass"],
        "latency_samples": sum(len(t) for t in raw["op_times"].values()),
        "raw_wall_s": statistics.median(raw["raw_walls"]),
        "setup_samples": len(setups),
        "failed_frac": failed / attempted,
        "crashed": outcomes["crashed"],
        "mismatched": outcomes["mismatched"],
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": outcomes["mismatched"] == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
