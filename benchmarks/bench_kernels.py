#!/usr/bin/env python3
"""Compare the compiled monomial kernel against the pure-Python
fallback on a Groebner-basis workload.

Runs the same benchmark twice in subprocesses (the kernel is chosen at
import time) and prints the timings side by side.  The child processes
import torfan from this checkout's ``src``, so nothing has to be
installed:

    python3 benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WORKLOAD = textwrap.dedent(
    """
    import json, time
    import torfan
    from torfan.exact_algebra import Ring, groebner_basis, quotient_algebra

    ring = Ring(("x", "y", "z", "w"))
    x, y, z, w = (ring.var(i) for i in range(4))
    ideal = [
        x ** 3 + y ** 2 - z * w,
        y ** 3 - x * z + w ** 2,
        z ** 3 - x * y * w - 1,
        w ** 2 - x - y - z,
    ]
    start = time.perf_counter()
    reps = 5
    for _ in range(reps):
        G = groebner_basis(ideal)
        A = quotient_algebra(G)
    elapsed = (time.perf_counter() - start) / reps
    print(json.dumps({
        "kernel": torfan.KERNEL,
        "seconds": elapsed,
        "dimension": A.dimension,
    }))
    """
)


def run(pure_python):
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if pure_python:
        env["TORFAN_PURE_PYTHON"] = "1"
    else:
        env.pop("TORFAN_PURE_PYTHON", None)
    out = subprocess.run(
        [sys.executable, "-c", WORKLOAD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    compiled = run(pure_python=False)
    fallback = run(pure_python=True)
    if compiled["dimension"] != fallback["dimension"]:
        raise SystemExit("kernels disagree on the quotient dimension")
    print(f"workload: Groebner basis + quotient algebra (dim {compiled['dimension']})")
    for r in (compiled, fallback):
        print(f"  {r['kernel']:>7} kernel: {r['seconds']:.3f} s per run")
    if compiled["kernel"] == fallback["kernel"]:
        print("note: compiled kernel unavailable; both runs used the fallback")
    else:
        speedup = fallback["seconds"] / compiled["seconds"]
        print(f"  speedup: {speedup:.2f}x")


if __name__ == "__main__":
    main()
