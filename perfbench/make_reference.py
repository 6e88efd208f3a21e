"""Write the reference fingerprints of one workload.

    PYTHONPATH=src python3 perfbench/make_reference.py <workload> [--seed N]

Runs one untraced pass and stores each operation's fingerprint in
``reference/<workload>.json``; an operation that crashes is stored as
null.  The reference must not depend on the seed: check a new one with
run.py under other seeds before committing it.
"""

import argparse
import json
import sys
from pathlib import Path

import workloads
from fingerprint import normalize
from worker import run_op

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    ctx = workloads.Context()
    # Every operation is "missing" from an empty reference; keep its output.
    reference = {op.name: None for op in ops}
    out = {}
    for op in ops:
        outcome, fp = run_op(op, ctx, reference)
        out[op.name] = None if outcome == "crashed" else normalize(fp)
    path = BENCH_DIR / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(out)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
