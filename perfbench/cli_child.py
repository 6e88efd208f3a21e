"""Run one torfan CLI command in this process, traced.

    python perfbench/cli_child.py <torfan cli arguments>

Behaves like ``python -m torfan.cli``: same output, same exit status, and
an uncaught exception still ends in a traceback.  In addition it prints
one stderr line, starting with ``tracing.TRACE_PREFIX``, holding the time
to import torfan.cli and the spans of tracing.py folded into one pass.
"""

import json
import sys
import time

from tracing import TRACE_PREFIX, Tracer


def main(argv):
    start = time.perf_counter()
    import torfan.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    try:
        with tracer:
            return torfan.cli.main(argv)
    finally:
        summary = {
            "import_s": import_s,
            "covered_s": tracer.covered_s(),
            "stats": tracer.take_pass().as_json(),
        }
        print(TRACE_PREFIX + json.dumps(summary), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
