"""The benchmark tracer wraps torfan functions by module and name; each
of its targets must still exist, or only a traced run would notice."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{modname}.{fn}"
        for _, modname, fns in tracing.TARGETS
        for fn in fns
        if not callable(getattr(importlib.import_module(modname), fn, None))
    ]
    assert tracing.TARGETS and not missing
