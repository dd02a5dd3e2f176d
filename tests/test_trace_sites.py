"""The benchmark traces cfqp by rebinding, for the length of a traced
run, the names one cfqp module imported from another (the PATCH_SITES
of benchmark/tracing.py).  A refactor that drops such a binding would
otherwise break only the traced benchmark run, and one that rebinds such
a name to another function would make the trace time the wrong thing."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_benchmark_patch_sites_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.PATCH_SITES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert tracing.PATCH_SITES and not missing
    # Each bound name is its defining module's own function, not a copy
    # that could drift from it.
    stale = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.PATCH_SITES
        if (fn := getattr(importlib.import_module(module), attribute))
        is not getattr(importlib.import_module(fn.__module__), fn.__name__)
    ]
    assert not stale
