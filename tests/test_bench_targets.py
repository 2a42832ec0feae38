"""The benchmark tracer hooks functions by name; every name it hooks must exist.

A hooked name that disappears makes ``bench/run.py --trace 1`` report
fewer per-layer metrics (with an ``absent`` line) while still exiting 0.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for module_name, path, *_ in tracing.TARGETS:
        try:
            tracing._resolve(importlib.import_module(module_name), path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
    assert not missing, f"bench/tracing.py hooks names that no longer exist: {missing}"
