"""The benchmark tracer hooks functions by name; every name it hooks must exist.

A hooked name that disappears makes ``bench/run.py --trace 1`` report
fewer per-layer metrics (with an ``absent`` line) while still exiting 0.
The engine exports only what the package runs or the tracer hooks.
"""

import ast
import importlib.util
import sys
from pathlib import Path

from rvae import engine

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


def engine_names_used_by_the_package():
    """Names the modules of ``rvae`` other than the engine read from it, as
    ``engine.<name>`` or through ``from .engine import``."""
    used = set()
    for path in Path(engine.__file__).parent.glob("*.py"):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "engine"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "engine":
                used.update(alias.name for alias in node.names)
    return used


def test_every_engine_export_is_run_or_traced():
    # an op that only tests call belongs in tests/reference_tape.py
    hooked = {path for module, path, *_ in load_tracing().TARGETS if module == "rvae.engine"}
    used = engine_names_used_by_the_package()
    unused = [name for name in engine.__all__ if name not in used | hooked]
    assert not unused, f"rvae.engine exports names the package never runs: {unused}"
