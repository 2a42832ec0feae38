"""Spans and counters recorded from outside the package.

The tracer wraps public functions and methods of ``rvae`` for the length
of one traced pipeline iteration. A function is patched under every name
it is reachable by at call time: ``rvae.engine.matmul`` is looked up as
``engine.matmul`` from ``model.py``, while ``from ... import`` copies such
as ``rvae.cli.score`` or ``rvae.train.adam_step`` are separate bindings of
the same object, so every ``rvae`` module attribute holding the original
is replaced. A target that no longer exists is reported as missing, and
the metrics derived from it are left out.

Spans (name, layer, stage, start, end, parent) stay in memory until the
iteration ends. A span's self time is its duration minus the time its
child spans cover, so the self times of one stage add up to its wall.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _matmul_flops(tracer, args, kwargs, result):
    # forward a @ b plus the two backward products, 2 flops per multiply-add
    a, b = (getattr(x, "value", x) for x in args[:2])
    m, k = a.shape
    tracer.add("matmul_flops", 6 * m * k * b.shape[1])


def _em_iterations(tracer, args, kwargs, result):
    tracer.add("em_iterations", len(result[1]))


def _file_bytes(counter, *positions):
    def hook(tracer, args, kwargs, result):
        for i in positions:
            if i < len(args) and args[i] is not None and os.path.exists(args[i]):
                tracer.add(counter, os.path.getsize(args[i]))
    return hook


# (module, attribute path, layer, record a span?, hook). Every call also
# bumps a counter named after the attribute path; spans carry that name.
TARGETS = [
    ("rvae.data", "read_table", "data", True, None),
    ("rvae.data", "write_table", "data", True, None),
    ("rvae.data", "standardize", "data", True, None),
    ("rvae.data", "apply_stats", "data", True, None),
    ("rvae.data", "EmbeddingBank.renormalize", "data", True, None),
    ("rvae.corrupt", "make_scenario", "corrupt", True, None),
    ("rvae.corrupt", "CorruptionRecord.save", "corrupt", True, None),
    ("rvae.corrupt", "CorruptionRecord.load", "corrupt", True, None),
    ("rvae.engine", "Tensor.__init__", "engine", False, None),
    ("rvae.engine", "Tensor.backward", "engine", True, None),
    ("rvae.engine", "matmul", "engine", False, _matmul_flops),
    ("rvae.engine", "log_softmax", "engine", False, None),
    ("rvae.engine", "gather_cols", "engine", False, None),
    ("rvae.engine", "take_rows", "engine", False, None),
    ("rvae.engine", "concat", "engine", False, None),
    ("rvae.nn", "adam_step", "nn", True, None),
    ("rvae.nn", "Rng.derive", "nn", False, None),
    ("rvae.nn", "Rng.normal", "nn", False, None),
    ("rvae.nn", "Rng.uniform", "nn", False, None),
    ("rvae.nn", "Rng.integers", "nn", False, None),
    ("rvae.train", "batch_objective", "model", True, None),
    ("rvae.model", "encode_values", "model", True, None),
    ("rvae.model", "Encoder.latent_values", "model", True, None),
    ("rvae.model", "decode_values", "model", True, None),
    ("rvae.model", "clean_logliks_values", "model", True, None),
    ("rvae.model", "outlier_logliks", "model", True, None),
    ("rvae.train", "train", "train", True, None),
    ("rvae.train", "save_model", "train", True, None),
    ("rvae.train", "load_model", "train", True, None),
    ("rvae.container", "write_container", "container", True, None),
    ("rvae.container", "read_container", "container", True, _file_bytes("container_bytes", 0)),
    ("rvae.score_repair", "score", "score_repair", True, None),
    ("rvae.score_repair", "repair_map", "score_repair", True, None),
    ("rvae.score_repair", "repair_one_stage", "score_repair", True, None),
    ("rvae.score_repair", "repair_two_stage", "score_repair", True, None),
    ("rvae.score_repair", "ScoreReport.save", "score_repair", True, _file_bytes("artifact_bytes", 1)),
    ("rvae.score_repair", "RepairResult.save", "score_repair", True,
     _file_bytes("artifact_bytes", 1, 2)),
    ("rvae.score_repair", "ScoreReport.load", "score_repair", True, None),
    ("rvae.score_repair", "load_simplexes", "score_repair", True, None),
    ("rvae.metrics", "evaluate", "metrics", True, None),
    ("rvae.metrics", "EvalReport.save", "metrics", True, None),
    ("rvae.baselines", "fit_marginals", "baselines", True, None),
    ("rvae.baselines", "fit_gmm_1d", "baselines", False, _em_iterations),
    ("rvae.baselines", "marginal_score", "baselines", True, None),
    ("rvae.baselines", "marginal_repair", "baselines", True, None),
]


@dataclass
class Span:
    name: str
    layer: str
    stage: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans and per-stage counters of one traced iteration."""

    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    missing: list[str] = field(default_factory=list)
    stage: str | None = None
    _stack: list[int] = field(default_factory=list)
    _restore: list = field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.stage is not None

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[self.stage][counter] += n

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, self.stage, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            # children of one parent run one after another (one thread)
            self.spans[span.parent].child_time += span.duration

    def run_stage(self, stage: str, layer: str, fn):
        """Call ``fn`` as one pipeline stage under a root span."""
        self.stage = stage
        idx = self.open(f"stage:{stage}", layer)
        try:
            return fn()
        finally:
            self.close(idx)
            self.stage = None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, layer, span, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = _wrap(raw, self, path, layer, span, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))
            else:
                for mod in _rvae_modules():
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, name, wrapped)
                            self._restore.append((mod, name, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


def _rvae_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rvae" or name.startswith("rvae."))]


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if parts[-1] not in owner.__dict__:
            raise AttributeError(path)
    else:
        getattr(owner, parts[-1])
    return owner, parts[-1]


def _wrap(raw, tracer: Tracer, path: str, layer: str, span: bool, hook):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(raw.__func__, tracer, path, layer, span, hook))

    @functools.wraps(raw)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return raw(*args, **kwargs)
        tracer.add(path)
        if span:
            idx = tracer.open(path, layer)
            try:
                result = raw(*args, **kwargs)
            finally:
                tracer.close(idx)
        else:
            result = raw(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper
