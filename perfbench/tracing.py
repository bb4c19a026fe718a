"""Span tracing of loadshapes calls, installed from outside the package.

The tracer replaces public functions and methods of the loadshapes modules
with wrappers that record a span (name, start, end, parent) around each
call. Modules that imported a function by name (``from .cluster import
adaptive_kmeans``) and module-level dicts of functions (the pipeline's
stage table) hold their own references, so every such reference is swapped
too. ``restore`` puts every original back. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "ingest.read_meter_corpus": ("loadshapes.ingest", "read_meter_corpus"),
    "ingest.read_weather": ("loadshapes.ingest", "read_weather"),
    "ingest.read_survey": ("loadshapes.ingest", "read_survey"),
    "preprocess.preprocess_days": ("loadshapes.preprocess", "preprocess_days"),
    "preprocess.subsample": ("loadshapes.preprocess", "subsample"),
    "cluster.adaptive_kmeans": ("loadshapes.cluster", "adaptive_kmeans"),
    "cluster.kmeans": ("loadshapes.cluster", "kmeans"),
    "cluster.hierarchical_merge": ("loadshapes.cluster", "hierarchical_merge"),
    "cluster.save_model": ("loadshapes.cluster", "save_model"),
    "cluster.load_model": ("loadshapes.cluster", "load_model"),
    "dictionary.truncate": ("loadshapes.dictionary", "truncate"),
    "dictionary.assign_all": ("loadshapes.dictionary", "assign_all"),
    "dictionary.save_dictionary": ("loadshapes.dictionary", "save_dictionary"),
    "dictionary.load_dictionary": ("loadshapes.dictionary", "load_dictionary"),
    "analytics.build_frame": ("loadshapes.analytics", "build_frame"),
    "analytics.temperature_quartiles": ("loadshapes.analytics", "temperature_quartiles"),
    "analytics.stratified_entropy": ("loadshapes.analytics", "stratified_entropy"),
    "analytics.household_entropy": ("loadshapes.analytics", "household_entropy"),
    "analytics.characteristic_entropy_delta": (
        "loadshapes.analytics", "characteristic_entropy_delta"),
    "analytics.coverage_curve": ("loadshapes.analytics", "coverage_curve"),
    "analytics.peak_taxonomy": ("loadshapes.analytics", "peak_taxonomy"),
    "analytics.occurrence_map": ("loadshapes.analytics", "occurrence_map"),
    "analytics.write_entropy_csv": ("loadshapes.analytics", "write_entropy_csv"),
    "analytics.write_coverage_csv": ("loadshapes.analytics", "write_coverage_csv"),
    "analytics.write_taxonomy_csv": ("loadshapes.analytics", "write_taxonomy_csv"),
    "analytics.write_char_deltas_csv": ("loadshapes.analytics", "write_char_deltas_csv"),
    "analytics.write_occurrence_csv": ("loadshapes.analytics", "write_occurrence_csv"),
    "pipeline.run_pipeline": ("loadshapes.pipeline", "run_pipeline"),
    "pipeline.run_id_for": ("loadshapes.pipeline", "run_id_for"),
    "pipeline.stage_ingest": ("loadshapes.pipeline", "stage_ingest"),
    "pipeline.stage_cluster": ("loadshapes.pipeline", "stage_cluster"),
    "pipeline.stage_truncate": ("loadshapes.pipeline", "stage_truncate"),
    "pipeline.stage_assign": ("loadshapes.pipeline", "stage_assign"),
    "pipeline.stage_analyze": ("loadshapes.pipeline", "stage_analyze"),
    "synthetic.generate_synthetic": ("loadshapes.synthetic", "generate_synthetic"),
}

# span name -> (module, class, method)
METHODS = {
    "preprocess.ShapeTable.write_csv": ("loadshapes.preprocess", "ShapeTable", "write_csv"),
    "preprocess.ShapeTable.read_csv": ("loadshapes.preprocess", "ShapeTable", "read_csv"),
    "dictionary.AssignmentTable.write_csv": (
        "loadshapes.dictionary", "AssignmentTable", "write_csv"),
    "dictionary.AssignmentTable.read_csv": (
        "loadshapes.dictionary", "AssignmentTable", "read_csv"),
    "synthetic.SyntheticCorpus.write": ("loadshapes.synthetic", "SyntheticCorpus", "write"),
}


class Tracer:
    """Records nested spans; ``install``/``restore`` manage the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(original, self._wrap(name, original))
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(cls, attr, wrapped)
            self._undo.append((setattr, cls, attr, raw))

    def _replace_everywhere(self, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "loadshapes" or n.startswith("loadshapes.")]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def restore(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def span_or_null(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def installed_or_null(tracer: Tracer | None):
    """Wrappers installed for the ``with`` block, when there is a tracer."""
    return tracer if tracer is not None else contextlib.nullcontext()


class SpanIndex:
    """Durations, self times and ancestry queries over a finished span list."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.duration = [s["end"] - s["start"] for s in spans]
        child_time = [0.0] * len(spans)
        for s, d in zip(spans, self.duration):
            if s["parent"] is not None:
                child_time[s["parent"]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def under(self, name: str, root: str | None = None) -> list[int]:
        """Indices of spans called ``name``, optionally only inside spans
        called ``root``."""
        found = []
        for i, s in enumerate(self.spans):
            if s["name"] != name:
                continue
            if root is None or self._has_ancestor(i, root):
                found.append(i)
        return found

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i]["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def total(self, name: str, root: str | None = None) -> float:
        return sum(self.duration[i] for i in self.under(name, root))

    def total_self(self, name: str, root: str | None = None) -> float:
        return sum(self.self_time[i] for i in self.under(name, root))

    def count(self, name: str, root: str | None = None) -> int:
        return len(self.under(name, root))

    def children(self, i: int) -> list[int]:
        return [j for j, s in enumerate(self.spans) if s["parent"] == i]
