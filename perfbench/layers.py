"""Per-layer timing for the traced run.

The benchmark never adds spans inside ``src/``.  Instead, for a traced
round it wraps the public entry points of each layer (and the
program's own ``repro.obs`` families are read before and after), then
removes the wrappers again, so an untraced round runs the program's
code untouched.

A :class:`LayerRecorder` keeps one frame stack per thread.  Each
wrapped call is timed; its *self time* is its duration minus the time
of the wrapped calls it made.  Samples are keyed by the operation the
call ran under (``score``, ``window``, ``ingest``, ``compress``, ...),
so the same layer can be reported per operation and the per-layer
share table can divide self time by operation time.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (layer name, import path of the owner, attribute, layers it folds into).
#: A call whose nearest recorded caller is one of the fold-into layers is
#: not recorded on its own: its time stays in that caller's self time.
#: Pane routing re-runs the ingest and compression code on each pane,
#: and those inner calls are part of routing, not of the profile ingest.
_PANE = ("windows.route",)
PATCHES: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("server.handler", "repro.service.server:AnalyticsService", "handle_score", ()),
    ("server.handler", "repro.service.server:AnalyticsService", "handle_window", ()),
    ("server.handler", "repro.service.server:AnalyticsService", "handle_ingest", ()),
    ("monitor.score_batch", "repro.apps.monitor:WorkloadMonitor", "score_batch", ()),
    (
        "mixture.point_probabilities",
        "repro.core.mixture:PatternMixtureEncoding",
        "point_probabilities",
        (),
    ),
    ("sql.parse", "repro.sql.features:AligonExtractor", "extract", ()),
    ("fingerprint", "repro.core.featurecache:fingerprint", "", ()),
    ("featurecache", "repro.core.featurecache:FeatureCache", "lookup", ()),
    ("featurecache", "repro.core.featurecache:VocabularyCache", "encode_indices", ()),
    ("ingest.batch", "repro.service.ingest:IncrementalIngestor", "ingest_statements", _PANE),
    ("ingest.merge", "repro.service.ingest:IncrementalIngestor", "_merge", _PANE),
    ("windows.route", "repro.service.windows:WindowedProfile", "ingest", ()),
    ("windows.compose", "repro.service.windows:WindowedProfile", "compose", ()),
    ("store.save", "repro.service.store:SummaryStore", "save", ()),
    ("store.load", "repro.service.store:SummaryStore", "load_state", ()),
    ("store.segment", "repro.service.store:SummaryStore", "append_segment", ()),
    ("store.segment", "repro.service.store:SummaryStore", "read_segment", ()),
    ("logio.load_log", "repro.workloads.logio:load_log", "", _PANE),
    ("pipeline.partition", "repro.core.pipeline:PartitionStage", "run", _PANE),
    ("pipeline.fit", "repro.core.pipeline:FitStage", "run", _PANE),
)

@dataclass
class LayerStat:
    """Accumulated calls of one layer under one operation."""

    calls: int = 0
    errors: int = 0
    total: float = 0.0
    self_total: float = 0.0
    samples: list[float] = field(default_factory=list)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0

    def mean_us(self) -> float:
        return self.total / self.calls * 1e6 if self.calls else 0.0


class _Frame:
    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class LayerRecorder:
    """Thread-safe per-(operation, layer) timing with self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: dict[tuple[str, str], LayerStat] = {}
        self.op_seconds: dict[str, float] = {}
        self.op_counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self) -> tuple[list[_Frame], list[str]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = ["other"]
        return local.stack, local.op

    def _add(self, op: str, layer: str, seconds: float, self_seconds: float, error: bool, outer: bool) -> None:
        with self._lock:
            stat = self.stats.setdefault((op, layer), LayerStat())
            stat.self_total += self_seconds
            if outer:
                stat.calls += 1
                stat.total += seconds
                stat.samples.append(seconds)
                stat.errors += int(error)

    @contextmanager
    def op(self, name: str):
        """Run an operation: the root frame that layer self times divide."""
        stack, op = self._state()
        op.append(name)
        frame = _Frame("op")
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            op.pop()
            if stack:
                stack[-1].child += seconds
            with self._lock:
                self.op_seconds[name] = self.op_seconds.get(name, 0.0) + seconds
                self.op_counts[name] = self.op_counts.get(name, 0) + 1
                stat = self.stats.setdefault((name, "op"), LayerStat())
                stat.self_total += seconds - frame.child

    def call(self, layer: str, fn, *args, fold_into: tuple[str, ...] = (), **kwargs):
        """Time ``fn(*args, **kwargs)`` as one call of *layer*."""
        stack, op = self._state()
        if fold_into and stack and stack[-1].layer in fold_into:
            return fn(*args, **kwargs)
        outer = not (stack and stack[-1].layer == layer)
        frame = _Frame(layer)
        stack.append(frame)
        error = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            error = True
            raise
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1].child += seconds
            self._add(op[-1], layer, seconds, seconds - frame.child, error, outer)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`PATCHES`."""
        import importlib

        for layer, target, attr, fold_into in PATCHES:
            module_name, owner_name = target.split(":")
            module = importlib.import_module(module_name)
            if attr:
                owner = getattr(module, owner_name)
                name = attr
            else:
                owner, name = module, owner_name
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            setattr(owner, name, self._wrapper(layer, original, fold_into))
            self._patches.append((owner, name, original))
        # Module-level functions are also bound by name in their
        # importers; rebind those references too.
        import repro.service.windows as windows
        import repro.workloads as workloads

        for module in (windows, workloads):
            original = module.load_log
            wrapped = self._wrapper("logio.load_log", original, _PANE)
            module.load_log = wrapped
            self._patches.append((module, "load_log", original))

    def install_server_ops(self) -> None:
        """Make each endpoint handler an operation root (the HTTP
        server child has no benchmark loop around its handlers)."""
        from repro.service.server import AnalyticsService

        for kind in ("score", "window", "ingest"):
            name = f"handle_{kind}"
            original = AnalyticsService.__dict__[name]
            setattr(AnalyticsService, name, self._op_wrapper(kind, original))
            self._patches.append((AnalyticsService, name, original))

    def _op_wrapper(self, kind: str, original):
        recorder = self

        @functools.wraps(original)
        def as_op(*args, **kwargs):
            with recorder.op(kind):
                return original(*args, **kwargs)

        return as_op

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrapper(self, layer: str, original, fold_into: tuple[str, ...]):
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return recorder.call(layer, original, *args, fold_into=fold_into, **kwargs)

        return timed

    # ------------------------------------------------------------------
    def stat(self, op: str, layer: str) -> LayerStat:
        return self.stats.get((op, layer), LayerStat())

    def layer_total(self, layer: str) -> LayerStat:
        """One layer summed over every operation."""
        merged = LayerStat()
        for (_, name), stat in self.stats.items():
            if name == layer:
                merged.calls += stat.calls
                merged.errors += stat.errors
                merged.total += stat.total
                merged.self_total += stat.self_total
                merged.samples.extend(stat.samples)
        return merged

    def to_payload(self) -> dict:
        """JSON-ready dump (the HTTP server child hands its record back)."""
        return {
            "stats": [
                [op, layer, s.calls, s.errors, s.total, s.self_total, s.samples]
                for (op, layer), s in self.stats.items()
            ],
            "op_seconds": self.op_seconds,
            "op_counts": self.op_counts,
        }

    def merge_payload(self, payload: dict) -> None:
        """Fold another recorder's dump into this one."""
        with self._lock:
            for op, layer, calls, errors, total, self_total, samples in payload["stats"]:
                stat = self.stats.setdefault((op, layer), LayerStat())
                stat.calls += calls
                stat.errors += errors
                stat.total += total
                stat.self_total += self_total
                stat.samples.extend(samples)
            for name, seconds in payload["op_seconds"].items():
                self.op_seconds[name] = self.op_seconds.get(name, 0.0) + seconds
            for name, count in payload["op_counts"].items():
                self.op_counts[name] = self.op_counts.get(name, 0) + count


# ----------------------------------------------------------------------
# the program's own telemetry families (repro.obs), read around a round
# ----------------------------------------------------------------------
#: Families the share table and the count-type layer metrics read.
FAMILIES = (
    "logr_parse_cache_lookups_total",
    "logr_ingest_recompressions_total",
    "logr_ingest_merge_seconds",
    "logr_panes_sealed_total",
    "logr_pipeline_stage_seconds",
    "logr_store_writes_total",
)


def registry_totals() -> dict[str, float]:
    """Current values of :data:`FAMILIES` on the process-default registry.

    Keys are ``family{label=value,...}``; a histogram contributes its
    sum under that key and its count under ``...#count``.
    """
    from repro.obs import DEFAULT_REGISTRY

    totals: dict[str, float] = {}
    for family in DEFAULT_REGISTRY.snapshot():
        if family.name not in FAMILIES:
            continue
        for sample in family.samples:
            key = family.name + "{" + ",".join(f"{k}={v}" for k, v in sample.labels) + "}"
            totals[key] = sample.value
            if family.kind == "histogram":
                totals[key + "#count"] = float(sample.count)
    return totals


def parse_exposition(text: str) -> dict[str, float]:
    """:func:`registry_totals` read from a ``/metrics`` scrape instead."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        labels = labels.rstrip("}")
        suffix = ""
        if name.endswith("_sum"):
            name = name[: -len("_sum")]
        elif name.endswith("_count"):
            name, suffix = name[: -len("_count")], "#count"
        if name not in FAMILIES:
            continue
        pairs = [p.split("=", 1) for p in labels.split(",") if p]
        key = name + "{" + ",".join(f"{k}={v.strip(chr(34))}" for k, v in pairs) + "}"
        totals[key + suffix] = float(value)
    return totals


def delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Per-key growth between two readings."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def family_sum(totals: dict[str, float], family: str, **labels: str) -> float:
    """Sum of a family's samples whose labels include *labels*."""
    total = 0.0
    for key, value in totals.items():
        name, _, rest = key.partition("{")
        if name != family or key.endswith("#count"):
            continue
        pairs = dict(p.split("=", 1) for p in rest.rstrip("}").split(",") if p)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += value
    return total
