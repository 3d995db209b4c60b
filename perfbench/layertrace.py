"""Layer-attributed host-time tracing, installed from outside ``src/``.

The tracer wraps the public entry functions of each layer's classes (the
table in :data:`LAYER_ENTRIES`) with timing wrappers, at class level.  It
must be installed before any ``NumaSystem`` is built: protocols capture
bound methods such as ``interconnect.send`` (as ``_net_send``) when they are
constructed, so a wrapper installed later would never see those calls.

Layers are named after the ``src/repro/`` subpackage that owns the wrapped
class, the way gem5 names each statistic after the SimObject that produced
it.  For every layer the tracer keeps

* ``self_s`` -- time inside the layer's spans minus the time covered by the
  child spans nested in them (any layer, including its own re-entries);
* ``calls`` -- the number of wrapped calls (deterministic for a given
  trace, so exact run to run).

Per-access spans are only aggregated (per point and layer), never stored.
Full span records -- id, parent id, point id, name, layer, start, end --
are kept only at the coarse boundaries (a point, an engine run, a trace
compile, first-touch placement, a DRAM-cache prewarm and results-store
``put``/``get``) and written out by :meth:`LayerTracer.write_spans` when the
run ends.

Blind spot: the ``sampled`` engine measures its windows in forked children.
Spans recorded inside a child die with it, and the parent's wait for the
child lands in ``engines`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: ``(module, class, methods)``.  ``None`` as the method list means "every
#: public function defined on the class" (the directories, whose whole
#: public surface is the entry).
Entry = Tuple[str, str, Optional[Tuple[str, ...]]]

#: Every traced layer with the class methods that form its entry points.
LAYER_ENTRIES: Tuple[Tuple[str, Tuple[Entry, ...]], ...] = (
    ("experiments", (
        ("repro.experiments.common", "ExperimentContext", ("run",)),
    )),
    ("engines", (
        ("repro.engines.exact", "CompiledEngine", ("run",)),
        ("repro.engines.sampled", "SampledEngine", ("run",)),
    )),
    ("engines.setup", (
        ("repro.engines.base", "EngineContext",
         ("prepare_first_touch", "prewarm_dram_caches")),
    )),
    ("workloads", (
        ("repro.engines.base", "EngineContext", ("compile_streams",)),
    )),
    ("cpu", (
        ("repro.cpu.processor", "Core", ("execute_fast",)),
    )),
    ("system", (
        ("repro.system.socket", "Socket", ("access_l1_missed", "access_functional")),
    )),
    ("caches.sram", (
        ("repro.caches.sram_cache", "SetAssociativeCache",
         ("lookup", "insert", "peek", "invalidate")),
    )),
    ("caches.dram", (
        ("repro.caches.dram_cache", "DRAMCache",
         ("probe", "insert", "contains", "invalidate")),
    )),
    ("coherence", (
        ("repro.coherence.baseline", "BaselineProtocol",
         ("read_miss", "write_miss", "llc_eviction",
          "read_miss_functional", "write_miss_functional", "llc_eviction_functional")),
        ("repro.coherence.directory", "GlobalDirectory", None),
        ("repro.coherence.local_directory", "LocalDirectory", None),
    )),
    ("core", (
        ("repro.core.c3d_protocol", "C3DProtocol",
         ("read_miss", "write_miss", "llc_eviction",
          "read_miss_functional", "write_miss_functional", "llc_eviction_functional")),
    )),
    ("interconnect", (
        ("repro.interconnect.network", "Interconnect", ("send", "broadcast", "round_trip")),
    )),
    ("memory", (
        ("repro.memory.main_memory", "MemoryController",
         ("read", "write", "read_fast", "write_fast")),
    )),
    ("stats.store", (
        ("repro.stats.store", "ResultsStore", ("put", "get")),
    )),
)

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(layer for layer, _ in LAYER_ENTRIES)

#: Layers of the timed miss path (everything below the per-access core loop).
MISS_PATH_LAYERS: Tuple[str, ...] = (
    "system", "caches.sram", "caches.dram", "coherence", "core", "interconnect", "memory",
)

#: Entry points that also get a full span record, keyed by (class, method).
COARSE_SPANS: Dict[Tuple[str, str], str] = {
    ("ExperimentContext", "run"): "point",
    ("CompiledEngine", "run"): "engine.run",
    ("SampledEngine", "run"): "engine.run",
    ("EngineContext", "compile_streams"): "compile",
    ("EngineContext", "prepare_first_touch"): "first_touch",
    ("EngineContext", "prewarm_dram_caches"): "prewarm",
    ("ResultsStore", "put"): "store.put",
    ("ResultsStore", "get"): "store.get",
}

#: Pseudo-layer of the benchmark's own point spans (system and workload
#: construction and other glue the wrapped entries do not cover).
BENCH_LAYER = "benchmark"


def _entry_functions(cls, methods: Optional[Sequence[str]]) -> List[str]:
    if methods is not None:
        return list(methods)
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _point_id(args, kwargs) -> str:
    """``workload/protocol`` of an ``ExperimentContext.run(workload, protocol)`` call."""
    workload = args[1] if len(args) > 1 else kwargs["workload_name"]
    protocol = args[2] if len(args) > 2 else kwargs["protocol"]
    return f"{workload}/{protocol}"


class LayerTracer:
    """Class-level timing wrappers plus per-point span aggregation."""

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYERS) + [BENCH_LAYER]
        self._slot = {layer: index for index, layer in enumerate(self.layers)}
        #: Per-layer accumulated self time and call counts (whole run).
        self.self_s: List[float] = [0.0] * len(self.layers)
        self.calls: List[int] = [0] * len(self.layers)
        #: Child-time accumulators of the open spans; index 0 is the root.
        self._stack: List[float] = [0.0]
        #: Full span records at coarse boundaries.
        self.spans: List[Dict] = []
        self._open_spans: List[int] = []
        self._point: Optional[str] = None
        self._point_start: Optional[Tuple[List[float], List[int]]] = None
        #: Per-point aggregates: point id -> {"self_s": [...], "calls": [...]}.
        self.per_point: Dict[str, Dict[str, List]] = {}
        #: Duration of every results-store call (for the median).
        self.store_call_s: List[float] = []
        self._installed: List[Tuple[type, str, object]] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry in :data:`LAYER_ENTRIES` (idempotent per tracer)."""
        if self._installed:
            return
        for layer, entries in LAYER_ENTRIES:
            slot = self._slot[layer]
            for module_name, class_name, methods in entries:
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in _entry_functions(cls, methods):
                    original = vars(cls).get(method)
                    if not inspect.isfunction(original):
                        raise RuntimeError(
                            f"{module_name}.{class_name}.{method} is not a function "
                            "defined on the class; the layer table is out of date"
                        )
                    coarse = COARSE_SPANS.get((class_name, method))
                    if coarse is None:
                        wrapper = self._fine_wrapper(original, slot)
                    else:
                        wrapper = self._coarse_wrapper(original, slot, layer, coarse)
                    self._installed.append((cls, method, original))
                    setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for cls, method, original in reversed(self._installed):
            setattr(cls, method, original)
        self._installed.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks untraced, outside the timed pass.

        Bound methods captured while the wrappers were installed (such as a
        protocol's ``_net_send``) stay wrapped, so only call code that
        resolves its methods through the classes in here.
        """
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _fine_wrapper(self, fn, slot: int):
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[slot] += elapsed - stack.pop()
                calls[slot] += 1
                stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def _coarse_wrapper(self, fn, slot: int, layer: str, name: str):
        tracer = self
        is_point = name == "point"
        is_store = name.startswith("store.")

        def traced(*args, **kwargs):
            point = _point_id(args, kwargs) if is_point else None
            with tracer.span(name, layer, slot, point=point) as record:
                result = fn(*args, **kwargs)
            if is_store:
                tracer.store_call_s.append(record["end"] - record["start"])
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str, layer: str, slot: Optional[int] = None, *,
             point: Optional[str] = None):
        """Time one coarse span; a non-``None`` ``point`` opens a point."""
        if slot is None:
            slot = self._slot[layer]
        stack = self._stack
        outer_point = self._point
        outer_start = self._point_start
        if point is not None:
            self._point = point
            self._point_start = (list(self.self_s), list(self.calls))
        record = {
            "id": len(self.spans),
            "parent": self._open_spans[-1] if self._open_spans else None,
            "point": self._point,
            "name": name,
            "layer": layer,
        }
        self.spans.append(record)
        self._open_spans.append(record["id"])
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            elapsed = end - start
            self.self_s[slot] += elapsed - stack.pop()
            self.calls[slot] += 1
            stack[-1] += elapsed
            self._open_spans.pop()
            record["start"] = start - self._t0
            record["end"] = end - self._t0
            if point is not None:
                self._close_point(point)
                self._point = outer_point
                self._point_start = outer_start

    def point(self, point_id: str):
        """A point span opened by the benchmark itself."""
        return self.span("point", BENCH_LAYER, point=point_id)

    def _close_point(self, point: str) -> None:
        self_before, calls_before = self._point_start
        entry = self.per_point.setdefault(
            point, {"self_s": [0.0] * len(self.layers), "calls": [0] * len(self.layers)}
        )
        for index in range(len(self.layers)):
            entry["self_s"][index] += self.self_s[index] - self_before[index]
            entry["calls"][index] += self.calls[index] - calls_before[index]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": s, "calls": n}}`` over the whole run."""
        return {
            layer: {"self_s": self.self_s[index], "calls": self.calls[index]}
            for index, layer in enumerate(self.layers)
        }

    def write_spans(self, path, metadata: Dict) -> None:
        """Write metadata, coarse spans and per-point aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"type": "metadata", **metadata}, sort_keys=True) + "\n")
            for record in self.spans:
                out.write(json.dumps({"type": "span", **record}, sort_keys=True) + "\n")
            for point, entry in self.per_point.items():
                layers = {
                    layer: {"self_s": entry["self_s"][i], "calls": entry["calls"][i]}
                    for i, layer in enumerate(self.layers)
                    if entry["calls"][i]
                }
                out.write(json.dumps(
                    {"type": "point", "point": point, "layers": layers}, sort_keys=True
                ) + "\n")
