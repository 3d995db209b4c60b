"""The benchmark's three workloads and their output checks.

Each workload is a closed loop: one caller runs its points one after
another in this process (no worker pool).  A workload is built in two steps
so set-up can be timed on its own: :meth:`setup` (import the simulator,
build settings and machine configurations, open a fresh results store) and
:meth:`run_pass` (every point once, timed, then checked).

Why these three (README.md has the layer predictions):

* ``paper-quick`` -- the 18 baseline/c3d points behind Table I and
  Figs. 6, 8 and 9 at ``ExperimentSettings.quick()``, driven through the
  public figure functions with a fresh results store.  Miss-dominated, so the
  timed miss path does most of the work; the only workload that writes to
  and reads back from the store.
* ``hotset-l1`` -- the cache-resident ``hotset`` micro-spec: ~99 % L1 hits,
  so the per-access core and engine loop do the work and the miss path is
  bypassed.
* ``sampled-facesim`` -- facesim on the serial ``sampled`` engine, where
  functional fast-forward dominates and interconnect/memory timing is idle.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

PROTOCOLS = ("baseline", "c3d")

#: Units of :meth:`PassOutcome.model_counts`.
MODEL_COUNT_UNITS = {
    "caches.l1_miss_rate": "fraction",
    "caches.llc_miss_rate": "fraction",
    "caches.dram_hit_rate": "fraction",
    "interconnect.bytes_per_access": "B/access",
    "memory.accesses_per_access": "1/access",
    "engines.detail_fraction": "fraction",
}


@dataclass
class PointOutcome:
    """One simulated (workload, design) point and what its checks found."""

    point: str
    #: Trace accesses the point consumed: run-level warm-up plus the
    #: measured region (detail, warm-up windows and fast-forward alike).
    consumed: int
    #: Accesses whose statistics were counted (detail accesses when sampled).
    measured: int
    record: Dict
    stats: object
    inter_socket_bytes: int
    errors: List[str] = field(default_factory=list)
    #: Host time of the point (only where the benchmark runs points itself).
    seconds: Optional[float] = None


@dataclass
class PassOutcome:
    """One pass over a workload's points."""

    #: Host wall time of the workload's simulation calls (for ``paper-quick``
    #: the cold pass plus the warm re-read pass).
    wall_s: float
    #: Host time inside the simulation calls proper (the cold pass).
    sim_s: float
    points: List[PointOutcome]
    #: Failures that cannot be pinned to one point (they fail every point).
    errors: List[str] = field(default_factory=list)
    #: Deterministic workload-level results (fidelity gaps, CI widths).
    results: Dict[str, float] = field(default_factory=dict)

    @property
    def consumed(self) -> int:
        return sum(point.consumed for point in self.points)

    def failed_points(self) -> List[str]:
        if self.errors:
            return [point.point for point in self.points]
        return [point.point for point in self.points if point.errors]

    def stats_sha256(self) -> str:
        """Digest over every point's full statistics JSON, in point order."""
        payload = [{"point": point.point, **point.record} for point in self.points]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def model_counts(self) -> Dict[str, float]:
        """Simulated-model ratios summed over the points (deterministic)."""
        totals: Dict[str, int] = {}
        for name in ("l1_hits", "l1_misses", "llc_hits", "llc_misses",
                     "dram_cache_hits", "dram_cache_misses"):
            totals[name] = sum(getattr(point.stats, name) for point in self.points)
        measured = sum(point.measured for point in self.points)
        memory = sum(point.stats.memory_accesses for point in self.points)
        inter_socket = sum(point.inter_socket_bytes for point in self.points)
        return {
            "caches.l1_miss_rate": _ratio(totals["l1_misses"],
                                          totals["l1_hits"] + totals["l1_misses"]),
            "caches.llc_miss_rate": _ratio(totals["llc_misses"],
                                           totals["llc_hits"] + totals["llc_misses"]),
            "caches.dram_hit_rate": _ratio(
                totals["dram_cache_hits"],
                totals["dram_cache_hits"] + totals["dram_cache_misses"]),
            "interconnect.bytes_per_access": _ratio(inter_socket, measured),
            "memory.accesses_per_access": _ratio(memory, measured),
            "engines.detail_fraction": _ratio(measured, self.consumed),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _result_record(result) -> Dict:
    """Everything a point's result carries, as canonical JSON data."""
    return {
        "stats": result.stats.to_json_dict(),
        "total_time_ns": result.total_time_ns,
        "inter_socket_bytes": result.inter_socket_bytes,
        "accesses_executed": result.accesses_executed,
    }


class Workload:
    """Common shape; subclasses define ``name``, ``setup`` and ``run_pass``."""

    name = ""
    #: Points one pass runs.
    num_points = len(PROTOCOLS)

    def __init__(self, seed: Optional[int], scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def params(self) -> Dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassOutcome:
        raise NotImplementedError

    def close(self) -> None:
        """Remove anything :meth:`setup` left on disk."""


class SimulatorWorkload(Workload):
    """Points built and run by the benchmark itself through ``Simulator``."""

    spec = ""
    scale = 1
    accesses_per_thread = 0
    engine = "compiled"
    plan_spec: Optional[str] = None

    def params(self) -> Dict:
        return {
            "spec": self.spec,
            "protocols": list(PROTOCOLS),
            "machine": "quad_socket",
            "scale": self.scale,
            "accesses_per_thread": self.accesses_per_thread,
            "engine": self.engine,
            "sample_plan": self.plan_spec,
            "prewarm": True,
            "workload_seed": self.seed,
        }

    def setup(self) -> None:
        from repro.api import SamplingPlan, SystemConfig

        self.configs = {
            protocol: SystemConfig.quad_socket(protocol=protocol).scaled(self.scale)
            for protocol in PROTOCOLS
        }
        self.plan = SamplingPlan.from_spec(self.plan_spec) if self.plan_spec else None

    def run_pass(self, tracer=None) -> PassOutcome:
        points = [self._run_point(protocol, tracer) for protocol in PROTOCOLS]
        sim_s = sum(point.seconds for point in points)
        outcome = PassOutcome(wall_s=sim_s, sim_s=sim_s, points=points)
        if self.plan is not None:
            widths = [
                point.stats.sampling.metrics["amat_ns"].half_width
                / point.stats.sampling.metrics["amat_ns"].mean
                for point in points if not point.errors
            ]
            outcome.results["ci_halfwidth_rel"] = (
                sum(widths) / len(widths) if widths else float("nan")
            )
        return outcome

    def _run_point(self, protocol: str, tracer) -> PointOutcome:
        from repro.api import NumaSystem, Simulator, make_workload

        config = self.configs[protocol]
        point = f"{self.spec}/{protocol}"
        gc.collect()
        span = tracer.point(point) if tracer is not None else nullcontext()
        started = time.perf_counter()
        with span:
            system = NumaSystem(config)
            workload = make_workload(
                self.spec,
                scale=self.scale,
                accesses_per_thread=self.accesses_per_thread,
                num_threads=config.total_cores,
                seed=self.seed,
            )
            simulator = Simulator(
                system, workload, engine=self.engine, sample_plan=self.plan
            )
            result = simulator.run(prewarm=True)
        seconds = time.perf_counter() - started

        with tracer.paused() if tracer is not None else nullcontext():
            errors = self._check(config, system, result)
        measured = result.accesses_executed
        if self.plan is not None:
            measured = result.stats.sampling.detail_accesses
        return PointOutcome(
            point=point,
            seconds=seconds,
            consumed=result.accesses_executed,
            measured=measured,
            record=_result_record(result),
            stats=result.stats,
            inter_socket_bytes=result.inter_socket_bytes,
            errors=errors,
        )

    def _check(self, config, system, result) -> List[str]:
        errors: List[str] = []
        expected = config.total_cores * self.accesses_per_thread
        if result.accesses_executed != expected:
            errors.append(
                f"executed {result.accesses_executed} accesses, expected {expected}"
            )
        errors.extend(f"invariant: {v}" for v in system.check_invariants())
        if self.plan is not None:
            summary = result.stats.sampling
            if "amat_ns" not in summary.metrics:
                errors.append("sampled run produced no amat_ns estimate")
            for name, estimate in summary.metrics.items():
                if not (math.isfinite(estimate.mean) and math.isfinite(estimate.half_width)):
                    errors.append(f"sampled estimate {name} is not finite")
        return errors


class HotsetL1(SimulatorWorkload):
    name = "hotset-l1"
    spec = "hotset"
    scale = 1
    accesses_per_thread = 24_000


class SampledFacesim(SimulatorWorkload):
    name = "sampled-facesim"
    spec = "facesim"
    scale = 1024
    accesses_per_thread = 10_000
    engine = "sampled"
    plan_spec = "units=8,detail=50,warmup=25"


class PaperQuick(Workload):
    """Table I and Figs. 6, 8, 9 at quick settings, through a fresh store."""

    name = "paper-quick"
    num_points = 9 * len(PROTOCOLS)

    def params(self) -> Dict:
        return {
            "settings": "ExperimentSettings.quick()",
            "figures": ["run_table1", "run_fig6(designs=('c3d',))", "run_fig8",
                        "run_fig9(designs=('c3d',))"],
            "protocols": list(PROTOCOLS),
            "engine": "compiled",
            "store": "fresh ResultsStore per pass, then an offline warm re-read",
            "workload_seed": self.seed,
        }

    #: Directory of the pass's fresh results store (``None`` when closed).
    _store_dir: Optional[Path] = None

    def setup(self) -> None:
        from repro.api import ExperimentContext, ExperimentSettings

        self.settings = replace(ExperimentSettings.quick(), seed=self.seed)
        probe = ExperimentContext(self.settings)
        # The contexts build their configs per point; building them here too
        # makes set-up time cover configuration, like the other workloads.
        self.configs = {protocol: probe.make_config(protocol) for protocol in PROTOCOLS}
        self.workloads = probe.workloads()
        self._fresh_store()

    def close(self) -> None:
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    def _fresh_store(self):
        from repro.api import ResultsStore

        if self._store_dir is None:
            self._store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
            self._store = ResultsStore(self._store_dir)
        return self._store_dir, self._store

    def _figures(self, context) -> Dict[str, float]:
        """Run the four figure functions; return their paper gaps."""
        from repro.experiments.fig6 import PAPER_C3D_SPEEDUP_AVG, run_fig6
        from repro.experiments.fig8 import PAPER_AVERAGES, run_fig8
        from repro.experiments.fig9 import PAPER_C3D_REDUCTION, run_fig9
        from repro.experiments.table1 import PAPER_TABLE1, run_table1

        table1 = run_table1(context)
        fig6 = run_fig6(context, designs=("c3d",))
        fig8 = run_fig8(context)
        fig9 = run_fig9(context, designs=("c3d",))
        measured_remote = sum(table1.values()) / len(table1)
        paper_remote = sum(PAPER_TABLE1.values()) / len(PAPER_TABLE1)
        return {
            "table1_remote_gap": abs(measured_remote - paper_remote),
            "fig6_speedup_gap": abs(fig6["geomean"]["c3d"] - PAPER_C3D_SPEEDUP_AVG),
            "fig8_traffic_gap": abs(fig8["average"]["total"] - PAPER_AVERAGES["total"]),
            "fig9_traffic_gap": abs((1.0 - fig9["average"]["c3d"]) - PAPER_C3D_REDUCTION),
        }

    def run_pass(self, tracer=None) -> PassOutcome:
        from repro.api import ExperimentContext, ResultsStore

        store_dir, store = self._fresh_store()
        gc.collect()
        keys = [(w, p) for w in self.workloads for p in PROTOCOLS]
        try:
            started = time.perf_counter()
            cold = ExperimentContext(self.settings, store=store)
            cold_gaps = self._figures(cold)
            cold_s = time.perf_counter() - started
            warm_started = time.perf_counter()
            warm = ExperimentContext(
                self.settings, store=ResultsStore(store_dir), offline=True
            )
            warm_gaps = self._figures(warm)
            warm_s = time.perf_counter() - warm_started
            # Both contexts memoise every point, so these are lookups.
            with tracer.paused() if tracer is not None else nullcontext():
                cold_records = {key: cold.run(*key) for key in keys}
                warm_records = {key: warm.run(*key) for key in keys}
        finally:
            # The next pass must simulate again: it gets a fresh store.
            self.close()

        cores = self.settings.total_cores
        expected = cores * self.settings.accesses_per_thread
        warmup = cores * self.settings.warmup_accesses_per_thread
        points = []
        for key in keys:
            record = cold_records[key]
            data = _result_record(record.result)
            errors = []
            if record.result.accesses_executed != expected:
                errors.append(
                    f"executed {record.result.accesses_executed} accesses, "
                    f"expected {expected}"
                )
            warm_data = _result_record(warm_records[key].result)
            if json.dumps(warm_data, sort_keys=True) != json.dumps(data, sort_keys=True):
                errors.append("warm store re-read differs from the cold result")
            points.append(PointOutcome(
                point="/".join(key),
                consumed=warmup + record.result.accesses_executed,
                measured=record.result.accesses_executed,
                record=data,
                stats=record.stats,
                inter_socket_bytes=record.inter_socket_bytes,
                errors=errors,
            ))
        outcome = PassOutcome(
            wall_s=cold_s + warm_s, sim_s=cold_s, points=points, results=dict(cold_gaps)
        )
        if warm_gaps != cold_gaps:
            outcome.errors.append("figures recomputed from the store differ")
        return outcome


WORKLOADS = {cls.name: cls for cls in (PaperQuick, HotsetL1, SampledFacesim)}
