"""The repository benchmark: paper quick-grid, L1-resident hot loop, sampled fast-forward.

Run from the repository root::

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload hotset-l1 --trace 1   # per-layer table

``--trace 0`` measures the end-to-end metrics (no tracing): ``wall_s``,
``sim_accesses_per_s``, ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs
one untraced pass and then one pass under :mod:`layertrace`, and reports
the per-layer metrics and the tracing overhead.  Timed passes and set-up
probes move round the allowed CPUs every 0.1 s (:mod:`cpurotate`), so a run
does not measure whichever CPU of the shared host it happened to land on.
Either way every point's output is checked, and the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Details and the layer predictions are in ``perfbench/README.md``.

``--seed`` is the workload seed handed to every generated workload; without
it the workload specs' own seeds are used (so ``paper-quick`` then runs the
same points as ``python -m repro.experiments.runner --quick``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 9

#: Layers only ``paper-quick`` exercises.  Their self time is printed in
#: the table but not reported as a metric: on the other workloads it would
#: read exactly 0.0 on every run, and a time metric that never changes
#: cannot be told apart from a broken timer.  Their call counts are
#: reported everywhere.
PAPER_ONLY_LAYERS = ("experiments", "stats.store")

END_TO_END_UNITS = {
    "wall_s": "s",
    "sim_accesses_per_s": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload specs' own seeds)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure passes for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the simulator sources (identifies the code without git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _seed_tag(seed: Optional[int]) -> str:
    return "default" if seed is None else str(seed)


def _metadata(args, workload) -> Dict:
    from cpurotate import allowed_cpus

    return {
        "workload": workload.name,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus": allowed_cpus(),
        "jobs": 1,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------


def _setup_probe(args) -> int:
    """Child side: import, set up, report readiness, clean up."""
    from bench_workloads import WORKLOADS
    from cpurotate import rotating_cpus

    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        with rotating_cpus():
            workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def _measure_setup(args) -> List[float]:
    """Wall time from process start to "ready to run the first point"."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class Tally:
    """Attempted/failed point counts and the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add_pass(self, outcome, reference_sha: Optional[str]) -> None:
        self.attempted += len(outcome.points)
        failed = set(outcome.failed_points())
        self.messages.extend(outcome.errors)
        for point in outcome.points:
            self.messages.extend(f"{point.point}: {e}" for e in point.errors)
        if reference_sha is not None and outcome.stats_sha256() != reference_sha:
            self.messages.append("statistics differ from the first pass (stats_sha256)")
            failed = {point.point for point in outcome.points}
        self.failed += len(failed)

    def add_crash(self, workload_points: int) -> None:
        self.attempted += workload_points
        self.failed += workload_points
        self.messages.append(traceback.format_exc())


def _run_pass(workload, tally: Tally, passes: List, tracer=None):
    try:
        outcome = workload.run_pass(tracer)
    except Exception:
        tally.add_crash(workload.num_points)
        return None
    tally.add_pass(outcome, passes[0].stats_sha256() if passes else None)
    passes.append(outcome)
    return outcome


def _run_timed(workload, seconds: float, tally: Tally) -> List:
    """Passes until the next one would end after ``seconds`` (at least one)."""
    passes: List = []
    started = time.perf_counter()
    while True:
        if _run_pass(workload, tally, passes) is None:
            break
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes


def _print_pass(index: int, outcome, label: str = "") -> None:
    print(f"pass {index}{label}: wall_s={outcome.wall_s:.4f} sim_s={outcome.sim_s:.4f} "
          f"accesses={outcome.consumed} "
          f"accesses_per_s={outcome.consumed / outcome.sim_s:.1f} "
          f"stats_sha256={outcome.stats_sha256()[:16]}")


def _print_results(outcome, tally: Tally) -> Dict:
    """Deterministic outputs of a pass; also returned for the results file."""
    results = {
        "stats_sha256": outcome.stats_sha256(),
        "model_counts": outcome.model_counts(),
        "results": outcome.results,
        "error_rate": tally.failed / tally.attempted,
        "points": {point.point: {"consumed": point.consumed, "measured": point.measured}
                   for point in outcome.points},
    }
    print(f"stats_sha256 {results['stats_sha256']}")
    for name, value in {**results["model_counts"], **outcome.results}.items():
        print(f"  {name:32s} {value!r}")
    print(f"  {'error_rate':32s} {results['error_rate']!r} "
          f"({tally.failed} of {tally.attempted} points failed)")
    return results


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _layer_metrics(workload, outcome, untraced, tracer) -> Dict[str, Dict]:
    from bench_workloads import MODEL_COUNT_UNITS
    from layertrace import LAYERS, MISS_PATH_LAYERS

    totals = tracer.totals()
    consumed = outcome.consumed
    wall = outcome.wall_s
    overhead = wall / untraced.wall_s - 1.0
    metrics: Dict[str, Dict] = {}
    print(f"\nper-layer host time, traced pass ({wall:.3f} s, "
          f"{consumed} accesses consumed):")
    print(f"  {'layer':16s} {'self s':>10s} {'share':>7s} {'calls':>11s} "
          f"{'calls/access':>13s}")
    for layer in LAYERS:
        self_s = totals[layer]["self_s"]
        calls = totals[layer]["calls"]
        per_access = calls / consumed if consumed else 0.0
        print(f"  {layer:16s} {self_s:10.4f} {self_s / wall:7.1%} {calls:11d} "
              f"{per_access:13.4f}")
        if layer not in PAPER_ONLY_LAYERS:
            metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.calls_per_access"] = {"value": per_access, "unit": "calls/access"}
    other = wall - sum(totals[layer]["self_s"] for layer in LAYERS)
    print(f"  {'(unwrapped)':16s} {other:10.4f} {other / wall:7.1%}   benchmark glue, "
          "system and workload construction, figure code")

    def share(layers) -> float:
        return sum(totals[layer]["self_s"] for layer in layers) / wall

    print(f"  share of timed miss-path layers ({', '.join(MISS_PATH_LAYERS)}): "
          f"{share(MISS_PATH_LAYERS):.1%}")
    print(f"  share of cpu + engines: {share(('cpu', 'engines')):.1%}")
    print(f"  share of interconnect + memory: {share(('interconnect', 'memory')):.1%}")
    print(f"  trace.overhead_frac: {overhead:.4f} "
          f"(traced {wall:.3f} s / untraced {untraced.wall_s:.3f} s - 1)")
    if getattr(workload, "plan", None) is not None:
        print("  note: sampled windows run in forked children; their inner spans are "
              "lost and the parent's wait for them is counted in engines self time")

    store_calls = tracer.store_call_s
    if store_calls:
        print(f"  stats.store median call: {statistics.median(store_calls) * 1e3:.3f} ms "
              f"over {len(store_calls)} calls")
    for name, value in outcome.model_counts().items():
        metrics[name] = {"value": value, "unit": MODEL_COUNT_UNITS[name]}
    metrics["stats.ci_halfwidth_rel"] = {
        "value": outcome.results.get("ci_halfwidth_rel", 0.0), "unit": "fraction"}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return _setup_probe(args)

    from bench_workloads import WORKLOADS
    from cpurotate import rotating_cpus

    workload = WORKLOADS[args.workload](args.seed, OUT)
    metadata = _metadata(args, workload)
    print("metadata " + json.dumps(metadata, sort_keys=True))

    tally = Tally()
    setup_samples = _measure_setup(args)
    workload.setup()
    results: Dict = {"metadata": metadata, "setup_s_samples": setup_samples}
    try:
        if args.trace == 0:
            with rotating_cpus():
                passes = _run_timed(workload, args.seconds, tally)
        else:
            from layertrace import LayerTracer

            passes = []
            with rotating_cpus():
                untraced = _run_pass(workload, tally, passes)
                tracer = LayerTracer()
                tracer.install()
                try:
                    traced = _run_pass(workload, tally, passes, tracer) if untraced else None
                finally:
                    tracer.uninstall()
    finally:
        workload.close()

    for index, outcome in enumerate(passes):
        _print_pass(index, outcome, " (traced)" if args.trace and index == 1 else "")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    if not passes or (args.trace and traced is None):
        print(f"error: {tally.failed} of {tally.attempted} points failed", file=sys.stderr)
        return 1
    results["passes"] = [
        {"wall_s": p.wall_s, "sim_s": p.sim_s, "consumed": p.consumed} for p in passes
    ]
    results.update(_print_results(passes[0], tally))

    if args.trace == 0:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "sim_accesses_per_s": statistics.median(p.consumed / p.sim_s for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        print(f"\nend-to-end ({len(passes)} passes, medians):")
        for name, metric in metrics.items():
            print(f"  {name:20s} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = _layer_metrics(workload, traced, untraced, tracer)
        spans_path = OUT / f"{workload.name}-seed{_seed_tag(args.seed)}.spans.jsonl"
        tracer.write_spans(spans_path, metadata)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    results["metrics"] = metrics
    results_path = OUT / f"{workload.name}-seed{_seed_tag(args.seed)}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
