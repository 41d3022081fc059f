"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 12 --trace 0

The load is closed-loop: one process runs the workload's cells one after
another, cycling through them until ``--seconds`` have passed and every
cell has run at least ``MIN_PASSES`` times.  A full garbage collection
runs before each cell, outside its timing.

Host speed on a shared machine drifts by up to 1.5x over minutes, far more
than the changes the benchmark must resolve.  So every timing is taken in
*reference seconds*: just before each timed cell (and each set-up probe)
a fixed interpreter loop is timed, and the cell's host time is scaled by
``CALIBRATION_REFERENCE_S / loop time``.  The loop is the benchmark's own
code, identical on every commit, so a faster program still reads faster
while the host's drift cancels.  Raw host figures are printed beside the
result for readers.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``cells_per_s`` -- cells per reference second, from each cell's median
  time;
* ``sim_ticks_per_s`` -- simulated ticks (``KernelStats.ticks``, reused and
  skipped ticks included) per reference second of cell time;
* ``cell_ms_p50`` / ``cell_ms_p90`` -- percentiles of the per-cell median
  times.  ``p90`` drops to the highest level that keeps ten samples
  beyond it when the workload has too few cells; the level used and the
  sample counts are printed beside the result;
* ``setup_s`` -- median time of three fresh processes that import the
  program, build the workload and run its untimed warm-up cell;
* ``peak_rss_mb`` -- peak resident memory after the timed runs.

Failures are the result's ``failed`` out of ``attempted`` cell runs; any
failure makes the command exit 1.

``--trace 1`` runs the same untimed-checked measurement, then a second,
traced one, and reports the per-layer metrics: self time per pass of the
workload, deterministic counts per pass, ratios, and
``tracing.overhead_share``.  Which end-to-end metric each layer metric
should move, and on which workload:

* ``simulation.solve.*``: ``sim_ticks_per_s``/``cells_per_s`` on
  ``catalog`` and ``scale_out``; ``vector_share`` only on ``scale_out``;
* ``simulation.tick.self_ms``, ``simulation.metrics.writes``:
  ``sim_ticks_per_s`` on ``catalog`` and ``steady_long``, and
  ``peak_rss_mb`` on ``steady_long``;
* ``simulation.reuse.*``, ``simulation.skip.*``, ``simulation.macro_tick.*``,
  ``harness.run_for.self_ms``, ``simulation.latency.merge_ms``,
  ``controller.*``: ``sim_ticks_per_s``/``cells_per_s`` on ``steady_long``;
* ``scenarios.*``, ``sla.ms``, ``trace.*``: ``cell_ms_p50`` on ``catalog``
  and ``steady_long``;
* ``campaign.*``: ``cells_per_s`` on ``scale_out`` only.

Simulated results (cost, p99, violation-minutes, throughput) are the
simulator's answers: they are checked, and printed for readers, but never
reported as metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer, capture_simulators, instrument  # noqa: E402
from perfbench.workloads import WORKLOADS, build_workload  # noqa: E402
from repro.scenarios.runner import DEFAULT_KERNEL  # noqa: E402
from repro.util.wallclock import wall_perf_counter  # noqa: E402

#: Every cell runs at least this often, so per-cell medians exist.
MIN_PASSES = 4
#: The calibration loop's time on the reference host (see module docstring).
CALIBRATION_REFERENCE_S = 0.0025
CALIBRATION_ITERATIONS = 40_000
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 3
#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10

#: Per-layer time metrics: metric name -> span name (self time, ms per pass).
LAYER_TIMES = {
    "simulation.solve.self_ms": "simulation.solve",
    "simulation.reuse.self_ms": "simulation.reuse",
    "simulation.tick.self_ms": "simulation.tick",
    "simulation.macro_tick.self_ms": "simulation.macro_tick",
    "simulation.quiescent.self_ms": "simulation.quiescent",
    "simulation.latency.merge_ms": "simulation.latency.merge",
    "harness.run_for.self_ms": "harness.run_for",
    "controller.met.step_ms": "controller.met.step",
    "controller.tiramola.step_ms": "controller.tiramola.step",
    "controller.planner.step_ms": "controller.planner.step",
    "controller.balancer.step_ms": "controller.balancer.step",
    "controller.next_wakeup_ms": "controller.next_wakeup",
    "scenarios.build_ms": "scenarios.build",
    "scenarios.fire_ms": "scenarios.fire",
    "scenarios.assertions_ms": "scenarios.assertions",
    "sla.ms": "sla",
    "trace.ms": "trace",
    "campaign.store_append_ms": "campaign.store_append",
    "cell.self_ms": "cell",
}
#: Per-layer counts per pass: metric name -> counter name.
LAYER_COUNTS = {
    "simulation.ticks": "kernel.ticks",
    "simulation.solve.calls": "solve.calls",
    "simulation.solve.unconverged": "solve.unconverged",
    "simulation.reuse.ticks": "kernel.reused",
    "simulation.skip.ticks": "kernel.skipped",
    "simulation.macro_tick.batches": "kernel.batches",
    "simulation.metrics.writes": "metrics.writes",
    "controller.decisions": "decisions",
    "trace.bytes": "trace.bytes",
    "campaign.store_bytes": "campaign.store_bytes",
}
#: Per-layer ratios: metric name -> (numerator, denominator) counters.
LAYER_RATIOS = {
    "simulation.solve.vector_share": ("solve.vector", "solve.calls"),
    "simulation.solve.unconverged_share": ("solve.unconverged", "solve.calls"),
    "simulation.reuse.hit_share": ("reuse.hits", "reuse.calls"),
    "simulation.skip.share": ("kernel.skipped", "kernel.ticks"),
    "simulation.macro_tick.ticks_per_batch": ("kernel.skipped", "kernel.batches"),
}
KERNEL_COUNTERS = ("kernel.ticks", "kernel.solves", "kernel.reused", "kernel.skipped", "kernel.batches")


@dataclass
class CellRuns:
    """Every timed run of one cell."""

    #: Reference seconds of every run, and the raw host seconds beside them.
    seconds: list[float] = field(default_factory=list)
    host_seconds: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    #: Output and counts of the first run; later runs must repeat them.
    first: object = None
    counts: dict[str, int] | None = None
    raised: int = 0
    mismatched: int = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds) + self.raised

    def add(self, host_seconds: float, speed: float, output, counts: dict[str, int], layers=None) -> None:
        self.host_seconds.append(host_seconds)
        self.seconds.append(host_seconds * speed)
        if layers is not None:
            self.layers.append({name: value * speed for name, value in layers.items()})
        if self.first is None:
            self.first, self.counts = output, counts
        elif output.payload != self.first.payload or counts != self.counts:
            self.mismatched += 1


def cell_counts(workload, output, counters: dict[str, int] | None) -> dict[str, int]:
    """The deterministic counts of one cell run."""
    counts = dict(zip(KERNEL_COUNTERS, output.kernel_stats))
    counts[workload.bytes_counter] = output.payload_bytes
    counts.update(counters or {})
    return counts


def host_speed() -> float:
    """Reference seconds per host second right now, from the calibration loop."""
    # Arithmetic only: an allocation-heavy loop tracked host slowdowns a
    # little better, but its speed also followed the process's heap state,
    # which the program under test changes.
    begin = wall_perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value
    return CALIBRATION_REFERENCE_S / (wall_perf_counter() - begin)


def measure(workload, seconds: float, min_passes: int, tracer: Tracer | None = None) -> dict[str, CellRuns]:
    """Cycle through the workload's cells; return every run, keyed by cell."""
    cells = workload.cells
    runs = {cell.key: CellRuns() for cell in cells}
    simulators: list = []
    started = wall_perf_counter()
    index = 0
    with capture_simulators(simulators), instrument(tracer) if tracer else nullcontext():
        while index < min_passes * len(cells) or wall_perf_counter() - started < seconds:
            if index % len(cells) == 0:
                workload.begin_pass()
            cell = cells[index % len(cells)]
            index += 1
            simulators.clear()
            gc.collect()
            speed = host_speed()
            if tracer is not None:
                tracer.start_cell()
            begin = wall_perf_counter()
            try:
                value = workload.run(cell, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                runs[cell.key].raised += 1
                continue
            elapsed = wall_perf_counter() - begin
            layers = counters = None
            if tracer is not None:
                elapsed, layers, counters = tracer.finish_cell()
            output = workload.finish_cell(value, simulators[0])
            runs[cell.key].add(elapsed, speed, output, cell_counts(workload, output, counters), layers)
    return runs


def quantile(values: list[float], level: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles``'s inclusive method)."""
    ordered = sorted(values)
    position = level * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_level(cells: int, min_passes: int) -> float:
    """p90, or the highest level with ``TAIL_SAMPLES`` guaranteed beyond it."""
    return max(0.5, min(0.9, 1.0 - TAIL_SAMPLES / (cells * min_passes)))


def medians(runs: dict[str, CellRuns], host: bool = False) -> dict[str, float]:
    """Median seconds of each cell that ran: reference seconds, or host seconds."""
    return {
        key: statistics.median(r.host_seconds if host else r.seconds)
        for key, r in runs.items()
        if r.seconds
    }


def end_to_end(runs: dict[str, CellRuns], min_passes: int, setup_s: float, rss_mb: float) -> tuple[dict, str]:
    per_cell = medians(runs)
    busy = sum(per_cell.values())
    ticks = sum(runs[key].counts["kernel.ticks"] for key in per_cell)
    cell_ms = [seconds * 1000.0 for seconds in per_cell.values()]
    level = tail_level(len(runs), min_passes)
    tail = quantile(cell_ms, level)
    samples = [s * 1000.0 for r in runs.values() for s in r.seconds]
    note = (
        f"cell_ms_p90 is p{level * 100:.0f} of {len(cell_ms)} per-cell medians over "
        f"{len(samples)} samples, {sum(s > tail for s in samples)} beyond it"
    )
    metrics = {
        "cells_per_s": (len(per_cell) / busy, "1/s"),
        "sim_ticks_per_s": (ticks / busy, "1/s"),
        "cell_ms_p50": (quantile(cell_ms, 0.5), "ms"),
        "cell_ms_p90": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, note


def per_layer(traced: dict[str, CellRuns], untraced: dict[str, CellRuns]) -> dict:
    totals: dict[str, int] = {}
    for runs in traced.values():
        for name, value in (runs.counts or {}).items():
            totals[name] = totals.get(name, 0) + value
    metrics: dict[str, tuple] = {}
    for metric, span in LAYER_TIMES.items():
        per_pass = sum(
            statistics.median(layers.get(span, 0.0) for layers in runs.layers)
            for runs in traced.values()
            if runs.layers
        )
        metrics[metric] = (per_pass * 1000.0, "ms")
    for metric, counter in LAYER_COUNTS.items():
        metrics[metric] = (totals.get(counter, 0), "count" if "bytes" not in metric else "bytes")
    for metric, (numerator, denominator) in LAYER_RATIOS.items():
        base = totals.get(denominator, 0)
        unit = "ticks" if metric.endswith("per_batch") else "share"
        metrics[metric] = (totals.get(numerator, 0) / base if base else 0.0, unit)
    overhead = sum(medians(traced).values()) / sum(medians(untraced).values()) - 1.0
    metrics["tracing.overhead_share"] = (overhead, "share")
    return metrics


def time_setup(workload_name: str, seed: int) -> float:
    """Median wall time of fresh processes doing the benchmark's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload_name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        speed = host_speed()
        begin = wall_perf_counter()
        probe = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        times.append((wall_perf_counter() - begin) * speed)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return statistics.median(times)


def set_up(workload_name: str, seed: int, work_dir: Path):
    """Build the workload and run its untimed warm-up cell."""
    workload = build_workload(workload_name, seed, ROOT, work_dir)
    workload.begin_pass()
    workload.run(workload.warmup)
    return workload


def check(workload, untraced: dict[str, CellRuns], traced: dict[str, CellRuns] | None = None):
    """Check outputs and repeatability; return (attempted, failed, problems).

    A cell whose output is wrong, or whose runs did not repeat each other
    exactly, fails every one of its runs; otherwise only runs that raised
    count as failed.
    """
    outputs = {key: runs.first for key, runs in untraced.items() if runs.first is not None}
    attempted = failed = 0
    lines = []
    for key, wrong in workload.check(outputs).items():
        measured = [untraced[key]] if traced is None else [untraced[key], traced[key]]
        if traced is not None and traced[key].first is not None and key in outputs:
            kernel = [(runs.first.payload, [runs.counts[name] for name in KERNEL_COUNTERS]) for runs in measured]
            if kernel[0] != kernel[1]:
                wrong = wrong + ["the traced run's output or kernel counts differ from the untraced run's"]
        for runs in measured:
            attempted += runs.attempted
            if runs.mismatched:
                wrong = wrong + [f"{runs.mismatched} run(s) did not repeat the first run's output and counts"]
        failed += sum(runs.attempted if wrong else runs.raised for runs in measured)
        lines.extend(f"{key}: {problem}" for problem in wrong)
    return attempted, failed, lines


def modelled_summary(workload, runs: dict[str, CellRuns]) -> dict:
    """Modelled outputs per controller, for readers (never metrics)."""
    summary: dict[str, dict[str, float]] = {}
    for cell in workload.cells:
        first = runs[cell.key].first
        if first is None:
            continue
        values = workload.modelled(first.payload)
        row = summary.setdefault(cell.controller, {"cost_usd": 0.0, "violation_minutes": 0.0, "p99_ms": 0.0})
        row["cost_usd"] += values["cost_usd"]
        row["violation_minutes"] += values["violation_minutes"]
        row["p99_ms"] = max(row["p99_ms"], values["p99_ms"])
    return summary


def emit(label: str, payload) -> None:
    print(f"{label}: {json.dumps(payload, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run still removes its work directory and set-up probes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=Path.cwd()))
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, work_dir)
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: Path) -> int:
    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    workload = set_up(args.workload, args.seed, work_dir)
    emit("env", {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "default_kernel": DEFAULT_KERNEL,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": len(workload.cells),
    })
    untraced = measure(workload, args.seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measurements = [untraced]
    if args.trace:
        measurements.append(measure(workload, args.seconds, MIN_PASSES, Tracer()))
    attempted, failed, problems = check(workload, *measurements)
    for line in problems:
        print(f"check failed: {line}")
    emit("modelled outputs per controller (checked, not metrics)", modelled_summary(workload, untraced))

    if args.trace:
        traced = measurements[1]
        metrics = per_layer(traced, untraced)
        counts = {key: runs.counts for key, runs in sorted(traced.items())}
        digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
        emit("deterministic counts per pass", {
            name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes")
        } | {"sha256": digest})
        cell_ms = sum(medians(traced).values()) * 1000.0
        shares = {
            metric: round(value / cell_ms, 4)
            for metric, (value, unit) in metrics.items()
            if metric in LAYER_TIMES and cell_ms
        }
        emit("self-time share of traced cell time", shares)
    else:
        metrics, note = end_to_end(untraced, MIN_PASSES, setup_s, rss_mb)
        print(note)
        host = medians(untraced, host=True)
        print(f"raw host figures: cells_per_s={len(host) / sum(host.values()):.4f}")
    correct = failed == 0 and bool(medians(untraced))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
