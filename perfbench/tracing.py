"""Spans and counters for the traced run, recorded from outside the program.

:func:`instrument` wraps the program's public entry points -- patched on
the class or module each caller looks the name up on -- so every call
records a span ``(name, start, end, parent)`` into the active
:class:`Tracer`.  Spans stay in memory for the length of one cell;
:meth:`Tracer.finish_cell` reduces them to per-layer *self* time (a span's
duration minus the part of it its child spans cover) and returns the
cell's counters alongside.  All originals are restored when the context
exits, so the untraced run and the output checks never see a wrapper.

:func:`capture_simulators` is the one hook the untraced run keeps: a
wrapper on ``build_scenario`` (one call per cell) that hands the cell's
simulator to the benchmark so it can read :class:`KernelStats` after the
run has disposed of it.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager

from repro.util.wallclock import wall_perf_counter

#: Parent index of a span with no enclosing span.
NO_PARENT = -1


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Per-name self time (seconds) of a list of finished spans.

    Each span is ``(name, start, end, parent_index)``.  Spans nest (the
    program is single-threaded), so a span's self time is its duration
    minus the summed durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
    return totals


class Tracer:
    """In-memory span recorder plus integer counters for one cell at a time."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = [NO_PARENT]
        self.counters: Counter = Counter()
        self._cell_start = 0.0
        #: The simulator of the cell being traced (set by the build hook).
        self.simulator = None

    def wrap(self, name: str, fn):
        """``fn`` recording a span called ``name`` around every call."""
        spans = self.spans
        stack = self._stack
        clock = wall_perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def start_cell(self) -> None:
        """Open the root span of a cell."""
        self.spans.clear()
        self.counters.clear()
        self.simulator = None
        self.spans.append(None)
        self._stack[:] = [NO_PARENT, 0]
        self._cell_start = wall_perf_counter()

    def finish_cell(self) -> tuple[float, dict[str, float], dict[str, int]]:
        """Close the root span; return (cell seconds, self seconds by layer, counters)."""
        end = wall_perf_counter()
        self.spans[0] = ("cell", self._cell_start, end, NO_PARENT)
        self._stack[:] = [NO_PARENT]
        layers = self_times(self.spans)
        self.spans.clear()
        return end - self._cell_start, layers, dict(self.counters)


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, name: str, value) -> None:
        own = vars(owner)
        self._saved.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, had, original = self._saved.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


@contextmanager
def capture_simulators(sink: list):
    """Append the simulator of every ``build_scenario`` call to ``sink``."""
    from repro.scenarios import runner

    original = runner.build_scenario

    def build_scenario(*args, **kwargs):
        built = original(*args, **kwargs)
        sink.append(built[0])
        return built

    patches = _Patches()
    patches.set(runner, "build_scenario", build_scenario)
    try:
        yield
    finally:
        patches.restore()


@contextmanager
def instrument(tracer: Tracer):
    """Record spans and counters of every layer into ``tracer``."""
    from repro.campaign import runner as campaign_runner
    from repro.campaign.store import ResultsStore
    from repro.core.framework import MeT
    from repro.elasticity.daemon import HBaseBalancerDaemon
    from repro.elasticity.tiramola import Tiramola
    from repro.experiments.harness import ExperimentHarness
    from repro.planner.controller import PlannerController
    from repro.scenarios import runner as scenario_runner
    from repro.scenarios.schedule import EventSchedule
    from repro.simulation.cluster import ClusterSimulator
    from repro.simulation.metrics import DistributionSeries, MetricsRegistry
    from repro.simulation.solvers import VECTOR_MIN_REGIONS, EventSolver

    patches = _Patches()
    counters = tracer.counters

    def span(owner, name: str, label: str):
        patches.set(owner, name, tracer.wrap(label, getattr(owner, name)))

    span(ClusterSimulator, "tick", "simulation.tick")
    span(ClusterSimulator, "macro_tick", "simulation.macro_tick")
    span(ClusterSimulator, "quiescent_ticks", "simulation.quiescent")
    span(ExperimentHarness, "run_for", "harness.run_for")
    span(DistributionSeries, "merged_between", "simulation.latency.merge")
    span(EventSchedule, "fire_due", "scenarios.fire")
    span(scenario_runner, "evaluate_slos", "sla")
    span(scenario_runner, "evaluate_assertions", "scenarios.assertions")
    span(ResultsStore, "append", "campaign.store_append")
    for controller, label in (
        (MeT, "met"),
        (Tiramola, "tiramola"),
        (PlannerController, "planner"),
        (HBaseBalancerDaemon, "balancer"),
    ):
        span(controller, "step", f"controller.{label}.step")
        span(controller, "next_wakeup", "controller.next_wakeup")

    # EventSolver is the class the default kernel instantiates; its vector
    # path never reaches FastSolver.solve, so the span goes here.
    traced_solve = tracer.wrap("simulation.solve", EventSolver.solve)

    def solve(self, compaction_bg):
        counters["solve.calls"] += 1
        if len(tracer.simulator.regions) >= VECTOR_MIN_REGIONS:
            counters["solve.vector"] += 1
        results = traced_solve(self, compaction_bg)
        if not self.last_converged:
            counters["solve.unconverged"] += 1
        return results

    traced_reuse = tracer.wrap("simulation.reuse", EventSolver.reuse)

    def reuse(self, compaction_bg):
        counters["reuse.calls"] += 1
        results = traced_reuse(self, compaction_bg)
        if results is not None:
            counters["reuse.hits"] += 1
        return results

    patches.set(EventSolver, "solve", solve)
    patches.set(EventSolver, "reuse", reuse)

    traced_build = tracer.wrap("scenarios.build", scenario_runner.build_scenario)

    def build_scenario(*args, **kwargs):
        built = traced_build(*args, **kwargs)
        tracer.simulator = built[0]
        return built

    patches.set(scenario_runner, "build_scenario", build_scenario)

    def observe_result(run_scenario):
        def observed(*args, **kwargs):
            result = run_scenario(*args, **kwargs)
            counters["decisions"] += len(result.decisions)
            return result

        return observed

    patches.set(scenario_runner, "run_scenario", observe_result(scenario_runner.run_scenario))
    patches.set(campaign_runner, "run_scenario", observe_result(campaign_runner.run_scenario))

    def count_writes(name: str, per_call):
        original = getattr(MetricsRegistry, name)

        def counted(self, stamps, samples, *rest):
            counters["metrics.writes"] += per_call(stamps, samples)
            return original(self, stamps, samples, *rest)

        patches.set(MetricsRegistry, name, counted)

    for name in ("record_many", "record_distributions"):
        count_writes(name, lambda stamps, samples: len(samples))
    for name in ("record_many_repeated", "record_distributions_repeated"):
        count_writes(name, lambda stamps, samples: len(samples) * len(stamps))
    original_record = MetricsRegistry.record

    def record(self, *args, **kwargs):
        counters["metrics.writes"] += 1
        return original_record(self, *args, **kwargs)

    patches.set(MetricsRegistry, "record", record)
    try:
        yield tracer
    finally:
        patches.restore()
