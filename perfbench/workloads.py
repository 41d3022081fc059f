"""The benchmark's workloads: their cells, how one cell runs, and output checks.

A *cell* is one scenario under one controller.  Each workload is a fixed
list of cells that the benchmark runs one after another (closed loop, one
process, ``workers=1``):

* ``catalog`` -- every canned scenario x met/tiramola/planner at 1x scale,
  each run through ``run_scenario`` and serialised to a trace;
* ``steady_long`` -- six scenarios stretched to 240 simulated minutes, so
  most ticks are reused or fast-forwarded;
* ``scale_out`` -- four scenarios at 16 tenant copies (64-128 regions, the
  numpy solver path), each cell run through ``run_campaign`` into a
  throwaway results store.

Seed 0 keeps the catalog's own spec seeds, so the committed goldens apply;
any other seed reseeds every spec through ``campaign.derive_seed``.

Outputs are checked outside the timed region, against the committed
goldens or against the same cell re-run under ``kernel="fast"``.  Traces
must be byte-identical but for the ``kernel`` tag.  Campaign records at
scale are compared within the repository's 1e-6 relative kernel
tolerance, because the vector solver path legitimately moves last digits
there.  Declared assertions are sized for 1x scenarios, so their verdicts
are compared between kernels rather than required to pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.campaign import CampaignGrid, ResultsStore, ScaleSpec, derive_seed, run_campaign
from repro.scenarios import CANNED_SCENARIOS, ScenarioSpec, result_trace, trace_to_json
from repro.scenarios import runner as scenario_runner
from repro.scenarios.runner import DEFAULT_KERNEL
from repro.scenarios.trace import golden_combos, golden_name

#: The seed that keeps every catalog spec's own seed (goldens apply).
CATALOG_SEED = 0
CONTROLLERS = ("met", "tiramola", "planner")
REFERENCE_KERNEL = "fast"
#: Fields of a campaign record that legitimately differ between kernels.
KERNEL_FIELDS = frozenset({"kernel", "skip_active", "skip_disabled_reason"})
#: The repository's kernel-equivalence tolerance (tests/test_kernel_equivalence.py).
REL_TOL = 1e-6
ABS_TOL = 1e-6

STEADY_LONG_SCENARIOS = (
    "tpcc_steady",
    "node_fault",
    "cascading_failure",
    "mix_shift",
    "tenant_churn",
    "flash_crowd",
)
STEADY_LONG_MINUTES = 240.0
SCALE_OUT_SCENARIOS = ("diurnal", "flash_crowd", "tpcc_steady", "mixed_tenancy")
SCALE_OUT = ScaleSpec(name="16x", tenant_copies=16, initial_nodes=12, max_nodes=24)
#: Cheapest planner cell of every workload: the untimed warm-up.
WARMUP_SCENARIO = "tpcc_steady"


@dataclass(frozen=True)
class Cell:
    """One scenario under one controller."""

    spec: ScenarioSpec
    controller: str

    @property
    def key(self) -> str:
        return f"{self.spec.name}|{self.controller}"


@dataclass
class CellOutput:
    """What one cell run produced: its output bytes and the kernel's counts."""

    payload: str
    kernel_stats: tuple[int, int, int, int, int]
    payload_bytes: int


def reseed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """``spec`` under the workload seed (seed 0 keeps the catalog's own)."""
    if seed == CATALOG_SEED:
        return spec
    return replace(spec, seed=derive_seed(seed, spec.name))


def kernel_stats(simulator) -> tuple[int, int, int, int, int]:
    stats = simulator.stats
    return (stats.ticks, stats.solves, stats.reused_ticks, stats.skipped_ticks, stats.macro_batches)


def first_difference(observed: str, expected: str) -> str | None:
    """``None`` when the texts are identical, else where they first differ."""
    if observed == expected:
        return None
    for number, (seen, wanted) in enumerate(
        zip(observed.splitlines(), expected.splitlines()), start=1
    ):
        if seen != wanted:
            return f"line {number}: {seen.strip()!r} != {wanted.strip()!r}"
    return "texts differ in length"


def record_differences(observed: dict, reference: dict) -> list[str]:
    """Fields where a campaign record disagrees with its reference-kernel twin."""
    problems = []
    for field in sorted(set(observed) | set(reference)):
        if field in KERNEL_FIELDS:
            continue
        seen, wanted = observed.get(field), reference.get(field)
        numeric = all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in (seen, wanted)
        )
        if numeric and (isinstance(seen, float) or isinstance(wanted, float)):
            agree = math.isclose(seen, wanted, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        else:
            agree = seen == wanted
        if not agree:
            problems.append(f"{field}: {seen!r} != {wanted!r}")
    return problems


def reference_trace(cell: Cell) -> str:
    """The cell's trace under the reference kernel, kernel tag normalised."""
    result = scenario_runner.run_scenario(
        cell.spec, controller=cell.controller, kernel=REFERENCE_KERNEL, keep_simulator=False
    )
    trace = result_trace(result)
    trace["kernel"] = DEFAULT_KERNEL
    return trace_to_json(trace)


class TraceWorkload:
    """Cells run through ``run_scenario`` and serialised to a trace."""

    bytes_counter = "trace.bytes"

    def __init__(self, name: str, cells: list[Cell], warmup: Cell, seed: int, golden_dir: Path) -> None:
        self.name = name
        self.cells = cells
        self.warmup = warmup
        self.golden_dir = golden_dir
        #: Cells with a committed golden: the catalog under its own seeds.
        self.goldens = set(golden_combos()) if name == "catalog" and seed == CATALOG_SEED else set()

    def begin_pass(self) -> None:
        """Nothing to reset between passes."""

    def run(self, cell: Cell, tracer=None) -> str:
        """The timed part of a cell: run it and serialise its trace."""
        result = scenario_runner.run_scenario(cell.spec, controller=cell.controller, keep_simulator=False)
        if tracer is None:
            return trace_to_json(result_trace(result))
        return tracer.wrap("trace", lambda: trace_to_json(result_trace(result)))()

    def finish_cell(self, payload: str, simulator) -> CellOutput:
        return CellOutput(payload, kernel_stats(simulator), len(payload.encode()))

    def expected(self, cell: Cell) -> str:
        """The bytes the cell must produce: its golden, else the reference kernel's."""
        if (cell.spec.name, cell.controller) in self.goldens:
            return (self.golden_dir / golden_name(cell.spec.name, cell.controller)).read_text()
        return reference_trace(cell)

    def check(self, outputs: dict[str, CellOutput]) -> dict[str, list[str]]:
        """Per cell key, what is wrong with its output (empty when right)."""
        problems = {}
        for cell in self.cells:
            output = outputs.get(cell.key)
            if output is None:
                problems[cell.key] = ["no output"]
                continue
            difference = first_difference(output.payload, self.expected(cell))
            problems[cell.key] = [] if difference is None else [difference]
        return problems

    def modelled(self, payload: str) -> dict[str, float]:
        trace = json.loads(payload)
        return {
            "cost_usd": trace["cost"]["total"],
            "violation_minutes": sum(entry["violation_minutes"] for entry in trace["slo"]),
            "p99_ms": max(
                (summary["p99"] for summary in trace["latency_distributions"].values()),
                default=0.0,
            ),
        }


class CampaignWorkload:
    """Cells run through ``run_campaign(workers=1)`` into a throwaway store."""

    bytes_counter = "campaign.store_bytes"

    def __init__(self, name: str, cells: list[Cell], warmup: Cell, seed: int, scale: ScaleSpec, work_dir: Path) -> None:
        self.name = name
        self.cells = cells
        self.warmup = warmup
        self.seed = seed
        self.scale = scale
        self.store = ResultsStore(work_dir / f"{name}.jsonl")

    def grid(self, cells: list[Cell]) -> CampaignGrid:
        controllers = tuple(dict.fromkeys(cell.controller for cell in cells))
        scenarios = {cell.spec.name: cell.spec for cell in cells}
        return CampaignGrid(
            scenarios=tuple(scenarios.values()),
            controllers=controllers,
            scales=(self.scale,),
            seeds=1,
            master_seed=self.seed,
        )

    def begin_pass(self) -> None:
        """A fresh store, so no cell is skipped as already done."""
        self.store.path.unlink(missing_ok=True)

    def run(self, cell: Cell, tracer=None) -> None:
        """The timed part of a cell: one single-cell campaign."""
        run_campaign(self.grid([cell]), self.store, workers=1)

    def finish_cell(self, _value, simulator) -> CellOutput:
        """The record as the store holds it: its last line."""
        line = self.store.path.read_bytes().splitlines(keepends=True)[-1]
        return CellOutput(line.decode().rstrip("\n"), kernel_stats(simulator), len(line))

    def check(self, outputs: dict[str, CellOutput]) -> dict[str, list[str]]:
        store = ResultsStore(self.store.path.with_name(f"{self.name}-reference.jsonl"))
        store.path.unlink(missing_ok=True)
        run_campaign(self.grid(self.cells), store, workers=1, kernel=REFERENCE_KERNEL)
        reference = {(record["scenario"], record["controller"]): record for record in store.load()}
        store.path.unlink()
        problems = {}
        for cell in self.cells:
            output = outputs.get(cell.key)
            twin = reference.get((cell.spec.name, cell.controller))
            if output is None or twin is None:
                problems[cell.key] = ["no output"]
                continue
            problems[cell.key] = record_differences(json.loads(output.payload), twin)
        return problems

    def modelled(self, payload: str) -> dict[str, float]:
        record = json.loads(payload)
        return {key: record[key] for key in ("violation_minutes", "p99_ms")} | {"cost_usd": record["cost"]}


WORKLOADS = ("catalog", "steady_long", "scale_out")


def _cells(scenarios, seed: int, minutes: float | None = None) -> list[Cell]:
    cells = []
    for name in scenarios:
        spec = reseed(CANNED_SCENARIOS[name], seed)
        if minutes is not None:
            spec = replace(spec, duration_minutes=minutes)
        cells.extend(Cell(spec, controller) for controller in CONTROLLERS)
    return cells


def _warmup(cells: list[Cell]) -> Cell:
    return next(c for c in cells if c.spec.name == WARMUP_SCENARIO and c.controller == "planner")


def build_workload(name: str, seed: int, root: Path, work_dir: Path):
    """The named workload under ``seed``; ``root`` holds the goldens."""
    golden_dir = root / "tests" / "golden"
    if name == "catalog":
        cells = _cells(sorted(CANNED_SCENARIOS), seed)
        return TraceWorkload(name, cells, _warmup(cells), seed, golden_dir)
    if name == "steady_long":
        cells = _cells(STEADY_LONG_SCENARIOS, seed, STEADY_LONG_MINUTES)
        return TraceWorkload(name, cells, _warmup(cells), seed, golden_dir)
    if name == "scale_out":
        # Campaign cells take their seeds from the grid's master seed.
        cells = _cells(SCALE_OUT_SCENARIOS, CATALOG_SEED)
        return CampaignWorkload(name, cells, _warmup(cells), seed, SCALE_OUT, work_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
