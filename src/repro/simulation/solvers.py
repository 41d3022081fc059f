"""Fixed-point solvers for :class:`ClusterSimulator`.

The simulator's tick loop needs, per tick, the closed-loop throughput fixed
point: per-binding achieved throughput, per-node model results, per-region
achieved rates, per-binding mean latency and per-binding latency
distribution summaries.  Two solvers produce it:

* :class:`ReferenceSolver` -- the seed behaviour: full region scans, fresh
  allocations and a fixed iteration count.  Kept as the oracle for
  benchmarks and the kernel equivalence regression.
* :class:`EventSolver` -- the production solver: incremental node->regions
  index, memoised :class:`NodeEvaluator` contexts, slot-indexed rate rows
  and adaptive convergence.  Under ``kernel="event"`` it also *reuses*
  solutions: a tick-stable, insert-free fixed point is replayed verbatim
  until the dirty flag (set by every simulator mutation) or a
  background-I/O change invalidates it.  ``kernel="fast"`` is the same
  solver with reuse off, the oracle the reuse path is soaked against.

Solvers deliberately share the simulator's topology caches (region index,
assignment versions); solver-private state (evaluator memos, rate contexts,
cached solutions) lives on the solver and is invalidated through
:meth:`SolverStrategy.invalidate` / :meth:`SolverStrategy.forget_node`,
which every simulator mutator calls.
"""

from __future__ import annotations

from operator import attrgetter

from repro.simulation.latency import LatencySummary, bin_index, quantise_weight
from repro.simulation.perfmodel import NodeEvaluator, OP_TYPES, RegionLoadProfile
from repro.simulation.workload import UNAVAILABLE_MS

#: Kernel implementations (the simulator re-exports these).
KERNEL_FAST = "fast"
KERNEL_REFERENCE = "reference"
KERNEL_EVENT = "event"
KERNELS = (KERNEL_FAST, KERNEL_REFERENCE, KERNEL_EVENT)

#: Kernel a simulator, scenario run or campaign uses unless told otherwise.
DEFAULT_KERNEL = KERNEL_EVENT

#: No solver logic reads this: it is only the region count at which the
#: benchmark tracer counts a solve as a "large-cluster" solve.
VECTOR_MIN_REGIONS = 64

_REGION_SEQ = attrgetter("_seq")

#: Operation name -> slot in the 5-float rate rows (``OP_TYPES`` order).
_OP_SLOT = {op: slot for slot, op in enumerate(OP_TYPES)}
#: Zero template for resetting rate rows via slice assignment.
_ZERO_RATES = (0.0, 0.0, 0.0, 0.0, 0.0)

#: The solver result tuple: (achieved throughputs, node results,
#: region rates, binding latencies, binding latency summaries).
SolveResult = tuple[
    dict[str, float],
    dict[str, object],
    dict[str, dict[str, float]],
    dict[str, float],
    dict[str, LatencySummary],
]


def binding_summaries(
    bindings: dict,
    region_node: dict[str, str | None],
    node_latencies: dict[str, dict[str, float]],
) -> dict[str, LatencySummary]:
    """Per-binding latency distributions at one solved fixed point.

    Shared by both solvers so the distribution channel cannot drift
    between them: each solver hands over its final per-node per-op latency
    dicts and the region->node map, and the atoms recorded here are exactly
    the ``region_weight * op_fraction`` terms of the scalar mean -- the
    summary's weighted mean and ``binding_latency`` agree by construction,
    while the summary keeps the shape the mean throws away.

    Latencies are binned once per node (every region of a node shares its
    latency dict), so cost is O(nodes * ops + bindings * regions * ops)
    integer work per solve.
    """
    node_bins: dict[str, dict[str, int]] = {}
    sentinel_bin = bin_index(UNAVAILABLE_MS)
    fallback_bin = bin_index(1.0)  # unknown op: binding_latency's 1.0 ms default
    summaries: dict[str, LatencySummary] = {}
    for name, binding in bindings.items():
        summary = LatencySummary()
        counts = summary.counts
        mix = binding.op_mix.items()
        for region_id, weight in binding.region_weights.items():
            node_name = region_node.get(region_id)
            if node_name is None:
                for _, fraction in mix:
                    count = quantise_weight(weight * fraction)
                    if count:
                        counts[sentinel_bin] = counts.get(sentinel_bin, 0) + count
                continue
            bins = node_bins.get(node_name)
            if bins is None:
                bins = node_bins[node_name] = {
                    op: bin_index(value)
                    for op, value in node_latencies[node_name].items()
                }
            for op, fraction in mix:
                index = bins.get(op, fallback_bin)
                count = quantise_weight(weight * fraction)
                if count:
                    counts[index] = counts.get(index, 0) + count
        summaries[name] = summary
    return summaries


class SolverStrategy:
    """Interface between the simulator's tick loop and one kernel."""

    kernel: str = "?"

    def __init__(self, simulator) -> None:
        self._sim = simulator
        #: Whether the last solve's fixed point converged below tolerance
        #: (the reference kernel has no convergence test and reports False).
        self.last_converged = False

    def regions_on(self, node_name: str) -> list:
        """Regions assigned to ``node_name`` in region-creation order."""
        raise NotImplementedError

    def solve(self, compaction_bg: dict[str, float]) -> SolveResult:
        """Solve the closed-loop fixed point for this tick."""
        raise NotImplementedError

    def reuse(self, compaction_bg: dict[str, float]) -> SolveResult | None:
        """A cached solution valid for this tick, or ``None`` to solve."""
        return None

    def reuse_ready(self) -> bool:
        """Whether the next tick could reuse the cached solution."""
        return False

    def invalidate(self) -> None:
        """Drop any cached solution (called by every simulator mutator)."""

    def forget_node(self, name: str) -> None:
        """Drop per-node solver state when a node is removed."""


# --------------------------------------------------------------------- #
# reference kernel (seed behaviour)
# --------------------------------------------------------------------- #
class ReferenceSolver(SolverStrategy):
    """The seed's solver: full scans, fresh allocations, fixed iterations."""

    kernel = KERNEL_REFERENCE

    def regions_on(self, node_name: str) -> list:
        sim = self._sim
        return [r for r in sim.regions.values() if r.node == node_name]

    def _region_profiles(self, node, offered) -> list[RegionLoadProfile]:
        profiles: list[RegionLoadProfile] = []
        for region in self.regions_on(node.name):
            rates = offered.get(region.region_id, {})
            profiles.append(
                RegionLoadProfile(
                    region_id=region.region_id,
                    size_bytes=region.size_bytes,
                    locality=region.locality,
                    record_size=region.record_size,
                    scan_length=region.scan_length,
                    hot_data_fraction=region.hot_data_fraction,
                    hot_request_fraction=region.hot_request_fraction,
                    read_rate=rates.get("read", 0.0),
                    update_rate=rates.get("update", 0.0),
                    insert_rate=rates.get("insert", 0.0),
                    scan_rate=rates.get("scan", 0.0),
                    rmw_rate=rates.get("read_modify_write", 0.0),
                )
            )
        return profiles

    def _offered_rates(self, throughputs: dict[str, float]) -> dict[str, dict[str, float]]:
        """Per-region offered rates implied by per-binding throughputs."""
        offered: dict[str, dict[str, float]] = {}
        for name, binding in self._sim.bindings.items():
            for load in binding.offered_loads(throughputs.get(name, 0.0)):
                bucket = offered.setdefault(load.region_id, {})
                for op, rate in load.rates.items():
                    bucket[op] = bucket.get(op, 0.0) + rate
        return offered

    def _evaluate_nodes(self, offered, compaction_bg):
        """Evaluate online nodes; returns results, region latencies, scales
        and the region -> hosting-node map of the evaluated assignment."""
        sim = self._sim
        node_results: dict[str, object] = {}
        region_latencies: dict[str, dict[str, float]] = {}
        region_scale: dict[str, float] = {}
        region_node: dict[str, str] = {}
        for node in sim.nodes.values():
            if not node.online:
                continue
            profiles = self._region_profiles(node, offered)
            result = sim._model_for(node).evaluate_node(
                node.config, profiles, compaction_bg.get(node.name, 0.0)
            )
            node_results[node.name] = result
            scale = 1.0 if result.utilization <= 1.0 else 1.0 / result.utilization
            for profile in profiles:
                region_latencies[profile.region_id] = result.per_op_latency_ms
                region_scale[profile.region_id] = scale
                region_node[profile.region_id] = node.name
        return node_results, region_latencies, region_scale, region_node

    def solve(self, compaction_bg: dict[str, float], iterations: int = 10) -> SolveResult:
        sim = self._sim
        throughputs = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in sim.bindings.items()
        }
        region_latencies: dict[str, dict[str, float]] = {}
        for _ in range(iterations):
            offered = self._offered_rates(throughputs)
            _, region_latencies, _, _ = self._evaluate_nodes(offered, compaction_bg)
            new_throughputs: dict[str, float] = {}
            for name, binding in sim.bindings.items():
                latency = binding.mean_latency(region_latencies)
                target = binding.max_throughput(latency)
                previous = throughputs[name]
                new_throughputs[name] = 0.5 * previous + 0.5 * target
            throughputs = new_throughputs

        offered = self._offered_rates(throughputs)
        node_results, region_latencies, region_scale, region_node = (
            self._evaluate_nodes(offered, compaction_bg)
        )
        achieved: dict[str, float] = {}
        region_rates: dict[str, dict[str, float]] = {}
        binding_latencies: dict[str, float] = {}
        for name, binding in sim.bindings.items():
            total = 0.0
            for load in binding.offered_loads(throughputs.get(name, 0.0)):
                scale = region_scale.get(load.region_id, 0.0)
                bucket = region_rates.setdefault(load.region_id, {})
                for op, rate in load.rates.items():
                    bucket[op] = bucket.get(op, 0.0) + rate * scale
                total += load.total * scale
            achieved[name] = total
            binding_latencies[name] = binding.mean_latency(region_latencies)
        summaries = binding_summaries(
            sim.bindings,
            region_node,
            {name: result.per_op_latency_ms for name, result in node_results.items()},
        )
        return achieved, node_results, region_rates, binding_latencies, summaries


# --------------------------------------------------------------------- #
# production kernel
# --------------------------------------------------------------------- #
class EventSolver(SolverStrategy):
    """Memoised evaluators + slot-indexed rate rows + adaptive convergence,
    plus (``reuse=True``) replay of cached tick-stable solutions.

    Reuse is conservative.  A cached solution is only replayed when ALL of:

    * no simulator mutation since the solve (every mutator, and every
      hooked region attribute write, calls :meth:`invalidate`);
    * the solve was *tick-stable*: its achieved throughputs equal, bit for
      bit, the seed throughputs it started from (each solve seeds the
      damped iteration with the previous tick's achieved values, so a
      stable solve guarantees the next solve is a deterministic replay --
      regardless of whether the inner iteration hit tolerance);
    * the solution carries zero insert traffic (inserts grow region sizes
      every tick, which drifts hit ratios -- data growth is a dirty flag);
    * the per-node compaction background I/O is unchanged.

    With ``reuse=False`` (``kernel="fast"``) nothing is cached: every tick
    is solved, :meth:`reuse` returns ``None`` and :meth:`reuse_ready` is
    ``False``.
    """

    def __init__(self, simulator, reuse: bool = True) -> None:
        super().__init__(simulator)
        self.kernel = KERNEL_EVENT if reuse else KERNEL_FAST
        self._reuse = reuse
        #: Per-node memo of (key, NodeEvaluator); the key is (config,
        #: hardware, assignment version) so config/assignment changes
        #: invalidate explicitly while size/locality drift is refreshed.
        self._node_evaluators: dict[str, tuple[object, NodeEvaluator]] = {}
        self._rate_context_cache: tuple[int, dict, list] | None = None
        self._cached: SolveResult | None = None
        self._cached_bg: dict[str, float] = {}
        self._cached_reusable = False

    # -- cache management ------------------------------------------------ #
    def invalidate(self) -> None:
        self._cached = None

    def forget_node(self, name: str) -> None:
        self._node_evaluators.pop(name, None)
        self._cached = None

    def reuse_ready(self) -> bool:
        return self._cached is not None and self._cached_reusable

    def reuse(self, compaction_bg: dict[str, float]) -> SolveResult | None:
        if not self.reuse_ready():
            return None
        if compaction_bg != self._cached_bg:
            return None
        return self._cached

    def solve(self, compaction_bg: dict[str, float]) -> SolveResult:
        # Each solve starts the damped iteration from the previous tick's
        # *achieved* throughput.  When this solve's achieved output equals
        # its own seed bit-for-bit, the next solve is a deterministic replay
        # of this one -- the tick-to-tick map has reached its fixed point --
        # so the solution may be reused verbatim.
        sim = self._sim
        seeds = {
            name: sim._binding_throughput.get(name, binding.threads * 50.0)
            for name, binding in sim.bindings.items()
        }
        results = self._fixed_point(compaction_bg, dict(seeds))
        if not self._reuse:
            return results
        achieved = results[0]
        region_rates = results[2]
        insert_free = True
        for rates in region_rates.values():
            if rates.get("insert", 0.0) > 0.0:
                insert_free = False
                break
        stable = len(achieved) == len(seeds) and all(
            achieved.get(name) == seed for name, seed in seeds.items()
        )
        self._cached = results
        self._cached_bg = dict(compaction_bg)
        self._cached_reusable = stable and insert_free
        return results

    # -- the fixed point ------------------------------------------------- #
    def regions_on(self, node_name: str) -> list:
        sim = self._sim
        bucket = sim._regions_by_node.get(node_name)
        if not bucket:
            return []
        # The sorted order only changes when the bucket's membership does,
        # which is exactly when the assignment version is bumped.
        version = sim._assignment_versions.get(node_name, 0)
        cached = sim._sorted_regions_cache.get(node_name)
        if cached is None or cached[0] != version:
            cached = (version, sorted(bucket.values(), key=_REGION_SEQ))
            sim._sorted_regions_cache[node_name] = cached
        return list(cached[1])

    def _tick_node_context(self) -> list[tuple[str, NodeEvaluator]]:
        """Per-online-node memoised evaluators, refreshed for drift."""
        sim = self._sim
        context = []
        memo = self._node_evaluators
        versions = sim._assignment_versions
        for node in sim.nodes.values():
            if not node.online:
                continue
            name = node.name
            key = (node.config, node.hardware, versions.get(name, 0))
            cached = memo.get(name)
            hosted = self.regions_on(name)
            if cached is not None and cached[0] == key:
                evaluator = cached[1]
                evaluator.refresh(hosted)
            else:
                evaluator = NodeEvaluator(sim._model_for(node), node.config, hosted)
                memo[name] = (key, evaluator)
            context.append((name, evaluator))
        return context

    def _tick_rate_context(self):
        """Slot-indexed offered-rate rows plus per-binding unit rates.

        ``offered_loads(t)`` is linear in ``t``, so the per-region per-op
        rates implied by a set of binding throughputs are ``t * unit``.
        Rates live in one 5-slot list per region (``OP_TYPES`` order); the
        whole structure is cached until a workload is attached, detached or
        re-mixed, and only the floats change per iteration.
        """
        sim = self._sim
        cached = self._rate_context_cache
        if cached is not None and cached[0] == sim._workloads_version:
            return cached[1], cached[2]
        rate_rows: dict[str, list[float]] = {}
        contribs = []
        op_index = _OP_SLOT
        for name, binding in sim.bindings.items():
            entries = []
            for region_id, units in binding.unit_rates():
                row = rate_rows.get(region_id)
                if row is None:
                    row = rate_rows[region_id] = [0.0, 0.0, 0.0, 0.0, 0.0]
                entries.append(
                    (
                        region_id,
                        row,
                        [(op, op_index[op], unit) for op, unit in units],
                    )
                )
            contribs.append((name, entries))
        self._rate_context_cache = (sim._workloads_version, rate_rows, contribs)
        return rate_rows, contribs

    def _fixed_point(
        self, compaction_bg: dict[str, float], throughputs: dict[str, float]
    ) -> SolveResult:
        """Iterate from ``throughputs`` (updated in place) to the fixed point."""
        sim = self._sim
        bindings = sim.bindings
        rate_rows, contribs = self._tick_rate_context()
        node_context = [
            (
                name,
                evaluator,
                [rate_rows.get(rid) for rid in evaluator.region_ids],
                compaction_bg.get(name, 0.0),
            )
            for name, evaluator in self._tick_node_context()
        ]
        # Region -> hosting node is tick-constant; bindings aggregate
        # latencies per *node* instead of per region.
        region_node: dict[str, str] = {}
        for name, evaluator, _, _ in node_context:
            for region_id in evaluator.region_ids:
                region_node[region_id] = name
        binding_terms = {
            name: (
                [
                    (weight, region_node.get(region_id))
                    for region_id, weight in binding.region_weights.items()
                ],
                list(binding.op_mix.items()),
            )
            for name, binding in bindings.items()
        }
        rate_values = list(rate_rows.values())
        node_latencies: dict[str, dict[str, float]] = {}

        zeros = _ZERO_RATES

        def fill_rates() -> None:
            for row in rate_values:
                row[:] = zeros
            for name, entries in contribs:
                throughput = throughputs[name]
                for _, row, slot_units in entries:
                    for _, slot, unit in slot_units:
                        row[slot] += throughput * unit

        def evaluate_latencies() -> None:
            node_latencies.clear()
            for name, evaluator, refs, background in node_context:
                node_latencies[name] = evaluator.latencies(refs, background)

        def binding_latency(terms, mix, latencies_by_node) -> float:
            # Same math as WorkloadBinding.mean_latency: the per-region
            # latency dict is the hosting node's, so the per-op mix dot
            # product is computed once per node and reused per region.
            cache: dict[str, float] = {}
            total = 0.0
            for weight, node_name in terms:
                if node_name is None:
                    total += weight * UNAVAILABLE_MS
                    continue
                mixed = cache.get(node_name)
                if mixed is None:
                    latencies = latencies_by_node[node_name]
                    mixed = 0.0
                    for op, fraction in mix:
                        mixed += fraction * latencies.get(op, 1.0)
                    cache[node_name] = mixed
                total += weight * mixed
            return total

        converged = True
        if bindings:
            tolerance = sim.fixed_point_tolerance
            for _ in range(sim.fixed_point_max_iterations):
                fill_rates()
                evaluate_latencies()
                converged = True
                for name, binding in bindings.items():
                    terms, mix = binding_terms[name]
                    latency = binding_latency(terms, mix, node_latencies)
                    target = binding.max_throughput(latency)
                    previous = throughputs[name]
                    updated = 0.5 * previous + 0.5 * target
                    throughputs[name] = updated
                    if abs(updated - previous) > tolerance * max(
                        abs(previous), abs(updated), 1.0
                    ):
                        converged = False
                if converged:
                    break
        self.last_converged = converged

        fill_rates()
        node_results: dict[str, object] = {}
        node_scale: dict[str, float] = {}
        for name, evaluator, refs, background in node_context:
            result = evaluator.evaluate_rates(refs, background)
            node_results[name] = result
            node_scale[name] = (
                1.0 if result.utilization <= 1.0 else 1.0 / result.utilization
            )

        # Per-binding latency at the *final* state, from the full node
        # results (same latency dicts the intermediate iterations used).
        final_latencies = {
            name: result.per_op_latency_ms for name, result in node_results.items()
        }
        binding_latencies = {
            name: binding_latency(*binding_terms[name], final_latencies)
            for name in bindings
        }

        achieved: dict[str, float] = {}
        region_rates: dict[str, dict[str, float]] = {}
        for name, entries in contribs:
            throughput = throughputs[name]
            total = 0.0
            for region_id, _, slot_units in entries:
                scale = node_scale.get(region_node.get(region_id), 0.0)
                bucket = region_rates.setdefault(region_id, {})
                load_total = 0.0
                for op, _, unit in slot_units:
                    rate = throughput * unit
                    bucket[op] = bucket.get(op, 0.0) + rate * scale
                    load_total += rate
                total += load_total * scale
            achieved[name] = total
        summaries = binding_summaries(bindings, region_node, final_latencies)
        return achieved, node_results, region_rates, binding_latencies, summaries




def make_solver(kernel: str, simulator) -> SolverStrategy:
    """Instantiate the solver for ``kernel`` (raises on unknown names)."""
    if kernel == KERNEL_REFERENCE:
        return ReferenceSolver(simulator)
    if kernel in (KERNEL_EVENT, KERNEL_FAST):
        return EventSolver(simulator, reuse=kernel == KERNEL_EVENT)
    raise ValueError(f"unknown kernel {kernel!r}")
