"""Regression tests: the fast kernel matches the seed (reference) kernel.

Runs a mixed multi-tenant YCSB scenario -- region moves, node
reconfiguration, major compactions, node add/remove and tenant shutdown
mid-run -- on both kernels and asserts the per-binding throughput series
agree within 1e-6 relative tolerance.
"""

import math

import pytest

from repro.core.profiles import NODE_PROFILES
from repro.hbase.config import DEFAULT_HOMOGENEOUS
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import HardwareSpec, LARGE_NODE
from repro.simulation.perfmodel import NodeEvaluator, PerformanceModel, RegionLoadProfile
from repro.workloads.ycsb.scenario import build_paper_scenario

#: Acceptance bound: optimized and seed kernels must agree to this relative
#: tolerance on every sample of every per-binding throughput series.
REL_TOL = 1e-6
#: Absolute floor for samples damping towards zero after tenant shutdown.
ABS_TOL = 1e-6


def build_scenario(kernel: str) -> tuple[ClusterSimulator, list[str]]:
    sim = ClusterSimulator(kernel=kernel, tick_seconds=5.0)
    nodes = [sim.add_node() for _ in range(6)]
    scenario = build_paper_scenario(sim)
    for index, spec in enumerate(scenario.partitions):
        node = nodes[index % len(nodes)]
        region = sim.regions[spec.partition_id]
        region.node = node
        region.block_homes = {node}
    return sim, nodes


def drive(sim: ClusterSimulator, nodes: list[str]) -> dict[str, list[float]]:
    """60 ticks with topology churn at fixed points; returns throughput series."""
    first_region = next(iter(sim.regions))
    events = {
        4: lambda: sim.move_region(first_region, nodes[1]),
        7: lambda: sim.major_compact(nodes[1]),
        10: lambda: sim.reconfigure_node(
            nodes[2], NODE_PROFILES["read"].config, profile_name="read"
        ),
        14: lambda: sim.add_node(name="rs-extra", online=False),
        20: lambda: sim.set_workload_active("workload-E", False),
        26: lambda: sim.remove_node(nodes[3]),
        32: lambda: sim.reconfigure_node(
            nodes[4], NODE_PROFILES["write"].config, drain=False
        ),
        40: lambda: sim.move_region(first_region, nodes[0]),
    }
    series: dict[str, list[float]] = {name: [] for name in sim.bindings}
    for tick in range(60):
        action = events.get(tick)
        if action is not None:
            action()
        sim.tick()
        for name in sim.bindings:
            series[name].append(sim.binding_throughput(name))
    return series


class TestKernelEquivalence:
    def test_mixed_scenario_throughput_series_match(self):
        fast_sim, fast_nodes = build_scenario("fast")
        reference_sim, reference_nodes = build_scenario("reference")
        assert fast_nodes == reference_nodes

        fast = drive(fast_sim, fast_nodes)
        reference = drive(reference_sim, reference_nodes)

        assert set(fast) == set(reference)
        for name in reference:
            for tick, (optimized, seed) in enumerate(zip(fast[name], reference[name])):
                assert math.isclose(
                    optimized, seed, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ), f"{name} diverged at tick {tick}: {optimized} vs {seed}"

    def test_assignments_and_counters_match(self):
        fast_sim, fast_nodes = build_scenario("fast")
        reference_sim, reference_nodes = build_scenario("reference")
        drive(fast_sim, fast_nodes)
        drive(reference_sim, reference_nodes)

        assert fast_sim.assignment() == reference_sim.assignment()
        for region_id, reference_region in reference_sim.regions.items():
            fast_region = fast_sim.regions[region_id]
            assert fast_region.reads == pytest.approx(reference_region.reads, rel=REL_TOL)
            assert fast_region.writes == pytest.approx(
                reference_region.writes, rel=REL_TOL
            )
            assert fast_region.block_homes == reference_region.block_homes
        assert fast_sim.total_ops == pytest.approx(reference_sim.total_ops, rel=REL_TOL)

    def test_node_metrics_match(self):
        fast_sim, fast_nodes = build_scenario("fast")
        reference_sim, _ = build_scenario("reference")
        drive(fast_sim, fast_nodes)
        drive(reference_sim, fast_nodes)
        for name, reference_node in reference_sim.nodes.items():
            fast_node = fast_sim.nodes[name]
            assert fast_node.cpu_utilization == pytest.approx(
                reference_node.cpu_utilization, rel=1e-9, abs=1e-9
            )
            assert fast_node.io_wait == pytest.approx(
                reference_node.io_wait, rel=1e-9, abs=1e-9
            )
            assert fast_node.served_ops == pytest.approx(
                reference_node.served_ops, rel=REL_TOL, abs=ABS_TOL
            )


class TestNodeEvaluatorEquivalence:
    """NodeEvaluator.evaluate must match PerformanceModel.evaluate_node."""

    @pytest.mark.parametrize("hardware", [HardwareSpec(), LARGE_NODE])
    @pytest.mark.parametrize(
        "config",
        [DEFAULT_HOMOGENEOUS, NODE_PROFILES["read"].config, NODE_PROFILES["scan"].config],
    )
    def test_matches_evaluate_node(self, hardware, config):
        model = PerformanceModel(hardware)
        profiles = [
            RegionLoadProfile(
                region_id="r1",
                size_bytes=1.5e9,
                read_rate=1200.0,
                update_rate=300.0,
                scan_rate=10.0,
            ),
            RegionLoadProfile(
                region_id="r2",
                size_bytes=4e8,
                locality=0.05,
                insert_rate=250.0,
                rmw_rate=40.0,
            ),
            RegionLoadProfile(region_id="r3", size_bytes=9e8, scan_length=120),
        ]
        expected = model.evaluate_node(config, profiles, 2e6)
        actual = NodeEvaluator(model, config, profiles).evaluate(profiles, 2e6)
        assert actual.utilization == pytest.approx(expected.utilization, rel=1e-12)
        assert actual.cpu_utilization == pytest.approx(expected.cpu_utilization, rel=1e-12)
        assert actual.io_wait == pytest.approx(expected.io_wait, rel=1e-12)
        assert actual.memory_utilization == pytest.approx(
            expected.memory_utilization, rel=1e-12
        )
        assert actual.hit_ratio == pytest.approx(expected.hit_ratio, rel=1e-12)
        for op, latency in expected.per_op_latency_ms.items():
            assert actual.per_op_latency_ms[op] == pytest.approx(latency, rel=1e-12)

    def test_refresh_tracks_size_and_locality_drift(self):
        model = PerformanceModel(HardwareSpec())
        profile = RegionLoadProfile(region_id="r", size_bytes=1e9, read_rate=500.0)
        evaluator = NodeEvaluator(model, DEFAULT_HOMOGENEOUS, [profile])
        profile.size_bytes = 2.5e9
        profile.locality = 0.05
        evaluator.refresh([profile])
        expected = model.evaluate_node(DEFAULT_HOMOGENEOUS, [profile])
        actual = evaluator.evaluate([profile])
        assert actual.utilization == pytest.approx(expected.utilization, rel=1e-12)
        assert actual.hit_ratio == pytest.approx(expected.hit_ratio, rel=1e-12)
        assert actual.memory_utilization == pytest.approx(
            expected.memory_utilization, rel=1e-12
        )


class TestEventKernelEquivalence:
    """The event kernel matches the fast kernel on the churn scenario.

    Driven tick by tick (the churn scenario's insert-bearing tenants never
    allow reuse anyway), this pins the event kernel's solver -- dispatch,
    dirty-flag handling, caching -- to the golden-trace kernel's numbers
    under region moves, compactions, reconfigurations and node churn.
    """

    def test_mixed_scenario_throughput_series_match(self):
        fast_sim, fast_nodes = build_scenario("fast")
        event_sim, event_nodes = build_scenario("event")
        assert fast_nodes == event_nodes

        fast = drive(fast_sim, fast_nodes)
        event = drive(event_sim, event_nodes)

        assert set(fast) == set(event)
        for name in fast:
            for tick, (optimized, twin) in enumerate(zip(fast[name], event[name])):
                assert math.isclose(
                    optimized, twin, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ), f"{name} diverged at tick {tick}: {optimized} vs {twin}"
        assert event_sim.assignment() == fast_sim.assignment()


def _build_quiet_pair():
    """Insert-free steady twins (event + fast): quiescent once settled."""
    from repro.simulation.workload import WorkloadBinding

    sims = []
    for kernel in ("event", "fast"):
        sim = ClusterSimulator(kernel=kernel, tick_seconds=5.0)
        nodes = [sim.add_node() for _ in range(4)]
        for index in range(12):
            sim.add_region(f"r{index}", "tenant", 5e8, node=nodes[index % 4])
        weight = 1.0 / 12
        weights = {f"r{index}": weight for index in range(12)}
        weights["r11"] = 1.0 - weight * 11
        sim.attach_workload(
            WorkloadBinding(
                name="tenant",
                threads=40,
                op_mix={"read": 0.7, "update": 0.3},
                region_weights=weights,
            )
        )
        sims.append(sim)
    return sims[0], sims[1]


def _assert_series_match(event_sim, fast_sim):
    """Every recorded metric series agrees within the acceptance tolerance.

    Each binding's latency distribution must agree exactly: same
    timestamps, same integer bin counts per sample (macro-ticks append one
    shared summary per tick of the span, single ticks a fresh one).
    """
    event_keys = {key for key, _ in event_sim.metrics.items()}
    fast_keys = {key for key, _ in fast_sim.metrics.items()}
    assert event_keys == fast_keys
    for key, series in fast_sim.metrics.items():
        twin = event_sim.metrics.series(*key)
        assert twin.timestamps == series.timestamps, f"timestamps differ for {key}"
        assert len(twin.values) == len(series.values)
        for tick, (a, b) in enumerate(zip(twin.values, series.values)):
            assert math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                f"{key} diverged at sample {tick}: {a} vs {b}"
            )
    assert sorted(event_sim.bindings) == sorted(fast_sim.bindings)
    for name in fast_sim.bindings:
        key = (f"workload:{name}", "latency_ms")
        series = fast_sim.metrics.distribution(*key)
        twin = event_sim.metrics.distribution(*key)
        assert series is not None and twin is not None, f"no distribution for {key}"
        assert twin.timestamps == series.timestamps, f"timestamps differ for {key}"
        assert [s.counts for s in twin.values] == [s.counts for s in series.values], (
            f"distribution counts differ for {key}"
        )


class TestQuiescenceAdversarial:
    """Fast-forwarding must stop for anything that changes the solution.

    Each case runs the event kernel through :meth:`ClusterSimulator.run`
    (macro-ticks engaged) against a fast-kernel twin ticked one by one, and
    requires every metric series to agree -- so an event swallowed by a
    skipped stretch, or a skip overshooting a state transition, fails the
    test rather than silently warping the trace.
    """

    def test_node_boot_completes_mid_skip(self):
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        # Boot completion (90 s = 18 ticks in) lands inside the quiet
        # stretch; the NODE_ONLINE event must bound the macro-tick.
        event_sim.add_node(name="late", online=False)
        fast_sim.add_node(name="late", online=False)
        event_sim.run(600.0)
        for _ in range(120):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0, "fast-forward never engaged"
        assert event_sim.nodes["late"].state == fast_sim.nodes["late"].state
        _assert_series_match(event_sim, fast_sim)

    def test_back_to_back_boots_one_tick_apart(self):
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        for sim in (event_sim, fast_sim):
            sim.add_node(name="late-a", online=False)
        event_sim.run(5.0)
        fast_sim.tick()
        # Second boot starts one tick later: completions land on adjacent
        # ticks, leaving no room to skip between them.
        for sim in (event_sim, fast_sim):
            sim.add_node(name="late-b", online=False)
        event_sim.run(595.0)
        for _ in range(119):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        _assert_series_match(event_sim, fast_sim)

    def test_compaction_drains_during_quiet_stretch(self):
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        # Make r0 remote on rs-2, then compact: the drain runs as constant
        # background I/O (reusable) until the completion flips r0 local --
        # a structure change the skip must not jump over.
        for sim in (event_sim, fast_sim):
            sim.move_region("r0", "rs-2")
            assert sim.major_compact("rs-2") > 0
        event_sim.run(900.0)
        for _ in range(180):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        assert event_sim.regions["r0"].locality == fast_sim.regions["r0"].locality == 1.0
        assert event_sim.nodes["rs-2"].pending_compaction_bytes == 0.0
        _assert_series_match(event_sim, fast_sim)

    def test_restart_boundary_misaligned_with_run_window(self):
        """A reconfiguration restart whose completion is not a multiple of
        the run() window: the skip must stop at the restart boundary even
        when the caller's run windows straddle it."""
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        for sim in (event_sim, fast_sim):
            sim.reconfigure_node("rs-3", NODE_PROFILES["read"].config, profile_name="read")
        # Uneven windows (175 s = 35 ticks) interleave with the restart
        # completion; chunked and monolithic advancement must agree.
        for _ in range(4):
            event_sim.run(175.0)
        for _ in range(140):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > 0
        _assert_series_match(event_sim, fast_sim)

    def _compact_then(self, mutate):
        """Start a long compaction on rs-2, mutate it mid-drain, run both."""
        event_sim, fast_sim = _build_quiet_pair()
        event_sim.run(300.0)
        for _ in range(60):
            fast_sim.tick()
        # Gather every region on rs-2 so the drain spans ~17 ticks.
        for sim in (event_sim, fast_sim):
            for region in list(sim.regions.values()):
                if region.node != "rs-2":
                    sim.move_region(region.region_id, "rs-2")
            assert sim.major_compact("rs-2") > 0
        event_sim.run(30.0)
        for _ in range(6):
            fast_sim.tick()
        assert event_sim.nodes["rs-2"].pending_compaction_bytes > 0
        skipped = event_sim.stats.skipped_ticks
        for sim in (event_sim, fast_sim):
            mutate(sim)
        event_sim.run(900.0)
        for _ in range(180):
            fast_sim.tick()
        assert event_sim.stats.skipped_ticks > skipped, "fast-forward never engaged"
        assert event_sim.nodes["rs-2"].pending_compaction_bytes == 0.0
        assert event_sim.regions["r0"].locality == fast_sim.regions["r0"].locality == 1.0
        _assert_series_match(event_sim, fast_sim)

    def test_compacting_node_degraded_mid_drain(self):
        """Halving the disk budget slows the drain: the completion the
        horizon derives must move later with it."""
        self._compact_then(lambda sim: sim.degrade_node("rs-2", disk=0.5))

    def test_compacting_node_restarted_mid_drain(self):
        """The drain stalls while the node restarts and resumes after it."""
        self._compact_then(
            lambda sim: sim.reconfigure_node(
                "rs-2", NODE_PROFILES["read"].config, profile_name="read", drain=False
            )
        )
