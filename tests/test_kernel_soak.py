"""Event-vs-fast kernel soak across the full scenario catalog.

The ROADMAP prerequisite for making the event kernel the scenario-runner
default: every catalog scenario, under both golden controllers, must produce
a trace *byte-identical* to the fast kernel's (the kernel tag aside).  The
golden suite compares the default kernel against committed goldens; this
module locks down the stronger cross-kernel property that justified flipping
the default, so a future event-kernel optimisation that is merely "close"
fails here explicitly instead of silently drifting the goldens.

The soak found (and this module regression-tests) one real divergence: a MeT
decision already due but held back by the cooldown fires on the first *tick*
after the cooldown lapses -- not on a monitor sampling tick -- so
``MeT.next_wakeup`` must be bounded by the cooldown-expiry instant or the
fast-forwarding harness skips the firing tick and the decision lands up to a
monitor period late (observed on cascading_failure, tenant_churn and
tpcc_steady before the fix).

The catalog tops out at 8 regions, so one campaign cell at 16 tenant copies
(over 64 regions) carries the same byte-identity requirement to a large
cluster.
"""

import json

import pytest

from repro.campaign import CampaignGrid, ResultsStore, ScaleSpec, apply_scale, run_campaign
from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.scenarios import (
    CANNED_SCENARIOS,
    DataGrowthBurst,
    ScenarioSpec,
    TenantSpec,
    scenario_trace,
    trace_to_json,
)
from repro.scenarios.catalog import SMALL_A, SMALL_C
from repro.scenarios.runner import build_scenario
from repro.scenarios.trace import GOLDEN_CONTROLLERS

COMBOS = [
    (scenario, controller)
    for scenario in sorted(CANNED_SCENARIOS)
    for controller in GOLDEN_CONTROLLERS
]


class TestEventFastSoak:
    @pytest.mark.parametrize("scenario,controller", COMBOS)
    def test_event_trace_is_byte_identical_to_fast(self, scenario, controller):
        spec = CANNED_SCENARIOS[scenario]
        fast = scenario_trace(spec, controller, kernel="fast")
        event = scenario_trace(spec, controller, kernel="event")
        assert fast.pop("kernel") == "fast"
        assert event.pop("kernel") == "event"
        assert trace_to_json(fast) == trace_to_json(event), (
            f"{scenario}/{controller}: event kernel diverged from fast; the "
            "event kernel may only reuse/fast-forward when the result is "
            "bit-exact (see PERFORMANCE.md)"
        )

    def test_growth_on_insert_free_tenant_is_byte_identical_to_fast(self):
        """A growth burst on a read-only tenant must dirty the reused solution.

        The catalog's ``data_growth`` tenant issues inserts, so its solves
        never reuse; here neither tenant inserts, and only the burst's
        direct ``size_bytes`` writes change the fixed point.
        """
        spec = ScenarioSpec(
            name="growth_insert_free",
            tenants=(
                TenantSpec(SMALL_C, target_ops=2400.0),
                TenantSpec(SMALL_A, target_ops=2400.0),
            ),
            events=(
                DataGrowthBurst(
                    tenant="C", start_minute=2, duration_minutes=4, growth_factor=50
                ),
            ),
        )
        fast = scenario_trace(spec, "none", kernel="fast")
        event = scenario_trace(spec, "none", kernel="event")
        assert fast.pop("kernel") == "fast"
        assert event.pop("kernel") == "event"
        assert trace_to_json(fast) == trace_to_json(event)


#: Campaign record fields that name the kernel rather than describe the run.
KERNEL_FIELDS = ("kernel", "skip_active", "skip_disabled_reason")
SCALE_16X = ScaleSpec(name="16x", tenant_copies=16, initial_nodes=12, max_nodes=24)


class TestScaleOutSoak:
    SPEC = CANNED_SCENARIOS["flash_crowd"]

    def test_cell_reaches_a_large_cluster(self):
        simulator = build_scenario(apply_scale(self.SPEC, SCALE_16X))[0]
        assert len(simulator.regions) >= 64

    def _record(self, tmp_path, kernel: str) -> str:
        grid = CampaignGrid(
            scenarios=(self.SPEC,),
            controllers=("met",),
            scales=(SCALE_16X,),
            seeds=1,
        )
        store = ResultsStore(tmp_path / f"{kernel}.jsonl")
        (record,) = run_campaign(grid, store, workers=1, kernel=kernel).executed
        assert record["kernel"] == kernel
        for field in KERNEL_FIELDS:
            record.pop(field, None)
        return json.dumps(record, sort_keys=True)

    def test_scale_out_record_is_byte_identical_to_fast(self, tmp_path):
        fast = self._record(tmp_path, "fast")
        event = self._record(tmp_path, "event")
        assert fast == event, (
            "flash_crowd/met at 16x: event kernel diverged from fast on a "
            "large cluster"
        )


class _IdleBackend:
    """Minimal backend: enough for a MeT that never has to decide."""

    def node_names(self):
        return ["rs-1"]

    def online_node_names(self):
        return ["rs-1"]

    def node_system_metrics(self, name):
        return {"cpu": 0.1, "io_wait": 0.1, "memory": 0.1}

    def node_locality(self, name):
        return 1.0

    def node_profile(self, name):
        return "default"

    def partition_stats(self):
        return {}


class TestMeTCooldownWakeup:
    """The next_wakeup bug the soak surfaced, pinned as a unit test."""

    def _met(self) -> MeT:
        parameters = MeTParameters(
            monitor_period_seconds=15.0, decision_samples=4, cooldown_seconds=90.0
        )
        return MeT(_IdleBackend(), parameters)

    def test_pending_decision_bounds_wakeup_by_cooldown_expiry(self):
        met = self._met()
        met.monitor.collector._last_sample_time = 300.0
        met.monitor.collector._samples_since_decision = 4  # decision latched
        met._last_action_finished = 250.0  # cooldown runs until 340.0
        # Next sample would be due at ~315, but the latched decision fires
        # earlier than any sample on the first step at/after 340?  No:
        # 315 < 340, so the *monitor* wakeup stays binding here ...
        assert met.next_wakeup(310.0) == pytest.approx(315.0, abs=1e-6)
        # ... but once the next sampling instant lies beyond the cooldown
        # expiry, the expiry instant must bound the wakeup: step(t) fires
        # the decision at the first t >= 340, well before the sample at 405.
        met.monitor.collector._last_sample_time = 390.0
        met._last_action_finished = 250.0
        assert met.next_wakeup(330.0) == pytest.approx(340.0, abs=1e-6)

    def test_pending_decision_with_no_prior_action_wakes_immediately(self):
        met = self._met()
        met.monitor.collector._last_sample_time = 300.0
        met.monitor.collector._samples_since_decision = 4
        assert met.next_wakeup(301.0) == 301.0

    def test_no_pending_decision_keeps_monitor_cadence(self):
        met = self._met()
        met.monitor.collector._last_sample_time = 300.0
        met.monitor.collector._samples_since_decision = 2
        met._last_action_finished = 299.0
        assert met.next_wakeup(301.0) == pytest.approx(315.0, abs=1e-6)
