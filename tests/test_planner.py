"""Planner subsystem: calibration fitting, capacity plans, the controller.

Three layers under test, mirroring the package:

* calibration -- curve validation, interpolation, fitting from campaign
  records, and the byte-determinism contract (same store -> same model
  fingerprint, pinned against a committed fixture store);
* planning -- sizing/pricing queries, option ordering, unit conversion,
  and the plan-level determinism pin;
* control -- the model-predictive controller against a fake backend
  (scale-up on predicted breach, budget clamp, headroom scale-down,
  cooldown, ``next_wakeup``).

The hypothesis properties pin the planner's core guarantee -- spreading a
fixed demand over more nodes never predicts a *worse* tail -- for every
fitted model, not just the baked one, and check that any plan the planner
emits is feasible by its own model's judgement.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ResultsStore
from repro.elasticity.autoscaler import AutoscalerAction
from repro.planner import (
    DEFAULT_CALIBRATION,
    MINUTES_PER_MONTH,
    CalibrationModel,
    CalibrationPoint,
    PlannerController,
    PlannerPolicy,
    fit_calibration,
    plan_capacity,
    probe_records,
)
from repro.planner.controller import planner_policy_for_spec
from repro.scenarios import CANNED_SCENARIOS
from repro.sla import TPMC, from_native_rate
from repro.sla.scorecard import ScorecardRow, render_scorecard

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

#: Pinned handles of the committed fixture store (tests/fixtures/
#: planner_store.jsonl): fitting it, and planning 9000 ops/s under a 2 ms
#: p99 against the fit, must reproduce these bytes on every platform.
FIXTURE_MODEL_FINGERPRINT = (
    "e0e0624579d0e856730298e4944786be7c5de144ce68b790521cdb0065ea827f"
)
FIXTURE_PLAN_SHA256 = (
    "00682ae46060cefe885ee22a639c63173ebd98877277182bae910cb8bc3ed14a"
)

#: Small hand-written model used by the unit tests: 4-vCPU base nodes that
#: saturate at 3000 ops/s each, with a visible latency knee.
TEST_MODEL = CalibrationModel(
    name="test",
    base_flavor="met.regionserver",
    base_vcpus=4,
    curve=(
        CalibrationPoint(per_node_rate=1000.0, p95_ms=0.8, p99_ms=0.9),
        CalibrationPoint(per_node_rate=2000.0, p95_ms=1.1, p99_ms=1.4),
        CalibrationPoint(per_node_rate=3000.0, p95_ms=1.5, p99_ms=2.2),
    ),
)


def fixture_records() -> list[dict]:
    return ResultsStore(FIXTURES / "planner_store.jsonl").load()


class TestCalibrationModel:
    def test_rejects_empty_curve(self):
        with pytest.raises(ValueError, match="at least one point"):
            CalibrationModel(name="x", base_flavor="f", base_vcpus=4, curve=())

    def test_rejects_non_increasing_rates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CalibrationModel(
                name="x",
                base_flavor="f",
                base_vcpus=4,
                curve=(
                    CalibrationPoint(2000.0, 1.0, 1.0),
                    CalibrationPoint(1000.0, 2.0, 2.0),
                ),
            )

    def test_rejects_non_monotone_latency(self):
        with pytest.raises(ValueError, match="monotone in p99_ms"):
            CalibrationModel(
                name="x",
                base_flavor="f",
                base_vcpus=4,
                curve=(
                    CalibrationPoint(1000.0, 1.0, 2.0),
                    CalibrationPoint(2000.0, 1.0, 1.5),
                ),
            )

    def test_interpolation_shape(self):
        # Below the first point: flat.  Between points: linear.  Beyond the
        # calibrated envelope: infinite (infeasible, not extrapolated).
        assert TEST_MODEL.predict_p99(500.0, 1) == 0.9
        assert TEST_MODEL.predict_p99(1500.0, 1) == pytest.approx(1.15)
        assert TEST_MODEL.predict_p99(3000.0, 1) == pytest.approx(2.2)
        assert TEST_MODEL.predict_p99(3000.1, 1) == math.inf
        assert TEST_MODEL.predict_p99(1000.0, 0) == math.inf

    def test_flavor_capacity_scales_with_vcpus(self):
        # m1.large has 8 vCPUs against the 4-vCPU base: twice the capacity,
        # so the same demand halves the per-node load.
        assert TEST_MODEL.flavor_capacity("m1.large") == pytest.approx(6000.0)
        assert TEST_MODEL.predict_p99(2000.0, 1, "m1.large") == pytest.approx(
            TEST_MODEL.predict_p99(1000.0, 1)
        )
        with pytest.raises(KeyError, match="unknown flavor"):
            TEST_MODEL.flavor_capacity("m9.imaginary")

    def test_nodes_for_respects_capacity_and_ceiling(self):
        assert TEST_MODEL.nodes_for(0.0) == 1
        # Pure capacity: 7000 ops/s needs ceil(7000/3000) = 3 nodes.
        assert TEST_MODEL.nodes_for(7000.0) == 3
        # A tail ceiling pushes above the capacity floor: a 1.0ms p99
        # needs <=1200 ops/s per node, so 6 nodes instead of 3.
        assert TEST_MODEL.nodes_for(7000.0, p99_ceiling_ms=1.0) == 6
        # Nothing under an impossible ceiling.
        assert TEST_MODEL.nodes_for(7000.0, p99_ceiling_ms=0.5) is None

    def test_json_roundtrip_preserves_fingerprint(self):
        clone = CalibrationModel.from_json(TEST_MODEL.to_json())
        assert clone == TEST_MODEL
        assert clone.fingerprint() == TEST_MODEL.fingerprint()


class TestFitCalibration:
    def test_fixture_store_fit(self):
        # The fixture encodes the fitting rules: per-node rates recovered
        # from machine-minutes, equal rates merged by max latency, a
        # latency dip at 2500 flattened by the running max, and records
        # with null percentiles or zero machine-minutes skipped.
        model = fit_calibration(fixture_records(), name="fixture")
        assert [p.per_node_rate for p in model.curve] == [1000.0, 2000.0, 2500.0, 3000.0]
        assert [p.p99_ms for p in model.curve] == [0.9, 1.4, 1.4, 2.2]

    def test_no_usable_records_raises(self):
        with pytest.raises(ValueError, match="no usable records"):
            fit_calibration([{"scenario": "x", "p95_ms": None, "p99_ms": None}])

    def test_duration_falls_back_to_the_catalog(self):
        spec = CANNED_SCENARIOS["tpcc_steady"]
        record = {
            "scenario": "tpcc_steady",
            "mean_throughput": 6000.0,
            # Two nodes for the whole catalog duration.
            "machine_minutes": 2.0 * spec.duration_seconds / 60.0,
            "p95_ms": 1.0,
            "p99_ms": 1.2,
        }
        model = fit_calibration([record])
        assert model.curve[0].per_node_rate == pytest.approx(3000.0)

    def test_unknown_scenario_without_duration_raises(self):
        record = {
            "scenario": "not-in-catalog",
            "mean_throughput": 1.0,
            "machine_minutes": 1.0,
            "p95_ms": 1.0,
            "p99_ms": 1.0,
        }
        with pytest.raises(ValueError, match="not-in-catalog"):
            fit_calibration([record])
        fit_calibration([record], durations={"not-in-catalog": 1.0})

    def test_fit_is_byte_deterministic(self):
        # The acceptance contract: the same store and config produce an
        # identical model, pinned by fingerprint against the committed
        # fixture bytes.
        first = fit_calibration(fixture_records(), name="fixture")
        second = fit_calibration(fixture_records(), name="fixture")
        assert first.to_json() == second.to_json()
        assert first.fingerprint() == FIXTURE_MODEL_FINGERPRINT

    def test_default_calibration_matches_the_probe_sweep(self):
        # DEFAULT_CALIBRATION is documented as the fit of the seeded probe
        # sweep at master seed 0; this equality is what --recalibrate
        # regenerates.  If a kernel or catalog change moves the sweep, this
        # fails and the baked model needs a regen commit.
        fitted = fit_calibration(probe_records(), name="catalog-probe-v1")
        assert fitted == DEFAULT_CALIBRATION


class TestCapacityPlan:
    def test_plan_options_sorted_cheapest_feasible_first(self):
        plan = plan_capacity(TEST_MODEL, target_rate=5000.0, p99_ceiling_ms=2.0)
        assert plan.best() is plan.options[0]
        feasible = [o for o in plan.options if o.feasible]
        costs = [o.monthly_cost for o in feasible]
        assert costs == sorted(costs)
        # Infeasible options (if any) sort strictly after every feasible one.
        flags = [o.feasible for o in plan.options]
        assert flags == sorted(flags, reverse=True)

    def test_monthly_cost_is_a_30_day_month(self):
        plan = plan_capacity(TEST_MODEL, target_rate=5000.0, p99_ceiling_ms=2.0)
        best = plan.best()
        assert best.monthly_cost == pytest.approx(
            best.hourly_cost * MINUTES_PER_MONTH / 60.0
        )

    def test_native_unit_targets_convert(self):
        plan = plan_capacity(
            TEST_MODEL, target_rate=5000.0, unit=TPMC, p99_ceiling_ms=2.0
        )
        assert plan.unit == TPMC and plan.native_target == 5000.0
        ops = from_native_rate(TPMC, 5000.0)
        equivalent = plan_capacity(TEST_MODEL, target_rate=ops, p99_ceiling_ms=2.0)
        assert plan.best().nodes == equivalent.best().nodes

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            plan_capacity(TEST_MODEL, target_rate=0.0, p99_ceiling_ms=2.0)
        with pytest.raises(ValueError, match="headroom"):
            plan_capacity(TEST_MODEL, target_rate=1.0, p99_ceiling_ms=2.0, headroom=1.0)

    def test_infeasible_targets_render_as_misses(self):
        # 10 nodes cannot serve 60k ops/s on 3000-ops nodes: every option
        # is infeasible, best() is None, and the table says so.
        plan = plan_capacity(
            TEST_MODEL, target_rate=60000.0, p99_ceiling_ms=2.0, max_nodes=10
        )
        assert plan.best() is None
        text = plan.render()
        assert "NO" in text and "yes" not in text
        payload = json.loads(plan.to_json())
        assert all(o["predicted_p99_ms"] is None for o in payload["options"])

    def test_render_toggles_the_monthly_column(self):
        plan = plan_capacity(TEST_MODEL, target_rate=5000.0, p99_ceiling_ms=2.0)
        with_monthly = plan.render(monthly=True, limit=2)
        without = plan.render(monthly=False, limit=2)
        assert "cost/month" in with_monthly and "cost/month" not in without
        assert len(without.splitlines()) == 4  # header, rule, two options

    def test_same_store_and_query_yield_identical_plan_bytes(self):
        # End-to-end determinism: load the committed store, fit, plan --
        # twice -- and require byte-identical plans, pinned by hash.
        plans = []
        for _ in range(2):
            model = fit_calibration(fixture_records(), name="fixture")
            plans.append(plan_capacity(model, target_rate=9000.0, p99_ceiling_ms=2.0))
        assert plans[0].to_json() == plans[1].to_json()
        digest = hashlib.sha256(plans[0].to_json().encode("utf-8")).hexdigest()
        assert digest == FIXTURE_PLAN_SHA256


class TestPlannerProperties:
    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(0.0, 60000.0), nodes=st.integers(1, 64))
    def test_more_nodes_never_predicts_worse_p99(self, rate, nodes):
        assert DEFAULT_CALIBRATION.predict_p99(
            rate, nodes + 1
        ) <= DEFAULT_CALIBRATION.predict_p99(rate, nodes)

    @settings(max_examples=50, deadline=None)
    @given(
        records=st.lists(
            st.fixed_dictionaries(
                {
                    "scenario": st.just("probe"),
                    "duration_minutes": st.just(10.0),
                    "mean_throughput": st.floats(1.0, 1e6),
                    "machine_minutes": st.floats(1.0, 1e4),
                    "p95_ms": st.floats(0.1, 100.0),
                    "p99_ms": st.floats(0.1, 100.0),
                }
            ),
            min_size=1,
            max_size=12,
        ),
        rate=st.floats(0.0, 1e6),
        nodes=st.integers(1, 32),
    )
    def test_every_fitted_model_keeps_the_monotonicity_guarantee(
        self, records, rate, nodes
    ):
        # Monotone-by-construction: however adversarial the store, the
        # fitted curve validates and more nodes never predict a worse tail.
        model = fit_calibration(records)
        assert model.predict_p99(rate, nodes + 1) <= model.predict_p99(rate, nodes)

    @settings(max_examples=50, deadline=None)
    @given(
        target=st.floats(100.0, 150000.0),
        ceiling=st.floats(0.9, 5.0),
        headroom=st.floats(0.0, 0.5),
    )
    def test_plans_are_feasible_by_their_own_model(self, target, ceiling, headroom):
        plan = plan_capacity(
            DEFAULT_CALIBRATION,
            target_rate=target,
            p99_ceiling_ms=ceiling,
            headroom=headroom,
        )
        demand = target * (1.0 + headroom)
        for option in plan.options:
            if option.feasible:
                predicted = DEFAULT_CALIBRATION.predict_p99(
                    demand, option.nodes, option.flavor
                )
                assert predicted <= ceiling
                assert option.utilization <= 1.0 + 1e-9


class FakeBackend:
    """Minimal ClusterBackend for the controller: counters under test control."""

    def __init__(self, nodes=("rs1",), metrics=None):
        self.nodes = list(nodes)
        self.total_ops = 0.0
        self.added: list[str] = []
        self.removed: list[str] = []
        self.metrics = metrics or {}

    def online_node_names(self):
        return list(self.nodes)

    def partition_stats(self):
        return {"p0": {"reads": self.total_ops}}

    def add_node(self, config, profile="default"):
        name = f"rs-auto-{len(self.added) + 1}"
        self.nodes.append(name)
        self.added.append(name)
        return name

    def remove_node(self, name):
        self.nodes.remove(name)
        self.removed.append(name)

    def node_system_metrics(self, name):
        return self.metrics.get(name, {"cpu": 0.5, "io_wait": 0.1})


def pump(controller, backend, rates, period=30.0, start=0.0):
    """Feed one served-rate observation per entry via the cumulative counter."""
    now = start
    controller.step(now)  # baseline sample establishes the counter
    for rate in rates:
        now += period
        backend.total_ops += rate * period
        controller.step(now)
    return now


def make_policy(**overrides) -> PlannerPolicy:
    base = dict(
        p99_ceiling_ms=1.0,
        hourly_budget=None,
        monitor_period_seconds=30.0,
        decision_samples=2,
        cooldown_seconds=0.0,
        min_nodes=1,
        max_nodes=8,
    )
    base.update(overrides)
    return PlannerPolicy(**base)


class TestPlannerController:
    def test_scales_up_on_predicted_tail_breach(self):
        backend = FakeBackend()
        controller = PlannerController(backend, model=TEST_MODEL, policy=make_policy())
        # 5000 ops/s on one 3000-ops node: the model predicts an infinite
        # p99, so the planner starts converging toward its target.
        pump(controller, backend, [5000.0, 5000.0])
        assert backend.added == ["rs-auto-1"]
        event = controller.log[-1]
        assert event.kind == AutoscalerAction.ADD_NODE
        assert "ceiling 1ms" in event.detail

    def test_budget_clamp_logs_the_refusal_once_per_ask(self):
        # One node costs 0.05/h and the budget is 0.05/h: the model wants
        # more, the budget refuses, and the refusal is logged once per
        # distinct ask rather than every decision window.
        backend = FakeBackend()
        policy = make_policy(hourly_budget=0.05, node_hourly_rate=0.05)
        assert policy.affordable_nodes() == 1
        controller = PlannerController(backend, model=TEST_MODEL, policy=policy)
        pump(controller, backend, [5000.0] * 4)
        assert backend.added == []
        blocks = [
            e for e in controller.log if e.kind == AutoscalerAction.NONE
        ]
        assert len(blocks) == 1
        assert "budget 0.05/h caps cluster at 1 nodes" in blocks[0].detail
        # A bigger ask is a different trade-off: logged again, still once.
        pump(
            controller,
            backend,
            [9000.0] * 4,
            start=controller._last_sample_time,
        )
        blocks = [
            e for e in controller.log if e.kind == AutoscalerAction.NONE
        ]
        assert len(blocks) == 2 and blocks[0].detail != blocks[1].detail

    def test_scales_down_and_removes_the_least_loaded_node(self):
        metrics = {
            "rs1": {"cpu": 0.9, "io_wait": 0.2},
            "rs2": {"cpu": 0.1, "io_wait": 0.05},
            "rs3": {"cpu": 0.6, "io_wait": 0.7},
        }
        backend = FakeBackend(nodes=("rs1", "rs2", "rs3"), metrics=metrics)
        controller = PlannerController(
            backend, model=TEST_MODEL, policy=make_policy(p99_ceiling_ms=2.0)
        )
        # 1000 ops/s across three nodes is paid-for-but-unused headroom:
        # even demand * (1 + headroom + margin) fits on two nodes.
        pump(controller, backend, [1000.0, 1000.0])
        assert backend.removed == ["rs2"]
        event = controller.log[-1]
        assert event.kind == AutoscalerAction.REMOVE_NODE
        assert "unused headroom" in event.detail

    def test_cooldown_spaces_actions(self):
        backend = FakeBackend()
        controller = PlannerController(
            backend, model=TEST_MODEL, policy=make_policy(cooldown_seconds=3600.0)
        )
        pump(controller, backend, [5000.0] * 6)
        assert len(backend.added) == 1  # later windows land inside the cooldown

    def test_next_wakeup_tracks_the_sampling_cadence(self):
        backend = FakeBackend()
        controller = PlannerController(backend, model=TEST_MODEL, policy=make_policy())
        assert controller.next_wakeup(0.0) == 0.0
        controller.step(0.0)
        assert controller.next_wakeup(0.0) == pytest.approx(30.0 - 1e-9)

    def test_policy_derives_ceiling_from_spec_slos(self):
        spec = CANNED_SCENARIOS["tpcc_steady"]
        policy = planner_policy_for_spec(spec)
        declared = [
            s.p99_ceiling_ms or s.latency_ceiling_ms
            for s in spec.slos
            if s.p99_ceiling_ms or s.latency_ceiling_ms
        ]
        assert policy.p99_ceiling_ms == min(declared)
        assert policy.max_nodes == spec.max_nodes
        assert policy.monitor_period_seconds == spec.monitor_period_seconds


class TestPlannerInTheMatchup:
    @pytest.mark.parametrize("scenario", ["tpcc_steady", "data_growth"])
    def test_planner_beats_both_incumbents_on_cost(self, scenario):
        # The declared win, pinned on golden bytes: equal-or-better
        # violation-minutes at strictly lower cost than MeT *and* Tiramola.
        traces = {
            c: json.loads((GOLDEN / f"{scenario}__{c}.json").read_text())
            for c in ("met", "tiramola", "planner")
        }
        viol = {
            c: sum(r["violation_minutes"] for r in t["slo"]) for c, t in traces.items()
        }
        cost = {c: t["cost"]["total"] for c, t in traces.items()}
        assert viol["planner"] <= min(viol["met"], viol["tiramola"])
        assert cost["planner"] < min(cost["met"], cost["tiramola"])

    def test_planner_undercuts_tiramola_on_flash_crowd(self):
        traces = {
            c: json.loads((GOLDEN / f"flash_crowd__{c}.json").read_text())
            for c in ("tiramola", "planner")
        }
        viol = {
            c: sum(r["violation_minutes"] for r in t["slo"]) for c, t in traces.items()
        }
        cost = {c: t["cost"]["total"] for c, t in traces.items()}
        assert viol["planner"] <= viol["tiramola"]
        assert cost["planner"] < cost["tiramola"]

    def test_scorecard_renders_three_controllers_side_by_side(self):
        rows = [
            ScorecardRow(f"s{i}", c, 1000.0, 0.0, 0.02, 30.0, True)
            for i in (1, 2)
            for c in ("met", "tiramola", "planner")
        ]
        header = render_scorecard(rows).splitlines()[0]
        for controller in ("met", "tiramola", "planner"):
            assert f"{controller}:viol-min" in header
