"""The MeT framework: wiring Monitor, Decision Maker and Actuator together.

Figure 2 of the paper: the Monitor and Actuator interface with the NoSQL
database and the IaaS; the Decision Maker sits between them.  The
:class:`MeT` class is driven by calling :meth:`MeT.step` as (simulated) time
advances: it samples the monitor, runs a decision round when enough samples
accumulated and no action is in flight, and advances the actuator's plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.actuator import Actuator
from repro.core.decision import DecisionMaker, ReconfigurationPlan
from repro.core.interfaces import ClusterBackend
from repro.core.monitor import Monitor
from repro.core.parameters import MeTParameters
from repro.elasticity.autoscaler import Autoscaler


@dataclass
class MeTStatus:
    """Summary of what the controller has done so far."""

    decisions: int = 0
    plans_applied: int = 0


class MeT(Autoscaler):
    """The workload-aware elasticity controller.

    Its decisions go to the shared :attr:`log` as
    :class:`~repro.elasticity.autoscaler.ControllerEvent` records of kind
    ``"healthy"``, ``"plan"`` or ``"plan-complete"``.  Unlike the
    threshold controllers it keeps the monitor's sampling cadence, and its
    cooldown runs from plan *completion* rather than from submission.
    """

    def __init__(
        self,
        backend: ClusterBackend,
        parameters: MeTParameters | None = None,
        enabled: bool = True,
    ) -> None:
        super().__init__(backend)
        self.parameters = (parameters or MeTParameters()).validate()
        self.monitor = Monitor(backend, self.parameters)
        self.decision_maker = DecisionMaker(self.parameters)
        self.actuator = Actuator(
            backend, self.parameters, on_plan_complete=self._plan_completed
        )
        self.enabled = enabled
        self.status = MeTStatus()
        self._last_action_finished: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Enable the controller (it can be constructed disabled)."""
        self.enabled = True

    def stop(self) -> None:
        """Disable the controller; in-flight actuator work still completes."""
        self.enabled = False

    def step(self, now: float) -> ReconfigurationPlan | None:
        """Advance the controller at simulated time ``now``.

        Returns the plan submitted this step, if any.
        """
        if not self.enabled and not self.actuator.busy:
            return None
        self.monitor.step(now)
        self.actuator.step(now)
        if not self.enabled or self.actuator.busy:
            return None
        if not self.monitor.decision_due():
            return None
        if self._in_cooldown(now):
            return None
        snapshot = self.monitor.snapshot(now)
        plan = self.decision_maker.decide(snapshot)
        self.status.decisions += 1
        if plan is None or plan.is_noop():
            self._record(now, "healthy", detail="cluster load acceptable")
            return None
        submitted = self.actuator.submit(plan, now)
        if not submitted:
            return None
        self._record(
            now,
            "plan",
            detail=f"initial={plan.initial} restarts={plan.restarts} "
            f"adds={len(plan.new_nodes)} removes={len(plan.nodes_to_remove)} "
            f"moves={len(plan.moves)}",
        )
        return plan

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        ``step(t)`` is a no-op for every ``t`` strictly below the returned
        time, which lets the event-kernel harness skip the intervening
        ticks.  While the actuator has an in-flight plan the controller
        must be stepped every tick (``now``); when disabled and idle it
        never acts (``inf``); otherwise the next monitor sampling instant
        bounds the wakeup.  A decision that is already due but held back by
        the cooldown fires on the first *step* after the cooldown lapses --
        not on a sampling tick -- so a pending decision bounds the wakeup
        by the cooldown-expiry instant as well.
        """
        if self.actuator.busy:
            return now
        if not self.enabled:
            return float("inf")
        wake = self.monitor.next_wakeup(now)
        if self.monitor.decision_due():
            if self._last_action_finished is None:
                return now
            cooldown_end = (
                self._last_action_finished + self.parameters.cooldown_seconds
            )
            return min(wake, max(now, cooldown_end))
        return wake

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _in_cooldown(self, now: float) -> bool:
        if self._last_action_finished is None:
            return False
        return now - self._last_action_finished < self.parameters.cooldown_seconds

    def _plan_completed(self, now: float) -> None:
        self.status.plans_applied += 1
        self._last_action_finished = now
        self._record(now, "plan-complete")
        self.monitor.reset_after_action()
