"""Common interface for elasticity controllers.

MeT, the tiramola baseline and the planner are all *controllers*: they
observe a cluster backend and occasionally act on it.  The experiment
harness only needs the ``step(now)`` entry point, but the autoscaler base
class also standardises the decision log -- one :class:`ControllerEvent`
list per controller -- so experiments and traces report every controller's
decisions in the same shape, and the sampling cadence the threshold-style
controllers (tiramola, the planner) share.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.interfaces import ClusterBackend


class AutoscalerAction(str, enum.Enum):
    """Kinds of scaling actions a controller can take."""

    ADD_NODE = "add_node"
    REMOVE_NODE = "remove_node"
    RECONFIGURE = "reconfigure"
    NONE = "none"


@dataclass
class ControllerEvent:
    """One recorded controller decision or action.

    ``kind`` is a plain string: an :class:`AutoscalerAction` value such as
    ``"add_node"``, or one of MeT's ``"healthy"``/``"plan"``/
    ``"plan-complete"``.
    """

    timestamp: float
    kind: str
    node: str | None = None
    detail: str = ""

    def as_record(self) -> dict:
        """The event in the controller-agnostic, JSON-able trace shape."""
        return {
            "minute": self.timestamp / 60.0,
            "kind": self.kind,
            "detail": " ".join(part for part in (self.node or "", self.detail) if part),
        }


class Autoscaler(ABC):
    """Base class for elasticity controllers driven by the harness.

    Subclasses with a ``policy`` carrying ``monitor_period_seconds`` and
    ``cooldown_seconds`` get a shared cadence: sample once per monitor
    period (:meth:`_sample_due`, :meth:`next_wakeup`) and hold off acting
    for the cooldown after each action (:meth:`_in_cooldown`).
    """

    def __init__(self, backend: ClusterBackend) -> None:
        self.backend = backend
        self.log: list[ControllerEvent] = []
        self._last_sample_time: float | None = None
        self._last_action_time: float | None = None

    @abstractmethod
    def step(self, now: float) -> None:
        """Observe the cluster at time ``now`` and act if needed."""

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` may do real work.

        ``step(t)`` returns immediately unless a sample is due, so the next
        sampling instant bounds how far the event-kernel harness may
        fast-forward without consulting this controller.
        """
        if self._last_sample_time is None:
            return now
        return self._last_sample_time + self.policy.monitor_period_seconds - 1e-9

    def _record(
        self, timestamp: float, kind: str, node: str | None = None, detail: str = ""
    ) -> None:
        """Append one event to the decision log."""
        self.log.append(ControllerEvent(timestamp, kind, node=node, detail=detail))

    def _sample_due(self, now: float) -> bool:
        if self._last_sample_time is None:
            return True
        return now - self._last_sample_time >= self.policy.monitor_period_seconds - 1e-9

    def _in_cooldown(self, now: float) -> bool:
        if self._last_action_time is None:
            return False
        return now - self._last_action_time < self.policy.cooldown_seconds
