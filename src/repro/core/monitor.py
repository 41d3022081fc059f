"""The Monitor component (paper Section 4.1).

Periodically gathers system metrics (CPU, I/O wait, memory) and NoSQL
metrics (per-partition read/write/scan counts, per-node locality index),
applies exponential smoothing, and delivers a snapshot to the Decision Maker
every ``decision_samples`` samples.  Observations taken before the last
actuator action are discarded.
"""

from __future__ import annotations

from repro.core.parameters import MeTParameters
from repro.monitoring.collector import ClusterSnapshot, MetricsCollector, MetricsSource


class Monitor:
    """Drives the metrics collector and produces decision snapshots.

    One :class:`MetricsCollector` samples both metric families the paper
    gathers -- the Ganglia-style system metrics and the JMX-style request
    counters -- so each monitoring period reads the source exactly once.
    """

    def __init__(self, source: MetricsSource, parameters: MeTParameters | None = None) -> None:
        self.parameters = (parameters or MeTParameters()).validate()
        self.source = source
        self.collector = MetricsCollector(
            source,
            period_seconds=self.parameters.monitor_period_seconds,
            decision_samples=self.parameters.decision_samples,
            smoothing_alpha=self.parameters.smoothing_alpha,
        )
        self.samples_taken = 0

    def step(self, now: float) -> None:
        """Sample the cluster if the monitoring period elapsed."""
        if not self.collector.due(now):
            return
        self.collector.sample(now)
        self.samples_taken += 1

    def next_wakeup(self, now: float) -> float:
        """Earliest simulated time at which :meth:`step` does real work.

        ``step(t)`` is a no-op for every ``t`` strictly below the returned
        time (the collector only samples when the monitoring period elapsed),
        so the event-kernel harness may fast-forward across the gap.
        """
        return self.collector.next_due(now)

    def decision_due(self) -> bool:
        """Whether enough samples accumulated for a Decision Maker round."""
        return self.collector.decision_due()

    def snapshot(self, now: float) -> ClusterSnapshot:
        """Build the smoothed snapshot for the Decision Maker."""
        return self.collector.snapshot(now)

    def reset_after_action(self) -> None:
        """Discard pre-action observations (called by the actuator)."""
        self.collector.reset_after_action()
