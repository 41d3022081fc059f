"""Counters for the simulation kernels.

:class:`KernelStats` separates real fixed-point solves from reused and
fast-forwarded ticks; the benchmark's steady-state-fraction column and the
quiescence regression tests read these.  How far the event kernel may
fast-forward is derived from node state by
:meth:`~repro.simulation.cluster.ClusterSimulator.quiescent_ticks`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KernelStats:
    """How the kernel spent its simulated ticks.

    ``ticks`` counts every simulated tick; each tick is either a real
    ``solve``, a ``reused`` tick (cached fixed point replayed through a
    normal :meth:`ClusterSimulator.tick`), or a ``skipped`` tick covered by
    a fast-forwarded macro-tick (``macro_batches`` counts the batches).
    """

    ticks: int = 0
    solves: int = 0
    reused_ticks: int = 0
    skipped_ticks: int = 0
    macro_batches: int = 0

    @property
    def steady_fraction(self) -> float:
        """Fraction of ticks that did not need a real fixed-point solve."""
        if self.ticks <= 0:
            return 0.0
        return 1.0 - self.solves / self.ticks

    def reset(self) -> None:
        """Zero all counters (used between benchmark phases)."""
        self.ticks = 0
        self.solves = 0
        self.reused_ticks = 0
        self.skipped_ticks = 0
        self.macro_batches = 0
