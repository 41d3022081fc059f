"""Reproduction of *MeT: workload aware elasticity for NoSQL* (EuroSys 2013).

The package is organised as the paper's system plus every substrate it
depends on:

* :mod:`repro.simulation` -- deterministic, time-stepped cluster simulator
  (hardware budgets, per-operation cost model, closed-loop clients).
* :mod:`repro.hdfs` -- HDFS-like block storage with replication and a
  locality index per node.
* :mod:`repro.hbase` -- a functional mini-HBase: tables, regions,
  RegionServers with memstore and LRU block cache, master, balancers and a
  key-value client API (put/get/delete/scan).
* :mod:`repro.iaas` -- an OpenStack-like IaaS provider used by the actuator
  to start and stop virtual machines.
* :mod:`repro.monitoring` -- the metrics collector (system metrics and
  request counters) and exponential smoothing.
* :mod:`repro.core` -- the MeT framework itself: Monitor, Decision Maker
  (Stages A-D, Algorithms 1-3) and Actuator, plus the node configuration
  profiles of Table 1.
* :mod:`repro.elasticity` -- the baselines used in the paper's evaluation:
  the tiramola-style autoscaler and the manual placement strategies.
* :mod:`repro.workloads` -- YCSB workloads A-F and a TPC-C (PyTPCC-like)
  workload generator.
* :mod:`repro.experiments` -- the harness that regenerates every table and
  figure of the paper's evaluation section.
"""

from repro.core.framework import MeT
from repro.core.parameters import MeTParameters
from repro.core.profiles import NODE_PROFILES, NodeProfile
from repro.simulation.cluster import ClusterSimulator
from repro.simulation.hardware import HardwareSpec

__version__ = "1.0.0"

__all__ = [
    "MeT",
    "MeTParameters",
    "NODE_PROFILES",
    "NodeProfile",
    "ClusterSimulator",
    "HardwareSpec",
    "__version__",
]
