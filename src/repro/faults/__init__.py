"""repro.faults: deterministic CXL RAS fault injection + host chaos.

Two halves, both seeded and content-addressed:

* **Device faults** (:mod:`repro.faults.plan`, :mod:`repro.faults.inject`)
  -- scheduled :class:`FaultEpisode` windows (link CRC retry storms,
  device dropout, thermal throttle, ECC events) described by a pure-data
  :class:`FaultPlan` and applied to the event-driven simulator's prepared
  inputs, identically in both engines.
* **Host chaos** (:mod:`repro.faults.chaos`) -- worker kills, injected
  errors, and hangs against the campaign runtime, which the resilient
  executor must retry, time out, or quarantine.

Network chaos on the dist coordinator/worker wire lives next to its one
consumer, the frame transport, in :mod:`repro.dist.chaos`.

Importing this package is free of side effects: with no plan installed
every fault-free code path is byte-identical to a build without the
subsystem (the ``faults`` diag layer enforces this).  The end-to-end
chaos harness lives in :mod:`repro.faults.harness` (imported lazily; it
pulls in the campaign stack).
"""

from repro.faults.chaos import (
    ChaosError,
    ChaosPolicy,
    active_chaos,
    chaos_injection,
    clear_chaos,
    install_chaos,
)
from repro.faults.inject import AppliedFaults, apply_fault_plan
from repro.faults.plan import (
    EPISODE_KINDS,
    FaultEpisode,
    FaultPlan,
    active_fault_plan,
    clear_fault_plan,
    fault_injection,
    install_fault_plan,
    load_plan,
    retry_storm_plan,
)

__all__ = [
    "AppliedFaults",
    "ChaosError",
    "ChaosPolicy",
    "EPISODE_KINDS",
    "FaultEpisode",
    "FaultPlan",
    "active_chaos",
    "active_fault_plan",
    "apply_fault_plan",
    "chaos_injection",
    "clear_chaos",
    "clear_fault_plan",
    "fault_injection",
    "install_chaos",
    "install_fault_plan",
    "load_plan",
    "retry_storm_plan",
]
