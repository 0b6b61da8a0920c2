"""repro.dist: the fault-tolerant multi-host campaign fabric.

One coordinator (:mod:`repro.dist.coordinator`) owns one campaign,
partitioned into cell-granular work units (identified by
fingerprint-salted cell tokens) and handed to any number of workers
(:mod:`repro.dist.worker`) over a length-prefixed JSON frame protocol
(:mod:`repro.dist.frames`) under **time-bounded leases**
(:mod:`repro.dist.lease`).  The design center is a hostile fleet:

* workers may die, hang, disconnect, or reconnect at any point -- lease
  expiry and connection-loss release recover every unit, bounded
  retries with seeded backoff reassign it, and a unit that fails its
  whole budget quarantines into the same ``FailedCell`` records the
  solo engine writes (graceful degradation, never a wedged campaign);
* the network may drop, duplicate, reorder, delay, or truncate frames
  -- the seeded chaos transport (:mod:`repro.dist.chaos`) injects all
  of it, and sequence-stamped frames plus digest-checked at-most-once
  commit make every schedule converge to the same campaign output;
* the proof obligation is **bit-identity**: a campaign run through the
  coordinator under any chaos schedule produces exports byte-identical
  to a solo run (the ``dist`` diag layer re-proves this on every
  ``repro validate``).

This is the one multi-process campaign path: ``repro campaign
--coordinator`` runs it on one host, ``repro coordinate`` plus ``repro
worker`` across many.  In-process fan-out is the engine's ``--jobs``
pool.

Nothing here leaves the standard library: sockets, threads and JSON.
"""

from repro.dist.chaos import ChaosTransport
from repro.dist.coordinator import (
    Coordinator,
    DistSummary,
    PROTOCOL_VERSION,
    baseline_token,
    campaign_units,
    grid_token,
    result_digest,
)
from repro.dist.frames import (
    FrameError,
    FrameTransport,
    InOrderChannel,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.dist.lease import Lease, LeaseTable, WorkUnit
from repro.dist.spec import CampaignSpec, resolve_target
from repro.dist.worker import Worker

__all__ = [
    "CampaignSpec",
    "ChaosTransport",
    "Coordinator",
    "DistSummary",
    "FrameError",
    "FrameTransport",
    "InOrderChannel",
    "Lease",
    "LeaseTable",
    "PROTOCOL_VERSION",
    "WorkUnit",
    "Worker",
    "baseline_token",
    "campaign_units",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "grid_token",
    "resolve_target",
    "result_digest",
]
