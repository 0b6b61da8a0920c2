"""Time-bounded work leases with at-most-once commit.

:class:`LeaseTable` is the coordinator's brain, kept deliberately pure:
no sockets, no threads, no real clock -- callers inject ``clock`` (the
coordinator passes ``time.monotonic``; tests pass a fake) and serialize
access themselves.  Every unit of campaign work moves through a small
state machine:

```
pending --acquire--> leased --commit--> committed       (terminal)
   ^                   |
   |   expire / fail / release (attempt charged,
   |   seeded backoff gates the retry)
   +-------------------+
   |
   +--attempts exhausted--> quarantined                 (terminal*)
```

(*) a late *successful* delivery resurrects a quarantined unit: the
work demonstrably finished, so graceful degradation yields to the
result.  Quarantine records are :class:`~repro.runtime.executor
.FailedCell` documents -- the same records PR 5's resilient engine
writes -- so the checkpoint/resume path downstream needs no new cases.

**Attempt accounting.**  An attempt is charged when the lease is
*granted*, because every way a granted lease can end badly -- worker
error report, lease expiry (covers hangs and silent death), connection
loss -- means the attempt really ran (or wedged).  Bounding attempts at
grant time is what makes a deterministic crash-on-cell loop terminate:
a worker that dies on a unit every time consumes the unit's budget and
the unit quarantines, instead of the campaign ping-ponging forever.

**At-most-once commit.**  The first result delivered for a unit wins
and is committed exactly once; every later delivery is compared by
digest of the canonical result document.  Identical digest -- a
duplicate (chaos redelivery, a reassigned unit finishing twice) -- is
counted and dropped.  Divergent digest is a **conflict**: two workers
disagreeing about deterministic work means one of them is broken, and
the table records it loudly instead of letting either result silently
win the cache.

``expiry`` uses ``now >= deadline`` -- a lease is dead *exactly at* its
deadline, so a clock that lands on the boundary reassigns rather than
trusting a worker that is provably out of time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MelodyError
from repro.runtime.executor import FailedCell, RetryPolicy

UNIT_KINDS = ("baseline", "grid")


@dataclass(frozen=True)
class WorkUnit:
    """One leasable unit: a single campaign cell, by identity."""

    unit_id: str
    """Stable cell token (see :func:`repro.dist.coordinator.grid_token`)."""
    kind: str
    """``baseline`` or ``grid``."""
    workload: str
    target: str
    key: str
    """The cell's content-addressed run key (cache identity)."""
    platform: str = ""
    """Display name for quarantine records (not part of identity)."""

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise MelodyError(
                f"unit kind must be one of {UNIT_KINDS}: {self.kind!r}"
            )

    def descriptor(self) -> Dict[str, object]:
        """The wire form workers receive inside a lease frame."""
        return {
            "unit_id": self.unit_id,
            "kind": self.kind,
            "workload": self.workload,
            "target": self.target,
        }


@dataclass(frozen=True)
class Lease:
    """One granted lease: a unit, a worker, an attempt, a deadline."""

    lease_id: str
    unit_id: str
    worker: str
    attempt: int
    granted_at: float
    deadline: float


class _UnitState:
    """Mutable per-unit bookkeeping (internal to the table)."""

    __slots__ = (
        "unit", "status", "attempts", "not_before", "lease", "digest",
        "failure",
    )

    def __init__(self, unit: WorkUnit):
        self.unit = unit
        self.status = "pending"
        self.attempts = 0
        self.not_before = 0.0
        self.lease: Optional[Lease] = None
        self.digest: Optional[str] = None
        self.failure: Optional[FailedCell] = None


class LeaseTable:
    """The pure lease state machine over one campaign's work units."""

    def __init__(
        self,
        units: Sequence[WorkUnit],
        policy: Optional[RetryPolicy] = None,
        lease_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if lease_s <= 0:
            raise MelodyError(f"lease_s must be positive, got {lease_s}")
        seen: Dict[str, WorkUnit] = {}
        for unit in units:
            if unit.unit_id in seen:
                raise MelodyError(f"duplicate unit id {unit.unit_id!r}")
            seen[unit.unit_id] = unit
        self._units: Dict[str, _UnitState] = {
            unit_id: _UnitState(unit) for unit_id, unit in seen.items()
        }
        self._order: Tuple[str, ...] = tuple(seen)
        self.policy = policy if policy is not None else RetryPolicy(
            max_attempts=5, backoff_base_s=0.05, backoff_max_s=1.0
        )
        self.lease_s = lease_s
        self.clock = clock
        self._grants = 0
        self.counters: Dict[str, int] = {
            "granted": 0, "expired": 0, "released": 0, "failed": 0,
            "committed": 0, "late_commits": 0, "duplicates": 0,
            "conflicts": 0, "quarantined": 0, "resurrected": 0,
        }
        self.conflicts: List[Dict[str, str]] = []

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._units)

    @property
    def done(self) -> bool:
        """All units terminal (committed or quarantined)."""
        return all(
            state.status in ("committed", "quarantined")
            for state in self._units.values()
        )

    def unit(self, unit_id: str) -> WorkUnit:
        """The work unit behind ``unit_id`` (KeyError when unknown)."""
        return self._units[unit_id].unit

    def committed_keys(self) -> List[str]:
        """Run keys of every committed unit (for store promotion)."""
        return [
            state.unit.key for state in self._units.values()
            if state.status == "committed"
        ]

    def quarantined(self) -> List[FailedCell]:
        """Quarantine records, in unit submission order."""
        return [
            self._units[unit_id].failure
            for unit_id in self._order
            if self._units[unit_id].status == "quarantined"
        ]

    def outstanding(self) -> List[Lease]:
        """Currently granted leases."""
        return [
            state.lease for state in self._units.values()
            if state.status == "leased" and state.lease is not None
        ]

    def progress(self) -> Dict[str, int]:
        """Unit counts by status (for banners and wide events)."""
        counts = {"pending": 0, "leased": 0, "committed": 0,
                  "quarantined": 0}
        for state in self._units.values():
            counts[state.status] += 1
        return counts

    def next_ready_s(self) -> Optional[float]:
        """Seconds until the earliest backoff-gated unit is grantable.

        ``0.0`` means a unit is grantable now; ``None`` means nothing is
        pending at all (every unit is leased or terminal), so a fetching
        worker should poll again after a short wait.
        """
        now = self.clock()
        waits = [
            max(0.0, state.not_before - now)
            for state in self._units.values()
            if state.status == "pending"
        ]
        return min(waits) if waits else None

    # -- transitions -------------------------------------------------------

    def acquire(self, worker: str) -> Optional[Lease]:
        """Grant the first ready pending unit to ``worker``."""
        now = self.clock()
        for unit_id in self._order:
            state = self._units[unit_id]
            if state.status != "pending" or state.not_before > now:
                continue
            self._grants += 1
            state.attempts += 1
            lease = Lease(
                lease_id=f"L{self._grants}",
                unit_id=unit_id,
                worker=worker,
                attempt=state.attempts,
                granted_at=now,
                deadline=now + self.lease_s,
            )
            state.status = "leased"
            state.lease = lease
            self.counters["granted"] += 1
            return lease
        return None

    def expire(self) -> List[Lease]:
        """Reap every lease at or past its deadline; returns the reaped.

        Expiry covers hung workers and silently dead connections alike:
        the attempt stays charged and the unit returns to ``pending``
        behind its seeded backoff (or quarantines when the budget is
        spent).
        """
        now = self.clock()
        reaped: List[Lease] = []
        for state in self._units.values():
            lease = state.lease
            if state.status != "leased" or lease is None:
                continue
            if now >= lease.deadline:
                reaped.append(lease)
                self.counters["expired"] += 1
                self._settle_failure(
                    state, "timeout",
                    f"lease {lease.lease_id} expired after "
                    f"{self.lease_s:.1f}s on {lease.worker}",
                )
        return reaped

    def fail(
        self, unit_id: str, lease_id: str, worker: str,
        reason: str, message: str,
    ) -> bool:
        """A worker reported the leased attempt failed.

        Only the current lease holder can fail a unit; stale reports
        (an expired lease's worker finally answering) are dropped --
        the expiry already charged that attempt.
        """
        state = self._units.get(unit_id)
        if state is None or state.status != "leased":
            return False
        lease = state.lease
        if lease is None or lease.lease_id != lease_id \
                or lease.worker != worker:
            return False
        self.counters["failed"] += 1
        self._settle_failure(state, reason, message)
        return True

    def release_worker(self, worker: str) -> List[Lease]:
        """The worker's connection died: settle every lease it holds.

        A lost connection mid-lease is a crash as far as the unit is
        concerned -- the attempt stays charged, which bounds the
        reconnect-and-die-again loop of a worker that crashes
        deterministically on one unit.
        """
        released: List[Lease] = []
        for state in self._units.values():
            lease = state.lease
            if state.status != "leased" or lease is None \
                    or lease.worker != worker:
                continue
            released.append(lease)
            self.counters["released"] += 1
            self._settle_failure(
                state, "crash",
                f"worker {worker} disconnected holding "
                f"{lease.lease_id}",
            )
        return released

    def commit(
        self, unit_id: str, lease_id: str, worker: str, digest: str
    ) -> str:
        """Record one result delivery; returns the commit verdict.

        * ``"committed"``   -- first delivery, by the current holder;
        * ``"late"``        -- first delivery, but the lease had expired
          or moved on (the result still wins: work is deterministic);
        * ``"resurrected"`` -- first delivery for a unit already
          quarantined (the quarantine is revoked);
        * ``"duplicate"``   -- already committed with the same digest;
        * ``"conflict"``    -- already committed with a *different*
          digest (recorded in :attr:`conflicts`);
        * ``"unknown"``     -- no such unit.

        The caller performs the actual cache write exactly when the
        verdict is one of the three accepting outcomes -- that pairing
        is the at-most-once guarantee.
        """
        state = self._units.get(unit_id)
        if state is None:
            return "unknown"
        if state.status == "committed":
            if state.digest == digest:
                self.counters["duplicates"] += 1
                return "duplicate"
            self.counters["conflicts"] += 1
            self.conflicts.append({
                "unit_id": unit_id,
                "worker": worker,
                "lease_id": lease_id,
                "digest": digest,
                "committed_digest": state.digest or "",
            })
            return "conflict"
        verdict = "committed"
        if state.status == "quarantined":
            verdict = "resurrected"
            self.counters["resurrected"] += 1
            state.failure = None
        elif state.status == "pending" or (
            state.lease is not None
            and (state.lease.lease_id != lease_id
                 or state.lease.worker != worker)
        ):
            verdict = "late"
            self.counters["late_commits"] += 1
        state.status = "committed"
        state.digest = digest
        state.lease = None
        self.counters["committed"] += 1
        return verdict

    # -- internals ---------------------------------------------------------

    def _settle_failure(
        self, state: _UnitState, reason: str, message: str
    ) -> None:
        """Route one failed attempt: backoff-gated retry or quarantine."""
        unit = state.unit
        state.lease = None
        if state.attempts >= self.policy.max_attempts:
            state.status = "quarantined"
            state.failure = FailedCell(
                key=unit.key,
                workload=unit.workload,
                platform=unit.platform,
                target=unit.target,
                attempts=state.attempts,
                reason=reason,
                message=message,
            )
            self.counters["quarantined"] += 1
            return
        state.status = "pending"
        state.not_before = self.clock() + self.policy.backoff_s(
            unit.key, state.attempts
        )
