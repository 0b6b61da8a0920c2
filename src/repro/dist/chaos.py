"""Seeded network chaos for the dist protocol, applied at the frame layer.

:class:`NetChaosPolicy` decides, per outgoing worker frame, one of
:data:`ACTIONS`; :class:`ChaosTransport`, a drop-in
:class:`~repro.dist.frames.FrameTransport`, carries it out:

* ``dup``     -- the frame ships twice (the receiver's
  :class:`~repro.dist.frames.InOrderChannel` drops the second copy);
* ``reorder`` -- the frame is held back and ships *after* the next one
  (the channel buffers the early frame until the gap fills);
* ``delay``   -- a latency spike before the send;
* ``partial`` -- half the frame ships, a beat passes, then either the
  rest follows (exercising TCP reassembly) or the connection dies with
  the frame truncated on the wire;
* ``drop``    -- the connection dies before the frame ships at all.

Decisions are a pure function of ``(seed, stream, frame index)`` --
``stream`` names one connection attempt (worker name + reconnect
count), so a replayed campaign sabotages byte-for-byte the same sends.

Chaos must never *silently* lose a frame: both lethal outcomes surface
as :class:`ConnectionError` to the sending worker, whose reconnect loop
treats them exactly like a real link flap, and a held (reordered) frame
is flushed on :meth:`ChaosTransport.close`.  An abrupt worker death
with a held frame is indistinguishable from dying a frame earlier,
which the lease machinery already covers.  Chaos lives on the worker
side only: coordinator replies travel clean, so request/reply matching
never becomes probabilistic.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import Optional

from repro.dist.frames import FrameTransport
from repro.errors import MelodyError
from repro.rng import generator_for

PARTIAL_STALL_S = 0.01
"""Pause between the two halves of a partial write."""

ACTIONS = ("drop", "dup", "reorder", "delay", "partial", "none")
"""Everything :meth:`NetChaosPolicy.action` can decide for one frame."""


@dataclass(frozen=True)
class NetChaosPolicy:
    """Seeded per-frame sabotage schedule for one worker's connections."""

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    delay_prob: float = 0.0
    partial_prob: float = 0.0
    delay_s: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        probs = (
            self.drop_prob, self.dup_prob, self.reorder_prob,
            self.delay_prob, self.partial_prob,
        )
        if min(probs) < 0 or sum(probs) > 1.0:
            raise MelodyError(
                "net chaos probabilities must be >= 0 and sum to <= 1"
            )
        if self.delay_s < 0:
            raise MelodyError("delay_s must be >= 0")

    @classmethod
    def from_seed(cls, seed: int) -> "NetChaosPolicy":
        """The standard drill mix (the CLI's ``--net-chaos SEED``).

        Mostly-benign sabotage (dup/reorder/delay) with a real but
        modest rate of connection loss, so a drilled campaign exercises
        reconnection and lease recovery without spending most of its
        wall time reconnecting.
        """
        return cls(
            drop_prob=0.04,
            dup_prob=0.10,
            reorder_prob=0.12,
            delay_prob=0.08,
            partial_prob=0.06,
            seed=seed,
        )

    def action(self, stream: str, index: int) -> str:
        """The sabotage for frame ``index`` of connection ``stream``."""
        r = generator_for(
            self.seed, "netchaos", stream, str(index)
        ).random()
        threshold = 0.0
        for name, prob in (
            ("drop", self.drop_prob),
            ("dup", self.dup_prob),
            ("reorder", self.reorder_prob),
            ("delay", self.delay_prob),
            ("partial", self.partial_prob),
        ):
            threshold += prob
            if r < threshold:
                return name
        return "none"

    def partial_completes(self, stream: str, index: int) -> bool:
        """Whether a partial write finishes (vs dropping the link).

        A separate keyed draw so the completion choice does not perturb
        the action sequence of later frames.
        """
        return generator_for(
            self.seed, "netchaos-partial", stream, str(index)
        ).random() < 0.5


class ChaosTransport(FrameTransport):
    """A ``FrameTransport`` whose sends pass through a chaos policy."""

    def __init__(
        self,
        sock: socket.socket,
        policy: NetChaosPolicy,
        stream: str,
        sleep=time.sleep,
    ):
        super().__init__(sock)
        self._policy = policy
        self._stream = stream
        self._sleep = sleep
        self._frame_index = 0
        self._held: Optional[bytes] = None
        self.actions_taken = {name: 0 for name in ACTIONS}

    def _sever(self, reason: str) -> None:
        """Kill the connection and surface it to the caller."""
        self.close()
        raise ConnectionResetError(f"net chaos: {reason}")

    def _ship(self, data: bytes, seq: int) -> None:
        self._frame_index += 1
        index = self._frame_index
        action = self._policy.action(self._stream, index)
        self.actions_taken[action] += 1
        held, self._held = self._held, None
        if action == "drop":
            self._sever(f"connection dropped before frame {index}")
        if action == "delay":
            self._sleep(self._policy.delay_s)
        if action == "reorder":
            # Hold this frame; it ships right after the next one (or on
            # close).  Anything already held ships now -- at most one
            # frame is ever in flight backwards.
            self._held = data
            if held is not None:
                self._sock.sendall(held)
            return
        if action == "partial":
            half = max(1, len(data) // 2)
            self._sock.sendall(data[:half])
            self._sleep(PARTIAL_STALL_S)
            if not self._policy.partial_completes(self._stream, index):
                self._sever(f"connection died mid-frame {index}")
            self._sock.sendall(data[half:])
        else:
            self._sock.sendall(data)
        if action == "dup":
            self._sock.sendall(data)
        if held is not None:
            self._sock.sendall(held)

    def close(self) -> None:
        """Flush any held reordered frame, then close: no silent loss."""
        held, self._held = self._held, None
        if held is not None:
            try:
                self._sock.sendall(held)
            except OSError:
                pass
        super().close()
