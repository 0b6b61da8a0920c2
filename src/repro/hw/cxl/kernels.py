"""Vectorized max-plus scan kernels for the event-driven CXL simulator.

The request pipeline in :mod:`repro.hw.cxl.eventdevice` is feed-forward
and draws all of its randomness before the event loop, so each contention
stage reduces to an array recurrence that NumPy can evaluate without a
per-request Python loop:

* **Serial resources** (inbound link, MC dispatch, outbound link) obey

      ``start[i] = max(entry[i], start[i-1] + service[i-1])``

  which, with ``shift[i] = sum(service[:i])`` hoisted out, becomes a
  *max-plus prefix scan*::

      start = np.maximum.accumulate(entry - shift) + shift

* **Banked DRAM** groups requests by bank (one stable argsort shared by
  the row-state and busy-time kernels).  Row-buffer outcomes
  (hit/miss/conflict) resolve from a forward-fill over the sorted order;
  the per-bank busy/refresh recurrence runs as a *lane-parallel rounds
  loop*: the k-th request of every bank forms one short NumPy row, so the
  Python-level loop runs ``max_requests_per_bank`` times over ``n_banks``
  wide vectors instead of ``n`` times over scalars.

* **Batched cells** (:func:`batch_timeline`) stack B independent
  simulations into one kernel invocation.  Serial-resource scans run as
  one ``(B, n_max)`` row-parallel scan (``maximum.accumulate`` over
  ``axis=1`` treats rows independently); the bank stage concatenates all
  cells into one flat lane space (cell i's bank b becomes global lane
  ``lane_offset[i] + b``), so one stable sort, one forward-fill, and one
  rounds loop cover every cell.  Per-cell divisors (tREFI, refresh block)
  ride per-lane constant vectors; elementwise ufuncs on stacked rows or
  broadcast columns perform the identical IEEE-754 operation per element,
  which is what keeps every cell's result byte-identical to a solo run.

Bit-identity contract
---------------------
The scalar reference loop in ``eventdevice`` performs the *same IEEE-754
operations in the same order* as these kernels: both read the shared
precomputed arrays in :class:`SimInputs` (shift tables, outbound service,
RNG draws), both use the max-plus form of each serial-resource update, and
both evaluate the bank stage in the refresh-phase-shifted time domain.
``np.maximum.accumulate`` and the rounds loop are strictly sequential in
their recurrence dimension, so scalar and vector engines return
bit-identical latencies and event counters (the ``device`` diag layer and
the cross-engine test suite enforce this; the batch engine extends the
same contract across stacked cells, enforced by ``eventsim-batch-identity``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_LANE_PAD = 1e300
"""Entry-time sentinel for padded scan rows (ragged batches).

A padded slot behaves like a request arriving in the far future: a
left-to-right ``maximum.accumulate`` can never leak it into the real
prefix, so a short cell's trailing pads ride harmlessly at the end of its
row.  The *rounds-domain* matrices pad with ``0.0`` instead: a padded
rounds slot is either never processed (the batched loop trims each round
to live lanes) or produces a ``done`` no real request ever reads, and a
zero pad keeps ``% tREFI`` on the cheap small-magnitude path where the
old ``1e300`` sentinel paid hundreds of ns per element in ``fmod``.
"""


@dataclass(frozen=True)
class SimInputs:
    """Everything one simulation needs, precomputed once for both engines.

    All randomness is drawn before either engine runs, and the serial-
    resource shift tables are materialized here so the scalar loop and the
    vector kernels literally index the same arrays.
    """

    n: int
    n_banks: int
    # model constants
    flit_ns: float
    stack_ns: float
    dispatch_ns: float
    fixed_mc_ns: float
    trefi_ns: float
    refresh_block_ns: float
    row_hit_ns: float
    row_miss_ns: float
    row_conflict_ns: float
    retry_penalty_ns: float
    host_overhead_ns: float
    # per-request RNG draws (arrival order)
    arrivals: np.ndarray
    banks: np.ndarray
    row_reuse: np.ndarray
    rows: np.ndarray
    retry_draw: np.ndarray
    writes: np.ndarray
    # per-bank refresh stagger
    refresh_phase: np.ndarray
    # serial-resource tables: shift[i] = cumulative service before i
    shift_in: np.ndarray
    shift_mc: np.ndarray
    svc_out: np.ndarray
    shift_out: np.ndarray
    # per-request bank-service derating (fault injection: thermal windows);
    # None -- the fault-free default -- means no multiply happens at all,
    # keeping the fault-free float sequence untouched
    service_scale: Optional[np.ndarray] = None


@dataclass(frozen=True)
class VectorTimeline:
    """What the vector engine hands back to the simulator."""

    latencies_ns: np.ndarray
    bank_conflicts: int
    refresh_collisions: int


class _ScratchArena(threading.local):
    """Reusable kernel work buffers, one set per thread.

    One flat buffer per (name, dtype), grown geometrically and viewed to
    the requested shape, so repeated kernel calls of similar size stop
    paying an allocator round-trip per temporary.  Buffers hold stale
    garbage between calls; every user fully overwrites (or scatter-fills
    after zeroing) before reading.  The arena is thread-local: NumPy
    releases the GIL inside the kernels, so threads that shared buffers
    (``repro serve --workers N``) would overwrite each other's
    temporaries mid-simulation.
    """

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[str, object], np.ndarray] = {}

    def take(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        need = 1
        for dim in shape:
            need *= int(dim)
        key = (name, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or buf.size < need:
            buf = np.empty(max(need, 1), dtype=dtype)
            self._bufs[key] = buf
        return buf[:need].reshape(shape)

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        out = self.take(name, shape, dtype)
        out[...] = 0
        return out


_SCRATCH = _ScratchArena()


def maxplus_scan(
    entry: np.ndarray, shift: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Start times of a serial resource as a max-plus prefix scan.

    Solves ``start[i] = max(entry[i], start[i-1] + service[i-1])`` where
    ``shift`` is the exclusive cumulative service.  ``maximum.accumulate``
    is sequential, so the result is bit-identical to the scalar recurrence
    written in the same ``m = max(m, entry - shift); start = m + shift``
    form.  ``out`` (optional) receives the result in place -- same three
    ufuncs in the same order, one temporary instead of three.
    """
    tmp = np.subtract(entry, shift, out=out)
    np.maximum.accumulate(tmp, out=tmp)
    return np.add(tmp, shift, out=tmp)


def bank_sort(inp: SimInputs):
    """Group requests by bank: one stable argsort shared by both kernels.

    Returns ``(order, bounds, counts, first)`` where ``order`` sorts
    requests by bank (arrival order preserved within a bank), ``bounds``
    holds each bank's ``[start, end)`` slice of the sorted arrays, and
    ``first`` marks each bank's first-ever request in sorted order.
    """
    order = np.argsort(inp.banks, kind="stable")
    counts = np.bincount(inp.banks, minlength=inp.n_banks)
    bounds = np.zeros(inp.n_banks + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    first = np.zeros(inp.n, dtype=bool)
    first[bounds[:-1][counts > 0]] = True
    return order, bounds, counts, first


def row_states(
    inp: SimInputs, order: np.ndarray, first: np.ndarray
):
    """Resolve row-buffer outcomes for the bank-sorted request stream.

    Returns ``(service_sorted, conflicts)``.  Within each bank's segment
    the effective row of a request is its own draw unless it reuses the
    bank's open row; a forward-fill over "last non-reuse index" recovers
    the open row without walking the segment: each segment's first request
    anchors to itself (its index exceeds every earlier segment's), so one
    global ``maximum.accumulate`` respects segment boundaries.
    """
    reuse_s = inp.row_reuse[order] & ~first
    rows_s = inp.rows[order]
    idx = np.arange(inp.n, dtype=np.int64)
    anchor = np.maximum.accumulate(np.where(reuse_s, 0, idx))
    eff_row = rows_s[anchor]
    prev_row = np.empty_like(eff_row)
    prev_row[1:] = eff_row[:-1]
    if inp.n:
        prev_row[0] = -1
    # A request hits when it lands on the bank's open row -- by reuse or
    # by its fresh draw colliding with it, exactly as the scalar open-row
    # comparison decides.  First touches are cold misses; the rest of the
    # non-hits close an open row: conflicts.
    hit = ~first & (eff_row == prev_row)
    conflict = ~first & ~hit
    service_s = np.where(
        hit,
        inp.row_hit_ns,
        np.where(first, inp.row_miss_ns, inp.row_conflict_ns),
    )
    if inp.service_scale is not None:
        # Thermal-throttle derating: one multiply per request, mirrored by
        # the scalar loop at the same point, so the engines stay bit-equal.
        service_s = service_s * inp.service_scale[order]
    return service_s, int(np.count_nonzero(conflict))


def bank_recurrence(
    inp: SimInputs,
    entry_s: np.ndarray,
    service_s: np.ndarray,
    order: np.ndarray,
    bounds: np.ndarray,
    counts: np.ndarray,
):
    """Per-bank busy/refresh recurrence as a lane-parallel rounds loop.

    Works in the refresh-phase-shifted time domain (``x' = x + phase[b]``)
    so the refresh test is a plain ``% tREFI`` per lane; ``max`` commutes
    with the shift exactly, so shifted and unshifted recurrences agree
    bit-for-bit.  Each bank's k-th request occupies row ``k`` of a padded
    ``(max_count, n_banks)`` matrix; the rounds loop is the only remaining
    Python loop, and its body is six ufunc calls over the bank axis.

    Returns ``(done, refresh_collisions)`` with ``done`` in arrival order
    and the real (unshifted) time domain.
    """
    n, n_banks = inp.n, inp.n_banks
    trefi, block = inp.trefi_ns, inp.refresh_block_ns
    maxc = int(counts.max()) if n else 0

    # Lane-major fill via per-bank slices (cheap: n_banks memcpys), then
    # transpose to round-major so each round reads contiguous rows.
    # Padded slots hold 0.0 -- their (never read back) ``done`` chains
    # stay small-magnitude, keeping the per-round ``% tREFI`` cheap.
    t_lanes = _SCRATCH.zeros("cell.t_lanes", (n_banks, maxc))
    s_lanes = _SCRATCH.zeros("cell.s_lanes", (n_banks, maxc))
    for b in range(n_banks):
        lo, hi = bounds[b], bounds[b + 1]
        np.add(entry_s[lo:hi], inp.refresh_phase[b], out=t_lanes[b, : hi - lo])
        s_lanes[b, : hi - lo] = service_s[lo:hi]
    t_mat = _SCRATCH.take("cell.t_mat", (maxc, n_banks))
    s_mat = _SCRATCH.take("cell.s_mat", (maxc, n_banks))
    np.copyto(t_mat, t_lanes.T)
    np.copyto(s_mat, s_lanes.T)
    phase_mat = _SCRATCH.take("cell.phase_mat", (maxc, n_banks))
    done_mat = np.empty((maxc, n_banks))

    done_prev = inp.refresh_phase.copy()  # idle banks: shifted zero
    busy = _SCRATCH.take("cell.busy", (n_banks,))
    wait = _SCRATCH.take("cell.wait", (n_banks,))
    ready = _SCRATCH.take("cell.ready", (n_banks,))
    for r in range(maxc):
        phase = phase_mat[r]
        np.maximum(t_mat[r], done_prev, out=busy)
        np.remainder(busy, trefi, out=phase)
        np.subtract(block, phase, out=wait)
        np.add(busy, wait, out=ready)
        np.maximum(ready, busy, out=ready)
        np.add(ready, s_mat[r], out=done_mat[r])
        done_prev = done_mat[r]

    lane_live = np.arange(maxc)[:, None] < counts[None, :]
    refreshes = int(np.count_nonzero((phase_mat < block) & lane_live))

    # Gather back to arrival order and undo the phase shift.
    done_s = np.empty(n)
    done_lanes = done_mat.T
    for b in range(n_banks):
        lo, hi = bounds[b], bounds[b + 1]
        done_s[lo:hi] = done_lanes[b, : hi - lo]
    done = np.empty(n)
    done[order] = done_s
    done -= inp.refresh_phase[inp.banks]
    return done, refreshes


def vector_timeline(inp: SimInputs) -> VectorTimeline:
    """Run the whole pipeline as array kernels; arrival-order results."""
    # Inbound link: wait for the wire, serialize one flit, cross the stack.
    start_in = maxplus_scan(inp.arrivals, inp.shift_in)
    inbound_free = start_in + inp.flit_ns
    mc_entry = inbound_free + inp.stack_ns

    # MC: dispatch pipeline (throughput) + fixed processing (latency).
    start_mc = maxplus_scan(mc_entry, inp.shift_mc)
    bank_entry = start_mc + inp.fixed_mc_ns

    # Banked DRAM with row-buffer state and staggered refresh.
    order, bounds, counts, first = bank_sort(inp)
    service_s, conflicts = row_states(inp, order, first)
    done, refreshes = bank_recurrence(
        inp, bank_entry[order], service_s, order, bounds, counts
    )

    # Outbound link: response (or write-completion) flit, retries.
    start_out = maxplus_scan(done, inp.shift_out)
    outbound_free = start_out + inp.svc_out
    t = outbound_free + inp.stack_ns
    t = np.where(inp.retry_draw, t + inp.retry_penalty_ns, t)

    latencies = (t - inp.arrivals) + inp.host_overhead_ns
    return VectorTimeline(
        latencies_ns=latencies,
        bank_conflicts=conflicts,
        refresh_collisions=refreshes,
    )


# ---------------------------------------------------------------------------
# Batched (cross-cell) evaluation
# ---------------------------------------------------------------------------

BATCH_CHUNK_ELEMS = 16_384
"""Auto-chunk target: total requests per fused kernel call.

Measured on the reference box: one huge fused call spills the working set
out of L2 and runs *slower* per element than per-cell evaluation; chunks
of ~16k requests keep every stacked array cache-resident while still
amortizing the rounds-loop call overhead across cells.
"""

BATCH_CHUNK_LANES = 4_096
"""Auto-chunk cap on total bank lanes per fused call (also keeps the
flat bank keys inside int16 radix-sort range)."""


def batch_chunks(
    ns: Sequence[int], n_banks: Sequence[int]
) -> List[Tuple[int, int]]:
    """Split cells into cache-sized ``[start, end)`` spans, order kept.

    Greedy: a chunk closes when adding the next cell would exceed either
    the request target or the lane cap.  A single oversized cell gets a
    chunk of its own (the fused kernel degrades gracefully to per-cell
    behaviour there).
    """
    spans: List[Tuple[int, int]] = []
    lo = 0
    elems = 0
    lanes = 0
    for i, (n, nb) in enumerate(zip(ns, n_banks)):
        if i > lo and (
            elems + n > BATCH_CHUNK_ELEMS or lanes + nb > BATCH_CHUNK_LANES
        ):
            spans.append((lo, i))
            lo, elems, lanes = i, 0, 0
        elems += int(n)
        lanes += int(nb)
    if lo < len(ns):
        spans.append((lo, len(ns)))
    return spans


def _stack_rows(
    arrays: List[np.ndarray], ns: List[int], nmax: int, pad: float, name: str
) -> np.ndarray:
    """Stack per-cell request arrays as (B, nmax) rows.

    Equal-length cells reshape one concatenation (no padding); ragged
    batches pad short rows with ``pad``, which the row-parallel scans
    can never leak into a real prefix (see ``_LANE_PAD``).
    """
    B = len(arrays)
    if all(n == nmax for n in ns):
        return np.concatenate(arrays).reshape(B, nmax)
    mat = _SCRATCH.take(name, (B, nmax))
    mat[...] = pad
    for i, a in enumerate(arrays):
        mat[i, : a.size] = a
    return mat


def _maxplus_rows(entry: np.ndarray, shift: np.ndarray, name: str) -> np.ndarray:
    """Row-parallel max-plus scan over a (B, nmax) stack.

    ``maximum.accumulate`` over ``axis=1`` evaluates each row's running
    maximum independently and sequentially -- per element, the identical
    IEEE-754 operations :func:`maxplus_scan` performs on the lone cell.
    """
    tmp = _SCRATCH.take(name, entry.shape)
    np.subtract(entry, shift, out=tmp)
    np.maximum.accumulate(tmp, axis=1, out=tmp)
    return np.add(tmp, shift, out=tmp)


def batch_timeline(inputs: Sequence[SimInputs]) -> List[VectorTimeline]:
    """Evaluate B independent simulations in one fused kernel pass.

    Every cell's result is bit-identical to ``vector_timeline`` on that
    cell alone: stacked rows and broadcast per-cell constants perform the
    same IEEE-754 operations per element, the flat stable bank sort
    preserves each cell's within-bank order (cells occupy disjoint,
    ascending lane ranges), and the rounds loop is trimmed per round to
    exactly the live lanes -- padded slots are never even computed.

    Callers batching many cells should split them with
    :func:`batch_chunks`; one oversized call is correct but loses the
    cache locality that makes fusion profitable.
    """
    B = len(inputs)
    if B == 0:
        return []
    ns = [inp.n for inp in inputs]
    nmax = max(ns)
    N = sum(ns)
    equal = all(n == nmax for n in ns)

    # ---- serial-resource scans, row-parallel over the stack ----
    arr = _stack_rows([inp.arrivals for inp in inputs], ns, nmax,
                      _LANE_PAD, "b.arr")
    sh_in = _stack_rows([inp.shift_in for inp in inputs], ns, nmax,
                        0.0, "b.sh_in")
    sh_mc = _stack_rows([inp.shift_mc for inp in inputs], ns, nmax,
                        0.0, "b.sh_mc")

    def col(value_of):
        return np.array([value_of(inp) for inp in inputs])[:, None]

    flit_col = col(lambda inp: inp.flit_ns)
    stack_col = col(lambda inp: inp.stack_ns)

    start_in = _maxplus_rows(arr, sh_in, "b.scan_in")
    # Two separate adds, exactly as the per-cell pipeline sequences them.
    mc_entry = np.add(start_in, flit_col, out=start_in)
    np.add(mc_entry, stack_col, out=mc_entry)
    start_mc = _maxplus_rows(mc_entry, sh_mc, "b.scan_mc")
    bank_entry = np.add(start_mc, col(lambda inp: inp.fixed_mc_ns),
                        out=start_mc)

    if equal:
        entry_flat = bank_entry.reshape(-1)
    else:
        row_sel = np.repeat(np.arange(B), ns)
        col_sel = np.concatenate([np.arange(n) for n in ns])
        entry_flat = bank_entry[row_sel, col_sel]

    # ---- flat bank-lane space: cell i's bank b -> lane lane_off[i]+b ----
    nb = np.array([inp.n_banks for inp in inputs], dtype=np.int64)
    lane_off = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(nb, out=lane_off[1:])
    L = int(lane_off[-1])
    cell_of_req = np.repeat(np.arange(B), ns)  # == sorted order's cell ids
    banks_flat = np.concatenate([inp.banks for inp in inputs])
    banks_flat = banks_flat + lane_off[cell_of_req]
    # Stable sort on the lane key: int16 keys take the 2-pass radix path
    # (the chunker's lane cap keeps L inside int16 range).
    keys = banks_flat.astype(np.int16) if L < 2 ** 15 else banks_flat
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(banks_flat, minlength=L)
    bounds = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    first = np.zeros(N, dtype=bool)
    first[bounds[:-1][counts > 0]] = True

    # ---- row-buffer outcomes over the flat sorted stream ----
    # Cells occupy disjoint ascending lane ranges, so the sorted stream is
    # grouped cell-by-cell (cell ids == cell_of_req) and every per-bank
    # segment is intact; the forward-fill anchor argument of `row_states`
    # carries over unchanged because each segment's first request anchors
    # to itself.
    reuse_flat = np.concatenate([inp.row_reuse for inp in inputs])
    rows_flat = np.concatenate([inp.rows for inp in inputs])
    reuse_s = reuse_flat[order] & ~first
    rows_s = rows_flat[order]
    idx = np.arange(N, dtype=np.int64)
    anchor = np.maximum.accumulate(np.where(reuse_s, 0, idx))
    eff_row = rows_s[anchor]
    prev_row = np.empty_like(eff_row)
    prev_row[1:] = eff_row[:-1]
    prev_row[0] = -1
    hit = ~first & (eff_row == prev_row)
    conflict = ~first & ~hit
    # np.where only selects -- no arithmetic -- so per-cell constants
    # repeated along the (cell-grouped) sorted stream pick the same
    # float64 values the scalar constants supply in the solo kernel.
    service_s = np.where(
        hit,
        np.repeat([inp.row_hit_ns for inp in inputs], ns),
        np.where(
            first,
            np.repeat([inp.row_miss_ns for inp in inputs], ns),
            np.repeat([inp.row_conflict_ns for inp in inputs], ns),
        ),
    )
    if any(inp.service_scale is not None for inp in inputs):
        # Multiplying by exactly 1.0 is a bitwise identity on finite
        # floats, so scale-free cells ride along unchanged.
        scale_flat = np.concatenate([
            inp.service_scale if inp.service_scale is not None
            else np.ones(inp.n)
            for inp in inputs
        ])
        service_s = service_s * scale_flat[order]

    # ---- per-bank recurrence: one rounds loop over all cells' lanes ----
    # Lanes are permuted by descending request count so each round
    # processes an exact prefix of live lanes: the r-th round touches
    # precisely the lanes holding an r-th request, nothing else.
    maxc = int(counts.max()) if N else 0
    lane_order = np.argsort(-counts, kind="stable")
    counts_perm = counts[lane_order]
    lane_rank = np.empty(L, dtype=np.int64)
    lane_rank[lane_order] = np.arange(L)
    widths = np.searchsorted(-counts_perm, -np.arange(maxc), side="left")

    phase_flat = np.concatenate([inp.refresh_phase for inp in inputs])
    trefi_perm = np.repeat([inp.trefi_ns for inp in inputs], nb)[lane_order]
    block_perm = np.repeat(
        [inp.refresh_block_ns for inp in inputs], nb
    )[lane_order]
    phase_perm = phase_flat[lane_order]

    lane_of_req = np.repeat(np.arange(L), counts)
    round_of_req = idx - bounds[lane_of_req]
    col_of_req = lane_rank[lane_of_req]
    phase_of_req = phase_flat[lane_of_req]

    t_mat = _SCRATCH.take("b.t_mat", (maxc, L))
    s_mat = _SCRATCH.take("b.s_mat", (maxc, L))
    done_mat = _SCRATCH.take("b.done_mat", (maxc, L))
    entry_s = entry_flat[order]
    t_mat[round_of_req, col_of_req] = np.add(entry_s, phase_of_req,
                                             out=entry_s)
    s_mat[round_of_req, col_of_req] = service_s

    done_prev = phase_perm.copy()  # idle lanes: shifted zero
    busy = _SCRATCH.take("b.busy", (L,))
    phase = _SCRATCH.take("b.phase", (L,))
    wait = _SCRATCH.take("b.wait", (L,))
    ready = _SCRATCH.take("b.ready", (L,))
    in_refresh = _SCRATCH.take("b.in_refresh", (L,), dtype=bool)
    ref_lane = _SCRATCH.zeros("b.ref_lane", (L,))
    for r in range(maxc):
        w = widths[r]
        np.maximum(t_mat[r, :w], done_prev[:w], out=busy[:w])
        np.remainder(busy[:w], trefi_perm[:w], out=phase[:w])
        np.subtract(block_perm[:w], phase[:w], out=wait[:w])
        np.add(busy[:w], wait[:w], out=ready[:w])
        np.maximum(ready[:w], busy[:w], out=ready[:w])
        np.add(ready[:w], s_mat[r, :w], out=done_mat[r, :w])
        np.less(phase[:w], block_perm[:w], out=in_refresh[:w])
        np.add(ref_lane[:w], in_refresh[:w], out=ref_lane[:w])
        done_prev = done_mat[r]

    done_s = done_mat[round_of_req, col_of_req]
    np.subtract(done_s, phase_of_req, out=done_s)
    done_flat = np.empty(N)
    done_flat[order] = done_s

    # ---- outbound link, retries, latency: back in (B, nmax) rows ----
    sh_out = _stack_rows([inp.shift_out for inp in inputs], ns, nmax,
                         0.0, "b.sh_out")
    sv_out = _stack_rows([inp.svc_out for inp in inputs], ns, nmax,
                         0.0, "b.sv_out")
    if equal:
        done_rows = done_flat.reshape(B, nmax)
    else:
        done_rows = _SCRATCH.take("b.done_rows", (B, nmax))
        done_rows[...] = _LANE_PAD
        done_rows[row_sel, col_sel] = done_flat
    start_out = _maxplus_rows(done_rows, sh_out, "b.scan_out")
    t = np.add(start_out, sv_out, out=start_out)
    np.add(t, stack_col, out=t)
    rd = _SCRATCH.zeros("b.rd", (B, nmax), dtype=bool)
    if equal:
        rd[...] = np.concatenate(
            [inp.retry_draw for inp in inputs]
        ).reshape(B, nmax)
    else:
        rd[row_sel, col_sel] = np.concatenate(
            [inp.retry_draw for inp in inputs]
        )
    t = np.where(rd, t + col(lambda inp: inp.retry_penalty_ns), t)
    lat = np.add(np.subtract(t, arr, out=t),
                 col(lambda inp: inp.host_overhead_ns), out=t)

    # ---- unstack per-cell timelines and counters ----
    req_off = np.zeros(B + 1, dtype=np.int64)
    np.cumsum(ns, out=req_off[1:])
    conf_cell = np.add.reduceat(conflict, req_off[:-1], dtype=np.int64)
    cell_of_lane_perm = np.repeat(np.arange(B), nb)[lane_order]
    ref_cell = np.bincount(cell_of_lane_perm, weights=ref_lane, minlength=B)
    return [
        VectorTimeline(
            latencies_ns=lat[i, : inputs[i].n].copy(),
            bank_conflicts=int(conf_cell[i]),
            refresh_collisions=int(ref_cell[i]),
        )
        for i in range(B)
    ]
