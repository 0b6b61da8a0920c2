"""ResultStore: read/scan facade over segments and manifests.

Layout, under ``<cache_dir>/store/``::

    manifests/<fingerprint>.json            one campaign's manifest
    manifests/<fingerprint>.<job_id>.json   one job's manifest
    segments/<writer_id>-<seq>.f64          packed float64 payloads

Reads are O(1): key -> (manifest row) -> ``np.memmap`` slice ->
:func:`~repro.store.codec.join_document`.  Scans are vectorized over
the manifest columns and never touch segments except for the latency
arrays a query actually asks percentiles of.  Manifests may overlap --
``repro serve`` writes ``<query-key>.serve.json`` manifests next to the
campaign ones, and promotes from separate processes can each store the
same cell -- so the index shadows duplicate keys: the first manifest to
claim a key answers for it, and scans never double-report a cell.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.store.codec import (
    array_span,
    compile_skeleton,
    skeleton_ref,
    split_document,
)
from repro.store.manifest import (
    KIND_ANALYTIC,
    KIND_EVENTSIM,
    Manifest,
    ManifestEntry,
)
from repro.store.segments import SegmentWriter, open_segment

MANIFEST_DIR = "manifests"
SEGMENT_DIR = "segments"


@dataclass(frozen=True)
class ScanHit:
    """One row matched by :meth:`ResultStore.scan`.

    Carries the columnar fields directly; the latency payload stays on
    disk until :meth:`latencies`/:meth:`percentile` asks for it.
    """

    store: "ResultStore"
    manifest: Manifest
    row: int
    entry: ManifestEntry

    @property
    def key(self) -> str:
        """Cell key of the matched row."""
        return self.entry.key

    def latencies(self) -> np.ndarray:
        """The row's packed latency array (zero-copy segment view)."""
        return self.store._latencies(self.manifest, self.entry)

    def percentile(self, p: float) -> float:
        """Latency percentile straight off the segment span."""
        return float(np.percentile(self.latencies(), p))

    def document(self) -> Any:
        """The full reassembled result document."""
        return self.store._document(self.manifest, self.entry)


class StoreWriter:
    """Appends results of one (fingerprint, job) into the store.

    Re-opening an existing manifest extends it (new vectors land in
    fresh segment files; prior spans keep pointing where they were), so
    repeated promotions of one campaign accrete instead of clobbering.
    Writers of distinct (fingerprint, job) pairs never share a segment
    file, which is what lets concurrent jobs write side by side.
    """

    def __init__(
        self, store: "ResultStore", fingerprint: str, job_id: str = ""
    ) -> None:
        self.store = store
        path = store.manifest_dir / Manifest(fingerprint, job_id).filename()
        if path.exists():
            self.manifest = Manifest.load(path)
        else:
            self.manifest = Manifest(fingerprint, job_id)
        writer_id = fingerprint[:12] + (f".{job_id}" if job_id else "")
        self._segments = SegmentWriter(store.segment_dir, writer_id)

    def __len__(self) -> int:
        return len(self.manifest)

    def add(
        self,
        key: str,
        doc: Dict[str, Any],
        workload_doc: Optional[Dict[str, Any]] = None,
        platform_doc: Optional[Dict[str, Any]] = None,
        fault_plan: str = "",
    ) -> ManifestEntry:
        """Store one result document under ``key``.

        ``doc`` is the exact JSON-tier document (event-sim ``to_dict``
        output, or an analytic run document including its blob refs);
        the split codec guarantees it reassembles bit-identically.
        """
        skeleton, vector = split_document(doc)
        ref = skeleton_ref(skeleton)
        self.manifest.skeletons.setdefault(ref, skeleton)
        segment, offset, length = self._segments.append(vector)
        if doc.get("kind") == KIND_EVENTSIM:
            entry = ManifestEntry(
                key=key,
                kind=KIND_EVENTSIM,
                device=doc["device"],
                workload="",
                target=doc["device"],
                fault_plan=doc.get("fault_plan") or "",
                offered_gbps=float(doc["offered_gbps"]),
                read_fraction=float(doc["read_fraction"]),
                skeleton=ref,
                segment=segment,
                offset=offset,
                length=length,
                n=len(doc["latencies_ns"]),
            )
        else:
            workload_ref = doc.get("workload_ref", "")
            platform_ref = doc.get("platform_ref", "")
            if workload_doc is not None and workload_ref:
                self.manifest.blobs.setdefault(workload_ref, workload_doc)
            if platform_doc is not None and platform_ref:
                self.manifest.blobs.setdefault(platform_ref, platform_doc)
            entry = ManifestEntry(
                key=key,
                kind=KIND_ANALYTIC,
                device=doc["target_name"],
                workload=(
                    workload_doc.get("name", "") if workload_doc else ""
                ),
                target=doc["target_name"],
                fault_plan=fault_plan,
                offered_gbps=math.nan,
                read_fraction=math.nan,
                skeleton=ref,
                segment=segment,
                offset=offset,
                length=length,
                n=0,
                workload_ref=workload_ref,
                platform_ref=platform_ref,
            )
        self.manifest.add(entry)
        return entry

    def commit(self) -> Path:
        """Flush segments, write the manifest, refresh the live index."""
        self._segments.flush()
        self._segments.close()
        path = self.manifest.write(self.store.manifest_dir)
        self.store._install(path.name, self.manifest)
        return path


class ResultStore:
    """Union view of every manifest under one store root.

    Thread-safe: one store may serve concurrent ``repro serve`` query
    jobs.  Loading is lazy (first access scans ``manifests/``) and
    incremental installs from in-process writers keep the index fresh
    without re-reading anything.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._lock = threading.RLock()
        self._loaded = False
        self._manifests: Dict[str, Manifest] = {}
        # key -> (manifest, row); first manifest to claim a key wins
        # (claims are bit-identical by construction: a cell key is a
        # content hash of the run that produced it).
        self._index: Dict[str, Tuple[Manifest, int]] = {}
        self._blob_objects: Dict[str, Any] = {}
        self._spans: Dict[Tuple[str, str], Optional[Tuple[int, int]]] = {}
        # Warm-read caches.  Compiled joins are keyed by skeleton ref
        # (content-addressed, so safe across manifests); segment views
        # by segment name, re-opened through the size-aware
        # ``open_segment`` memo whenever a span reaches past the cached
        # mapping (a concurrent writer grew the file).  Both are plain
        # dicts touched without the lock: a lost race costs one
        # duplicate compile/open, never a wrong answer.
        self._joins: Dict[str, Any] = {}
        self._segment_views: Dict[str, np.ndarray] = {}
        self.corrupt_manifests = 0

    @property
    def manifest_dir(self) -> Path:
        return self.root / MANIFEST_DIR

    @property
    def segment_dir(self) -> Path:
        return self.root / SEGMENT_DIR

    # -- index maintenance ----------------------------------------------

    def _load(self) -> None:
        with self._lock:
            if self._loaded:
                return
            self._loaded = True
            if not self.manifest_dir.is_dir():
                return
            for path in sorted(self.manifest_dir.glob("*.json")):
                try:
                    manifest = Manifest.load(path)
                except (OSError, ValueError, KeyError, TypeError):
                    # A truncated manifest must not take the whole store
                    # down; it is counted, skipped, and left in place
                    # for `repro validate --layer store` to report.
                    self.corrupt_manifests += 1
                    continue
                self._install_locked(path.name, manifest)

    def _install(self, name: str, manifest: Manifest) -> None:
        with self._lock:
            self._load()
            self._install_locked(name, manifest)

    def _install_locked(self, name: str, manifest: Manifest) -> None:
        previous = self._manifests.get(name)
        if previous is not None:
            # Re-install (a writer extended this manifest): drop the
            # stale rows so the fresh ones claim the keys.
            self._index = {
                key: claim
                for key, claim in self._index.items()
                if claim[0] is not previous
            }
        self._manifests[name] = manifest
        for key, row in manifest.key_index().items():
            self._index.setdefault(key, (manifest, row))

    def refresh(self) -> None:
        """Drop the index and re-scan ``manifests/`` on next access."""
        with self._lock:
            self._loaded = False
            self._manifests.clear()
            self._index.clear()
            self._spans.clear()
            self._joins.clear()
            self._segment_views.clear()
            self.corrupt_manifests = 0

    # -- reads -----------------------------------------------------------

    def __len__(self) -> int:
        self._load()
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        self._load()
        with self._lock:
            return key in self._index

    def keys(self) -> List[str]:
        """Every stored cell key (shadowed duplicates excluded)."""
        self._load()
        with self._lock:
            return list(self._index)

    def manifests(self) -> List[Manifest]:
        """All loaded manifests, one per (fingerprint, job) file."""
        self._load()
        with self._lock:
            return list(self._manifests.values())

    def _claim(self, key: str) -> Tuple[Manifest, int]:
        self._load()
        with self._lock:
            claim = self._index.get(key)
        if claim is None:
            raise KeyError(f"key {key} not in store")
        return claim

    def _vector(self, entry: ManifestEntry) -> np.ndarray:
        end = entry.offset + entry.length
        view = self._segment_views.get(entry.segment)
        if view is None or end > view.size:
            view = open_segment(self.segment_dir / entry.segment)
            self._segment_views[entry.segment] = view
        if end > view.size:
            raise ValueError(
                f"span [{entry.offset}:{end}] exceeds segment "
                f"{entry.segment} ({view.size} values)"
            )
        return view[entry.offset:end]

    def _document(self, manifest: Manifest, entry: ManifestEntry) -> Any:
        join = self._joins.get(entry.skeleton)
        if join is None:
            join = compile_skeleton(manifest.skeletons[entry.skeleton])
            self._joins[entry.skeleton] = join
        return join(self._vector(entry))

    def get(self, key: str) -> Any:
        """The stored document, reassembled bit-exactly.

        Large float arrays come back as read-only views of the mmapped
        segment -- no copy, no parse.
        """
        manifest, row = self._claim(key)
        return self._document(manifest, manifest.entry(row))

    def entry_for(self, key: str) -> ManifestEntry:
        """The manifest row of ``key`` (columns only, no segment read)."""
        manifest, row = self._claim(key)
        return manifest.entry(row)

    def get_result(self, key: str):
        """The stored result as a live object.

        Event-sim documents rebuild as
        :class:`~repro.hw.cxl.eventdevice.EventSimResult`; analytic
        documents rebuild as :class:`~repro.cpu.pipeline.RunResult`
        through the manifest's embedded workload/platform blobs.
        Raises ``KeyError`` when the key is absent or an analytic
        entry's blob is missing.
        """
        manifest, row = self._claim(key)
        entry = manifest.entry(row)
        doc = self._document(manifest, entry)
        if entry.kind == KIND_EVENTSIM:
            from repro.hw.cxl.eventdevice import EventSimResult

            return EventSimResult.from_dict(doc)
        from repro.runtime.serialize import (
            platform_from_dict,
            run_result_from_dict,
            workload_from_dict,
        )

        return run_result_from_dict(
            doc,
            workload=self._blob(
                manifest, entry.workload_ref, workload_from_dict
            ),
            platform=self._blob(
                manifest, entry.platform_ref, platform_from_dict
            ),
        )

    def _blob(self, manifest: Manifest, ref: str, from_dict):
        with self._lock:
            obj = self._blob_objects.get(ref)
        if obj is None:
            data = manifest.blobs.get(ref)
            if data is None:
                raise KeyError(f"manifest references missing blob {ref}")
            obj = from_dict(data)
            with self._lock:
                self._blob_objects[ref] = obj
        return obj

    def _latencies(
        self, manifest: Manifest, entry: ManifestEntry
    ) -> np.ndarray:
        """Zero-copy latency array of one event-sim entry.

        Fast path: the packed-array span inside the vector, computed
        once per skeleton.  Short arrays (below the codec's packing
        threshold) fall back to document reassembly.
        """
        if entry.kind != KIND_EVENTSIM:
            raise KeyError(f"entry {entry.key} has no latency array")
        skeleton = manifest.skeletons[entry.skeleton]
        memo_key = (entry.skeleton, "latencies_ns")
        with self._lock:
            span = self._spans.get(memo_key, False)
        if span is False:
            try:
                span = array_span(skeleton, "latencies_ns")
            except KeyError:
                span = None
            with self._lock:
                self._spans[memo_key] = span
        if span is None:
            doc = self._document(manifest, entry)
            return np.asarray(doc["latencies_ns"], dtype=np.float64)
        offset, length = span
        vector = self._vector(entry)
        return vector[offset:offset + length]

    # -- scans -----------------------------------------------------------

    def scan(
        self,
        kind: Optional[str] = None,
        device: Optional[str] = None,
        workload: Optional[str] = None,
        target: Optional[str] = None,
        fault_plan: Optional[str] = None,
        min_gbps: Optional[float] = None,
        max_gbps: Optional[float] = None,
        fingerprint: Optional[str] = None,
    ) -> List[ScanHit]:
        """Vectorized predicate scan over every manifest's columns.

        String filters are exact matches (``fault_plan=""`` selects
        fault-free entries) except ``fingerprint``, which matches any
        campaign fingerprint it prefixes; ``min/max_gbps`` bound the
        offered load of event-sim entries (analytic entries carry NaN
        and never match a load bound).  Rows shadowed by another
        manifest's claim of the same key are skipped, so overlapping
        manifests never double-report a cell.
        """
        self._load()
        hits: List[ScanHit] = []
        with self._lock:
            manifests = list(self._manifests.values())
            index = self._index
        for manifest in manifests:
            if fingerprint is not None \
                    and not manifest.fingerprint.startswith(fingerprint):
                continue
            count = len(manifest)
            if count == 0:
                continue
            mask = np.ones(count, dtype=bool)
            for column, value in (
                ("kind", kind),
                ("device", device),
                ("workload", workload),
                ("target", target),
                ("fault_plan", fault_plan),
            ):
                if value is not None:
                    mask &= manifest.match_mask(column, value)
                    if not mask.any():
                        break
            else:
                gbps = manifest.column("offered_gbps")
                if min_gbps is not None:
                    mask &= gbps >= min_gbps
                if max_gbps is not None:
                    mask &= gbps <= max_gbps
            if not mask.any():
                continue
            for row in np.nonzero(mask)[0]:
                row = int(row)
                key = manifest.key_at(row)
                claim = index.get(key)
                if claim is not None and (
                    claim[0] is not manifest or claim[1] != row
                ):
                    continue  # shadowed duplicate
                hits.append(
                    ScanHit(self, manifest, row, manifest.entry(row))
                )
        return hits

    # -- writes ----------------------------------------------------------

    def writer(self, fingerprint: str, job_id: str = "") -> StoreWriter:
        """A :class:`StoreWriter` appending under ``(fingerprint, job)``."""
        self._load()
        return StoreWriter(self, fingerprint, job_id)

    def query_rows(
        self,
        kind: Optional[str] = None,
        device: Optional[str] = None,
        workload: Optional[str] = None,
        target: Optional[str] = None,
        fault_plan: Optional[str] = None,
        min_gbps: Optional[float] = None,
        max_gbps: Optional[float] = None,
        fingerprint: Optional[str] = None,
        percentiles: Tuple[float, ...] = (),
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Scan, shape, and sort: the query surface's row documents.

        One row dict per matching entry, deterministically ordered
        (kind, device, workload, target, offered load, key) so the CLI
        table, the JSON export, and the serve route all paginate
        identically.  ``mean_ns``/``p<P>_ns`` fields are added only for
        event-sim rows with a stored latency array -- those are the only
        rows whose segments get touched.  NaN column values (e.g.
        ``offered_gbps`` of analytic rows) stay NaN; JSON renderers map
        them to null.
        """
        rows = []
        for hit in self.scan(
            kind=kind, device=device, workload=workload, target=target,
            fault_plan=fault_plan, min_gbps=min_gbps, max_gbps=max_gbps,
            fingerprint=fingerprint,
        ):
            entry = hit.entry
            row: Dict[str, Any] = {
                "key": entry.key,
                "kind": entry.kind,
                "device": entry.device,
                "workload": entry.workload,
                "target": entry.target,
                "fault_plan": entry.fault_plan,
                "offered_gbps": entry.offered_gbps,
                "read_fraction": entry.read_fraction,
                "n": entry.n,
            }
            if entry.kind == KIND_EVENTSIM and entry.n > 0:
                row["mean_ns"] = float(hit.latencies().mean())
                for p in percentiles:
                    row[f"p{p:g}_ns"] = hit.percentile(p)
            rows.append(row)
        rows.sort(key=lambda r: (
            r["kind"], r["device"], r["workload"], r["target"],
            -1.0 if math.isnan(r["offered_gbps"]) else r["offered_gbps"],
            r["key"],
        ))
        if limit is not None:
            rows = rows[:limit]
        return rows

    def stats(self) -> Dict[str, Any]:
        """JSON-safe store summary (manifests, entries, segment bytes)."""
        self._load()
        with self._lock:
            manifests = list(self._manifests.values())
            entries = len(self._index)
            corrupt = self.corrupt_manifests
        segment_files = 0
        segment_bytes = 0
        if self.segment_dir.is_dir():
            for path in self.segment_dir.iterdir():
                if path.suffix == ".f64":
                    segment_files += 1
                    try:
                        segment_bytes += path.stat().st_size
                    except OSError:
                        pass
        return {
            "root": str(self.root),
            "manifests": len(manifests),
            "fingerprints": len(
                {m.fingerprint for m in manifests}
            ),
            "entries": entries,
            "rows": sum(len(m) for m in manifests),
            "corrupt_manifests": corrupt,
            "segment_files": segment_files,
            "segment_bytes": segment_bytes,
        }

