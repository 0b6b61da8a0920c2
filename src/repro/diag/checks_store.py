"""Store-layer invariants: the columnar tier must be invisible.

The columnar store's contract is byte-identity -- a result promoted
into segments + manifest and read back must be indistinguishable from
the JSON-tier document it came from, and scans must agree with
brute-force filtering.  These checks build real event-sim and
analytic results, push them through a temporary store, and compare
canonical documents (ndarray-normalized, so float bit patterns count).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Iterator

from repro.cpu.pipeline import PipelineConfig, run_workload
from repro.diag.context import DiagContext
from repro.diag.registry import invariant, subjects
from repro.diag.report import Violation
from repro.runtime.cache import RunCache, run_key
from repro.store import ResultStore, canonical_document


def _sim_result(ctx: DiagContext):
    from repro.hw.cxl.eventdevice import EventDrivenDevice

    devices = ctx.cxl_devices()
    device = devices[0] if devices else None
    if device is None:
        return None
    return EventDrivenDevice(device, seed=ctx.seed).simulate(
        2_000, 4.0, read_fraction=0.75
    )


def _canonical_json(doc) -> str:
    return json.dumps(canonical_document(doc), sort_keys=True)


@invariant(
    name="store-roundtrip",
    layer="store",
    description="event-sim and analytic documents survive the "
    "segment/manifest round trip bit-identically",
)
def check_store_roundtrip(ctx: DiagContext) -> Iterator[Violation]:
    """Split/store/reassemble reproduces both result kinds bit-exactly."""
    from repro.hw.platform import EMR2S

    sim = _sim_result(ctx)
    workloads = ctx.sampled_workloads()
    subjects(check_store_roundtrip, len(workloads) + (1 if sim else 0))
    with tempfile.TemporaryDirectory(prefix="repro-diag-") as tmp:
        store = ResultStore(Path(tmp) / "store")
        writer = store.writer("f" * 64)
        expected = {}
        if sim is not None:
            doc = sim.to_dict()
            writer.add("a" * 64, doc)
            expected["a" * 64] = ("eventsim", _canonical_json(doc))
        target = ctx.targets[0]
        config = PipelineConfig(seed=ctx.seed)
        for index, workload in enumerate(workloads):
            from repro.runtime.serialize import (
                platform_to_dict,
                run_result_to_dict,
                workload_to_dict,
            )

            result = run_workload(workload, EMR2S, target, config)
            doc = run_result_to_dict(result, embed_context=False)
            key = f"{index:064x}"
            writer.add(
                key, doc,
                workload_doc=workload_to_dict(workload),
                platform_doc=platform_to_dict(EMR2S),
            )
            expected[key] = (workload.name, _canonical_json(doc))
        writer.commit()
        store.refresh()
        for key, (subject, reference) in expected.items():
            reloaded = _canonical_json(store.get(key))
            if reloaded != reference:
                yield Violation(
                    layer="store",
                    check="store-roundtrip",
                    subject=str(subject),
                    message="store round trip altered the document",
                    context={"key": key[:16]},
                )


@invariant(
    name="store-scan-consistency",
    layer="store",
    description="vectorized manifest scans agree with brute-force "
    "filtering over every stored entry",
)
def check_store_scan_consistency(ctx: DiagContext) -> Iterator[Violation]:
    """Every scan predicate returns exactly the brute-force match set."""
    devices = ctx.cxl_devices()[:2]
    subjects(check_store_scan_consistency, len(devices))
    if not devices:
        return
    from repro.hw.cxl.eventdevice import EventDrivenDevice

    with tempfile.TemporaryDirectory(prefix="repro-diag-") as tmp:
        store = ResultStore(Path(tmp) / "store")
        writer = store.writer("e" * 64)
        index = 0
        for device in devices:
            for offered in (2.0, 6.0):
                sim = EventDrivenDevice(device, seed=ctx.seed).simulate(
                    500, offered, read_fraction=0.75
                )
                writer.add(f"{index:064x}", sim.to_dict())
                index += 1
        writer.commit()
        store.refresh()
        entries = [store.entry_for(key) for key in store.keys()]
        probes = [
            {"device": devices[0].name},
            {"min_gbps": 3.0},
            {"device": devices[-1].name, "max_gbps": 3.0},
            {"kind": "eventsim"},
            {"kind": "analytic"},
        ]
        for probe in probes:
            got = {hit.key for hit in store.scan(**probe)}
            want = set()
            for entry in entries:
                if "kind" in probe and entry.kind != probe["kind"]:
                    continue
                if "device" in probe and entry.device != probe["device"]:
                    continue
                if "min_gbps" in probe and not (
                    entry.offered_gbps >= probe["min_gbps"]
                ):
                    continue
                if "max_gbps" in probe and not (
                    entry.offered_gbps <= probe["max_gbps"]
                ):
                    continue
                want.add(entry.key)
            if got != want:
                yield Violation(
                    layer="store",
                    check="store-scan-consistency",
                    subject=str(sorted(probe)),
                    message=f"scan returned {len(got)} keys, brute force "
                    f"{len(want)}",
                    context={"probe": str(probe)},
                )


@invariant(
    name="store-json-equivalence",
    layer="store",
    description="a warm RunCache read served from the columnar tier "
    "equals the JSON-tier read bit-identically",
)
def check_store_json_equivalence(ctx: DiagContext) -> Iterator[Violation]:
    """The store tier and the JSON tier are interchangeable on read."""
    from repro.hw.platform import EMR2S
    from repro.runtime.serialize import run_result_to_dict

    workloads = ctx.sampled_workloads()
    subjects(check_store_json_equivalence, len(workloads))
    if not workloads:
        return
    target = ctx.targets[0]
    config = PipelineConfig(seed=ctx.seed)
    with tempfile.TemporaryDirectory(prefix="repro-diag-") as tmp:
        cache = RunCache(tmp)
        keys = {}
        for workload in workloads:
            key = run_key(workload, EMR2S, target, config)
            cache.put(key, run_workload(workload, EMR2S, target, config))
            keys[key] = workload.name
        cache.promote_store("b" * 64, keys=list(keys))
        for key, name in keys.items():
            json_only = RunCache(tmp, store_tier=False)
            from_json = json_only.get(key)
            cache.clear_memory()
            store_hits = cache.store_hits
            from_store = cache.get(key)
            if cache.store_hits != store_hits + 1:
                yield Violation(
                    layer="store",
                    check="store-json-equivalence",
                    subject=name,
                    message="warm read was not served from the columnar "
                    "store tier",
                    context={"key": key[:16]},
                )
                continue
            reference = _canonical_json(run_result_to_dict(from_json))
            if _canonical_json(run_result_to_dict(from_store)) != reference:
                yield Violation(
                    layer="store",
                    check="store-json-equivalence",
                    subject=name,
                    message="store-tier read differs from the JSON-tier "
                    "read",
                    context={"key": key[:16]},
                )
