"""ResultStore tests: bit-exact reads, scans, shadowing, accretion."""

import json
import math

import numpy as np
import pytest

from repro.cpu.pipeline import run_workload
from repro.hw.cxl import cxl_a, cxl_b
from repro.hw.cxl.eventdevice import EventDrivenDevice, EventSimResult
from repro.runtime.serialize import (
    platform_to_dict,
    run_result_to_dict,
    workload_to_dict,
)
from repro.store import ResultStore, canonical_document

FP = "f" * 64


def sim_doc(device=None, gbps=4.0, n=600, seed=7):
    device = device if device is not None else cxl_a()
    return EventDrivenDevice(device, seed=seed).simulate(
        n, gbps, read_fraction=0.75
    ).to_dict()


def key_of(i):
    return f"{i:064x}"


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestReads:
    def test_eventsim_round_trip_bit_exact(self, store):
        doc = sim_doc()
        writer = store.writer(FP)
        writer.add(key_of(1), doc)
        writer.commit()
        reloaded = store.get(key_of(1))
        assert canonical_document(reloaded) == canonical_document(doc)
        # latency array is a zero-copy view, bit-identical
        assert np.asarray(reloaded["latencies_ns"]).tobytes() == \
            np.asarray(doc["latencies_ns"]).tobytes()

    def test_get_result_reconstructs_eventsim(self, store):
        doc = sim_doc()
        writer = store.writer(FP)
        writer.add(key_of(1), doc)
        writer.commit()
        result = store.get_result(key_of(1))
        assert isinstance(result, EventSimResult)
        assert canonical_document(result.to_dict()) == \
            canonical_document(doc)

    def test_analytic_round_trip_with_blobs(self, store, simple_workload,
                                            emr, device_a):
        result = run_workload(simple_workload, emr, device_a)
        doc = run_result_to_dict(result, embed_context=False)
        doc["workload_ref"] = "w" * 32
        doc["platform_ref"] = "p" * 32
        writer = store.writer(FP)
        writer.add(
            key_of(2), doc,
            workload_doc=workload_to_dict(simple_workload),
            platform_doc=platform_to_dict(emr),
        )
        writer.commit()
        assert canonical_document(store.get(key_of(2))) == \
            canonical_document(doc)
        entry = store.entry_for(key_of(2))
        assert entry.kind == "analytic"
        assert entry.workload == simple_workload.name
        assert math.isnan(entry.offered_gbps)

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyError):
            store.get(key_of(9))
        assert key_of(9) not in store

    def test_reload_from_disk(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(1), sim_doc())
        writer.commit()
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 1
        assert canonical_document(fresh.get(key_of(1))) == \
            canonical_document(store.get(key_of(1)))

    def test_corrupt_manifest_counted_and_skipped(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(1), sim_doc())
        writer.commit()
        bad = tmp_path / "store" / "manifests" / ("e" * 64 + ".json")
        bad.write_text("{truncated")
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 1
        assert fresh.corrupt_manifests == 1
        assert fresh.stats()["corrupt_manifests"] == 1


class TestScan:
    @pytest.fixture
    def populated(self, store):
        writer = store.writer(FP)
        writer.add(key_of(0), sim_doc(cxl_a(), gbps=2.0))
        writer.add(key_of(1), sim_doc(cxl_a(), gbps=8.0))
        writer.add(key_of(2), sim_doc(cxl_b(), gbps=8.0))
        writer.commit()
        return store

    def test_device_filter(self, populated):
        hits = populated.scan(device="CXL-A")
        assert {hit.key for hit in hits} == {key_of(0), key_of(1)}

    def test_gbps_bounds(self, populated):
        hits = populated.scan(min_gbps=5.0)
        assert {hit.key for hit in hits} == {key_of(1), key_of(2)}
        hits = populated.scan(device="CXL-A", max_gbps=5.0)
        assert {hit.key for hit in hits} == {key_of(0)}

    def test_fingerprint_prefix(self, populated):
        assert len(populated.scan(fingerprint=FP[:12])) == 3
        assert populated.scan(fingerprint="0" * 12) == []

    def test_hit_percentile_matches_document(self, populated):
        hit = populated.scan(device="CXL-B")[0]
        latencies = np.asarray(populated.get(hit.key)["latencies_ns"])
        assert hit.percentile(99) == float(np.percentile(latencies, 99))

    def test_query_rows_sorted_and_shaped(self, populated):
        rows = populated.query_rows(percentiles=(50.0, 99.9))
        assert [r["key"] for r in rows] == [key_of(0), key_of(1),
                                            key_of(2)]
        assert "p50_ns" in rows[0] and "p99.9_ns" in rows[0]
        assert rows[0]["mean_ns"] == pytest.approx(
            float(np.mean(populated.get(key_of(0))["latencies_ns"]))
        )
        assert populated.query_rows(limit=2)[-1]["key"] == key_of(1)


class TestMergeAndAccretion:
    def test_duplicate_key_shadowed_across_manifests(self, store):
        doc = sim_doc()
        for job in ("", "serve"):
            writer = store.writer(FP, job)
            writer.add(key_of(5), doc)
            writer.commit()
        fresh = ResultStore(store.root)
        assert len(fresh.manifests()) == 2
        assert fresh.keys() == [key_of(5)]
        assert [hit.key for hit in fresh.scan()] == [key_of(5)]
        assert canonical_document(fresh.get(key_of(5))) == \
            canonical_document(doc)

    def test_writer_accretes_existing_manifest(self, tmp_path, store):
        writer = store.writer(FP)
        writer.add(key_of(0), sim_doc(gbps=2.0))
        writer.commit()
        again = store.writer(FP)
        assert len(again) == 1  # picked up the committed rows
        again.add(key_of(1), sim_doc(gbps=8.0))
        again.commit()
        fresh = ResultStore(tmp_path / "store")
        assert set(fresh.keys()) == {key_of(0), key_of(1)}
        # the first span still reads back intact
        assert canonical_document(fresh.get(key_of(0))) == \
            canonical_document(store.get(key_of(0)))

    def test_store_is_self_contained(self, tmp_path, store, simple_workload,
                                     emr, device_a):
        """A copied store directory answers reads with no JSON tier."""
        import shutil

        result = run_workload(simple_workload, emr, device_a)
        doc = run_result_to_dict(result, embed_context=False)
        doc["workload_ref"] = "w" * 32
        doc["platform_ref"] = "p" * 32
        writer = store.writer(FP)
        writer.add(key_of(3), doc,
                   workload_doc=workload_to_dict(simple_workload),
                   platform_doc=platform_to_dict(emr))
        writer.commit()
        copy = tmp_path / "copy"
        shutil.copytree(tmp_path / "store", copy)
        relocated = ResultStore(copy)
        reloaded = relocated.get_result(key_of(3))
        assert json.dumps(
            run_result_to_dict(reloaded), sort_keys=True
        ) == json.dumps(run_result_to_dict(result), sort_keys=True)
