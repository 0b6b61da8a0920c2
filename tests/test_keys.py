"""Content keys: the canonical encoder, and every persisted key pinned.

Each golden value below is a key that lives somewhere durable -- a
``--cache-dir`` file name, a blob ref inside a run document, a
checkpoint's campaign fingerprint, a serve response's ``query_key``.
A change to any of them silently orphans every tree written before it,
so they are asserted in-process and in fresh interpreters under two
``PYTHONHASHSEED`` values.
"""

import math

import pytest

from repro.keys import canonical_json

GOLDEN = {
    "blob_platform": "4428ffe5375bc3011739b9d7327e54aa",
    "blob_workload": "000b5e4d22965a4edbd4f26bc497320f",
    "fingerprint": "8880e41f83c22d4b67d25728505a1843",
    "fingerprint_faulted": "ca246920c39c206d5f946f679fcf16fc",
    "plan": "0985f3cace166b55629f0d9a68af1ffb",
    "query": "46adf305349bf32b831bbe15a86606aa",
    "query_plain": "7d998d485603201c0f8d03ac344de9eb",
    "run_key": "21a04ae680de54667376e54b118f4cc7"
               "70c8ea3b9ce29862ca14c88a240a1610",
    "run_key_faulted": "c8d4f63497a0b423042baa7aa873f5ec"
                       "6aafe04efb61eaf3645050a3ee1599e5",
    "simcell": "3a938eb94b3da6fff1eb551cff94a56e"
               "88824344f0bdf48a41044cde30b1b913",
    "simcell_faulted": "8ffabfc58bb99a5342219fdfbd945ebf"
                       "080cd8079358578c17e0f43b5d3e7a4d",
}

_KEYS_SOURCE = """
from repro.core.melody import Campaign
from repro.cpu.pipeline import PipelineConfig
from repro.faults.plan import fault_injection, retry_storm_plan
from repro.hw.cxl import cxl_a
from repro.hw.platform import EMR2S
from repro.runtime import campaign_fingerprint
from repro.runtime.cache import RunCache, run_key
from repro.runtime.executor import SimCell
from repro.runtime.serialize import platform_to_dict, workload_to_dict
from repro.serve.query import parse_query
from repro.workloads import all_workloads


def persisted_keys():
    workload = all_workloads()[0]
    config = PipelineConfig(seed=7)
    plan = retry_storm_plan(0.0, 1e6, multiplier=300.0, seed=17)
    cell = SimCell(device="CXL-A", n_requests=2000, offered_gbps=4.0,
                   read_fraction=0.75, seed=5)
    campaign = Campaign(
        name="unit-identity", platform=EMR2S, targets=(cxl_a(),),
        workloads=tuple(all_workloads()[:3]),
    )
    query = parse_query(
        {"device": "cxl-b", "points": [{"offered_gbps": 3.0}],
         "n_requests": 2000, "seed": 5, "fault_plan": plan.to_dict(),
         "chaos": {"error_prob": 0.5, "seed": 3}},
        allow_chaos=True,
    )
    keys = {
        "run_key": run_key(workload, EMR2S, cxl_a(), config),
        "simcell": cell.key(),
        "blob_workload": RunCache._blob_ref(workload, workload_to_dict),
        "blob_platform": RunCache._blob_ref(EMR2S, platform_to_dict),
        "fingerprint": campaign_fingerprint(campaign),
        "plan": plan.key(),
        "query": query.key(),
        "query_plain": parse_query(
            {"device": "cxl-a", "points": [{"offered_gbps": 2.5}]}
        ).key(),
    }
    with fault_injection(plan):
        keys["run_key_faulted"] = run_key(workload, EMR2S, cxl_a(), config)
        keys["simcell_faulted"] = cell.key()
        keys["fingerprint_faulted"] = campaign_fingerprint(campaign)
    return keys
"""

_PRINT_KEYS = _KEYS_SOURCE + """
for name, value in sorted(persisted_keys().items()):
    print(name, value)
"""


def persisted_keys():
    namespace = {}
    exec(_KEYS_SOURCE, namespace)
    return namespace["persisted_keys"]()


class TestGoldenKeys:
    def test_in_process(self):
        assert persisted_keys() == GOLDEN

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_across_processes_and_hash_seeds(self, run_python, hash_seed):
        out = run_python(_PRINT_KEYS, hash_seed)
        assert dict(line.split(" ") for line in out.splitlines()) == GOLDEN


class TestCanonicalJson:
    def test_non_json_value_raises_instead_of_keying_by_repr(self):
        assert canonical_json({"b": 1, "a": [2.5, "x"]}) == \
            '{"a": [2.5, "x"], "b": 1}'
        with pytest.raises(TypeError):
            canonical_json({"a": object()})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError):
            canonical_json({"a": [1.0, value]})

