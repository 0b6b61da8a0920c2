"""Work-unit identity: campaign_units ids are stable content tokens.

A coordinator restart re-derives every unit from the campaign spec and
matches it against the cache and checkpoint by ``unit_id``, so the ids
must be pure functions of campaign content: salted by the campaign
fingerprint, identical across processes, and independent of Python's
randomized ``hash()``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.melody import Campaign, campaign_cells
from repro.dist import baseline_token, campaign_units, grid_token
from repro.hw.cxl import cxl_a
from repro.hw.platform import EMR2S
from repro.runtime import campaign_fingerprint
from repro.workloads import all_workloads

GOLDEN_FINGERPRINT = "8880e41f83c22d4b67d25728505a1843"
GOLDEN_GRID_UNIT_ID = (
    GOLDEN_FINGERPRINT + "\x1fcloudsuite-data-analytics-base\x1fCXL-A"
)

_PRINT_UNIT_IDS = """
from repro.core.melody import Campaign
from repro.dist import campaign_units
from repro.hw.cxl import cxl_a
from repro.hw.platform import EMR2S
from repro.runtime import campaign_fingerprint
from repro.workloads import all_workloads

campaign = Campaign(
    name="unit-identity", platform=EMR2S, targets=(cxl_a(),),
    workloads=tuple(all_workloads()[:3]),
)
for unit in campaign_units(campaign, campaign_fingerprint(campaign)):
    print(ascii(unit.unit_id))
"""


def golden_campaign():
    return Campaign(
        name="unit-identity",
        platform=EMR2S,
        targets=(cxl_a(),),
        workloads=tuple(all_workloads()[:3]),
    )


def unit_ids(campaign):
    return [
        unit.unit_id
        for unit in campaign_units(campaign, campaign_fingerprint(campaign))
    ]


class TestGoldenUnitId:
    def test_in_process(self):
        campaign = golden_campaign()
        assert campaign_fingerprint(campaign) == GOLDEN_FINGERPRINT
        units = campaign_units(campaign, GOLDEN_FINGERPRINT)
        grid = [unit for unit in units if unit.kind == "grid"]
        assert grid[0].unit_id == GOLDEN_GRID_UNIT_ID

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_across_processes_and_hash_seeds(self, hash_seed):
        src_root = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_root, env.get("PYTHONPATH")) if part
        )
        out = subprocess.run(
            [sys.executable, "-c", _PRINT_UNIT_IDS],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == [
            ascii(unit_id) for unit_id in unit_ids(golden_campaign())
        ]
        assert ascii(GOLDEN_GRID_UNIT_ID) in out.splitlines()


class TestUnitTokens:
    def test_tokens_salted_by_fingerprint(self):
        a = grid_token("a" * 64, "wl", "CXL-A")
        b = grid_token("b" * 64, "wl", "CXL-A")
        assert a != b
        assert baseline_token("a" * 64, "wl") != a
        campaign = golden_campaign()
        assert set(campaign_units(campaign, "a" * 32)).isdisjoint(
            campaign_units(campaign, "b" * 32)
        )

    def test_units_cover_the_solo_plan(self):
        campaign = Campaign(
            name="unit-cover",
            platform=EMR2S,
            targets=(EMR2S.local_target(), cxl_a()),
            workloads=tuple(all_workloads()[:12]),
        )
        base, grid, skipped = campaign_cells(campaign)
        assert len(base) == len(campaign.workloads)
        assert len(grid) + len(skipped) == \
            len(campaign.workloads) * len(campaign.targets)
        units = campaign_units(campaign, campaign_fingerprint(campaign))
        assert [u.kind for u in units] == \
            ["baseline"] * len(base) + ["grid"] * len(grid)
        assert len({u.unit_id for u in units}) == len(units)
