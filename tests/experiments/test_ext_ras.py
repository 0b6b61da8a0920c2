"""RAS-tolerance experiment API: row lookup, rendering, determinism.

Its result claims (faults injected, tails inflate, medians stable) are
``ext_ras_tolerance.*`` rows of the paper-claims table.
"""

import pytest

from repro.experiments import ext_ras_tolerance


@pytest.fixture
def result(fast_result):
    return fast_result(ext_ras_tolerance)


class TestRasTolerance:
    def test_covers_all_devices(self, result):
        assert tuple(r.device for r in result.rows) == \
            ext_ras_tolerance.DEVICES
        row = result.row("CXL-C")
        assert row.device == "CXL-C"
        with pytest.raises(KeyError):
            result.row("CXL-Z")

    def test_render_has_table_and_verdict(self, result):
        text = ext_ras_tolerance.render(result)
        assert "RAS p50" in text and "tail amp" in text
        for device in ext_ras_tolerance.DEVICES:
            assert device in text
        assert "tails inflate" in text

    def test_deterministic(self, result):
        again = ext_ras_tolerance.run(fast=True)
        assert again.rows == result.rows
