"""Result validation (the --strict path): run/campaign sanity checks."""

import dataclasses

import pytest

from repro.core.melody import Campaign, Melody
from repro.cpu.pipeline import run_workload
from repro.diag.runcheck import validate_campaign_result, validate_run_results
from repro.errors import DiagnosticError
from repro.experiments.common import (
    ValidatingMelody,
    set_strict,
    strict_enabled,
)


@pytest.fixture
def campaign(simple_workload, compute_workload, emr, device_a):
    return Campaign(
        name="diag-test",
        platform=emr,
        targets=(device_a,),
        workloads=(simple_workload, compute_workload),
    )


@pytest.fixture
def campaign_result(campaign):
    return Melody().run(campaign)


@pytest.fixture
def strict_mode():
    set_strict(True)
    yield
    set_strict(False)


class TestRunValidation:
    def test_healthy_runs_pass(self, simple_workload, emr, device_a,
                               local_target):
        runs = [
            run_workload(simple_workload, emr, target)
            for target in (local_target, device_a)
        ]
        report = validate_run_results(runs, label="test runs")
        assert report.ok
        assert report.results[0].subjects == 2

    def test_nonpositive_cycles_flagged(self, simple_workload, emr, device_a):
        run = run_workload(simple_workload, emr, device_a)
        broken = dataclasses.replace(run, cycles=-1.0)
        report = validate_run_results([broken])
        assert not report.ok
        assert any(
            "non-positive" in v.message for v in report.violations
        )

    def test_phase_accounting_mismatch_flagged(self, simple_workload, emr,
                                               device_a):
        run = run_workload(simple_workload, emr, device_a)
        broken = dataclasses.replace(run, cycles=run.cycles * 2.0)
        report = validate_run_results([broken])
        assert not report.ok
        assert any(
            "phase cycles" in v.message for v in report.violations
        )


class TestCampaignValidation:
    def test_healthy_campaign_passes(self, campaign_result):
        report = validate_campaign_result(campaign_result)
        assert report.ok, report.render()
        assert report.results[0].subjects == len(campaign_result.records)

    def test_doctored_slowdown_flagged(self, campaign_result):
        record = campaign_result.records[0]
        campaign_result.records[0] = dataclasses.replace(
            record, slowdown_pct=record.slowdown_pct + 10.0
        )
        report = validate_campaign_result(campaign_result)
        assert not report.ok
        assert any(
            "disagrees" in v.message for v in report.violations
        )

    def test_nonfinite_slowdown_flagged(self, campaign_result):
        record = campaign_result.records[0]
        campaign_result.records[0] = dataclasses.replace(
            record, slowdown_pct=float("nan")
        )
        report = validate_campaign_result(campaign_result)
        assert not report.ok
        assert any(
            "non-finite slowdown" in v.message for v in report.violations
        )


class TestStrictMode:
    def test_default_is_lenient(self):
        assert not strict_enabled()

    def test_toggle(self, strict_mode):
        assert strict_enabled()

    def test_strict_melody_passes_healthy_campaign(self, campaign,
                                                   strict_mode):
        result = ValidatingMelody().run(campaign)
        assert result.records

    def test_strict_melody_rejects_doctored_campaign(
        self, campaign, campaign_result, strict_mode, monkeypatch
    ):
        record = campaign_result.records[0]
        campaign_result.records[0] = dataclasses.replace(
            record, slowdown_pct=record.slowdown_pct + 10.0
        )
        monkeypatch.setattr(
            Melody, "run", lambda self, c: campaign_result
        )
        with pytest.raises(DiagnosticError, match="diag-test") as excinfo:
            ValidatingMelody().run(campaign)
        assert not excinfo.value.report.ok

    def test_lenient_melody_lets_doctored_campaign_through(
        self, campaign, campaign_result, monkeypatch
    ):
        record = campaign_result.records[0]
        campaign_result.records[0] = dataclasses.replace(
            record, slowdown_pct=record.slowdown_pct + 10.0
        )
        monkeypatch.setattr(
            Melody, "run", lambda self, c: campaign_result
        )
        assert ValidatingMelody().run(campaign) is campaign_result
