"""The paper's claims as one table, checked against the fast-mode drivers.

Each entry names a claim id, the experiment driver that produces the
evidence, a function that measures one value from the driver's result,
the bound that value must meet, and the EXPERIMENTS.md section the claim
backs.  A failing claim reports ``<id>: measured <value>, bound <bound>``.
Every driver runs once per session (the ``fast_result`` fixture), and
every driver also carries a ``<tag>.renders`` claim.

Claims in the "Known deviations" section pin where this model departs
from the paper.  Their bounds are two-sided, so an accidental "fix" fails
as loudly as a regression; change EXPERIMENTS.md together with the bound.
"""

import operator
import re
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro import experiments
from repro.experiments import ALL_EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]
DEVIATIONS = "Known deviations"
EXT = "Extensions and ablations"


@dataclass(frozen=True)
class Bound:
    """A predicate on a measured value, and the text a failure prints."""

    text: str
    holds: Callable[[Any], bool]

    def __str__(self) -> str:
        return self.text


def _compare(symbol: str, op):
    """A bound factory: ``_compare(">", operator.gt)(3)`` is ``> 3``."""
    return lambda x: Bound(f"{symbol} {x}", lambda v: op(v, x))


above, below = _compare(">", operator.gt), _compare("<", operator.lt)
at_least, at_most = _compare(">=", operator.ge), _compare("<=", operator.le)


def between(lo, hi) -> Bound:
    return Bound(f"strictly between {lo} and {hi}", lambda v: lo < v < hi)


def equals(x) -> Bound:
    return Bound(f"== {x!r}", lambda v: v == x)


def one_of(*xs) -> Bound:
    return Bound(f"one of {xs}", lambda v: v in xs)


def none_of(*xs) -> Bound:
    return Bound(f"none of {xs}", lambda v: v not in xs)


def every(bound: Bound) -> Bound:
    return Bound(
        f"every value {bound}", lambda v: all(bound.holds(x) for x in v.values())
    )


def _ordered(text: str, op) -> Bound:
    """``op`` holds between each value of a dict and the next one."""

    def holds(values: dict) -> bool:
        ordered = list(values.values())
        return all(op(a, b) for a, b in zip(ordered, ordered[1:]))

    return Bound(f"{text} in the order shown", holds)


INCREASING = _ordered("strictly increasing", operator.lt)
NON_DECREASING = _ordered("non-decreasing", operator.le)
NON_INCREASING = _ordered("non-increasing", operator.ge)
TRUE = equals(True)


@dataclass(frozen=True)
class Claim:
    """One paper claim: what to measure, its bound, and where it is told."""

    id: str
    module: ModuleType
    measure: Callable[[Any], Any]
    bound: Bound
    section: str


def claim(slug, measure, bound, section: Optional[str] = None):
    return slug, measure, bound, section


def deviation(slug, measure, bound):
    """A "Known deviations" claim; its bound must be two-sided."""
    return claim(slug, measure, bound, DEVIATIONS)


def experiment(name, tag, section, *rows):
    """Driver ``name``'s claims, plus the ``<tag>.renders`` claim of every driver."""
    module = getattr(experiments, name)
    renders = claim("renders", lambda r: _rendered_length(module, r), above(50))
    return tuple(
        Claim(f"{tag}.{slug}", module, measure, bound, own or section)
        for slug, measure, bound, own in (*rows, renders)
    )


def _rendered_length(module, result) -> int:
    text = module.render(result)
    return len(text) if isinstance(text, str) else 0


def per(fn, *keys) -> dict:
    """``{key: fn(key)}`` in the order given."""
    return {key: fn(key) for key in keys}


# PAPER_VALUES column order.
TABLE1_COLUMNS = (
    "local_latency_ns", "local_bandwidth_gbps",
    "remote_latency_ns", "remote_bandwidth_gbps",
)


def _table1_errors(rows, unit: str) -> dict:
    """``|measured / paper - 1|`` for every Table 1 cell in ``unit``."""
    return {
        f"{name} {column}": abs(getattr(rows[name], column) / paper[i] - 1)
        for name, paper in experiments.tab01_testbed.PAPER_VALUES.items()
        for i, column in enumerate(TABLE1_COLUMNS)
        if column.endswith(unit)
    }


def _latency(points, *labels) -> dict:
    return per({p.label: p.latency_ns for p in points}.get, *labels)


def _front_loading(periods) -> float:
    """Mean of the first two-thirds over the mean of the last third."""
    values = [p.actual_pct for p in periods]
    k = len(values) * 2 // 3
    return float(np.mean(values[:k]) / np.mean(values[k:]))


def _stages(result, attribute) -> dict:
    return {s.target: getattr(s, attribute) for s in result.stages}


def _ras_rows(result, attribute) -> dict:
    return {row.device: getattr(row, attribute) for row in result.rows}


CLAIMS = (
    *experiment("tab01_testbed", "tab01", "Table 1",
        claim("latency-within-5pct",
              lambda r: _table1_errors(r, "_ns"), every(at_most(0.05))),
        claim("bandwidth-within-10pct",
              lambda r: _table1_errors(r, "_gbps"), every(at_most(0.10))),
    ),
    *experiment("tab02_counters", "tab02", "Table 2",
        claim("containment-holds", lambda r: r.containment_holds, TRUE),
        claim("nine-events", lambda r: len(r.events), equals(9)),
    ),
    *experiment("tab_workloads", "population", "Workload population",
        claim("total-265", lambda r: r.total, equals(265)),
        claim("bandwidth-bound-10-to-30pct",
              lambda r: r.bandwidth_fraction, between(0.10, 0.30)),
        deviation("fits-cxl-c-181", lambda r: r.fits_cxl_c, equals(181)),
    ),
    *experiment("fig01_spectrum", "fig01", "Figure 1",
        claim("latency-spectrum-ordered",
              lambda r: _latency(r, "Socket-local DRAM", "NUMA", "CXL",
                                 "CXL+NUMA"),
              INCREASING),
        claim("switch-above-cxl",
              lambda r: _latency(r, "CXL", "CXL+Switch"), INCREASING),
        claim("switch-above-400ns",
              lambda r: _latency(r, "CXL+Switch"), every(above(400.0))),
    ),
    *experiment("fig03a_loaded_latency", "fig03a", "Figure 3a",
        claim("cxl-knee-before-local",
              lambda r: per(r.knee_utilization, "CXL-B", "EMR2S-Local"),
              INCREASING),
    ),
    *experiment("fig03b_latency_cdf", "fig03b", "Figure 3b",
        claim("local-gap-below-numa",
              lambda r: per(r.tail_gap, "EMR2S-Local", "EMR2S-NUMA"),
              INCREASING),
        claim("cxl-b-gap-above-local",
              lambda r: per(r.tail_gap, "EMR2S-Local", "CXL-B"), INCREASING),
        claim("cxl-b-gap-1p7x-cxl-d",
              lambda r: r.tail_gap("CXL-B") / r.tail_gap("CXL-D"), above(1.7)),
    ),
    *experiment("fig03c_tail_vs_bw", "fig03c", "Figure 3c",
        claim("cxl-a-onset-by-half",
              lambda r: r.onset_utilization("CXL-A"), at_most(0.5)),
        claim("cxl-d-onset-from-half",
              lambda r: r.onset_utilization("CXL-D"), at_least(0.5)),
        claim("local-stable-to-90pct",
              lambda r: r.onset_utilization("EMR2S-Local"), at_least(0.9)),
    ),
    *experiment("fig04_rw_noise", "fig04", "Figure 4",
        claim("three-of-four-unstable",
              lambda r: per(r.p99_growth, "CXL-A", "CXL-B", "CXL-C"),
              every(above(200.0))),
        claim("cxl-d-stable", lambda r: r.p99_growth("CXL-D"), below(100.0)),
        claim("local-stable",
              lambda r: abs(r.p99_growth("EMR2S-Local")), below(50.0)),
    ),
    *experiment("fig05_rw_ratio", "fig05", "Figure 5",
        claim("local-peaks-read-only",
              lambda r: r.best_ratio("EMR2S-Local"), equals("1:0")),
        claim("cxl-c-peaks-read-only",
              lambda r: r.best_ratio("CXL-C"), equals("1:0")),
        claim("cxl-a-peaks-mixed",
              lambda r: r.best_ratio("CXL-A"), none_of("1:0", "1:1")),
        claim("cxl-d-peaks-3to1-or-4to1",
              lambda r: r.best_ratio("CXL-D"), one_of("3:1", "4:1")),
    ),
    *experiment("fig06_prefetch_cdf", "fig06", "Figure 6",
        claim("cxl-b-median-hidden", lambda r: r.median("CXL-B"), below(50.0)),
        claim("cxl-b-tail-2x-local",
              lambda r: r.p999("CXL-B") / r.p999("EMR2S-Local"), above(2.0)),
    ),
    *experiment("fig07_workload_tails", "fig07", "Figure 7",
        claim("redis-cxl-c-tail-3x-local",
              lambda r: r.redis_percentiles["CXL-C"]["p99.9"]
              / r.redis_percentiles["Local"]["p99.9"],
              above(3.0)),
        claim("redis-tails-ordered",
              lambda r: per(lambda t: r.redis_percentiles[t]["p99.9"],
                            "NUMA", "CXL-B", "CXL-C"),
              INCREASING),
    ),
    *experiment("fig08ab_slowdown_cdf", "fig08ab", "Figure 8a/b",
        claim("numa-d-a-ordered-below-50",
              lambda r: per(lambda t: r.fraction_below(t, 50),
                            "NUMA", "CXL-D", "CXL-A"),
              NON_INCREASING),
        claim("numa-above-cxl-b-below-50",
              lambda r: per(lambda t: r.fraction_below(t, 50), "NUMA", "CXL-B"),
              NON_INCREASING),
        claim("cxl-a-within-2pts-of-b-below-50",
              lambda r: r.fraction_below("CXL-A", 50)
              - r.fraction_below("CXL-B", 50),
              at_least(-0.02)),
        claim("d-and-a-tolerated-below-10",
              lambda r: per(lambda t: r.fraction_below(t, 10), "CXL-D", "CXL-A"),
              every(above(0.35))),
        claim("a-and-b-have-catastrophic-tail",
              lambda r: per(lambda t: len(r.tail_workloads(t)), "CXL-A", "CXL-B"),
              every(above(0))),
        claim("numa-and-d-have-no-catastrophic-tail",
              lambda r: per(lambda t: len(r.tail_workloads(t)), "NUMA", "CXL-D"),
              every(equals(0))),
        claim("cxl-b-worst-1p5x-to-5p8x",
              lambda r: float(r.slowdowns["CXL-B"].max()), between(150.0, 580.0)),
        deviation("cxl-d-not-better-than-a-below-10",
                  lambda r: r.fraction_below("CXL-D", 10)
                  - r.fraction_below("CXL-A", 10),
                  between(-0.10, 0.0)),
        deviation("cxl-d-worst-above-paper",
                  lambda r: float(r.slowdowns["CXL-D"].max()),
                  between(90.0, 200.0)),
    ),
    *experiment("fig08cd_cxl_numa", "fig08cd", "Figure 8c/d",
        claim("cxl-numa-median-above-2hop",
              lambda r: per(lambda s: float(np.median(r.slowdowns[s])),
                            "SKX8S-410ns", "CXL-A+NUMA"),
              INCREASING),
        claim("omnetpp-cxl-a-below-10pct",
              lambda r: r.omnetpp["CXL-A"], below(10.0)),
        claim("omnetpp-falls-with-intensity",
              lambda r: r.omnetpp_intensity, NON_INCREASING),
        claim("cxl-numa-p98-2x-cxl-a",
              lambda r: r.omnetpp_latency_percentiles["CXL-A+NUMA"]["p98"]
              / r.omnetpp_latency_percentiles["CXL-A"]["p98"],
              above(2.0)),
        deviation("omnetpp-runtime-ratio-reading",
                  lambda r: r.omnetpp["CXL-A+NUMA"], between(100.0, 290.0)),
    ),
    *experiment("fig08e_spr_emr", "fig08e", "Figure 8e",
        claim("spr-emr-median-gap-below-10",
              lambda r: per(r.median_gap, "CXL-A", "CXL-B"), every(below(10.0))),
    ),
    *experiment("fig08f_interleave", "fig08f", "Figure 8f",
        claim("interleave-improves",
              lambda r: r.improvement_from_interleave(), above(0.0)),
    ),
    *experiment("fig09a_violin", "fig09a", "Figure 9a",
        claim("eleven-setups", lambda r: len(r.summaries), equals(11)),
    ),
    *experiment("fig09b_ycsb", "fig09b", "Figure 9b",
        claim("numa-a-b-ordered-every-store",
              lambda r: {f"{store}-{letter}":
                         per(series.get, "NUMA", "CXL-A", "CXL-B")
                         for (store, letter), series in r.slowdowns.items()},
              every(INCREASING)),
        claim("superlinear-on-average",
              lambda r: float(np.mean([r.superlinearity(*combo)
                                       for combo in r.slowdowns])),
              above(1.0)),
    ),
    *experiment("fig11_spa_accuracy", "fig11", "Figure 11",
        claim("stalls-within-5pts",
              lambda r: per(lambda t: r.fraction_within(t, "stalls", 5.0),
                            *r.errors),
              every(at_least(0.95))),
        claim("memory-within-5pts",
              lambda r: per(lambda t: r.fraction_within(t, "memory", 5.0),
                            *r.errors),
              every(at_least(0.88))),
    ),
    *experiment("fig12_prefetch_analysis", "fig12", "Figure 12",
        claim("pearson-near-one", lambda r: r.pearson_r, above(0.97)),
        claim("scatter-points", lambda r: len(r.scatter), at_least(5)),
        claim("named-coverage-drop",
              lambda r: max(s.coverage_drop_pct for s in r.named), above(1.0)),
    ),
    *experiment("fig13_mechanism", "fig13", EXT,
        claim("lateness-rises",
              lambda r: _stages(r, "late_fraction"), NON_DECREASING),
        claim("coverage-falls", lambda r: _stages(r, "coverage"), NON_INCREASING),
        claim("l1pf-shift-rises",
              lambda r: r.monotone("l1pf_shift_events", tolerance=1e5), TRUE),
    ),
    *experiment("fig14_breakdown", "fig14", "Figure 14",
        claim("covers-paper-targets",
              lambda r: list(r.by_target), equals(["NUMA", "CXL-A", "CXL-B"])),
    ),
    *experiment("fig15_breakdown_cdf", "fig15", "Figure 15",
        claim("dram-ge5-at-least-40pct", lambda r: r.dram_ge5, at_least(0.40)),
        claim("cache-ge5-at-least-5pct", lambda r: r.cache_ge5, at_least(0.05)),
    ),
    *experiment("fig16_period", "fig16", "Figure 16",
        claim("gcc-mean-above-10pct", lambda r: r.mean("602.gcc_s"), above(10.0)),
        claim("gcc-front-loaded",
              lambda r: _front_loading(r.series["602.gcc_s"]), above(1.5)),
        claim("mcf-burstier-than-deepsjeng",
              lambda r: per(r.burstiness, "631.deepsjeng_s", "605.mcf_s"),
              INCREASING),
    ),
    *experiment("usecase_tuning", "usecase", "§5.7 use case",
        claim("before-8-to-20pct",
              lambda r: r.slowdown_before_pct, between(8.0, 20.0)),
        claim("after-below-6pct", lambda r: r.slowdown_after_pct, below(6.0)),
        claim("relocates-two-hot-objects",
              lambda r: sorted(o.name for o in r.relocated),
              equals(["arc_array", "node_array"])),
    ),
    *experiment("ext_cpmu_whitebox", "ext_cpmu_whitebox", EXT,
        claim("controller-dominates-cxl-c",
              lambda r: r.dominant("CXL-C"), equals("controller")),
    ),
    *experiment("ext_tiering_policies", "ext_tiering_policies", EXT,
        claim("spa-beats-llc-miss",
              lambda r: per(r.mean, "spa-stalls", "llc-miss"), INCREASING),
        claim("spa-beats-uniform",
              lambda r: per(r.mean, "spa-stalls", "uniform"), INCREASING),
    ),
    *experiment("ext_prediction", "ext_prediction", EXT,
        claim("beats-naive-every-target",
              lambda r: {name: {"model": v.median_error,
                                "naive": v.naive_median_error}
                         for name, v in r.validations.items()},
              every(NON_DECREASING)),
    ),
    *experiment("ext_pooling_qos", "ext_pooling_qos", EXT,
        claim("cxl-b-breaks-first",
              lambda r: per(r.qos_collapse_fraction, "CXL-B", "CXL-D"),
              INCREASING),
        claim("cxl-d-holds-slo",
              lambda r: r.qos_collapse_fraction("CXL-D"), equals(1.0)),
    ),
    *experiment("ext_colocation", "ext_colocation", EXT,
        claim("recovers-lc-slowdown",
              lambda r: r.schedule.lc_recovered_pct, above(10.0)),
        claim("phase-aware-beats-naive",
              lambda r: {"phase-aware": r.schedule.lc_slowdown_phase_aware_pct,
                         "naive": r.schedule.lc_slowdown_naive_pct},
              INCREASING),
        claim("batch-cost-below-3x",
              lambda r: r.schedule.batch_cost_ratio, below(3.0)),
    ),
    *experiment("ext_latency_tolerance", "ext_latency_tolerance", EXT,
        claim("curves-monotone",
              lambda r: per(r.monotone, *r.curves), every(TRUE)),
        claim("memory-bound-superlinear",
              lambda r: per(r.superlinearity,
                            "redis-ycsb-c", "605.mcf_s", "gpt2-large"),
              every(above(1.0))),
        claim("compute-control-flat",
              lambda r: r.curves["compress-zstd"][410.0], below(10.0)),
    ),
    *experiment("ext_ras_tolerance", "ext_ras_tolerance", EXT,
        claim("retries-every-device",
              lambda r: _ras_rows(r, "injected_retries"), every(above(0))),
        claim("ecc-every-device",
              lambda r: _ras_rows(r, "ecc_corrected"), every(above(0))),
        claim("tails-inflate-every-device",
              lambda r: _ras_rows(r, "tail_amplification"), every(above(1.0))),
        claim("medians-stable-every-device",
              lambda r: {d: abs(s) for d, s in
                         _ras_rows(r, "median_shift_pct").items()},
              every(below(20.0))),
    ),
    *experiment("abl_tail_model", "abl_tail_model", EXT,
        claim("omnetpp-anomaly-removed",
              lambda r: r.anomaly_removed("520.omnetpp_r"), above(100.0)),
    ),
    *experiment("abl_prefetcher", "abl_prefetcher", EXT,
        claim("cache-slowdown-vanishes",
              lambda r: r.max_cache_slowdown_off, below(8.0)),
        claim("bwaves-needs-prefetchers",
              lambda r: r.row("603.bwaves_s").perf_loss_from_disabling_pct,
              above(25.0)),
    ),
    *experiment("abl_thermal", "abl_thermal", EXT,
        claim("clean-at-70c", lambda r: r.paper_stress_test_clean, TRUE),
        claim("latency-rises-with-heat",
              lambda r: per(lambda c: r.point(c).idle_latency_ns, 45.0, 105.0),
              INCREASING),
    ),
    *experiment("abl_trace_validation", "abl_trace_validation", EXT,
        claim("stream-prefetch-friendly",
              lambda r: r.derived["sequential"].prefetch_friendliness,
              above(0.9)),
        claim("chase-not-prefetchable",
              lambda r: r.derived["pointer-chase"].prefetch_friendliness,
              below(0.05)),
        claim("chase-mlp-one",
              lambda r: abs(r.derived["pointer-chase"].mlp - 1.0), at_most(1e-6)),
        claim("zipf-below-random-l3-mpki",
              lambda r: per(lambda p: r.derived[p].l3_mpki, "zipf", "random"),
              INCREASING),
        claim("coverage-drops-across-cxl",
              lambda r: r.coverage_drop_over_cxl_range, above(0.1)),
    ),
    *experiment("abl_eventsim_device", "abl_eventsim_device", EXT,
        claim("means-agree", lambda r: r.mean_agreement(max_rel_error=0.6), TRUE),
        claim("cxl-c-tail-unexplained",
              lambda r: r.vendor_tail_unexplained("CXL-C"), above(500.0)),
        claim("cxl-b-tail-unexplained",
              lambda r: r.vendor_tail_unexplained("CXL-B"), above(200.0)),
    ),
    *experiment("abl_engine_agreement", "abl_engine_agreement", EXT,
        claim("ordering-agrees", lambda r: r.ordering_agrees(), TRUE),
        claim("latency-gap-under-20pts",
              lambda r: r.max_latency_bound_gap(), below(20.0)),
        claim("stream-bound-in-both",
              lambda r: r.stream_bandwidth_bound_in_both(), TRUE),
    ),
    *experiment("abl_dimm_fairness", "abl_dimm_fairness", EXT,
        claim("local-2dimm-stable", lambda r: r.local_stable(), TRUE),
        claim("cxl-tails-remain", lambda r: r.cxl_tails_remain(), TRUE),
    ),
)


def _show(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        items = ", ".join(f"{k}: {_show(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def check(claim: Claim, result) -> None:
    """Fail with the claim id, the measured value and the bound."""
    measured = claim.measure(result)
    if not claim.bound.holds(measured):
        pytest.fail(
            f"{claim.id}: measured {_show(measured)}, bound {claim.bound}",
            pytrace=False,
        )


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim(claim, fast_result):
    check(claim, fast_result(claim.module))


def test_failing_claim_reports_id_measured_value_and_bound():
    knee = Claim("fake.knee-before-local", experiments.fig03a_loaded_latency,
                 lambda r: per(r.knee, "CXL-B", "Local"), INCREASING,
                 "Figure 3a")
    check(knee, SimpleNamespace(knee={"CXL-B": 0.5, "Local": 0.9}.get))
    with pytest.raises(pytest.fail.Exception) as failure:
        check(knee, SimpleNamespace(knee={"CXL-B": 0.95, "Local": 0.9}.get))
    assert str(failure.value) == (
        "fake.knee-before-local: measured {CXL-B: 0.95, Local: 0.9}, "
        "bound strictly increasing in the order shown"
    )


def test_claim_ids_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))


def test_every_experiment_has_a_claim_besides_renders():
    claimed = {c.module for c in CLAIMS if not c.id.endswith(".renders")}
    assert [m.__name__ for m in ALL_EXPERIMENTS if m not in claimed] == []
    assert {c.module for c in CLAIMS} == set(ALL_EXPERIMENTS)


def test_every_claim_backs_an_experiments_md_section():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    headings = [line[3:] for line in text.splitlines() if line.startswith("## ")]
    missing = {
        c.id: c.section for c in CLAIMS
        if not any(h == c.section or h.startswith(c.section + " — ")
                   for h in headings)
    }
    assert missing == {}


CITED_ID = re.compile(
    r"`((?:fig|tab|population|usecase|ext_|abl_)[a-z0-9_]*\.[a-z0-9-]+)`"
)


@pytest.mark.parametrize("doc", ["EXPERIMENTS.md", "DESIGN.md"])
def test_docs_cite_only_claims_in_the_table(doc):
    cited = set(CITED_ID.findall((ROOT / doc).read_text(encoding="utf-8")))
    assert cited, f"{doc} cites no claim ids"
    assert sorted(cited - {c.id for c in CLAIMS}) == []
