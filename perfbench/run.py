"""End-to-end benchmark of the repro CLI and characterization service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 50 --trace 0

Workloads, metrics and the traced run are described in README.md.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  Every run checks the program's
outputs against pinned references before it reports any number; a
mismatch prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())

SETUP_PROBES = 2
"""Set-up-only process starts before each figures pass and each campaign
cold/warm/warm sequence (the two take about as long)."""

CAMPAIGN_ARGS = ["campaign", "--platform", "EMR2S",
                 "--targets", "numa", "cxl-a", "cxl-b", "cxl-d"]
"""The shipped-dataset campaign: 265 workloads on local DRAM and on 4
targets, 1325 cells."""

LOOKUP_ROUNDS = 4
"""Seeded passes of per-workload store lookups after each campaign pass."""


class Incorrect(Exception):
    """An output differed from its reference: the run reports no metric."""


# -- shared helpers -----------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def mean(values: Sequence[float]) -> float:
    """Average of samples spread over a run.

    Pass times and per-window latency percentiles are averaged rather
    than taken as a median: this host's CPU speed switches between two
    levels every few seconds, and a median of such samples jumps
    between the two levels while the mean follows the run's average.
    """
    return sum(values) / len(values)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of any program process this run waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def program_env() -> Dict[str, str]:
    """The environment program processes run in: the checkout's sources,
    and none of the engine-seeding variables an embedder might have set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path, exclude: Optional[str] = None) -> int:
    """Bytes of the regular files under ``path`` (skipping one subtree)."""
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        if exclude in dirnames and Path(dirpath) == path:
            dirnames.remove(exclude)
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class Pass:
    """One fresh ``repro`` process, as hosted by ``host.py``."""

    def __init__(self, command: List[str], label: str,
                 setup_only: bool = False, trace: bool = False) -> None:
        record = WORK / f"{label}.record.json"
        options = [str(record)]
        if setup_only:
            options.append("--setup-only")
        if trace:
            options.append("--trace")
        argv = [sys.executable, str(BENCH / "host.py"), *options, "--",
                *command]
        stdout = WORK / f"{label}.stdout"
        with stdout.open("wb") as sink:
            start = time.monotonic()
            code = subprocess.run(argv, cwd=ROOT, env=program_env(),
                                  stdout=sink, stderr=subprocess.STDOUT,
                                  timeout=170).returncode
            self.wall_s = time.monotonic() - start
        if code != 0:
            tail = stdout.read_text(errors="replace")[-2000:]
            raise Incorrect(f"{label}: exit {code}\n{tail}")
        self.record = json.loads(record.read_text())
        self.started = start
        self.setup_s = self.record["first_work"] - start
        self.trace = self.record.get("trace")


def repeat_for(seconds: float, body, at_least: int = 1) -> None:
    """Call ``body(index)`` while another call still fits in ``seconds``
    (judged by the longest call so far), and at least ``at_least`` times."""
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        began = time.monotonic()
        body(index)
        index += 1
        longest = max(longest, time.monotonic() - began)
        if (index >= at_least
                and time.monotonic() - start + longest > seconds):
            return


def dump_samples(**samples: List[float]) -> None:
    """Keep the raw samples behind the metrics in ``.perfbench``."""
    (WORK / "samples.json").write_text(json.dumps(samples, indent=1))


def setup_probes(workload: str, index: int) -> List[float]:
    """Set-up time of fresh processes that stop at the first unit of
    work (``SETUP_PROBES`` of them)."""
    samples = []
    for i in range(SETUP_PROBES):
        label = f"{workload}{index}-probe{i}"
        command = COMMANDS[workload](fresh_dir(label))
        samples.append(Pass(command, label, setup_only=True).setup_s)
    return samples


# -- figures ------------------------------------------------------------------


def figures_command(directory: Path) -> List[str]:
    return ["figures", "--output", str(directory / "out"),
            "--cache-dir", str(directory.parent / "cache")]


def check_figures(directory: Path) -> None:
    """Every fast-mode figure file must match its pinned sha256."""
    expected = REFERENCE["figures"]
    got = {p.stem: sha256_file(p) for p in (directory / "out").glob("*.txt")}
    if got != expected:
        wrong = sorted(k for k in set(got) | set(expected)
                       if got.get(k) != expected.get(k))
        raise Incorrect(f"figure outputs differ from reference: {wrong}")


def workload_figures(seconds: float, trace: bool):
    if trace:
        return traced_pairs("figures", len(REFERENCE["figures"]))
    setup, cold, warm, wait_p50, wait_p99 = [], [], [], [], []

    def one_pass(index: int) -> None:
        # Passes alternate cold and warm, so a run that has time for an
        # odd number of these long passes still uses all of it.
        pair, phase = divmod(index, 2)
        if phase == 0:
            fresh_dir(f"figures{pair}")
        setup.extend(setup_probes("figures", index))
        done = run_pass("figures", pair, ("cold", "warm")[phase])
        (cold, warm)[phase].append(done.wall_s)
        setup.append(done.setup_s)
        waits = [end - done.started for _, _, end
                 in done.record["experiments"]]
        wait_p50.append(percentile(waits, 50))
        wait_p99.append(percentile(waits, 99))

    repeat_for(seconds, one_pass, at_least=2)
    dump_samples(setup_s=setup, cold_s=cold, warm_s=warm,
                 figure_wait_p50_s=wait_p50, figure_wait_p99_s=wait_p99)
    attempted = len(REFERENCE["figures"]) * (len(cold) + len(warm))
    return attempted, 0, {
        "setup_s": median(setup),
        "cold_s": mean(cold),
        "warm_s": mean(warm),
        "latency_p50_ms": mean(wait_p50) * 1e3,
        "latency_p99_ms": mean(wait_p99) * 1e3,
        "goodput_rps": attempted / (sum(cold) + sum(warm)),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- campaign -----------------------------------------------------------------


def campaign_command(directory: Path) -> List[str]:
    return [*CAMPAIGN_ARGS, "--cache-dir", str(directory.parent / "cache"),
            "--csv", str(directory / "out.csv"),
            "--json", str(directory / "out.json")]


def check_campaign(directory: Path) -> None:
    """The exports must equal ``data/emr_campaign.{csv,json}`` byte for
    byte (pinned by digest)."""
    for suffix in ("csv", "json"):
        got = sha256_file(directory / f"out.{suffix}")
        if got != REFERENCE["campaign"][suffix]:
            raise Incorrect(f"campaign {suffix} export differs from "
                            f"data/emr_campaign.{suffix}")


def store_lookups(store_root: Path, rng: random.Random) -> List[float]:
    """Read the campaign's results back from its columnar store.

    A first read of every stored result must match the pinned digest and
    fills the store's lazy state (mapped segments, blob caches).  Then
    ``LOOKUP_ROUNDS`` seeded passes over the workloads look up one
    workload's results at a time; each lookup is timed and must return
    the results of the first read.  Returns the lookup latencies.
    """
    from repro.store import ResultStore

    store = ResultStore(store_root)

    def lookup(workload: str) -> List[str]:
        found = []
        for row in store.query_rows(workload=workload):
            r = store.get_result(row["key"])
            found.append(f"{row['key']} {r.workload.name} {r.target_name} "
                         f"{r.cycles!r} {r.instructions!r}")
        return found

    workloads = sorted({row["workload"] for row in store.query_rows()})
    expected = {w: lookup(w) for w in workloads}
    lines = sorted(line for found in expected.values() for line in found)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    if digest != REFERENCE["campaign"]["store_results"]:
        raise Incorrect("results read back from the store differ from "
                        "the reference")
    clock = time.perf_counter
    latencies = []
    for _ in range(LOOKUP_ROUNDS):
        rng.shuffle(workloads)
        for workload in workloads:
            start = clock()
            found = lookup(workload)
            latencies.append(clock() - start)
            if found != expected[workload]:
                raise Incorrect(f"store lookup of {workload} changed")
    return latencies


def workload_campaign(seconds: float, trace: bool, seed: int):
    if trace:
        return traced_pairs("campaign", REFERENCE["campaign"]["cells"])
    rng = random.Random(seed)
    setup, cold, warm, p50s, p99s = [], [], [], [], []
    cells = REFERENCE["campaign"]["cells"]
    attempted = 0

    def one_sequence(index: int) -> None:
        # Lookups follow every pass, so their windows sample the host at
        # as many different times as the passes do.
        nonlocal attempted
        setup.extend(setup_probes("campaign", index))
        fresh_dir(f"campaign{index}")
        store = WORK / f"campaign{index}" / "cache" / "store"
        for phase, walls in (("cold", cold), ("warm", warm),
                             ("rewarm", warm)):
            done = run_pass("campaign", index, phase)
            walls.append(done.wall_s)
            setup.append(done.setup_s)
            latencies = store_lookups(store, rng)
            p50s.append(percentile(latencies, 50))
            p99s.append(percentile(latencies, 99))
            attempted += cells + len(latencies)

    repeat_for(seconds, one_sequence)
    dump_samples(setup_s=setup, cold_s=cold, warm_s=warm,
                 lookup_p50_s=p50s, lookup_p99_s=p99s)
    return attempted, 0, {
        "setup_s": median(setup),
        "cold_s": mean(cold),
        "warm_s": mean(warm),
        "latency_p50_ms": mean(p50s) * 1e3,
        "latency_p99_ms": mean(p99s) * 1e3,
        "goodput_rps": cells * len(cold) / sum(cold),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- passes ------------------------------------------------------------------

COMMANDS = {"figures": figures_command, "campaign": campaign_command}
CHECKS = {"figures": check_figures, "campaign": check_campaign}


def run_pass(workload: str, index: int, phase: str,
             trace: bool = False) -> Pass:
    """One checked pass of ``workload`` on the cache dir of pair ``index``."""
    directory = fresh_dir(f"{workload}{index}", phase)
    done = Pass(COMMANDS[workload](directory), f"{workload}{index}-{phase}",
                trace=trace)
    CHECKS[workload](directory)
    return done


def run_pair(workload: str, index: int, trace: bool = False) -> List[Pass]:
    """A cold pass into an empty cache dir, then a warm rerun on it."""
    fresh_dir(f"{workload}{index}")
    return [run_pass(workload, index, phase, trace)
            for phase in ("cold", "warm")]


# -- the traced run (figures, campaign) ---------------------------------------


def exact_counts(summary) -> Dict[str, int]:
    from tracer import EXACT_COUNTS

    return {name: summary["counts"].get(name, 0) for name in EXACT_COUNTS}


def traced_pairs(workload: str, units_per_pass: int):
    """Per-layer metrics of one traced cold+warm pair.

    An untraced cold pass gives the tracing overhead; a second traced
    pair must repeat every exact simulated count.
    """
    from tracer import layer_metrics, merge_summaries, union_seconds

    untraced = Pass(COMMANDS[workload](fresh_dir("untraced", "cold")),
                    "untraced-cold")
    first = run_pair(workload, 0, trace=True)
    second = run_pair(workload, 1, trace=True)
    for a, b in zip(first, second):
        if exact_counts(a.trace) != exact_counts(b.trace):
            raise Incorrect(
                f"exact counts differ between two traced runs: "
                f"{exact_counts(a.trace)} != {exact_counts(b.trace)}")
    metrics = layer_metrics(merge_summaries(p.trace for p in first))
    cache = WORK / f"{workload}0" / "cache"
    metrics.update({
        "runtime.cache.bytes_on_disk": dir_bytes(cache, exclude="store"),
        "store.bytes_on_disk": dir_bytes(cache / "store"),
        "serve.queue_wait_p99_ms": 0.0,
        "serve.coalesced_ratio": 0.0,
        "serve.cache_hit_ratio": 0.0,
        "serve.rejected": 0,
        "obs.metrics.instruments": 0,
        "obs.metrics.scrape_p99_ms": 0.0,
        "bench.generator_lag_ms": 0.0,
        "unattributed_s": sum(
            p.wall_s - union_seconds(p.trace["top_level"]) for p in first),
        "trace_overhead_ratio": first[0].wall_s / untraced.wall_s,
    })
    return 5 * units_per_pass, 0, metrics


# -- entry point --------------------------------------------------------------


def host_speed_ms() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs right
    now (a diagnostic beside the metrics, never applied to them)."""
    start = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k * k
    return (time.perf_counter() - start) * 1e3


def run_context() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "host_speed_ms": host_speed_ms(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    context = run_context()
    context.update(workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    print("context: " + json.dumps(context, sort_keys=True), flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.workload == "figures":
            attempted, failed, metrics = workload_figures(
                args.seconds, bool(args.trace))
        elif args.workload == "campaign":
            attempted, failed, metrics = workload_campaign(
                args.seconds, bool(args.trace), args.seed)
        else:
            from serve_load import workload_serve

            attempted, failed, metrics = workload_serve(
                args.seconds, bool(args.trace), args.seed)
    except Incorrect as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in table},
    }))
    return 0


if __name__ == "__main__":
    # Run as the module ``run`` that serve_load imports, so both share
    # one ``Incorrect`` class.
    import run

    sys.exit(run.main())
