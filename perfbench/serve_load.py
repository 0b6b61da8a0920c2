"""The ``serve`` workload: ``repro serve`` under a seeded open-loop mix.

One client process (this one) drives a ``repro serve --workers 2``
subprocess.  A session has three parts:

* set-up -- fresh server processes are timed from spawn until
  ``/healthz`` answers;
* rounds -- ``ROUNDS`` closed-loop passes over the two connections: a
  cold pass of ``ROUND_QUERIES`` distinct queries (each a fresh
  ``hw.cxl`` simulation), then a warm pass of the same queries (run-cache
  hits);
* ladder -- an open loop that offers load at each rate of ``LADDER`` in
  turn.  Arrivals are Poisson on a seeded schedule; each is a distinct
  query, a repeat of a round query, or a pair of concurrent duplicates
  of a new query (coalesced).  Requests that come due while both
  connections are busy wait in the generator, and every latency counts
  from the due time.  ``/metrics`` is scraped every ``SCRAPE_EVERY_S``
  on a connection of its own.  The ladder stops after the first rate
  whose p99 latency misses ``LIMIT_MS``.

Every response body must equal ``run_oneshot`` of the same query,
computed here after the server has stopped.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from run import (
    WORK,
    Incorrect,
    fresh_dir,
    mean,
    median,
    peak_rss_mb,
    percentile,
    program_env,
)

CONNECTIONS = 2
"""Load connections: at most ``nproc`` of the reference 2-CPU host."""

SERVER_STARTS = 3
"""Server processes started per run: set-up samples."""

ROUNDS = 3
ROUND_QUERIES = 16

NOMINAL_RPS = 60.0
LADDER = ((NOMINAL_RPS, 0.5), (1.5 * NOMINAL_RPS, 0.125),
          (2.0 * NOMINAL_RPS, 0.125), (3.0 * NOMINAL_RPS, 0.125))
"""(offered requests/s, share of the run's seconds) per ladder step;
the first step is the nominal rate the latency metrics are taken at."""

LIMIT_MS = 250.0
"""p99 latency a ladder step must meet; failures count as misses."""

MIX = (("distinct", 0.2), ("repeat", 0.6), ("duplicate", 0.2))
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
SCRAPE_EVERY_S = 0.25
DEVICES = ("cxl-a", "cxl-b", "cxl-c", "cxl-d")


def _query(rng: random.Random, seed: int) -> bytes:
    """A distinct characterization query (its seed is never reused)."""
    return json.dumps({
        "device": rng.choice(DEVICES),
        "points": [{"offered_gbps": rng.choice((1.0, 2.0, 4.0, 6.0))}
                   for _ in range(2)],
        "n_requests": 4000,
        "seed": seed,
    }, sort_keys=True).encode()


@dataclass
class Sample:
    """One request as sent and answered."""

    due: float
    step: int
    body: bytes
    tenant: str
    done: float = 0.0
    status: int = 0
    response: bytes = b""


@dataclass
class Session:
    """Everything one session measured, before any check."""

    round_queries: List[List[bytes]] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    warm_s: List[float] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    steps: List[Tuple[float, float, float]] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    scrapes_s: List[float] = field(default_factory=list)


class Load:
    """The seeded request source of one session."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.next_seed = 1 + 1_000_000 * (seed % 1000)

    def distinct(self) -> bytes:
        self.next_seed += 1
        return _query(self.rng, self.next_seed)

    def schedule(self, steps, pool: List[bytes]) -> List[Sample]:
        """Poisson arrivals for each (rate, start, end) step."""
        rng = self.rng
        kinds, weights = zip(*MIX)
        out: List[Sample] = []
        for index, (rate, start, end) in enumerate(steps):
            # Arrivals are requests/s; a duplicate arrival is two.
            arrival_rate = rate / (1 + dict(MIX)["duplicate"])
            t = start + rng.expovariate(arrival_rate)
            while t < end:
                kind = rng.choices(kinds, weights)[0]
                tenant = rng.choice(TENANTS)
                if kind == "repeat":
                    out.append(Sample(t, index, rng.choice(pool), tenant))
                else:
                    body = self.distinct()
                    out.append(Sample(t, index, body, tenant))
                    if kind == "duplicate":
                        out.append(Sample(t, index, body,
                                          rng.choice(TENANTS)))
                t += rng.expovariate(arrival_rate)
        return out


async def _exchange(client, sample: Sample) -> None:
    try:
        response = await client.request(
            "POST", "/v1/characterize", sample.body,
            {"x-repro-tenant": sample.tenant},
        )
        sample.status, sample.response = response.status, response.body
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        sample.status = 0
        await client.close()
    sample.done = time.monotonic()


async def _closed_pass(clients, bodies: List[bytes]) -> List[Sample]:
    """Send ``bodies`` over the connections, each waiting for its reply."""
    queue: asyncio.Queue = asyncio.Queue()
    samples = [Sample(0.0, -1, body, TENANTS[i % len(TENANTS)])
               for i, body in enumerate(bodies)]
    for sample in samples:
        queue.put_nowait(sample)

    async def worker(client) -> None:
        while not queue.empty():
            sample = queue.get_nowait()
            sample.due = time.monotonic()
            await _exchange(client, sample)

    await asyncio.gather(*(worker(c) for c in clients))
    return samples


async def run_session(port: int, seconds: float, seed: int,
                      ladder=LADDER) -> Session:
    """Drive one server on ``port``: rounds, then the ladder."""
    from repro.serve.client import ServeClient

    load = Load(seed)
    session = Session()
    clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:
        for _ in range(ROUNDS):
            bodies = [load.distinct() for _ in range(ROUND_QUERIES)]
            session.round_queries.append(bodies)
            for phase in (session.cold_s, session.warm_s):
                start = time.monotonic()
                session.samples.extend(await _closed_pass(clients, bodies))
                phase.append(time.monotonic() - start)
        pool = [b for bodies in session.round_queries for b in bodies]
        await _ladder(clients, port, load, pool, seconds, ladder, session)
    finally:
        for client in clients:
            await client.close()
    return session


async def _ladder(clients, port, load: Load, pool, seconds, ladder,
                  session: Session) -> None:
    from repro.serve.client import ServeClient

    loop_start = time.monotonic() + 0.05
    t = 0.0
    for rate, share in ladder:
        session.steps.append((rate, t, t + share * seconds))
        t += share * seconds
    relative = load.schedule(session.steps, pool)
    queue: asyncio.Queue = asyncio.Queue()
    stop = asyncio.Event()
    samples: List[Sample] = []

    failed_at = [len(ladder)]

    async def generate() -> None:
        for sample in relative:
            if sample.step > failed_at[0]:
                break
            sample.due += loop_start
            delay = sample.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            session.lags_s.append(time.monotonic() - sample.due)
            samples.append(sample)
            queue.put_nowait(sample)
        for _ in clients:
            queue.put_nowait(None)

    async def send(client) -> None:
        while True:
            sample = await queue.get()
            if sample is None:
                return
            await _exchange(client, sample)

    async def judge() -> None:
        # A step is judged once its last due request could have met the
        # limit; the ladder stops after the first step that failed.
        for index, (_, _, end) in enumerate(session.steps):
            wait = loop_start + end + LIMIT_MS / 1e3 - time.monotonic()
            if wait > 0:
                await asyncio.sleep(wait)
            if not step_passed(samples, index, loop_start + end):
                failed_at[0] = index
                return

    async def scrape() -> None:
        async with ServeClient("127.0.0.1", port) as client:
            while not stop.is_set():
                start = time.monotonic()
                response = await client.request("GET", "/metrics")
                if response.status != 200:
                    raise Incorrect(f"/metrics answered {response.status}")
                session.scrapes_s.append(time.monotonic() - start)
                try:
                    await asyncio.wait_for(stop.wait(), SCRAPE_EVERY_S)
                except asyncio.TimeoutError:
                    pass

    scraper = asyncio.create_task(scrape())
    judge_task = asyncio.create_task(judge())
    await asyncio.gather(generate(), *(send(c) for c in clients))
    judge_task.cancel()
    stop.set()
    await scraper
    for sample in samples:
        sample.due -= loop_start
        sample.done -= loop_start
    session.samples.extend(samples)


def latency_ms(sample: Sample) -> float:
    """Due-to-done latency; a failed or refused request never meets any
    limit."""
    if sample.status != 200:
        return float("inf")
    return (sample.done - sample.due) * 1e3


def step_passed(samples: List[Sample], step: int, end: float) -> bool:
    """p99 within the limit, and no request due in the step still
    unanswered one limit after the step ended (a growing backlog)."""
    mine = [s for s in samples if s.step == step]
    if not mine:
        return True
    deadline = end + LIMIT_MS / 1e3
    late = [s for s in mine if s.done == 0.0 or s.done > deadline]
    if late:
        return False
    return percentile([latency_ms(s) for s in mine], 99) <= LIMIT_MS


def check_responses(session: Session,
                    references: Dict[bytes, bytes]) -> int:
    """Every answered body must equal ``run_oneshot`` of its query.

    ``references`` caches the expected bodies across sessions.  Returns
    the number of failed (non-200) requests.
    """
    from repro.serve.query import run_oneshot

    failed = 0
    for sample in session.samples:
        if sample.status != 200:
            failed += 1
            continue
        if sample.body not in references:
            references[sample.body] = run_oneshot(json.loads(sample.body))
        if sample.response != references[sample.body]:
            raise Incorrect(
                f"response differs from run_oneshot for {sample.body!r}")
    return failed


def ladder_metrics(session: Session) -> Dict[str, float]:
    """Latency at the nominal rate, and the goodput of the highest step
    that met the limit (its requests answered within the limit, per
    second of the step)."""
    ladder = [s for s in session.samples if s.step >= 0]
    nominal = [latency_ms(s) for s in ladder if s.step == 0]
    goodput = 0.0
    for index, (_, start, end) in enumerate(session.steps):
        mine = [s for s in ladder if s.step == index]
        good = sum(1 for s in mine if latency_ms(s) <= LIMIT_MS)
        rate = good / (end - start)
        if index == 0 or step_passed(mine, index, end):
            goodput = max(goodput, rate)
        if not step_passed(mine, index, end):
            break
    return {
        "latency_p50_ms": percentile(nominal, 50),
        "latency_p99_ms": percentile(nominal, 99),
        "goodput_rps": goodput,
    }


# -- the server subprocess -------------------------------------------------


class Server:
    """``repro serve --port 0 --workers 2``, timed until ``/healthz``."""

    def __init__(self, label: str) -> None:
        directory = fresh_dir(f"serve-{label}")
        events = directory / "events.ndjson"
        self.stderr = (directory / "stderr").open("wb")
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(CONNECTIONS), "--event-log", str(events)]
        start = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=WORK.parent, env=program_env(),
            stdout=subprocess.DEVNULL, stderr=self.stderr,
        )
        try:
            self.port = self._wait_port(events)
            asyncio.run(self._wait_healthy())
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start

    def _wait_port(self, events) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise Incorrect("repro serve exited during start; see "
                                f"{self.stderr.name}")
            if events.exists():
                for line in events.read_text().splitlines():
                    if '"server.start"' in line:
                        return int(json.loads(line)["port"])
            time.sleep(0.002)
        raise Incorrect("repro serve did not start within 60 s")

    async def _wait_healthy(self) -> None:
        from repro.serve.client import fetch

        while True:
            try:
                response = await fetch("127.0.0.1", self.port, "GET",
                                       "/healthz")
                if response.status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.stderr.close()


def workload_serve(seconds: float, trace: bool, seed: int):
    if trace:
        return traced_serve(seconds, seed)
    setup = []
    for i in range(SERVER_STARTS - 1):
        probe = Server(f"probe{i}")
        setup.append(probe.setup_s)
        probe.stop()
    server = Server("main")
    setup.append(server.setup_s)
    try:
        session = asyncio.run(run_session(server.port, seconds, seed))
    finally:
        server.stop()
    failed = check_responses(session, {})
    return len(session.samples), failed, {
        "setup_s": median(setup),
        "cold_s": mean(session.cold_s),
        "warm_s": mean(session.warm_s),
        **ladder_metrics(session),
        "peak_rss_mb": peak_rss_mb(),
    }


# -- the traced run ----------------------------------------------------------


async def _in_process(seconds: float, seed: int, label: str, tracer=None):
    """One session against a ``ServeApp`` hosted in this process, so the
    layer wrappers see its calls: the rounds and the nominal step."""
    from repro.serve import ServeApp, ServeConfig

    events = fresh_dir(f"serve-{label}") / "events.ndjson"
    if tracer is not None:
        tracer.install()
    try:
        app = ServeApp(ServeConfig(port=0, workers=CONNECTIONS,
                                   event_log=str(events)))
        start = time.monotonic()
        serving = asyncio.create_task(app.serve())
        while app.port is None:
            if serving.done():
                serving.result()
            await asyncio.sleep(0.001)
        try:
            session = await run_session(app.port, seconds, seed,
                                        ladder=LADDER[:1])
        finally:
            app.request_shutdown()
            await serving
        wall = time.monotonic() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return session, wall, app


def traced_serve(seconds: float, seed: int):
    """Per-layer metrics of one traced session.

    An untraced session gives the tracing overhead (on the closed-loop
    rounds, whose length depends on speed); a second traced session
    must repeat the exact counts.  Which repeats hit the run cache and
    which coalesce depends on timing, so ``cells_cached`` is not among
    them here.
    """
    from tracer import EXACT_COUNTS, Tracer, layer_metrics, union_seconds

    references: Dict[bytes, bytes] = {}
    untraced, _, _ = asyncio.run(_in_process(seconds, seed, "untraced"))
    check_responses(untraced, references)
    runs = []
    for label in ("traced1", "traced2"):
        tracer = Tracer()
        session, wall, app = asyncio.run(
            _in_process(seconds, seed, label, tracer))
        failed = check_responses(session, references)
        runs.append((session, wall, app, tracer.summary(), failed))
    exact = [name for name in EXACT_COUNTS
             if name != "runtime.executor.cells_cached"]
    counts = [{n: r[3]["counts"].get(n, 0) for n in exact} for r in runs]
    if counts[0] != counts[1]:
        raise Incorrect(f"exact counts differ between two traced runs: "
                        f"{counts[0]} != {counts[1]}")
    session, wall, app, summary, failed = runs[0]
    stats = app.stats_document()
    jobs, cache = stats["jobs"], stats["cache"]
    hits = cache["memory_hits"] + cache["disk_hits"] + cache["store_hits"]

    def rounds_s(s: Session) -> float:
        return sum(s.cold_s) + sum(s.warm_s)

    metrics = layer_metrics(summary)
    metrics.update({
        "runtime.cache.bytes_on_disk": 0,
        "store.bytes_on_disk": 0,
        "serve.queue_wait_p99_ms": 1e3 * percentile(
            summary["queue_waits_s"], 99),
        "serve.coalesced_ratio": jobs["coalesced"] / (
            jobs["started"] + jobs["coalesced"]),
        "serve.cache_hit_ratio": hits / (hits + cache["misses"]),
        "serve.rejected": stats["admission"]["rejected"],
        "obs.metrics.instruments": len(app.registry),
        "obs.metrics.scrape_p99_ms": 1e3 * percentile(session.scrapes_s, 99),
        "bench.generator_lag_ms": 1e3 * percentile(session.lags_s, 99),
        "unattributed_s": wall - union_seconds(summary["top_level"]),
        "trace_overhead_ratio": rounds_s(session) / rounds_s(untraced),
    })
    attempted = sum(len(r[0].samples) for r in runs) + len(untraced.samples)
    return attempted, sum(r[4] for r in runs), metrics
