"""End-to-end benchmark of the MPPM reproduction, with per-layer attribution.

Run from the repository root::

    python3 e2ebench/run.py --workload cold-sweep --seed 1 --seconds 8 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``cold-sweep``
    ``repro run --experiment accuracy`` (suite:spec29, 200k
    instructions, 12 mixes, cores 2,4, ``mppm:foa``, ``--jobs 1``) in a
    fresh process with an empty ``--cache-dir``.
``warm-rerun``
    The same command against the cache a cold run just filled.
``design-space``
    In one process, ``ExperimentSetup.predict_batch(..., "mppm:foa")``
    over seeded 4-program mixes on all six Table 2 LLC configurations,
    after preloading their profiles; no result cache.
``serve-open-loop``
    A ``repro serve`` process (default flags; ``--port 0``) driven
    open-loop over two keep-alive connections by a rate ladder of 50,
    75, 100 and 125 requests/s, each request one 4-program mix drawn
    with seeded Zipf popularity from a fixed pool, after one request has
    cached the pool's most popular mixes; and a probe that reproduces
    the micro-batcher's lost request on another server.

``BENCHMARK.json`` lists every workload but ``warm-rerun`` (see
:data:`UNGATED`).

With ``--trace 0`` the last stdout line carries the gated end-to-end
metrics, which every workload measures:

``setup_s``
    Time until the workload is ready to take work (median of several
    set-ups): a bare ``import repro`` in a fresh interpreter; the cache
    fill; import, set-up and the six-configuration profile preload; or
    launch until ``/healthz`` answers.
``peak_rss_mb``
    Peak resident memory of the process doing the work.
``wall_s``
    Median host time of one operation: one ``repro run``, one sweep of
    12,000 predictions, or one served request at 50 requests/s timed
    from its due send time.

The workload-specific numbers (simulated MIPS and MPPM error of the
cold sweep, predictions/s of the design space, per-rate latency and
``max_rps`` of the service) are printed by name and unit in the report
above that line.  With ``--trace 1`` the workload runs once untraced and
once with spans around every layer's entry points (``launch.py``); the
last line then carries the per-layer table and the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from importlib import metadata
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
from loadgen import Client, StepResult, http_request, open_loop  # noqa: E402
from spans import Span, layer_table  # noqa: E402
from stats import median, percentile, reportable, samples_needed  # noqa: E402

PYTHON = sys.executable or "python3"
#: Each child process is killed after this long (a run must end in 180 s).
CHILD_TIMEOUT = 170.0

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s"}
PER_LAYER_UNITS = {
    "import.s": "s",
    "workloads.generator.calls": "count",
    "workloads.generator.busy_s": "s",
    "workloads.generator.accesses": "count",
    "simulators.single_core.calls": "count",
    "simulators.single_core.busy_s": "s",
    "simulators.single_core.instructions": "count",
    "simulators.multi_core.calls": "count",
    "simulators.multi_core.busy_s": "s",
    "simulators.multi_core.instructions": "count",
    "profiling.store.requests": "count",
    "profiling.store.simulated": "count",
    "profiling.store.loaded": "count",
    "profiling.store.hit_ratio": "ratio",
    "profiling.profile.cpi_calls": "count",
    "profiling.profile.busy_s": "s",
    "core.mppm.mixes": "count",
    "core.mppm.batches": "count",
    "core.mppm.busy_s": "s",
    "core.mppm.iterations_mean": "count",
    "experiments.setup.self_s": "s",
    "engine.executor.runs": "count",
    "engine.executor.jobs": "count",
    "engine.executor.self_s": "s",
    "engine.cache.gets": "count",
    "engine.cache.hits": "count",
    "engine.cache.puts": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.get_s": "s",
    "engine.cache.put_s": "s",
    "engine.cache.bytes_read": "B",
    "engine.cache.bytes_written": "B",
    "service.http.requests": "count",
    "service.batching.batches": "count",
    "service.batching.mean_batch": "count",
    "service.batching.window_wait_ms": "ms",
    "service.failed": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_pct": "%",
}

# The cold/warm command, spelled out flag by flag.
RUN_ARGS = (
    "run", "--experiment", "accuracy", "--suite", "suite:spec29", "--instructions", "200000",
    "--mixes", "12", "--cores", "2,4", "--model", "mppm:foa", "--jobs", "1",
)  # fmt: skip
FINISHED_PREFIX = "[accuracy] finished in"
IMPORT_ONLY = f"import sys; sys.path.insert(0, {SRC!r}); import repro"

# Open-loop service load.
RATES = (50, 75, 100, 125)
LATENCY_LIMIT_S = 0.050
#: A request unanswered this long after it was sent fails.
DEADLINE_S = 1.0
CONNECTIONS = 2
POOL_SIZE = 1000
ZIPF_EXPONENT = 1.0
#: Served payloads compared with in-process predictions; at least half
#: are of mixes outside the warm-up, so the micro-batcher computed them
#: under load.
SERVE_CHECKS = 20
#: Before any step, one request caches this many of the most popular
#: mixes, so the steps measure a server in its steady state rather than
#: its cold start; the rest of the pool still computes.
WARM_MIXES = 300
#: Uncached mixes the stranding probe's first request simulates in
#: detail: about a second of engine work in one window flush (fewer
#: than the service's batch cap of 64, which would flush at once).
PROBE_BATCH = 8
#: How long the probe's requests may stay unanswered on an idle server.
PROBE_GRACE_S = 1.0


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    digest: str
    report: List[Tuple[str, object, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass
class Child:
    """A finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    report: Dict


class Context:
    """Per-run state: seed, timing budget, scratch directory, live children."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".e2ebench-work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.live: List[subprocess.Popen] = []
        self._names = 0

    def path(self, stem: str) -> str:
        self._names += 1
        return os.path.join(self.work, f"{self._names}-{stem}")

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def popen(self, argv: List[str], **options) -> subprocess.Popen:
        process = subprocess.Popen(argv, cwd=ROOT, env=self.env(), **options)
        self.live.append(process)
        return process

    def reap(self, process: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> Tuple[int, float]:
        """Wait for ``process`` (killing it after ``timeout``): (exit code, peak RSS MB)."""
        timer = threading.Timer(timeout, process.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(process)
        return process.returncode, usage.ru_maxrss / 1024.0

    def run(self, argv: List[str]) -> Child:
        """Run a child to completion, timing it from spawn to exit."""
        out_path = self.path("stdout.txt")
        with open(out_path, "w", encoding="utf-8") as out, open(self.path("stderr.txt"), "w") as err:
            started = time.perf_counter()
            process = self.popen(argv, stdout=out, stderr=err)
            code, rss = self.reap(process)
            wall = time.perf_counter() - started
        with open(out_path, encoding="utf-8") as handle:
            stdout = handle.read()
        if code != 0:
            with open(err.name, encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(f"{' '.join(argv)} exited with {code}:\n{handle.read()[-4000:]}\n")
        return Child(code, wall, rss, stdout, {})

    def launch(self, mode: str, args: List[str], traced: bool = False) -> Child:
        """Run the program under ``launch.py`` and load its exit report."""
        report_path = self.path("report.json")
        argv = [PYTHON, LAUNCH, "--report", report_path] + (["--trace"] if traced else [])
        child = self.run(argv + [mode, "--"] + args)
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as handle:
                child.report = json.load(handle)
        return child

    def close(self) -> None:
        for process in list(self.live):
            process.kill()
            self.reap(process)
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def repeat(operation: Callable[[int], object], seconds: float, minimum: int) -> List:
    """Call ``operation(i)`` until ``seconds`` have passed and ``minimum`` calls ran."""
    results = []
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started < seconds:
        results.append(operation(len(results)))
    return results


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tables(stdout: str) -> str:
    """``repro run`` output minus its timing line."""
    return "\n".join(line for line in stdout.splitlines() if not line.startswith(FINISHED_PREFIX))


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced - untraced) / untraced


def after_warm_up(server_report: Dict) -> Dict:
    """A traced server's exit report, cut to the spans of the measured step.

    Keeps the spans that start after the first ``/predict`` request (the
    cache warm-up) ended and end before ``/shutdown`` began, which also
    drops the ``/healthz`` polls, and takes the profiles the warm-up
    and start-up simulated or loaded out of the store counters.
    """
    spans = [Span(*row) for row in server_report["spans"]]
    handles = [span for span in spans if span.name == "service.http:handle"]
    warm = next(span for span in handles if span.attrs.get("path") == "/predict")
    stop = min((span.start for span in handles if span.attrs.get("path") == "/shutdown"), default=math.inf)
    report = dict(server_report)
    report["spans"] = [span for span in spans if span.start >= warm.end and span.end <= stop]
    for counter in ("profiles_simulated", "profiles_loaded"):
        report[counter] = server_report[counter] - warm.attrs[counter]
    return report


def per_layer(child_report: Dict, extra: Dict[str, float]) -> Dict[str, float]:
    spans = [Span(*row) for row in child_report.get("spans", [])]
    table = layer_table(spans, child_report)
    table.update({"service.failed": 0, "loadgen.late_ms_p99": 0.0})
    table.update(extra)
    return table


def host_block() -> Dict[str, object]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git": sha or "unknown",
    }


def import_repro() -> None:
    """Make the program importable in this process (for the output checks)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# cold-sweep and warm-rerun
# ---------------------------------------------------------------------------


def run_argv(seed: int, cache_dir: str) -> List[str]:
    return list(RUN_ARGS) + ["--seed", str(seed), "--cache-dir", cache_dir]


def accuracy_from_cache(seed: int, cache_dir: str) -> Dict:
    """Re-derive a cold sweep's results in-process from the cache it filled.

    Builds the setup ``repro run`` builds from the flags in
    :data:`RUN_ARGS` and asks for the same accuracy experiment; every
    result must come from the cache.  Returns the rendered table, the
    MPPM per-program CPI errors against the detailed simulator, and the
    instructions the sweep simulated.
    """
    import_repro()
    from repro.experiments import ExperimentConfig, ExperimentSetup
    from repro.experiments.accuracy import accuracy_experiment

    from launch import multi_core_instructions

    config = ExperimentConfig(num_instructions=200_000, interval_instructions=4_000, seed=seed)
    setup = ExperimentSetup(config=config, workload="suite:spec29", cache_dir=cache_dir)
    result = accuracy_experiment(
        setup, core_counts=[2, 4], mixes_per_core_count=12, predictors=["mppm:foa"], seed=seed + 23
    )
    errors, pairs, multi = [], set(), 0
    for entry in result.per_core_count:
        machine = setup.machine(num_cores=entry.num_cores, llc_config=entry.llc_config)
        for evaluation in entry.evaluations:
            multi += multi_core_instructions(evaluation.measured)
            pairs.update((name, machine.profile_key()) for name in evaluation.mix.programs)
            for program in evaluation.predicted.programs:
                measured = evaluation.measured.program(program.name, program.core).cpi
                errors.append(abs(program.predicted_cpi - measured) / measured)
    return {
        "table": result.render().strip(),
        "recomputed": setup.engine.cache_stats()["stores"],
        "cpi_errors": errors,
        "single_core_instructions": len(pairs) * config.num_instructions,
        "multi_core_instructions": multi,
    }


def cold_run(ctx: Context, seed: int, traced: bool = False) -> Tuple[Child, str]:
    cache_dir = ctx.path("cache")
    return ctx.launch("cli", run_argv(seed, cache_dir), traced=traced), cache_dir


def cold_sweep(ctx: Context) -> Outcome:
    notes: List[str] = []
    if ctx.trace:
        seeds = [ctx.seed, ctx.seed]
        runs = [cold_run(ctx, ctx.seed), cold_run(ctx, ctx.seed, traced=True)]
    else:
        imports = [ctx.run([PYTHON, "-c", IMPORT_ONLY]) for _ in range(5)]
        # Each run sweeps inputs of its own seed.  How long a sweep takes
        # depends on its mixes (one seed's took 1.45x another's on the
        # same host), so a median over several seeds moves less between
        # runs of the benchmark than one seed's runs would.
        runs = repeat(lambda index: cold_run(ctx, ctx.seed * 1000 + index), ctx.seconds, 5)
        seeds = [ctx.seed * 1000 + index for index in range(len(runs))]
    failed, expected, errors, simulated = 0, [], [], 0
    for (child, cache_dir), seed in zip(runs, seeds):
        derived = accuracy_from_cache(seed, cache_dir)
        if child.code != 0 or tables(child.stdout).strip() != derived["table"] or derived["recomputed"]:
            failed += 1
        expected.append(derived["table"])
        errors += derived["cpi_errors"]
        simulated += derived["single_core_instructions"] + derived["multi_core_instructions"]
    correct = failed == 0
    if not correct:
        notes.append("a cold run's tables differ from the results rebuilt from its cache")
    digest = sha256("\n".join(expected))
    children = [child for child, _ in runs]
    if ctx.trace:
        untraced, traced = children
        table = per_layer(traced.report, {"trace.overhead_pct": overhead_pct(traced.wall_s, untraced.wall_s)})
        # ``derived`` is the traced run's.  Only the single-core count is
        # independent of the spans: the multi-core one applies the same
        # function to the same results.
        traced_count = table["simulators.single_core.instructions"]
        if traced_count != derived["single_core_instructions"]:
            correct = False
            notes.append(f"traced single-core instructions {traced_count} differ from the results")
        return Outcome(table, len(runs), failed, correct, digest, notes=notes)
    metrics = {
        "setup_s": median([child.wall_s for child in imports]),
        "peak_rss_mb": median([child.rss_mb for child in children]),
        "wall_s": median([child.wall_s for child in children]),
    }
    report = [
        ("runs", len(runs), "count"),
        ("seeds", f"{seeds[0]}-{seeds[-1]}", "repro run --seed"),
        ("sim_minstr_per_s", simulated / 1e6 / sum(child.wall_s for child in children), "Minstr/s (lower bound; see below)"),
        ("simulated_instructions", simulated, "count (multi-core runs: completed passes only)"),
        ("mppm_cpi_err_pct", 100.0 * sum(errors) / len(errors), "% (simulated; vs this repo's detailed model, no hardware reference)"),
    ]
    return Outcome(metrics, len(runs), failed, correct, digest, report, notes)


def warm_rerun(ctx: Context) -> Outcome:
    notes: List[str] = []
    fills = [cold_run(ctx, ctx.seed) for _ in range(1 if ctx.trace else 3)]
    fill, cache_dir = fills[-1]
    expected = tables(fill.stdout)
    fill_failed = any(child.code != 0 or tables(child.stdout) != expected for child, _ in fills)
    entries = sum(len(files) for _, _, files in os.walk(cache_dir))

    def warm(_: int, traced: bool = False) -> Child:
        return ctx.launch("cli", run_argv(ctx.seed, cache_dir), traced=traced)

    runs = [warm(0), warm(1, traced=True)] if ctx.trace else repeat(warm, ctx.seconds, 9)
    failed = sum(child.code != 0 or tables(child.stdout) != expected for child in runs)
    grew = sum(len(files) for _, _, files in os.walk(cache_dir)) != entries
    correct = failed == 0 and not fill_failed and not grew
    if fill_failed:
        notes.append("cache fills disagree")
    if grew:
        notes.append("a warm rerun wrote new cache entries")
    digest = sha256(expected)
    if ctx.trace:
        untraced, traced = runs
        table = per_layer(traced.report, {"trace.overhead_pct": overhead_pct(traced.wall_s, untraced.wall_s)})
        return Outcome(table, len(runs), failed, correct, digest, notes=notes)
    metrics = {
        "setup_s": median([child.wall_s for child, _ in fills]),
        "peak_rss_mb": median([child.rss_mb for child in runs]),
        "wall_s": median([child.wall_s for child in runs]),
    }
    report = [("runs", len(runs), "count"), ("cache_files", entries, "count")]
    return Outcome(metrics, len(runs), failed, correct, digest, report, notes)


# ---------------------------------------------------------------------------
# design-space
# ---------------------------------------------------------------------------


def design_space(ctx: Context) -> Outcome:
    seed = ["--seed", str(ctx.seed)]
    if ctx.trace:
        untraced = ctx.launch("design", seed + ["--min-sweeps", "1"])
        traced = ctx.launch("design", seed + ["--min-sweeps", "1"], traced=True)
        children = [untraced, traced]
    else:
        setups = [ctx.launch("design", seed + ["--setup-only"])]
        main = ctx.launch(
            "design", seed + ["--seconds", str(ctx.seconds), "--min-sweeps", "3", "--check", "30"]
        )
        children = setups + [main]
    failed_children = [child for child in children if child.code != 0 or "setup_s" not in child.report]
    if failed_children:
        return Outcome({}, len(children), len(failed_children), False, "", notes=["design-space child failed"])
    if ctx.trace:
        sweep = lambda child: median(child.report["sweep_s"])  # noqa: E731
        correct = untraced.report["result_digest"] == traced.report["result_digest"]
        table = per_layer(traced.report, {"trace.overhead_pct": overhead_pct(sweep(traced), sweep(untraced))})
        notes = [] if correct else ["traced and untraced sweeps disagree"]
        return Outcome(table, 2, 0, correct, traced.report["result_digest"], notes=notes)
    report = main.report
    size = report["predictions_per_sweep"]
    wall = median(report["sweep_s"])
    metrics = {
        "setup_s": median([child.report["setup_s"] for child in children]),
        "peak_rss_mb": main.rss_mb,
        "wall_s": wall,
    }
    lines = [
        ("sweeps", len(report["sweep_s"]), "count"),
        ("predictions_per_sweep", size, "count"),
        ("predictions_per_s", size / wall, "1/s"),
        ("ranking_by_mean_stp", " > ".join(f"#{n}" for n in report["ranking"]), "LLC config"),
        ("checked_against_single_predict", report["checked"], "count"),
    ]
    mismatches = report["mismatches"]
    notes = [f"{mismatches} batch predictions differ from single predict calls"] if mismatches else []
    attempted = size * len(report["sweep_s"]) + report["checked"]
    return Outcome(metrics, attempted, mismatches, mismatches == 0, report["result_digest"], lines, notes)


# ---------------------------------------------------------------------------
# serve-open-loop
# ---------------------------------------------------------------------------


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    setup_s: float
    report_path: str


def http(port: int, path: str, body: Optional[bytes] = None, timeout: float = 5.0) -> bytes:
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body, method="POST" if body is not None else "GET")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def start_server(ctx: Context, traced: bool = False) -> Server:
    """Launch ``repro serve`` and wait until ``/healthz`` answers."""
    report_path = ctx.path("serve-report.json")
    argv = [PYTHON, LAUNCH, "--report", report_path] + (["--trace"] if traced else [])
    started = time.perf_counter()
    with open(ctx.path("serve-stderr.txt"), "w") as err:
        process = ctx.popen(
            argv + ["cli", "--", "serve", "--port", "0"], stdout=subprocess.PIPE, stderr=err, text=True
        )
    deadline = started + 120.0
    port = 0
    while not port:
        ready, _, _ = select.select([process.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("repro serve did not announce its port")
        if "listening on" in line:
            port = int(line.strip().rsplit(":", 1)[1])
    while True:
        try:
            if json.loads(http(port, "/healthz")).get("status") == "ok":
                break
        except (OSError, ValueError):
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.01)
    return Server(process, port, time.perf_counter() - started, report_path)


def stop_server(ctx: Context, server: Server) -> Tuple[float, Dict]:
    """Shut the service down; returns its peak RSS (MB) and exit report."""
    try:
        http(server.port, "/shutdown", b"{}")
    except OSError:
        server.process.kill()
    _, rss = ctx.reap(server.process, timeout=60.0)
    server.process.stdout.close()
    report: Dict = {}
    if os.path.exists(server.report_path):
        with open(server.report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    return rss, report


def distinct_mixes(rng: random.Random, names: List[str], count: int, exclude=frozenset()) -> List[List[str]]:
    """``count`` distinct 4-program mixes not in ``exclude``.

    Each mix lists its programs in sorted order, the canonical order the
    service answers with.
    """
    mixes, seen = [], set(exclude)
    while len(mixes) < count:
        mix = sorted(rng.sample(names, 4))
        if tuple(mix) not in seen:
            seen.add(tuple(mix))
            mixes.append(mix)
    return mixes


def request_pool(seed: int, names: List[str]) -> Tuple[List[List[str]], List[float], Dict[Tuple[str, ...], int]]:
    """A fixed pool of mixes, their Zipf weights and the connection of each.

    Every mix is always sent on the same connection, the pool split so
    both carry about half the traffic.  Two connections then never hold
    the same mix at once, so a request for a mix the service is still
    computing never arrives on the other connection.
    """
    pool = distinct_mixes(random.Random(seed), names, POOL_SIZE)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(POOL_SIZE)]
    load = [0.0] * CONNECTIONS
    lanes = {}
    for mix, weight in zip(pool, weights):
        lane = load.index(min(load))
        load[lane] += weight
        lanes[tuple(mix)] = lane
    return pool, weights, lanes


@dataclass
class Step:
    result: StepResult
    mixes: List[List[str]]
    wrong: int

    def latency_ms(self, q: float) -> float:
        """Percentile ``q`` from due time; a failed request counts as infinite."""
        return 1000.0 * percentile(self.result.latencies(), q)

    def passes(self) -> bool:
        growing = self.result.backlog_end > max(4, 0.1 * self.result.rate)
        return not growing and percentile(self.result.latencies(), 99) <= LATENCY_LIMIT_S


def carries(outcome: loadgen.Outcome, mix: List[str]) -> bool:
    """Whether a successful answer is a single prediction of ``mix``."""
    try:
        payload = json.loads(outcome.body)
        return payload["mixes"] == [mix] and "prediction" in payload
    except (ValueError, KeyError, TypeError):
        return False


def warm_cache(port: int, pool: List[List[str]]) -> None:
    http(port, "/predict", json.dumps({"mixes": pool[:WARM_MIXES]}).encode("utf-8"), timeout=60.0)


def run_step(port: int, rate: int, rng: random.Random, pool, weights, lanes, count: int) -> Step:
    """``count`` measured requests at ``rate``, then the traffic that follows them.

    The service keeps receiving requests at the same rate until every
    measured one is answered or past its deadline, as it would under
    steady traffic, so the end of a step is not a lull no real load has.
    """
    mixes = rng.choices(pool, weights=weights, k=count + math.ceil(rate * DEADLINE_S))
    bodies = [json.dumps({"mix": mix}).encode("utf-8") for mix in mixes]
    lanes_of = [lanes[tuple(mix)] for mix in mixes]
    result = asyncio.run(open_loop("127.0.0.1", port, bodies, lanes_of, rate, DEADLINE_S, measured=count))
    mixes = mixes[:count]
    wrong = 0
    for outcome, mix in zip(result.outcomes, mixes):
        if not outcome.failed and not carries(outcome, mix):
            outcome.error = "wrong payload"
            wrong += 1
    return Step(result, mixes, wrong)


@dataclass
class Probe:
    """The stranding probe's four requests: batch, stranded, joined, trigger."""

    outcomes: List[loadgen.Outcome]
    mixes: List[List[str]]
    #: The stranded and joined requests were answered only after the trigger.
    answered_after_trigger: bool

    @property
    def failed(self) -> int:
        return sum(outcome.failed for outcome in self.outcomes)


async def _stranding_probe(port: int, batch: List[List[str]], mix: List[str], trigger: List[str]) -> Probe:
    clients = [Client("127.0.0.1", port) for _ in range(4)]
    bodies = [{"mixes": batch, "predictor": "detailed"}, {"mix": mix}, {"mix": mix}, {"mix": trigger}]
    outcomes = [loadgen.Outcome(due=math.nan) for _ in bodies]

    async def send(index: int) -> None:
        outcome = outcomes[index]
        outcome.sent = time.perf_counter()
        request = http_request(json.dumps(bodies[index]).encode("utf-8"), "127.0.0.1")
        outcome.status, outcome.body = await clients[index].exchange(request)
        outcome.done = time.perf_counter()

    async def flushed_items() -> int:
        stats = json.loads(await asyncio.to_thread(http, port, "/stats"))
        return stats["batches"]["items"]

    try:
        before = await flushed_items()
        tasks = [asyncio.ensure_future(send(0))]
        # The service counts a batch's items as its flush starts.
        while not tasks[0].done() and await flushed_items() < before + len(batch):
            await asyncio.sleep(0.002)
        tasks += [asyncio.ensure_future(send(index)) for index in (1, 2)]
        await asyncio.wait(tasks[:1], timeout=60.0)
        # The server is idle now: a correct one answers within milliseconds.
        await asyncio.wait(tasks[1:], timeout=PROBE_GRACE_S)
        for index, task in enumerate(tasks[1:], start=1):
            if not task.done():
                outcomes[index].error = f"no answer within {PROBE_GRACE_S:g} s of an idle server"
        stranded = not all(task.done() for task in tasks[1:])
        tasks.append(asyncio.ensure_future(send(3)))
        await asyncio.wait(tasks, timeout=30.0)
        after = stranded and all(task.done() and task.exception() is None for task in tasks[1:3])
        for index, task in enumerate(tasks):
            if not task.done():
                task.cancel()
                outcomes[index].error = outcomes[index].error or "no answer"
            elif task.exception() is not None:
                outcomes[index].error = f"{type(task.exception()).__name__}: {task.exception()}"
        return Probe(outcomes, [batch, mix, mix, trigger], after)
    finally:
        for client in clients:
            await client.close()


def stranding_probe(port: int, seed: int, names: List[str], pool: List[List[str]]) -> Probe:
    """Reproduce the micro-batcher's lost request on purpose, the same way each run.

    A detailed simulation of ``PROBE_BATCH`` uncached mixes keeps the
    single engine thread busy for about a second.  Once its window flush
    has started, one uncached mix is sent on a second connection and the
    same mix on a third.  The first arrives while the window flush awaits
    the engine; ``PredictionBatcher.submit`` schedules no flush for it
    then, and the second joins it as an in-flight duplicate.  Once the batch
    is answered the server is idle, and each of the two requests still
    unanswered ``PROBE_GRACE_S`` later fails.  A fourth request, for
    another mix, then schedules a flush, which should answer them.
    A service without the defect answers all four.
    """
    fresh = distinct_mixes(random.Random(seed), names, PROBE_BATCH + 2, {tuple(mix) for mix in pool})
    probe = asyncio.run(_stranding_probe(port, fresh[:PROBE_BATCH], fresh[-2], fresh[-1]))
    for outcome, mix in zip(probe.outcomes[1:], probe.mixes[1:]):
        if not outcome.failed and not carries(outcome, mix):
            outcome.error = "wrong payload"
    return probe


def check_sample(seed: int, steps: List[Step], pool: List[List[str]]) -> List[Tuple[str, ...]]:
    """A seeded sample of the mixes the steps requested.

    Half of it (or all such mixes, if fewer) lies outside the warm-up,
    so its first answers were computed by the micro-batcher under load.
    The sample depends only on the seed, not on which requests failed.
    """
    warm = {tuple(mix) for mix in pool[:WARM_MIXES]}
    requested = sorted({tuple(mix) for step in steps for mix in step.mixes})
    cold = [mix for mix in requested if mix not in warm]
    rng = random.Random(seed)
    sample = rng.sample(cold, min(len(cold), SERVE_CHECKS // 2))
    rest = [mix for mix in requested if mix not in sample]
    return sample + rng.sample(rest, min(len(rest), SERVE_CHECKS - len(sample)))


def check_served(seed: int, steps: List[Step], pool: List[List[str]]) -> Tuple[int, int, str]:
    """Compare a seeded sample of served payloads with in-process predictions.

    Each sampled mix's first successful answer must equal
    ``prediction_payload(ExperimentSetup.predict(...))``.  Returns the
    mixes checked (a sampled mix whose every request failed is not), the
    mismatches, and the digest of the sample's expected payloads.
    """
    import_repro()
    from repro.experiments import ExperimentSetup
    from repro.service.app import ServiceConfig
    from repro.service.payloads import prediction_payload
    from repro.workloads import WorkloadMix

    served: Dict[Tuple[str, ...], bytes] = {}
    for step in steps:
        for outcome, mix in zip(step.result.outcomes, step.mixes):
            if not outcome.failed:
                served.setdefault(tuple(mix), outcome.body)
    setup = ExperimentSetup(config=ServiceConfig().experiment_config())
    machine = setup.machine(num_cores=4, llc_config=1)
    checked, mismatches, texts = 0, 0, []
    for mix in check_sample(seed, steps, pool):
        payload = prediction_payload(setup.predict(WorkloadMix(programs=mix), machine, "mppm:foa"))
        expected = json.dumps(json.loads(json.dumps(payload)), sort_keys=True)
        texts.append(expected)
        if mix in served:
            checked += 1
            mismatches += json.dumps(json.loads(served[mix])["prediction"], sort_keys=True) != expected
    return checked, mismatches, sha256("\n".join(texts))


def probe_notes(probe: Probe) -> List[str]:
    if not probe.failed:
        return []
    note = f"stranding probe: {probe.failed} of {len(probe.outcomes)} requests failed"
    if probe.answered_after_trigger:
        note += " (answered only once an unrelated request arrived)"
    return [note]


def serve_open_loop(ctx: Context) -> Outcome:
    import_repro()
    from repro.experiments import ExperimentSetup

    names = ExperimentSetup(workload="suite:spec29").benchmark_names
    pool, weights, lanes = request_pool(ctx.seed, names)
    count = lambda rate: max(samples_needed(99), int(rate * ctx.seconds))  # noqa: E731

    def step_on(server: Server, rate: int, rng: random.Random) -> Step:
        warm_cache(server.port, pool)
        return run_step(server.port, rate, rng, pool, weights, lanes, count(rate))

    if ctx.trace:
        # One 50 requests/s step against an untraced and a traced server;
        # the probe runs on the untraced one, after its step.
        steps, latencies = [], []
        for traced in (False, True):
            server = start_server(ctx, traced=traced)
            try:
                steps.append(step_on(server, RATES[0], random.Random(ctx.seed + 1)))
                if not traced:
                    probe = stranding_probe(server.port, ctx.seed + 3, names, pool)
            finally:
                _, report = stop_server(ctx, server)
            latencies.append(steps[-1].latency_ms(50))
        step = steps[1]
        lateness = [1000.0 * late for late in step.result.lateness()]
        table = per_layer(
            after_warm_up(report),
            {
                "service.failed": step.result.failed,
                "loadgen.late_ms_p99": percentile(lateness, 99),
                "trace.overhead_pct": overhead_pct(latencies[1], latencies[0]),
            },
        )
        attempted = sum(s.result.attempted for s in steps) + len(probe.outcomes)
        failed = sum(s.result.failed for s in steps) + probe.failed
        wrong = sum(s.wrong for s in steps)
        return Outcome(table, attempted, failed, wrong == 0, "", notes=probe_notes(probe))

    # The first server's launch is a set-up sample and hosts the probe.
    server = start_server(ctx)
    try:
        probe = stranding_probe(server.port, ctx.seed + 3, names, pool)
    finally:
        stop_server(ctx, server)
    launches = [server.setup_s]
    server = start_server(ctx)
    launches.append(server.setup_s)
    rng = random.Random(ctx.seed + 1)
    steps: List[Step] = []
    try:
        warm_cache(server.port, pool)
        for rate in RATES:
            steps.append(run_step(server.port, rate, rng, pool, weights, lanes, count(rate)))
    finally:
        rss, _ = stop_server(ctx, server)
    checked, mismatches, digest = check_served(ctx.seed + 2, steps, pool)
    attempted = sum(step.result.attempted for step in steps) + len(probe.outcomes)
    failed = sum(step.result.failed for step in steps) + probe.failed
    wrong = sum(step.wrong for step in steps)
    passing = [step.result.rate for step in steps if step.passes()]
    metrics = {
        "setup_s": median(launches),
        "peak_rss_mb": rss,
        "wall_s": steps[0].latency_ms(50) / 1000.0,
    }
    lines: List[Tuple[str, object, str]] = []
    for step in steps:
        rate = int(step.result.rate)
        lateness = [1000.0 * late for late in step.result.lateness()]
        n = step.result.attempted
        p99 = step.latency_ms(99) if reportable(99, n) else "n/a"
        lines += [
            (f"p50_ms.{rate}rps", step.latency_ms(50), "ms"),
            (f"p99_ms.{rate}rps", p99, f"ms (n={n}; a failed request counts as infinite)"),
            (f"failed.{rate}rps", step.result.failed, f"count of {step.result.attempted}"),
            (f"backlog_end.{rate}rps", step.result.backlog_end, "count"),
            (f"generator_late_ms_p99.{rate}rps", percentile(lateness, 99), "ms"),
        ]
    lines.append(("max_rps", max(passing) if passing else 0, f"req/s (p99 <= {LATENCY_LIMIT_S * 1000:g} ms, no growing backlog)"))
    lines.append(("stranding_probe_failed", probe.failed, f"count of {len(probe.outcomes)}"))
    lines.append(("checked_against_in_process_predict", checked, "count"))
    notes = probe_notes(probe)
    if wrong:
        notes.append(f"{wrong} answers carried the wrong payload")
    if mismatches:
        notes.append(f"{mismatches} served payloads differ from in-process predictions")
    lost = failed - probe.failed
    if lost:
        notes.append(f"{lost} open-loop requests got no answer within {DEADLINE_S:g} s of being sent")
    return Outcome(metrics, attempted, failed, wrong == 0 and mismatches == 0, digest, lines, notes)


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "cold-sweep": cold_sweep,
    "warm-rerun": warm_rerun,
    "design-space": design_space,
    "serve-open-loop": serve_open_loop,
}
#: Runs on request but is not a workload of ``BENCHMARK.json``: on a
#: shared 2-CPU host the median of its ~1.8 s reruns, mostly ``import
#: repro``, moved by more than its 25% bound between sets of runs.
UNGATED = ("warm-rerun",)


def render(name: str, ctx: Context, outcome: Outcome, host: Dict) -> List[str]:
    units = PER_LAYER_UNITS if ctx.trace else E2E_UNITS
    lines = [
        f"# {name} seed={ctx.seed} seconds={ctx.seconds:g} trace={int(ctx.trace)}",
        "# host " + " ".join(f"{key}={value}" for key, value in host.items()),
    ]
    for metric, value in outcome.metrics.items():
        lines.append(f"{metric:40s} {value:>14.6g} {units[metric]}")
    for metric, value, unit in outcome.report:
        shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else f"{value:>14}"
        lines.append(f"{metric:40s} {shown} {unit}")
    lines.append(f"{'result_digest':40s} {outcome.digest or '-'}")
    lines.append(f"{'ops':40s} {outcome.attempted} attempted, {outcome.failed} failed, correct={outcome.correct}")
    lines += [f"! {note}" for note in outcome.notes]
    return lines


def result_line(ctx: Context, outcome: Outcome) -> Dict:
    units = PER_LAYER_UNITS if ctx.trace else E2E_UNITS
    return {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics and math.isfinite(outcome.metrics[name])
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the MPPM reproduction.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    # Stopped from outside, a run still stops its children (Context.close).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = sorted(WORKLOADS) if options.workload == "all" else [options.workload]
    host = host_block()
    results = []
    for name in names:
        ctx = Context(options.seed, options.seconds, bool(options.trace))
        try:
            outcome = WORKLOADS[name](ctx)
        finally:
            ctx.close()
        print("\n".join(render(name, ctx, outcome, host)), flush=True)
        results.append((name, result_line(ctx, outcome)))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(result["correct"] for _, result in results),
            "attempted": sum(result["attempted"] for _, result in results),
            "failed": sum(result["failed"] for _, result in results),
            "metrics": {
                f"{name}/{metric}": value for name, result in results for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
