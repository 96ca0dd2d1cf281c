"""The service workload, ``service-mix``.

A *round* starts a fresh in-process :class:`repro.service.ReproService`
(two pool workers, the journal on with fsync, an empty profile cache
and result store), serves it over HTTP on a loopback port and drives it
with a closed loop of ``CLIENTS`` threads, each sending its next query
only when the previous one answered:

1. every distinct ``(trace, command, params)`` query of the script,
   once, in a seeded order — these are answered by computing
   (``X-Repro-Source: computed``); a fixed share of them use
   ``shards=2``;
2. every distinct query ``HIT_REPEATS`` more times, in a seeded order
   — these are answered from the result store.

The traces are small files that set-up writes: slices of Infocom05
below and above the 512-contact threshold of the ``auto`` engine, of
Reality Mining, and of Hong-Kong (many devices, few contacts).  Each
slice holds a fixed number of contacts, so the work of a round varies
little between seeds.  The service reads them from disk, so this
workload never runs the data-set generators inside a round.

Run as a script, this file is one set-up repetition (the child): it
writes the traces and computes the reference bytes of a seeded sample
of queries with the ``repro`` CLI.  The parent side is :func:`run`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

#: (label, data set, build scale, contacts per slice) of each trace kind.
TRACE_KINDS = (
    ("infocom-small", "infocom05", 0.08, 150),
    ("infocom-large", "infocom05", 0.15, 600),
    ("reality", "reality", 0.01, 500),
    ("hongkong", "hongkong", 0.4, 150),
)

#: Consecutive, disjoint slices cut from each built trace.
SLICES = 3

#: Closed-loop client threads and service pool workers.
CLIENTS = 2
POOL_WORKERS = 2

#: Store-hit repeats of every distinct query after its cold answer.
HIT_REPEATS = 2

#: Cold queries whose bytes set-up checks against the CLI.
REFERENCE_SAMPLE = 6

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3

#: Longest a client waits for one answer before it counts as failed.
QUERY_TIMEOUT_S = 30.0

#: Longest one set-up repetition may take.
SETUP_TIMEOUT_S = 30.0

Query = Tuple[str, str, Dict[str, int]]  # (trace label, command, params)


def workers() -> int:
    return min(POOL_WORKERS, len(os.sched_getaffinity(0)))


def clients() -> int:
    return min(CLIENTS, len(os.sched_getaffinity(0)))


def trace_labels() -> List[str]:
    return [f"{label}-{i}" for label, _, _, _ in TRACE_KINDS for i in range(SLICES)]


def cold_queries() -> List[Query]:
    """The distinct queries of one round, in a fixed order.

    Per trace: delay CDFs at four hop caps on a 12-point grid (one
    profile computation each) and at three of the caps again on a
    24-point grid (profiles reloaded from the service's profile cache),
    two diameters sharing one computation, and one ``shards=2`` delay
    CDF at a cap no unsharded query uses (the job key ignores
    ``shards``, so a shared cap would be a store hit).
    """
    queries: List[Query] = []
    for label in trace_labels():
        for hops in (2, 3, 4, 6):
            queries.append((label, "delay-cdf", {"max_hops": hops, "grid_points": 12}))
        for hops in (2, 4, 6):
            queries.append((label, "delay-cdf", {"max_hops": hops, "grid_points": 24}))
        queries.append((label, "diameter", {"max_hops": 8, "grid_points": 40}))
        queries.append((label, "diameter", {"max_hops": 8, "grid_points": 20}))
        queries.append((label, "delay-cdf", {"max_hops": 5, "grid_points": 12, "shards": 2}))
    return queries


def query_id(query: Query) -> str:
    label, command, params = query
    return f"{label}:{command}:" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def cli_argv(query: Query, trace_path: str) -> List[str]:
    """The ``repro`` CLI invocation the service answers ``query`` like."""
    _, command, params = query
    argv = [command, trace_path, "--max-hops", str(params["max_hops"]),
            "--grid-points", str(params["grid_points"])]
    if params.get("shards", 1) > 1:
        argv += ["--shards", str(params["shards"])]
    return argv


def reference_sample(seed: int) -> List[Query]:
    """A seeded sample of cold queries, at least one of them sharded."""
    rng = random.Random(seed)
    queries = cold_queries()
    sharded = [q for q in queries if q[2].get("shards", 1) > 1]
    rest = [q for q in queries if q[2].get("shards", 1) == 1]
    return [rng.choice(sharded)] + rng.sample(rest, REFERENCE_SAMPLE - 1)


# ----------------------------------------------------------------------
# Child: one set-up repetition.
# ----------------------------------------------------------------------


def child_main(spec: Dict[str, object]) -> Dict[str, object]:
    """Write the traces into ``spec["dir"]``; return their facts and the
    reference bytes (as SHA-256) of the sampled queries."""
    common.require_program()
    from repro.cli import main as cli_main
    from repro.core import TemporalNetwork
    from repro.traces import datasets
    from repro.traces.format import write_contacts

    seed = int(spec["seed"])
    out = Path(str(spec["dir"]))
    out.mkdir(parents=True, exist_ok=True)
    facts: Dict[str, Dict[str, object]] = {}
    for index, (label, name, scale, contacts) in enumerate(TRACE_KINDS):
        net = datasets.build(name, seed=seed * len(TRACE_KINDS) + index, scale=scale)
        if net.num_contacts < SLICES * contacts:
            raise RuntimeError(
                f"{label}: {net.num_contacts} contacts, need {SLICES * contacts}"
            )
        for i in range(SLICES):
            piece = TemporalNetwork(net.contacts[i * contacts:(i + 1) * contacts])
            path = out / f"{label}-{i}.txt"
            write_contacts(piece, path)
            facts[f"{label}-{i}"] = {
                "path": str(path),
                "contacts": piece.num_contacts,
                "nodes": len(piece),
                "engine": common.resolved_engine(piece),
            }
    references = {}
    for query in reference_sample(seed):
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli_main(cli_argv(query, str(facts[query[0]]["path"])))
        if code != 0:
            raise RuntimeError(f"reference run of {query_id(query)} exited {code}")
        references[query_id(query)] = hashlib.sha256(
            stdout.getvalue().encode("utf-8")
        ).hexdigest()
    return {"traces": facts, "references": references}


# ----------------------------------------------------------------------
# Parent: set-up, rounds and their checks.
# ----------------------------------------------------------------------


def _setup_once(seed: int, directory: Path) -> Dict[str, object]:
    """One set-up repetition: traces + references in a fresh
    interpreter, then one service start and drain."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         json.dumps({"seed": seed, "dir": str(directory), "slices": SLICES,
                     "sample": REFERENCE_SAMPLE})],
        capture_output=True, text=True, env=common.child_env(),
        timeout=SETUP_TIMEOUT_S, cwd=str(common.ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    service, server, _client = _start(directory / "probe")
    _stop(service, server)
    shutil.rmtree(directory / "probe", ignore_errors=True)
    return result


def _start(root: Path):
    from repro.service import ReproService, ServiceClient, ServiceConfig, serve_in_thread

    config = ServiceConfig(
        cache_dir=str(root / "cache"),
        journal_dir=str(root / "journal"),
        journal_fsync=True,
        workers=workers(),
        # Room for every query of a round, so the traced run can read
        # each one back from /debug/traces.
        trace_capacity=4 * len(cold_queries()) * (1 + HIT_REPEATS),
    )
    service = ReproService(config)
    server, _thread, url = serve_in_thread(service)
    return service, server, ServiceClient(url, timeout_s=QUERY_TIMEOUT_S)


def _stop(service, server) -> bool:
    server.shutdown()
    server.server_close()
    return service.close(drain=True, timeout_s=30.0)


class Answer:
    """One query as the client saw it."""

    __slots__ = ("query", "kind", "status", "source", "latency_s", "body",
                 "trace_id", "error")

    def __init__(self, query: Query, kind: str) -> None:
        self.query = query
        self.kind = kind  # "cold", "sharded" or "hit"
        self.status = 0
        self.source = ""
        self.latency_s = 0.0
        self.body = b""
        self.trace_id: Optional[str] = None
        self.error: Optional[str] = None


def _closed_loop(client, paths: Dict[str, str], script: List[Answer],
                 deadline: float) -> None:
    """Answer ``script`` with ``clients()`` closed-loop threads; no new
    query starts after ``deadline`` (those stay unanswered)."""
    from repro.service import ServiceUnreachable

    lock = threading.Lock()
    cursor = iter(script)

    def worker() -> None:
        while time.perf_counter() < deadline:
            with lock:
                answer = next(cursor, None)
            if answer is None:
                return
            label, command, params = answer.query
            begin = time.perf_counter()
            try:
                response = client.query(command, paths[label], **params)
            except (ServiceUnreachable, OSError) as exc:
                answer.error = f"{type(exc).__name__}: {exc}"
                answer.latency_s = time.perf_counter() - begin
                continue
            answer.latency_s = time.perf_counter() - begin
            answer.status = response.status
            answer.source = response.headers.get("X-Repro-Source", "")
            answer.body = response.body
            answer.trace_id = response.trace_id

    threads = [threading.Thread(target=worker, name=f"client-{i}") for i in range(clients())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _check(answers: List[Answer], references: Dict[str, str]) -> List[str]:
    """Every wrong answer; an empty list means all are correct."""
    problems = []
    computed: Dict[str, bytes] = {}
    for answer in answers:
        name = query_id(answer.query)
        expected_source = "store" if answer.kind == "hit" else "computed"
        if answer.error is not None:
            problems.append(f"{name} ({answer.kind}): {answer.error}")
        elif answer.status != 200:
            problems.append(f"{name} ({answer.kind}): HTTP {answer.status}")
        elif answer.source != expected_source:
            problems.append(f"{name} ({answer.kind}): source {answer.source!r}")
        elif not answer.body:
            problems.append(f"{name} ({answer.kind}): empty body")
        elif answer.kind == "hit":
            if answer.body != computed.get(name):
                problems.append(f"{name}: store hit differs from its computed answer")
        else:
            computed[name] = answer.body
            digest = hashlib.sha256(answer.body).hexdigest()
            if name in references and digest != references[name]:
                problems.append(f"{name}: bytes differ from the repro CLI's")
    return problems


def _round(seed: int, index: int, paths: Dict[str, str], references: Dict[str, str],
           round_dir: Path, traced: bool, deadline: float) -> Dict[str, object]:
    """One round against a fresh service; returns answers and checks."""
    from repro.obs import observed

    rng = random.Random(f"{seed}/{index}")
    cold = [Answer(q, "sharded" if q[2].get("shards", 1) > 1 else "cold")
            for q in cold_queries()]
    rng.shuffle(cold)
    hits = [Answer(a.query, "hit") for a in cold for _ in range(HIT_REPEATS)]
    rng.shuffle(hits)
    shm_before = common.shm_segments()
    ledger = None
    # Tracing on means a live metrics registry for the service and its
    # workers; the per-request spans are recorded either way.
    with observed(seed=seed) if traced else nullcontext():
        service, server, client = _start(round_dir)
        try:
            begin = time.perf_counter()
            _closed_loop(client, paths, cold, deadline)
            _closed_loop(client, paths, hits, deadline)
            wall_s = time.perf_counter() - begin
            peak_rss_mb = common.tree_peak_rss_mb()  # before the workers exit
            if traced:
                ledger = _service_ledger(client, cold + hits)
        finally:
            drained = _stop(service, server)
    if ledger is not None:
        ledger["cache.entry_bytes"] = float(
            common.tree_bytes(round_dir / "cache" / "profiles", "profiles-*.npz")
        )
    problems = _check(cold + hits, references)
    if not drained:
        problems.append("service did not drain")
    leaked_shm = common.shm_segments() - shm_before
    if leaked_shm:
        problems.append(f"shared memory left behind: {sorted(leaked_shm)}")
    if common.child_pids():
        problems.append(f"live child processes: {common.child_pids()}")
    leftovers = [f for f in common.leftover_files(round_dir) if "tmp" in Path(f).name]
    if leftovers:
        problems.append(f"temp files left behind: {leftovers}")
    return {"answers": cold + hits, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "problems": problems, "ledger": ledger}


# ----------------------------------------------------------------------
# The traced round's ledger.
# ----------------------------------------------------------------------


def _parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> {metric name: value summed over its labels}."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


#: Worker-side span name -> ledger layer (self times).
_WORKER_LAYER = {
    "traces.read_contacts": "traces.read_s",
    "optimal.compute_profiles": "optimal.compute_s",
    "engine.segment_table": "segments.build_s",
}

#: Layers whose self times partition a query's client latency.
_PARTITION = ("service.http_s", "service.admit_s", "service.queue_wait_s",
              "service.dispatch_s", "traces.read_s", "cache.load_s",
              "cache.save_s", "optimal.compute_s", "segments.build_s")


def _service_ledger(client, answers: List[Answer]) -> Dict[str, float]:
    """Per-layer times of one round, read back from the service.

    Each query's spans come from ``GET /debug/traces/<id>``; the round's
    counters and the timers that have no span come from ``GET
    /metrics``.  Times are summed over the round's queries.  Shard
    tasks run side by side, so a sharded query's worker-side times are
    scaled by the share of its tasks' summed time that its wall clock
    actually covered; the layers then partition each query's latency.
    """
    layers = {name: 0.0 for name in _PARTITION}
    layers.update({"service.worker_exec_s": 0.0, "service.finalize_s": 0.0,
                   "service.shard_tasks": 0.0})
    latency = 0.0
    for answer in answers:
        if answer.trace_id is None:
            continue
        response = client.trace(answer.trace_id)
        if response.status != 200:
            raise RuntimeError(f"trace {answer.trace_id}: HTTP {response.status}")
        spans = [r for r in map(json.loads, response.text().splitlines())
                 if r.get("kind") == "span"]
        latency += answer.latency_s
        by_name: Dict[str, List[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        admit = sum(s["wall_s"] for s in by_name.get("service.admit", []))
        execute = sum(s["wall_s"] for s in by_name.get("service.execute", []))
        layers["service.admit_s"] += admit
        layers["service.http_s"] += answer.latency_s - admit - execute
        attempts = by_name.get("service.pool.attempt", [])
        if not attempts:
            continue
        covered = common.interval_union(
            (a["start_unix"], a["start_unix"] + a["wall_s"]) for a in attempts
        )
        busy = sum(a["wall_s"] for a in attempts)
        share = covered / busy if busy else 1.0
        layers["service.queue_wait_s"] += execute - covered
        own = common.self_times(
            [s for s in spans if s.get("origin") == "worker"],
            id_key="span_id", parent_key="parent_span_id",
        )
        executing = by_name.get("worker.execute", [])
        layers["service.dispatch_s"] += share * (
            busy - sum(s["wall_s"] for s in executing)
        )
        layers["service.worker_exec_s"] += sum(s["wall_s"] for s in executing)
        for span in spans:
            if span.get("origin") != "worker":
                continue
            name = span["name"]
            if name == "cache.load_or_compute":
                hit = span["attrs"].get("outcome") == "hit"
                layers["cache.load_s" if hit else "cache.save_s"] += share * own[span["span_id"]]
            elif name in _WORKER_LAYER:
                layers[_WORKER_LAYER[name]] += share * own[span["span_id"]]
        shards = [a for a in attempts if "shard" in (a.get("attrs") or {})]
        layers["service.shard_tasks"] += len(shards)
        if shards:
            layers["service.finalize_s"] += sum(
                a["wall_s"] for a in attempts if "shard" not in (a.get("attrs") or {})
            )
    metrics = _parse_metrics(client.metrics_text())
    kernel = metrics.get("engine_cdf_kernel_wall_sum", 0.0)
    csr = metrics.get("engine_csr_build_s_wall_sum", 0.0)
    attributed = sum(layers[name] for name in _PARTITION) + kernel
    layers["delay_cdf.kernel_s"] = kernel
    layers["csr.compile_s"] = csr
    layers["optimal.compute_s"] = max(0.0, layers["optimal.compute_s"] - csr)
    layers["unattributed_s"] = latency - attributed
    layers["ledger_coverage"] = attributed / latency
    hits = metrics.get("service_store_hit", 0.0)
    misses = metrics.get("service_store_miss", 0.0)
    layers["service.store_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["journal.appends"] = metrics.get("service_journal_appended", 0.0)
    layers["cache.hits"] = metrics.get("profiles_cache_hit", 0.0)
    layers["cache.misses"] = metrics.get("profiles_cache_miss", 0.0)
    layers["segments.rows"] = metrics.get("engine_segments_collected", 0.0)
    for counter in ("spawns", "broadcast_bytes", "task_bytes"):
        layers[f"engine_pool.{counter}"] = metrics.get(f"engine_pool_{counter}", 0.0)
    return layers


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> Dict[str, object]:
    """Set up, then play rounds for ``seconds``; returns the report."""
    from repro.obs.log import configure

    # The service logs each sharded job at info level; keep stderr quiet.
    configure(level="warning")
    deadline = time.perf_counter() + common.RUN_BUDGET_S
    setup_times = []
    outcome = None
    for index in range(SETUP_REPEATS):
        directory = run_dir / f"setup-{index}"
        begin = time.perf_counter()
        result = _setup_once(seed, directory)
        setup_times.append(time.perf_counter() - begin)
        if outcome is not None and result["references"] != outcome["references"]:
            raise RuntimeError("set-up is not reproducible: reference bytes differ")
        if outcome is not None:
            shutil.rmtree(run_dir / f"setup-{index - 1}")
        outcome = result
    assert outcome is not None
    paths = {label: str(fact["path"]) for label, fact in outcome["traces"].items()}
    references = outcome["references"]

    walls: List[float] = []
    peaks: List[float] = []
    traced_walls: List[float] = []
    ledgers: List[Dict[str, float]] = []
    answers: List[Answer] = []
    problems: List[str] = []
    attempted = failed = 0
    begin = time.perf_counter()
    index = 0
    # A traced run alternates untraced and traced rounds (untraced first).
    while (index < (2 if trace else 1) or time.perf_counter() - begin < seconds) \
            and time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        round_dir = run_dir / f"round-{index}"
        result = _round(seed, index, paths, references, round_dir, traced, deadline)
        shutil.rmtree(round_dir, ignore_errors=True)
        round_answers = result["answers"]
        attempted += len(round_answers)
        # One problem per wrong answer, plus one per leak of the round.
        failed += min(len(round_answers), len(result["problems"]))
        problems.extend(f"round {index}: {p}" for p in result["problems"])
        if traced:
            traced_walls.append(result["wall_s"])
            ledgers.append(result["ledger"])
        else:
            walls.append(result["wall_s"])
            peaks.append(result["peak_rss_mb"])
            answers.extend(round_answers)
        index += 1
    elapsed = time.perf_counter() - begin

    def latencies(kind: str) -> List[float]:
        return [a.latency_s for a in answers if a.kind == kind and a.status == 200]

    details: Dict[str, object] = {
        "rounds": len(walls) + len(traced_walls),
        "round_walls_s": walls,
        "round_peak_rss_mb": peaks,
        "traced_round_walls_s": traced_walls,
        "setup_times_s": setup_times,
        "measured_s": elapsed,
        "queries_per_s": len(answers) / sum(walls) if walls else None,
    }
    for kind in ("cold", "sharded", "hit"):
        values = latencies(kind)
        details[f"{kind}_samples"] = len(values)
        if values:
            details[f"{kind}_p50_s"] = common.percentile(values, 50)
            details[f"{kind}_p90_s"] = common.percentile(values, 90)
    per_layer: Dict[str, float] = {}
    if ledgers:
        per_layer = {name: common.median([l[name] for l in ledgers]) for name in ledgers[0]}
        per_layer["trace_overhead_ratio"] = common.median(traced_walls) / common.median(walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "wall_s": common.median(walls),
            "setup_s": common.median(setup_times),
            "peak_rss_mb": common.median(peaks),
        },
        "per_layer": per_layer,
        "manifest": {
            "workers": workers(),
            "clients": clients(),
            "traces": {label: {"contacts": fact["contacts"], "nodes": fact["nodes"]}
                       for label, fact in outcome["traces"].items()},
            "engines": {label: fact["engine"] for label, fact in outcome["traces"].items()},
            "cold_queries": len(cold_queries()),
            "hit_repeats": HIT_REPEATS,
            "reference_sample": sorted(references),
        },
        "details": details,
    }


if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    # The parent's sizes, so a shrunken run sets up what it will query.
    SLICES, REFERENCE_SAMPLE = int(_spec["slices"]), int(_spec["sample"])
    common.emit(child_main(_spec))
