"""The Figure 9 batch workloads, ``fig9-cold`` and ``fig9-warm``.

One *iteration* replays Figure 9 through the public library calls in a
fresh interpreter: build the three traces, ``load_or_compute`` their
profiles at the figure hop bounds, then ``success_curves``,
``diameter`` and the rendered CDF rows.  A fresh interpreter per
iteration keeps every in-process cache (compiled CSR networks, the
engine pool and its shared-memory broadcasts) cold, as for a
researcher who regenerates the figure; the only state an iteration
inherits is the profile cache directory it is given:

* ``fig9-cold`` gives each iteration a new, empty directory (misses:
  CSR compile, DP, cache writes);
* ``fig9-warm`` gives every iteration the directory set-up filled
  (hits: cache reads only, no DP).

A run measures ``INPUTS`` input sets, each the three traces built from
a seed derived from the run's seed.  Set-up computes every input set's
Figure 9 once, in one interpreter; those are the references every
timed iteration must reproduce byte for byte (and, for ``fig9-warm``,
they fill its cache).  The timed loop then cycles over the input sets.

Run as a script (``fig9.py iteration|setup <json>``), this file is the
child side; the parent side is :func:`run`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import common

NAMES = ("infocom05", "reality", "hongkong")

#: The figure's hop bounds and per-data-set scale multipliers, pinned
#: here so the workload cannot drift when the figure scripts change.
HOP_BOUNDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
DATASET_SCALE = {"infocom05": 1.0, "reality": 0.15, "hongkong": 8.0}

#: The paper's diameters are 4-6.  At the benchmark's reduced scale the
#: traces are sparser and measure 5-9 hops over seeds 1-20; a diameter
#: outside this range, or beyond the recorded hop bounds, is a wrong
#: answer.
DIAMETER_RANGE = (2, 10)

#: Base trace scale (the figure scripts default to 0.15; see
#: perfbench/README.md for why the benchmark runs smaller traces).
SCALE = 0.05

#: Input sets per run (each is also one set-up repetition).
INPUTS = 5

#: Longest one iteration may take before it counts as failed.
ITERATION_TIMEOUT_S = 60.0


def workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def input_seed(seed: int, index: int) -> int:
    """The trace seed of input set ``index`` of a run seeded ``seed``."""
    return seed * INPUTS + index


# ----------------------------------------------------------------------
# Child: one Figure 9 iteration.
# ----------------------------------------------------------------------


def _internal(net) -> list:
    return [n for n in net.nodes if not (isinstance(n, str) and n.startswith("ext"))]


def _cdf_rows(grid, curves) -> str:
    """The figure's CDF table (one column per hop bound) at tick delays."""
    import numpy as np

    from repro.analysis.grids import DAY, HOUR, MINUTE, WEEK, format_duration
    from repro.analysis.tables import render_series

    ticks = [t for t in (2 * MINUTE, 10 * MINUTE, HOUR, 3 * HOUR, 6 * HOUR,
                         DAY, 2 * DAY, WEEK) if grid[0] <= t <= grid[-1]]
    indices = [int(np.argmin(np.abs(grid - t))) for t in ticks]
    columns = {}
    for bound in sorted(curves, key=lambda k: (k is None, k)):
        label = "inf" if bound is None else str(bound)
        columns[f"k={label}"] = [f"{curves[bound].values[i]:.4f}" for i in indices]
    return render_series("delay", [format_duration(grid[i]) for i in indices], columns)


def _pipeline(spec: Dict[str, object], span) -> Dict[str, tuple]:
    """One Figure 9 run; ``span`` opens the benchmark's own spans.

    Without a cache directory the profiles are computed directly, which
    is how set-up makes its references.
    """
    from repro.analysis.grids import MINUTE, WEEK, paper_delay_grid
    from repro.core import compute_profiles, load_or_compute
    from repro.core.diameter import diameter, success_curves
    from repro.traces import datasets

    seed = int(spec["seed"])
    scale = float(spec["scale"])
    panels = {}
    with span("bench.fig9"):
        for name in NAMES:
            with span("bench.panel", dataset=name):
                with span("bench.traces.build"):
                    net = datasets.build(
                        name, seed=seed,
                        scale=min(1.0, scale * DATASET_SCALE[name]),
                    )
                internal = _internal(net)
                pairs = [(s, d) for s in internal for d in internal if s != d]
                with span("bench.load_or_compute"):
                    if spec["cache_dir"] is None:
                        profiles = compute_profiles(
                            net, hop_bounds=HOP_BOUNDS, sources=internal,
                            workers=int(spec["workers"]),
                        )
                    else:
                        profiles = load_or_compute(
                            net, str(spec["cache_dir"]), hop_bounds=HOP_BOUNDS,
                            sources=internal, workers=int(spec["workers"]),
                        )
                grid = paper_delay_grid(
                    points=40, t_min=2 * MINUTE,
                    t_max=min(WEEK, max(net.duration, 10 * MINUTE)),
                )
                with span("bench.success_curves"):
                    curves = success_curves(
                        profiles, grid, hop_bounds=HOP_BOUNDS, pairs=pairs
                    )
                with span("bench.diameter"):
                    result = diameter(
                        profiles, grid, eps=0.01, hop_bounds=HOP_BOUNDS,
                        pairs=pairs, curves=curves,
                    )
                with span("bench.render_rows"):
                    rows = _cdf_rows(grid, curves)
            panels[name] = (net, profiles, result.value, rows)
    return panels


def _profile_points(profiles) -> int:
    """(LD, EA) points over every pair and bound, via the public API."""
    total = 0
    for source in profiles.sources:
        sp = profiles.source_profiles(source)
        for destination in sp.destinations():
            for bound in profiles.hop_bounds + (None,):
                total += len(sp.profile(destination, bound).lds)
    return total


def _entry_bytes(panels: Dict[str, tuple], cache_dir: str) -> int:
    """On-disk size of the three profile cache entries the run used."""
    from repro.core import cache_path, profile_cache_key

    total = 0
    for net, _, _, _ in panels.values():
        key = profile_cache_key(net, hop_bounds=HOP_BOUNDS, sources=_internal(net))
        total += cache_path(cache_dir, key).stat().st_size
    return total


#: Span name (benchmark's own or the program's) -> ledger layer.  The
#: cache, DP and CSR layers are split out in :func:`_ledger`.
_LAYER_OF = {
    "bench.traces.build": "traces.build_s",
    "traces.build": "traces.build_s",
    "bench.load_or_compute": "cache.key_s",
    "engine.segment_table": "segments.build_s",
    "bench.success_curves": "delay_cdf.kernel_s",
    "bench.diameter": "delay_cdf.kernel_s",
    "bench.render_rows": "format.rows_s",
}


def _ledger(records, metrics: Dict[str, dict], wall_s: float) -> Dict[str, float]:
    """Per-layer self times and counts of one traced iteration.

    Self times partition the run: every span's own time lands in exactly
    one layer, or in ``unattributed_s`` when no layer claims its name.
    The CSR compile has no span of its own (a timer inside the DP span),
    so its time moves from the DP layer to ``csr.compile_s``.
    """
    own = common.self_times(records)
    counters = metrics["counters"]
    timers = metrics["timers"]
    csr_s = float((timers.get("engine.csr.build_s") or {}).get("wall_sum") or 0.0)
    layers = {
        "traces.build_s": 0.0, "cache.key_s": 0.0, "cache.save_s": 0.0,
        "cache.load_s": 0.0, "csr.compile_s": csr_s, "optimal.compute_s": -csr_s,
        "segments.build_s": 0.0, "delay_cdf.kernel_s": 0.0, "format.rows_s": 0.0,
    }
    for record in records:
        name = record["name"]
        if name == "cache.load_or_compute":
            outcome = record["attrs"].get("outcome")
            layers["cache.load_s" if outcome == "hit" else "cache.save_s"] += own[record["id"]]
        elif name == "optimal.compute_profiles":
            layers["optimal.compute_s"] += own[record["id"]]
        elif name in _LAYER_OF:
            layers[_LAYER_OF[name]] += own[record["id"]]
    # A run without a DP leaves -0.0 behind; report a clean zero.
    layers["optimal.compute_s"] = max(0.0, layers["optimal.compute_s"])
    attributed = sum(layers.values())
    layers["unattributed_s"] = wall_s - attributed
    layers["ledger_coverage"] = attributed / wall_s
    layers["cache.hits"] = float(counters.get("profiles.cache.hit", 0))
    layers["cache.misses"] = float(counters.get("profiles.cache.miss", 0))
    layers["segments.rows"] = float(counters.get("engine.segments_collected", 0))
    for counter in ("spawns", "broadcast_bytes", "task_bytes"):
        layers[f"engine_pool.{counter}"] = float(
            counters.get(f"engine.pool.{counter}", 0)
        )
    return layers


def _outputs(panels: Dict[str, tuple]) -> Dict[str, object]:
    """What a Figure 9 run must reproduce, and facts for the manifest."""
    from repro.core import profiles_digest

    return {
        "digests": {n: profiles_digest(p[1]) for n, p in panels.items()},
        "diameters": {n: p[2] for n, p in panels.items()},
        "rows": {n: p[3] for n, p in panels.items()},
        "engines": {n: common.resolved_engine(p[0]) for n, p in panels.items()},
        "contacts": {n: p[0].num_contacts for n, p in panels.items()},
    }


def setup_main(spec: Dict[str, object]) -> Dict[str, object]:
    """Set-up: the reference outputs of every input set, each timed.

    The references come from ``compute_profiles`` in this interpreter,
    not through the cache and the engine pool the timed runs use, so a
    cache or pool that changed an answer is caught.  ``fig9-warm``
    set-up goes through the cache instead, to fill it.
    """
    common.require_program()
    references = []
    for seed in spec["seeds"]:
        begin = time.perf_counter()
        panels = _pipeline({**spec, "seed": seed}, _no_span)
        outputs = _outputs(panels)
        outputs["setup_s"] = time.perf_counter() - begin
        references.append(outputs)
    return {"references": references}


def _no_span(name: str, **attrs: object):
    return nullcontext()


def child_main(spec: Dict[str, object]) -> Dict[str, object]:
    """One iteration; returns its wall time, outputs and clean-up state."""
    import multiprocessing

    common.require_program()
    from repro.core import close_pools
    from repro.obs import observed

    shm_before = common.shm_segments()
    traced = bool(spec.get("trace"))
    ledger: Optional[Dict[str, float]] = None
    if traced:
        with observed(seed=int(spec["seed"])) as run:
            begin = time.perf_counter()
            panels = _pipeline(spec, run.tracer.span)
            wall_s = time.perf_counter() - begin
        ledger = _ledger(run.tracer.records, run.metrics.to_dict(), wall_s)
    else:
        begin = time.perf_counter()
        panels = _pipeline(spec, _no_span)
        wall_s = time.perf_counter() - begin
    peak_rss_mb = common.tree_peak_rss_mb()  # before the pool workers exit
    close_pools()
    leaks = []
    leaked_shm = common.shm_segments() - shm_before
    if leaked_shm:
        leaks.append(f"shared memory left behind: {sorted(leaked_shm)}")
    if multiprocessing.active_children() or common.child_pids():
        leaks.append(f"live child processes: {common.child_pids()}")
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "leaks": leaks,
              **_outputs(panels)}
    if ledger is not None:
        ledger["optimal.profile_points"] = float(
            sum(_profile_points(p[1]) for p in panels.values())
        )
        ledger["cache.entry_bytes"] = float(_entry_bytes(panels, str(spec["cache_dir"])))
        result["ledger"] = ledger
    return result


# ----------------------------------------------------------------------
# Parent: set-up, the timed loop and the correctness checks.
# ----------------------------------------------------------------------


def _iterate(spec: Dict[str, object], timeout_s: float,
             mode: str = "iteration") -> Dict[str, object]:
    """Run this file's ``mode`` in a fresh interpreter; returns its result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), mode, json.dumps(spec)],
        capture_output=True, text=True, env=common.child_env(),
        timeout=max(1.0, timeout_s), cwd=str(common.ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: Dict[str, object], reference: Dict[str, object]) -> List[str]:
    """Every way ``result`` differs from the set-up reference or from
    the paper's shape; an empty list means correct."""
    problems = []
    for name in NAMES:
        if result["digests"].get(name) != reference["digests"][name]:
            problems.append(f"{name}: profiles_digest differs from set-up")
        if result["rows"].get(name) != reference["rows"][name]:
            problems.append(f"{name}: CDF rows differ from set-up")
        value = result["diameters"].get(name)
        if value is None or not DIAMETER_RANGE[0] <= value <= DIAMETER_RANGE[1]:
            problems.append(f"{name}: diameter {value} outside {DIAMETER_RANGE}")
    problems.extend(result.get("leaks", []))
    return problems


def _cycle(trace: bool) -> List[tuple]:
    """(input index, traced) pairs of one pass over the input sets.

    A traced run follows each untraced iteration with a traced one on
    the same input, so the tracing cost is measured against the same
    run's own baseline.
    """
    return [(index, traced) for index in range(INPUTS)
            for traced in ((False, True) if trace else (False,))]


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> Dict[str, object]:
    """Set up, then replay Figure 9 for ``seconds``; returns the report."""
    deadline = time.perf_counter() + common.RUN_BUDGET_S
    warm = workload == "fig9-warm"
    base = {"scale": SCALE, "workers": workers()}
    seeds = [input_seed(seed, i) for i in range(INPUTS)]

    warm_cache = run_dir / "warm-cache"
    references = _iterate({
        "scale": SCALE, "workers": 1, "seeds": seeds,
        "cache_dir": str(warm_cache) if warm else None,
    }, timeout_s=ITERATION_TIMEOUT_S * 2, mode="setup")["references"]
    setup_times = [r["setup_s"] for r in references]
    for input_, reference in zip(seeds, references):
        problems = check(reference, reference)
        if problems:
            raise RuntimeError(f"set-up of input {input_} failed: " + "; ".join(problems))

    walls: Dict[int, List[float]] = {i: [] for i in range(INPUTS)}
    peaks: Dict[int, List[float]] = {i: [] for i in range(INPUTS)}
    traced_walls: Dict[int, List[float]] = {i: [] for i in range(INPUTS)}
    ledgers: Dict[str, Dict[int, List[float]]] = {}
    attempted = failed = 0
    problems_seen: List[str] = []
    begin = time.perf_counter()
    # Whole passes over the input sets, so each set weighs the same;
    # the first pass always runs.
    while attempted == 0 or time.perf_counter() - begin < min(seconds, deadline - begin):
        for index, traced in _cycle(trace):
            if time.perf_counter() > deadline:
                break
            cache_dir = warm_cache if warm else run_dir / f"cold-{attempted}"
            spec = {**base, "seed": seeds[index], "cache_dir": str(cache_dir),
                    "trace": traced}
            attempted += 1
            try:
                result = _iterate(spec, min(ITERATION_TIMEOUT_S,
                                            deadline - time.perf_counter()))
                problems = check(result, references[index])
                leftovers = [f for f in common.leftover_files(cache_dir) if "tmp-" in f]
                if leftovers:
                    problems.append(f"temp files left in the cache: {leftovers}")
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                problems = [str(exc)]
            finally:
                if not warm:
                    shutil.rmtree(cache_dir, ignore_errors=True)
            if problems:
                failed += 1
                problems_seen.extend(f"iteration {attempted} (input {seeds[index]}): {p}"
                                     for p in problems)
            elif traced:
                traced_walls[index].append(result["wall_s"])
                for name, value in result["ledger"].items():
                    ledgers.setdefault(name, {i: [] for i in range(INPUTS)})[index].append(value)
            else:
                walls[index].append(result["wall_s"])
                peaks[index].append(result["peak_rss_mb"])
    elapsed = time.perf_counter() - begin

    per_layer: Dict[str, float] = {}
    if trace and any(traced_walls.values()):
        per_layer = {name: common.mean_of_medians(v) for name, v in ledgers.items()}
        per_layer["trace_overhead_ratio"] = (
            common.mean_of_medians(traced_walls) / common.mean_of_medians(walls)
        )
    engines = {f"{seeds[i]}": r["engines"] for i, r in enumerate(references)}
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen,
        "end_to_end": {
            "wall_s": common.mean_of_medians(walls) if any(walls.values()) else None,
            "setup_s": common.median(setup_times),
            "peak_rss_mb": common.mean_of_medians(peaks) if any(peaks.values()) else None,
        },
        "per_layer": per_layer,
        "manifest": {
            "scale": SCALE,
            "dataset_scale": DATASET_SCALE,
            "workers": base["workers"],
            "input_seeds": seeds,
            "engines": engines,
            "contacts": {f"{seeds[i]}": r["contacts"] for i, r in enumerate(references)},
        },
        "details": {
            "walls_s": {f"{seeds[i]}": v for i, v in walls.items()},
            "traced_walls_s": {f"{seeds[i]}": v for i, v in traced_walls.items() if v},
            "setup_times_s": setup_times,
            "diameters": {f"{seeds[i]}": r["diameters"] for i, r in enumerate(references)},
            "measured_s": elapsed,
        },
    }


if __name__ == "__main__":
    _main = {"iteration": child_main, "setup": setup_main}[sys.argv[1]]
    common.emit(_main(json.loads(sys.argv[2])))
