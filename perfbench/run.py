"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``fig9-cold`` / ``fig9-warm`` — Figure 9 replayed through the public
  library calls against an empty / a pre-filled profile cache;
* ``service-mix`` — a closed-loop query stream against an in-process
  ``repro.service`` over HTTP.

Standard output carries three JSON lines: the run manifest, the
detailed report (every per-input sample, the service's latency
classes, the error rate, any problem found), and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, measured without tracing; ``--trace 1``
reports the per-layer ledger of a traced run instead.

The program is imported from ``src/`` of the checkout the script sits
in; without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

import common

WORKLOADS = ("fig9-cold", "fig9-warm", "service-mix")

#: End-to-end metrics -> unit.  Every workload reports all of them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics -> unit.  A layer a workload does not exercise
#: reports 0 there.
PER_LAYER = {
    "traces.build_s": "s",
    "traces.read_s": "s",
    "csr.compile_s": "s",
    "optimal.compute_s": "s",
    "optimal.profile_points": "count",
    "engine_pool.spawns": "count",
    "engine_pool.broadcast_bytes": "bytes",
    "engine_pool.task_bytes": "bytes",
    "cache.key_s": "s",
    "cache.save_s": "s",
    "cache.load_s": "s",
    "cache.entry_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "segments.build_s": "s",
    "segments.rows": "count",
    "delay_cdf.kernel_s": "s",
    "format.rows_s": "s",
    "service.http_s": "s",
    "service.admit_s": "s",
    "service.queue_wait_s": "s",
    "service.dispatch_s": "s",
    "service.worker_exec_s": "s",
    "service.finalize_s": "s",
    "service.shard_tasks": "count",
    "service.store_hit_ratio": "ratio",
    "journal.appends": "count",
    "unattributed_s": "s",
    "ledger_coverage": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: ROADMAP target: layer self times cover this share of a traced
#: Figure 9 run's wall time.
COVERAGE_TARGET = 0.95


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(report: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The contract's last line: every metric of the run's kind, by name."""
    if trace:
        measured = dict(report["per_layer"])
        unknown = sorted(set(measured) - set(PER_LAYER))
        if unknown:
            raise KeyError(f"workload reported unknown layers: {unknown}")
        metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        measured = dict(report["end_to_end"])
        missing = sorted(name for name in END_TO_END if measured.get(name) is None)
        if missing:
            raise RuntimeError(f"no successful sample of {', '.join(missing)}")
        metrics = {name: {"value": float(measured[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = int(report["failed"])
    return {
        "correct": failed == 0,
        "attempted": int(report["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run ``workload`` in a scratch directory; returns the report."""
    if workload == "service-mix":
        import service as module
    else:
        import fig9 as module
    with common.run_directory() as run_dir:
        report = module.run(workload, seed, seconds, trace, run_dir)
        leftovers = common.leftover_files(run_dir / "tmp")
        if leftovers:
            report["failed"] += 1
            report["problems"].append(f"temp files left behind: {leftovers}")
    report["details"]["error_rate"] = report["failed"] / report["attempted"]
    coverage = report["per_layer"].get("ledger_coverage")
    flags = []
    if workload.startswith("fig9") and coverage is not None and coverage < COVERAGE_TARGET:
        flags.append(f"ledger covers {coverage:.1%} of wall, below {COVERAGE_TARGET:.0%}")
    report["flags"] = flags
    report["manifest"] = common.manifest(seed, workload, **report["manifest"])
    return report


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
        result = result_line(report, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in report["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for flag in report["flags"]:
        print(f"perfbench: flag: {flag}", file=sys.stderr)
    common.emit({"manifest": report["manifest"]})
    common.emit({key: report[key] for key in
                 ("end_to_end", "per_layer", "details", "flags", "problems")})
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
