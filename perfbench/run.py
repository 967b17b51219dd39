"""racbox benchmark: time to a verified verdict on four exact-verification workloads.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The inputs are drawn from --seed; every verdict is checked against a value
derived from how its input was built.  The workload runs in fresh worker
interpreters, one after another, single-threaded and pinned to one CPU,
for --seconds in total.  Times are scaled to a reference host speed by
calibration chunks sampled through every pass (see speed.py).
With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 a separate traced run reports per-layer spans and work counts.
Full results and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REF_CHUNK_S, chunk_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"

WORKLOADS = ("equivalence-grid", "signaling-sweep", "strategy-search", "info-catalog")
# Fresh worker processes per run: each gives one cold pass, and counts must
# repeat across them.  Workloads with short passes get more, for more cold samples.
WORKERS = {"equivalence-grid": 2, "signaling-sweep": 2, "strategy-search": 3, "info-catalog": 4}
SETUP_IMPORTS = 6  # fresh interpreters timed for setup_s, shared out before the workers
SETUP_CALIBRATION_S = 0.05  # seconds of calibration chunks on each side of an import
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items above it

LAYERS = ("dists", "boxes", "boxio", "tables", "protocols", "wiring",
          "infotheory", "capacity", "search", "feasibility", "cli")
SPANS = (
    "boxes.make_rb", "boxes.make_bnd_box", "boxes.make_bn_box", "boxes.check_normalization",
    "boxes.check_no_signaling", "boxes.equal", "boxes.signature",
    "boxio.serialize_box", "boxio.parse_box",
    "protocols.resource_inequality_sim", "protocols.rac_via_box", "protocols.box_via_rb",
    "protocols.induced_bbox", "protocols.channel_joint", "protocols.rac_win_probability",
    "protocols.run_box_protocol",
    "dists.joint", "dists.total",
    "infotheory.mutual_information", "infotheory.check_lemma4",
    "capacity.verify", "capacity.build_capacity_joint", "capacity.strategy", "capacity.equal",
    "tables.serialize", "tables.parse",
    "search.search_rac_with_rbs", "search.verify_observation2", "search.evaluate_strategy",
    "search.strategy_from_parts", "search.tree_strategy",
    "wiring.compile_rac", "wiring.winning_probability", "wiring.winning_probability_oracle",
    "feasibility.case", "feasibility.guessing_feasibility",
    "cli.main",
)
COUNTS = {
    "boxes.rows_built": "count", "boxes.rows_checked": "count", "boxes.distinct_rows": "count",
    "boxio.bytes": "bytes", "protocols.induced_cells": "count", "dists.entries": "count",
    "infotheory.draws": "count", "capacity.joint_entries": "count",
    "search.classes_examined": "count", "search.pruned": "count",
    "search.world_queries": "count", "wiring.flip_patterns": "count", "cli.records": "count",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a child to completion (killed and reaped on timeout); returns stdout."""
    proc = subprocess.run(argv, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{argv[1]} exited with code {proc.returncode}")
    return proc.stdout


def check_source() -> None:
    if not (SRC / "racbox" / "__init__.py").is_file():
        fail(f"no racbox source under {SRC.relative_to(ROOT)}/; run from a repository checkout")
    out = run_child([sys.executable, "-c", "import racbox; print(racbox.__file__)"], 60)
    if Path(out.strip()).resolve().parent != (SRC / "racbox").resolve():
        fail(f"racbox resolved to {out.strip()}, not to this checkout")


def measure_setup(times: list[float], walls: list[float], count: int) -> None:
    """Time for a fresh interpreter to import racbox, `count` more times.

    `walls` gets the wall times and `times` the same scaled by calibration
    chunks run just before and after each import (the chunks cannot run
    inside the child, and running them beside it would take its CPU).
    """
    for _ in range(count):
        before = chunk_time(SETUP_CALIBRATION_S)
        start = perf_counter()
        run_child([sys.executable, "-c", "import racbox"], 60)
        walls.append(perf_counter() - start)
        mean = (before + chunk_time(SETUP_CALIBRATION_S)) / 2
        times.append(walls[-1] * REF_CHUNK_S / mean)


def environment(args) -> dict:
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pin_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU: the
    calibration chunks and the work they scale then share a core."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tail(values: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile (nearest rank) with >= TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def check_determinism(results: list[dict]) -> list[str]:
    """Same seed, fresh processes: verdict digests and work counts must repeat exactly."""
    problems = []
    digests = {d for r in results for d in r["digests"]}
    if len(digests) != 1:
        problems.append(f"verdict digests differ across passes: {sorted(digests)}")
    work = [(t["calls"], t["counts"]) for r in results for t in r["traced"]]
    if any(w != work[0] for w in work):
        problems.append("work counts differ across traced passes with the same seed")
    return problems


def end_to_end(results: list[dict], setup: list[float], setup_walls: list[float], failed: int,
               attempted: int) -> tuple[dict, dict]:
    """End-to-end metrics: medians over passes, and over each item's warm samples."""
    items = results[0]["items"]
    warm = [statistics.median(ts) for ts in zip(*(times for r in results for times in r["item_s"]))]
    p, tail_value, beyond = tail(warm)
    passes = [t for r in results for t in r["pass_s"]]
    firsts = [r["first_pass_s"] for r in results]
    metrics = {
        "pass_s": (statistics.median(passes), "s"),
        "first_pass_s": (statistics.median(firsts), "s"),
        "item_p50_ms": (statistics.median(warm) * 1000, "ms"),
        "item_tail_ms": (tail_value * 1000, "ms"),
        "reference_item_s": (warm[items.index(results[0]["reference"])], "s"),
        "verified_share": (1 - failed / attempted, "share"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "failed_share": failed / attempted,
        "item_tail": {"percentile": p, "items": len(items), "items_beyond": beyond},
        "reference_item": results[0]["reference"],
        "warm_samples_per_item": len(passes),
        "pass_samples_s": passes,
        "first_pass_samples_s": firsts,
        "setup_samples_s": setup,
        "wall_pass_samples_s": [t for r in results for t in r["wall_pass_s"]],
        "pass_scales": [t for r in results for t in r["pass_scale"]],
        "wall_first_pass_samples_s": [r["wall_first_pass_s"] for r in results],
        "first_pass_scales": [r["first_pass_scale"] for r in results],
        "wall_setup_samples_s": setup_walls,
    }
    return metrics, detail


def per_layer(results: list[dict], failures: list) -> dict:
    traced = [t for r in results for t in r["traced"]]
    first = traced[0]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.busy_s"] = (statistics.median(t["busy"].get(name, 0.0) for t in traced), "s")
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = (statistics.median(t["self"].get(layer, 0.0) for t in traced), "s")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (sum(1 for _, at, _ in failures if at == layer), "count")
    for name, unit in COUNTS.items():
        metrics[name] = (first["counts"].get(name, 0), unit)
    checked = first["counts"].get("boxes.rows_checked", 0)
    distinct = first["counts"].get("boxes.distinct_rows", 0)
    metrics["boxes.row_sharing"] = (distinct / checked if checked else 0.0, "ratio")
    untraced = statistics.median(t for r in results for t in r["pass_s"] + [r["first_pass_s"]])
    metrics["trace.overhead_s"] = (
        statistics.median(t for r in results for t in r["traced_pass_s"]) - untraced, "s")
    return metrics


def layer_table(results: list[dict], failures: list) -> str:
    traced = [t for r in results for t in r["traced"]]
    lines = [f"{'layer':<12} {'busy_s':>10} {'self_s':>10} {'calls':>8} {'failed':>6}"]
    for layer in LAYERS + ("bench",):
        # the benchmark's item spans nest in its pass span, so its busy time is the pass
        prefix = "bench.pass" if layer == "bench" else layer + "."
        busy = statistics.median(
            sum(v for k, v in t["busy"].items() if k.startswith(prefix)) for t in traced)
        calls = sum(v for k, v in traced[0]["calls"].items() if k.startswith(layer + "."))
        self_s = statistics.median(t["self"].get(layer, 0.0) for t in traced)
        failed = sum(1 for _, at, _ in failures if at == layer)
        lines.append(f"{layer:<12} {busy:>10.4f} {self_s:>10.4f} {calls:>8d} {failed:>6d}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    cpu = pin_cpu()
    env = environment(args)
    env["pinned_cpu"] = cpu
    check_source()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = RESULTS / f"{stem}.tmp"
    tmp.mkdir(exist_ok=True)

    setup: list[float] = []
    setup_walls: list[float] = []
    results = []
    workers = WORKERS[args.workload]
    deadline = perf_counter() + args.seconds
    for index in range(workers):
        if not args.trace:  # spread the imports over the run, between workers
            measure_setup(setup, setup_walls, SETUP_IMPORTS * (index + 1) // workers
                          - SETUP_IMPORTS * index // workers)
        # the imports count against --seconds; the workers share what is left
        seconds = max(deadline - perf_counter(), 0.0) / (workers - index)
        settings = {
            "workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": bool(args.trace), "tmp": str(tmp),
            "spans_path": str(RESULTS / f"{stem}-worker{index}.spans.jsonl"),
        }
        out = run_child([sys.executable, str(BENCH / "worker.py"), json.dumps(settings)],
                        seconds + 90)
        results.append(json.loads(out.splitlines()[-1]))
    env["numpy"] = results[0]["numpy"]

    failures = [tuple(f) for r in results for f in r["failures"]]
    problems = check_determinism(results)
    attempted = sum(r["attempted"] for r in results)
    failed = min(sum(r["failed_items"] for r in results) + len(problems), attempted)
    print("environment: " + json.dumps(env))
    for item, layer, what in failures[:20]:
        print(f"FAILED {item} [{layer}]: {what}")
    for problem in problems:
        print(f"FAILED determinism: {problem}")

    record = {"environment": env, "attempted": attempted, "failed": failed,
              "failures": failures, "determinism_problems": problems}
    if args.trace:
        metrics = per_layer(results, failures)
        print(f"per-layer spans, {args.workload} (median over traced passes):")
        print(layer_table(results, failures))
    else:
        metrics, detail = end_to_end(results, setup, setup_walls, failed, attempted)
        record["detail"] = detail
        tail_info = detail["item_tail"]
        print(f"item_tail_ms is p{tail_info['percentile']} of {tail_info['items']} items "
              f"({tail_info['items_beyond']} beyond), each the median of "
              f"{detail['warm_samples_per_item']} warm samples; failed_share={detail['failed_share']}")
        print(f"wall times: pass {statistics.median(detail['wall_pass_samples_s']):.4f} s, "
              f"setup {statistics.median(setup_walls):.4f} s; "
              f"calibration scale median {statistics.median(detail['pass_scales']):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
