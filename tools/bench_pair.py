"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pair.py --parent REV --workload W [--workload W2 ...] \
        --pairs N --seconds S --out BENCH_<n>.json

Both sides are exported the same way, with ``git archive``, into a fresh
temporary directory: the parent from REV, the change from a tree written
from the working tree (tracked and untracked files, as ``.gitignore``
leaves them).  The tool then runs ``perfbench/run.py --trace 0`` in each
export, N pairs per workload, one seed per pair (``--seed``, ``--seed`` + 1,
...), the parent first in even pairs and the change first in odd ones.
After a workload's pairs it makes one ``--trace 1`` run per side, at the
first pair's seed, for the per-layer spans and work counts.

The output file holds, per workload and end-to-end metric: both sides'
medians and interquartile ranges, how many pairs read better, worse or
tied by the metric's direction in ``BENCHMARK.json``, whether the change's
median is worse than the parent's by more than the metric's bound, and
whether a gain holds (better in at least nine tenths of the pairs, with
the medians further apart than the parent's IQR).  It also keeps each
run's items attempted, failures and environment record, and under
``layers`` each side's per-layer metrics from its traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# (side, workload, seed, seconds, trace) -> run.py's last stdout line, parsed, plus
# "environment"
Runner = Callable[[str, str, int, int, int], dict]


def git(*args: str, env: dict | None = None) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env)
    return proc.stdout.strip()


def working_tree() -> str:
    """A tree object of the working tree, written through a scratch index so the
    repository's own index is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree_ish: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", tree_ish], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def perfbench_runner(dirs: dict[str, Path]) -> Runner:
    """Run ``perfbench/run.py`` in each side's export."""
    def run(side: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=dirs[side], capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = [line for line in lines if line.startswith("environment: ")]
        result["environment"] = json.loads(env[0].split(": ", 1)[1]) if env else None
        return result
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, IQRs, pair outcomes and the bound and gain checks.

    ``runs`` are the records of one workload, two per pair; ``metrics`` are
    ``BENCHMARK.json``'s ``end_to_end`` entries.
    """
    pairs = sorted({run["pair"] for run in runs})
    by = {(run["pair"], run["side"]): run for run in runs}
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [by[pair, side]["metrics"][name]["value"] for pair in pairs]
                  for side in ("parent", "change")}
        better = worse = 0
        for old, new in zip(values["parent"], values["change"]):
            if new != old:
                better += (new < old) == lower
                worse += (new < old) != lower
        (p1, parent, p3), (c1, change, c3) = (quartiles(values[side])
                                               for side in ("parent", "change"))
        ratio = (change - parent) / parent if parent else 0.0
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent_median": parent,
            "change_median": change,
            "parent_iqr": p3 - p1,
            "change_iqr": c3 - c1,
            "change_over_parent": ratio,
            "pairs_better": better,
            "pairs_worse": worse,
            "pairs_tied": len(pairs) - better - worse,
            "worse_beyond_bound": (ratio if lower else -ratio) > metric["bound"],
            "gain_holds": (10 * better >= 9 * len(pairs)
                           and abs(change - parent) > p3 - p1),
        }
    return out


def run_pairs(runner: Runner, workloads: list[str], pairs: int, seconds: int, seed: int,
              metrics: list[dict], log=print) -> dict:
    """Alternate the two sides' runs, then trace each side once; return the
    per-workload records, summaries and per-layer metrics."""
    result = {}
    for workload in workloads:
        runs = []
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record = runner(side, workload, seed + pair, seconds, 0)
                runs.append({"pair": pair, "side": side, "seed": seed + pair,
                             "first": side == order[0], **record})
                log(f"{workload} pair {pair} {side}: attempted {record['attempted']}, "
                    f"failed {record['failed']}, pass_s "
                    f"{record['metrics'].get('pass_s', {}).get('value')}")
        traced = {side: runner(side, workload, seed, seconds, 1) for side in ("parent", "change")}
        result[workload] = {
            "pairs": pairs,
            "attempted": {side: [run["attempted"] for run in runs if run["side"] == side]
                          for side in ("parent", "change")},
            "failed": {side: [run["failed"] for run in runs if run["side"] == side]
                       for side in ("parent", "change")},
            "all_correct": all(run["correct"] for run in runs + list(traced.values())),
            "metrics": summarize(runs, metrics),
            "runs": runs,
            "layers": {side: run["metrics"] for side, run in traced.items()},
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = git("rev-parse", args.parent)
    change = working_tree()
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(parent, dirs["parent"])
        export(change, dirs["change"])
        workloads = run_pairs(perfbench_runner(dirs), args.workload, args.pairs,
                              args.seconds, args.seed, benchmark["end_to_end"],
                              log=lambda line: print(line, file=sys.stderr))
    record = {
        "parent": parent,
        "change_tree": change,
        "change_base": git("rev-parse", "HEAD"),
        "procedure": {"pairs": args.pairs, "seconds": args.seconds, "first_seed": args.seed,
                      "export": "git archive of both sides", "order": "alternating"},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in workloads.items():
        for name, m in data["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"{m['unit']} (parent IQR {m['parent_iqr']:.3g}, better in "
                  f"{m['pairs_better']}/{data['pairs']}, beyond bound: "
                  f"{m['worse_beyond_bound']}, gain holds: {m['gain_holds']})")


if __name__ == "__main__":
    main()
