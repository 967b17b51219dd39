"""One benchmark worker: a fresh interpreter that times passes over a workload.

Usage: python3 worker.py '<json settings>'; prints one JSON result line.
run.py starts it with racbox's source on PYTHONPATH and numpy's thread
pools at one thread.  The first pass runs while racbox's caches are cold;
later passes are warm.  Traced passes (settings "trace") alternate with
untraced ones, the cold pass first among them, so the tracing overhead is
measured in the same process.  Calibration chunks are sampled through
every pass (speed.py); every time reported is work time at reference host
speed, and the wall times and scale factors are reported beside it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
from time import perf_counter

import numpy

import layers
import workloads
from speed import Sampler
from tracing import Checks, Recorder, layer_times


def run_pass(workload, api, ck: Checks, rec: Recorder | None, sampler: Sampler):
    """Time one pass; returns (wall seconds, item seconds, observations digest).

    The wall seconds leave out the calibration chunks; the item seconds are
    work seconds at reference host speed.
    """
    item_spans = []
    failures_before = len(ck.failures)
    digest = hashlib.sha256()
    gc.collect()
    with sampler.running():
        start = perf_counter()
        for item in workload.items:
            ck.item = item.id
            if rec is not None:
                rec.item = item.id
            t0 = perf_counter()
            try:
                if rec is None:
                    observation = item.run(api, ck)
                else:
                    with rec.span("bench.item"):
                        observation = item.run(api, ck)
            except Exception as exc:  # a crash is one failed item, not a failed run
                ck.unexpected(exc)
                observation = ("raised", type(exc).__name__)
            item_spans.append((t0, perf_counter()))
            if len(ck.failures) > failures_before:
                ck.failed_items += 1
                failures_before = len(ck.failures)
            digest.update(repr((item.id, observation)).encode())
        end = perf_counter()
    wall = end - start - sampler.spent(start, end)
    return wall, [sampler.seconds(t0, t1) for t0, t1 in item_spans], digest.hexdigest()


def main() -> None:
    settings = json.loads(sys.argv[1])
    workload = workloads.build(settings["workload"], settings["seed"], settings["tmp"])
    plain = layers.make_api(None)
    rec = Recorder()
    traced = layers.make_api(rec)
    ck = Checks()

    sampler = Sampler()
    deadline = perf_counter() + settings["seconds"]
    first_wall, first_items, first_digest = run_pass(workload, plain, ck, None, sampler)
    passes, item_times, digests, walls = [], [], {first_digest}, []
    traced_passes, traced_summaries = [], []
    attempted = len(workload.items)
    while True:
        began = perf_counter()
        if settings["trace"] and len(traced_passes) <= len(passes):
            rec.counts.clear()
            rec.item = ""
            span_start = len(rec.spans)
            with rec.span("bench.pass"):
                _, times, digest = run_pass(workload, traced, ck, rec, sampler)
            busy, calls, self_s = layer_times(rec.spans, span_start, sampler.seconds)
            traced_passes.append(sum(times))
            traced_summaries.append({"busy": busy, "calls": calls, "self": self_s,
                                     "counts": dict(rec.counts)})
        else:
            wall, times, digest = run_pass(workload, plain, ck, None, sampler)
            passes.append(sum(times))
            item_times.append(times)
            walls.append(wall)
        digests.add(digest)
        attempted += len(workload.items)
        measured = traced_passes if settings["trace"] else passes
        if measured and perf_counter() + (perf_counter() - began) / 2 > deadline:
            break

    if settings["trace"]:
        with open(settings["spans_path"], "w") as fh:
            for span in rec.spans:
                name, start, end, parent, item, raised = span
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "item": item, "raised": raised}) + "\n")
    print(json.dumps({
        "items": [item.id for item in workload.items],
        "reference": workload.reference,
        "first_pass_s": sum(first_items),
        "first_item_s": first_items,
        "pass_s": passes,
        "item_s": item_times,
        "wall_first_pass_s": first_wall,
        "first_pass_scale": sum(first_items) / first_wall,
        "wall_pass_s": walls,
        "pass_scale": [t / w for t, w in zip(passes, walls)],
        "traced_pass_s": traced_passes,
        "traced": traced_summaries,
        "attempted": attempted,
        "failures": ck.failures,
        "failed_items": ck.failed_items,
        "digests": sorted(digests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
