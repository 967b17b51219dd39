"""The paired benchmark script, driven by a stub runner that returns known JSON."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

METRICS = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "verified_share", "unit": "share", "better": "higher", "bound": 0.001},
]
# pass_s per pair: the change is faster in four of five pairs and ties in none
PASS_S = {"parent": [1.0, 1.2, 1.1, 0.9, 1.0], "change": [0.8, 0.9, 1.15, 0.7, 0.85]}
SHARE = {"parent": [1.0] * 5, "change": [1.0, 1.0, 1.0, 1.0, 0.5]}
# a traced run reports per-layer metrics instead
BUSY = {"parent": 0.004, "change": 0.003}


def stub(calls):
    def run(side, workload, seed, seconds, trace):
        calls.append((side, workload, seed, seconds, trace))
        if trace:
            return {"correct": True, "attempted": 50, "failed": 0, "environment": {"seed": seed},
                    "metrics": {"boxes.check_no_signaling.busy_s": {"value": BUSY[side],
                                                                     "unit": "s"},
                                "boxes.check_no_signaling.calls": {"value": 12,
                                                                    "unit": "count"}}}
        pair = seed - 7
        return {"correct": SHARE[side][pair] == 1.0, "attempted": 100 + pair + (side == "change"),
                "failed": 0, "environment": {"seed": seed},
                "metrics": {"pass_s": {"value": PASS_S[side][pair], "unit": "s"},
                            "verified_share": {"value": SHARE[side][pair], "unit": "share"}}}
    return run


def test_pairs_alternate_and_share_a_seed():
    calls = []
    bench_pair.run_pairs(stub(calls), ["info-catalog"], 5, 3, 7, METRICS, log=lambda _: None)
    assert [(side, seed, trace) for side, _, seed, _, trace in calls] == [
        ("parent", 7, 0), ("change", 7, 0), ("change", 8, 0), ("parent", 8, 0),
        ("parent", 9, 0), ("change", 9, 0), ("change", 10, 0), ("parent", 10, 0),
        ("parent", 11, 0), ("change", 11, 0), ("parent", 7, 1), ("change", 7, 1)]
    assert {(workload, seconds) for _, workload, _, seconds, _ in calls} == {("info-catalog", 3)}


def test_each_side_keeps_its_traced_per_layer_metrics():
    data = bench_pair.run_pairs(stub([]), ["info-catalog"], 5, 3, 7, METRICS,
                                log=lambda _: None)["info-catalog"]
    layers = data["layers"]
    assert set(layers) == {"parent", "change"}
    for side in layers:
        assert layers[side] == {
            "boxes.check_no_signaling.busy_s": {"value": BUSY[side], "unit": "s"},
            "boxes.check_no_signaling.calls": {"value": 12, "unit": "count"}}
    # the traced runs are kept apart from the pairs the summary reads
    assert len(data["runs"]) == 10 and set(data["metrics"]) == {"pass_s", "verified_share"}


def test_summary_holds_medians_iqr_pair_counts_and_attempts():
    data = bench_pair.run_pairs(stub([]), ["info-catalog"], 5, 3, 7, METRICS,
                                log=lambda _: None)["info-catalog"]
    assert data["attempted"] == {"parent": [100, 101, 102, 103, 104],
                                 "change": [101, 102, 103, 104, 105]}
    assert not data["all_correct"] and len(data["runs"]) == 10
    speed = data["metrics"]["pass_s"]
    assert (speed["parent_median"], speed["change_median"]) == (1.0, 0.85)
    assert speed["parent_iqr"] == pytest.approx(1.1 - 1.0)
    assert (speed["pairs_better"], speed["pairs_worse"], speed["pairs_tied"]) == (4, 1, 0)
    assert speed["change_over_parent"] == pytest.approx(-0.15)
    # better in 4 of 5 pairs is short of nine tenths, though the medians are 0.15 apart
    assert not speed["gain_holds"] and not speed["worse_beyond_bound"]
    share = data["metrics"]["verified_share"]
    assert (share["pairs_better"], share["pairs_worse"], share["pairs_tied"]) == (0, 1, 4)
    assert share["change_median"] == 1.0 and not share["worse_beyond_bound"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    def runs(parent, change):
        return [{"pair": i, "side": side, "metrics": {"pass_s": {"value": v}}}
                for i, (p, c) in enumerate(zip(parent, change))
                for side, v in (("parent", p), ("change", c))]

    parent = [1.0 + 0.01 * i for i in range(10)]
    clear = bench_pair.summarize(runs(parent, [v - 0.2 for v in parent]), METRICS[:1])
    assert clear["pass_s"]["gain_holds"] and clear["pass_s"]["pairs_better"] == 10
    # every pair better, but by less than the parent's own spread
    narrow = bench_pair.summarize(runs(parent, [v - 0.02 for v in parent]), METRICS[:1])
    assert not narrow["pass_s"]["gain_holds"]
    slower = bench_pair.summarize(runs(parent, [v * 1.3 for v in parent]), METRICS[:1])
    assert slower["pass_s"]["worse_beyond_bound"] and slower["pass_s"]["pairs_worse"] == 10
