"""Acceptance gate: the eight headline checks, one printed verdict line each.

Each test exercises one criterion end to end at its stated tolerance and
prints ``criterion N (<label>): pass|FAIL [<elapsed>s]`` directly to the
terminal (bypassing capture) so the verdict survives in piped logs.  The
criteria with a per-item budget append the slowest item, e.g.
``slowest=(6,3) 0.41s``, so a budget failure shows its cause.
"""

import random
import time
from fractions import Fraction

from assignments import iter_assignments
from racbox.boxes import (
    check_no_signaling,
    check_normalization,
    make_bn_box,
    make_bnd_box,
    make_rb,
)
from racbox.capacity import (
    build_capacity_joint,
    protocol_strategy,
    verify_capacity_bound_bits,
    verify_capacity_bound_dits,
)
from racbox.dists import JointDistribution
from racbox.feasibility import bit_case, trit_case
from racbox.infotheory import check_lemma4, log_exponents, mutual_information_exponents
from racbox.protocols import (
    bn_box_via_rb,
    bnd_box_via_rb,
    channel_joint,
    induced_bbox,
    rac_via_bn_box,
    rac_via_bnd_box,
    rac_win_probability,
    resource_inequality_sim,
)
from racbox.search import evaluate_strategy, search_rac_with_rbs
from racbox.wiring import (
    compile_rac,
    winning_probability,
    winning_probability_oracle,
)

F = Fraction
QUANTUM = (2 + 2 ** 0.5) / 4


def _slowest(item: tuple, seconds: float) -> str:
    return f"slowest=({','.join(map(str, item))}) {seconds:.2f}s"


def _verdict(capsys, num: int, label: str, ok: bool, elapsed: float, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'pass' if ok else 'FAIL'} [{elapsed:.2f}s]"
    if detail:
        line += " " + detail
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_exact_equivalences(capsys):
    t0 = time.monotonic()
    failures = []
    slowest, slowest_at = 0.0, ()
    for n in range(2, 7):
        t1 = time.monotonic()
        if rac_win_probability(rac_via_bn_box(n)) != 1:
            failures.append(f"code via box, n={n}")
        if bn_box_via_rb(n).result != make_bn_box(n):
            failures.append(f"box via resource, n={n}")
        took = time.monotonic() - t1
        if took > slowest:
            slowest, slowest_at = took, (n,)
    for n, d in [(2, 3), (3, 3), (2, 5)]:
        for sign in ("plus", "minus"):
            t1 = time.monotonic()
            if rac_win_probability(rac_via_bnd_box(n, d, sign)) != 1:
                failures.append(f"code via box, ({n},{d},{sign})")
            if bnd_box_via_rb(n, d, sign).result != make_bnd_box(n, d, sign):
                failures.append(f"box via resource, ({n},{d},{sign})")
            took = time.monotonic() - t1
            if took > slowest:
                slowest, slowest_at = took, (n, d, sign)
    if slowest >= 1.0:
        failures.append(f"{_slowest(slowest_at, slowest)}, budget is 1s")
    _verdict(capsys, 1, "exact equivalences", not failures, time.monotonic() - t0,
             _slowest(slowest_at, slowest))
    assert not failures, failures


def test_criterion_2_erasure_channel(capsys):
    t0 = time.monotonic()
    failures = []
    slowest, slowest_at = 0.0, ()
    for n in range(2, 7):
        for d in (2, 3):
            t1 = time.monotonic()
            run, report = resource_inequality_sim(n, d)
            if report.erasure_probability != F(n - 1, n):
                failures.append(f"erasure ({n},{d})")
            if any(induced_bbox(run, z) != make_bnd_box(n, d, "plus") for z in range(d)):
                failures.append(f"box not reproduced ({n},{d})")
            # I(z : zhat) = (1/n) log d, exactly
            mi = mutual_information_exponents(channel_joint(run), ["z"], ["zhat"])
            if mi != {p: e / n for p, e in log_exponents(d).items()}:
                failures.append(f"channel information ({n},{d}): {mi}")
            took = time.monotonic() - t1
            if took > slowest:
                slowest, slowest_at = took, (n, d)
    if slowest >= 1.0:
        failures.append(f"{_slowest(slowest_at, slowest)}, budget is 1s")
    _verdict(capsys, 2, "erasure channel", not failures, time.monotonic() - t0,
             _slowest(slowest_at, slowest))
    assert not failures, failures


def test_criterion_3_capacity_bound(capsys):
    t0 = time.monotonic()
    failures = []
    for n in (2, 3):
        report = verify_capacity_bound_bits(n, protocol_strategy(n, 2))
        # I(z : B y s) = (1/n) log 2, exactly
        joint = build_capacity_joint(protocol_strategy(n, 2), "signalinghalf")
        mi = mutual_information_exponents(joint, ["z"], ["B", "y", "s"])
        if not report.passed or mi != {2: F(1, n)}:
            failures.append(f"bits n={n}: {mi}")
    report = verify_capacity_bound_dits(2, 3, protocol_strategy(2, 3))
    if not report.passed or report.bound != F(1, 2):
        failures.append("dits (2,3)")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget is 10s")
    _verdict(capsys, 3, "channel capacity bound", not failures, elapsed)
    assert not failures, failures


def test_criterion_4_costs_and_frozen_values(capsys):
    t0 = time.monotonic()
    failures = []
    for n in range(2, 17):
        _, cost = compile_rac(n)
        if cost.rb_count != n - 1 or cost.message_bits != 1:
            failures.append(f"cost n={n}")
    tree2, _ = compile_rac(2)
    tree7, _ = compile_rac(7)
    if winning_probability(tree2, F(3, 4)) != F(3, 4):
        failures.append("classical value at n=2")
    if abs(winning_probability(tree2, QUANTUM) - 0.853553) > 1e-5:
        failures.append("boosted value at n=2")
    if abs(winning_probability(tree7, QUANTUM) - 0.68723) > 1e-5:
        failures.append("boosted value at n=7")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    _verdict(capsys, 4, "box counts and frozen values", not failures, elapsed)
    assert not failures, failures


def test_criterion_5_recursion_against_oracle(capsys):
    t0 = time.monotonic()
    failures = []
    for n in (3, 5, 7):
        tree, _ = compile_rac(n)
        for p2 in (0.6, 0.75, QUANTUM):
            fast = winning_probability(tree, p2)
            slow = winning_probability_oracle(tree, p2)
            if abs(fast - slow) > 1e-12:
                failures.append(f"n={n}, p2={p2}: {fast} vs {slow}")
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget is 30s")
    _verdict(capsys, 5, "noisy recursion vs oracle", not failures, elapsed)
    assert not failures, failures


def test_criterion_6_one_box_search(capsys):
    t0 = time.monotonic()
    failures = []
    result = search_rac_with_rbs(3, 1)
    if result.max_win_probability != F(5, 6):
        failures.append(f"(3,1) maximum {result.max_win_probability}, pinned 5/6")
    if result.max_win_probability >= 1:
        failures.append("(3,1) not strictly below 1")
    if not result.complete:
        failures.append("(3,1) search incomplete")
    t1 = time.monotonic()
    if evaluate_strategy(result.witness) != result.max_win_probability:
        failures.append("witness does not reproduce the maximum")
    if time.monotonic() - t1 >= 1.0:
        failures.append("witness re-verification exceeded 1s")
    if search_rac_with_rbs(3, 2).max_win_probability != 1:
        failures.append("(3,2) should be perfect")
    elapsed = time.monotonic() - t0
    if elapsed >= 3600.0:
        failures.append(f"took {elapsed:.2f}s, budget is one hour")
    _verdict(capsys, 6, "one-box search maximum", not failures, elapsed)
    assert not failures, failures


def test_criterion_7_feasibility_catalog(capsys):
    t0 = time.monotonic()
    failures = []
    expected_bits = {"a": True, "b": True, "c": False, "d": False}
    for letter, want in expected_bits.items():
        if bit_case(letter).passed is not want:
            failures.append(f"bit case {letter}")
    expected_trits = {1: True, 2: True, 3: False, 4: False, 5: False, 6: False, 7: False, 8: False}
    for k, want in expected_trits.items():
        if trit_case(k).passed is not want:
            failures.append(f"trit case {k}")
    if bit_case("c").witness != "P(atilde_0=1,atilde_1=1)=0":
        failures.append("crossed-bit witness")
    if trit_case(3).witness != "P(A=2,x_1=1)=0":
        failures.append("mixed-trit witness")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    _verdict(capsys, 7, "guess feasibility catalog", not failures, elapsed)
    assert not failures, failures


def test_criterion_8_information_bound_and_signaling_sweep(capsys):
    t0 = time.monotonic()
    failures = []
    rng = random.Random(20260819)
    violations = 0
    for _ in range(1000):
        k = rng.randint(2, 5)
        keys = list(iter_assignments([2] * k))
        weights = [rng.randrange(0, 16) for _ in keys]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        dist = JointDistribution(
            tuple((f"v{i}", 2) for i in range(k)),
            {key: F(w, total) for key, w in zip(keys, weights) if w},
        )
        target = [f"v{k - 1}"]
        groups = [[f"v{i}"] for i in range(k - 1)]
        if not check_lemma4(dist, groups, target).passed:
            violations += 1
    if violations:
        failures.append(f"{violations} grouped-information violations in 1000 draws")

    for n in range(2, 6):
        box = make_bn_box(n)
        if not (check_normalization(box) and check_no_signaling(box, "a2b")
                and check_no_signaling(box, "b2a")):
            failures.append(f"data box n={n}")
        for d in range(2, 6):
            for sign in ("plus", "minus"):
                box = make_bnd_box(n, d, sign)
                if not (check_no_signaling(box, "a2b") and check_no_signaling(box, "b2a")):
                    failures.append(f"data box ({n},{d},{sign})")
            for variant, dd in [("nosignaling", 2), ("plus", d), ("minus", d), ("three", d)]:
                rb = make_rb(n, dd, variant)
                if not (check_no_signaling(rb, "a2b") and check_no_signaling(rb, "b2a")):
                    failures.append(f"resource box ({n},{dd},{variant})")
        bad = make_rb(n, 2, "signalinghalf")
        if check_no_signaling(bad, "a2b") or not check_no_signaling(bad, "b2a"):
            failures.append(f"signaling variant misclassified at n={n}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget is 60s")
    _verdict(capsys, 8, "information bound and signaling sweep", not failures, elapsed)
    assert not failures, failures
