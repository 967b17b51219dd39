"""Perfect-guess feasibility of message-value promises."""

import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racbox.feasibility import (
    BIT_CASES,
    TRIT_CASES,
    bit_case,
    guessing_feasibility,
    trit_case,
)

F = Fraction


def test_bit_case_catalog_verdicts():
    # one variable promised on both message values: always recoverable;
    # crossed promises on two variables: impossible
    assert bit_case("a").passed
    assert bit_case("b").passed
    assert not bit_case("c").passed
    assert not bit_case("d").passed


def test_crossed_bits_witness_and_coverage():
    report = bit_case("c")
    assert report.witness == "P(atilde_0=1,atilde_1=1)=0"
    assert report.quantity == F(3, 4)
    assert report.bound == F(1)


def test_trit_case_catalog_verdicts():
    verdicts = {k: trit_case(k).passed for k in TRIT_CASES}
    assert verdicts == {1: True, 2: True, 3: False, 4: False, 5: False, 6: False, 7: False, 8: False}


def test_mixed_trit_witness():
    report = trit_case(3)  # promises A, A, x_1 on m = 0, 1, 2
    assert not report.passed
    assert report.witness == "P(A=2,x_1=1)=0"


def test_single_variable_promises_have_explicit_plans():
    report = trit_case(1)
    assert report.passed
    assert report.witness == "m=0 -> A=0; m=1 -> A=1; m=2 -> A=2"


def test_free_message_value_absorbs_everything():
    report = guessing_feasibility(
        [("u", 0), ("u", 1)], [("u", 2), ("v", 2)], 3
    )
    assert report.passed
    assert "m=2" in (report.witness or "")


def test_no_promises_is_trivially_feasible():
    assert guessing_feasibility([], [("u", 2)], 2).passed


def test_validation_errors():
    with pytest.raises(ValueError):
        guessing_feasibility([("w", 0)], [("u", 2)], 2)  # unknown variable
    with pytest.raises(ValueError):
        guessing_feasibility([("u", 5)], [("u", 2)], 2)  # message value range
    with pytest.raises(ValueError):
        guessing_feasibility([("u", 0), ("u", 0)], [("u", 2)], 2)  # duplicate slot
    with pytest.raises(ValueError):
        guessing_feasibility([("u", 0)], [("u", 2), ("u", 3)], 2)  # var twice
    with pytest.raises(ValueError):
        guessing_feasibility([("u", 0)], [("u", 1)], 2)  # degenerate alphabet


def test_same_variable_on_every_message_value_scales():
    # promising one variable everywhere is exactly the ability to send it
    for size in (2, 3, 4):
        constraints = [("u", mu) for mu in range(size)]
        report = guessing_feasibility(constraints, [("u", size), ("v", size)], size)
        assert report.passed


def test_two_distinct_variables_on_a_binary_message_fail():
    report = guessing_feasibility(
        [("u", 0), ("v", 1)], [("u", 2), ("v", 2)], 2
    )
    assert not report.passed
    assert report.quantity == F(3, 4)


@given(st.integers(2, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_dropping_a_promise_never_hurts(size, data):
    # feasibility is monotone: removing a constraint keeps a feasible
    # instance feasible
    variables = [("u", size), ("v", size)]
    slots = [(var, mu) for var, _ in variables for mu in range(size)]
    chosen = data.draw(
        st.lists(st.sampled_from(slots), min_size=1, max_size=size, unique_by=lambda s: s[1])
    )
    full = guessing_feasibility(chosen, variables, size)
    reduced = guessing_feasibility(chosen[:-1], variables, size)
    if full.passed:
        assert reduced.passed


def test_case_catalogs_are_complete():
    assert sorted(BIT_CASES) == ["a", "b", "c", "d"]
    assert sorted(TRIT_CASES) == list(range(1, 9))
    with pytest.raises(ValueError):
        bit_case("z")
    with pytest.raises(ValueError):
        trit_case(9)


def brute_force(constraints, independents, message_size):
    """(passed, witness, quantity, notes) by testing every guess at every point.

    The canonical constants are tried first, then every guess in product
    order over the promises (variables in order of first promise, message
    values ascending); the first full cover is the plan.
    """
    sizes = dict(independents)
    cvars = list(dict.fromkeys(var for var, _ in constraints))
    slots = sorted(constraints, key=lambda c: (cvars.index(c[0]), c[1]))
    free = [mu for mu in range(message_size) if all(m != mu for _, m in slots)]
    if free:
        return (True, f"m={free[0]} carries no promise and can absorb every input", F(1),
                ("an unpromised message value covers the whole input space by itself",))
    points = list(product(*(range(sizes[var]) for var in cvars)))

    def uncovered(guess):
        return [point for point in points if not any(
            all(dict(zip(cvars, point))[var] == guess[(var, m)] for var, m in slots if m == mu)
            for mu in range(message_size))]

    canonical = {(var, mu): [m for v, m in slots if v == var].index(mu) % sizes[var]
                 for var, mu in slots}
    guesses = [canonical] + [dict(zip(slots, values))
                             for values in product(*(range(sizes[var]) for var, _ in slots))]
    misses = [uncovered(guess) for guess in guesses]
    plan = next((guess for guess, miss in zip(guesses, misses) if not miss), None)
    if plan is not None:
        witness = "; ".join(
            f"m={mu} -> " + ",".join(f"{var}={plan[(var, m)]}" for var, m in slots if m == mu)
            for mu in range(message_size))
        return True, witness, F(1), ("the guess constants above cover the whole input space",)
    best = 1 - F(min(map(len, misses)), len(points))
    cell = ",".join(f"{var}={x}" for var, x in zip(cvars, misses[0][0]))
    return (False, f"P({cell})=0", best, (
        "no choice of guess constants covers the input space",
        f"best cover reaches {best} of it",
        "the named cell is uncovered under the canonical constants "
        "(ascending message values guess 0,1,2,... per variable)",
    ))


@given(st.lists(st.integers(2, 3), min_size=1, max_size=3), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_cover_array_matches_a_guess_by_guess_brute_force(var_sizes, message_size, data):
    # several variables may share a message value; each draw is bounded to
    # about 10^4 cell tests (guesses x points x message values)
    independents = [(f"v{i}", size) for i, size in enumerate(var_sizes)]
    pairs = [(var, mu) for var, _ in independents for mu in range(message_size)]
    constraints = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    sizes = dict(independents)
    cells = prod(sizes[var] for var in dict.fromkeys(var for var, _ in constraints))
    assume(prod(sizes[var] for var, _ in constraints) * cells * message_size <= 10**4)
    report = guessing_feasibility(constraints, independents, message_size)
    assert (report.passed, report.witness, report.quantity, report.notes) == brute_force(
        constraints, independents, message_size)


def test_largest_accepted_plan_is_decided_at_array_speed():
    # 3^8 = 6,561 guesses over 81 cells: the most the cell-test limit allows
    constraints = [(f"u{i // 2}", i) for i in range(8)]
    start = time.monotonic()
    report = guessing_feasibility(constraints, [(f"u{i}", 3) for i in range(4)], 8)
    assert time.monotonic() - start < 1
    assert not report.passed
    assert report.quantity == F(80, 81)
    assert report.witness == "P(u0=2,u1=2,u2=2,u3=2)=0"


def test_a_huge_message_alphabet_finds_its_free_value_at_once():
    report = guessing_feasibility([("u", 0)], [("u", 2)], 10**12)
    assert report.passed
    assert report.witness == "m=1 carries no promise and can absorb every input"


def test_plans_past_the_limits_are_refused():
    with pytest.raises(ValueError, match="too large"):
        guessing_feasibility([("u", 0)], [("u", 10**6 + 1)], 1)
    # 2^64 cells: a product that would wrap to 0 in int64 is still refused
    with pytest.raises(ValueError, match="too large"):
        guessing_feasibility([("u", 0), ("v", 1)], [("u", 2**32), ("v", 2**32)], 2)
