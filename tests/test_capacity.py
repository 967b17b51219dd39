"""Channel-information bound: premise gates, exact values, serialization."""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racbox import capacity, protocols
from racbox.capacity import (
    BUILTIN_STRATEGIES,
    CapacityStrategy,
    _reproduces_box_family,
    _zero_entropy_diagnostics,
    build_capacity_joint,
    capacity_domains,
    ignore_rb_strategy,
    parse_capacity_strategy,
    protocol_strategy,
    send_x1_strategy,
    serialize_capacity_strategy,
    verify_capacity_bound_bits,
    verify_capacity_bound_dits,
)
from racbox.dists import JointDistribution, derive, marginalize
from racbox.infotheory import log_exponents, mutual_information_exponents
from racbox.protocols import run_box_protocol
from racbox.tables import TableFn

F = Fraction


@pytest.mark.parametrize("n", [2, 3])
def test_protocol_strategy_saturates_the_bit_bound(n):
    report = verify_capacity_bound_bits(n, protocol_strategy(n, 2))
    assert report.passed
    assert report.bound == F(1, n)
    # I(z : B y s) = (1/n) log 2, exactly
    joint = build_capacity_joint(protocol_strategy(n, 2), "signalinghalf")
    assert mutual_information_exponents(joint, ["z"], ["B", "y", "s"]) == {2: F(1, n)}
    assert any("premise met" in note for note in report.notes)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3)])
def test_protocol_strategy_saturates_the_dit_bound(n, d):
    report = verify_capacity_bound_dits(n, d, protocol_strategy(n, d))
    assert report.passed
    # I(z : B y s) = (1/n) log d, exactly
    joint = build_capacity_joint(protocol_strategy(n, d), "three")
    assert mutual_information_exponents(joint, ["z"], ["B", "y", "s"]) == {
        p: e / n for p, e in log_exponents(d).items()
    }


def test_premise_refuses_a_joint_whose_rows_cannot_be_uniform():
    # four (x_1, y) rows at (n, d) = (2, 2), and a joint over thirds
    wires = [("x_1", 2), ("y", 2), ("X", 2), ("Y", 2)]
    dist = JointDistribution(wires, {(0, 0, 0, 0): F(1, 3), (0, 1, 0, 0): F(2, 3)})
    with pytest.raises(ValueError, match="denominator 3 is not a multiple of their number 4"):
        _reproduces_box_family(dist, 2, 2)


def test_send_x1_meets_premise_but_carries_nothing():
    report = verify_capacity_bound_dits(2, 3, send_x1_strategy(2, 3))
    assert report.passed
    assert any("premise met" in note for note in report.notes)
    assert abs(report.quantity) < 1e-9
    # the clear-branch identity fails for this strategy: the message does
    # not track the box, so the y=1 slice carries no data variable
    assert any("does not hold" in note for note in report.notes)


def test_identity_verdicts_are_exact_not_within_a_tolerance():
    # X = B xor s, except 10^-12 of mass moved to the other X at one y = 0 cell:
    # I(B:X|s) and H(X|s) then differ by far less than any float tolerance
    eps = F(1, 10 ** 12)
    wires = [("x_1", 2), ("y", 2), ("s", 2), ("B", 2), ("X", 2)]
    probs = {(x1, y, s, B, B ^ s): F(1, 16)
             for x1 in range(2) for y in range(2) for s in range(2) for B in range(2)}
    probs[(0, 0, 0, 0, 0)] -= eps
    probs[(0, 0, 0, 0, 1)] = eps
    notes = _zero_entropy_diagnostics(JointDistribution(wires, probs), 2, 2, 2)
    first, second = notes
    assert first.startswith("identity I(B:X|b,s,y=0) = H(X|b,s,y=0) does not hold: ")
    lhs, rhs = (float(v) for v in first.rsplit(": ", 1)[1].split(" vs "))
    assert abs(lhs - rhs) < 1e-9
    # x_1 - X is not a function of (B, s) on the y = 1 slice
    assert "does not hold" in second
    probs[(0, 0, 0, 0, 0)] += probs.pop((0, 0, 0, 0, 1))
    assert "holds:" in _zero_entropy_diagnostics(JointDistribution(wires, probs), 2, 2, 2)[0]


def test_send_x1_only_defined_for_two_inputs():
    with pytest.raises(ValueError):
        send_x1_strategy(3, 3)


def test_ignoring_the_box_fails_the_premise():
    report = verify_capacity_bound_bits(2, ignore_rb_strategy(2, 2))
    assert not report.passed
    assert any("premise unmet" in note for note in report.notes)


def test_builtin_catalog():
    assert set(BUILTIN_STRATEGIES) == {"protocol", "send-x1", "ignore-rb"}


@pytest.mark.parametrize(
    "n,d,variant", [(2, 2, "signalinghalf"), (3, 2, "signalinghalf"), (2, 3, "three"), (3, 3, "three")]
)
def test_bob_view_of_the_protocol_strategy(n, d, variant):
    dist = build_capacity_joint(protocol_strategy(n, d), variant)
    xs = [f"x_{i}" for i in range(1, n)]
    # the interface wires, then the two wires attached as functions of the view
    assert dist.names == tuple(xs) + ("z", "y", "X", "s", "m", "B", "Aprime", "Y")
    # relaying m = A keeps every query on the A' = A branch: the (Aprime, m)
    # marginal lies on the diagonal
    relay = marginalize(dist, ["Aprime", "m"]).keys
    assert (relay[:, 0] == relay[:, 1]).all()
    # so the box answers the queried slot of (z, x_1, ..., x_{n-1})
    view = marginalize(dist, ["B", "y", "z"] + xs).keys.astype(int)
    assert (view[:, 0] == view[np.arange(len(view)), 2 + view[:, 1]]).all()


def test_strategy_domain_validation():
    good = protocol_strategy(2, 2)
    bad_m = TableFn("m", (("x_1", 2),), 2, (0, 1))
    with pytest.raises(ValueError):
        CapacityStrategy(name="bad", n=2, d=2, tables={**good.tables, "m": bad_m})


def test_strategy_past_the_box_table_limit_is_refused_before_its_tables():
    # 40 * 2^43 box cells; building ignore-rb's tables would need 8 TiB
    with pytest.raises(ValueError, match="more than the limit of 10000000"):
        ignore_rb_strategy(40, 2)
    with pytest.raises(ValueError, match="more than the limit of 10000000"):
        CapacityStrategy(name="huge", n=40, d=2, tables={})


def test_serialize_parse_round_trip():
    for name, build in BUILTIN_STRATEGIES.items():
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
            if name == "send-x1" and n != 2:
                continue
            strat = build(n, d)
            assert parse_capacity_strategy(serialize_capacity_strategy(strat)) == strat


@pytest.mark.parametrize("name", ["run#1", "two\nlines"])
def test_a_strategy_name_that_would_not_read_back_is_refused_at_write(name):
    strat = dataclasses.replace(protocol_strategy(2, 2), name=name)
    with pytest.raises(ValueError, match=f"^bad preamble value {re.escape(repr(name))} for key 'name'$"):
        serialize_capacity_strategy(strat)


def test_parse_refuses_a_repeated_table_at_its_line():
    text = serialize_capacity_strategy(protocol_strategy(2, 2))
    block = text[text.index("table m "):text.index("table X ")]
    twice = text.replace(block, block + block)
    line = twice[:twice.rindex("table m ")].count("\n") + 1
    with pytest.raises(ValueError, match=rf"^line {line}: repeated table 'm'$"):
        parse_capacity_strategy(twice)


@pytest.mark.parametrize("name, n, d", [("protocol", 3, 3), ("send-x1", 2, 3), ("ignore-rb", 2, 3)])
def test_strategy_text_matches_golden(name, n, d):
    # captured while every table was still built one Python callback per entry
    golden = Path(__file__).parent / "golden" / f"capacity-strategy-{name}-{n}-{d}.txt"
    text = serialize_capacity_strategy(BUILTIN_STRATEGIES[name](n, d))
    assert text == golden.read_text()
    assert parse_capacity_strategy(text) == BUILTIN_STRATEGIES[name](n, d)


@pytest.mark.parametrize("key", ["n", "d"])
def test_parse_names_a_missing_size_line(key):
    text = serialize_capacity_strategy(protocol_strategy(2, 2))
    text = "\n".join(line for line in text.splitlines() if not line.startswith(f"{key} "))
    with pytest.raises(ValueError, match=f"^missing preamble line '{key}'$"):
        parse_capacity_strategy(text)


def test_parse_rejects_missing_tables():
    text = serialize_capacity_strategy(protocol_strategy(2, 2))
    head, _, _ = text.rpartition("table ")
    with pytest.raises(ValueError, match="^missing table 'Y'$"):
        parse_capacity_strategy(head)


def test_capacity_domains_are_shared_and_read_only():
    domains = capacity_domains(3, 3)
    assert capacity_domains(3, 3) is domains
    with pytest.raises(TypeError):
        domains["m"] = ((), 3)
    # a refused size is refused on every call, never cached
    for _ in range(2):
        with pytest.raises(ValueError, match="more than the limit"):
            capacity_domains(12, 5)


def _dense_joint(name, resource, iface, derived, **protocol):
    """The composition the executor's joint end replaces: the dense induced
    box's joint, then each derived wire appended by ``derive``."""
    joint = run_box_protocol(name, resource, iface, **protocol).result.joint()
    for table in derived:
        joint = derive(joint, table)
    return joint


def _assert_joint_end_agrees(monkeypatch, strategy, block_cells):
    variant = "signalinghalf" if strategy.d == 2 else "three"
    with monkeypatch.context() as patched:
        # BLOCK_CELLS = 1 takes one Alice task row per block
        patched.setattr(protocols, "BLOCK_CELLS", block_cells)
        fast = build_capacity_joint(strategy, variant)
    with monkeypatch.context() as patched:
        patched.setattr(capacity, "protocol_joint", _dense_joint)
        slow = build_capacity_joint(strategy, variant)
    assert fast == slow
    assert (fast.keys.dtype, fast.counts.dtype) == (slow.keys.dtype, slow.counts.dtype)


@pytest.mark.parametrize("block_cells", [protocols.BLOCK_CELLS, 1],
                         ids=["one-block", "one-row-per-block"])
@pytest.mark.parametrize(
    "name,n,d",
    [(name, n, d) for name in sorted(BUILTIN_STRATEGIES)
     for n, d in ((2, 2), (3, 2), (2, 3), (3, 3)) if n == 2 or name != "send-x1"],
)
def test_joint_end_matches_the_dense_joint_then_derive(monkeypatch, name, n, d, block_cells):
    _assert_joint_end_agrees(monkeypatch, BUILTIN_STRATEGIES[name](n, d), block_cells)


@given(st.sampled_from([(2, 2), (2, 3)]), st.data())
@settings(max_examples=60, deadline=None)
def test_joint_end_matches_the_dense_joint_on_random_tables(size, data):
    n, d = size
    tables = {}
    for name, (inputs, output_size) in capacity_domains(n, d).items():
        cells = int(np.prod([s for _, s in inputs]))
        entries = data.draw(st.lists(st.integers(0, output_size - 1), min_size=cells,
                                     max_size=cells), label=name)
        tables[name] = TableFn(name, inputs, output_size, np.array(entries, dtype=np.int64))
    block_cells = data.draw(st.sampled_from([protocols.BLOCK_CELLS, 1]), label="block_cells")
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_joint_end_agrees(monkeypatch, CapacityStrategy("random", n, d, tables), block_cells)
