"""Protocol execution: equivalences, the erasure channel, forced completions."""

from fractions import Fraction

import numpy as np
import pytest

from racbox.boxes import Box, BoxSignature, check_normalization, make_bn_box, make_bnd_box, make_rb
from racbox.dists import marginalize
from racbox.infotheory import mutual_information
from racbox.protocols import (
    MessageWire,
    ProtocolError,
    ProtocolRun,
    bn_box_via_rb,
    bnd_box_via_rb,
    channel_joint,
    induced_bbox,
    rac_via_bn_box,
    rac_via_bnd_box,
    rac_win_probability,
    resource_inequality_sim,
    run_box_protocol,
    verify_lemma1,
)

F = Fraction


def test_message_wire_budget():
    wire = MessageWire(2)
    wire.send(1)
    with pytest.raises(ProtocolError):
        wire.send(0)
    wire = MessageWire(2)
    with pytest.raises(ProtocolError):
        wire.send(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rac_via_bn_box_wins_always(n):
    run = rac_via_bn_box(n)
    assert run.message_alphabet == 2
    assert rac_win_probability(run) == 1


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_rac_via_bnd_box_wins_always(n, d, sign):
    run = rac_via_bnd_box(n, d, sign)
    assert run.message_alphabet == d
    assert rac_win_probability(run) == 1


def test_rac_via_wrong_shape_box_rejected():
    with pytest.raises(ProtocolError):
        rac_via_bn_box(3, box=make_bn_box(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bn_box_via_rb_exact(n):
    run = bn_box_via_rb(n)
    assert run.message_alphabet == 1  # no message at all
    assert run.result == make_bn_box(n)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_bnd_box_via_rb_exact(n, d, sign):
    run = bnd_box_via_rb(n, d, sign)
    assert run.result == make_bnd_box(n, d, sign)


def test_wrong_completion_does_not_reproduce():
    # with the uniform-over-wrong-symbols box the group structure is lost
    run = bnd_box_via_rb(2, 3, "plus", rb_variant="three")
    assert run.result != make_bnd_box(2, 3, "plus")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("d", [2, 3])
def test_resource_inequality_erasure_parameters(n, d):
    run, report = resource_inequality_sim(n, d)
    assert report.erasure_probability == F(n - 1, n)
    assert report.capacity == F(1, n)
    target = make_bnd_box(n, d, "plus")
    for z in range(d):
        assert induced_bbox(run, z) == target
    mi = mutual_information(channel_joint(run), ["z"], ["zhat"], (), d)
    assert abs(mi - 1 / n) < 1e-9


@pytest.mark.parametrize("variant", ["nosignaling", "signalinghalf"])
def test_resource_inequality_any_bit_variant(variant):
    run, report = resource_inequality_sim(3, 2, variant)
    assert report.capacity == F(1, 3)
    for z in range(2):
        assert induced_bbox(run, z) == make_bnd_box(3, 2, "plus")


@pytest.mark.parametrize("variant", ["plus", "minus", "three"])
def test_resource_inequality_any_trit_variant(variant):
    run, report = resource_inequality_sim(2, 3, variant)
    assert report.capacity == F(1, 2)
    for z in range(3):
        assert induced_bbox(run, z) == make_bnd_box(2, 3, "plus")


def test_sequential_execution_rejects_backward_signaling():
    # a resource whose Alice output copies Bob's input cannot be run
    # Alice-first: the marginal she samples from is not well defined
    sig = BoxSignature(
        alice_inputs=(("x", 1),),
        alice_outputs=(("X", 2),),
        bob_inputs=(("y", 2),),
        bob_outputs=(("Y", 1),),
    )
    # axes (x, y, X, Y): X = 0 when y = 0 and X = 1 when y = 1
    backward = Box(sig, np.array([[[[1], [0]], [[0], [1]]]]), 1)
    iface = BoxSignature(
        alice_inputs=(("u", 1),),
        alice_outputs=(("U", 2),),
        bob_inputs=(("v", 2),),
        bob_outputs=(("V", 1),),
    )
    with pytest.raises(ProtocolError, match=r"signals from Bob to Alice at input row \(0, 1\)"):
        run_box_protocol(
            "copy",
            backward,
            iface,
            alice_box_inputs=lambda t, s: (0,),
            bob_box_inputs=lambda t, m, s: (t["v"],),
            alice_outputs=lambda t, a, s: {"U": a["X"]},
            bob_outputs=lambda t, b, m, s: {"V": 0},
        )


def test_declared_message_must_be_sent():
    rb = make_rb(2, 2, "nosignaling")
    iface = BoxSignature(
        alice_inputs=(("u", 2), ("w", 2)),
        alice_outputs=(),
        bob_inputs=(("v", 2),),
        bob_outputs=(("V", 2),),
    )
    with pytest.raises(ProtocolError, match="never sent"):
        run_box_protocol(
            "mute",
            rb,
            iface,
            alice_box_inputs=lambda t, s: (t["u"], t["w"]),
            bob_box_inputs=lambda t, m, s: (0, t["v"]),
            alice_outputs=lambda t, a, s: {},
            bob_outputs=lambda t, b, m, s: {"V": b["B"]},
            message=lambda t, a, s, wire: None,
            message_size=2,
        )


_MUTE_IFACE = BoxSignature(
    alice_inputs=(("u", 2), ("w", 2)),
    alice_outputs=(),
    bob_inputs=(("v", 2),),
    bob_outputs=(("V", 2),),
)


def _relay(resource, message=lambda t, a, s, wire: wire.send(a["A"]), bob_outputs=None):
    """Alice feeds (u, w) and sends her box output; Bob feeds it back with v."""
    return run_box_protocol(
        "relay",
        resource,
        _MUTE_IFACE,
        alice_box_inputs=lambda t, s: (t["u"], t["w"]),
        bob_box_inputs=lambda t, m, s: (m, t["v"]),
        alice_outputs=lambda t, a, s: {},
        bob_outputs=bob_outputs or (lambda t, b, m, s: {"V": b["B"]}),
        message=message,
        message_size=2,
        sr_size=2,
    )


@pytest.mark.parametrize("party,inputs", [("Alice", (0, 2)), ("Bob", (0, 5))])
def test_resource_input_outside_its_alphabet_names_party_wires_and_values(party, inputs):
    alice = (lambda t, s: inputs) if party == "Alice" else (lambda t, s: (t["u"], t["w"]))
    bob = (lambda t, m, s: inputs) if party == "Bob" else (lambda t, m, s: (0, t["v"]))
    wires = ["a_0", "a_1"] if party == "Alice" else ["Aprime", "b"]
    with pytest.raises(ProtocolError) as err:
        run_box_protocol(
            "out-of-range",
            make_rb(2, 2, "nosignaling"),
            _MUTE_IFACE,
            alice_box_inputs=alice,
            bob_box_inputs=bob,
            alice_outputs=lambda t, a, s: {},
            bob_outputs=lambda t, b, m, s: {"V": b["B"]},
        )
    assert str(err.value).startswith(f"{party} fed the resource inputs")
    assert str(wires) in str(err.value) and str(list(inputs)) in str(err.value)


def test_hand_built_run_with_a_negative_cell_is_rejected():
    sig = BoxSignature(
        alice_inputs=(("x", 1),),
        alice_outputs=(("X", 2),),
        bob_inputs=(("y", 1),),
        bob_outputs=(),
    )
    box = Box(sig, np.array([[[3, -1]]]), 2)
    assert box.table[0, 0].sum() == box.denominator
    assert not check_normalization(box)
    with pytest.raises(ProtocolError, match=r"not normalized: induced row at \(0, 0\)"):
        ProtocolRun("hand-built", (), 1, 1, box)


def test_unnormalized_resource_is_rejected_at_its_induced_row():
    # halving every cell keeps Alice's marginal free of Bob's input, so the
    # resource passes the b2a check and only normalization can catch it
    rb = make_rb(2, 2, "nosignaling")
    half = Box(rb.signature, rb.table, 2 * rb.denominator)
    with pytest.raises(ProtocolError, match=r"induced row at \(0, 0, 0\) sums to 1/2"):
        _relay(half)


def test_alice_side_runs_once_per_round():
    calls = []

    def message(t, a, s, wire):
        calls.append((t["u"], t["w"], s, a["A"]))
        wire.send(a["A"])

    run = _relay(make_rb(2, 2, "nosignaling"), message=message)
    assert [run.result.prob((0, 1, 1), (V,)) for V in range(2)] == [F(0), F(1)]
    # one round per (task input, s, A), not one per Bob task input as well
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 4 * 2 * 2


def test_output_outside_its_alphabet_is_rejected():
    with pytest.raises(ProtocolError, match="outside its alphabet"):
        _relay(make_rb(2, 2, "nosignaling"), bob_outputs=lambda t, b, m, s: {"V": 2})


@pytest.mark.parametrize(
    "n,d,variant",
    [(n, d, v) for n, d in [(2, 2), (3, 3), (4, 2), (6, 3)] for v in (None, "three", "signalinghalf")
     if not (v == "signalinghalf" and d != 2)],
)
def test_channel_joint_is_the_marginal_of_the_full_joint(n, d, variant):
    run, _ = resource_inequality_sim(n, d, variant)
    fast = channel_joint(run)
    slow = marginalize(run.result.joint(), ["z", "zhat"])
    # equal arrays: the same support in the same sorted order, so float
    # entropies taken from either agree bit for bit
    assert fast == slow


def test_forced_wrong_answer_in_the_bit_case():
    report = verify_lemma1(2)
    assert report.passed
    assert "xor" in (report.witness or "")
    report = verify_lemma1(4)
    assert report.passed


def test_forced_zero_but_free_spread_beyond_bits():
    report = verify_lemma1(2, d=3)
    assert not report.passed
    assert any("under-determined" in note for note in report.notes)
