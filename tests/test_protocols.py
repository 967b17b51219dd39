"""Protocol execution: equivalences, the erasure channel, forced completions."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assignments import iter_assignments
from racbox import capacity, protocols
from racbox.boxes import (
    Box,
    BoxSignature,
    check_no_signaling,
    check_normalization,
    family_signature,
    make_bn_box,
    make_bnd_box,
    make_rb,
)
from racbox.dists import derive, marginalize
from racbox.infotheory import mutual_information
from racbox.protocols import (
    ProtocolError,
    ProtocolRun,
    bn_box_via_rb,
    bnd_box_via_rb,
    channel_joint,
    induced_bbox,
    protocol_joint,
    rac_via_bn_box,
    rac_via_bnd_box,
    rac_win_probability,
    resource_inequality_sim,
    run_box_protocol,
    verify_lemma1,
)
from racbox.tables import TableFn

F = Fraction


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


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 5), (3, 4)])
def test_plus_and_minus_boxes_each_simulate_the_other_family(n, d):
    # a_0 = 0, a_i = step * x_i, X = -A, A' = 0, Y = B: negating Alice's output
    # turns either group-law completion into the other sign's family
    def relabeled(variant, step):
        return run_box_protocol(
            f"{variant}-relabeled", make_rb(n, d, variant), family_signature(n, d),
            alice_box_inputs=lambda a: (0,) + tuple(step * a[f"x_{i}"] % d for i in range(1, n)),
            bob_box_inputs=lambda b: (0, b["y"]),
            alice_outputs=lambda a: {"X": -a["A"] % d},
            bob_outputs=lambda b: {"Y": b["B"]},
        ).result

    assert relabeled("plus", -1) == make_bnd_box(n, d, "minus")
    assert relabeled("minus", 1) == make_bnd_box(n, d, "plus")
    # the fixed X = A protocol is what tells the two classes apart
    assert bnd_box_via_rb(n, d, "minus", rb_variant="plus").result != make_bnd_box(n, d, "minus")
    assert bnd_box_via_rb(n, d, "plus", rb_variant="minus").result != make_bnd_box(n, d, "plus")


def multiplier_completion(n, d, k):
    """The RAC-box whose B is a_b + k(A - A') mod d, A uniform: a_b on A' = A."""
    sig = make_rb(n, d, "plus").signature
    grid = np.indices(sig.input_sizes + sig.output_sizes, sparse=True)
    a, (Ap, b, A, B) = grid[:n], grid[n:]
    ab = sum((b == i) * a[i] for i in range(n))
    return Box(sig, B == (ab + k * (A - Ap)) % d, d)


def uniform_mixture(boxes):
    den = lcm(*(box.denominator for box in boxes))
    table = sum(box.table.astype(np.int64) * (den // box.denominator) for box in boxes)
    return Box(boxes[0].signature, table, den * len(boxes))


def units(d):
    return [k for k in range(1, d) if gcd(k, d) == 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_three_at_d_3_is_the_equal_plus_minus_mixture(n):
    mixture = uniform_mixture([make_rb(n, 3, "plus"), make_rb(n, 3, "minus")])
    assert make_rb(n, 3, "three") == mixture


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_multiplier_completions_are_no_signaling_rac_boxes(n, d):
    for k in units(d):
        box = multiplier_completion(n, d, k)
        assert check_normalization(box)
        assert all(check_no_signaling(box, direction) for direction in ("a2b", "b2a"))
    # "plus" is B = a_b - A + A', "minus" B = a_b + A - A'
    assert multiplier_completion(n, d, d - 1) == make_rb(n, d, "plus")
    assert multiplier_completion(n, d, 1) == make_rb(n, d, "minus")


@pytest.mark.parametrize("n,d,mixes", [(2, 5, True), (3, 5, True), (2, 7, True),
                                       (2, 4, False), (2, 6, False)])
def test_three_is_the_uniform_mixture_of_the_units_only_at_prime_d(n, d, mixes):
    mixture = uniform_mixture([multiplier_completion(n, d, k) for k in units(d)])
    assert (make_rb(n, d, "three") == mixture) is mixes


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (2, 5)])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_every_multiplier_completion_simulates_both_families(n, d, sign):
    # a_0 = A' = 0, a_i = +-x_i, b = y, X = -+kA, Y = B: B = +-x_y + kA, and X
    # cancels the kA
    step = 1 if sign == "plus" else -1
    for k in units(d):
        run = run_box_protocol(
            f"multiplier-{k}-{sign}", multiplier_completion(n, d, k), family_signature(n, d),
            alice_box_inputs=lambda a: (0,) + tuple(step * a[f"x_{i}"] % d for i in range(1, n)),
            bob_box_inputs=lambda b: (0, b["y"]),
            alice_outputs=lambda a, k=k: {"X": -step * k * a["A"] % d},
            bob_outputs=lambda b: {"Y": b["B"]},
        )
        assert run.result == make_bnd_box(n, d, sign)


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
            alice_box_inputs=lambda a: (0,),
            bob_box_inputs=lambda b: (b["v"],),
            alice_outputs=lambda a: {"U": a["X"]},
            bob_outputs=lambda b: {"V": 0},
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
            alice_box_inputs=lambda a: (a["u"], a["w"]),
            bob_box_inputs=lambda b: (0, b["v"]),
            alice_outputs=lambda a: {},
            bob_outputs=lambda b: {"V": b["B"]},
            message=lambda a: None,
            message_size=2,
        )


_MUTE_IFACE = BoxSignature(
    alice_inputs=(("u", 2), ("w", 2)),
    alice_outputs=(),
    bob_inputs=(("v", 2),),
    bob_outputs=(("V", 2),),
)


# Alice feeds (u, w) and sends her box output; Bob feeds it back with v
_RELAY = dict(
    alice_box_inputs=lambda a: (a["u"], a["w"]),
    bob_box_inputs=lambda b: (b["m"], b["v"]),
    alice_outputs=lambda a: {},
    bob_outputs=lambda b: {"V": b["B"]},
    message=lambda a: a["A"],
    message_size=2,
    sr_size=2,
)


def _relay(resource, **changed):
    """The relay protocol's run, with the callbacks in ``changed`` in place of its own."""
    return run_box_protocol("relay", resource, _MUTE_IFACE, **{**_RELAY, **changed})


@pytest.mark.parametrize("party,inputs", [("Alice", (0, 2)), ("Bob", (0, 5))])
def test_resource_input_outside_its_alphabet_names_party_wires_and_values(party, inputs):
    alice = (lambda a: inputs) if party == "Alice" else (lambda a: (a["u"], a["w"]))
    bob = (lambda b: inputs) if party == "Bob" else (lambda b: (0, b["v"]))
    wire = "a_1" if party == "Alice" else "b"
    with pytest.raises(ProtocolError) as err:
        run_box_protocol(
            "out-of-range",
            make_rb(2, 2, "nosignaling"),
            _MUTE_IFACE,
            alice_box_inputs=alice,
            bob_box_inputs=bob,
            alice_outputs=lambda a: {},
            bob_outputs=lambda b: {"V": b["B"]},
        )
    assert str(err.value) == (f"{party}'s resource input {wire}={inputs[1]} "
                              "outside its alphabet of size 2")


def test_resource_inputs_of_the_wrong_count_are_rejected():
    with pytest.raises(ProtocolError, match=r"Bob's resource input: expected 2 values for the "
                                            r"wires \['Aprime', 'b'\], got 1"):
        run_box_protocol(
            "short",
            make_rb(2, 2, "nosignaling"),
            _MUTE_IFACE,
            alice_box_inputs=lambda a: (a["u"], a["w"]),
            bob_box_inputs=lambda b: (b["v"],),
            alice_outputs=lambda a: {},
            bob_outputs=lambda b: {"V": b["B"]},
        )


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
        ProtocolRun("hand-built", 1, box)


def test_unnormalized_resource_is_rejected_at_its_own_row():
    # halving every cell keeps Alice's marginal free of Bob's input, so the
    # resource passes the b2a check and only normalization can catch it
    rb = make_rb(2, 2, "nosignaling")
    half = Box(rb.signature, rb.table, 2 * rb.denominator)
    with pytest.raises(ProtocolError) as err:
        _relay(half)
    assert str(err.value) == ("resource of 'relay' is not normalized: input row at (0, 0, 0, 0) "
                              "sums to 1/2 or has a negative cell")


def _negative(rb: Box) -> Box:
    """``rb`` with B's two values swapping mass 2 and -1 where B would be 0: rows
    still sum to 1, and Alice's marginal, hence the b2a check, is left as it was."""
    table = rb.table.astype(np.int64)
    table = np.where(table[..., :1] > 0, np.stack([table[..., 0] * 2, -table[..., 0]], -1), table)
    return Box(rb.signature, table, rb.denominator)


def _never(*args):
    pytest.fail("a callback ran before the resource was checked")


@pytest.mark.parametrize("end", [run_box_protocol, protocol_joint], ids=["box", "joint"])
@pytest.mark.parametrize("fault", ["half", "negative"])
def test_both_ends_refuse_an_unnormalized_row_as_a_hand_built_run_does(end, fault):
    rb = make_rb(2, 2, "nosignaling")
    if fault == "half":
        resource = Box(rb.signature, rb.table, 2 * rb.denominator)
    else:
        resource = _negative(rb)
    # a run built by hand around the resource itself is refused at the same row and sum
    with pytest.raises(ProtocolError) as hand_built:
        ProtocolRun("relay", 2, resource)
    callbacks = ("alice_box_inputs", "bob_box_inputs", "alice_outputs", "bob_outputs", "message")
    with pytest.raises(ProtocolError) as executed:
        end("relay", resource, _MUTE_IFACE, **{**_RELAY, **dict.fromkeys(callbacks, _never)})
    where = str(hand_built.value).split(" induced row ", 1)[1]
    assert str(executed.value) == f"resource of 'relay' is not normalized: input row {where}"


@pytest.mark.parametrize("end", [run_box_protocol, protocol_joint], ids=["box", "joint"])
def test_a_bad_row_the_protocol_never_reads_is_refused(end):
    # rows with a_1 = 1 sum to 1/2, for every Bob input alike, so no b2a signaling;
    # Alice always feeds a_1 = 0, so the induced box never reads them
    rb = make_rb(2, 2, "nosignaling")
    table = rb.table.astype(np.int64) * 2
    table[:, 1] //= 2
    resource = Box(rb.signature, table, 2 * rb.denominator)
    assert check_no_signaling(resource, "b2a")
    protocol = {**_RELAY, "alice_box_inputs": lambda a: (a["u"], 0 * a["w"])}
    assert check_normalization(_walk_protocol("relay", resource, _MUTE_IFACE, **protocol))
    with pytest.raises(ProtocolError, match=r"input row at \(0, 1, 0, 0\) sums to 1/2"):
        end("relay", resource, _MUTE_IFACE, **protocol)


@pytest.mark.parametrize("end", [run_box_protocol, protocol_joint], ids=["box", "joint"])
def test_a_negative_cell_the_induced_sums_would_hide_is_refused(end):
    # Bob answers his own input, so every induced cell sums over both values of B
    resource = _negative(make_rb(2, 2, "nosignaling"))
    protocol = {**_RELAY, "bob_outputs": lambda b: {"V": b["v"]}}
    walked = _walk_protocol("relay", resource, _MUTE_IFACE, **protocol)
    assert check_normalization(walked) and walked.table.min() >= 0
    with pytest.raises(ProtocolError, match=r"input row at \(0, 0, 0, 0\) sums to 1 "
                                            r"or has a negative cell"):
        end("relay", resource, _MUTE_IFACE, **protocol)


def _one_way_resource(rng: np.random.Generator, ka: int, na: int, kb: int, nb: int) -> Box:
    """P(A|a) P(B|a,b,A) from random integer weights, one wire a side: normalized, and
    free of signaling from Bob to Alice since P(A|a) does not read b."""
    alice, bob = rng.integers(0, 4, (ka, na)), rng.integers(0, 4, (ka, kb, na, nb))
    alice[..., 0] += alice.sum(-1) == 0
    bob[..., 0] += bob.sum(-1) == 0
    # dens[a, b, A]: the denominator of P(A|a) P(B|a,b,A) for every B
    dens = alice.sum(-1)[:, None, None] * bob.sum(-1)
    common = lcm(*map(int, dens.reshape(-1)))
    table = (alice[:, None, :, None].astype(object) * bob.astype(object)
             * (common // dens.astype(object))[..., None])
    sig = BoxSignature(alice_inputs=(("a", ka),), alice_outputs=(("A", na),),
                       bob_inputs=(("b", kb),), bob_outputs=(("B", nb),))
    return Box(sig, table, common)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_normalized_resource_induces_normalized_rows_under_any_protocol(data):
    # the checks on the resource stand in for a check of every induced row
    ka, na, kb, nb, ku, kw, kv, nu, nv = (data.draw(st.integers(1, 3)) for _ in range(9))
    sr_size, message_size = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    resource = _one_way_resource(rng, ka, na, kb, nb)
    assert check_normalization(resource) and check_no_signaling(resource, "b2a")
    iface = BoxSignature(alice_inputs=(("u", ku), ("w", kw)), alice_outputs=(("U", nu),),
                         bob_inputs=(("v", kv),), bob_outputs=(("V", nv),))
    # deterministic callbacks: a random table read at each party's wires
    feed_a = rng.integers(0, ka, (ku, kw, sr_size))
    send = rng.integers(0, message_size, (ku, kw, sr_size, na))
    out_u = rng.integers(0, nu, (ku, kw, sr_size, na))
    feed_b = rng.integers(0, kb, (kv, sr_size, message_size))
    out_v = rng.integers(0, nv, (kv, sr_size, message_size, nb))
    protocol = dict(
        alice_box_inputs=lambda a: (feed_a[a["u"], a["w"], a["s"]],),
        bob_box_inputs=lambda b: (feed_b[b["v"], b["s"], b["m"]],),
        alice_outputs=lambda a: {"U": out_u[a["u"], a["w"], a["s"], a["A"]]},
        bob_outputs=lambda b: {"V": out_v[b["v"], b["s"], b["m"], b["B"]]},
        message=lambda a: send[a["u"], a["w"], a["s"], a["A"]],
        message_size=message_size,
        sr_size=sr_size,
    )
    block_cells = data.draw(st.sampled_from([protocols.BLOCK_CELLS, 1]), label="block_cells")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(protocols, "BLOCK_CELLS", block_cells)
        run = run_box_protocol("random", resource, iface, **protocol)
        joint = protocol_joint("random", resource, iface, **protocol)
    assert check_normalization(run.result)
    walked = _walk_protocol("random", resource, iface, **protocol)
    assert run.result == walked
    assert joint == walked.joint()


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
def test_resource_inputs_are_range_checked_in_any_integer_type(dtype):
    # an unsigned array is checked against its alphabet by its max alone
    value = -1 if np.dtype(dtype).kind == "i" else 2
    bad = np.array([[0, value], [1, 0]], dtype=dtype)
    with pytest.raises(ProtocolError) as err:
        protocols._checked_index("Alice's resource input", [np.zeros(2, dtype), bad],
                                 [("a_0", 2), ("a_1", 2)])
    assert str(err.value) == f"Alice's resource input a_1={value} outside its alphabet of size 2"
    good = np.array([[0, 1], [1, 0]], dtype=dtype)
    index = protocols._checked_index("Alice's resource input", [good, good.T],
                                     [("a_0", 2), ("a_1", 2)])
    assert index.tolist() == [[0, 3], [3, 0]]


def test_derived_wires_read_bobs_task_inputs_outputs_and_earlier_derived_wires():
    rb = make_rb(2, 2, "nosignaling")
    flip = TableFn.from_array("W", (("v", 2), ("V", 2)), 2, np.array([[1, 0], [0, 1]]))
    twice = TableFn.from_array("WW", (("W", 2), ("V", 2)), 4, np.array([[0, 1], [2, 3]]))
    joint = protocol_joint("relay", rb, _MUTE_IFACE, (flip, twice), **_RELAY)
    assert joint == derive(derive(_relay(rb).result.joint(), flip), twice)
    alice_reads = TableFn.from_array("U", (("u", 2),), 2, np.array([0, 1]))
    with pytest.raises(ProtocolError, match="a derived wire reads only Bob's task inputs"):
        protocol_joint("relay", rb, _MUTE_IFACE, (alice_reads,), **_RELAY)


def test_output_outside_its_alphabet_is_rejected():
    with pytest.raises(ProtocolError, match="outside its alphabet"):
        _relay(make_rb(2, 2, "nosignaling"), bob_outputs=lambda b: {"V": 2})


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
    for n, d in ((2, 3), (3, 3), (2, 4)):
        report = verify_lemma1(n, d=d)
        assert not report.passed
        assert any("under-determined" in note for note in report.notes)
        # plus and minus first differ at the all-zero row, off the branch
        assert report.witness == (f"a={(0,) * n}, A'=0, b=0; A=1, B=1: "
                                  f"P = 0 (plus) vs 1/{d} (minus)")


def test_declared_message_outside_its_alphabet_is_rejected():
    with pytest.raises(ProtocolError, match="message m=2 outside its alphabet of size 2"):
        _relay(make_rb(2, 2, "nosignaling"), message=lambda a: a["A"] + 2)


@pytest.mark.parametrize("block_cells,blocks", [(protocols.BLOCK_CELLS, 1), (1, 4)],
                         ids=["one-block", "four-blocks"])
def test_each_callback_runs_once_per_block_and_alice_sees_no_bob_axis(
        monkeypatch, block_cells, blocks):
    calls = {}

    def spy(name, fn):
        def call(*args):
            calls.setdefault(name, []).append(args)
            return fn(*args)
        return call

    monkeypatch.setattr(protocols, "BLOCK_CELLS", block_cells)
    run = run_box_protocol(
        "relay",
        make_rb(2, 2, "nosignaling"),
        _MUTE_IFACE,
        alice_box_inputs=spy("alice_box_inputs", lambda a: (a["u"], a["w"])),
        bob_box_inputs=spy("bob_box_inputs", lambda b: (b["m"], b["v"])),
        alice_outputs=spy("alice_outputs", lambda a: {}),
        bob_outputs=spy("bob_outputs", lambda b: {"V": b["B"]}),
        message=spy("message", lambda a: a["A"]),
        message_size=2,
        sr_size=2,
    )
    assert run.result == _relay(make_rb(2, 2, "nosignaling")).result
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(calls, blocks)
    assert len(calls) == 5
    # grid axes (Alice task input, s, A, Bob task input, B): Alice's wires span no Bob axis
    for name in ("alice_box_inputs", "message", "alice_outputs"):
        for (wires,) in calls[name]:
            assert all(np.ndim(v) == 5 and np.shape(v)[3:] == (1, 1) for v in wires.values())
    # Bob's side sees Alice's rounds only through the message
    for (wires,) in calls["bob_box_inputs"]:
        assert np.shape(wires["m"]) == (4 // blocks, 2, 2, 1, 1)


def test_backward_signaling_resource_is_rejected_before_any_callback_runs():
    # perfbench's control: an RB-shaped resource with A = A' + 1 and B = a_b
    n, d = 3, 3
    rb = make_rb(n, d, "plus")
    table = np.zeros(rb.table.shape, dtype=np.int8)
    for a in product(range(d), repeat=n):
        for aprime, b in product(range(d), range(n)):
            table[a + (aprime, b, (aprime + 1) % d, a[b])] = 1
    iface = BoxSignature(
        alice_inputs=tuple((f"x_{i}", d) for i in range(1, n)),
        alice_outputs=(("X", d),),
        bob_inputs=(("y", n),),
        bob_outputs=(("Y", d),),
    )

    def never(*args):
        pytest.fail("a callback ran before the backward-signaling check")

    with pytest.raises(ProtocolError, match="signals from Bob to Alice"):
        run_box_protocol(
            "backward", Box(rb.signature, table, 1), iface,
            alice_box_inputs=never, bob_box_inputs=never,
            alice_outputs=never, bob_outputs=never,
        )


@pytest.mark.parametrize(
    "alice_inputs,bob_inputs,message_size,party,name",
    [((("s", 2),), (("v", 2),), 1, "Alice", "s"),
     ((("u", 2),), (("B", 2),), 1, "Bob", "B"),
     ((("u", 2),), (("m", 2),), 2, "Bob", "m")],
    ids=["alice-input-s", "bob-input-like-a-resource-output", "bob-input-m"],
)
def test_a_repeated_wire_name_is_refused_before_any_callback_runs(
        alice_inputs, bob_inputs, message_size, party, name):
    # each party's callbacks get its task inputs, s, m and resource outputs in one dict
    iface = BoxSignature(alice_inputs=alice_inputs, alice_outputs=(),
                         bob_inputs=bob_inputs, bob_outputs=(("V", 2),))

    def never(*args):
        pytest.fail("a callback ran before the wire names were checked")

    with pytest.raises(ProtocolError, match=rf"{party}'s wires repeat the names \['{name}'\]"):
        run_box_protocol(
            "repeat", make_rb(2, 2, "nosignaling"), iface,
            alice_box_inputs=never, bob_box_inputs=never,
            alice_outputs=never, bob_outputs=never,
            message=never if message_size > 1 else None, message_size=message_size,
        )


@pytest.mark.parametrize("message_size", [1, 2])
def test_each_callback_gets_exactly_the_wires_its_party_holds(message_size):
    keys = {}

    def record(name, fn):
        def call(wires):
            keys[name] = set(wires)
            return fn(wires)
        return call

    sender = {"message": record("message", lambda a: a["A"])} if message_size > 1 else {}
    run_box_protocol(
        "relay",
        make_rb(2, 2, "nosignaling"),
        _MUTE_IFACE,
        alice_box_inputs=record("alice_box_inputs", lambda a: (a["u"], a["w"])),
        bob_box_inputs=record("bob_box_inputs", lambda b: (b.get("m", 0), b["v"])),
        alice_outputs=record("alice_outputs", lambda a: {}),
        bob_outputs=record("bob_outputs", lambda b: {"V": b["B"]}),
        message_size=message_size,
        **sender,
    )
    # Bob holds the message only when a message alphabet is declared
    bob = {"v", "s"} | ({"m"} if message_size > 1 else set())
    alice = {"u", "w", "s", "A"}
    assert keys == {
        "alice_box_inputs": {"u", "w", "s"},
        "alice_outputs": alice,
        "bob_box_inputs": bob,
        "bob_outputs": bob | {"B"},
        **({"message": alice} if message_size > 1 else {}),
    }


def _walk_protocol(name, resource, iface, *, alice_box_inputs, bob_box_inputs, alice_outputs,
                   bob_outputs, message=None, message_size=1, sr_size=1) -> Box:
    """Reference executor: one step per (task input, s, A, B) cell, scalar wires.

    Calls the executor's own callbacks with each party's wires by name as
    numpy integer scalars and adds each nonzero resource numerator into the
    induced table as a Python int.
    """
    def assignments(wires):
        names = [nm for nm, _ in wires]
        return [dict(zip(names, map(np.int64, vals)))
                for vals in iter_assignments([s for _, s in wires])]

    sig = resource.signature
    table = np.zeros(iface.input_sizes + iface.output_sizes, dtype=object)
    for ta, s in product(assignments(iface.alice_inputs), map(np.int64, range(sr_size))):
        a_in = tuple(int(v) for v in alice_box_inputs({**ta, "s": s}))
        for a_out in assignments(sig.alice_outputs):
            alice = {**ta, "s": s, **a_out}
            m = {} if message is None else {"m": np.int64(message(alice))}
            assert all(0 <= v < message_size for v in m.values())
            alice_outs = alice_outputs(alice)
            for tb in assignments(iface.bob_inputs):
                bob = {**tb, "s": s, **m}
                b_in = tuple(int(v) for v in bob_box_inputs(bob))
                for b_out in assignments(sig.bob_outputs):
                    num = resource.table[a_in + b_in + tuple(a_out.values()) + tuple(b_out.values())]
                    if num:
                        outs = {**alice_outs, **bob_outputs({**bob, **b_out})}
                        cell = (tuple(ta.values()) + tuple(tb.values())
                                + tuple(int(outs[nm]) for nm, _ in iface.output_vars))
                        table[cell] += int(num)
    return Box(iface, table, resource.denominator * sr_size)


def _executor_runs(monkeypatch, build):
    """Every (arguments, run) of ``run_box_protocol`` made while ``build()`` runs."""
    runs = []
    real = protocols.run_box_protocol

    def spy(*args, **kwargs):
        runs.append((args, kwargs, real(*args, **kwargs)))
        return runs[-1][-1]

    monkeypatch.setattr(protocols, "run_box_protocol", spy)
    build()
    return runs


def _assert_walk_agrees(monkeypatch, build):
    runs = _executor_runs(monkeypatch, build)
    assert runs
    for args, kwargs, run in runs:
        walked = _walk_protocol(*args, **kwargs)
        assert run.result == walked
        assert np.array_equal(run.result.table, walked.table)
        assert run.result.denominator == walked.denominator
        # the joint end keeps the same run's nonzero cells
        assert protocols.protocol_joint(*args, **kwargs) == walked.joint()


COMPLETIONS = {2: ("nosignaling", "signalinghalf", "plus", "minus", "three"),
               3: ("plus", "minus", "three")}
CONSTRUCTIONS = {
    "rac-via-bn": lambda n, d: [rac_via_bn_box(n)],
    "rac-via-bnd": lambda n, d: [rac_via_bnd_box(n, d, sign) for sign in ("plus", "minus")],
    "bn-via-rb": lambda n, d: [bn_box_via_rb(n, v) for v in COMPLETIONS[d]],
    "bnd-via-rb": lambda n, d: [bnd_box_via_rb(n, d, sign, v)
                                for sign in ("plus", "minus") for v in COMPLETIONS[d]],
    "resource-inequality": lambda n, d: [resource_inequality_sim(n, d, v) for v in COMPLETIONS[d]],
}


@pytest.mark.parametrize(
    "construction,n,d",
    [(c, n, d) for c in sorted(CONSTRUCTIONS) for n in (2, 3, 4) for d in (2, 3)
     if d == 2 or c not in ("rac-via-bn", "bn-via-rb")],
)
def test_executor_matches_the_reference_walk(monkeypatch, construction, n, d):
    _assert_walk_agrees(monkeypatch, lambda: CONSTRUCTIONS[construction](n, d))


@pytest.mark.parametrize(
    "strategy,n,d",
    [(name, n, d) for name in sorted(capacity.BUILTIN_STRATEGIES)
     for n, d in ((2, 2), (3, 2), (2, 3), (3, 3)) if n == 2 or name != "send-x1"],
)
def test_capacity_game_matches_the_reference_walk(monkeypatch, strategy, n, d):
    # the joint end against the walked box's joint, its derived wires appended by ``derive``
    joints = []
    real = capacity.protocol_joint

    def spy(name, resource, iface, derived, **protocol):
        joints.append((name, resource, iface, derived, protocol,
                       real(name, resource, iface, derived, **protocol)))
        return joints[-1][-1]

    monkeypatch.setattr(capacity, "protocol_joint", spy)
    variant = "signalinghalf" if d == 2 else "three"
    capacity.build_capacity_joint(capacity.BUILTIN_STRATEGIES[strategy](n, d), variant)
    ((name, resource, iface, derived, protocol, joint),) = joints
    walked = _walk_protocol(name, resource, iface, **protocol).joint()
    for table in derived:
        walked = derive(walked, table)
    assert joint == walked


def test_executor_sums_exactly_past_int64():
    # weight 1/3^45 on the signaling completion (which never signals from Bob
    # to Alice either): the mixture's denominator passes int64
    q = 3 ** 45
    nosig, half = make_rb(2, 2, "nosignaling"), make_rb(2, 2, "signalinghalf")
    den = lcm(nosig.denominator, half.denominator)
    mixture = Box(nosig.signature,
                  nosig.table.astype(object) * (den // nosig.denominator * (q - 1))
                  + half.table.astype(object) * (den // half.denominator), den * q)
    assert mixture.denominator > np.iinfo(np.int64).max and mixture.table.dtype == object
    # Bob feeds back the wrong A', so every cell is read off the A' = A branch
    kwargs = dict(
        alice_box_inputs=lambda a: (a["u"], a["w"]),
        bob_box_inputs=lambda b: ((b["m"] + 1) % 2, b["v"]),
        alice_outputs=lambda a: {},
        bob_outputs=lambda b: {"V": b["B"]},
        message=lambda a: a["A"],
        message_size=2,
        sr_size=2,
    )
    run = run_box_protocol("relay", mixture, _MUTE_IFACE, **kwargs)
    assert run.result.table.dtype == object
    walked = _walk_protocol("relay", mixture, _MUTE_IFACE, **kwargs)
    assert run.result == walked
    # the joint end sums in the same Python-int accumulator
    joint = protocol_joint("relay", mixture, _MUTE_IFACE, **kwargs)
    assert joint.counts.dtype == object and joint.denominator > np.iinfo(np.int64).max
    assert joint == walked.joint()


@pytest.mark.parametrize("dtype,numerators", [(np.int8, [[60, 60], [6, 1]]),
                                              (np.int16, [[10000, 10000], [9999, 1]])],
                         ids=["int8", "int16"])
def test_narrow_numerators_are_summed_exactly_in_int64(dtype, numerators):
    # one input row per side; (X, Y) drawn with the given numerators over their sum
    sig = BoxSignature(alice_inputs=(("x", 1),), alice_outputs=(("X", 2),),
                       bob_inputs=(("y", 1),), bob_outputs=(("Y", 2),))
    resource = Box(sig, np.array(numerators).reshape(1, 1, 2, 2), sum(map(sum, numerators)))
    assert resource.table.dtype == dtype
    iface = BoxSignature(alice_inputs=(("u", 1),), alice_outputs=(),
                         bob_inputs=(("v", 1),), bob_outputs=(("V", 2),))
    kwargs = dict(
        alice_box_inputs=lambda a: (0,),
        bob_box_inputs=lambda b: (0,),
        alice_outputs=lambda a: {},
        bob_outputs=lambda b: {"V": b["Y"]},
        sr_size=2,
    )
    run = run_box_protocol("narrow", resource, iface, **kwargs)
    walked = _walk_protocol("narrow", resource, iface, **kwargs)
    assert run.result == walked
    # the V = 0 cell sums both X rows over both s: past what the resource's dtype holds
    assert walked.prob((0, 0), (0,)) * resource.denominator * 2 > np.iinfo(dtype).max


def _product_box(first: Box, second: Box) -> Box:
    """The two boxes used side by side: each party's wires of ``first``, then of ``second``."""
    sigs = first.signature, second.signature
    sig = BoxSignature(*(getattr(sigs[0], side) + getattr(sigs[1], side)
                         for side in ("alice_inputs", "alice_outputs",
                                      "bob_inputs", "bob_outputs")))
    # each table as (Alice inputs, Bob inputs, A, B), then interleaved box by box
    flat = [box.table.astype(np.int64).reshape(
        [prod(s for _, s in getattr(box.signature, side))
         for side in ("alice_inputs", "bob_inputs", "alice_outputs", "bob_outputs")])
        for box in (first, second)]
    table = np.einsum("abcd,efgh->aebfcgdh", *flat)
    return Box(sig, table.reshape(sig.input_sizes + sig.output_sizes),
               first.denominator * second.denominator)


# 288 grid cells per Alice task row, 6 rows
@pytest.mark.parametrize("block_cells", [protocols.BLOCK_CELLS, 1000, 1],
                         ids=["one-block", "two-blocks", "six-blocks"])
def test_executor_matches_the_walk_on_a_multi_wire_resource(monkeypatch, block_cells):
    # a RAC-box beside a trit box: two output wires and three input wires a side,
    # alphabets of 2 and 3 mixed, so each wire's stride in the flat gather counts
    resource = _product_box(make_rb(2, 2, "nosignaling"), make_bnd_box(2, 3, "minus"))
    assert [len(w) for w in (resource.signature.alice_outputs, resource.signature.bob_inputs,
                             resource.signature.bob_outputs)] == [2, 3, 2]
    iface = BoxSignature(alice_inputs=(("u", 2), ("w", 3)), alice_outputs=(("U", 3),),
                         bob_inputs=(("v", 2), ("t", 2)), bob_outputs=(("V", 2), ("W", 3)))
    kwargs = dict(
        alice_box_inputs=lambda a: (a["u"], (a["u"] + a["s"]) % 2, a["w"]),
        bob_box_inputs=lambda b: (b["m"], b["v"], b["t"]),
        alice_outputs=lambda a: {"U": (a["X"] + a["A"]) % 3},
        bob_outputs=lambda b: {"V": b["B"], "W": (b["Y"] + b["s"]) % 3},
        message=lambda a: a["A"],
        message_size=2,
        sr_size=2,
    )
    monkeypatch.setattr(protocols, "BLOCK_CELLS", block_cells)
    run = run_box_protocol("side-by-side", resource, iface, **kwargs)
    walked = _walk_protocol("side-by-side", resource, iface, **kwargs)
    assert run.result == walked
    assert np.array_equal(run.result.table, walked.table)
