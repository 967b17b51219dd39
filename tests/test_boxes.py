"""Box families: tables, normalization, signaling structure."""

import hashlib
import itertools
import tracemalloc
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racbox import boxes, protocols
from racbox.boxes import (
    BND_SIGNS,
    DIRECTIONS,
    MAX_TABLE_CELLS,
    RB_VARIANTS,
    Box,
    BoxSignature,
    check_no_signaling,
    check_normalization,
    check_table_size,
    family_signature,
    make_bn_box,
    make_bnd_box,
    make_rb,
    signaling_row,
    sum_wires,
    unnormalized_row,
)
from racbox.boxio import parse_box, serialize_box
from racbox.dists import JointDistribution, condition, marginalize, sum_dtype

F = Fraction
HALF = F(1, 2)


def test_pr_box_table():
    box = make_bn_box(2)
    # X xor Y = x_1 y, outputs uniform on the satisfying pairs
    for x1 in range(2):
        for y in range(2):
            for X in range(2):
                for Y in range(2):
                    want = HALF if X ^ Y == (x1 & y) else F(0)
                    assert box.prob((x1, y), (X, Y)) == want


def test_bn_box_indexing_convention():
    # y = 0 always points at the first data bit, whose address offset is 0
    box = make_bn_box(4)
    for x in range(8):  # x_1 x_2 x_3
        row = box.table[(x >> 2 & 1, x >> 1 & 1, x & 1, 0)]
        assert box.denominator == 2
        assert row.tolist() == [[1, 0], [0, 1]]  # X = Y, each with probability 1/2


@pytest.mark.parametrize("n,d", [(2, 2), (4, 3)])
def test_both_families_and_the_protocols_share_the_family_signature(n, d):
    sig = family_signature(n, d)
    assert [nm for nm, _ in sig.all_vars] == [f"x_{i}" for i in range(1, n)] + ["X", "y", "Y"]
    assert sig.input_sizes == (d,) * (n - 1) + (n,) and sig.output_sizes == (d, d)
    assert make_bnd_box(n, d, "minus").signature == sig
    assert protocols.bnd_box_via_rb(n, d, "plus").result.signature == sig
    run, _ = protocols.resource_inequality_sim(n, d)
    assert protocols.induced_bbox(run, 0).signature == sig
    if d == 2:
        assert make_bn_box(n).signature == sig


@pytest.mark.parametrize("n,d", [(1, 2), (2, 1)])
def test_family_signature_refuses_a_degenerate_size(n, d):
    with pytest.raises(ValueError, match="need"):
        family_signature(n, d)


def test_prob_rejects_output_symbols_outside_the_alphabet():
    box = make_bn_box(2)
    for outvals in ((0, -1), (0, 2)):
        with pytest.raises(ValueError, match="out of range"):
            box.prob((0, 0), outvals)


def test_prob_rejects_assignments_outside_the_signature():
    box = make_bn_box(2)
    for outvals in ((0,), (1, 1, 1)):
        with pytest.raises(ValueError, match="output values for 2 output wires"):
            box.prob((0, 0), outvals)
    for invals in ((0,), (0, 5)):
        with pytest.raises(ValueError, match="not in the box's input space"):
            box.prob(invals, (0, 0))


def test_bn_box_targets_addressed_bit():
    box = make_bn_box(3)
    # y = 2 asks for x_2: X xor Y must equal x_2
    for x1 in range(2):
        for x2 in range(2):
            for X in range(2):
                Y = X ^ x2
                assert box.prob((x1, x2, 2), (X, Y)) == HALF


def test_bnd_box_plus_and_minus_tables():
    for sign, combine in (("plus", lambda a, b: (a + b) % 3), ("minus", lambda a, b: (a - b) % 3)):
        box = make_bnd_box(2, 3, sign)
        for x1 in range(3):
            for y in range(2):
                target = 0 if y == 0 else x1
                for X in range(3):
                    for Y in range(3):
                        want = F(1, 3) if combine(X, Y) == target else F(0)
                        assert box.prob((x1, y), (X, Y)) == want


def test_bnd_reduces_to_bn_at_d2():
    bnd, bn = make_bnd_box(3, 2, "plus"), make_bn_box(3)
    assert bnd.denominator == bn.denominator
    assert np.array_equal(bnd.table, bn.table)
    assert bnd == bn


def test_rb_nosignaling_table():
    rb = make_rb(2, 2, "nosignaling")
    # A is a fair coin; B = a_b xor A xor A' deterministically given A
    for a0 in range(2):
        for a1 in range(2):
            for Ap in range(2):
                for b in range(2):
                    for A in range(2):
                        B = (a0, a1)[b] ^ A ^ Ap
                        assert rb.prob((a0, a1, Ap, b), (A, B)) == HALF
                        assert rb.prob((a0, a1, Ap, b), (A, B ^ 1)) == F(0)


def test_rb_signalinghalf_splits_directions():
    rb = make_rb(2, 2, "signalinghalf")
    assert check_no_signaling(rb, "b2a")
    assert not check_no_signaling(rb, "a2b")


def test_rb_three_spreads_wrong_symbols():
    rb = make_rb(2, 3, "three")
    # on A' != A the reply avoids a_b and is uniform over the d-1 others
    a = (1, 2)
    for Ap in range(3):
        for b in range(2):
            for A in range(3):
                for B in range(3):
                    p = rb.prob(a + (Ap, b), (A, B))
                    if Ap == A:
                        assert p == (F(1, 3) if B == a[b] else F(0))
                    else:
                        assert p == (F(0) if B == a[b] else F(1, 6))


@pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
@pytest.mark.parametrize("variant,sign", [("plus", 1), ("minus", -1)])
def test_rb_plus_and_minus_follow_their_group_law(n, d, variant, sign):
    # B = a_b on A' = A; off it B = a_b -_d A +_d A' (plus) or a_b +_d A -_d A'
    # (minus); A is uniform, so each cell is 1/d or 0
    rb = make_rb(n, d, variant)
    assert rb.denominator == d
    for row in itertools.product(*map(range, rb.signature.input_sizes)):
        a, aprime, b = row[:n], row[n], row[n + 1]
        for A in range(d):
            want = a[b] if aprime == A else (a[b] - sign * (A - aprime)) % d
            assert rb.table[row + (A,)].tolist() == [int(B == want) for B in range(d)]


TABLE_DIGESTS = Path(__file__).parent / "golden" / "box-tables.sha256"


def _table_digest(box):
    table = box.table
    digest = hashlib.sha256(f"{table.dtype.str} {table.shape} {box.denominator}\n".encode())
    digest.update(table.tobytes())
    return digest.hexdigest()


def test_every_swept_table_keeps_its_recorded_digest():
    recorded = {}
    for line in TABLE_DIGESTS.read_text().splitlines():
        if not line.startswith("#"):
            family, n, d, variant, digest = line.split()
            recorded[family, int(n), int(d), variant] = digest
    # every family, sign and completion at each (n, d) the signaling sweep builds
    sizes = range(2, 6)
    want = {("bn", n, 2, "-") for n in sizes}
    want |= {("bnd", n, d, sign) for n in sizes for d in sizes for sign in BND_SIGNS}
    want |= {("rb", n, d, variant) for n in sizes for d in sizes for variant in RB_VARIANTS
             if d == 2 or variant not in ("nosignaling", "signalinghalf")}
    assert set(recorded) == want
    for (family, n, d, variant), digest in recorded.items():
        if family == "bn":
            box = make_bn_box(n)
        else:
            box = (make_bnd_box if family == "bnd" else make_rb)(n, d, variant)
        assert _table_digest(box) == digest, (family, n, d, variant)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bn_box_no_signaling_both_ways(n):
    box = make_bn_box(n)
    assert check_normalization(box)
    assert check_no_signaling(box, "a2b")
    assert check_no_signaling(box, "b2a")


@pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_bnd_box_no_signaling_both_ways(n, d, sign):
    box = make_bnd_box(n, d, sign)
    assert check_normalization(box)
    assert check_no_signaling(box, "a2b")
    assert check_no_signaling(box, "b2a")


@pytest.mark.parametrize("variant", ["nosignaling", "plus", "minus", "three"])
def test_rb_variants_no_signaling_b2a(variant):
    d = 2 if variant in ("nosignaling", "signalinghalf") else 3
    rb = make_rb(3, d, variant)
    assert check_normalization(rb)
    assert check_no_signaling(rb, "b2a")


def test_rb_variants_catalog():
    assert set(RB_VARIANTS) == {"nosignaling", "signalinghalf", "plus", "minus", "three"}
    with pytest.raises(ValueError):
        make_rb(2, 2, "bogus")
    with pytest.raises(ValueError):
        make_rb(2, 3, "nosignaling")  # the bit variants require d = 2
    with pytest.raises(ValueError):
        make_bnd_box(2, 3, "xor")


def blind_guess(rb, index):
    """P(B = a_index | b = index) under uniform inputs, A' uniform and uninformed."""
    guess = marginalize(condition(rb.joint(), {"b": index}), [f"a_{index}", "B"])
    return sum((F(count, guess.denominator) for (a, b), count
                in zip(guess.keys.tolist(), guess.counts.tolist()) if a == b), F(0))


def test_blind_guess_probability():
    # without signaling, Bob's best guess of a_j from his own wires is chance
    rb = make_rb(2, 2, "nosignaling")
    assert blind_guess(rb, 0) == HALF
    rb = make_rb(2, 2, "signalinghalf")
    assert blind_guess(rb, 0) > HALF


def test_negative_cell_fails_normalization_although_the_row_sums_to_one():
    sig = BoxSignature(
        alice_inputs=(("x", 2),), alice_outputs=(("X", 2),), bob_inputs=(), bob_outputs=()
    )
    box = Box(sig, np.array([[1, 1], [3, -1]]), 2)
    assert box.table[1].sum() == box.denominator
    assert not check_normalization(box)
    assert unnormalized_row(box) == (1,)


def test_oversized_tables_are_refused_before_building():
    check_table_size((MAX_TABLE_CELLS, 1))
    with pytest.raises(ValueError, match="more than the limit"):
        check_table_size((MAX_TABLE_CELLS, 2))
    # 2^29 * 30 input rows times 4 output cells: refused without building a row
    with pytest.raises(ValueError, match="64424509440 cells .* more than the limit"):
        make_bn_box(30)
    # the largest box the tests build stays inside the limit
    rb_5_5 = BoxSignature(
        tuple((f"a_{i}", 5) for i in range(5)), (("A", 5),), (("Aprime", 5), ("b", 5)), (("B", 5),)
    )
    check_table_size(rb_5_5.input_sizes + rb_5_5.output_sizes)


@pytest.mark.parametrize("build", [lambda: make_bn_box(10**6), lambda: make_bnd_box(10**6, 3, "plus"),
                                   lambda: make_rb(10**6, 2, "plus")])
def test_a_huge_family_is_refused_before_its_wires_are_named(build):
    # 10^6 wire names would take about a second, and the exact count has
    # more digits than Python formats; the product stops past the square of the limit
    with pytest.raises(ValueError, match=f"more than {MAX_TABLE_CELLS**2} cells .* more than the limit"):
        build()


def test_a_size_error_keeps_its_place_behind_the_argument_checks():
    with pytest.raises(ValueError, match="need d >= 2"):
        make_bnd_box(10**8, 1, "plus")
    with pytest.raises(ValueError, match="sign must be"):
        make_bnd_box(10**6, 2, "times")
    with pytest.raises(ValueError, match="variant must be"):
        make_rb(10**6, 2, "other")


def test_unreduced_denominator_is_brought_to_lowest_terms():
    box = make_rb(2, 3, "three")
    tripled = Box(box.signature, box.table.astype(np.int64) * 3, box.denominator * 3)
    assert tripled == box
    assert tripled.denominator == box.denominator == 6
    assert tripled.table.dtype == box.table.dtype


def test_numerators_use_the_narrowest_integer_type():
    # 1.95 million cells over denominator 20
    box = make_rb(5, 5, "three")
    assert box.denominator == 20
    assert box.table.dtype == np.int8
    assert box.table.size == 5**7 * 25
    with pytest.raises(ValueError, match="read-only"):
        box.table[(0,) * 9] = 1


def _verdicts(box):
    return (unnormalized_row(box), signaling_row(box, "a2b"), signaling_row(box, "b2a"))


def test_a_box_owns_its_table():
    sig = BoxSignature((("x", 2),), (("X", 2),), (), ())
    want = Box(sig, [[1, 1], [1, 1]], 2)
    # kept as it is, so locked: a write through the source, or through the array
    # it is a view of, raises
    owner = np.ones(8, dtype=np.int8)
    for source in (np.ones((2, 2), dtype=np.int8), owner[:4].reshape(2, 2),
                   np.ones((2, 2), dtype=bool)):
        box = Box(sig, source, 2)
        assert box == want and np.shares_memory(box.table, source)
        for target in (source, source.base):
            if target is not None:
                with pytest.raises(ValueError, match="read-only"):
                    target[...] = 0
    # memory no array owns is copied, so a write to it leaves the box as it was
    buffer = bytearray(b"\x01" * 4)
    copied = Box(sig, np.frombuffer(buffer, dtype=np.int8).reshape(2, 2), 2)
    verdicts = _verdicts(copied)
    buffer[:] = b"\x02" * 4
    assert copied.table.tolist() == [[1, 1], [1, 1]] and copied == want
    assert _verdicts(copied) == verdicts == (None, None, None)
    # a table brought to other terms is a new array: the source stays the caller's
    wide = np.full((2, 2), 3, dtype=np.int64)
    assert Box(sig, wide, 6) == want
    wide[:] = 2
    assert Box(sig, wide, 4) == want


def test_each_party_marginal_is_summed_once_per_box(monkeypatch):
    box = make_rb(3, 3, "three")
    summed = []

    def counting(table, start, stop):
        summed.append(table.size)
        return sum_wires(table, start, stop)

    monkeypatch.setattr(boxes, "sum_wires", counting)
    assert check_normalization(box)
    assert all(check_no_signaling(box, direction) for direction in DIRECTIONS)
    # the whole table is read twice, once per party; the row sums read Alice's
    # marginal, a third of the table (B is a trit)
    assert summed.count(box.table.size) == 2
    assert summed == [box.table.size, box.table.size // 3, box.table.size]
    for marginal in (box.alice_marginal, box.bob_marginal):
        assert not marginal.flags.writeable
    # checking again reads the kept marginals: only the row sums are summed again
    assert _verdicts(box) == (None, None, None)
    assert summed[3:] == [box.table.size // 3]


# two coprime denominators whose lcm passes 2^63: the table falls back to Python ints
P, Q = 2**61 - 1, 2**62 + 1
HUGE_DENOMINATORS = (
    "var alice input x 2\nvar alice output X 2\nvar bob input y 2\nvar bob output Y 1\n\n"
    f"0 0 : 0 0 = 1/{P}\n0 0 : 1 0 = {P - 1}/{P}\n"
    f"0 1 : 0 0 = 1/{P}\n0 1 : 1 0 = {P - 2}/{P}\n"
    f"1 0 : 0 0 = 1/{Q}\n1 0 : 1 0 = {Q - 1}/{Q}\n"
    f"1 1 : 0 0 = 1/{Q}\n1 1 : 1 0 = {Q - 1}/{Q}\n"
)


def test_denominators_past_int64_stay_exact():
    box = parse_box(HUGE_DENOMINATORS)
    assert box.denominator == P * Q > 2**63
    assert box.table.dtype == object
    assert serialize_box(box) == HUGE_DENOMINATORS
    assert parse_box(serialize_box(box)) == box
    # row (0, 1) sums to 1 - 1/P, which a float sum rounds to 1
    assert float(F(1, P)) + float(F(P - 2, P)) == 1.0
    assert unnormalized_row(box) == (0, 1)
    assert not check_normalization(box)
    # with a one-symbol Y, Bob's marginal is the row sum: (1, 1) differs from (0, 1)
    assert signaling_row(box, "a2b") == (1, 1)
    assert not check_no_signaling(box, "a2b")
    # Alice's marginal at x = 0 moves from y = 0 to y = 1
    assert signaling_row(box, "b2a") == (0, 1)
    assert not check_no_signaling(box, "b2a")
    assert box.prob((0, 1), (1, 0)) == F(P - 2, P)


def test_signaling_row_names_the_first_row_that_moves_the_receiver():
    rb = make_rb(3, 2, "signalinghalf")
    # (a_0, a_1, a_2, A', b): a_2 = 1 first changes Bob's marginal when b = 2
    assert signaling_row(rb, "a2b") == (0, 0, 1, 0, 2)
    assert signaling_row(rb, "b2a") is None
    assert signaling_row(make_rb(3, 2, "nosignaling"), "a2b") is None


# --- the reference: one np.sum per check, as the checks were first written ---


def reference_unnormalized_row(box):
    rows = box.table.reshape(prod(box.signature.input_sizes), -1)
    sums = rows.sum(axis=1, dtype=sum_dtype(rows))
    flagged = np.flatnonzero((rows < 0).any(axis=1) | (sums != box.denominator))
    if not flagged.size:
        return None
    return tuple(int(v) for v in np.unravel_index(flagged[0], box.signature.input_sizes))


def reference_signaling_row(box, direction):
    sig = box.signature
    n_in = len(sig.input_sizes)
    first_bob_out = n_in + len(sig.alice_outputs)
    if direction == "a2b":
        summed = tuple(range(n_in, first_bob_out))
    else:
        summed = tuple(range(first_bob_out, box.table.ndim))
    marg = box.table.sum(axis=summed, dtype=sum_dtype(box.table)).reshape(
        prod(s for _, s in sig.alice_inputs), prod(s for _, s in sig.bob_inputs), -1
    )
    ref = marg[:1] if direction == "a2b" else marg[:, :1]
    flagged = np.flatnonzero((marg != ref).any(axis=2))
    if not flagged.size:
        return None
    return tuple(int(v) for v in np.unravel_index(flagged[0], sig.input_sizes))


def assert_checks_match_the_reference(box):
    assert unnormalized_row(box) == reference_unnormalized_row(box)
    for direction in ("a2b", "b2a"):
        assert signaling_row(box, direction) == reference_signaling_row(box, direction)


def _families(top):
    for n in range(2, top + 1):
        yield make_bn_box(n)
        for d in range(2, top + 1):
            for sign in BND_SIGNS:
                yield make_bnd_box(n, d, sign)
            for variant in RB_VARIANTS:
                if d == 2 or variant not in ("nosignaling", "signalinghalf"):
                    yield make_rb(n, d, variant)


def test_checks_match_the_reference_on_every_family_up_to_four():
    boxes = list(_families(4))
    assert len(boxes) == 3 * (1 + 3 * 2 + 2 + 3 * 3)
    for box in boxes:
        assert_checks_match_the_reference(box)


def test_checks_match_the_reference_on_parsed_boxes():
    golden = Path(__file__).parent / "golden" / "rb-mixture.box"
    for box in (parse_box(golden.read_text()), parse_box(HUGE_DENOMINATORS)):
        assert_checks_match_the_reference(box)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_moving_one_unit_of_mass_flags_the_reference_row(data):
    n = data.draw(st.integers(2, 3))
    d = data.draw(st.integers(2, 3))
    variant = data.draw(st.sampled_from(("plus", "minus", "three") + (("nosignaling",) * (d == 2))))
    box = make_rb(n, d, variant)
    table = box.table.astype(np.int64)
    row = tuple(data.draw(st.integers(0, s - 1)) for s in box.signature.input_sizes)
    cells = table[row]  # a view of the row's output cells
    src, dst = data.draw(st.lists(st.integers(0, cells.size - 1), min_size=2, max_size=2,
                                  unique=True))
    cells.flat[src] -= 1
    cells.flat[dst] += 1
    moved = Box(box.signature, table, box.denominator)
    assert_checks_match_the_reference(moved)
    # the mass stays in the row, so only a negative cell breaks normalization
    assert (unnormalized_row(moved) is None) == (table.min() >= 0)


def accumulator_rule(dtype, run):
    """The narrowest of int16, int32 and int64 that holds ``run`` times the largest
    magnitude ``dtype`` can store, never wider than int64; object stays object."""
    if dtype == object:
        return np.dtype(object)
    magnitude = run * -int(np.iinfo(dtype).min)
    wider = [t for t in (np.int16, np.int32) if np.dtype(t).itemsize > np.dtype(dtype).itemsize]
    return next((np.dtype(t) for t in wider if magnitude <= np.iinfo(t).max), np.dtype(np.int64))


# (rows, run, trailing) shapes on both sides of each threshold of sum_wires: np.sum
# past a run of 1/64 the result, and the column-by-column nest for 2 to 7
# trailing cells under 256 rows or more, in chunks of 1,024 rows or more
SUM_GRID = [
    (rows, run, trailing)
    for rows in (64, 255, 256, 1023, 1024, 78_125)
    for run in (1, 2, 5, 25, 300)
    for trailing in (1, 2, 5, 7, 8, 64)
    if rows * run * trailing <= 2**21
]


def _random_table(rng, shape, dtype):
    top = {np.int8: 127, np.int16: 2**15 - 1, np.int64: 2**40, object: 2**100}[dtype]
    return rng.integers(-127, 128, size=shape).astype(dtype) * (top // 127)


def test_sum_wires_equals_np_sum():
    rng = np.random.default_rng(2024)
    for dtype in (np.int8, np.int16, np.int64, object):
        layouts = set()
        for rows, run, trailing in SUM_GRID:
            if dtype is object and rows * run * trailing > 2**16:
                continue
            table = _random_table(rng, (rows, run, trailing), dtype)
            got = sum_wires(table, 1, 2)
            want = table.sum(axis=1, dtype=sum_dtype(table))
            assert got.dtype == accumulator_rule(table.dtype, run), (dtype, rows, run, trailing)
            assert np.array_equal(got, want), (dtype, rows, run, trailing)
            layouts.add((got.flags.c_contiguous, trailing > 1))
        # the column-by-column nest leaves its result trailing-major: both nests ran
        assert layouts == {(True, False), (True, True), (False, True)}, dtype


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sum_wires_equals_np_sum_over_several_wires_and_strided_views(data):
    dtype = data.draw(st.sampled_from((np.int8, np.int16, np.int64, object)))
    head, tail = (data.draw(st.lists(st.integers(1, 4), max_size=1)) for _ in range(2))
    run = data.draw(st.lists(st.integers(1, 3), max_size=2))
    # a leading axis of 1 leaves too few result cells for the slice loop, so
    # np.sum runs; one of 64 x the run's cells adds the run's slices one by one,
    # by columns when 2 to 7 trailing cells lie under 256 rows or more.  The
    # sizes keep a table at most 64 * 9 * 9 * 4 * 4 = 82,944 cells.
    lead = data.draw(st.sampled_from((1, 64 * prod(run))))
    shape = (lead, *head, *run, *tail)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = _random_table(rng, shape, dtype)
    if data.draw(st.booleans()):  # a strided view, as a sliced box table is
        table = np.stack([table, -table], axis=-1)[..., 0]
    start = 1 + len(head)
    stop = start + len(run)
    got = sum_wires(table, start, stop)
    want = table.sum(axis=tuple(range(start, stop)), dtype=sum_dtype(table))
    assert got.shape == want.shape and got.dtype == accumulator_rule(table.dtype, prod(run))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype,value,lead,run,post,want", [
    # int16 holds 255 x 128 but not 256 x 128
    (np.int8, -128, 1, 255, 3, np.int16),
    (np.int8, 127, 1, 256, 3, np.int32),
    # 300 x 127 = 38,100 passes int16: summed by np.sum, then slice by slice
    (np.int8, 127, 2, 300, 3, np.int32),
    (np.int8, -127, 1, 300, 64 * 300, np.int32),
    (np.int16, -2**15, 2, 65_535, 1, np.int32),
    (np.int16, 2**15 - 1, 2, 65_536, 1, np.int64),
    (np.int32, 2**31 - 1, 1, 3, 64 * 3, np.int64),
    (np.int64, 2**61, 1, 3, 64 * 3, np.int64),
    (np.int64, -2**61, 2, 3, 2, np.int64),
    (object, 2**100, 1, 3, 64 * 3, object),
    (object, -2**100, 2, 300, 3, object),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_sum_wires_accumulates_in_the_narrowest_exact_type(dtype, value, lead, run, post, want):
    table = np.full((lead, run, post), value, dtype=dtype)
    got = sum_wires(table, 1, 2)
    assert got.dtype == np.dtype(want) == accumulator_rule(table.dtype, run)
    assert got.shape == (lead, post) and (got == run * value).all()


@pytest.mark.parametrize("dtype,scale", [(np.int64, 1), (object, 2**70)], ids=["int64", "object"])
def test_lowest_terms_reads_past_the_first_gcd_blocks(dtype, scale):
    # every numerator is 3 * scale over 3 * scale, but for one cell past the
    # first two gcd blocks (4,096 + 16,384 cells)
    sig = BoxSignature((("x", 30_000),), (("X", 1),), (), ())
    table = np.full((30_000, 1), 3 * scale, dtype=dtype)
    table[25_000, 0] = scale
    den = 3 * scale
    variables = sig.input_vars + sig.output_vars
    kept = Box(sig, table, den)
    assert kept.denominator == 3
    assert kept.table[25_000, 0] == 1 and kept.table[0, 0] == 3
    # a joint reads its cells through the same blocks
    joint = JointDistribution.from_table(variables, table, den)
    assert joint.denominator == 3
    assert joint.counts[25_000] == 1 and joint.counts[0] == 3
    table[25_000, 0] = 6 * scale
    reduced = Box(sig, table, den)
    assert reduced.denominator == 1
    assert reduced.table[25_000, 0] == 2 and reduced.table[0, 0] == 1
    joint = JointDistribution.from_table(variables, table, den)
    assert joint.denominator == 1
    assert joint.counts[25_000] == 2 and joint.counts[0] == 1


def test_lowest_terms_stops_at_the_first_block_with_gcd_one(monkeypatch):
    sizes = []

    def reduce(cells, *args, **kwargs):
        sizes.append(cells.size)
        return gcd.reduce(cells, *args, **kwargs)

    gcd = np.gcd
    monkeypatch.setattr(np, "gcd", SimpleNamespace(reduce=reduce))
    box = make_rb(5, 5, "three")
    assert box.table.size == 5**9 and box.denominator == 20
    assert sizes == [4096]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checks_make_no_full_table_int64_copy():
    rb = make_rb(5, 5, "three")
    marginal = rb.table.size // 5 * np.dtype(np.int64).itemsize  # Bob's (A summed away)

    def checks():
        assert check_normalization(rb)
        assert all(check_no_signaling(rb, direction) for direction in ("a2b", "b2a"))

    assert _traced_peak(checks) < 2 * marginal


def test_lemma1_witness_makes_no_int64_table_copies():
    table_bytes = make_rb(5, 5, "plus").table.nbytes
    # a single int64 copy of one table is 8 tables' worth
    assert _traced_peak(protocols.verify_lemma1, 5, 5) < 8 * table_bytes


@pytest.mark.parametrize("n,d,variant,index,want", [
    (3, 2, "signalinghalf", 2, F(3, 4)),
    (3, 2, "nosignaling", 1, HALF),
    (4, 3, "three", 3, F(1, 3)),
    (3, 4, "plus", 0, F(1, 4)),
    (2, 5, "minus", 1, F(1, 5)),
])
def test_blind_guess_is_chance_unless_the_box_signals(n, d, variant, index, want):
    assert blind_guess(make_rb(n, d, variant), index) == want
