"""Box families: tables, normalization, signaling structure."""

from fractions import Fraction

import numpy as np
import pytest

from racbox.boxes import (
    MAX_TABLE_CELLS,
    RB_VARIANTS,
    Box,
    BoxSignature,
    check_no_signaling,
    check_normalization,
    check_table_size,
    make_bn_box,
    make_bnd_box,
    make_rb,
    rb_blind_guess_probability,
    signaling_row,
    unnormalized_row,
)
from racbox.boxio import parse_box, serialize_box

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


def test_blind_guess_probability():
    # without signaling, Bob's best guess of a_j from his own wires is chance
    rb = make_rb(2, 2, "nosignaling")
    assert rb_blind_guess_probability(rb, 0) == HALF
    rb = make_rb(2, 2, "signalinghalf")
    assert rb_blind_guess_probability(rb, 0) > HALF


def test_negative_cell_fails_normalization_although_the_row_sums_to_one():
    sig = BoxSignature(
        alice_inputs=(("x", 2),), alice_outputs=(("X", 2),), bob_inputs=(), bob_outputs=()
    )
    box = Box(sig, np.array([[1, 1], [3, -1]]), 2)
    assert box.table[1].sum() == box.denominator
    assert not check_normalization(box)
    assert unnormalized_row(box) == (1,)


def test_oversized_tables_are_refused_before_building():
    def sig(rows, outs):
        return BoxSignature((("x", rows),), (("X", outs),), (), ())

    check_table_size(sig(MAX_TABLE_CELLS, 1))
    with pytest.raises(ValueError, match="more than the limit"):
        check_table_size(sig(MAX_TABLE_CELLS, 2))
    # 2^29 * 30 input rows times 4 output cells: refused without building a row
    with pytest.raises(ValueError, match="more than the limit"):
        make_bn_box(30)
    # the largest box the tests build stays inside the limit
    check_table_size(BoxSignature(
        tuple((f"a_{i}", 5) for i in range(5)), (("A", 5),), (("Aprime", 5), ("b", 5)), (("B", 5),)
    ))


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
