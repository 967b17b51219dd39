"""Box families: tables, normalization, signaling structure."""

from fractions import Fraction

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
    support,
    unnormalized_row,
)
from racbox.dists import ZERO

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
        assert row == (HALF, F(0), F(0), HALF)  # X = Y


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
    assert make_bnd_box(3, 2, "plus").table == make_bn_box(3).table


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
    box = Box(sig, {(0,): (HALF, HALF), (1,): (F(3, 2), F(-1, 2))})
    assert sum(box.table[(1,)]) == 1
    assert not check_normalization(box)
    assert unnormalized_row(box) == (1,)


def test_support_keeps_exactly_the_nonzero_cells():
    # zeros that are not the shared ZERO object are still dropped
    row = (ZERO, F(0), F(1, 3), F(0, 5), F(-1, 3), ZERO, F(1))
    assert support(row) == [(2, F(1, 3)), (4, F(-1, 3)), (6, F(1))]
    assert support((ZERO, F(0))) == []


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
