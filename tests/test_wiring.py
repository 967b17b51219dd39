"""Concatenation trees: costs, exact decoding, noisy winning probabilities."""

import math
from fractions import Fraction

import pytest

from racbox import wiring
from racbox.wiring import (
    MAX_TABLE_N,
    FlatTree,
    Leaf,
    MalformedTreeError,
    RBNode,
    add,
    bound_table,
    check_tree_lemma,
    compile_rac,
    concatenate,
    flatten,
    format_bound_table,
    path_success,
    to_dot,
    tree_win_probability_exact,
    tree_wins_always,
    winning_probability,
    winning_probability_oracle,
)

F = Fraction
QUANTUM = (2 + math.sqrt(2)) / 4


def test_concatenate_shapes():
    assert flatten(concatenate(0)).leaves == 1
    flat = flatten(concatenate(2))
    assert flat.leaves == 4
    assert len(flat.boxes) == 3
    with pytest.raises(ValueError):
        concatenate(-1)


def test_node_reuse_is_rejected():
    shared = Leaf()
    tree = RBNode(shared, shared)
    with pytest.raises(MalformedTreeError, match="twice"):
        check_tree_lemma(tree)


@pytest.mark.parametrize("evaluate", [
    flatten,
    check_tree_lemma,
    tree_wins_always,
    tree_win_probability_exact,
    lambda tree: winning_probability(tree, F(3, 4)),
    lambda tree: winning_probability_oracle(tree, F(3, 4)),
    to_dot,
], ids=["flatten", "check_tree_lemma", "tree_wins_always",
        "tree_win_probability_exact", "winning_probability", "winning_probability_oracle",
        "to_dot"])
def test_every_evaluator_rejects_a_reused_box(evaluate):
    # one physical box with two parents: refused, never scored or drawn
    shared = RBNode(Leaf(), Leaf())
    with pytest.raises(MalformedTreeError, match="twice"):
        evaluate(RBNode(shared, shared))


def test_foreign_node_type_is_rejected():
    with pytest.raises(MalformedTreeError, match="foreign"):
        flatten(RBNode(Leaf(), "x"))


def test_flat_form_of_the_three_bit_code():
    # x0 joined with a depth-1 tree of x1, x2: the inner box comes first
    tree, _ = compile_rac(3)
    flat = flatten(tree)
    assert flat.leaves == 3
    assert flat.boxes == ((1, 2), (0, 3))  # wires 0..2 are bits, 3 and 4 boxes
    assert flat.root == 4
    assert flat.paths == (((1, 0),), ((1, 1), (0, 0)), ((1, 1), (0, 1)))
    assert flatten(Leaf()) == FlatTree(leaves=1, boxes=(), root=0, paths=((),))


def test_fresh_equal_subtrees_are_fine():
    tree = RBNode(Leaf(), Leaf())
    assert check_tree_lemma(tree).passed


@pytest.mark.parametrize("n", range(2, 17))
def test_compiled_cost_is_n_minus_1_boxes(n):
    tree, cost = compile_rac(n)
    assert cost.rb_count == n - 1
    assert cost.message_bits == 1
    flat = flatten(tree)
    assert cost.rb_count == len(flat.boxes)
    assert flat.leaves == n
    assert cost.concatenation_uses == bin(n).count("1")
    assert cost.addition_uses == bin(n).count("1") - 1


@pytest.mark.parametrize("n", range(2, 17))
def test_tree_lemma_on_compiled_trees(n):
    tree, _ = compile_rac(n)
    report = check_tree_lemma(tree)
    assert report.passed
    assert report.quantity == F(n)
    assert report.bound == F(n)  # leaves == internals + 1 exactly


@pytest.mark.parametrize("n", range(2, 11))
def test_compiled_tree_decodes_perfectly(n):
    tree, _ = compile_rac(n)
    assert tree_wins_always(tree)
    assert tree_win_probability_exact(tree) == 1


def test_leaf_paths_cover_all_positions():
    tree, _ = compile_rac(6)
    paths = flatten(tree).paths
    assert len(paths) == 6
    assert len(set(paths)) == 6


def test_path_success_recursion_values():
    assert path_success(1, F(3, 4)) == F(3, 4)
    assert path_success(2, F(3, 4)) == F(5, 8)
    assert path_success(3, F(3, 4)) == F(9, 16)
    # length 0 means the answer is already in hand
    assert path_success(0, F(3, 4)) == 1


def test_win_probability_frozen_values():
    tree2, _ = compile_rac(2)
    assert winning_probability(tree2, F(3, 4)) == F(3, 4)
    assert abs(winning_probability(tree2, QUANTUM) - 0.8535533905932737) < 1e-12

    tree3, _ = compile_rac(3)
    assert winning_probability(tree3, F(3, 5)) == F(41, 75)
    assert abs(winning_probability(tree3, QUANTUM) - 0.7845177968644247) < 1e-12

    tree5, _ = compile_rac(5)
    assert winning_probability(tree5, F(3, 4)) == F(3, 5)

    tree7, _ = compile_rac(7)
    assert winning_probability(tree7, F(3, 4)) == F(4, 7)
    assert abs(winning_probability(tree7, QUANTUM) - 0.687237167397117) < 1e-12

    # a perfect depth-3 tree serves 8 bits at the pure path value
    tree8, _ = compile_rac(8)
    assert abs(path_success(3, QUANTUM) - 0.6767766952966369) < 1e-12
    assert abs(winning_probability(tree8, QUANTUM) - 0.6767766952966369) < 1e-12


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("p2", [0.6, 0.75, QUANTUM])
def test_recursion_matches_flip_pattern_oracle(n, p2):
    tree, _ = compile_rac(n)
    fast = winning_probability(tree, p2)
    slow = winning_probability_oracle(tree, p2)
    assert abs(fast - slow) < 1e-12


def test_recursion_matches_oracle_exactly_on_rationals():
    tree, _ = compile_rac(5)
    p2 = F(2, 3)
    assert winning_probability(tree, p2) == winning_probability_oracle(tree, p2)


def test_a_compiled_code_evaluates_each_path_length_once(monkeypatch):
    lengths = []

    def counted(length, p2):
        lengths.append(length)
        return path_success(length, p2)

    monkeypatch.setattr(wiring, "path_success", counted)
    # every one of the 4,096 leaves sits 12 boxes deep: 1/2 + (2 p2 - 1)^12 / 2
    assert winning_probability(compile_rac(4096)[0], F(3, 4)) == F(1, 2) + F(1, 2) ** 13
    assert lengths == [12]
    lengths.clear()
    tree, _ = compile_rac(375)
    winning_probability(tree, F(3, 4))
    assert sorted(lengths) == sorted({len(path) for path in flatten(tree).paths})


@pytest.mark.parametrize("p2", [0.75, QUANTUM])
def test_float_win_probability_is_the_per_leaf_sum_bit_for_bit(p2):
    for n in range(2, 65):
        tree, _ = compile_rac(n)
        paths = flatten(tree).paths
        per_leaf = sum(path_success(len(path), p2) for path in paths) / len(paths)
        assert winning_probability(tree, p2) == per_leaf


def test_fair_box_gives_fair_coin():
    tree, _ = compile_rac(4)
    assert winning_probability(tree, F(1, 2)) == F(1, 2)


@pytest.mark.parametrize("p2", [F(-1, 4), 1.7, float("nan")])
def test_win_probability_rejects_p2_outside_the_unit_interval(p2):
    tree, _ = compile_rac(3)
    with pytest.raises(ValueError, match="outside"):
        winning_probability(tree, p2)


@pytest.mark.parametrize("p2", [F(-1, 4), 1.7, float("nan")])
def test_path_success_rejects_p2_outside_the_unit_interval(p2):
    with pytest.raises(ValueError, match="outside"):
        path_success(2, p2)


def test_path_success_rejects_a_negative_length():
    with pytest.raises(ValueError, match="negative"):
        path_success(-1, F(1, 2))


def test_bound_table_rows():
    rows = bound_table([2, 7], [0.75, QUANTUM])
    assert rows[0].n == 2 and rows[0].rb_count == 1
    assert rows[1].n == 7 and rows[1].rb_count == 6
    assert abs(float(rows[1].values[1]) - 0.687237167397117) < 1e-12
    text = format_bound_table(rows, ["p2=0.75", "p2=quantum"])
    assert "0.687237" in text



def test_bound_table_refuses_an_n_past_its_cap_before_compiling(monkeypatch):
    compiled = []
    monkeypatch.setattr(wiring, "compile_rac", compiled.append)
    with pytest.raises(ValueError, match=rf"^n={MAX_TABLE_N + 1} exceeds the table cap of {MAX_TABLE_N}"):
        bound_table(range(2, MAX_TABLE_N + 2), [0.75])
    assert compiled == []

def test_to_dot_mentions_every_leaf():
    tree, _ = compile_rac(3)
    dot = to_dot(tree)
    assert dot.startswith("digraph")
    for i in range(3):
        assert f'label="x{i}"' in dot
    assert dot.count('label="RB"') == 2


def test_compile_refuses_oversized_codes():
    with pytest.raises(ValueError, match="compile cap"):
        compile_rac(2 ** 16 + 1)


def test_to_dot_draws_a_chain_deeper_than_the_recursion_limit():
    tree = Leaf()
    for _ in range(3000):
        tree = RBNode(Leaf(), tree)
    lines = to_dot(tree).splitlines()
    assert sum('label="RB"' in line for line in lines) == 3000
    assert sum("shape=box" in line for line in lines) == 3001
    assert sum("->" in line for line in lines) == 6000
    # the root's edges come last: each edge follows its child's subtree
    assert lines[-3:] == ["  v2 -> v4;", "  v0 -> v2;", "}"]
