"""Shannon quantities on exact distributions, and the grouped-information bound."""

import math
import random
from fractions import Fraction

import pytest

from racbox.dists import (
    JointDistribution,
    derive,
    independent_uniform,
    iter_assignments,
    uniform,
)
from racbox.infotheory import (
    TOLERANCE,
    check_lemma4,
    conditional_entropy,
    entropy,
    information_causality_lhs,
    multi_information,
    mutual_information,
)

F = Fraction


def _random_dist(rng, sizes, names=None):
    keys = list(iter_assignments(sizes))
    weights = [rng.randrange(0, 8) for _ in keys]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    names = names or [f"v{i}" for i in range(len(sizes))]
    return JointDistribution(
        tuple(zip(names, sizes)),
        {k: F(w, total) for k, w in zip(keys, weights) if w},
    )


def test_entropy_of_uniform_and_deterministic():
    assert entropy(uniform("x", 8), ["x"]) == pytest.approx(3.0, abs=1e-12)
    point = JointDistribution((("x", 4),), {(2,): F(1)})
    assert entropy(point, ["x"]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_base_conversion():
    d = uniform("x", 9)
    assert entropy(d, ["x"], 3) == pytest.approx(2.0, abs=1e-12)
    assert entropy(d, ["x"], 2) == pytest.approx(2 * math.log2(3), abs=1e-12)
    with pytest.raises(ValueError, match="log base"):
        entropy(d, ["x"], 1)


def test_chain_rule():
    rng = random.Random(7)
    d = _random_dist(rng, [2, 3, 2])
    lhs = entropy(d, ["v0", "v1"])
    rhs = entropy(d, ["v0"]) + conditional_entropy(d, ["v1"], ["v0"])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mutual_information_of_copies_and_independents():
    d = uniform("x", 2)
    d = derive(d, "y", 2, lambda v: v["x"])
    assert mutual_information(d, ["x"], ["y"]) == pytest.approx(1.0, abs=1e-12)
    ind = independent_uniform([("a", 2), ("b", 4)])
    assert mutual_information(ind, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_symmetry_and_conditioning():
    rng = random.Random(11)
    for _ in range(20):
        d = _random_dist(rng, [2, 2, 2])
        ab = mutual_information(d, ["v0"], ["v1"], ["v2"])
        ba = mutual_information(d, ["v1"], ["v0"], ["v2"])
        assert ab == pytest.approx(ba, abs=1e-9)
        assert ab >= -TOLERANCE


def test_conditioning_on_xor_couples_inputs():
    d = independent_uniform([("a", 2), ("b", 2)])
    d = derive(d, "c", 2, lambda v: v["a"] ^ v["b"])
    assert mutual_information(d, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(d, ["a"], ["b"], ["c"]) == pytest.approx(1.0, abs=1e-12)


def test_overlapping_groups_rejected():
    d = independent_uniform([("a", 2), ("b", 2)])
    with pytest.raises(ValueError):
        mutual_information(d, ["a"], ["a"])
    with pytest.raises(ValueError):
        entropy(d, ["a", "a"])
    with pytest.raises(ValueError):
        entropy(d, ["zz"])


def test_multi_information_two_groups_is_not_pairwise_sum():
    # three-way XOR: every pair independent, yet jointly determined
    d = independent_uniform([("a", 2), ("b", 2)])
    d = derive(d, "t", 2, lambda v: v["a"] ^ v["b"])
    pair_sum = mutual_information(d, ["a"], ["t"]) + mutual_information(d, ["b"], ["t"])
    multi = multi_information(d, [["a"], ["b"]], ["t"])
    assert pair_sum == pytest.approx(0.0, abs=1e-12)
    assert multi == pytest.approx(1.0, abs=1e-12)


def test_grouped_information_bound_on_xor_and_copies():
    d = independent_uniform([("a", 2), ("b", 2)])
    d = derive(d, "t", 2, lambda v: v["a"] ^ v["b"])
    assert check_lemma4(d, [["a"], ["b"]], ["t"]).passed
    d2 = uniform("a", 2)
    d2 = derive(d2, "b", 2, lambda v: v["a"])
    d2 = derive(d2, "t", 2, lambda v: v["a"])
    report = check_lemma4(d2, [["a"], ["b"]], ["t"])
    # copies saturate: both sides are 2 bits... the bound still holds
    assert report.passed
    assert report.quantity == pytest.approx(2.0, abs=1e-9)
    assert report.bound == pytest.approx(2.0, abs=1e-9)


def test_grouped_information_bound_random_sweep():
    rng = random.Random(20260819)
    for trial in range(150):
        n_vars = rng.randint(2, 4)
        sizes = [2] * n_vars
        d = _random_dist(rng, sizes)
        names = list(d.names)
        rng.shuffle(names)
        target = [names[0]]
        rest = names[1:]
        groups = [[v] for v in rest]
        report = check_lemma4(d, groups, target)
        assert report.passed, f"trial {trial}: {report.quantity} > {report.bound}"


def test_grouped_information_bound_conditioned():
    rng = random.Random(5)
    for _ in range(30):
        d = _random_dist(rng, [2, 2, 2, 2])
        report = check_lemma4(d, [["v0"], ["v1"]], ["v2"], ["v3"])
        assert report.passed


def test_eavesdropper_sum_on_a_shared_key():
    # E carries key_0 when choice = 0 and key_1 when choice = 1
    d = independent_uniform([("k0", 2), ("k1", 2), ("c", 2)])
    d = derive(d, "E", 2, lambda v: v["k0"] if v["c"] == 0 else v["k1"])
    got = information_causality_lhs(d, ["k0", "k1"], "E", "c")
    assert got == pytest.approx(2.0, abs=1e-9)
    # a blind eavesdropper learns nothing
    blind = derive(
        independent_uniform([("k0", 2), ("k1", 2), ("c", 2)]), "E", 1, lambda v: 0
    )
    assert information_causality_lhs(blind, ["k0", "k1"], "E", "c") == pytest.approx(
        0.0, abs=1e-12
    )


def test_choice_alphabet_must_match_key_count():
    d = independent_uniform([("k0", 2), ("k1", 2), ("c", 3)])
    d = derive(d, "E", 2, lambda v: 0)
    with pytest.raises(ValueError):
        information_causality_lhs(d, ["k0", "k1"], "E", "c")
