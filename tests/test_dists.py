"""Exact joint-distribution plumbing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racbox.dists import (
    JointDistribution,
    condition,
    derive,
    extend,
    independent_uniform,
    iter_assignments,
    marginalize,
    probability,
    uniform,
    validate,
)

F = Fraction


def test_iter_assignments_row_major_order():
    got = list(iter_assignments([2, 3]))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(iter_assignments([])) == [()]


def test_uniform_and_validate():
    d = uniform("x", 4)
    validate(d)
    assert d.total() == 1
    assert d.probs[(2,)] == F(1, 4)


def test_independent_uniform_factorizes():
    d = independent_uniform([("a", 2), ("b", 3)])
    assert d.names == ("a", "b")
    assert d.probs[(1, 2)] == F(1, 6)
    assert d.total() == 1


def test_duplicate_variable_name_rejected():
    with pytest.raises(ValueError):
        JointDistribution((("x", 2), ("x", 2)), {(0, 0): F(1)})


def test_marginalize_reorders_and_sums():
    d = independent_uniform([("a", 2), ("b", 2)])
    d = derive(d, "c", 2, lambda v: v["a"] ^ v["b"])
    m = marginalize(d, ["c", "a"])
    assert m.names == ("c", "a")
    assert m.probs[(0, 1)] == F(1, 4)
    assert m.total() == 1


def test_condition_renormalizes():
    d = independent_uniform([("a", 2), ("b", 2)])
    d = derive(d, "c", 2, lambda v: v["a"] & v["b"])
    c = condition(d, {"c": 1})
    # only a=b=1 survives
    assert c.probs == {(1, 1): F(1)}
    assert c.names == ("a", "b")


def test_condition_on_impossible_event_raises():
    d = uniform("x", 2)
    d = derive(d, "y", 3, lambda v: v["x"])
    with pytest.raises(ValueError):
        condition(d, {"y": 2})


def test_extend_rejects_unnormalized_kernel():
    d = uniform("x", 2)
    with pytest.raises(ValueError):
        extend(d, [("y", 2)], lambda v: {(0,): F(1, 3)})


def test_extend_attaches_noisy_bit():
    d = uniform("x", 2)
    d = extend(
        d,
        [("y", 2)],
        lambda v: {(v["x"],): F(3, 4), (1 - v["x"],): F(1, 4)},
    )
    assert d.probs[(0, 0)] == F(3, 8)
    assert d.probs[(0, 1)] == F(1, 8)
    assert probability(d, lambda v: v["x"] == v["y"]) == F(3, 4)


def test_derive_range_check():
    d = uniform("x", 2)
    with pytest.raises(ValueError):
        derive(d, "y", 2, lambda v: v["x"] + 2)


def test_probability_predicate():
    d = independent_uniform([("a", 2), ("b", 2), ("c", 2)])
    assert probability(d, lambda v: v["a"] ^ v["b"] ^ v["c"] == 1) == F(1, 2)


@st.composite
def rational_dists(draw):
    n_vars = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_vars)]
    keys = list(iter_assignments(sizes))
    weights = [draw(st.integers(0, 5)) for _ in keys]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    probs = {k: F(w, total) for k, w in zip(keys, weights) if w}
    variables = tuple((f"v{i}", s) for i, s in enumerate(sizes))
    return JointDistribution(variables, probs)


@given(rational_dists(), st.data())
@settings(max_examples=60, deadline=None)
def test_marginalize_preserves_total_and_commutes(dist, data):
    validate(dist)
    keep = data.draw(st.permutations(list(dist.names)))
    split = data.draw(st.integers(0, len(keep)))
    kept = list(keep[:split]) or [dist.names[0]]
    m = marginalize(dist, kept)
    assert m.total() == 1
    # marginalizing in two steps agrees with one step
    inner = kept[: max(1, len(kept) - 1)]
    assert marginalize(m, inner) == marginalize(dist, inner)


@given(rational_dists())
@settings(max_examples=60, deadline=None)
def test_conditioning_then_averaging_recovers_marginal(dist):
    pivot = dist.names[0]
    rest = [n for n in dist.names[1:]]
    if not rest:
        return
    marg = marginalize(dist, [pivot])
    recovered = {}
    for (value,), p in marg.items():
        sliced = condition(dist, {pivot: value})
        for key, q in sliced.items():
            recovered[key] = recovered.get(key, F(0)) + p * q
    direct = marginalize(dist, rest)
    assert recovered == {k: v for k, v in direct.items()}
