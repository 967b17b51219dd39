"""Exact joint-distribution plumbing, checked against a plain Fraction-dict reference."""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assignments import iter_assignments
from racbox import dists
from racbox.boxes import Box, BoxSignature, make_rb
from racbox.capacity import build_capacity_joint, protocol_strategy
from racbox.dists import (
    JointDistribution,
    condition,
    derive,
    grouped_counts,
    lowest_terms,
    marginalize,
)
from racbox.infotheory import entropy
from racbox.tables import TableFn

F = Fraction


def _uniform(pairs):
    keys = list(iter_assignments([size for _, size in pairs]))
    return JointDistribution(pairs, {key: F(1, len(keys)) for key in keys})


def _fn(name, inputs, size, fn):
    """The table of ``fn`` applied to one broadcastable index array per input."""
    axes = np.indices([s for _, s in inputs], sparse=True)
    return TableFn.from_array(name, inputs, size, fn(*axes))


# --- the reference: a dict from assignment tuples to Fractions --------------


def ref_probs(dist):
    return {tuple(key): F(count, dist.denominator)
            for key, count in zip(dist.keys.tolist(), dist.counts.tolist())}


def ref_marginalize(dist, keep):
    idx = [dist.index(name) for name in keep]
    out = {}
    for key, p in ref_probs(dist).items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, F(0)) + p
    return out


def ref_condition(dist, assignment):
    fixed = {dist.index(name): value for name, value in assignment.items()}
    rows = {key: p for key, p in ref_probs(dist).items()
            if all(key[i] == v for i, v in fixed.items())}
    mass = sum(rows.values(), F(0))
    keep = [i for i in range(len(dist.variables)) if i not in fixed]
    out = {}
    for key, p in rows.items():
        sub = tuple(key[i] for i in keep)
        out[sub] = out.get(sub, F(0)) + p / mass
    return out


def ref_derive(dist, table):
    idx = [dist.index(name) for name, _ in table.inputs]
    return {key + (table(*(key[i] for i in idx)),): p for key, p in ref_probs(dist).items()}


def ref_entropy(dist, keep, base):
    h = 0.0
    for _, p in sorted(ref_marginalize(dist, keep).items()):
        pf = float(p)
        h -= pf * math.log(pf)
    return h / math.log(base)


def sort_grouping(dist, keep):
    """The stable sort and ``reduceat`` that counting replaced: (rows, counts).

    It sorts the kept columns themselves, so no cell code can overflow, and
    sums in Python ints, so no count can.
    """
    cols = dist.keys[:, [dist.index(name) for name in keep]]
    order = np.lexsort(cols.T[::-1])
    cols = cols[order]
    starts = np.flatnonzero(np.concatenate(([True], (cols[1:] != cols[:-1]).any(axis=1))))
    return cols[starts], np.add.reduceat(dist.counts[order].astype(object), starts)


def assert_invariants(dist):
    """Sorted row-major, no repeated key, positive counts in lowest terms, in range."""
    keys = dist.keys.tolist()
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)
    counts = dist.counts.tolist()
    assert all(c > 0 for c in counts)
    assert math.gcd(dist.denominator, *counts) == 1
    for column, size in zip(zip(*keys), dist.sizes):
        assert all(0 <= v < size for v in column)
    assert not dist.keys.flags.writeable and not dist.counts.flags.writeable


def test_iter_assignments_row_major_order():
    got = list(iter_assignments([2, 3]))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert list(iter_assignments([])) == [()]


def test_uniform_and_validate():
    d = _uniform((("x", 4),))
    assert d.total() == 1
    assert d.keys.tolist() == [[0], [1], [2], [3]]
    assert (d.counts.tolist(), d.denominator) == ([1, 1, 1, 1], 4)
    # the constructor validates what it is given
    with pytest.raises(ValueError, match="out of range"):
        JointDistribution((("x", 2),), {(2,): F(1)})
    with pytest.raises(ValueError, match="negative probability"):
        JointDistribution((("x", 2),), {(0,): F(3, 2), (1,): F(-1, 2)})
    with pytest.raises(ValueError, match="one value per"):
        JointDistribution((("x", 2),), {(0, 1): F(1)})
    with pytest.raises(ValueError, match="positive probability"):
        JointDistribution((("x", 2),), {(0,): F(0)})


@pytest.mark.parametrize("variables,probs,fault", [
    ((("x", 2),), {(0,): F(1, 2), (1,): F(1, 3)}, "sum to 5/6, not 1"),
    ((("x", 2),), {(0,): F(1, 2), (1,): F(2, 3)}, "sum to 7/6, not 1"),
    ((("x", 2), ("y", 2)), {(0, 0.5): F(1)}, "symbol 0.5 .* not an integer"),
    ((("x", 2), ("y", 2)), {(0, "1"): F(1)}, "symbol '1' .* not an integer"),
    ((("x", 2),), {(0,): 0.5, (1,): F(1, 2)}, r"probability 0.5 of \(0,\) is not an exact"),
    ((("x", 2), ("y", 2)), {(0, 0): F(1, 2), (1,): F(1, 2)}, r"\(1,\) needs one value per"),
    ((("x", 2),), {(2**64,): F(1)}, "out of range"),
], ids=["short", "over", "float-symbol", "string-symbol", "float-probability", "ragged",
        "wide-symbol"])
def test_constructor_refuses_what_is_not_a_joint(variables, probs, fault):
    with pytest.raises(ValueError, match=fault):
        JointDistribution(variables, probs)


def test_constructor_builds_what_from_table_builds():
    rng = random.Random(200)
    for _ in range(200):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        variables = tuple((f"v{i}", size) for i, size in enumerate(sizes))
        big = rng.random() < 0.2  # numerators past int8, int16 and int64
        table = np.array([rng.randrange(2**70 if big else 4) * rng.randrange(2) for _ in
                          range(math.prod(sizes))], dtype=object).reshape(sizes)
        table.flat[rng.randrange(table.size)] += 1
        total = int(table.sum())
        probs = {key: F(int(table[key]), total) for key in iter_assignments(sizes)}
        got = JointDistribution(variables, probs)
        want = JointDistribution.from_table(variables, table, total)
        assert got.variables == want.variables and got.denominator == want.denominator
        for mine, theirs in ((got.keys, want.keys), (got.counts, want.counts)):
            assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 40)), min_size=1, max_size=12),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_dict_built_joint_is_in_lowest_terms(masses, as_ints):
    # each probability a reduced Fraction with its own denominator, zeros and ints among them
    raw = [F(num, den) for num, den in masses]
    if not any(raw):
        raw[0] = F(1)
    probs = {(i,): p / sum(raw) for i, p in enumerate(raw)}
    if as_ints:
        probs = {key: int(p) if p.denominator == 1 else p for key, p in probs.items()}
    dist = JointDistribution((("x", len(raw)),), probs)
    assert math.gcd(dist.denominator, *dist.counts.tolist()) == 1
    assert ref_probs(dist) == {key: p for key, p in probs.items() if p}


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_an_all_zero_table_is_refused(dtype):
    variables = (("x", 2), ("y", 3))
    with pytest.raises(ValueError, match="positive probability"):
        JointDistribution.from_table(variables, np.zeros((2, 3), dtype=dtype), 6)
    box = make_rb(2, 2, "nosignaling")
    zero = type(box)(box.signature, np.zeros_like(box.table), 1)
    with pytest.raises(ValueError, match="positive probability"):
        zero.joint()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, object])
def test_a_negative_cell_is_refused_by_name(dtype):
    # a box's numerators may be negative; its joint may not hold them as counts
    sig = BoxSignature(alice_inputs=(("x", 1),), alice_outputs=(("X", 2),),
                       bob_inputs=(), bob_outputs=())
    box = Box(sig, np.array([[2, -1]], dtype=dtype), 1)
    with pytest.raises(ValueError, match=r"^cell \(x=0, X=1\) has the negative numerator -1$"):
        box.joint()
    with pytest.raises(ValueError, match=r"cell \(u=1, v=0\) has the negative numerator -3"):
        JointDistribution.from_table((("u", 2), ("v", 2)),
                                     np.array([[4, 1], [-3, 0]], dtype=dtype), 2)


class _NoMin(np.ndarray):
    """An array whose ``min`` may not be read."""

    def min(self, *args, **kwargs):
        raise AssertionError("min() read on counts known to be positive")


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_positive_counts_are_brought_to_lowest_terms_by_their_max_alone(dtype):
    counts = np.array([6, 2, 4, 10**30 if dtype is object else 8], dtype=dtype)
    reduced, den = lowest_terms(counts.view(_NoMin), 20, positive=True)
    assert den == 10 and reduced.tolist() == (counts // 2).tolist()
    assert reduced.dtype == lowest_terms(counts, 20)[0].dtype
    # every joint is built through that path, the executor's joint end straight after
    # the wire list's check
    variables = (("x", 4),)
    keys = np.arange(4, dtype=dists._wires(variables)[0]).reshape(4, 1)
    joint = dists._joint(variables, keys.view(_NoMin), counts.view(_NoMin), 20)
    assert joint.denominator == 10


def test_independent_uniform_factorizes():
    d = _uniform((("a", 2), ("b", 3)))
    assert d.names == ("a", "b")
    assert ref_probs(d)[(1, 2)] == F(1, 6)
    assert d.total() == 1
    assert ref_probs(marginalize(d, ["a"])) == {(0,): F(1, 2), (1,): F(1, 2)}


def test_constructor_sorts_and_reduces():
    d = JointDistribution((("a", 2), ("b", 2)), {(1, 0): F(2, 4), (0, 1): F(1, 4), (0, 0): F(1, 4)})
    assert d.keys.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert (d.counts.tolist(), d.denominator) == ([1, 1, 2], 4)
    assert d.probs is d.counts
    assert d == JointDistribution((("a", 2), ("b", 2)),
                                  {(0, 0): F(1, 4), (0, 1): F(1, 4), (1, 0): F(1, 2)})


def test_duplicate_variable_name_rejected():
    with pytest.raises(ValueError):
        JointDistribution((("x", 2), ("x", 2)), {(0, 0): F(1)})


def test_marginalize_reorders_and_sums():
    d = _uniform((("a", 2), ("b", 2)))
    d = derive(d, _fn("c", (("a", 2), ("b", 2)), 2, lambda a, b: a ^ b))
    m = marginalize(d, ["c", "a"])
    assert m.names == ("c", "a")
    assert ref_probs(m)[(0, 1)] == F(1, 4)
    assert m.total() == 1


def test_condition_renormalizes():
    d = _uniform((("a", 2), ("b", 2)))
    d = derive(d, _fn("c", (("a", 2), ("b", 2)), 2, lambda a, b: a & b))
    c = condition(d, {"c": 1})
    # only a=b=1 survives
    assert ref_probs(c) == {(1, 1): F(1)}
    assert c.names == ("a", "b")


def test_condition_on_impossible_event_raises():
    d = _uniform((("x", 2),))
    d = derive(d, _fn("y", (("x", 2),), 3, lambda x: x))
    with pytest.raises(ValueError):
        condition(d, {"y": 2})


def test_derive_range_check():
    d = _uniform((("x", 2),))
    # the table reads x with the wrong alphabet
    with pytest.raises(ValueError, match="reads"):
        derive(d, _fn("y", (("x", 3),), 2, lambda x: x % 2))
    with pytest.raises(KeyError):
        derive(d, _fn("y", (("w", 2),), 2, lambda w: w))
    with pytest.raises(ValueError, match="duplicate"):
        derive(d, _fn("x", (("x", 2),), 2, lambda x: x))


def test_probability_predicate():
    # P(a xor b xor c = 1), read off a derived parity wire
    d = _uniform((("a", 2), ("b", 2), ("c", 2)))
    d = derive(d, _fn("odd", d.variables, 2, lambda a, b, c: a ^ b ^ c))
    assert ref_probs(marginalize(d, ["odd"]))[(1,)] == F(1, 2)


def test_box_joint_is_the_support_of_its_table():
    box = make_rb(2, 2, "signalinghalf")
    sig = box.signature
    joint = box.joint()
    assert joint.variables == sig.input_vars + sig.output_vars
    rows = math.prod(sig.input_sizes)
    assert ref_probs(joint) == {
        tuple(cell): F(int(box.table[tuple(cell)]), box.denominator * rows)
        for cell in np.argwhere(box.table).tolist()
    }
    assert_invariants(joint)


@st.composite
def rational_dists(draw):
    n_vars = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(n_vars)]
    keys = list(iter_assignments(sizes))
    weights = [draw(st.integers(0, 5)) for _ in keys]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    probs = {k: F(w, total) for k, w in zip(keys, weights) if w}
    variables = tuple((f"v{i}", s) for i, s in enumerate(sizes))
    return JointDistribution(variables, probs)


def check_against_reference(dist, data_or_rng):
    """marginalize, condition, derive and entropy agree with the Fraction reference."""
    draw = data_or_rng
    names = list(dist.names)
    assert_invariants(dist)
    keep = draw.sample(names, draw.randint(1, len(names)))
    m = marginalize(dist, keep)
    assert_invariants(m)
    assert m.names == tuple(keep)
    assert ref_probs(m) == ref_marginalize(dist, keep)
    for base in (2, 3):
        assert entropy(dist, keep, base) == ref_entropy(dist, keep, base)
    pivot = draw.choice(names)
    size = dist.sizes[dist.index(pivot)]
    value = draw.randrange(size)
    if value in set(dist.keys[:, dist.index(pivot)].tolist()):
        c = condition(dist, {pivot: value})
        assert_invariants(c)
        assert ref_probs(c) == ref_condition(dist, {pivot: value})
    else:
        with pytest.raises(ValueError, match="probability zero"):
            condition(dist, {pivot: value})
    inputs = [(nm, dist.sizes[dist.index(nm)]) for nm in draw.sample(names, min(3, len(names)))]
    out = draw.randint(1, 4)
    domain = math.prod(s for _, s in inputs)
    entries = tuple(draw.randrange(out) for _ in range(domain))
    table = TableFn("new", tuple(inputs), out, entries)
    derived = derive(dist, table)
    assert_invariants(derived)
    assert derived.variables == dist.variables + (("new", out),)
    assert ref_probs(derived) == ref_derive(dist, table)


class _Draws:
    """random.Random's interface on top of hypothesis data."""

    def __init__(self, data):
        self.data = data

    def randint(self, lo, hi):
        return self.data.draw(st.integers(lo, hi))

    def randrange(self, n):
        return self.data.draw(st.integers(0, n - 1))

    def choice(self, seq):
        return self.data.draw(st.sampled_from(seq))

    def sample(self, seq, k):
        return self.data.draw(st.permutations(seq))[:k]


@given(rational_dists(), st.data())
@settings(max_examples=100, deadline=None)
def test_operations_match_the_fraction_reference(dist, data):
    check_against_reference(dist, _Draws(data))


def test_denominator_past_int64_uses_python_ints():
    big = 3 ** 45  # > 2**63
    dist = JointDistribution(
        (("a", 2), ("b", 3)),
        {(0, 0): F(1, big), (0, 2): F(2, big), (1, 1): 1 - F(3, big)},
    )
    assert dist.counts.dtype == object and dist.denominator == big
    rng = random.Random(3)
    for _ in range(20):
        check_against_reference(dist, rng)


def test_sixty_four_binary_wires_sort_without_overflow():
    rng = random.Random(64)
    variables = tuple((f"w{i}", 2) for i in range(64))
    rows = {tuple(rng.randrange(2) for _ in range(64)) for _ in range(40)}
    # rows that differ only in the last wire, where a wrapped code would collide first
    rows |= {(1,) * 63 + (0,), (1,) * 64, (0,) * 64}
    dist = JointDistribution(variables, {row: F(1, len(rows)) for row in rows})
    assert dist.keys.tolist() == sorted(map(list, rows))
    reversed_names = list(reversed(dist.names))
    m = marginalize(dist, reversed_names)
    assert ref_probs(m) == ref_marginalize(dist, reversed_names)
    assert_invariants(m)
    for _ in range(20):
        check_against_reference(dist, rng)


@contextmanager
def counting_steps():
    """Watch the ``np.add.at`` and ``np.unique`` calls made in the block."""
    with mock.patch.object(np, "add", wraps=np.add) as add, \
            mock.patch.object(np, "unique", wraps=np.unique) as unique:
        yield add.at, unique


@given(rational_dists(), st.data())
@settings(max_examples=100, deadline=None)
def test_counting_groups_like_the_sort(dist, data):
    names = data.draw(st.permutations(list(dist.names)))
    keep = names[:data.draw(st.integers(1, len(names)))]
    want_rows, want_counts = sort_grouping(dist, keep)
    with counting_steps() as (added, ranked):
        ((rows, counts),) = grouped_counts(dist, [keep], with_keys=True)
    assert (added.call_count, ranked.call_count) == (1, 0)
    assert (rows.tolist(), counts.tolist()) == (want_rows.tolist(), want_counts.tolist())
    assert counts.dtype == np.int64 and rows.dtype == dist.keys.dtype


def _sixty_four_wires():
    rng = random.Random(64)
    variables = tuple((f"w{i}", 2) for i in range(64))
    rows = {tuple(rng.randrange(2) for _ in range(64)) for _ in range(40)} | {(0,) * 64}
    dist = JointDistribution(variables, {row: F(1, len(rows)) for row in rows})
    return dist, list(reversed(dist.names))


def _denominator_past_int64():
    big = 3 ** 45
    dist = JointDistribution(
        (("a", 2), ("b", 3)), {(0, 0): F(1, big), (0, 2): F(2, big), (1, 1): 1 - F(3, big)})
    assert dist.counts.dtype == object
    return dist, ["b", "a"]


def _total_past_two_to_the_53():
    # int64 counts whose marginal b = 1 sums to 2^53 + 1, which no float64 holds
    big = 2**53 + 3
    dist = JointDistribution(
        (("a", 2), ("b", 2)), {(0, 0): F(1, big), (1, 0): F(1, big), (1, 1): F(big - 2, big)})
    assert dist.counts.dtype == np.int64
    assert grouped_counts(dist, [["b"]])[0][1].tolist() == [2, 2**53 + 1]
    return dist, ["b"]


@pytest.mark.parametrize("case", [_sixty_four_wires, _denominator_past_int64,
                                  _total_past_two_to_the_53])
def test_groupings_past_float_range_count_in_integers(case):
    dist, keep = case()
    with counting_steps() as (added, ranked):
        m = marginalize(dist, keep)
    # 64 wires span 2^64 cells, so their rows are numbered by rank
    assert (added.call_count, ranked.call_count) == (1, int(len(keep) == 64))
    assert_invariants(m)
    assert ref_probs(m) == ref_marginalize(dist, keep)
    assert entropy(dist, keep, 2) == ref_entropy(dist, keep, 2)


def _index_matrix_past_two_to_the_16():
    # 65,536 rows: with two or more groups the rows x groups index matrix passes 2^16
    table = np.random.default_rng(16).integers(0, 4, (16,) * 4)
    variables = tuple((f"u{i}", 16) for i in range(4))
    return JointDistribution.from_table(variables, table, int(table.sum())), ["u3", "u1"]


def _bins_past_two_to_the_16():
    # 17 binary wires: the group of all of them needs 2^17 bins, so it is sorted
    rng = random.Random(17)
    rows = {tuple(rng.randrange(2) for _ in range(17)) for _ in range(30)}
    variables = tuple((f"w{i}", 2) for i in range(17))
    return JointDistribution(variables, {row: F(1, len(rows)) for row in rows}), ["w0"]


def _small():
    return JointDistribution((("a", 2), ("b", 3), ("c", 2)), {
        (0, 0, 0): F(1, 8), (0, 2, 1): F(3, 8), (1, 1, 0): F(1, 4), (1, 2, 1): F(1, 4)}), ["c"]


@pytest.mark.parametrize("case", [_small, _sixty_four_wires, _denominator_past_int64,
                                  _total_past_two_to_the_53, _index_matrix_past_two_to_the_16,
                                  _bins_past_two_to_the_16])
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_every_group_of_one_call_matches_the_sort(case, data):
    dist, _ = case()
    groups = data.draw(st.lists(st.permutations(list(dist.names)).flatmap(
        lambda names: st.integers(1, min(len(names), 4)).map(lambda k: names[:k])),
        min_size=1, max_size=6))
    if data.draw(st.booleans()):
        # every wire: 2^17 bins, or at 64 wires more cells than int64 can index
        groups.append(list(dist.names)[::-1])
    got = grouped_counts(dist, groups, with_keys=True)
    assert len(got) == len(groups)
    for keep, (rows, counts) in zip(groups, got):
        want_rows, want_counts = sort_grouping(dist, keep)
        assert (rows.tolist(), counts.tolist()) == (want_rows.tolist(), want_counts.tolist())


def test_small_groups_share_one_count_and_large_ones_count_alone():
    small, _ = _small()
    large, _ = _index_matrix_past_two_to_the_16()
    wide, _ = _bins_past_two_to_the_16()
    # (additions, rankings): one addition for all groups of a small joint, else one per
    # group, and a ranking only for a group of more than max(2^16, rows) cells
    for dist, calls in ((small, (1, 0)), (large, (3, 0)), (wide, (3, 1))):
        groups = [dist.names[:1], dist.names[1:], dist.names[::-1]]
        with counting_steps() as (added, ranked):
            got = grouped_counts(dist, groups, with_keys=True)
        assert (added.call_count, ranked.call_count) == calls
        for keep, (rows, counts) in zip(groups, got):
            want_rows, want_counts = sort_grouping(dist, keep)
            assert (rows.tolist(), counts.tolist()) == (want_rows.tolist(), want_counts.tolist())


def _runs_past_two_to_the_16():
    # 17 binary wires then a trit: a row's first 17 symbols repeat for up to 3 rows
    rng = random.Random(18)
    prefixes = {tuple(rng.randrange(2) for _ in range(17)) for _ in range(20)}
    rows = {prefix + (t,) for prefix in prefixes for t in range(3) if rng.randrange(3) or t == 0}
    assert len(rows) > len(prefixes)
    variables = tuple((f"w{i}", 2) for i in range(17)) + (("t", 3),)
    return JointDistribution(variables, {row: F(1, len(rows)) for row in rows})


@pytest.mark.parametrize("order", ["prefix", "reversed", "interleaved"])
@pytest.mark.parametrize("case,width", [
    pytest.param(lambda: _sixty_four_wires()[0], 17, id="64_wires-17"),
    pytest.param(lambda: _sixty_four_wires()[0], 40, id="64_wires-40"),
    pytest.param(lambda: _sixty_four_wires()[0], 64, id="64_wires-64"),
    pytest.param(_runs_past_two_to_the_16, 17, id="runs-17"),
    pytest.param(_runs_past_two_to_the_16, 18, id="runs-18")])
def test_a_group_past_the_bins_is_ranked_by_cell_index(case, width, order):
    # one 1-D np.unique ranks the cell indices, intp or (at 64 wires) Python ints, in
    # whatever order the wires are kept
    dist = case()
    keep = list(dist.names[:width])
    keep = {"prefix": keep, "reversed": keep[::-1], "interleaved": keep[::2] + keep[1::2]}[order]
    assert math.prod(dist.sizes[:width]) > 2**16
    with counting_steps() as (added, ranked):
        ((rows, counts),) = grouped_counts(dist, [keep], with_keys=True)
    assert (added.call_count, ranked.call_count) == (1, 1)
    assert ranked.call_args.args[0].ndim == 1 and "axis" not in ranked.call_args.kwargs
    want_rows, want_counts = sort_grouping(dist, keep)
    assert (rows.tolist(), counts.tolist()) == (want_rows.tolist(), want_counts.tolist())
    m = marginalize(dist, keep)
    assert_invariants(m)
    assert ref_probs(m) == ref_marginalize(dist, keep)


def test_the_empty_group_counts_the_whole_mass():
    for dist in (_small()[0], _index_matrix_past_two_to_the_16()[0]):
        for groups in ([[]], [[], ["u3" if "u3" in dist.names else "c"]]):
            (rows, counts), *_ = grouped_counts(dist, groups, with_keys=True)
            assert rows.shape == (1, 0) and counts.tolist() == [dist.denominator]


def test_small_groups_past_two_to_the_53_share_one_exact_count():
    dist, _ = _total_past_two_to_the_53()
    groups = [["b"], ["a"], ["b", "a"], []]
    with counting_steps() as (added, ranked):
        got = grouped_counts(dist, groups, with_keys=True)
    assert (added.call_count, ranked.call_count) == (1, 0)
    for keep, (rows, counts) in zip(groups, got):
        assert counts.dtype == np.int64
        assert ({tuple(row): F(count, dist.denominator)
                 for row, count in zip(rows.tolist(), counts.tolist())}
                == ref_marginalize(dist, keep))


def test_entropy_of_large_joints_equals_the_reference():
    joints = [make_rb(3, 3, "three").joint(),
              build_capacity_joint(protocol_strategy(3, 3), "three")]
    for dist in joints:
        names = list(dist.names)
        for keep in [[name] for name in names] + [names[::2], names[::-1]]:
            for base in (2, 3):
                assert entropy(dist, keep, base) == ref_entropy(dist, keep, base)


@given(rational_dists(), st.data())
@settings(max_examples=60, deadline=None)
def test_marginalize_preserves_total_and_commutes(dist, data):
    assert dist.total() == 1
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
    for (value,), p in ref_probs(marg).items():
        sliced = condition(dist, {pivot: value})
        for key, q in ref_probs(sliced).items():
            recovered[key] = recovered.get(key, F(0)) + p * q
    assert recovered == ref_probs(marginalize(dist, rest))


def test_a_wire_list_of_lists_equals_the_same_list_of_tuples():
    probs = {(0, 0): F(1, 4), (1, 1): F(3, 4)}
    tupled = JointDistribution((("x", 2), ("y", 2)), probs)
    listed = JointDistribution([["x", 2], ["y", 2]], probs)
    assert listed.variables == tupled.variables == (("x", 2), ("y", 2))
    assert listed == tupled
    assert marginalize(listed, ["y"]) == marginalize(tupled, ["y"])
    table = np.array([[1, 0], [0, 3]])
    assert JointDistribution.from_table([["x", 2], ["y", 2]], table, 4) == tupled
