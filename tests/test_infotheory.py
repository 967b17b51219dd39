"""Shannon quantities on exact distributions, and the grouped-information bound."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from assignments import iter_assignments
from racbox import infotheory
from racbox.dists import JointDistribution, derive, grouped_counts, marginalize
from racbox.infotheory import (
    TOLERANCE,
    check_lemma4,
    entropy,
    information_and_entropy,
    log_exponents,
    mutual_information,
    mutual_information_exponents,
)
from racbox.protocols import channel_joint, resource_inequality_sim
from racbox.tables import TableFn

F = Fraction


def uniform(*pairs):
    keys = list(iter_assignments([size for _, size in pairs]))
    return JointDistribution(pairs, {key: F(1, len(keys)) for key in keys})


def xor_of(d, name, inputs):
    bits = np.indices((2,) * len(inputs), sparse=True)
    return derive(d, TableFn.from_array(name, [(v, 2) for v in inputs], 2, sum(bits) % 2))


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
    assert entropy(uniform(("x", 8)), ["x"]) == pytest.approx(3.0, abs=1e-12)
    point = JointDistribution((("x", 4),), {(2,): F(1)})
    assert entropy(point, ["x"]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_base_conversion():
    d = uniform(("x", 9))
    assert entropy(d, ["x"], 3) == pytest.approx(2.0, abs=1e-12)
    assert entropy(d, ["x"], 2) == pytest.approx(2 * math.log2(3), abs=1e-12)
    with pytest.raises(ValueError, match="log base"):
        entropy(d, ["x"], 1)


def test_chain_rule():
    rng = random.Random(7)
    d = _random_dist(rng, [2, 3, 2])
    lhs = entropy(d, ["v0", "v1"])
    rhs = entropy(d, ["v0"]) + (entropy(d, ["v1", "v0"]) - entropy(d, ["v0"]))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mutual_information_of_copies_and_independents():
    d = xor_of(uniform(("x", 2)), "y", ["x"])
    assert mutual_information(d, ["x"], ["y"]) == pytest.approx(1.0, abs=1e-12)
    ind = uniform(("a", 2), ("b", 4))
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
    d = xor_of(uniform(("a", 2), ("b", 2)), "c", ["a", "b"])
    assert mutual_information(d, ["a"], ["b"]) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(d, ["a"], ["b"], ["c"]) == pytest.approx(1.0, abs=1e-12)


def test_overlapping_groups_rejected():
    d = uniform(("a", 2), ("b", 2))
    with pytest.raises(ValueError):
        mutual_information(d, ["a"], ["a"])
    with pytest.raises(ValueError):
        entropy(d, ["a", "a"])
    with pytest.raises(ValueError):
        entropy(d, ["zz"])


def test_multi_information_two_groups_is_not_pairwise_sum():
    # three-way XOR: every pair independent, yet jointly determined
    d = xor_of(uniform(("a", 2), ("b", 2)), "t", ["a", "b"])
    pair_sum = mutual_information(d, ["a"], ["t"]) + mutual_information(d, ["b"], ["t"])
    multi = check_lemma4(d, [["a"], ["b"]], ["t"]).bound
    assert pair_sum == pytest.approx(0.0, abs=1e-12)
    assert multi == pytest.approx(1.0, abs=1e-12)


def test_grouped_information_bound_on_xor_and_copies():
    d = xor_of(uniform(("a", 2), ("b", 2)), "t", ["a", "b"])
    assert check_lemma4(d, [["a"], ["b"]], ["t"]).passed
    d2 = xor_of(xor_of(uniform(("a", 2)), "b", ["a"]), "t", ["a"])
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


def old_conditional_entropy(d, targets, given):
    return entropy(d, targets + given) - entropy(d, given) if given else entropy(d, targets)


def old_lemma4(d, groups, target, given):
    """check_lemma4's two sides as it computed them before: one entropy per call."""
    def info(a):
        h_c = entropy(d, given) if given else 0.0
        h_at = entropy(d, a + target + given)
        return entropy(d, a + given) + entropy(d, target + given) - h_at - h_c

    lhs = sum(info(g) for g in groups)
    rhs = old_conditional_entropy(d, target, given)
    for g in groups:
        rhs += old_conditional_entropy(d, g, given)
    everything = [v for g in groups for v in g] + target
    return lhs, rhs - old_conditional_entropy(d, everything, given)


def test_grouped_information_bound_equals_the_entropy_by_entropy_formulas():
    rng = random.Random(1200)
    for trial in range(200):
        k = rng.randint(2, 5)
        d = _random_dist(rng, [rng.choice((2, 3)) for _ in range(k)])
        names = list(d.names)
        rng.shuffle(names)
        given = names[-1:] if k > 2 and rng.random() < 0.5 else []
        target, rest = names[:1], names[1:len(names) - len(given)]
        cut = rng.randint(1, len(rest))
        groups = [g for g in (rest[:cut], rest[cut:]) if g] if rng.random() < 0.3 else [
            [v] for v in rest]
        report = check_lemma4(d, groups, target, given)
        assert (report.quantity, report.bound) == old_lemma4(d, groups, target, given), trial


@pytest.fixture
def grouping_passes(monkeypatch):
    """The groups of every grouping pass the information queries make, one tuple per pass."""
    passes = []

    def counted(dist, groups, **kwargs):
        passes.append(tuple(tuple(keep) for keep in groups))
        return grouped_counts(dist, groups, **kwargs)

    monkeypatch.setattr(infotheory, "grouped_counts", counted)
    return passes


def test_check_lemma4_groups_each_distinct_marginal_once(grouping_passes):
    rng = random.Random(4)
    for k in range(2, 7):
        d = _random_dist(rng, [2] * k)
        grouping_passes.clear()
        check_lemma4(d, [[f"v{i}"] for i in range(1, k)], ["v0"])
        # one pass listing H(T), each H(S_i) and H(S_i, T), and H(S_1..S_n, T),
        # which is H(S_1, T) at k = 2
        (groups,) = grouping_passes
        want = {("v0",)} | {(f"v{i}",) for i in range(1, k)} | {
            (f"v{i}", "v0") for i in range(1, k)} | {tuple(f"v{i}" for i in range(1, k)) + ("v0",)}
        assert len(groups) == len(want) == (3 if k == 2 else 2 * k)
        assert set(groups) == want


def test_information_and_entropy_share_their_marginals(grouping_passes):
    rng = random.Random(8)
    for _ in range(20):
        d = _random_dist(rng, [2, 3, 2])
        grouping_passes.clear()
        both = information_and_entropy(d, ["v0"], ["v1"], ["v2"], 3)
        # H(A, V), H(B, V), H(A, B, V) and H(V), each once, in one pass
        (groups,) = grouping_passes
        assert sorted(groups) == sorted([("v0", "v2"), ("v1", "v2"), ("v0", "v1", "v2"), ("v2",)])
        assert both == (mutual_information(d, ["v0"], ["v1"], ["v2"], 3),
                        entropy(d, ["v1", "v2"], 3) - entropy(d, ["v2"], 3))


@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 7) for d in (2, 3)] + [(4, 6)])
def test_erasure_channel_information_is_exactly_one_nth_of_log_d(n, d):
    run, _ = resource_inequality_sim(n, d)
    exact = mutual_information_exponents(channel_joint(run), ["z"], ["zhat"])
    assert exact == {p: e / n for p, e in log_exponents(d).items()}


def test_exact_check_rejects_a_perturbation_the_float_tolerance_misses():
    run, _ = resource_inequality_sim(3, 2)
    channel = channel_joint(run)
    assert mutual_information_exponents(channel, ["z"], ["zhat"]) == {2: F(1, 3)}
    # move 1/(4 * 10**12) of mass from an erased cell onto the clear one
    big = 10**12
    probs = {tuple(key): F(int(count) * big, channel.denominator * big)
             for key, count in zip(channel.keys.tolist(), channel.counts.tolist())}
    probs[(0, 0)] += F(1, 4 * big)
    probs[(0, 2)] -= F(1, 4 * big)
    perturbed = JointDistribution(channel.variables, probs)
    assert abs(mutual_information(perturbed, ["z"], ["zhat"]) - 1 / 3) < 1e-9
    assert mutual_information_exponents(perturbed, ["z"], ["zhat"]) != {2: F(1, 3)}


def test_exact_information_of_simple_joints():
    assert log_exponents(12) == {2: 2, 3: 1}
    assert log_exponents(1) == {}
    with pytest.raises(ValueError):
        log_exponents(0)
    assert log_exponents(9 * (2**31 - 1)) == {3: 2, 2**31 - 1: 1}
    # past trial division's reach the factorization is refused, not searched for
    with pytest.raises(ValueError, match="cannot factor"):
        log_exponents(2**61 - 1)
    # a copied bit carries log 2; independent wires carry nothing
    copy = xor_of(uniform(("x", 2)), "y", ["x"])
    assert mutual_information_exponents(copy, ["x"], ["y"]) == {2: 1}
    assert mutual_information_exponents(uniform(("a", 2), ("b", 3)), ["a"], ["b"]) == {}
    # conditioning on the xor couples the inputs: I(a : b | c) = log 2
    d = xor_of(uniform(("a", 2), ("b", 2)), "c", ["a", "b"])
    assert mutual_information_exponents(d, ["a"], ["b"], ["c"]) == {2: 1}
    # a skewed joint: I = sum e_p log p agrees with the float
    rng = random.Random(9)
    for _ in range(10):
        d = _random_dist(rng, [2, 3, 2])
        exact = mutual_information_exponents(d, ["v0"], ["v1"], ["v2"])
        value = sum(float(e) * math.log(p) for p, e in exact.items()) / math.log(2)
        assert value == pytest.approx(mutual_information(d, ["v0"], ["v1"], ["v2"]), abs=1e-9)


def _ref_counts(weights, names, group):
    """Plain-dict marginal over ``group``: its counts in row-major order of its rows."""
    idx = [names.index(name) for name in group]
    marginal = {}
    for key, weight in weights.items():
        row = tuple(key[i] for i in idx)
        marginal[row] = marginal.get(row, 0) + weight
    return [marginal[row] for row in sorted(marginal)]


def _ref_entropy(weights, names, base):
    total = sum(weights.values())

    def H(group):
        h = 0.0
        for count in _ref_counts(weights, names, group):
            p = count / total
            h -= p * math.log(p)
        return h / math.log(base)
    return H


def _ref_exponents(weights, names):
    """H in nats as {prime: exponent}: log N - sum_i (c_i / N) log c_i."""
    def factors(value):
        out, p = {}, 2
        while value > 1:
            while value % p == 0:
                out[p], value = out.get(p, 0) + 1, value // p
            p += 1
        return out

    total = sum(weights.values())

    def H(group):
        exps = {p: F(e) for p, e in factors(total).items()}
        for count in _ref_counts(weights, names, group):
            for p, e in factors(count).items():
                exps[p] = exps.get(p, 0) - F(count * e, total)
        return exps
    return H


def _ref_formulas(H, given):
    """H(targets | given), I(x : y | given) and I(parts : target | given) over the
    reference ``H``, each float adding its terms in the order the module does."""
    def cond(targets):
        return H(targets + given) - H(given) if given else H(targets)

    def info(x, y):
        h_given = H(given) if given else 0.0
        return H(x + given) + H(y + given) - H(x + y + given) - h_given

    def multi(parts, target):
        total = cond(target)
        for part in parts:
            total += cond(part)
        return total - cond(tuple(name for part in parts for name in part) + target)

    return cond, info, multi


def _ref_queries(weights, names, groups, given, base):
    """Every information function's value by the plain-dict reference."""
    H, E = _ref_entropy(weights, names, base), _ref_exponents(weights, names)
    cond, info, _ = _ref_formulas(H, given)
    _, info_bits, multi_bits = _ref_formulas(_ref_entropy(weights, names, 2), given)
    a, b = groups[0], groups[1]
    *parts, target = groups
    exps = {}
    for group, sign in ((a + given, 1), (b + given, 1), (a + b + given, -1), (given, -1)):
        if group:
            for p, e in E(group).items():
                exps[p] = exps.get(p, 0) + sign * e
    return {
        "entropy": H(a), "conditional_entropy": cond(a), "mutual_information": info(a, b),
        "information_and_entropy": (info(a, b), cond(b)),
        "check_lemma4": (sum(info_bits(part, target) for part in parts),
                         multi_bits(parts, target)),
        "mutual_information_exponents": [(p, e) for p, e in sorted(exps.items()) if e],
    }


def _queries(dist, groups, given, base):
    a, b = groups[0], groups[1]
    *parts, target = groups
    report = check_lemma4(dist, parts, target, given)
    assert report.passed == (report.quantity <= report.bound + TOLERANCE)
    return {
        "entropy": entropy(dist, a, base),
        "conditional_entropy": (entropy(dist, a + given, base) - entropy(dist, given, base)
                                if given else entropy(dist, a, base)),
        "mutual_information": mutual_information(dist, a, b, given, base),
        "information_and_entropy": information_and_entropy(dist, a, b, given, base),
        "check_lemma4": (report.quantity, report.bound),
        "mutual_information_exponents": list(
            mutual_information_exponents(dist, a, b, given).items()),
    }


def _random_query(rng, names):
    """Two or three disjoint non-empty groups over a shuffled wire order, and a
    given of the wires left (possibly none)."""
    names = rng.sample(names, len(names))
    roles = [0, 1] + [rng.randrange(5) for _ in names[2:]]  # 3: given, 4: unused
    groups = [tuple(n for n, r in zip(names, roles) if r == k) for k in range(3)]
    return [g for g in groups if g], tuple(n for n, r in zip(names, roles) if r == 3)


def test_every_information_function_equals_the_plain_dict_reference():
    rng = random.Random(2701)
    seen = set()
    for trial in range(200):
        sizes = [rng.choice((2, 3, 4)) for _ in range(rng.randint(2, 5))]
        names = [f"w{i}" for i in range(len(sizes))]
        weights = {key: rng.randint(1, 20) for key in iter_assignments(sizes)
                   if rng.random() < 0.6} or {(0,) * len(sizes): 1}
        total = sum(weights.values())
        dist = JointDistribution(tuple(zip(names, sizes)),
                                 {key: F(w, total) for key, w in weights.items()})
        groups, given = _random_query(rng, names)
        base = rng.choice((2, 3))
        assert _queries(dist, groups, given, base) == _ref_queries(
            weights, names, groups, given, base), trial
        seen |= {("non-prefix", any(list(g) != names[:len(g)] for g in groups)),
                 ("given", bool(given))} | {("size", size) for size in sizes}
    assert {("non-prefix", True), ("given", True), ("size", 3), ("size", 4)} <= seen


def test_a_joint_past_the_dense_bins_equals_the_plain_dict_reference():
    # 17 binary wires: a marginal over all of them spans 2^17 cells, so each marginal
    # is counted alone (one np.add.at each) instead of in the shared dense count; two
    # groups and a target read H(S_1), H(S_2), H(T), H(S_1, T), H(S_2, T) and H(S_1, S_2, T)
    rng = random.Random(2702)
    names = [f"w{i}" for i in range(17)]
    weights = {tuple(rng.randrange(2) for _ in names): rng.randint(1, 9) for _ in range(40)}
    total = sum(weights.values())
    dist = JointDistribution(tuple((name, 2) for name in names),
                             {key: F(w, total) for key, w in weights.items()})
    small = _random_dist(rng, [2, 3, 4])
    for joint, groups, given, additions in (
            (dist, [tuple(names[9:]), tuple(names[:8])], (names[8],), 4),
            (dist, [tuple(names[3:10]), tuple(names[10:]), tuple(names[:3])], (), 6),
            (small, [("v2",), ("v0",)], ("v1",), 1)):
        ref = weights if joint is dist else {
            tuple(key): int(c) for key, c in zip(joint.keys.tolist(), joint.counts.tolist())}
        names_of = list(joint.names)
        with mock.patch.object(np, "add", wraps=np.add) as add:
            check_lemma4(joint, groups[:-1], groups[-1], given)
        assert add.at.call_count == additions
        assert _queries(joint, groups, given, 2) == _ref_queries(ref, names_of, groups, given, 2)


REFUSED = [
    (lambda d: mutual_information(d, ["x"], ["nope"]), ValueError, "unknown variable 'nope'"),
    (lambda d: mutual_information(d, ["x"], ["x"]), ValueError, "named twice"),
    (lambda d: check_lemma4(d, [[]], ["x"]), ValueError, "at least one variable"),
    (lambda d: mutual_information(d, [], ["y"]), ValueError, "at least one variable"),
    (lambda d: marginalize(d, ["x", "nope"]), KeyError, "unknown variable 'nope'"),
    (lambda d: marginalize(d, ["x", "x"]), ValueError, "duplicate variable names"),
    (lambda d: JointDistribution((("x", 2), ("x", 3)), {(0, 0): F(1)}), ValueError,
     "duplicate variable names"),
    (lambda d: JointDistribution((("x", 2), ("y", 0)), {(0, 0): F(1)}), ValueError,
     "empty alphabet"),
    (lambda d: JointDistribution.from_table((("x", 2), ("y", 0)), np.ones((2, 0), int), 1),
     ValueError, "positive probability"),
]


@pytest.mark.parametrize("call,error,fault", REFUSED, ids=[
    "unknown-wire", "wire-named-twice", "empty-group", "empty-first-group",
    "unknown-marginal-wire", "marginal-wire-named-twice", "duplicate-names", "empty-alphabet",
    "empty-table"])
def test_a_refused_query_is_refused_on_every_call(call, error, fault):
    # a failed check raises and is never cached, so it raises again, also after a
    # valid call on the same wires has cached that call's plan
    d = uniform(("x", 2), ("y", 3))
    for _ in range(2):
        with pytest.raises(error, match=fault):
            call(d)
    mutual_information(d, ["x"], ["y"])
    check_lemma4(d, [["x"]], ["y"])
    assert marginalize(d, ["y", "x"]).variables == (("y", 3), ("x", 2))
    JointDistribution((("x", 2), ("y", 3)), {(0, 0): F(1)})
    with pytest.raises(error, match=fault):
        call(d)
