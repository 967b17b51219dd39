"""Expected values for the benchmark's inputs, derived without racbox.

Every verdict the benchmark checks is compared against a value computed
here from how the input was built: box texts written from the RAC-box
definition, closed forms for the compiled codes, a direct simulator for
one-box strategies and the covering rule for guess plans.  Nothing in this
module imports racbox, so a change to the program cannot move its own
yardstick.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def _rb_b_given(variant: str, d: int, a_b: int, A: int, Aprime: int) -> list[Fraction]:
    """P(B | a_b, A, A') for one RAC-box completion, as a length-d list."""
    one, zero = Fraction(1), Fraction(0)
    if Aprime == A:
        return [one if B == a_b else zero for B in range(d)]
    if variant == "signalinghalf":
        return [Fraction(1, 2)] * d
    if variant == "three":
        return [zero if B == a_b else Fraction(1, d - 1) for B in range(d)]
    if variant == "nosignaling":
        target = (a_b + A + Aprime) % 2
    elif variant == "plus":
        target = (a_b - A + Aprime) % d
    else:  # minus
        target = (a_b + A - Aprime) % d
    return [one if B == target else zero for B in range(d)]


def _box_text(header: list[tuple[str, str, str, int]], rows) -> str:
    """The boxio text format: wire declarations, blank line, nonzero entries."""
    lines = [f"var {party} {role} {name} {size}" for party, role, name, size in header]
    lines.append("")
    for invals, outvals, p in rows:
        if p:
            lines.append(
                " ".join(map(str, invals)) + " : " + " ".join(map(str, outvals))
                + f" = {p.numerator}/{p.denominator}"
            )
    return "\n".join(lines) + "\n"


def _rb_header(n: int, d: int) -> list[tuple[str, str, str, int]]:
    return (
        [("alice", "input", f"a_{i}", d) for i in range(n)]
        + [("alice", "output", "A", d), ("bob", "input", "Aprime", d),
           ("bob", "input", "b", n), ("bob", "output", "B", d)]
    )


def rb_mixture_text(n: int, d: int, weights: dict[str, int]) -> str:
    """Box text of sum_v w_v * RB_v / sum_v w_v over RAC-box completions."""
    total = sum(weights.values())
    pA = Fraction(1, d)

    def rows():
        for inputs in product(range(d), repeat=n + 1):
            a, Aprime = inputs[:n], inputs[n]
            for b in range(n):
                mixed = {}
                for A in range(d):
                    acc = [Fraction(0)] * d
                    for variant, w in weights.items():
                        for B, q in enumerate(_rb_b_given(variant, d, a[b], A, Aprime)):
                            acc[B] += w * q
                    for B in range(d):
                        mixed[(A, B)] = pA * acc[B] / total
                for (A, B), p in mixed.items():
                    yield a + (Aprime, b), (A, B), p

    return _box_text(_rb_header(n, d), rows())


def backward_signaling_text(n: int, d: int, shift: int) -> str:
    """An RB-shaped box with A = A' + shift and B = a_b: Alice's output reads Bob's input."""

    def rows():
        for inputs in product(range(d), repeat=n + 1):
            a, Aprime = inputs[:n], inputs[n]
            for b in range(n):
                yield a + (Aprime, b), ((Aprime + shift) % d, a[b]), Fraction(1)

    return _box_text(_rb_header(n, d), rows())


def compiled_path_depths(n: int) -> list[int]:
    """Leaf depths of the n -> 1 code: one perfect tree per set bit of n,
    joined smallest first, so every later join pushes earlier leaves down."""
    terms = [k for k in range(n.bit_length()) if (n >> k) & 1]
    r = len(terms)
    depths = []
    for i, k in enumerate(terms):
        extra = r - 1 if i == 0 else r - i
        depths.extend([k + extra] * (1 << k))
    return depths


def expected_win(n: int, p2):
    """The XOR of `depth` answers, each right with probability p2, is right
    with probability (1 + (2 p2 - 1)^depth) / 2; queries are uniform."""
    return sum((1 + (2 * p2 - 1) ** depth) / 2 for depth in compiled_path_depths(n)) / n


def one_box_value(n: int, f0: int, f1: int, g_bits, t0, t1) -> Fraction:
    """Win probability of a one-box strategy given by its parts.

    World (a, A): Alice feeds (f0(a), f1(a)) and sends m = g[2a + A].  Bob's
    behaviour t_m[q] for query q is a constant (0, 1) or a box query at
    j = (beta - 2) // 2 with relay A' = 0 and output flip eps = beta % 2,
    which predicts f_j(a) xor A xor eps.
    """
    wins = 0
    for a_bits in product(range(2), repeat=n):
        a = sum(bit << i for i, bit in enumerate(a_bits))
        f = ((f0 >> a) & 1, (f1 >> a) & 1)
        for A in range(2):
            table = (t0, t1)[g_bits[2 * a + A]]
            for q in range(n):
                beta = table[q]
                guess = beta if beta < 2 else f[(beta - 2) // 2] ^ A ^ (beta % 2)
                wins += guess == a_bits[q]
    return Fraction(wins, (1 << (n + 1)) * n)


def feasibility(constraints, sizes: dict[str, int], message_size: int) -> tuple[bool, str]:
    """Verdict and witness of a perfect-guess plan, one variable per message value.

    The slabs {v = c} cover the product space iff some variable is promised
    at least as often as it has values (otherwise the point built from each
    variable's unguessed values escapes).  Under the canonical constants
    (promises in ascending message order guess 0, 1, 2, ...) the
    lexicographically first uncovered cell puts each variable at its
    promise count.
    """
    promised: dict[str, list[int]] = {}
    for var, mu in constraints:
        promised.setdefault(var, []).append(mu)
    if any(len(mus) >= sizes[var] for var, mus in promised.items()):
        guess = {}
        for var, mus in promised.items():
            for rank, mu in enumerate(sorted(mus)):
                guess[mu] = f"{var}={rank % sizes[var]}"
        return True, "; ".join(f"m={mu} -> {guess[mu]}" for mu in range(message_size))
    cell = ",".join(f"{var}={len(mus)}" for var, mus in promised.items())
    return False, f"P({cell})=0"


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
