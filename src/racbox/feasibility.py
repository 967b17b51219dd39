"""Feasibility of perfect-guess message plans.

The question: Bob receives a message m and, depending on its value, must
name one of Alice's uniform independent variables with certainty.  Does any
joint distribution of (variables, m) satisfy all such promises at once?

Conditioned on m = mu, each variable promised at mu must be a constant, so
the support of the inputs given m = mu lies in an axis-aligned slab.  The
input marginal has full support, hence the slabs over all message values
must cover the whole product space of the constrained variables; and any
cover yields a strategy (send the first covering message value).  That
makes feasibility a finite covering problem over the guess constants.

A guess row gives each (variable, message value) promise a constant, and
one boolean array ``hit[g, p]`` says whether point p lies in some message
value's slab under row g.  The canonical row (per variable, promised message
values in ascending order guess 0, 1, 2, ...) goes first; only if it leaves a
point uncovered are all rows tried, in ``itertools.product`` order, the first
full cover being the plan.  The first point the canonical row misses doubles
as the witness "P(cell) = 0": the cell every relabeling of an infeasible plan
must starve.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

import numpy as np

from .reports import ProbeReport

DESK_LIMIT = 10**6


def guessing_feasibility(
    constraints: Sequence[tuple[str, int]],
    independents: Sequence[tuple[str, int]],
    message_size: int,
) -> ProbeReport:
    """Decide whether the perfect-guess plan admits any joint distribution.

    ``constraints`` lists (variable, message-value) promises; ``independents``
    declares each variable's alphabet (all uniform, mutually independent).
    Passes iff feasible; when infeasible the witness names a product-space
    cell that must carry probability zero yet has positive mass under the
    declared marginals.  Refuses a plan whose space or guess combinations
    exceed ``DESK_LIMIT``, and one whose exhaustive search would test more
    than ``DESK_LIMIT`` cells (combinations times space) once the canonical
    guess fails to cover.
    """
    if message_size < 1:
        raise ValueError("message alphabet must be non-empty")
    sizes: dict[str, int] = {}
    for var, size in independents:
        if var in sizes:
            raise ValueError(f"variable {var!r} declared twice")
        if size < 2:
            raise ValueError(f"variable {var!r} needs an alphabet of size >= 2")
        sizes[var] = size
    per_var: dict[str, set[int]] = {}
    for var, mu in constraints:
        if var not in sizes:
            raise ValueError(f"constraint names unknown variable {var!r}")
        if not 0 <= mu < message_size:
            raise ValueError(f"message value {mu} outside alphabet of size {message_size}")
        if mu in per_var.setdefault(var, set()):
            raise ValueError(f"duplicate constraint ({var!r}, {mu})")
        per_var[var].add(mu)

    claim = (
        f"a {message_size}-ary message can reveal each promised variable on cue"
    )
    if not constraints:
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            notes=("no promises were made",),
        )

    # one slot per promise, variables in order of first promise and each one's
    # message values ascending, with its canonical constant: the value's rank, wrapped
    # when it passes the alphabet (the cover cannot improve past the alphabet)
    cvars = list(per_var)
    slots = [(axis, mu, rank % sizes[var]) for axis, var in enumerate(cvars)
             for rank, mu in enumerate(sorted(per_var[var]))]
    at: dict[int, list[tuple[int, int]]] = {}  # (variable axis, slot) per promise at mu
    for s, (axis, mu, _) in enumerate(slots):
        at.setdefault(mu, []).append((axis, s))
    # the smallest unpromised value is 0 or follows a promised one
    free = min(({0} | {mu + 1 for mu in at}) - at.keys())
    if free < message_size:
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            witness=f"m={free} carries no promise and can absorb every input",
            notes=(
                "an unpromised message value covers the whole input space by itself",
            ),
        )

    shape = [sizes[var] for var in cvars]
    slot_sizes = [shape[axis] for axis, _, _ in slots]
    space, combos = prod(shape), prod(slot_sizes)
    if space > DESK_LIMIT or combos > DESK_LIMIT:
        raise ValueError("constraint system too large for exhaustive feasibility")
    points = np.indices(shape).reshape(len(shape), space)
    # guess row r (in itertools.product order over the slots) gives slot s the
    # constant r // strides[s] % slot_sizes[s]
    strides = [prod(slot_sizes[s + 1:]) for s in range(len(slots))]

    def cover(rows: int | np.ndarray) -> np.ndarray:
        """hit[..., p]: point p lies in some message value's slab under guess row
        ``rows``, one row number or a column of them for a (rows, space) result."""
        hit = False
        for promised in at.values():
            inside = True
            for axis, s in promised:
                inside = inside & (points[axis] == rows // strides[s] % slot_sizes[s])
            hit = hit | inside
        return hit

    row = sum(c * stride for (_, _, c), stride in zip(slots, strides))
    covered = space
    misses = np.flatnonzero(~cover(row))
    if misses.size:
        if space * combos > DESK_LIMIT:
            raise ValueError(
                f"exhaustive feasibility would test {combos} guess combinations over "
                f"{space} cells each, more than the limit of {DESK_LIMIT} cell tests"
            )
        counts = cover(np.arange(combos)[:, None]).sum(axis=1)
        row, covered = int(counts.argmax()), int(counts.max())

    if covered == space:
        plan = "; ".join(
            f"m={mu} -> " + ",".join(
                f"{cvars[axis]}={row // strides[s] % slot_sizes[s]}" for axis, s in at[mu])
            for mu in sorted(at)
        )
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            witness=plan,
            notes=("the guess constants above cover the whole input space",),
        )
    best = Fraction(covered, space)
    cell = ",".join(f"{var}={x}" for var, x in zip(cvars, np.unravel_index(misses[0], shape)))
    return ProbeReport(
        claim=claim, passed=False, quantity=best, bound=Fraction(1),
        witness=f"P({cell})=0",
        notes=(
            "no choice of guess constants covers the input space",
            f"best cover reaches {best} of it",
            "the named cell is uncovered under the canonical constants "
            "(ascending message values guess 0,1,2,... per variable)",
        ),
    )


# The two explicit plan families checked in the appendices: a bit message
# promising one of two derived bits, and a trit message promising Alice's
# box output A or her input x_1 per message value.

BIT_CASES: dict[str, tuple[tuple[str, int], ...]] = {
    "a": (("atilde_0", 0), ("atilde_0", 1)),
    "b": (("atilde_1", 0), ("atilde_1", 1)),
    "c": (("atilde_0", 0), ("atilde_1", 1)),
    "d": (("atilde_1", 0), ("atilde_0", 1)),
}

TRIT_CASES: dict[int, tuple[tuple[str, int], ...]] = {
    1: (("A", 0), ("A", 1), ("A", 2)),
    2: (("x_1", 0), ("x_1", 1), ("x_1", 2)),
    3: (("A", 0), ("A", 1), ("x_1", 2)),
    4: (("A", 0), ("x_1", 1), ("A", 2)),
    5: (("x_1", 0), ("A", 1), ("A", 2)),
    6: (("A", 0), ("x_1", 1), ("x_1", 2)),
    7: (("x_1", 0), ("A", 1), ("x_1", 2)),
    8: (("x_1", 0), ("x_1", 1), ("A", 2)),
}


def bit_case(letter: str) -> ProbeReport:
    """One of the four bit-message plans over two derived bits."""
    if letter not in BIT_CASES:
        raise ValueError(f"bit case must be one of a,b,c,d, got {letter!r}")
    return guessing_feasibility(
        BIT_CASES[letter], [("atilde_0", 2), ("atilde_1", 2)], 2
    )


def trit_case(k: int) -> ProbeReport:
    """One of the eight trit-message plans over A and x_1."""
    if k not in TRIT_CASES:
        raise ValueError(f"trit case must be 1..8, got {k!r}")
    return guessing_feasibility(TRIT_CASES[k], [("A", 3), ("x_1", 3)], 3)
