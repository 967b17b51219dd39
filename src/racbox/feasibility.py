"""Feasibility of perfect-guess message plans.

The question: Bob receives a message m and, depending on its value, must
name one of Alice's uniform independent variables with certainty.  Does any
joint distribution of (variables, m) satisfy all such promises at once?

Conditioned on m = mu, each variable promised at mu must be a constant, so
the support of the inputs given m = mu lies in an axis-aligned slab.  The
input marginal has full support, hence the slabs over all message values
must cover the whole product space of the constrained variables; and any
cover yields a strategy (send the first covering message value).  That
makes feasibility a finite covering problem over the guess constants,
solved here exhaustively.

An uncovered cell under the canonical constants (per variable, promised
message values in ascending order guess 0, 1, 2, ...) doubles as the
witness "P(cell) = 0": the cell every relabeling of an infeasible plan
must starve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

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
    per_var: dict[str, list[int]] = {}
    cvars: list[str] = []
    seen: set[tuple[str, int]] = set()
    for var, mu in constraints:
        if var not in sizes:
            raise ValueError(f"constraint names unknown variable {var!r}")
        if not 0 <= mu < message_size:
            raise ValueError(f"message value {mu} outside alphabet of size {message_size}")
        if (var, mu) in seen:
            raise ValueError(f"duplicate constraint ({var!r}, {mu})")
        seen.add((var, mu))
        if var not in per_var:
            per_var[var] = []
            cvars.append(var)
        per_var[var].append(mu)
    for var in per_var:
        per_var[var].sort()

    claim = (
        f"a {message_size}-ary message can reveal each promised variable on cue"
    )
    if not constraints:
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            notes=("no promises were made",),
        )

    vars_at: dict[int, list[str]] = {mu: [] for mu in range(message_size)}
    for var, mus in per_var.items():
        for mu in mus:
            vars_at[mu].append(var)
    free_mus = [mu for mu in range(message_size) if not vars_at[mu]]
    if free_mus:
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            witness=f"m={free_mus[0]} carries no promise and can absorb every input",
            notes=(
                "an unpromised message value covers the whole input space by itself",
            ),
        )

    space = 1
    for var in cvars:
        space *= sizes[var]
    slots = [(var, mu) for var in cvars for mu in per_var[var]]
    combos = 1
    for var, _ in slots:
        combos *= sizes[var]
    if space > DESK_LIMIT or combos > DESK_LIMIT:
        raise ValueError("constraint system too large for exhaustive feasibility")

    def coverage(guess: dict[tuple[str, int], int]) -> tuple[int, tuple[int, ...] | None]:
        """Covered-point count and the lexicographically smallest uncovered cell."""
        covered = 0
        first_miss: tuple[int, ...] | None = None
        for point in product(*(range(sizes[v]) for v in cvars)):
            vals = dict(zip(cvars, point))
            hit = any(
                all(vals[v] == guess[(v, mu)] for v in vars_at[mu])
                for mu in range(message_size)
            )
            if hit:
                covered += 1
            elif first_miss is None:
                first_miss = point
        return covered, first_miss

    canonical = {
        (var, mu): rank
        for var, mus in per_var.items()
        for rank, mu in enumerate(mus)
    }
    # ranks can exceed the alphabet when a variable is promised more often
    # than it has values; wrap them (the cover cannot improve past the alphabet)
    canonical = {k: v % sizes[k[0]] for k, v in canonical.items()}
    canon_covered, canon_miss = coverage(canonical)

    best = Fraction(canon_covered, space)
    best_guess = canonical
    feasible = canon_covered == space
    if not feasible:
        if space * combos > DESK_LIMIT:
            raise ValueError(
                f"exhaustive feasibility would test {combos} guess combinations over "
                f"{space} cells each, more than the limit of {DESK_LIMIT} cell tests"
            )
        for values in product(*(range(sizes[var]) for var, _ in slots)):
            guess = dict(zip(slots, values))
            covered, _ = coverage(guess)
            if Fraction(covered, space) > best:
                best = Fraction(covered, space)
                best_guess = guess
            if covered == space:
                feasible = True
                break

    if feasible:
        plan = "; ".join(
            f"m={mu} -> " + ",".join(f"{v}={best_guess[(v, mu)]}" for v in vars_at[mu])
            for mu in range(message_size)
        )
        return ProbeReport(
            claim=claim, passed=True, quantity=Fraction(1), bound=Fraction(1),
            witness=plan,
            notes=("the guess constants above cover the whole input space",),
        )
    assert canon_miss is not None
    cell = ",".join(f"{v}={x}" for v, x in zip(cvars, canon_miss))
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
