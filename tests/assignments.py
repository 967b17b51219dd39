"""Enumerating assignments for the tests that build joints and tables value by value."""

import itertools
from typing import Iterable, Sequence


def iter_assignments(sizes: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """All value tuples for the given cardinalities, row-major (last varies fastest)."""
    return itertools.product(*(range(s) for s in sizes))
