"""Breadth-first enumeration of the Cayley graph.

This is the brute-force certificate for the closed-form series: sphere
sizes, geodesic distances, coset distances, and relative coset growth
are measured directly on group elements, never through a formula.
Each rank has one enumeration from the identity, in the packed form of
``group`` and stepped with ``group.step``; it grows a sphere at a time
on demand, and every ball is a view of its first spheres.  Radii are
capped per rank, and stored states are counted against a memory budget
(HOROGROWTH_BUDGET_MB, default 512): a sphere that would overrun it is
discarded and BudgetError raised, keeping the whole spheres.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Mapping, Sequence

from .errors import BudgetError
from .geodesic import word_length
from .group import (
    GroupElement, Word, coset_key, eval_word, is_horocyclic, multiply, step
)
from .growth import CosetCensus

RADIUS_CAP = {1: 12, 2: 9, 3: 7}

_DEFAULT_BUDGET_MB = 512
_STATE_BYTES = 120
_STATE_BYTES_PER_COORD = 60


def _moves(m: int) -> tuple[tuple[int, int], ...]:
    """Right-multiplication moves in order a1, A1, ..., am, Am, t, T, as
    the (index, sign) arguments of group.step."""
    lattice = tuple((i, s) for i in range(m) for s in (1, -1))
    return lattice + ((-1, 1), (-1, -1))


def _budget_bytes() -> int:
    raw = os.environ.get("HOROGROWTH_BUDGET_MB", str(_DEFAULT_BUDGET_MB))
    try:
        mb = int(raw)
    except ValueError:
        raise BudgetError(f"HOROGROWTH_BUDGET_MB is not an integer: {raw!r}")
    if mb <= 0:
        raise BudgetError(f"HOROGROWTH_BUDGET_MB must be positive: {mb}")
    return mb * 1024 * 1024


class _Enumeration:
    """Graph distances from the identity in breadth-first order: the first
    ends[r] elements lie within radius r, and frontier is the last sphere."""

    def __init__(self, m: int):
        self.moves = _moves(m)
        self.frontier = [GroupElement.identity(m)]
        self.dist = {self.frontier[0]: 0}
        self.ends = [1]

    def grow(self, radius: int, limit: int) -> bool:
        """Whether the ball fits in limit states, enumerating out to radius
        if so; a sphere that overruns the limit is discarded."""
        dist = self.dist
        while len(self.ends) <= radius:
            r = len(self.ends)
            for g in self.frontier:
                for index, sign in self.moves:
                    nb = step(g, index, sign)
                    if nb not in dist:
                        dist[nb] = r
                if len(dist) > limit:
                    while len(dist) > self.ends[-1]:
                        dist.popitem()
                    return False
            self.frontier = list(islice(dist, self.ends[-1], None))
            self.ends.append(len(dist))
        return self.ends[radius] <= limit


_enumeration = lru_cache(maxsize=None)(_Enumeration)


class _SphereView(Mapping):
    """Spheres 0..radius of an enumeration, read-only.  items() is an
    iterator, and like any dict iterator it fails if the enumeration grows."""

    def __init__(self, dist: dict[GroupElement, int], radius: int, size: int):
        self._dist, self._radius, self._size = dist, radius, size

    def __getitem__(self, g: GroupElement) -> int:
        d = self._dist[g]
        if d > self._radius:
            raise KeyError(g)
        return d

    def __iter__(self):
        return islice(self._dist, self._size)

    def __len__(self) -> int:
        return self._size

    def items(self):
        return islice(self._dist.items(), self._size)


def ball(m: int, radius: int) -> Mapping[GroupElement, int]:
    """Graph distance from the identity of every element within radius,
    in breadth-first order (so distances never decrease).  The budget is
    checked on every call, against the states the ball holds."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > RADIUS_CAP.get(m, -1):
        raise BudgetError(
            f"no rank-{m} ball of radius {radius} within the radius caps {RADIUS_CAP}"
        )
    limit = _budget_bytes() // (_STATE_BYTES + _STATE_BYTES_PER_COORD * m)
    enum = _enumeration(m)
    if not enum.grow(radius, limit):
        raise BudgetError(
            f"the rank-{m} ball of radius {radius} holds more than the {limit} "
            "states the memory budget allows (set HOROGROWTH_BUDGET_MB to raise it)"
        )
    return _SphereView(enum.dist, radius, enum.ends[radius])


@dataclass(frozen=True)
class SphereCounts:
    """Sphere sizes out to the given radius, total and split by the
    height bucket min(tau, 0)."""

    m: int
    radius: int
    total: tuple[int, ...]
    horocyclic: tuple[int, ...]
    by_level: Mapping[int, tuple[int, ...]]


def bfs_spheres(m: int, radius: int) -> SphereCounts:
    """Count elements at each graph distance 0..radius."""
    elements = ball(m, radius)
    total = [0] * (radius + 1)
    horo = [0] * (radius + 1)
    levels: dict[int, list[int]] = {}
    for g, r in elements.items():
        total[r] += 1
        if is_horocyclic(g):
            horo[r] += 1
        levels.setdefault(min(g.tee, 0), [0] * (radius + 1))[r] += 1
    by_level = {level: tuple(col) for level, col in levels.items()}
    return SphereCounts(m, radius, tuple(total), tuple(horo), by_level)


# ---------------------------------------------------------------------------
# distances


def element_distance(m: int, vec: Sequence[int]) -> int:
    """Graph distance from the identity to g = a^vec, for word_length(m, vec)
    <= 2 * RADIUS_CAP[m].  Left multiplication is a graph automorphism, so
    this is the least d(e, s) + d(e, g^-1 s) over s in the half ball."""
    if len(vec) != m:
        raise ValueError("vector length does not match the rank")
    upper = word_length(m, vec)
    near = upper // 2
    back = ball(m, upper - near)
    ginv = GroupElement(0, 0, tuple(-x for x in vec))
    return min(
        d + e
        for s, d in ball(m, near).items()
        if (e := back.get(multiply(ginv, s))) is not None
    )


# ---------------------------------------------------------------------------
# coset census and relative growth


def coset_distance_census(m: int, radius: int) -> CosetCensus:
    """chi(level, r) measured on the graph: each coset is charged to the
    distance of its closest element."""
    elements = ball(m, radius)
    columns = {level: [0] * (radius + 1) for level in range(0, -(radius + 1), -1)}
    seen = set()
    for g, r in elements.items():
        key = coset_key(g)
        if key not in seen:
            seen.add(key)
            columns[min(g.tee, 0)][r] += 1
    return CosetCensus(m, radius, {lv: tuple(col) for lv, col in columns.items()})


def relative_growth(m: int, stem: Word, radius: int) -> list[int]:
    """Count elements of the coset (stem) Z^m at distance L + r for
    r = 0..radius, where L is the stem's token count.

    The stem must be geodesic to its coset: its token count must equal
    the coset's graph distance, otherwise ValueError."""
    if stem.m != m:
        raise ValueError("stem rank does not match m")
    span = stem.length + radius
    elements = ball(m, span)
    key = coset_key(eval_word(stem))
    per_radius = [0] * (span + 1)
    for g, r in elements.items():
        if coset_key(g) == key:
            per_radius[r] += 1
    first = next(r for r, count in enumerate(per_radius) if count)
    if first != stem.length:
        raise ValueError(
            f"stem of length {stem.length} reaches a coset at distance {first}"
        )
    return per_radius[stem.length :]
