"""Breadth-first enumeration of the Cayley graph.

This is the brute-force certificate for the closed-form series: sphere
sizes, geodesic distances, coset distances, and relative coset growth
are measured directly on group elements, never through a formula.
Elements are enumerated in the packed form of ``group`` and stepped
with ``group.step``.

Enumeration is capped per rank and by an overall memory budget taken
from the environment variable HOROGROWTH_BUDGET_MB (default 512); work
that would exceed either raises BudgetError before any state is stored.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import BudgetError
from .geodesic import word_length
from .group import GroupElement, Word, coset_key, eval_word, is_horocyclic, step
from .growth import CosetCensus, full_series
from .series import series_prefix

RADIUS_CAP = {1: 12, 2: 9, 3: 7}

_DEFAULT_BUDGET_MB = 512
_STATE_BYTES = 120
_STATE_BYTES_PER_COORD = 60


def _moves(m: int) -> tuple[tuple[int, int], ...]:
    """Right-multiplication moves in order a1, A1, ..., am, Am, t, T, as
    the (index, sign) arguments of group.step."""
    lattice = tuple((i, s) for i in range(m) for s in (1, -1))
    return lattice + ((-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# budgets


def _budget_bytes() -> int:
    raw = os.environ.get("HOROGROWTH_BUDGET_MB")
    if raw is None:
        mb = _DEFAULT_BUDGET_MB
    else:
        try:
            mb = int(raw)
        except ValueError:
            raise BudgetError(f"HOROGROWTH_BUDGET_MB is not an integer: {raw!r}")
        if mb <= 0:
            raise BudgetError(f"HOROGROWTH_BUDGET_MB must be positive: {mb}")
    return mb * 1024 * 1024


def _ball_states(m: int, radius: int) -> int:
    """Exact number of states in the ball, from the closed-form series."""
    return sum(series_prefix(full_series(m), radius))


def _check_memory(m: int, states: int) -> None:
    need = states * (_STATE_BYTES + _STATE_BYTES_PER_COORD * m)
    allowed = _budget_bytes()
    if need > allowed:
        raise BudgetError(
            f"enumeration needs about {need} bytes but the budget is "
            f"{allowed} (set HOROGROWTH_BUDGET_MB to raise it)"
        )


def _check_budget(m: int, radius: int) -> None:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    cap = RADIUS_CAP.get(m)
    if cap is None:
        raise BudgetError(f"no enumeration budget for rank {m}")
    if radius > cap:
        raise BudgetError(f"radius {radius} exceeds the rank-{m} cap {cap}")
    _check_memory(m, _ball_states(m, radius))


# ---------------------------------------------------------------------------
# balls


def _distances_from(start: GroupElement, radius: int) -> dict[GroupElement, int]:
    """Graph distance from start of every element within radius, in
    breadth-first order."""
    moves = _moves(start.m)
    dist = {start: 0}
    frontier = [start]
    for r in range(1, radius + 1):
        fresh = []
        for g in frontier:
            for index, sign in moves:
                nb = step(g, index, sign)
                if nb not in dist:
                    dist[nb] = r
                    fresh.append(nb)
        frontier = fresh
    return dist


@lru_cache(maxsize=None)
def _ball(m: int, radius: int) -> Mapping[GroupElement, int]:
    return MappingProxyType(_distances_from(GroupElement.identity(m), radius))


def ball(m: int, radius: int) -> Mapping[GroupElement, int]:
    """Graph distance from the identity of every element within radius,
    in breadth-first order (so distances never decrease).  The budget is
    checked on every call; the ball itself is cached."""
    _check_budget(m, radius)
    return _ball(m, radius)


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
    """Graph distance from the identity to the lattice element a^vec.

    Works by growing balls around both endpoints to half the spelled
    word length, so it needs word_length(m, vec) <= 2 * RADIUS_CAP[m].
    """
    if len(vec) != m:
        raise ValueError("vector length does not match the rank")
    cap = RADIUS_CAP.get(m)
    if cap is None:
        raise BudgetError(f"no enumeration budget for rank {m}")
    if not any(vec):
        return 0
    upper = word_length(m, vec)
    if upper > 2 * cap:
        raise BudgetError(
            f"word length {upper} exceeds twice the rank-{m} cap {cap}"
        )
    near = upper // 2
    far = upper - near
    _check_memory(m, _ball_states(m, near) + _ball_states(m, far))
    df = _distances_from(GroupElement.identity(m), near)
    db = _distances_from(GroupElement(0, 0, tuple(vec)), far)
    if len(db) < len(df):
        df, db = db, df
    return min(df[s] + db[s] for s in df if s in db)


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
