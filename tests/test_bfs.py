"""Tests for the breadth-first Cayley-graph oracle.

The independent oracle here enumerates literal words over the generator
alphabet and evaluates them with the group operations, so the sphere
counts are certified by a route that never touches the BFS internals.
The orbit counts behind bfs_spheres, coset_distance_census and
relative_growth, and the distances of element_distance, are certified
element by element on the flat ball of tests/flat_bfs.py.
"""
from __future__ import annotations

import itertools
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth import bfs, group, growth
from horogrowth.bfs import (
    SphereCounts,
    _coset_orbit,
    _orbit_neighbours,
    _orbit_size,
    _orbits,
    _quotient,
    bfs_spheres,
    coset_distance_census,
    element_distance,
    relative_growth,
)
from horogrowth.errors import BudgetError
from horogrowth.geodesic import word_length
from horogrowth.group import (
    GroupElement,
    Word,
    coset_key,
    eval_word,
    inverse,
    is_horocyclic,
    multiply,
    parse_word,
    step,
)
from horogrowth.growth import CosetCensus, coset_census, full_series, subgroup_series
from horogrowth.series import poly, rf_mul, rf_normalize, series_prefix

from flat_bfs import flat_ball, moves, representative


def brute_spheres(m: int, max_len: int):
    """Sphere data by evaluating every word over the generator alphabet."""
    alphabet = [f"a{i}" for i in range(1, m + 1)]
    alphabet += [f"A{i}" for i in range(1, m + 1)]
    alphabet += ["t", "T"]
    seen = {}
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            g = eval_word(Word(m, letters))
            if g not in seen:
                seen[g] = n
    total = [0] * (max_len + 1)
    horo = [0] * (max_len + 1)
    by_level: dict[int, list[int]] = {}
    for g, n in seen.items():
        total[n] += 1
        if is_horocyclic(g):
            horo[n] += 1
        level = min(g.tee, 0)
        by_level.setdefault(level, [0] * (max_len + 1))[n] += 1
    return total, horo, by_level


def flat_spheres(m: int, radius: int) -> SphereCounts:
    """Sphere counts taken element by element on the flat ball."""
    total = [0] * (radius + 1)
    horo = [0] * (radius + 1)
    levels: dict[int, list[int]] = {}
    for g, r in flat_ball(m, radius).items():
        total[r] += 1
        horo[r] += is_horocyclic(g)
        levels.setdefault(min(g.tee, 0), [0] * (radius + 1))[r] += 1
    by_level = {level: tuple(col) for level, col in levels.items()}
    return SphereCounts(m, radius, tuple(total), tuple(horo), by_level)


def flat_census(m: int, radius: int) -> CosetCensus:
    """Each coset_key of the flat ball charged to its closest element."""
    columns = {level: [0] * (radius + 1) for level in range(0, -(radius + 1), -1)}
    seen = set()
    for g, r in flat_ball(m, radius).items():
        key = coset_key(g)
        if key not in seen:
            seen.add(key)
            columns[min(g.tee, 0)][r] += 1
    return CosetCensus(m, radius, {lv: tuple(col) for lv, col in columns.items()})


def flat_relative_growth(m: int, stem: Word, radius: int) -> list[int]:
    """Elements of the flat ball in the stem's coset, by distance."""
    span = stem.length + radius
    key = coset_key(eval_word(stem))
    per_radius = [0] * (span + 1)
    for g, r in flat_ball(m, span).items():
        if g.tee == key[0] and coset_key(g) == key:
            per_radius[r] += 1
    return per_radius[stem.length :]


def signed_permutations(m: int):
    """Every signed permutation of m coordinates, as a function on vectors."""
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((1, -1), repeat=m):
            yield lambda v, p=perm, s=signs: tuple(e * v[i] for e, i in zip(s, p))


# ---------------------------------------------------------------------------
# generator steps


GENS2 = {
    "a1": GroupElement(0, 0, (1, 0)),
    "A1": GroupElement(0, 0, (-1, 0)),
    "a2": GroupElement(0, 0, (0, 1)),
    "A2": GroupElement(0, 0, (0, -1)),
    "t": GroupElement(1, 0, (0, 0)),
    "T": GroupElement(-1, 0, (0, 0)),
}
TOKENS2 = list(GENS2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS2), max_size=8))
def test_state_stepping_matches_group_multiplication(tokens):
    moves = {"a1": (0, 1), "A1": (0, -1), "a2": (1, 1), "A2": (1, -1), "t": (-1, 1), "T": (-1, -1)}
    stepped = multiplied = GroupElement.identity(2)
    for tok in tokens:
        stepped = step(stepped, *moves[tok])
        multiplied = multiply(multiplied, GENS2[tok])
        assert stepped == multiplied
    assert stepped == eval_word(Word(2, tuple(tokens)))


def test_move_order_is_generator_index_then_vertical():
    # the flat search's moves: a1, A1, a2, A2, t, T
    assert moves(2) == ((0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


# ---------------------------------------------------------------------------
# spheres


def test_sphere_goldens():
    one = bfs_spheres(1, 2)
    assert list(one.total) == [1, 4, 12]
    assert list(one.horocyclic) == [1, 2, 2]
    two = bfs_spheres(2, 2)
    assert list(two.total) == [1, 6, 26]
    for m in (1, 2, 3):
        assert bfs_spheres(m, 1).total[1] == 2 * m + 2


@pytest.mark.parametrize("m,max_len", [(1, 5), (2, 4)])
def test_spheres_match_word_enumeration(m, max_len):
    counts = bfs_spheres(m, max_len)
    total, horo, by_level = brute_spheres(m, max_len)
    assert list(counts.total) == total
    assert list(counts.horocyclic) == horo
    assert {lv: list(col) for lv, col in counts.by_level.items()} == by_level


@pytest.mark.parametrize("m,radius", [(1, 6), (2, 5), (3, 4)])
def test_sphere_invariants(m, radius):
    counts = bfs_spheres(m, radius)
    assert counts.total[0] == 1
    assert counts.total[1] == 2 * m + 2
    assert all(h <= t for h, t in zip(counts.horocyclic, counts.total))
    assert all(level <= 0 for level in counts.by_level)
    for n in range(radius + 1):
        assert sum(col[n] for col in counts.by_level.values()) == counts.total[n]


def test_subgroup_sphere_goldens():
    assert list(bfs_spheres(1, 6).horocyclic) == [1, 2, 2, 2, 4, 6, 8]
    assert list(bfs_spheres(2, 5).horocyclic) == [1, 4, 8, 12, 24, 52]


def test_budget_caps():
    with pytest.raises(BudgetError):
        bfs_spheres(1, 13)
    with pytest.raises(BudgetError):
        bfs_spheres(2, 10)
    with pytest.raises(BudgetError):
        bfs_spheres(3, 8)
    with pytest.raises(BudgetError):
        bfs_spheres(4, 1)
    with pytest.raises(ValueError):
        bfs_spheres(1, -1)
    for m in (0, -1):
        with pytest.raises(ValueError, match="rank m must be at least 1"):
            bfs_spheres(m, 1)
    with pytest.raises(BudgetError):
        coset_distance_census(1, 10**12)
    with pytest.raises(BudgetError):
        bfs_spheres(2, 10**12)


def test_memory_budget_env(monkeypatch):
    bfs_spheres(2, 8)  # a cached search must not bypass the budget
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    with pytest.raises(BudgetError):
        bfs_spheres(2, 8)
    with pytest.raises(BudgetError):
        element_distance(2, (-40, -36))  # its far radius is 8
    monkeypatch.delenv("HOROGROWTH_BUDGET_MB")
    assert bfs_spheres(1, 3).total[0] == 1


def test_ball_is_in_breadth_first_order():
    distances = dict(_orbits(2, 4))
    assert list(distances.values()) == sorted(distances.values())
    for g, d in distances.items():
        near = [distances.get(nb, 99) for nb in _orbit_neighbours(g)]
        assert min(near) == (d - 1 if d else 1)


@pytest.fixture
def fresh_enumerations():
    """Start from unsearched quotients, and leave none half grown."""
    _quotient.cache_clear()
    yield
    _quotient.cache_clear()


def _hung(signum, frame):
    raise TimeoutError("the search is still growing")


def test_budget_overrun_on_a_fresh_enumeration(fresh_enumerations, monkeypatch):
    # the overrun reached through element_distance, whose far radius here is 8
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    vec = (-40, -36)
    # a search that regrows the discarded sphere would never return
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError, match="the rank-2 ball of radius 8 holds more than"):
            element_distance(2, vec)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    # the overrunning sphere is discarded, leaving whole spheres only
    kept = _quotient(2)
    model = bfs._ORBIT_BYTES + 2 * bfs._ORBIT_BYTES_PER_COORD
    assert kept.ends[-1] == len(kept.dist) < 1024 * 1024 // model
    monkeypatch.delenv("HOROGROWTH_BUDGET_MB")
    distance = element_distance(2, vec)
    assert distance == word_length(2, vec)
    grown = list(_orbits(2, 8))
    # the search grown on from the rollback equals one grown afresh
    _quotient.cache_clear()
    assert element_distance(2, vec) == distance
    assert list(_orbits(2, 8)) == grown


def test_smaller_balls_survive_growth(fresh_enumerations):
    stale = _orbits(2, 4)
    before = list(_orbits(2, 4))
    grown = list(_orbits(2, 8))
    assert len(grown) == 6632
    assert grown[: len(before)] == before == list(_orbits(2, 4))
    assert len(before) == len({representative(g) for g in flat_ball(2, 4)})
    assert max(d for _, d in before) == 4 and grown[len(before)][1] == 5
    # a ball read after its search grew fails instead of reading on
    with pytest.raises(RuntimeError):
        list(stale)


_MEASURE_PEAK = """
import sys, tracemalloc
from flat_bfs import flat_ball
from horogrowth.bfs import _orbits
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
tracemalloc.reset_peak()
states = sum(1 for _ in {search}(*map(int, sys.argv[1:])))
print(states, (tracemalloc.get_traced_memory()[1] - base) / states)
"""


def fresh_peak_per_state(search: str, m: int, radius: int) -> tuple[int, float]:
    """(states, tracemalloc peak bytes per state) of a search grown in a
    fresh interpreter: in this one, tuples that earlier tests freed wait in
    CPython's free lists, and a search that reuses them shows fewer bytes."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_PEAK.format(search=search), str(m), str(radius)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    states, per_state = proc.stdout.split()
    return int(states), float(per_state)


@pytest.mark.parametrize("m,radius", [(2, 8), (3, 6)])
def test_budget_model_covers_the_measured_bytes(m, radius):
    # the flat-state model that perfbench reads, against the flat search
    _, per_state = fresh_peak_per_state("flat_ball", m, radius)
    model = bfs._STATE_BYTES + bfs._STATE_BYTES_PER_COORD * m
    # a tenth of headroom over the peak, without refusing balls that fit
    assert 1.1 * per_state <= model <= 1.75 * per_state


def test_spheres_need_no_closed_form(fresh_enumerations, monkeypatch):
    def closed_form(*args):
        raise AssertionError("the oracle consulted a closed form")

    for module in (bfs, growth):
        monkeypatch.setattr(module, "full_series", closed_form, raising=False)
        monkeypatch.setattr(module, "series_prefix", closed_form, raising=False)
    counts = bfs_spheres(2, 5)
    assert list(counts.total) == [1, 6, 26, 98, 334, 1074]
    assert list(counts.horocyclic) == [1, 4, 8, 12, 24, 52]


# ---------------------------------------------------------------------------
# orbits of the signed permutations


def test_orbit_size_counts_the_signed_permutations():
    for m in range(1, 5):
        for v in itertools.combinations_with_replacement(range(4), m):
            images = {sigma(v) for sigma in signed_permutations(m)}
            assert _orbit_size(m, v) == len(images), v


def test_coset_orbit_is_invariant_and_sized_like_an_orbit():
    # the cosets met by the signed images of g are exactly the coset orbit
    # of g's key, and they number _orbit_size of its canonical residues
    for m in (1, 2, 3):
        for g in flat_ball(m, 4):
            tee, exp, nums = g
            keys = {
                coset_key(GroupElement(tee, exp, sigma(nums)))
                for sigma in signed_permutations(m)
            }
            canonical = {_coset_orbit(key) for key in keys}
            assert canonical == {_coset_orbit(coset_key(g))}
            assert len(keys) == _orbit_size(m, canonical.pop()[2]), g


@pytest.mark.parametrize("m,radius", [(1, 10), (2, 8), (3, 6)])
def test_orbit_spheres_match_the_flat_ball(m, radius):
    assert bfs_spheres(m, radius) == flat_spheres(m, radius)


@pytest.mark.parametrize("m,radius", [(1, 10), (2, 8), (3, 6)])
def test_orbit_census_matches_a_flat_coset_scan(m, radius):
    assert coset_distance_census(m, radius) == flat_census(m, radius)


@pytest.mark.parametrize("stem", ["", "t", "T", "TT", "at"])
@pytest.mark.parametrize("m,span", [(1, 10), (2, 8), (3, 6)])
def test_relative_growth_matches_a_flat_scan(m, span, stem):
    # "at" reaches a coset that the signed permutations move
    word = parse_word(stem, m)
    radius = span - word.length
    assert relative_growth(m, word, radius) == flat_relative_growth(m, word, radius)


@pytest.mark.parametrize("m,radius", [(1, 10), (2, 8), (3, 6)])
def test_quotient_stores_the_distance_of_every_element(m, radius):
    # each element's orbit representative is stored at the element's distance
    orbits = dict(_orbits(m, radius))
    reps = set()
    for g, d in flat_ball(m, radius).items():
        rep = representative(g)
        assert orbits[rep] == d, g
        reps.add(rep)
    assert reps == set(orbits)


@pytest.mark.parametrize("m,radius", [(4, 7), (5, 6), (6, 6)])
def test_orbit_counts_match_the_closed_forms_past_the_caps(monkeypatch, m, radius):
    # ranks past the radius caps, with repeated nonzero magnitudes
    monkeypatch.setitem(bfs.RADIUS_CAP, m, radius)
    counts = bfs_spheres(m, radius)
    assert list(counts.total) == list(series_prefix(full_series(m), radius))
    assert list(counts.horocyclic) == list(series_prefix(subgroup_series(m), radius))
    assert coset_distance_census(m, radius) == coset_census(m, radius)
    reps = [g for g, r in _orbits(m, radius)]
    assert any(0 < a == b for g in reps for a, b in zip(g.nums, g.nums[1:]))


def test_orbit_budget_is_checked_on_every_call(monkeypatch):
    bfs_spheres(2, 8)  # a cached quotient must not bypass the budget
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    message = "the rank-2 ball of radius 8 holds more than"
    with pytest.raises(BudgetError, match=message):
        bfs_spheres(2, 8)
    with pytest.raises(BudgetError, match=message):
        coset_distance_census(2, 8)
    with pytest.raises(BudgetError, match=message):
        relative_growth(2, parse_word("TT", 2), 6)


def test_orbit_budget_overrun_on_a_fresh_quotient(fresh_enumerations, monkeypatch):
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    # a search that regrows the discarded sphere would never return
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError, match="the rank-2 ball of radius 8 holds more than"):
            bfs_spheres(2, 8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    # the overrunning sphere is discarded, leaving whole spheres only
    kept = _quotient(2)
    model = bfs._ORBIT_BYTES + 2 * bfs._ORBIT_BYTES_PER_COORD
    assert kept.ends[-1] == len(kept.dist) < 1024 * 1024 // model
    monkeypatch.delenv("HOROGROWTH_BUDGET_MB")
    grown = list(_orbits(2, 8))
    assert bfs_spheres(2, 8) == flat_spheres(2, 8)
    assert len(kept.dist) == 6632  # of the ball's 46,105 elements
    _quotient.cache_clear()
    assert list(_orbits(2, 8)) == grown


@pytest.mark.parametrize("m,radius", [(2, 8), (3, 6)])
def test_orbit_budget_model_covers_the_measured_bytes(m, radius):
    orbits, per_orbit = fresh_peak_per_state("_orbits", m, radius)
    assert orbits == {(2, 8): 6632, (3, 6): 1065}[m, radius]
    model = bfs._ORBIT_BYTES + bfs._ORBIT_BYTES_PER_COORD * m
    # a tenth of headroom over the peak, without refusing balls that fit
    assert 1.1 * per_orbit <= model <= 1.75 * per_orbit


# ---------------------------------------------------------------------------
# distances


def far_radius(m: int, upper: int) -> int:
    """The radius that element_distance grows its search to."""
    return min(upper - upper // 2 + 2, bfs.RADIUS_CAP[m], upper)


def test_element_distance_goldens():
    assert element_distance(1, (6,)) == 4
    assert element_distance(1, (0,)) == 0
    assert element_distance(1, (1,)) == 1
    assert element_distance(2, (10, 16)) == 10


def test_element_distance_matches_word_length_rank_one():
    for v in range(-13, 14):
        assert element_distance(1, (v,)) == word_length(1, (v,))


def test_element_distance_matches_word_length_rank_two():
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert element_distance(2, (a, b)) == word_length(2, (a, b))


def test_element_distance_matches_word_length_rank_three():
    for v in itertools.product(range(-3, 4), repeat=3):
        assert element_distance(3, v) == word_length(3, v)


@pytest.mark.parametrize("n", range(5))
def test_element_distance_across_the_band_bounds(n):
    # both sides of the balanced bound (3^(n+1) -+ 1)/2, where a lead 2 starts,
    # and of the band bound (5 3^n -+ 1)/2, where the top index steps to n+1
    for e in (
        (3 ** (n + 1) - 1) // 2,
        (3 ** (n + 1) + 1) // 2,
        (5 * 3**n - 1) // 2,
        (5 * 3**n + 1) // 2,
    ):
        assert element_distance(1, (e,)) == word_length(1, (e,))


BOXES = (
    [(v,) for v in range(-13, 14)]
    + list(itertools.product(range(-4, 5), repeat=2))
    + list(itertools.product(range(-3, 4), repeat=3))
)


@pytest.mark.parametrize("excess", [1, 2, 3])
def test_element_distance_is_exact_from_an_overestimate(monkeypatch, excess):
    monkeypatch.setattr(bfs, "word_length", lambda m, v: word_length(m, v) + excess)
    for v in BOXES:
        assert element_distance(len(v), v) == word_length(len(v), v)


def test_element_distance_refuses_an_underestimate(monkeypatch):
    monkeypatch.setattr(bfs, "word_length", lambda m, v: word_length(m, v) - 1)
    vectors = [(1,), (6,), (13,), (4, -3), (10, 16), (3, -2, 1)]
    for v in vectors:
        with pytest.raises(ValueError, match=re.escape(str(v))):
            element_distance(len(v), v)
    # once the search holds g, its stored distance is refused as well
    for v in vectors:
        list(_orbits(len(v), {1: 10, 2: 8, 3: 6}[len(v)]))
    stored = [v for v in vectors if representative((0, 0, v)) in _quotient(len(v)).dist]
    assert len(stored) == 5
    for v in stored:
        with pytest.raises(ValueError, match=re.escape(str(v))):
            element_distance(len(v), v)


def test_distance_search_runs_no_group_product(monkeypatch):
    far = [(-40, -36), (-40, -6), (-20, -19, -9)]
    for v in far:
        list(_orbits(len(v), far_radius(len(v), 12)))  # grown by group.step

    def product(*args):
        raise AssertionError("the distance search ran a general group product")

    monkeypatch.setattr(group, "multiply", product)
    monkeypatch.setattr(group, "_canonical", product)
    monkeypatch.setattr(bfs, "multiply", product, raising=False)
    for v in far:
        assert element_distance(len(v), v) == 12


class _RecordedLookups(dict):
    def __init__(self, entries):
        super().__init__(entries)
        self.looked_up = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("vec", [(40,), (121,), (-40, -6), (7, -11), (-20, -19, -9)])
def test_distance_search_looks_up_each_translate(fresh_enumerations, monkeypatch, vec):
    # the translate of a sphere state by a^-u, for each signed image u of
    # vec, is computed without multiply; its key must be the representative
    # of the canonical product itself, or the lookup misses silently.
    # g's own representative is looked up first, and lies beyond the search.
    m, upper = len(vec), word_length(len(vec), vec)
    far = far_radius(m, upper)
    list(_orbits(m, far))
    search = _quotient(m)
    recorded = _RecordedLookups(search.dist)
    monkeypatch.setattr(search, "dist", recorded)
    assert element_distance(m, vec) == upper
    sphere = [s for s, d in _orbits(m, upper - far) if d == upper - far]
    images = {sigma(vec) for sigma in signed_permutations(m)}
    translates = [
        representative(multiply(inverse(GroupElement(0, 0, u)), s))
        for s in sphere
        for u in images
    ]
    assert recorded.looked_up[0] == representative((0, 0, vec))
    assert sorted(recorded.looked_up[1:]) == sorted(translates)
    assert any(s.exp for s in sphere) and len(images) > 1


def test_element_distance_is_the_flat_distance(fresh_enumerations):
    # an independent certificate, with no word_length: every horocyclic
    # element of the flat balls, at its breadth-first distance
    for m, radius in [(1, 10), (2, 8), (3, 6)]:
        for g, d in flat_ball(m, radius).items():
            if is_horocyclic(g):
                assert element_distance(m, g.nums) == d, g


def test_element_distance_budget():
    with pytest.raises(BudgetError):
        element_distance(2, (3**10, 0))
    with pytest.raises(BudgetError):
        element_distance(4, (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# coset census and relative growth


@pytest.mark.parametrize("m,radius", [(1, 6), (2, 5)])
def test_coset_census_matches_stem_dp(m, radius):
    assert coset_distance_census(m, radius) == coset_census(m, radius)


def test_coset_census_goldens():
    census = coset_distance_census(1, 4)
    assert [census.chi(0, r) for r in range(4)] == [1, 1, 3, 7]
    assert [census.chi(-1, r) for r in range(1, 5)] == [1, 0, 0, 2]
    assert coset_distance_census(2, 4).chi(-1, 1) == 1


def test_relative_growth_goldens():
    s1 = [1, 2, 2, 2, 4]
    assert relative_growth(1, parse_word("", 1), 4) == s1
    assert relative_growth(1, parse_word("t", 1), 4) == s1
    assert relative_growth(1, parse_word("T", 1), 3) == [1, 4, 6, 6]
    expected = list(
        series_prefix(
            rf_mul(rf_normalize(poly(1, 4, 4), poly(1)), subgroup_series(1)), 3
        )
    )
    assert relative_growth(1, parse_word("TT", 1), 3) == expected


def test_relative_growth_rejects_non_stem():
    with pytest.raises(ValueError):
        relative_growth(1, parse_word("a", 1), 2)


@pytest.mark.parametrize(
    "m,stem,radius",
    [(2, "TT", -1), (2, "t", -1), (2, "TT", -2), (1, "T", -1), (3, "at", -2), (1, "", -1)],
)
def test_relative_growth_refuses_a_negative_radius(monkeypatch, m, stem, radius):
    def enumerate_(*args):
        raise AssertionError("enumerated before refusing the radius")

    monkeypatch.setattr(bfs, "_orbits", enumerate_)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        relative_growth(m, parse_word(stem, m), radius)


def test_relative_growth_budget():
    with pytest.raises(BudgetError):
        relative_growth(1, parse_word("T", 1), 12)


# ---------------------------------------------------------------------------
# report


def test_report_json_golden():
    counts = bfs_spheres(1, 2)
    assert (list(counts.total), list(counts.horocyclic)) == ([1, 4, 12], [1, 2, 2])
    assert coset_distance_census(1, 2).to_json()["chi"] == {
        "0": [1, 1, 3],
        "-1": [0, 1, 0],
        "-2": [0, 0, 1],
    }
