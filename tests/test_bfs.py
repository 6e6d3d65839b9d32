"""Tests for the breadth-first Cayley-graph oracle.

The independent oracle here enumerates literal words over the generator
alphabet and evaluates them with the group operations, so the sphere
counts are certified by a route that never touches the BFS internals.
"""
from __future__ import annotations

import itertools
import math
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth import bfs, growth
from horogrowth.bfs import (
    SphereCounts,
    _enumeration,
    _moves,
    ball,
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
    eval_word,
    gen_element,
    is_horocyclic,
    multiply,
    parse_word,
    step,
    t_element,
)
from horogrowth.growth import coset_census, subgroup_series
from horogrowth.series import poly, rf_mul, rf_normalize, series_prefix


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


# ---------------------------------------------------------------------------
# generator steps


TOKENS2 = ["a1", "A1", "a2", "A2", "t", "T"]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(TOKENS2), max_size=8))
def test_state_stepping_matches_group_multiplication(tokens):
    moves = {tok: mv for tok, mv in zip(TOKENS2, _moves(2))}
    stepped = multiplied = GroupElement.identity(2)
    for tok in tokens:
        index, sign = moves[tok]
        gen = t_element(2, sign) if index < 0 else gen_element(2, index + 1, sign)
        stepped = step(stepped, index, sign)
        multiplied = multiply(multiplied, gen)
        assert stepped == multiplied
    assert stepped == eval_word(Word(2, tuple(tokens)))


def test_move_order_is_generator_index_then_vertical():
    # a1, A1, a2, A2, t, T
    assert _moves(2) == ((0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


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
    with pytest.raises(BudgetError):
        coset_distance_census(1, 10**12)
    with pytest.raises(BudgetError):
        bfs_spheres(2, 10**12)


def test_memory_budget_env(monkeypatch):
    ball(2, 8)  # a cached ball must not bypass the budget
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    with pytest.raises(BudgetError):
        bfs_spheres(2, 8)
    with pytest.raises(BudgetError):
        ball(2, 8)
    monkeypatch.delenv("HOROGROWTH_BUDGET_MB")
    assert bfs_spheres(1, 3).total[0] == 1


def test_ball_is_in_breadth_first_order():
    distances = ball(2, 4)
    assert list(distances.values()) == sorted(distances.values())
    for g, d in distances.items():
        near = [distances.get(step(g, *move), 99) for move in _moves(2)]
        assert min(near) == (d - 1 if d else 1)


@pytest.fixture
def fresh_enumerations():
    """Start from unenumerated graphs, and leave none half grown."""
    _enumeration.cache_clear()
    yield
    _enumeration.cache_clear()


def _hung(signum, frame):
    raise TimeoutError("the enumeration is still growing")


def test_budget_overrun_on_a_fresh_enumeration(fresh_enumerations, monkeypatch):
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    # an enumeration that regrows the discarded sphere would never return
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(10)
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError):
            ball(2, 8)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 1
    # the overrunning sphere is discarded, leaving whole spheres only
    kept = _enumeration(2)
    assert kept.ends[-1] == len(kept.dist) < 1024 * 1024 // 240
    monkeypatch.delenv("HOROGROWTH_BUDGET_MB")
    grown = list(ball(2, 8).items())
    assert len(grown) == 46105
    _enumeration.cache_clear()
    assert list(ball(2, 8).items()) == grown


def test_smaller_balls_survive_growth(fresh_enumerations):
    small = ball(2, 4)
    before = list(small.items())
    assert len(ball(2, 8)) == 46105
    assert list(small.items()) == before == list(ball(2, 4).items())
    assert len(small) == len(before) == 1 + 6 + 26 + 98 + 334
    far = next(g for g, d in ball(2, 8).items() if d == 5)
    assert small.get(far) is None and far not in small
    assert list(small.values()) == [d for _, d in before]


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
# distances


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
