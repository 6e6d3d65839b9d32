"""Tests for growth automata with polynomial edge labels.

The quadrant machines' growth x^2/(1-x)^2 and the single-state loop
machines' series prefixes were computed by hand (geometric series and the
recurrence c_k = c_{k-2} + 4c_{k-3} + 4c_{k-4} for m = 2) before the
module was written.  The engine is certified against the whole linear
system solved by Gauss-Jordan elimination, against direct path counting,
and against the closed form of positive_series on the paper's machine for
the positive orthant.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth.gfsa import (
    GrowthAutomaton,
    automaton_growth,
    build_prefix_suffix_machine,
    build_quadrant_fsa,
    build_quadrant_gfsa,
    count_words_by_length,
    quadrant_expected_growth,
)
from horogrowth.growth import positive_series
from horogrowth.series import poly, rf_normalize, series_prefix

from certificates import (
    matrix_growth,
    positive_orthant_machine,
    rf_sub,
    solve_linear_system,
)


def test_quadrant_expected_growth_value():
    assert quadrant_expected_growth() == rf_normalize(poly(0, 0, 1), poly(1, -2, 1))


def test_quadrant_fsa_growth():
    m = build_quadrant_fsa()
    assert m.n_states == 3
    assert all(label == poly(0, 1) for _, _, label in m.edges)
    assert automaton_growth(m) == quadrant_expected_growth()


def test_quadrant_gfsa_growth():
    m = build_quadrant_gfsa()
    assert any(label.degree >= 2 for _, _, label in m.edges)
    assert automaton_growth(m) == quadrant_expected_growth()


def test_quadrant_word_counts():
    # words a^i b^j with i, j >= 1: k - 1 of length k
    for m in (build_quadrant_fsa(), build_quadrant_gfsa()):
        assert count_words_by_length(m, 6) == [0, 0, 1, 2, 3, 4, 5]


def test_word_counts_refuse_a_negative_length():
    for n in (-1, -5):
        with pytest.raises(ValueError, match="nmax must be nonnegative"):
            count_words_by_length(build_quadrant_fsa(), n)
    assert count_words_by_length(build_quadrant_fsa(), 0) == [0]


@pytest.mark.parametrize(
    "m,expected",
    [
        (1, [1, 0, 1, 2, 1, 4, 5, 6]),
        (2, [1, 0, 1, 4, 5, 8, 25]),
    ],
)
def test_prefix_suffix_machine_series(m, expected):
    g = automaton_growth(build_prefix_suffix_machine(m))
    assert list(series_prefix(g, len(expected) - 1)) == expected
    # closed form 1/(1 - x^2 (1+2x)^m)
    w = poly(1, 2) ** m
    assert g == rf_normalize(1, 1 - poly(0, 0, 1) * w)


@pytest.mark.parametrize("m", [0, -1])
def test_prefix_suffix_machine_refuses_a_rank_below_one(m):
    # the text every other rank check gives
    with pytest.raises(ValueError, match="^rank m must be at least 1$"):
        build_prefix_suffix_machine(m)


def test_machine_validation():
    lab = poly(0, 1)
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({1}), ((0, 1, poly(1, 1)),))  # constant term
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({1}), ((0, 1, poly(0, -1)),))  # negative coeff
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({1}), ((0, 1, poly()),))  # zero label
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({1}), ((0, 2, lab),))  # state out of range
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 5, frozenset({1}), ((0, 1, lab),))  # bad start
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({7}), ((0, 1, lab),))  # bad accept
    with pytest.raises(ValueError):
        GrowthAutomaton(2, 0, frozenset({1}), ((0, 1, lab), (0, 1, lab)))  # duplicate


def test_solver_accepts_rational_entries():
    # two-state system: accept state with an x self-loop, reached through
    # an edge whose label is already the rational function x^2/(1-x)
    zero = rf_normalize(0, 1)
    one = rf_normalize(1, 1)
    x = rf_normalize(poly(0, 1), 1)
    heavy = rf_normalize(poly(0, 0, 1), poly(1, -1))
    a = [[zero, heavy], [zero, x]]
    matrix = [
        [rf_sub(one if i == j else zero, a[i][j]) for j in range(2)]
        for i in range(2)
    ]
    u = solve_linear_system(matrix, [zero, one])
    assert u[0] == quadrant_expected_growth()
    assert u[1] == rf_normalize(1, poly(1, -1))


def test_solver_rejects_singular_matrix():
    zero = rf_normalize(0, 1)
    one = rf_normalize(1, 1)
    with pytest.raises(ValueError):
        solve_linear_system([[one, one], [one, one]], [zero, zero])


# ---------------------------------------------------------------------------
# property: eliminated growth matches the whole linear system and direct
# path counting, from any start state and any set of accept states

labels = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3).map(
    lambda cs: poly(0, *cs)
).filter(bool)


@st.composite
def automata(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    edges = [
        (src, dst, draw(labels))
        for src in range(n)
        for dst in range(n)
        if draw(st.booleans())
    ]
    start = draw(st.integers(min_value=0, max_value=n - 1))
    accepts = frozenset(i for i in range(n) if draw(st.booleans()))
    return GrowthAutomaton(n, start, accepts, tuple(edges))


@given(automata())
@settings(max_examples=80, deadline=None)
def test_growth_matches_path_counting(m):
    g = automaton_growth(m)
    assert g == matrix_growth(m)
    assert list(series_prefix(g, 8)) == count_words_by_length(m, 8)


def test_growth_is_zero_when_no_accept_state_is_reached():
    x = poly(0, 1)
    m = GrowthAutomaton(3, 1, frozenset({0}), ((0, 0, x), (1, 1, x), (1, 2, x)))
    assert automaton_growth(m) == rf_normalize(0, 1)
    assert count_words_by_length(m, 5) == [0] * 6


@pytest.mark.parametrize("m", range(1, 9))
def test_positive_orthant_machine_growth(m):
    machine = positive_orthant_machine(m)
    assert machine.n_states == 2 * m + 2
    assert automaton_growth(machine) == positive_series(m)
