"""Tests for digit expansions, geodesic spelling, and level languages.

Digit-expansion oracles below were computed by hand with the balanced
ternary recurrence d = ((e+1) mod 3) - 1 and the 2-led replacement rule
before the module was written; word lengths for a^2..a^13 were tabulated
by hand the same way.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth.geodesic import (
    DigitExpansion,
    balanced_digits,
    cap_words,
    check_level_ranges,
    digit_expansion,
    enumerate_level,
    level_box,
    spell,
    suffix_words,
    two_led_digits,
    word_length,
)
from horogrowth.group import GroupElement, eval_word, max_height, parse_word


# ---------------------------------------------------------------------------
# digit expansions

def test_balanced_digits_hand_values():
    assert balanced_digits(0) == ()
    assert balanced_digits(1) == (1,)
    assert balanced_digits(2) == (-1, 1)
    assert balanced_digits(5) == (-1, -1, 1)
    assert balanced_digits(13) == (1, 1, 1)
    assert balanced_digits(16) == (1, -1, -1, 1)
    assert balanced_digits(-2) == (1, -1)


@given(st.integers(-2000, 2000))
def test_balanced_digits_reconstruct(e):
    ds = balanced_digits(e)
    assert all(d in (-1, 0, 1) for d in ds)
    assert not ds or ds[-1] != 0
    assert sum(d * 3**k for k, d in enumerate(ds)) == e


def test_two_led_digits_hand_values():
    assert two_led_digits(5) == (-1, 2)
    assert two_led_digits(6) == (0, 2)
    assert two_led_digits(7) == (1, 2)
    assert two_led_digits(16) == (1, -1, 2)
    assert two_led_digits(2) == (2,)
    assert two_led_digits(4) is None
    assert two_led_digits(8) is None
    assert two_led_digits(13) is None
    assert two_led_digits(1) is None


@given(st.integers(1, 3000))
def test_two_led_existence_interval(e):
    # a 2-led variant exists exactly on the bands [(3^(k+1)+1)/2, (5 3^k - 1)/2]
    ds = two_led_digits(e)
    h = len(balanced_digits(e)) - 1
    in_band = h >= 1 and (3**h + 1) // 2 <= e <= (5 * 3 ** (h - 1) - 1) // 2
    assert (ds is not None) == in_band
    if ds is not None:
        assert ds[-1] == 2
        assert len(ds) == h
        assert sum(d * 3**k for k, d in enumerate(ds)) == e


def test_digit_expansion_hand_values():
    assert digit_expansion(1, (5,)) == DigitExpansion(1, ((-1, 2),))
    assert digit_expansion(1, (6,)) == DigitExpansion(1, ((0, 2),))
    assert digit_expansion(1, (13,)) == DigitExpansion(2, ((1, 1, 1),))
    assert digit_expansion(1, (10,)) == DigitExpansion(2, ((1, 0, 1),))
    assert digit_expansion(2, (10, 16)) == DigitExpansion(
        2, ((1, 0, 1), (1, -1, 2))
    )
    assert digit_expansion(2, (2, 16)) == DigitExpansion(
        2, ((-1, 1, 0), (1, -1, 2))
    )
    assert digit_expansion(2, (5, 14)) == DigitExpansion(
        2, ((-1, -1, 1), (-1, -1, 2))
    )


def test_digit_expansion_errors():
    with pytest.raises(ValueError):
        digit_expansion(1, (0,))
    with pytest.raises(ValueError):
        digit_expansion(1, (-3,))
    with pytest.raises(ValueError):
        digit_expansion(2, (1,))


@given(st.lists(st.integers(0, 2000), min_size=1, max_size=3).filter(any))
def test_digit_expansion_shape(vec):
    m = len(vec)
    exp = digit_expansion(m, tuple(vec))
    assert len(exp.rows) == m
    assert all(len(row) == exp.top + 1 for row in exp.rows)
    assert any(row[exp.top] for row in exp.rows)
    for row, v in zip(exp.rows, vec):
        assert sum(d * 3**k for k, d in enumerate(row)) == v
        assert all(d in (-1, 0, 1, 2) for d in row)
        # digit 2 only ever leads a row at the very top level
        assert all(d != 2 for d in row[: exp.top])


# ---------------------------------------------------------------------------
# spelling

def test_spell_hand_values():
    assert str(spell(1, (5,))) == "taaTA"
    assert str(spell(1, (6,))) == "taaT"
    assert str(spell(1, (13,))) == "ttaTaTa"
    assert str(spell(1, (10,))) == "ttaTTa"
    assert str(spell(2, (10, 16))) == "ttabbTBTab"
    assert str(spell(2, (2, 16))) == "ttbbTaBTAb"
    assert str(spell(2, (5, 14))) == "ttabbTABTAB"
    assert str(spell(3, (1, 1, 1))) == "abc"
    assert str(spell(1, (-5,))) == "tAATa"
    assert str(spell(1, (0,))) == ""


def test_word_length_hand_values():
    lengths = [word_length(1, (e,)) for e in range(1, 14)]
    assert lengths == [1, 2, 3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7]
    assert word_length(2, (10, 16)) == 10
    assert word_length(1, (0,)) == 0
    assert word_length(1, (-6,)) == 4


@given(
    st.lists(st.integers(-400, 400), min_size=1, max_size=3)
)
@settings(max_examples=120)
def test_spell_evaluates_to_target(vec):
    m = len(vec)
    w = spell(m, tuple(vec))
    assert eval_word(w) == GroupElement(0, 0, tuple(vec))
    assert w.length == word_length(m, tuple(vec))


# ---------------------------------------------------------------------------
# word families

def test_suffix_words():
    ws = {str(w) for w in suffix_words(1)}
    assert ws == {"", "a", "A"}
    ws2 = {str(w) for w in suffix_words(2)}
    assert ws2 == {"", "a", "A", "b", "B", "ab", "aB", "Ab", "AB"}


def test_cap_words_m2():
    got = {str(w) for w in cap_words(2)}
    assert got == {
        "aabb",
        "tabT",
        "tabTa",
        "tabTA",
        "tabTb",
        "tabTB",
        "tabTab",
        "tabTaB",
        "tabTAb",
    }


def test_cap_words_sizes():
    assert len(cap_words(1)) == 3
    assert len(cap_words(2)) == 9
    assert len(cap_words(3)) == 27


# ---------------------------------------------------------------------------
# level languages

def test_level_box():
    assert level_box(0) == (2, 4)
    assert level_box(1) == (5, 13)
    assert level_box(2) == (14, 40)


def test_enumerate_level_m1():
    vals = sorted(eval_word(w).coords[0].num for w in enumerate_level(1, 0))
    assert vals == [2, 3, 4]
    vals1 = sorted(eval_word(w).coords[0].num for w in enumerate_level(1, 1))
    assert vals1 == list(range(5, 14))


def test_enumerate_level_m2_counts():
    words = enumerate_level(2, 0)
    assert len(words) == 15
    vals = {tuple(c.num for c in eval_word(w).coords) for w in words}
    # the square [1,4]^2 minus the inner corner (1,1)
    expected = {(x, y) for x in range(1, 5) for y in range(1, 5)} - {(1, 1)}
    assert vals == expected
    assert len(enumerate_level(2, 1)) == 153


def test_enumerate_level_m3_count():
    # [1,13]^3 minus [1,4]^3... for n = 0: [1,4]^3 minus the corner
    assert len(enumerate_level(3, 0)) == 63


def test_enumerated_words_match_spell():
    for n in (0, 1):
        for w in enumerate_level(1, n):
            v = eval_word(w).coords[0].num
            assert spell(1, (v,)) == w
    for w in enumerate_level(2, 0):
        v = tuple(c.num for c in eval_word(w).coords)
        assert spell(2, v) == w


def test_enumerated_word_heights():
    for n in (0, 1):
        for w in enumerate_level(2, n):
            assert max_height(w) in (n, n + 1)


def test_check_level_ranges_report():
    rep = check_level_ranges(2, 1)
    assert rep["count"] == 153
    assert rep["all_distinct"]
    assert rep["all_in_box"]
    assert rep["heights_ok"]
    assert rep["box"] == [5, 13]


def test_enumerate_level_errors():
    with pytest.raises(ValueError):
        enumerate_level(0, 1)
    with pytest.raises(ValueError):
        enumerate_level(1, -1)
