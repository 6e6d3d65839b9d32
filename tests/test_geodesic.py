"""Tests for digit expansions, geodesic spelling, and level languages.

Digit-expansion oracles below were computed by hand with the balanced
ternary recurrence d = ((e+1) mod 3) - 1 and the 2-led replacement rule
before the module was written; word lengths for a^2..a^13 were tabulated
by hand the same way.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horogrowth.errors import BudgetError
from horogrowth.geodesic import (
    LEVEL_WORD_CAP,
    balanced_digits,
    check_level_ranges,
    enumerate_level,
    level_box,
    spell,
    word_length,
)
from horogrowth.group import GroupElement, Word, eval_word, max_height, parse_word
from horogrowth.growth import positive_series
from horogrowth.series import series_prefix

from word_families import cap_words, suffix_words


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


def _rows(vec):
    """The signed digit rows of spell(m, vec), read back from its word: the
    top index N (the count of leading t's) and, per coordinate, its digits
    at indices 0..N, a level's digit being its a<i> count less its A<i>
    count."""
    tokens = spell(len(vec), tuple(vec)).tokens
    top = 0
    while top < len(tokens) and tokens[top] == "t":
        top += 1
    rows = [[0] * (top + 1) for _ in vec]
    level = top
    for tok in tokens[top:]:
        if tok == "T":
            level -= 1
        else:
            rows[int(tok[1:]) - 1][level] += 1 if tok[0] == "a" else -1
    assert level == 0
    return top, tuple(map(tuple, rows))


def test_two_led_digits_hand_values():
    # a lone coordinate in a band [(3^(k+1)+1)/2, (5 3^k - 1)/2] leads with 2
    assert _rows((5,)) == (1, ((-1, 2),))
    assert _rows((6,)) == (1, ((0, 2),))
    assert _rows((7,)) == (1, ((1, 2),))
    assert _rows((16,)) == (2, ((1, -1, 2),))
    assert _rows((2,)) == (0, ((2,),))
    # outside every band it keeps its balanced digits
    assert _rows((4,)) == (1, ((1, 1),))
    assert _rows((8,)) == (2, ((-1, 0, 1),))
    assert _rows((13,)) == (2, ((1, 1, 1),))
    assert _rows((1,)) == (0, ((1,),))
    # a negative coordinate leads with -2, over the negated digits
    assert _rows((-5,)) == (1, ((1, -2),))
    assert _rows((-16,)) == (2, ((-1, 1, -2),))
    assert _rows((-8,)) == (2, ((1, 0, -1),))


_VECTORS = st.lists(st.integers(0, 3000), min_size=1, max_size=3).filter(any)


@given(_VECTORS)
@example([1])
@example([4, 5])
@example([7, 8])
@example([13, 0, 14])
def test_two_led_existence_interval(vec):
    top, rows = _rows(vec)
    # N is the least n with max(vec) <= (5 3^n - 1)/2
    assert max(vec) <= (5 * 3**top - 1) // 2
    assert top == 0 or max(vec) > (5 * 3 ** (top - 1) - 1) // 2
    for row, v in zip(rows, vec):
        # the lead is 2 exactly on the band [(3^(N+1)+1)/2, (5 3^N - 1)/2],
        # which is where balanced form would need index N+1
        in_band = (3 ** (top + 1) + 1) // 2 <= v <= (5 * 3**top - 1) // 2
        assert (row[top] == 2) if in_band else (abs(row[top]) < 2)
        assert in_band == (len(balanced_digits(v)) == top + 2)


def test_digit_expansion_hand_values():
    assert _rows((5,)) == (1, ((-1, 2),))
    assert _rows((6,)) == (1, ((0, 2),))
    assert _rows((13,)) == (2, ((1, 1, 1),))
    assert _rows((10,)) == (2, ((1, 0, 1),))
    assert _rows((10, 16)) == (2, ((1, 0, 1), (1, -1, 2)))
    assert _rows((2, 16)) == (2, ((-1, 1, 0), (1, -1, 2)))
    assert _rows((5, 14)) == (2, ((-1, -1, 1), (-1, -1, 2)))


def test_digit_expansion_errors():
    for f in (spell, word_length):
        with pytest.raises(ValueError):
            f(2, (1,))
        with pytest.raises(ValueError):
            f(1, (1, 2))
    # a negative coordinate's row is its magnitude's, negated
    top, (row3, row5) = _rows((3, 5))
    assert _rows((-3, 5)) == (top, (tuple(-d for d in row3), row5))


@given(_VECTORS)
@example([1])
@example([4, 5])
@example([7, 8])
@example([13, 0, 14])
def test_digit_expansion_shape(vec):
    top, rows = _rows(vec)
    assert len(rows) == len(vec)
    # some row reaches the top index
    assert any(row[top] for row in rows)
    for row, v in zip(rows, vec):
        # a 2 only ever leads a row, at the top index
        assert all(d in (-1, 0, 1) for d in row[:top])
        assert row[top] in (-1, 0, 1, 2)
        # each row rebuilds its coordinate
        assert sum(d * 3**k for k, d in enumerate(row)) == v


def _swap_case(word: Word) -> tuple[str, ...]:
    """The word's tokens with a<i> and A<i> swapped, t and T kept."""
    return tuple(tok if tok in ("t", "T") else tok.swapcase() for tok in word.tokens)


@given(st.lists(st.integers(-(3**20), 3**20), min_size=1, max_size=4).filter(any))
@example([-5])
@example([-1, 0])
@example([-3, 5])
@example([16, -2, 0])
@example([-13, -14, 7])
def test_spell_of_the_negated_vector_swaps_the_case(vec):
    m = len(vec)
    negated = tuple(-v for v in vec)
    assert spell(m, negated).tokens == _swap_case(spell(m, tuple(vec)))


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
    # lead 2 at a lone coordinate (2, 7) and just outside its band (4, 8)
    assert str(spell(1, (2,))) == "aa"
    assert str(spell(1, (4,))) == "taTa"
    assert str(spell(1, (7,))) == "taaTa"
    assert str(spell(1, (8,))) == "ttaTTA"


def test_word_length_hand_values():
    lengths = [word_length(1, (e,)) for e in range(1, 14)]
    assert lengths == [1, 2, 3, 4, 5, 4, 5, 6, 5, 6, 7, 6, 7]
    assert word_length(2, (10, 16)) == 10
    assert word_length(1, (0,)) == 0
    assert word_length(1, (-6,)) == 4


@pytest.mark.parametrize("m", [0, -1])
def test_word_length_refuses_a_rank_below_one(m):
    # as spell does, even for the empty vector
    for vec in [(), (1,)]:
        with pytest.raises(ValueError, match="rank m must be at least 1"):
            word_length(m, vec)


@given(
    st.lists(st.integers(-(3**40), 3**40), min_size=1, max_size=6)
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


@pytest.mark.parametrize("m", [0, -1])
def test_word_families_refuse_a_rank_below_one(m):
    for family in (suffix_words, cap_words):
        with pytest.raises(ValueError, match="rank m must be at least 1"):
            family(m)


# ---------------------------------------------------------------------------
# level languages

def test_level_box():
    assert level_box(0) == (2, 4)
    assert level_box(1) == (5, 13)
    assert level_box(2) == (14, 40)
    for n in (-1, -3):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            level_box(n)


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
    # the combinatorial level language and the arithmetic digit rule agree
    # on every vector of each shell
    shells = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
    shells += [(4, 0), (5, 0), (6, 0)]
    for m, n in shells:
        for w in enumerate_level(m, n):
            v = tuple(c.num for c in eval_word(w).coords)
            assert spell(m, v) == w


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
    for m in (0, -1):
        # the text every other rank check gives
        with pytest.raises(ValueError, match="^rank m must be at least 1$"):
            enumerate_level(m, 1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        enumerate_level(1, -1)


# ---------------------------------------------------------------------------
# words the package builds from its own tables skip the token check, so
# each must equal the word the checking constructor makes of its tokens


def _package_words(m: int):
    for vec in product(range(-13, 14), repeat=min(m, 2)):
        yield spell(m, vec + (5,) * (m - len(vec)))
    yield spell(m, (0,) * m)
    yield spell(m, tuple((-3) ** (10 + i) + i for i in range(m)))
    indexed = [f"t^2a1A{m}^2 T a{m}^-3", f"a{m}^0T^-2a1^01", "", "tT"]
    indexed += [f"{t}{i}^{k}" for t in "aA" for i in range(1, m + 1) for k in (-2, 1, 3)]
    letters = "abc"[:m] if m <= 3 else ""
    aliases = [f"t{letters}T{letters.upper()}", "".join(f"{c}^3{c.upper()}^-2" for c in letters)]
    for text in indexed + aliases + ["tTtT^3", "T^-1t"]:
        yield parse_word(text, m)
    for n in range(2 if m < 5 else 1):
        yield from enumerate_level(m, n)
    yield from suffix_words(m)
    yield from cap_words(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_package_words_pass_the_token_check(m):
    for w in _package_words(m):
        assert type(w) is Word and type(w.tokens) is tuple
        assert Word(w.m, w.tokens) == w, w


# ---------------------------------------------------------------------------
# the table-driven kernels against their digit-at-a-time references
#
# The first versions of balanced_digits, of the magnitude expansion that
# spell once read, and of _digits_to_word, kept as certificates for the
# chunk table, the signed digits and the level-at-a-time emitter: one digit
# per step of the balanced ternary recurrence, and one coordinate per step
# of each level.


def reference_balanced_digits(e: int) -> tuple[int, ...]:
    digits = []
    while e:
        d = ((e + 1) % 3) - 1
        digits.append(d)
        e = (e - d) // 3
    return tuple(digits)


def reference_expansion(vec):
    mags = [abs(v) for v in vec]
    top, power, peak = 0, 1, max(mags)
    while 2 * peak > 5 * power - 1:
        top, power = top + 1, 3 * power
    leads = [2 if 2 * e > 3 * power - 1 else 0 for e in mags]
    return top, [
        (lead, reference_balanced_digits(e - lead * power)) for e, lead in zip(mags, leads)
    ]


def reference_digits_to_word(m: int, top: int, rows, signs) -> Word:
    pairs = [
        (f"a{i}", f"A{i}") if sign > 0 else (f"A{i}", f"a{i}")
        for i, sign in enumerate(signs, start=1)
    ]
    tokens = ["t"] * top
    for level in range(top, -1, -1):
        for (up, down), row in zip(pairs, rows):
            d = row[level]
            if d > 0:
                tokens += [up] * d
            elif d:
                tokens += [down] * -d
        if level:
            tokens.append("T")
    return Word(m, tuple(tokens))


def reference_spell(vec, top, coords) -> Word:
    """The parent spell, from vec's reference expansion (top, coords)."""
    rows = []
    for lead, digits in coords:
        row = list(digits) + [0] * (top + 1 - len(digits))
        row[top] += lead
        rows.append(row)
    signs = tuple(-1 if v < 0 else 1 for v in vec)
    return reference_digits_to_word(len(vec), top, rows, signs)


def assert_kernels_match_the_references(vec):
    m = len(vec)
    word = reference_spell(vec, *reference_expansion(vec))
    assert spell(m, vec) == word
    assert word_length(m, vec) == word.length


def test_kernels_match_the_references_on_a_box():
    for e in range(-121, 122):
        assert balanced_digits(e) == reference_balanced_digits(e)
    for vec in product(range(-121, 122), repeat=2):
        if any(vec):
            assert_kernels_match_the_references(vec)


@given(
    st.lists(st.integers(-(3**40), 3**40), min_size=1, max_size=5).filter(any)
)
@settings(max_examples=300, deadline=None)
@example([3**40, -(3**40)])
@example([(3**40 - 1) // 2, -((3**40 + 1) // 2), 364, -365, 729])
def test_kernels_match_the_references_on_large_vectors(vec):
    assert [balanced_digits(v) for v in vec] == [reference_balanced_digits(v) for v in vec]
    assert_kernels_match_the_references(tuple(vec))


def _ordered_partitions(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    k = len(items)
    for mask in range(1, 1 << k):
        first = tuple(items[i] for i in range(k) if mask >> i & 1)
        rest = tuple(items[i] for i in range(k) if not mask >> i & 1)
        for tail in _ordered_partitions(rest):
            yield (first, *tail)


def _compositions(n: int, q: int):
    """Compositions (j_1..j_q) of n with interior parts >= 1, ends >= 0."""
    if q == 1:
        yield (n,)
        return

    def rec(remaining, parts_left, acc):
        if parts_left == 1:
            yield (*acc, remaining)
            return
        # first part free, interior parts >= 1, last part free
        lo = 0 if not acc else 1
        for j in range(lo, remaining + 1):
            yield from rec(remaining - j, parts_left - 1, (*acc, j))

    yield from rec(n, q, ())


def reference_enumerate_level(m: int, n: int) -> list[Word]:
    """The level-n words from one digit matrix per word: for each ordered
    partition of the coordinates into blocks and each composition of n
    placing the descents, the cap, then the sign slots."""
    out = []
    for blocks in _ordered_partitions(tuple(range(m))):
        q = len(blocks)
        for comp in _compositions(n, q):
            # block k enters at level n - (j_1 + .. + j_(k-1))
            enter = [n]
            for j in comp[:-1]:
                enter.append(enter[-1] - j)
            # one sign slot per descended level, over the coords started so far
            slot_specs = []  # (level, alphabet)
            started = blocks[0]
            for k in range(q):
                for step in range(comp[k]):
                    slot_specs.append((enter[k] - 1 - step, started))
                if k + 1 < q:
                    started = started + blocks[k + 1]
            slot_choices = [
                list(product((0, 1, -1), repeat=len(alpha))) for _, alpha in slot_specs
            ]
            lead = blocks[0]
            all_minus = (-1,) * len(lead)
            cap_choices = [None]  # None = the U^2 cap
            cap_choices += [w for w in product((0, 1, -1), repeat=len(lead)) if w != all_minus]
            for cap in cap_choices:
                top = n if cap is None else n + 1
                base = [[0] * (top + 1) for _ in range(m)]
                if cap is None:
                    for i in lead:
                        base[i][n] = 2
                else:
                    for i, d in zip(lead, cap):
                        base[i][n + 1] = 1
                        base[i][n] = d
                for k in range(1, q):
                    for i in blocks[k]:
                        base[i][enter[k]] = 1
                for assignment in product(*slot_choices):
                    rows = [row[:] for row in base]
                    for (lvl, alpha), signs in zip(slot_specs, assignment):
                        for i, d in zip(alpha, signs):
                            rows[i][lvl] = d
                    out.append(reference_digits_to_word(m, top, rows, (1,) * m))
    return out


REFERENCE_LEVELS = [(m, n) for m in (1, 2, 3) for n in range(4) if (m, n) != (3, 3)]


def shell_size(m: int, n: int) -> int:
    """The vectors of the level-n shell [1, upper]^m minus [1, lower)^m."""
    lower, upper = level_box(n)
    return upper**m - (lower - 1) ** m


@pytest.mark.parametrize("m,n", REFERENCE_LEVELS)
def test_level_words_match_the_reference_emitter(m, n):
    # (3, 3) holds 1,707,561 words, over LEVEL_WORD_CAP
    words = enumerate_level(m, n)
    assert sorted(words) == sorted(reference_enumerate_level(m, n))
    assert len(words) == shell_size(m, n)


def test_level_count_is_the_shell_size():
    # one word per vector of the shell, or BudgetError over the cap; the
    # reference test counts its own levels
    for m in range(1, 6):
        for n in range(5):
            count = shell_size(m, n)
            if count > LEVEL_WORD_CAP:
                with pytest.raises(BudgetError, match=f"holds {count} words"):
                    enumerate_level(m, n)
            elif (m, n) not in REFERENCE_LEVELS:
                assert len(enumerate_level(m, n)) == count
    hand = {(2, 0): 15, (2, 1): 153, (2, 3): 13041, (3, 0): 63, (3, 2): 61803}
    assert {key: shell_size(*key) for key in hand} == hand


def test_large_levels_are_refused_before_any_word():
    # (4, 3) holds 211,798,881 words: about 50 GB as a list
    for run in (enumerate_level, check_level_ranges):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="level 3 at rank 4 holds 211798881 words"):
            run(4, 3)
        assert time.perf_counter() - start < 0.1
    # shells whose exact size has thousands of digits are refused from the
    # lower bounds 3^(n+1) and 4^m - 1, without counting them
    for m, n in [(1, 10**5), (1, 10**6), (50, 10**4), (10**4, 50), (2000, 0), (1, 11), (10, 0)]:
        for run in (enumerate_level, check_level_ranges):
            start = time.perf_counter()
            with pytest.raises(BudgetError, match=f"^level {n} at rank {m} holds ") as info:
                run(m, n)
            assert time.perf_counter() - start < 0.1
            assert len(str(info.value)) < 200


@pytest.mark.parametrize("m,order", [(1, 12), (2, 9), (3, 7), (4, 6), (5, 5)])
def test_level_languages_count_the_positive_orthant(m, order):
    # the levels tile the positive orthant less its corner (1, .., 1), of
    # length m, and a level-n word is at least 2n + m long, so the levels
    # with 2n + m <= order give P_m through x^order
    counts = [0] * (order + 1)
    counts[m] += 1
    for n in range((order - m) // 2 + 1):
        for w in enumerate_level(m, n):
            if w.length <= order:
                counts[w.length] += 1
    assert counts == list(series_prefix(positive_series(m), order))


_MEASURE_LEVEL = """
import sys, tracemalloc
from horogrowth.geodesic import enumerate_level
tracemalloc.start()
words = enumerate_level(*map(int, sys.argv[1:]))
print(tracemalloc.get_traced_memory()[0] / len(words))
"""


def test_level_words_stay_under_300_bytes_each():
    # measured in a fresh interpreter: in this one, token tuples that
    # earlier tests freed wait in CPython's free lists and show no bytes
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE_LEVEL, "2", "3"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert float(proc.stdout) <= 300
