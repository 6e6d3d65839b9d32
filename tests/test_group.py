"""Tests for the element and word model of Z^m *_(g -> g^3).

Element oracles (products, inverses, heights) were worked out by hand
from the normal form a^v t^s with (u,s)(v,r) = (u + 3^s v, s+r) before
the module was written.
"""
from __future__ import annotations

import copy
import pickle
import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horogrowth import geodesic, group
from horogrowth.errors import BudgetError
from horogrowth.geodesic import spell
from horogrowth.group import (
    WORD_LENGTH_CAP,
    GroupElement,
    TriadicRational,
    Word,
    coset_key,
    element_str,
    element_to_json,
    eval_word,
    format_word,
    is_horocyclic,
    max_height,
    multiply,
    parse_word,
)

from certificates import inverse

# ---------------------------------------------------------------------------
# triadic rationals

def test_triadic_canonicalization():
    assert TriadicRational.make(6, 1) == TriadicRational(2, 0)
    assert TriadicRational.make(9, 2) == TriadicRational(1, 0)
    assert TriadicRational.make(0, 5) == TriadicRational(0, 0)
    assert TriadicRational.make(2, -2) == TriadicRational(18, 0)
    assert TriadicRational.make(5, 2) == TriadicRational(5, 2)
    # exp < 0, exp == 0, num == 0 and 3 | num; the pair is a plain tuple too
    cases = {
        (2, -2): (18, 0), (-4, -1): (-12, 0),
        (7, 0): (7, 0), (-9, 0): (-9, 0),
        (0, 0): (0, 0), (0, 4): (0, 0), (0, -3): (0, 0),
        (54, 3): (2, 0), (-45, 3): (-5, 1), (5, 2): (5, 2),
    }
    for (num, exp), pair in cases.items():
        r = TriadicRational.make(num, exp)
        assert type(r) is TriadicRational
        assert (r.num, r.exp) == tuple(r) == pair
        assert r.is_integer == (pair[1] == 0)


def test_triadic_arithmetic():
    # a^(1/3) = T a t; three of them make a, and conjugating by t scales by 3
    third = eval_word(parse_word("Tat", 1))
    assert third == GroupElement(0, 1, (1,))
    assert multiply(multiply(third, third), third) == GroupElement(0, 0, (1,))
    assert inverse(third) == GroupElement(0, 1, (-1,))
    t = GroupElement(1, 0, (0,))
    assert multiply(multiply(t, third), inverse(t)) == GroupElement(0, 0, (1,))
    assert multiply(multiply(inverse(t), third), t) == GroupElement(0, 2, (1,))
    assert third.coords == (TriadicRational(1, 1),)
    assert TriadicRational.make(4, 0).is_integer
    assert not third.coords[0].is_integer


@given(st.integers(-200, 200), st.integers(-3, 6))
def test_triadic_canonical_invariant(num, exp):
    r = TriadicRational.make(num, exp)
    assert r.exp >= 0
    if r.exp > 0:
        assert r.num % 3 != 0
    assert Fraction(r.num, 3**r.exp) == Fraction(num, 1) * Fraction(3) ** -exp


@given(st.lists(st.sampled_from(["t", "T", "a1", "A1", "a2", "A2", "a3", "A3"]), max_size=12))
@example(["T", "a1", "T", "A3", "t", "t"])
@example(["t", "a2", "T", "T", "a1", "t"])
def test_coords_make_each_coordinate(tokens):
    g = eval_word(Word(3, tuple(tokens)))
    assert g.coords == tuple(TriadicRational.make(n, g.exp) for n in g.nums)


# ---------------------------------------------------------------------------
# elements

GENS1 = {
    "a": GroupElement(0, 0, (1,)),
    "A": GroupElement(0, 0, (-1,)),
    "t": GroupElement(1, 0, (0,)),
    "T": GroupElement(-1, 0, (0,)),
}

def test_multiply_pinned_commutator():
    # t a T A = a^3 a^-1 = a^2
    g = GroupElement.identity(1)
    for step in (GENS1["t"], GENS1["a"], GENS1["T"], GENS1["A"]):
        g = multiply(g, step)
    assert g == GroupElement(0, 0, (2,))


def test_eval_word_examples():
    assert eval_word(parse_word("taT", 1)) == GroupElement(0, 0, (3,))
    assert eval_word(parse_word("ta^2TA", 1)) == GroupElement(0, 0, (5,))
    g = eval_word(parse_word("Tat", 1))
    assert g.coords == (TriadicRational(1, 1),)
    assert g.tee == 0
    assert not is_horocyclic(g)


def test_eval_word_two_generators():
    g = eval_word(parse_word("ttabbTBTab", 2))
    assert g == GroupElement(0, 0, (10, 16))
    h = eval_word(parse_word("ttbbTaBTAb", 2))
    assert h == GroupElement(0, 0, (2, 16))
    # shared exponent: a^(1/9) b^(1/3) t^-2
    assert eval_word(parse_word("TbTa", 2)) == GroupElement(-2, 2, (1, 3))


def test_inverse_pinned():
    g = eval_word(parse_word("ta", 1))
    assert inverse(g) == eval_word(parse_word("AT", 1))
    assert multiply(g, inverse(g)) == GroupElement.identity(1)


def test_tau_and_flags():
    assert eval_word(parse_word("taaTa", 1)).tee == 0
    assert eval_word(parse_word("T", 1)).tee == -1
    e = GroupElement.identity(2)
    assert is_horocyclic(e)
    assert is_horocyclic(eval_word(parse_word("abb", 2)))
    assert not is_horocyclic(eval_word(parse_word("t", 1)))
    assert not is_horocyclic(eval_word(parse_word("Tat", 1)))


def test_max_height():
    assert max_height(parse_word("", 1)) == 0
    assert max_height(parse_word("T", 1)) == -1
    assert max_height(parse_word("tataTaTa", 1)) == 2
    assert max_height(parse_word("TTta", 1)) == -1


def test_coset_key():
    # right cosets of the integer lattice: g Z^m determined by
    # (fractional part of 3^-s v, s)
    g = eval_word(parse_word("Tat", 1))       # (1/3, 0)
    assert coset_key(g) != coset_key(GroupElement.identity(1))
    a = eval_word(parse_word("a", 1))
    assert coset_key(multiply(g, a)) == coset_key(g)
    # (2/3, 0) sits in a different coset than (1/3, 0)
    assert coset_key(eval_word(parse_word("Taat", 1))) != coset_key(g)
    t = eval_word(parse_word("t", 1))
    assert coset_key(t) != coset_key(GroupElement.identity(1))
    # (1/9, 0) has the same residue over a larger denominator
    assert coset_key(eval_word(parse_word("TTatt", 1))) != coset_key(g)


# ---------------------------------------------------------------------------
# words: parsing and formatting

def test_parse_word_aliases_and_powers():
    w = parse_word("t^2ab^2TBTab", 2)
    assert w.tokens == ("t", "t", "a1", "a2", "a2", "T", "A2", "T", "a1", "a2")
    assert format_word(w) == "ttabbTBTab"
    assert parse_word("ttabbTBTab", 2) == w
    assert parse_word("a^-2", 1).tokens == ("A1", "A1")
    assert parse_word("t^-1", 1).tokens == ("T",)
    assert parse_word("a^0b", 2).tokens == ("a2",)
    assert parse_word(" t a T ", 1).tokens == ("t", "a1", "T")


def test_parse_word_indexed_generators():
    w = parse_word("ta1a4A2T", 4)
    assert w.tokens == ("t", "a1", "a4", "A2", "T")
    assert format_word(w) == "ta1a4A2T"
    assert parse_word(format_word(w), 4) == w
    # bare digits are indices, not powers
    assert parse_word("a2", 2).tokens == ("a2",)


def test_parse_word_length_cap():
    assert WORD_LENGTH_CAP == 8000
    assert parse_word("a^8000", 1).length == 8000
    assert parse_word("t^4000a^-4000", 1).length == 8000
    for text in ("a^8001", "t^4000a^4001", "a" * 8001, "a^-" + "9" * 5000):
        with pytest.raises(BudgetError):
            parse_word(text, 1)
    # leading zeros do not make a small count long
    assert parse_word("a^" + "0" * 50 + "3", 1).tokens == ("a1",) * 3


def test_parse_word_rank_cap():
    # a one-letter word evaluates to m coordinates, so the rank is capped too
    assert eval_word(parse_word("a1", WORD_LENGTH_CAP)).nums[0] == 1
    with pytest.raises(BudgetError, match="rank 8001 exceeds"):
        parse_word("t", WORD_LENGTH_CAP + 1)


def test_parse_word_long_digit_runs():
    # int() sees only short, zero-stripped digits: its 4,300-digit limit
    # would raise a message that names no index
    with pytest.raises(ValueError, match=r"generator index 1{20}\.\.\. out of range"):
        parse_word("a" + "1" * 5000, 1)
    assert parse_word("a1^" + "0" * 5000 + "5", 1).tokens == ("a1",) * 5
    assert parse_word("a1^-" + "0" * 5000 + "5", 1).tokens == ("A1",) * 5
    assert parse_word("a0001^0005", 1).tokens == ("a1",) * 5
    with pytest.raises(ValueError, match="generator index 12 out of range"):
        parse_word("a0012", 3)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("q", 1)
    with pytest.raises(ValueError):
        parse_word("b", 1)  # index beyond m
    with pytest.raises(ValueError):
        parse_word("a5", 3)
    with pytest.raises(ValueError):
        parse_word("a0", 2)
    with pytest.raises(ValueError):
        parse_word("^2", 1)
    with pytest.raises(ValueError):
        parse_word("a^", 1)
    with pytest.raises(ValueError):
        Word(1, ("a2",))


@pytest.mark.parametrize("m", [0, -1])
def test_word_refuses_a_rank_below_one(m):
    for tokens in [(), ("t",), ("a1",)]:
        with pytest.raises(ValueError, match="rank m must be at least 1"):
            Word(m, tokens)


def test_word_length_and_str():
    w = parse_word("ttabbTBTab", 2)
    assert w.length == 10
    assert str(w) == "ttabbTBTab"
    assert str(parse_word("", 2)) == ""


def test_word_is_the_packed_pair():
    w = Word(2, ("t", "a1", "A2"))
    assert w == (2, ("t", "a1", "A2")) and hash(w) == hash((2, ("t", "a1", "A2")))
    assert w != Word(2, ("t", "a1")) and w != (1, ("t", "a1", "A2"))
    assert len(w) == 2 and w.m == 2 and w.tokens == ("t", "a1", "A2")
    assert repr(w) == "Word(m=2, tokens=('t', 'a1', 'A2'))"
    assert not hasattr(w, "__dict__")
    assert not hasattr(Word, "_make") and not hasattr(Word, "_replace")
    copies = [copy.copy(w), copy.deepcopy(w)]
    copies += [pickle.loads(pickle.dumps(w, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is Word and c == w and repr(c) == repr(w)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_an_unpickled_word_is_checked(protocol):
    data = pickle.dumps(Word(2, ("t", "a2")), protocol)
    assert data.count(b"a2") == 1
    with pytest.raises(ValueError, match="invalid token 'a3' for m=2"):
        pickle.loads(data.replace(b"a2", b"a3"))


def test_element_str():
    assert element_str(GroupElement.identity(3)) == "e"
    assert element_str(eval_word(parse_word("ta^2TA", 1))) == "a^5"
    assert element_str(eval_word(parse_word("ttabbTBTab", 2))) == "a^10 b^16"
    assert element_str(eval_word(parse_word("Tat", 1))) == "a^(1/3)"
    assert element_str(eval_word(parse_word("TA", 1))) == "a^(-1/3) t^-1"
    g = eval_word(parse_word("a1A3t", 4))
    assert element_str(g) == "a1 a3^-1 t"


def test_element_json_roundtrip():
    g = eval_word(parse_word("Tab", 2))
    obj = element_to_json(g)
    assert obj == {
        "coords": [{"num": "1", "exp3": 1}, {"num": "1", "exp3": 1}],
        "tee": -1,
    }


# ---------------------------------------------------------------------------
# properties

tokens_m2 = st.sampled_from(["t", "T", "a1", "A1", "a2", "A2"])
words_m2 = st.lists(tokens_m2, max_size=8).map(lambda ts: Word(2, tuple(ts)))


@given(words_m2, words_m2)
@settings(max_examples=80)
def test_eval_is_multiplicative(w1, w2):
    joined = Word(2, w1.tokens + w2.tokens)
    assert eval_word(joined) == multiply(eval_word(w1), eval_word(w2))


@given(words_m2, words_m2, words_m2)
@settings(max_examples=60)
def test_multiply_associative(wa, wb, wc):
    a, b, c = eval_word(wa), eval_word(wb), eval_word(wc)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(words_m2)
def test_inverse_law(w):
    g = eval_word(w)
    assert multiply(g, inverse(g)) == GroupElement.identity(2)
    assert multiply(inverse(g), g) == GroupElement.identity(2)
    assert inverse(inverse(g)) == g


@given(words_m2, words_m2)
def test_tau_is_a_homomorphism(w1, w2):
    product = multiply(eval_word(w1), eval_word(w2))
    assert product.tee == eval_word(w1).tee + eval_word(w2).tee


@given(words_m2)
def test_format_parse_roundtrip(w):
    assert parse_word(format_word(w), 2) == w


@given(st.lists(st.sampled_from(["t", "T", "a1", "A4", "a3", "A2"]), max_size=6))
def test_format_parse_roundtrip_indexed(tokens):
    w = Word(4, tuple(tokens))
    assert parse_word(format_word(w), 4) == w


@given(words_m2)
def test_coset_key_right_invariance(w):
    g = eval_word(w)
    for nums in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        h = multiply(g, GroupElement(0, 0, nums))
        assert coset_key(h) == coset_key(g)


@given(words_m2)
def test_elements_are_canonical(w):
    g = eval_word(w)
    assert g.exp >= 0
    if g.exp > 0:
        assert any(n % 3 for n in g.nums)
    assert [c.num * 3 ** (g.exp - c.exp) for c in g.coords] == list(g.nums)



@given(words_m2, words_m2)
def test_coset_key_separates_cosets(w1, w2):
    g, h = eval_word(w1), eval_word(w2)
    same = is_horocyclic(multiply(inverse(g), h))
    assert (coset_key(g) == coset_key(h)) == same


# ---------------------------------------------------------------------------
# the word kernels against their character-by-character references
#
# reference_parse_word reads the text one character at a time and
# reference_eval_word collects the letters' heights before it sums them:
# the first versions of parse_word and eval_word, kept as certificates for
# the lexeme reader and the one-pass fold.

_REFERENCE_ALIASES = "abc"


def _ascii_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def reference_parse_word(text: str, m: int) -> Word:
    if m < 1:
        raise ValueError("rank m must be at least 1")
    runs: list[tuple[str, int]] = []
    length = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "t":
            base, sign = "t", 1
            i += 1
        elif ch == "T":
            base, sign = "t", -1
            i += 1
        elif ch in "aA" and i + 1 < n and _ascii_digit(text[i + 1]):
            j = i + 1
            while j < n and _ascii_digit(text[j]):
                j += 1
            digits = text[i + 1 : j].lstrip("0") or "0"
            idx = int(digits) if len(digits) <= len(str(m)) else 0
            if not 1 <= idx <= m:
                shown = digits if len(digits) <= 20 else digits[:20] + "..."
                raise ValueError(f"generator index {shown} out of range for m={m}")
            base, sign = f"a{idx}", (1 if ch == "a" else -1)
            i = j
        elif ch.lower() in _REFERENCE_ALIASES and m <= 3:
            idx = _REFERENCE_ALIASES.index(ch.lower()) + 1
            if idx > m:
                raise ValueError(f"generator {ch!r} out of range for m={m}")
            base, sign = f"a{idx}", (1 if ch.islower() else -1)
            i += 1
        else:
            raise ValueError(f"unexpected character {text[i]!r} in word")
        count = 1
        if i < n and text[i] == "^":
            negative = text[i + 1 : i + 2] == "-"
            i += 1 + negative
            j = i
            if j >= n or not _ascii_digit(text[j]):
                raise ValueError("'^' must be followed by an integer")
            while j < n and _ascii_digit(text[j]):
                j += 1
            digits = text[i:j].lstrip("0")
            if len(digits) > len(str(WORD_LENGTH_CAP)):
                count = WORD_LENGTH_CAP + 1
            else:
                count = int(digits or "0")
            if negative:
                sign = -sign
            i = j
        length += count
        if length > WORD_LENGTH_CAP:
            raise BudgetError(
                f"word is longer than the cap of {WORD_LENGTH_CAP} tokens"
            )
        if base == "t":
            tok = "t" if sign > 0 else "T"
        else:
            tok = base if sign > 0 else "A" + base[1:]
        runs.append((tok, count))
    tokens: list[str] = []
    for tok, count in runs:
        tokens.extend([tok] * count)
    return Word(m, tuple(tokens))


def reference_eval_word(word: Word) -> GroupElement:
    h = 0
    letters = []
    for tok in word.tokens:
        if tok == "t":
            h += 1
        elif tok == "T":
            h -= 1
        else:
            letters.append((tok, h))
    low = min([0] + [lh for _, lh in letters])
    nums = [0] * word.m
    for tok, lh in letters:
        term = 3 ** (lh - low)
        nums[int(tok[1:]) - 1] += term if tok[0] == "a" else -term
    return group._canonical(h, -low, nums)


def reference_max_height(word: Word) -> int:
    h = 0
    best = None
    for tok in word.tokens:
        if tok == "t":
            h += 1
        elif tok == "T":
            h -= 1
        best = h if best is None else max(best, h)
    return 0 if best is None else best


@given(st.lists(st.sampled_from(["t", "T", "a1", "A1", "a2", "A2"]), max_size=12))
@example([])
@example(["T", "a1", "T"])
@example(["a1", "A2"])
def test_max_height_matches_the_prefix_loop(tokens):
    w = Word(2, tuple(tokens))
    assert max_height(w) == reference_max_height(w)


def _outcome(parse, text, m):
    try:
        return parse(text, m).tokens
    except (ValueError, BudgetError) as error:
        return type(error), str(error)


@given(st.text(alphabet="tTaAbBcCq^-0123456789 \t", max_size=40), st.integers(1, 5))
@settings(max_examples=400, deadline=None)
def test_parse_word_matches_the_character_reader(text, m):
    assert _outcome(parse_word, text, m) == _outcome(reference_parse_word, text, m)


@pytest.mark.parametrize(
    "text",
    [
        "a^8001q", "qa^8001", "a" * 8001 + "q", "q" + "a" * 8001, "t^4000 T^4001 ^",
        "a^99999b", "b^99999a", "^", "^^2", "a^", "a^-", "a^--3", "a^-x", "a0^2",
        "a" + "1" * 5000, "a1^" + "0" * 5000 + "5", "A0001^-0005", " \tb a ",
    ],
)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_parse_word_matches_the_character_reader_at_the_edges(text, m):
    assert _outcome(parse_word, text, m) == _outcome(reference_parse_word, text, m)


# letters of every script, with the word alphabet weighted in
letter_texts = st.text(
    st.sampled_from("tTaAbBcC") | st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo")),
    max_size=40,
).filter(str.isalpha)


@given(letter_texts, st.integers(1, 5))
@settings(max_examples=200, deadline=None)
@example("a" * (WORD_LENGTH_CAP + 1), 1)
@example("ab" * 4001 + "x", 2)
@example("x" + "a" * (WORD_LENGTH_CAP + 1), 1)
@example("tAßcé", 3)
def test_letters_only_texts_read_as_the_lexeme_pattern_cuts_them(text, m):
    # each letter is one lexeme, and a trailing space sends the same text
    # through the pattern: both give the same word or the same error
    assert group._LEXEME.findall(text) == list(text)
    assert not (text + " ").isalpha()
    assert _outcome(parse_word, text, m) == _outcome(parse_word, text + " ", m)


# texts of a, A, t, T and digits, which parse_word cuts before each letter
# without the lexeme pattern: valid tokens, tokens out of range at some m,
# and pieces that join into chunks that are not tokens ('t1', a bare '5')
cut_texts = st.lists(
    st.sampled_from(
        ["t", "T", *(f"a{i}" for i in range(1, 13)), "A07", "a0", "a13", "5", "t1"]
    ),
    max_size=16,
).map("".join)


@given(cut_texts, st.integers(1, 12))
@settings(max_examples=400, deadline=None)
@example("t12", 12)
@example("a0", 12)
@example("a01", 12)
@example("A0001", 12)
@example("5a1", 12)
@example("a13", 12)
@example("a1" * (WORD_LENGTH_CAP + 1), 12)
@example("ta" + "0" * 29 + "7T", 12)
def test_the_fast_cut_refuses_what_the_character_reader_refuses(text, m):
    assert _outcome(parse_word, text, m) == _outcome(reference_parse_word, text, m)


def test_digits_that_are_not_decimal_are_named_as_bad_characters():
    # str.isdigit admits superscripts and other scripts' digits, which
    # Word's token check refuses; lexemes take ASCII decimal digits only
    with pytest.raises(ValueError, match="unexpected character '²' in word"):
        parse_word("a²", 1)
    with pytest.raises(ValueError, match="'\\^' must be followed by an integer"):
        parse_word("t^²", 1)
    with pytest.raises(ValueError, match="unexpected character '٣' in word"):
        parse_word("a٣^٢", 3)


def test_a_cap_overrun_before_a_bad_lexeme_is_reported_first():
    with pytest.raises(BudgetError):
        parse_word("a^8001q", 1)
    with pytest.raises(ValueError, match="unexpected character 'q'"):
        parse_word("qa^8001", 1)


def _generator(m: int, tok: str) -> GroupElement:
    if tok in ("t", "T"):
        return GroupElement(1 if tok == "t" else -1, 0, (0,) * m)
    unit = [0] * m
    unit[int(tok[1:]) - 1] = 1 if tok[0] == "a" else -1
    return GroupElement(0, 0, tuple(unit))


# T-heavy words: most descend below their lowest letter before reading the
# next one, so the one-pass fold rescales its sum
descending_words = st.integers(1, 4).flatmap(
    lambda m: st.lists(
        st.sampled_from(["T", "T", "t"] + [f"{c}{i}" for c in "aA" for i in range(1, m + 1)]),
        max_size=24,
    ).map(lambda ts: Word(m, tuple(ts)))
)


@given(descending_words)
@settings(max_examples=300, deadline=None)
def test_eval_word_matches_the_two_pass_reference_and_the_product(w):
    folded = reduce(
        multiply, (_generator(w.m, tok) for tok in w.tokens), GroupElement.identity(w.m)
    )
    assert eval_word(w) == reference_eval_word(w) == folded


def test_eval_word_rescales_when_a_letter_is_read_lower():
    w = parse_word("aTTbTa t^5 A", 2)
    assert eval_word(w) == reference_eval_word(w)
    assert element_str(eval_word(w)) == "a^(-215/27) b^(1/9) t^2"


def test_tokens_with_leading_zeros_format_like_their_canonical_forms():
    w = Word(2, ("a01", "A002", "t", "a1"))
    assert format_word(w) == "aBta"
    assert eval_word(w) == eval_word(Word(2, ("a1", "A2", "t", "a1")))


def test_word_names_its_first_bad_token_in_word_order():
    with pytest.raises(ValueError, match="invalid token 'a3' for m=2"):
        Word(2, ("t", "a3", "a1", "q", "a3"))


@pytest.mark.parametrize(
    "m,token,shown",
    [
        (1, "a" + "1" * 5000, "'a" + "1" * 20 + "'..."),
        (1, "a\u00b2", "'a\u00b2'"),
        (3, "a\u0663", "'a\u0663'"),
    ],
    ids=["5000-digit index", "superscript two", "arabic-indic three"],
)
def test_word_refuses_indices_that_are_not_short_ascii_decimals(m, token, shown):
    with pytest.raises(ValueError) as caught:
        Word(m, (token,))
    assert str(caught.value) == f"invalid token {shown} for m={m}"


def test_long_leading_zeros_read_as_their_index():
    w = Word(2, ("a" + "0" * 5000 + "2", "t"))
    assert format_word(w) == "bt"
    assert eval_word(w) == eval_word(Word(2, ("a2", "t")))


def test_word_caches_are_bounded():
    caches = (group._valid_token, group._read_lexeme, geodesic._fragment)
    for cache in caches:
        assert cache.cache_info().maxsize == 1024
    # short lexemes are read once; one with a long digit run is not cached
    group._read_lexeme.cache_clear()
    parse_word("a b a^2 b", 2)
    assert group._read_lexeme.cache_info().currsize == 3
    parse_word("a1^" + "0" * 100 + "2", 1)
    assert group._read_lexeme.cache_info().currsize == 3
    # a zero-padded token longer than _CACHED_LEXEME is read by no cache,
    # in either the fast cut or the lexeme pattern
    padded = "a" + "0" * group._CACHED_LEXEME + "1"
    for text in (padded, f"t{padded}T", f"t {padded}"):
        sizes = [len(group._LETTERS)] + [c.cache_info().currsize for c in caches]
        assert parse_word(text, 1).tokens.count("a1") == 1
        assert [len(group._LETTERS)] + [c.cache_info().currsize for c in caches] == sizes
    # Word accepts a1 padded with any number of zeros: each is a distinct
    # letter, and the letter table stays bounded, as it does over 2,000
    # distinct short letters
    for k in range(2000):
        assert eval_word(Word(1, ("a" + "0" * k + "1",))).nums == (1,)
    assert len(group._LETTERS) <= 1024
    assert eval_word(Word(2000, tuple(f"a{i}" for i in range(1, 2001)))).nums == (1,) * 2000
    assert len(group._LETTERS) <= 1024
    rng = random.Random(8)
    for _ in range(2000):
        spell(8, tuple(rng.randint(-(3**6), 3**6) for _ in range(8)))
    assert geodesic._fragment.cache_info().currsize <= 1024


@pytest.mark.parametrize(
    "text,reference_peak",
    [("a^0" * 200_000, 23.0e6), ("t^0 " * 100_000, 6.3e6)],
    ids=["a^0 x 200000", "t^0 x 100000"],
)
def test_parse_word_peak_memory_stays_near_the_character_reader(text, reference_peak):
    # reference_peak is the tracemalloc peak of reference_parse_word on the
    # text (CPython 3.11), measured once: under tracemalloc the character
    # reader takes 16 s
    tracemalloc.start()
    try:
        parse_word(text, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * reference_peak
