"""Tests for the element and word model of Z^m *_(g -> g^3).

Element oracles (products, inverses, heights) were worked out by hand
from the normal form a^v t^s with (u,s)(v,r) = (u + 3^s v, s+r) before
the module was written.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horogrowth.errors import BudgetError
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
    inverse,
    is_horocyclic,
    max_height,
    multiply,
    parse_word,
)

# ---------------------------------------------------------------------------
# triadic rationals

def test_triadic_canonicalization():
    assert TriadicRational.make(6, 1) == TriadicRational(2, 0)
    assert TriadicRational.make(9, 2) == TriadicRational(1, 0)
    assert TriadicRational.make(0, 5) == TriadicRational(0, 0)
    assert TriadicRational.make(2, -2) == TriadicRational(18, 0)
    assert TriadicRational.make(5, 2) == TriadicRational(5, 2)


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
