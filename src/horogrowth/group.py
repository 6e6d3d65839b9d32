"""Element and word model of the groups G_m = Z^m *_(g -> g^3).

An element is written uniquely as a^v t^s with v in Z[1/3]^m and s in Z.
The product rule is (u, s)(v, r) = (u + 3^s v, s + r) and the inverse of
(v, s) is (-3^(-s) v, -s).

An element is stored packed as (tee, exp, nums): its height s = tee and
v = nums / 3**exp with one exponent shared by all coordinates, exp >= 0,
and exp > 0 only when some entry of nums is not divisible by 3.  A
generator step then touches a single integer instead of m fractions, and
a plain (tee, exp, nums) tuple is equal to, and hashes like, the element.

Words use tokens 't', 'T' (its inverse) and 'a<i>', 'A<i>' for the i-th
lattice generator and its inverse.  For m <= 3 the letters a, b, c and
their upper-case inverses are accepted and emitted as aliases.  A word is
stored packed as (m, tokens): like an element, it is equal to, and hashes
like, the plain pair, and its len is 2 (word.length counts the tokens).
Word(m, tokens) checks every token; the package packs the words it builds
from its own token tables, and the parser packs words whose lexemes it has
range-checked.  The parser cuts a text into lexemes, each a token with an
optional power '^k' (k may carry a sign), skipping the spaces between
them, and reads each distinct lexeme once; rendering never emits '^'.
The forms format_word prints are cut by C string methods instead: letters
alone map through a table per rank, and a, A, t, T and digits are split
before each letter if every distinct chunk is a token.  Evaluation folds
the product rule over the tokens in one pass, keeping the coordinates over
the power of 3 that the lowest letter read so far needs; it reads each
letter's (index, sign) and 3^k from tables.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetError

# longest word parse_word accepts: 3^8000 has 3,818 digits, so nothing an
# accepted word evaluates to reaches the 4,300-digit int-to-string limit;
# it caps the rank too, as a word names at most that many generators
WORD_LENGTH_CAP = 8000


# builds an element, a coordinate or a word from a plain tuple without the
# Python-level constructor, which would dominate the cost of a step
_pack = tuple.__new__


class TriadicRational(NamedTuple):
    """num / 3**exp with exp >= 0 and 3 not dividing num unless exp == 0;
    one coordinate of an element, for display and JSON.  Build it with
    make, which canonicalises; it is a NamedTuple so that make packs the
    pair directly, and a pair is equal to, and hashes like, the plain
    (num, exp) tuple."""

    num: int
    exp: int

    @classmethod
    def make(cls, num: int, exp: int) -> "TriadicRational":
        if num == 0 or exp == 0:
            return _pack(cls, (num, 0))
        if exp < 0:
            return _pack(cls, (num * 3**-exp, 0))
        while exp > 0 and num % 3 == 0:
            num //= 3
            exp -= 1
        return _pack(cls, (num, exp))

    @property
    def is_integer(self) -> bool:
        return self.exp == 0


class GroupElement(NamedTuple):
    """a^(nums / 3**exp) t^tee in canonical packed form."""

    tee: int
    exp: int
    nums: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.nums)

    @property
    def coords(self) -> tuple[TriadicRational, ...]:
        return tuple(map(TriadicRational.make, self.nums, repeat(self.exp)))

    @classmethod
    def identity(cls, m: int) -> "GroupElement":
        return cls(0, 0, (0,) * m)


def _canonical(tee: int, exp: int, nums) -> GroupElement:
    """The element a^(nums / 3**exp) t^tee, for exp >= 0."""
    while exp > 0 and all(n % 3 == 0 for n in nums):
        nums = [n // 3 for n in nums]
        exp -= 1
    return _pack(GroupElement, (tee, exp, tuple(nums)))


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.m != h.m:
        raise ValueError("rank mismatch")
    s, e, u = g
    r, f, v = h
    # u / 3^e + 3^s v / 3^f over the common denominator 3^d
    d = max(e, f - s)
    return _canonical(
        s + r, d, [x * 3 ** (d - e) + y * 3 ** (d - f + s) for x, y in zip(u, v)]
    )


def is_horocyclic(g: GroupElement) -> bool:
    """True when g lies in the lattice Z^m (height 0, integer coordinates)."""
    return g.tee == 0 and g.exp == 0


def coset_key(g: GroupElement):
    """Hashable invariant of the right coset g Z^m.

    g and h lie in the same coset iff they share the height s and
    3^(-s) v agrees modulo Z^m.  Here 3^(-s) v = nums / 3^(exp+s), so the
    key is that denominator's exponent k (clamped at 0; it is the same
    for the whole coset) and nums reduced mod 3^k.
    """
    tee, exp, nums = g
    k = exp + tee
    if k <= 0:
        return tee, 0, (0,) * len(nums)
    q = 3**k
    return tee, k, tuple(map(q.__rmod__, nums))


# ---------------------------------------------------------------------------
# words

_ALIASES = "abc"
# the m <= 3 spelling of every token
_ALIAS_OF = dict(zip(("t", "T", "a1", "A1", "a2", "A2", "a3", "A3"), "tTaAbBcC"))

# the token of each letter in range at ranks 1 to 3 and, first, above 3
_LETTER_TOKENS = [dict(zip([*_ALIAS_OF.values()][: 2 + 2 * m], _ALIAS_OF)) for m in range(4)]

# one lexeme per token or run: a generator a<i> or A<i>, or else any one
# non-space character, with an optional power; findall skips the spaces.
# Indices and powers are ASCII decimals, as Word's token check requires.
_LEXEME = re.compile(r"\s*((?:[aA][0-9]+|\S)(?:\^-?[0-9]*)?)")
# parse_word reads lexemes longer than this (long digit runs) uncached, so
# that texts from users leave no long strings in the cache
_CACHED_LEXEME = 24


@lru_cache(maxsize=1024)
def _valid_token(tok: str, m: int) -> bool:
    if tok in ("t", "T"):
        return True
    digits = tok[1:]
    if tok[:1] in ("a", "A") and digits.isascii() and digits.isdigit():
        # an index with more digits than m is out of range unconverted
        digits = digits.lstrip("0")
        return len(digits) <= len(str(m)) and 1 <= int(digits or "0") <= m
    return False


# eval_word's tables: (index, sign) per token read, up to 1024; 3^k for k < 64
_LETTERS: dict[str, tuple[int, int]] = {}
_POW3 = tuple(3**k for k in range(64))


def _letter(tok: str) -> tuple[int, int]:
    """(coordinate index, sign) of a valid lattice token, entered in _LETTERS."""
    if len(_LETTERS) >= 1024:
        _LETTERS.clear()
    letter = _LETTERS[tok] = int(tok[1:].lstrip("0")) - 1, (1 if tok[0] == "a" else -1)
    return letter


class Word(tuple):
    """A word in the generators, packed as (m, tokens); Word(m, tokens)
    checks every token."""

    __slots__ = ()

    def __new__(cls, m: int, tokens: tuple[str, ...]) -> "Word":
        if m < 1:
            raise ValueError("rank m must be at least 1")
        if not all(map(_valid_token, set(tokens), repeat(m))):
            bad = next(tok for tok in tokens if not _valid_token(tok, m))
            shown = repr(bad) if len(bad) <= 21 else repr(bad[:21]) + "..."
            raise ValueError(f"invalid token {shown} for m={m}")
        return _pack(cls, (m, tokens))

    m = property(itemgetter(0))
    tokens = property(itemgetter(1))

    # copy and every pickle protocol rebuild a word through the checked
    # constructor; protocols 0 and 1 never read __getnewargs__
    def __reduce__(self):
        return Word, tuple(self)

    def __repr__(self) -> str:
        return f"Word(m={self.m!r}, tokens={self.tokens!r})"

    @property
    def length(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return format_word(self)


@lru_cache(maxsize=1024)
def _read_lexeme(lexeme: str, m: int) -> tuple[str, int]:
    """(token, count) of one lexeme, or ValueError naming what is wrong."""
    base, caret, power = lexeme.partition("^")
    ch = lexeme[0]
    if ch in ("t", "T"):
        up, down, sign = "t", "T", (1 if ch == "t" else -1)
    elif ch in "aA" and len(base) > 1:
        # an index with more digits than m is out of range unconverted
        digits = base[1:].lstrip("0") or "0"
        idx = int(digits) if len(digits) <= len(str(m)) else 0
        if not 1 <= idx <= m:
            shown = digits if len(digits) <= 20 else digits[:20] + "..."
            raise ValueError(f"generator index {shown} out of range for m={m}")
        up, down, sign = f"a{idx}", f"A{idx}", (1 if ch == "a" else -1)
    elif ch.lower() in _ALIASES and m <= 3:
        idx = _ALIASES.index(ch.lower()) + 1
        if idx > m:
            raise ValueError(f"generator {ch!r} out of range for m={m}")
        up, down, sign = f"a{idx}", f"A{idx}", (1 if ch.islower() else -1)
    else:
        raise ValueError(f"unexpected character {ch!r} in word")
    count = 1
    if caret:
        digits = power.lstrip("-")
        if not digits:
            raise ValueError("'^' must be followed by an integer")
        digits = digits.lstrip("0")
        if len(digits) > len(str(WORD_LENGTH_CAP)):
            count = WORD_LENGTH_CAP + 1  # over the cap: never converted
        else:
            count = int(digits or "0")
        if power[0] == "-":
            sign = -sign
    return (up if sign > 0 else down), count


def _cut(text: str, m: int) -> tuple[str, ...] | None:
    """The tokens, at most WORD_LENGTH_CAP, of a text in a form format_word
    prints, or None for the lexeme pattern: a chunk like 't12' is no token
    (_read_lexeme reads it as 't'), and long chunks are read uncached."""
    table = _LETTER_TOKENS[m if m <= 3 else 0]
    if text.isalpha() and len(text) <= WORD_LENGTH_CAP and table.keys() >= set(text):
        return tuple(map(table.__getitem__, text))
    if text.isalpha() or not (text.isascii() and text.isalnum()):
        return None
    for letter in "aAtT":
        text = text.replace(letter, " " + letter)
    reads = dict.fromkeys(chunks := text.split())
    if len(chunks) > WORD_LENGTH_CAP or max(map(len, reads)) > _CACHED_LEXEME:
        return None
    if not all(map(_valid_token, reads, repeat(m))):
        return None
    for chunk in reads:
        reads[chunk] = _read_lexeme(chunk, m)[0]
    return tuple(map(reads.__getitem__, chunks))


def parse_word(text: str, m: int) -> Word:
    """Parse a word like 'ttabbTBTab' or 't^2a1A3^2' (see module docstring).

    The text is cut into lexemes, each a token with an optional power, and
    each distinct lexeme is read once.  The first bad lexeme raises
    ValueError, unless the lexemes before it already run past
    WORD_LENGTH_CAP tokens: words longer than that raise BudgetError
    before any token is built, as does a rank above WORD_LENGTH_CAP."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if m > WORD_LENGTH_CAP:
        raise BudgetError(f"rank {m} exceeds the supported cap {WORD_LENGTH_CAP}")
    if tokens := _cut(text, m):
        return _pack(Word, (m, tokens))
    # a text of letters alone has no index, power or space: each of its
    # characters is one lexeme
    lexemes = text if text.isalpha() else _LEXEME.findall(text)
    reads = dict.fromkeys(lexemes)
    read = _read_lexeme
    if max(map(len, reads), default=0) > _CACHED_LEXEME:
        read = read.__wrapped__
    try:
        for lexeme in reads:
            reads[lexeme] = read(lexeme, m)
    except ValueError:
        # the lexemes before the bad one, all read, may overrun the cap first
        if sum(reads[x][1] for x in lexemes[: lexemes.index(lexeme)]) > WORD_LENGTH_CAP:
            raise _too_long() from None
        raise
    if sum(map(itemgetter(1), map(reads.__getitem__, lexemes))) > WORD_LENGTH_CAP:
        raise _too_long()
    # _read_lexeme range-checks every index, so the tokens need no re-check
    tokens: list[str] = []
    for lexeme in lexemes:
        tok, count = reads[lexeme]
        tokens += [tok] * count
    return _pack(Word, (m, tuple(tokens)))


def _too_long() -> BudgetError:
    return BudgetError(f"word is longer than the cap of {WORD_LENGTH_CAP} tokens")


def format_word(word: Word) -> str:
    """Render tokens; single letters with case for m <= 3, indexed otherwise."""
    if word.m > 3:
        return "".join(word.tokens)
    try:
        return "".join(map(_ALIAS_OF.__getitem__, word.tokens))
    except KeyError:  # an index written with leading zeros, such as 'a01'
        return "".join(
            _ALIAS_OF.get(tok) or _ALIAS_OF[tok[0] + tok[1:].lstrip("0")]
            for tok in word.tokens
        )


def eval_word(word: Word) -> GroupElement:
    """Fold the product rule over the word's tokens in one pass: a lattice
    letter read at height h adds +-3^h to its coordinate.  The sum is kept
    over 3^exp, where -exp is the lowest height a letter was read at (or 0),
    so it stays integral: a letter read lower first rescales it by
    3^(-h-exp)."""
    nums = [0] * word.m
    h = exp = 0
    letters, powers = _LETTERS, _POW3
    for tok in word.tokens:
        if tok == "t":
            h += 1
        elif tok == "T":
            h -= 1
        else:
            k = h + exp
            if k < 0:
                scale = 3**-k
                nums = [n * scale for n in nums]
                exp, k = -h, 0
            try:
                index, sign = letters[tok]
            except KeyError:
                index, sign = _letter(tok)
            nums[index] += sign * (powers[k] if k < 64 else 3**k)
    return _canonical(h, exp, nums)


# the height change of each token: +1 for t, -1 for T, 0 for a lattice letter
_RISE = {"t": 1, "T": -1}


def max_height(word: Word) -> int:
    """Largest height over the word's nonempty prefixes (0 for the empty word)."""
    return max(accumulate(map(_RISE.get, word.tokens, repeat(0))), default=0)


# ---------------------------------------------------------------------------
# rendering and JSON

def _gen_name(m: int, index: int) -> str:
    return _ALIASES[index - 1] if m <= 3 else f"a{index}"


def element_str(g: GroupElement) -> str:
    """Normal-form rendering like 'a^10 b^16' or 'a^(1/3) t^-1'; 'e' for identity."""
    parts = []
    for i, c in enumerate(g.coords, start=1):
        if c.num == 0:
            continue
        name = _gen_name(g.m, i)
        if c.is_integer:
            if c.num == 1:
                parts.append(name)
            else:
                parts.append(f"{name}^{c.num}")
        else:
            parts.append(f"{name}^({c.num}/{3**c.exp})")
    if g.tee == 1:
        parts.append("t")
    elif g.tee:
        parts.append(f"t^{g.tee}")
    return " ".join(parts) if parts else "e"


def element_to_json(g: GroupElement) -> dict:
    return {
        "coords": [{"num": str(c.num), "exp3": c.exp} for c in g.coords],
        "tee": g.tee,
    }
