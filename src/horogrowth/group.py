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
their upper-case inverses are accepted and emitted as aliases.  The
parser also accepts '^k' with an optional sign on any letter; rendering
never emits '^'.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetError

# longest word parse_word accepts: 3^8000 has 3,818 digits, so nothing an
# accepted word evaluates to reaches the 4,300-digit int-to-string limit
WORD_LENGTH_CAP = 8000


@dataclass(frozen=True)
class TriadicRational:
    """num / 3**exp with exp >= 0 and 3 not dividing num unless exp == 0;
    one coordinate of an element, for display and JSON."""

    num: int
    exp: int

    @classmethod
    def make(cls, num: int, exp: int) -> "TriadicRational":
        if num == 0:
            return cls(0, 0)
        while exp < 0:
            num *= 3
            exp += 1
        while exp > 0 and num % 3 == 0:
            num //= 3
            exp -= 1
        return cls(num, exp)

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
        return tuple(TriadicRational.make(n, self.exp) for n in self.nums)

    @classmethod
    def identity(cls, m: int) -> "GroupElement":
        return cls(0, 0, (0,) * m)


# builds an element from a (tee, exp, nums) tuple without the Python-level
# NamedTuple constructor, which would dominate the cost of a step
_pack = tuple.__new__


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


def inverse(g: GroupElement) -> GroupElement:
    s, e, u = g
    # -3^(-s) u / 3^e over the denominator 3^d
    d = max(e + s, 0)
    return _canonical(-s, d, [-x * 3 ** (d - e - s) for x in u])


def step(g: GroupElement, index: int, sign: int) -> GroupElement:
    """g times one generator: a_(index+1)^sign for index >= 0, t^sign for
    index < 0.  The fast path of multiply for breadth-first enumeration."""
    tee, exp, nums = g
    if index < 0:
        return _pack(GroupElement, (tee + sign, exp, nums))
    # a_i^sign at height tee adds sign * 3^tee = sign * 3^k / 3^exp
    k = exp + tee
    if k < 0:
        # over the finer denominator 3^-tee the new entry is sign mod 3,
        # so the result is canonical
        scale = 3**-k
        new = [n * scale for n in nums]
        new[index] += sign
        return _pack(GroupElement, (tee, -tee, tuple(new)))
    new = list(nums)
    new[index] += sign * 3**k
    if k == 0 and exp:
        # only adding +-1 can make every entry divisible by 3
        return _canonical(tee, exp, new)
    return _pack(GroupElement, (tee, exp, tuple(new)))


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
    k = max(g.exp + g.tee, 0)
    q = 3**k
    return (g.tee, k, tuple(n % q for n in g.nums))


# ---------------------------------------------------------------------------
# words

_ALIASES = "abc"


def _valid_token(tok: str, m: int) -> bool:
    if tok in ("t", "T"):
        return True
    if len(tok) >= 2 and tok[0] in "aA" and tok[1:].isdigit():
        return 1 <= int(tok[1:]) <= m
    return False


@dataclass(frozen=True)
class Word:
    """A word in the generators, stored as a tuple of tokens."""

    m: int
    tokens: tuple[str, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("rank m must be at least 1")
        for tok in dict.fromkeys(self.tokens):
            if not _valid_token(tok, self.m):
                raise ValueError(f"invalid token {tok!r} for m={self.m}")

    @property
    def length(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return format_word(self)


def parse_word(text: str, m: int) -> Word:
    """Parse a word like 'ttabbTBTab' or 't^2a1A3^2' (see module docstring).

    Words longer than WORD_LENGTH_CAP tokens raise BudgetError before any
    token is built."""
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
        elif ch in "aA" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            # an index with more digits than m is out of range unconverted
            digits = text[i + 1 : j].lstrip("0") or "0"
            idx = int(digits) if len(digits) <= len(str(m)) else 0
            if not 1 <= idx <= m:
                shown = digits if len(digits) <= 20 else digits[:20] + "..."
                raise ValueError(f"generator index {shown} out of range for m={m}")
            base, sign = f"a{idx}", (1 if ch == "a" else -1)
            i = j
        elif ch.lower() in _ALIASES and m <= 3:
            idx = _ALIASES.index(ch.lower()) + 1
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
            if j >= n or not text[j].isdigit():
                raise ValueError("'^' must be followed by an integer")
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i:j].lstrip("0")
            if len(digits) > len(str(WORD_LENGTH_CAP)):
                count = WORD_LENGTH_CAP + 1  # over the cap: never converted
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


def format_word(word: Word) -> str:
    """Render tokens; single letters with case for m <= 3, indexed otherwise."""
    if word.m > 3:
        return "".join(word.tokens)
    out = []
    for tok in word.tokens:
        if tok in ("t", "T"):
            out.append(tok)
        else:
            name = _ALIASES[int(tok[1:]) - 1]
            out.append(name if tok[0] == "a" else name.upper())
    return "".join(out)


def eval_word(word: Word) -> GroupElement:
    """Fold the product rule over the word's tokens: a lattice letter read
    at height h adds +-3^h to its coordinate.  Heights are shifted by the
    lowest one, h_min, so the sum stays integral; exp is then -h_min."""
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
    return _canonical(h, -low, nums)


def max_height(word: Word) -> int:
    """Largest height over the word's nonempty prefixes (0 for the empty word)."""
    h = 0
    best = None
    for tok in word.tokens:
        if tok == "t":
            h += 1
        elif tok == "T":
            h -= 1
        best = h if best is None else max(best, h)
    return 0 if best is None else best


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
