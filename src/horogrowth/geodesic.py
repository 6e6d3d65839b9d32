"""Geodesic normal form: signed digit expansions and level languages.

Every integer e has a balanced ternary expansion with digits in
{-1, 0, 1}.  A lattice vector is spelled from one rule.  Its top index N
is the least n with max |v_i| <= (5 3^n - 1)/2.  A coordinate whose
balanced form would reach index N+1, which happens exactly when
2|v_i| > 3^(N+1) - 1, takes a lead digit 2 with v_i's sign at index N;
every other coordinate has lead 0.  Below the lead come the balanced
digits of v_i - lead 3^N.  Balanced ternary is odd, so -v is spelled with
every digit negated.  The word is t^N followed by the digit blocks per
level, highest first, separated by single T steps; its length is 2N
plus the sum of the absolute leads and digits, and it is a geodesic.

The digit rule is one table, built at import: for every residue r mod
3^6, the six balanced ternary digits of r - 364 and their weight, the
sum of |digit|.  An integer e is expanded six digits per step as
e = 729 ((e + 364) // 729) + (r - 364) with r = (e + 364) mod 729, so
balanced_digits, which spell calls once per coordinate, and word_length,
which sums weights and builds no digits, read the same table.  spell
emits one fragment per level: the level's column of signed digits maps
to its tokens and a T through one bounded cache.

The level language for descent depth n enumerates the canonical words
for all vectors in the box shell [0, (3^(n+2)-1)/2]^m minus
[0, (3^(n+1)+1)/2)^m.  It is one walk over the levels whose state is the
set of coordinates already started.  At level n a lead block takes its
cap and a second block may enter beside it; at each level below, the
started coordinates take free signs and at most one new block enters
with a 1, and level 0 starts every coordinate still unstarted.  The
digit vectors of each level become the fragments spell reads, once per
state, and every word is one fragment per level.  spell and
enumerate_level pack their words as (m, tokens) directly, since every
token comes from the fragments, without the check that Word(m, tokens)
makes.  A level of more than LEVEL_WORD_CAP words is refused with
BudgetError.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product, repeat

from .errors import BudgetError
from .group import Word, _pack, eval_word, is_horocyclic, max_height

_flat = chain.from_iterable

# most words enumerate_level builds: a word keeps 225-261 B (tracemalloc
# at (3, 2), (2, 3) and (2, 4)), so a refused level would need more than
# 65 MB as a list; (3, 2) holds 61,803
LEVEL_WORD_CAP = 300_000


# Balanced ternary six digits at a time: with r = (e + 364) mod 729, e is
# 729 ((e + 364) // 729) plus r - 364, a value in [-364, 364] whose six
# digits (ascending) and weight, the sum of |digit|, are _CHUNK_DIGITS[r]
# and _CHUNK_WEIGHT[r].  product yields the digit tuples, highest digit
# first, in increasing value, so reversing each lists -364..364 in order.
_CHUNK, _HALF = 729, 364
_CHUNK_DIGITS = [ds[::-1] for ds in product((-1, 0, 1), repeat=6)]
_CHUNK_WEIGHT = [6 - ds.count(0) for ds in _CHUNK_DIGITS]


def balanced_digits(e: int) -> tuple[int, ...]:
    """Balanced ternary digits of e, ascending; empty for 0."""
    digits: list[int] = []
    while e:
        e, r = divmod(e + _HALF, _CHUNK)
        digits += _CHUNK_DIGITS[r]
    while digits and not digits[-1]:
        digits.pop()
    return tuple(digits)


def _top(peak: int) -> tuple[int, int]:
    """The top index N, the least n with 2 peak <= 5 3^n - 1, and 3^N."""
    top, power = 0, 1
    while 2 * peak > 5 * power - 1:
        top, power = top + 1, 3 * power
    return top, power


@lru_cache(maxsize=1024)
def _fragment(column: tuple[int, ...]) -> tuple[str, ...]:
    """The tokens of one level, then T: per coordinate i, a signed digit d
    gives d copies of a<i>, or -d copies of A<i> when d < 0."""
    runs = ([f"a{i}" if d > 0 else f"A{i}"] * abs(d) for i, d in enumerate(column, 1))
    return (*_flat(runs), "T")


def spell(m: int, vec: tuple[int, ...]) -> Word:
    """Geodesic word for the lattice element a^vec: t^N, then one fragment
    per level N..0 of the signed digits, without the last T."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return _pack(Word, (m, ()))
    top, power = _top(max(map(abs, vec)))
    band = 3 * power - 1
    rows = []  # per coordinate, its signed digits at indices top..0
    for v in vec:
        lead = (2 if v > 0 else -2) if 2 * abs(v) > band else 0
        digits = balanced_digits(v - lead * power)
        row = [*repeat(0, top + 1 - len(digits)), *digits[::-1]]
        row[0] += lead
        rows.append(row)
    tokens = ["t"] * top
    tokens += _flat(map(_fragment, zip(*rows)))
    tokens.pop()  # the T after level 0
    return _pack(Word, (m, tuple(tokens)))  # every token is from _fragment


def word_length(m: int, vec: tuple[int, ...]) -> int:
    """Length of spell(m, vec), summed from the chunk weights without
    building the word or its digits."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return 0
    mags = [abs(v) for v in vec]
    top, power = _top(max(mags))
    band = 3 * power - 1
    total = 2 * top
    for e in mags:
        if 2 * e > band:
            e -= 2 * power
            total += 2
        while e:
            e, r = divmod(e + _HALF, _CHUNK)
            total += _CHUNK_WEIGHT[r]
    return total


# ---------------------------------------------------------------------------
# level languages

def level_box(n: int) -> tuple[int, int]:
    """Coordinate bounds (lower, upper) of the level-n shell."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (3 ** (n + 1) + 1) // 2, (3 ** (n + 2) - 1) // 2


def enumerate_level(m: int, n: int) -> list[Word]:
    """All canonical level-n words, from one walk over the levels whose
    state is the tuple of coordinates already started.

    The walk is the construction by ordered block partitions and
    compositions of n.  A block is the set of coordinates that enter at
    one level, with a 1.  Interior composition parts of at least 1 let at
    most one block enter per level below n, where every started coordinate
    takes a sign in {0, 1, -1}.  A first part of 0 is a second block that
    enters at level n beside the lead, whose cap is U^2, or U at level
    n + 1 over a sign word that is not all -1.  A free last part is a
    block that enters at level 0, which starts every coordinate still
    unstarted.  tails[started] holds the words of the levels below, built
    bottom-up, one fragment per level; a word is a head times a tail, less
    the last T.  Raises BudgetError, before any word is built, when the
    level holds more than LEVEL_WORD_CAP words."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    # the shell holds at least 3^(n+1) vectors and at least 4^m - 1, so
    # n >= 11 or m >= 10 is over the cap before it is counted
    held = f"more than {LEVEL_WORD_CAP}"
    if n < 11 and m < 10:
        lower, upper = level_box(n)
        held = upper**m - (lower - 1) ** m  # the vectors of the level shell
    if isinstance(held, str) or held > LEVEL_WORD_CAP:
        raise BudgetError(
            f"level {n} at rank {m} holds {held} words, over the cap of {LEVEL_WORD_CAP}"
        )
    full = tuple(range(m))
    moves = {}  # per state, each block that may enter beside it, and the state after
    for started in _flat(combinations(full, k) for k in range(1, m + 1)):
        rest = [i for i in full if i not in started]
        blocks = _flat(combinations(rest, k) for k in range(len(rest) + 1))
        moves[started] = [(b, tuple(sorted(started + b))) for b in blocks]
    tails = {full: [()]}  # below level 0 every coordinate has started
    for level in range(n):
        below, tails = tails, {}
        stop = None if level else -1  # the T after level 0 ends no word
        for started, entries in moves.items():
            tails[started] = out = []
            for block, after in entries:
                if after not in below:  # at level 0, block is every unstarted one
                    continue
                row = [int(i in block) for i in full]
                for signs in product((0, 1, -1), repeat=len(started)):
                    for i, d in zip(started, signs):
                        row[i] = d
                    frag = _fragment(tuple(row))[:stop]
                    out += [frag + t for t in below[after]]
    # the caps: U^2 at level n, or U at level n + 1 over a sign word
    words: list[Word] = []
    stop = None if n else -1
    for lead, entries in moves.items():
        high = ("t",) * (n + 1) + _fragment(tuple(int(i in lead) for i in full))
        all_minus = (-1,) * len(lead)
        for block, after in entries:
            if after not in tails:  # at n = 0, as at level 0 below
                continue
            row = [2 if i in lead else int(i in block) for i in full]
            heads = [("t",) * n + _fragment(tuple(row))[:stop]]
            for signs in product((0, 1, -1), repeat=len(lead)):
                if signs == all_minus:
                    continue
                for i, d in zip(lead, signs):
                    row[i] = d
                heads.append(high + _fragment(tuple(row))[:stop])
            for head in heads:
                words += [_pack(Word, (m, head + t)) for t in tails[after]]
    return words


def check_level_ranges(m: int, n: int) -> dict:
    """Evaluate every level-n word and verify the box, distinctness, and
    height claims; evaluation goes through the group product, independent
    of the digit construction."""
    return _level_ranges(m, n)[0]


def _level_ranges(m: int, n: int) -> tuple[dict, list[tuple[int, ...]]]:
    """check_level_ranges's report, with the evaluated nums of every word."""
    words = enumerate_level(m, n)
    lower, upper = level_box(n)
    elements = [eval_word(w) for w in words]
    values = [g.nums for g in elements]
    return {
        "m": m,
        "n": n,
        "count": len(words),
        "all_distinct": len(set(values)) == len(values),
        "all_in_box": all(map(is_horocyclic, elements))
        and all(min(v) >= 1 and lower <= max(v) <= upper for v in values),
        "heights_ok": all(max_height(w) in (n, n + 1) for w in words),
        "box": [lower, upper],
    }, values
