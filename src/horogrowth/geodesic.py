"""Geodesic normal form: signed digit expansions and level languages.

Every integer e has a balanced ternary expansion with digits in
{-1, 0, 1}.  A lattice vector is spelled from one rule.  Its top index N
is the least n with max |v_i| <= (5 3^n - 1)/2.  A coordinate whose
balanced form would reach index N+1, which happens exactly when
2|v_i| > 3^(N+1) - 1, takes a lead digit 2 at index N; every other
coordinate has lead 0.  Below the lead come the balanced digits of
|v_i| - lead 3^N.  The word is t^N followed by the digit blocks per
level, highest first, separated by single T steps; its length is 2N
plus the sum of the leads and absolute digits, and it is a geodesic.

The digit rule is one table, built at import: for every residue r mod
3^6, the six balanced ternary digits of r - 364 and their weight, the
sum of |digit|.  An integer e is expanded six digits per step as
e = 729 ((e + 364) // 729) + (r - 364) with r = (e + 364) mod 729, so
balanced_digits, the expansion behind spell, and word_length, which sums
weights and builds no digits, all read the same table.  The word is
emitted a whole level per step, chaining each coordinate's token run.

The level language for descent depth n enumerates the canonical words
for all vectors in the box shell [0, (3^(n+2)-1)/2]^m minus
[0, (3^(n+1)+1)/2)^m: an ordered set partition of the coordinates fixes
which block leads at which level, a composition of n places the descents,
and each descended level carries a free sign vector on the coordinates
already started.  It is emitted a level at a time from the same token
runs as spell: each level's digit vectors become token fragments once,
and the words are products of one fragment per level.  spell builds its
single word from a digit matrix instead.  Both pack their words as
(m, tokens) directly, since every token comes from the runs, without the
check that Word(m, tokens) makes.  A level of more than LEVEL_WORD_CAP
words is refused with BudgetError.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat

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


def _expansion(vec) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Top index N and, per coordinate v, its lead (2 at index N, or 0)
    and the balanced digits of |v| - lead 3^N below the lead."""
    mags = [abs(v) for v in vec]
    top, power = _top(max(mags))
    band = 3 * power - 1
    return top, [
        (2, balanced_digits(e - 2 * power)) if 2 * e > band else (0, balanced_digits(e))
        for e in mags
    ]


@lru_cache(maxsize=1024)
def _runs(index: int, sign: int) -> tuple[tuple[str, ...], ...]:
    """The token runs of the digits 0, 1, 2 and -1 (at index -1) of the
    coordinate index, for a coordinate of the given sign."""
    up, down = (f"a{index}", f"A{index}") if sign > 0 else (f"A{index}", f"a{index}")
    return (), (up,), (up, up), (down,)


def _digits_to_word(m: int, top: int, rows, signs) -> Word:
    """The word of digit rows (per coordinate, the digits at indices
    0..top, in {-1, 0, 1, 2}): t^top, then the levels top..0 separated by
    T.  Each level chains the coordinates' token runs, and the levels are
    chained in one pass over the rows read top down."""
    runs = map(_runs, range(1, m + 1), signs)
    columns = [map(r.__getitem__, reversed(row)) for r, row in zip(runs, rows)]
    tokens = ["t"] * top
    tokens += _flat(_flat(zip(*columns, repeat(("T",)))))
    tokens.pop()  # the T after level 0
    return _pack(Word, (m, tuple(tokens)))  # every token is from _runs


def spell(m: int, vec: tuple[int, ...]) -> Word:
    """Geodesic word for the lattice element a^vec."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return _pack(Word, (m, ()))
    signs = tuple(-1 if v < 0 else 1 for v in vec)
    top, coords = _expansion(vec)
    rows = []
    for lead, digits in coords:
        row = list(digits) + [0] * (top + 1 - len(digits))
        row[top] += lead
        rows.append(row)
    return _digits_to_word(m, top, rows, signs)


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


def enumerate_level(m: int, n: int) -> list[Word]:
    """All canonical level-n words, emitted a level at a time.

    For each ordered partition of the coordinates into blocks and each
    composition of n placing the descents, every level below n gets its
    digit vectors once: the entry digits of the blocks, and the 3^k sign
    vectors of the k coordinates started above it.  Each vector becomes a
    token fragment from the runs spell uses, each cap (U^2 at level n, or
    U at level n + 1 over a sign word) a head fragment, and every word is a
    head followed by one fragment per level, the lowest level varying
    fastest.  Raises BudgetError, before any word is built, when the level
    holds more than LEVEL_WORD_CAP words."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    lower, upper = level_box(n)
    count = upper**m - (lower - 1) ** m  # the vectors of the level shell
    if count > LEVEL_WORD_CAP:
        raise BudgetError(
            f"level {n} at rank {m} holds {count} words, over the cap of {LEVEL_WORD_CAP}"
        )
    runs = [_runs(i, 1) for i in range(1, m + 1)]

    def fragment(digits) -> tuple[str, ...]:
        return tuple(_flat(map(tuple.__getitem__, runs, digits)))

    out: list[Word] = []
    for blocks in _ordered_partitions(tuple(range(m))):
        lead = blocks[0]
        for comp in _compositions(n, len(blocks)):
            # fixed[level]: the digits of levels 0..n that no sign sets;
            # each later block enters with a 1 where the descents before it
            # end, and free[level] holds the coordinates started above it
            fixed = [[0] * m for _ in range(n + 1)]
            free: list[tuple[int, ...]] = [()] * n
            enter, started = n, ()
            for block, j in zip(blocks, comp):
                started += block
                if block is not lead:
                    for i in block:
                        fixed[enter][i] = 1
                free[enter - j : enter] = [started] * j
                enter -= j
            # the words below level n, as T-led fragment products
            tails = [()]
            for level in range(n - 1, -1, -1):
                row, alpha = fixed[level], free[level]
                frags = []
                for signs in product((0, 1, -1), repeat=len(alpha)):
                    for i, d in zip(alpha, signs):
                        row[i] = d
                    frags.append(("T", *fragment(row)))
                tails = [t + f for t in tails for f in frags]
            # the caps: U^2 at level n, or U at level n + 1 over a sign word
            row = fixed[n]
            for i in lead:
                row[i] = 2
            heads = [("t",) * n + fragment(row)]
            high = ("t",) * (n + 1) + fragment([int(i in lead) for i in range(m)]) + ("T",)
            all_minus = (-1,) * len(lead)
            for signs in product((0, 1, -1), repeat=len(lead)):
                if signs == all_minus:
                    continue
                for i, d in zip(lead, signs):
                    row[i] = d
                heads.append(high + fragment(row))
            for head in heads:
                out += [_pack(Word, (m, head + t)) for t in tails]
    return out


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
