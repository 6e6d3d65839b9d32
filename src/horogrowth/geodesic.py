"""Geodesic normal form: signed digit expansions and level languages.

Every positive integer e has a balanced ternary expansion with digits in
{-1, 0, 1} and top digit 1 at index h.  When the digit below the top is
-1, the top pair (1 at h, -1 at h-1) can be rewritten as a single 2 at
h-1, giving the shorter "2-led" variant; it exists exactly for e in the
bands [(3^(k+1)+1)/2, (5 3^k - 1)/2], k = h-1.

A lattice vector is spelled by expanding each coordinate, letting N be
the largest top index after preferring the 2-led form where it exists,
and emitting t^N followed by the digit blocks per level, highest first,
separated by single T steps.  The word length is 2N plus the sum of
absolute digits, and the words produced this way are geodesics.

The level language for descent depth n enumerates, through the same
digit-matrix emitter, the canonical words for all vectors in the box
shell [0, (3^(n+2)-1)/2]^m minus [0, (3^(n+1)+1)/2)^m: an ordered set
partition of the coordinates fixes which block leads at which level, a
composition of n places the descents, and each descended level carries a
free sign vector on the coordinates already started.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .group import Word, eval_word, is_horocyclic, max_height


def balanced_digits(e: int) -> tuple[int, ...]:
    """Balanced ternary digits of e, ascending; empty for 0."""
    digits = []
    while e:
        d = ((e + 1) % 3) - 1
        digits.append(d)
        e = (e - d) // 3
    return tuple(digits)


def two_led_digits(e: int) -> tuple[int, ...] | None:
    """The 2-led variant of e >= 1 (top digit 2), or None when it does not exist."""
    bt = balanced_digits(e)
    h = len(bt) - 1
    if h < 1 or bt[h - 1] != -1:
        return None
    rest = balanced_digits(e - 2 * 3 ** (h - 1))
    row = list(rest) + [0] * (h - 1 - len(rest))
    row.append(2)
    return tuple(row)


@dataclass(frozen=True)
class DigitExpansion:
    """Per-coordinate digit rows, each of length top+1, highest index top."""

    top: int
    rows: tuple[tuple[int, ...], ...]


def digit_expansion(m: int, vec: tuple[int, ...]) -> DigitExpansion:
    """Joint expansion of a nonzero vector of nonnegative coordinates.

    Coordinates whose 2-led variant exists prefer it; N is the largest
    resulting top index; coordinates reaching N+1 in balanced form must
    then have a 2-led row topping out at exactly N, and all others keep
    balanced form padded to N+1 digits.
    """
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if any(v < 0 for v in vec):
        raise ValueError("coordinates must be nonnegative")
    if not any(vec):
        raise ValueError("zero vector has no digit expansion")
    bts = [balanced_digits(v) for v in vec]
    twos = [two_led_digits(v) if v else None for v in vec]
    tops = [
        (len(two) - 1 if two is not None else len(bt) - 1)
        for bt, two, v in zip(bts, twos, vec)
        if v
    ]
    top = max(tops)
    rows = []
    for v, bt, two in zip(vec, bts, twos):
        if v and len(bt) - 1 > top:
            row = two
        else:
            row = bt
        rows.append(tuple(row) + (0,) * (top + 1 - len(row)))
    return DigitExpansion(top, tuple(rows))


def _digits_to_word(m: int, top: int, rows, signs) -> Word:
    tokens = ["t"] * top
    for level in range(top, -1, -1):
        for i in range(m):
            d = rows[i][level] * signs[i]
            if d:
                tok = f"a{i + 1}" if d > 0 else f"A{i + 1}"
                tokens.extend([tok] * abs(d))
        if level:
            tokens.append("T")
    return Word(m, tuple(tokens))


def spell(m: int, vec: tuple[int, ...]) -> Word:
    """Geodesic word for the lattice element a^vec."""
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return Word(m, ())
    signs = tuple(-1 if v < 0 else 1 for v in vec)
    exp = digit_expansion(m, tuple(abs(v) for v in vec))
    return _digits_to_word(m, exp.top, exp.rows, signs)


def word_length(m: int, vec: tuple[int, ...]) -> int:
    """Length of spell(m, vec) without building the word."""
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return 0
    exp = digit_expansion(m, tuple(abs(v) for v in vec))
    return 2 * exp.top + sum(abs(d) for row in exp.rows for d in row)


# ---------------------------------------------------------------------------
# word families

def u_word(m: int, indices: tuple[int, ...] | None = None) -> Word:
    """The word a_1 a_2 .. over the given 1-based indices (all of 1..m)."""
    idx = indices if indices is not None else tuple(range(1, m + 1))
    return Word(m, tuple(f"a{i}" for i in idx))


def suffix_words(m: int, indices: tuple[int, ...] | None = None) -> list[Word]:
    """All 3^k sign words over the index set: one token a_i or A_i per +-1."""
    idx = indices if indices is not None else tuple(range(1, m + 1))
    out = []
    for signs in product((0, 1, -1), repeat=len(idx)):
        tokens = []
        for i, s in zip(idx, signs):
            if s == 1:
                tokens.append(f"a{i}")
            elif s == -1:
                tokens.append(f"A{i}")
        out.append(Word(m, tuple(tokens)))
    return out


def cap_words(m: int, indices: tuple[int, ...] | None = None) -> list[Word]:
    """The 3^k cap words over the index set: U^2 and t U T w, w != U^-1.

    These spell the values whose digit row starts with 2 (the U^2 cap) or
    climbs one level higher (the t-cap with a free sign word below).
    """
    idx = indices if indices is not None else tuple(range(1, m + 1))
    u = [f"a{i}" for i in idx]
    # the squared cap is written level-block style: both copies of each
    # generator together, index ascending
    out = [Word(m, tuple(tok for i in idx for tok in (f"a{i}", f"a{i}")))]
    all_inverse = tuple(f"A{i}" for i in idx)
    for w in suffix_words(m, idx):
        if w.tokens == all_inverse:
            continue
        out.append(Word(m, ("t", *u, "T", *w.tokens)))
    return out


# ---------------------------------------------------------------------------
# level languages

def level_box(n: int) -> tuple[int, int]:
    """Coordinate bounds (lower, upper) of the level-n shell."""
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
    """All canonical level-n words, via the shared digit-matrix emitter."""
    if m < 1:
        raise ValueError("m must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    coords = tuple(range(m))
    out = []
    for blocks in _ordered_partitions(coords):
        q = len(blocks)
        for comp in _compositions(n, q):
            # block k enters at level n - (j_1 + .. + j_(k-1))
            enter = [n]
            for j in comp[:-1]:
                enter.append(enter[-1] - j)
            # one sign slot per descended level, over the coords started so far
            slot_specs = []  # (level, alphabet)
            started: tuple[int, ...] = blocks[0]
            for k in range(q):
                lvl = enter[k]
                for step in range(comp[k]):
                    slot_specs.append((lvl - 1 - step, started))
                if k + 1 < q:
                    started = started + blocks[k + 1]
            slot_choices = [
                list(product((0, 1, -1), repeat=len(alpha))) for _, alpha in slot_specs
            ]
            lead = blocks[0]
            cap_choices = [None]  # None = the U^2 cap
            all_minus = tuple([-1] * len(lead))
            cap_choices += [
                w for w in product((0, 1, -1), repeat=len(lead)) if w != all_minus
            ]
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
                    out.append(_digits_to_word(m, top, rows, (1,) * m))
    return out


def check_level_ranges(m: int, n: int) -> dict:
    """Evaluate every level-n word and verify the box, distinctness, and
    height claims; evaluation goes through the group product, independent
    of the digit construction."""
    words = enumerate_level(m, n)
    lower, upper = level_box(n)
    values = []
    heights_ok = True
    in_box = True
    for w in words:
        g = eval_word(w)
        v = g.nums
        if not is_horocyclic(g):
            in_box = False
        values.append(v)
        if not (all(1 <= c <= upper for c in v) and max(v) >= lower):
            in_box = False
        if max_height(w) not in (n, n + 1):
            heights_ok = False
    return {
        "m": m,
        "n": n,
        "count": len(words),
        "all_distinct": len(set(values)) == len(values),
        "all_in_box": in_box,
        "heights_ok": heights_ok,
        "box": [lower, upper],
    }
