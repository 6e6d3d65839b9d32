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

The level language for descent depth n enumerates, through the same
digit-matrix emitter, the canonical words for all vectors in the box
shell [0, (3^(n+2)-1)/2]^m minus [0, (3^(n+1)+1)/2)^m: an ordered set
partition of the coordinates fixes which block leads at which level, a
composition of n places the descents, and each descended level carries a
free sign vector on the coordinates already started.
"""
from __future__ import annotations

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


def _expansion(vec) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Top index N and, per coordinate v, its lead (2 at index N, or 0)
    and the balanced digits of |v| - lead 3^N below the lead."""
    mags = [abs(v) for v in vec]
    top, power, peak = 0, 1, max(mags)
    while 2 * peak > 5 * power - 1:
        top, power = top + 1, 3 * power
    leads = [2 if 2 * e > 3 * power - 1 else 0 for e in mags]
    return top, [(lead, balanced_digits(e - lead * power)) for e, lead in zip(mags, leads)]


def _digits_to_word(m: int, top: int, rows, signs) -> Word:
    # per coordinate, the tokens of a positive and a negative digit
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


def spell(m: int, vec: tuple[int, ...]) -> Word:
    """Geodesic word for the lattice element a^vec."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return Word(m, ())
    signs = tuple(-1 if v < 0 else 1 for v in vec)
    top, coords = _expansion(vec)
    rows = []
    for lead, digits in coords:
        row = list(digits) + [0] * (top + 1 - len(digits))
        row[top] += lead
        rows.append(row)
    return _digits_to_word(m, top, rows, signs)


def word_length(m: int, vec: tuple[int, ...]) -> int:
    """Length of spell(m, vec) without building the word."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if len(vec) != m:
        raise ValueError("vector length does not match m")
    if not any(vec):
        return 0
    top, coords = _expansion(vec)
    return 2 * top + sum(lead + sum(map(abs, digits)) for lead, digits in coords)


# ---------------------------------------------------------------------------
# word families

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
