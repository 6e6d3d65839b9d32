"""The suffix and cap word families, built token by token.

The package counts these families in closed form (growth.suffix_poly and
growth.cap_poly); the tests count them here by enumeration.  Every word
goes through the checked constructor Word(m, tokens).
"""
from __future__ import annotations

from itertools import product

from horogrowth.group import Word


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
