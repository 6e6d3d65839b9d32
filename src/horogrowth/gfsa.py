"""Finite-state machines whose edges carry polynomial length-counting labels.

An edge label is an integer polynomial with nonnegative coefficients and
zero constant term: coefficient c_k counts the letter blocks of length k
that traverse the edge.  A machine with every label equal to x is an
ordinary letter-by-letter automaton; labels of higher degree encode
finitely many multi-letter blocks per edge, so an infinite block language
must first be decomposed uniquely into such blocks by the builder.

The growth series of the accepted language solves u = A u + e, where
A[p][q] sums the labels from p to q and e marks accepting states; it is
read off exactly by eliminating the states one at a time, which needs no
pivot choice because every label vanishes at x = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import IntPolynomial, RationalFunction, poly, rf_normalize


@dataclass(frozen=True)
class GrowthAutomaton:
    """States 0..n_states-1, one optional labeled edge per state pair."""

    n_states: int
    start: int
    accepts: frozenset[int]
    edges: tuple[tuple[int, int, IntPolynomial], ...]

    def __post_init__(self):
        object.__setattr__(self, "accepts", frozenset(self.accepts))
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=lambda e: (e[0], e[1])))
        )
        if self.n_states < 1:
            raise ValueError("need at least one state")
        if not 0 <= self.start < self.n_states:
            raise ValueError("start state out of range")
        if not all(0 <= p < self.n_states for p in self.accepts):
            raise ValueError("accept state out of range")
        seen = set()
        for src, dst, label in self.edges:
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise ValueError("edge endpoint out of range")
            if (src, dst) in seen:
                raise ValueError(f"duplicate edge {src}->{dst}; sum the labels instead")
            seen.add((src, dst))
            if not label:
                raise ValueError("zero edge label")
            if label.coeffs[0] != 0:
                raise ValueError("edge label must have zero constant term")
            if any(c < 0 for c in label.coeffs):
                raise ValueError("edge label coefficients must be nonnegative")


def _over_one_minus(a: RationalFunction, loop: RationalFunction | None) -> RationalFunction:
    # a/(1 - loop), the paths that go round the loop any number of times first
    if loop is None:
        return a
    return rf_normalize(a.num * loop.den, a.den * (loop.den - loop.num))


def automaton_growth(machine: GrowthAutomaton) -> RationalFunction:
    """Exact growth series of the language accepted by the machine, by
    state elimination (Brzozowski and McCluskey, 1963).

    Each state keeps its row of outgoing labels, plus an entry 1 into a
    fresh accept node on each accepting state.  Every state q but the
    start is eliminated in index order: with l its self-loop, each edge a
    from p into q becomes a/(1 - l), and then a*b is added to the edge
    p -> r for every edge b from q to r.  This is u_q = (sum_r A[q][r] u_r)/(1 - l)
    substituted into the other rows, so the start's row ends as
    u = f + s u, with f its entry into the accept node and s its
    self-loop, and the growth is f/(1 - s).

    No step divides by zero, so there is no pivot to choose.  Every label
    has zero constant term, and an update only multiplies entries, so
    every entry into a state keeps a zero constant term (the entries 1
    lead to the accept node, which is never eliminated).  Each 1 - l is
    therefore 1 at x = 0, and invertible.
    """
    n = machine.n_states
    accept = n
    out = [{} for _ in range(n)]
    for src, dst, label in machine.edges:
        out[src][dst] = rf_normalize(label, 1)
    for p in machine.accepts:
        out[p][accept] = rf_normalize(1, 1)
    for q in range(n):
        if q == machine.start:
            continue
        row, out[q] = out[q], {}
        loop = row.pop(q, None)
        for p_row in out:
            a = p_row.pop(q, None)
            if a is None:
                continue
            a = _over_one_minus(a, loop)
            for r, b in row.items():
                num, den = a.num * b.num, a.den * b.den
                c = p_row.get(r)
                if c is not None:
                    num, den = num * c.den + c.num * den, den * c.den
                p_row[r] = rf_normalize(num, den)
    row = out[machine.start]
    if accept not in row:
        return rf_normalize(0, 1)
    return _over_one_minus(row[accept], row.get(machine.start))


def count_words_by_length(machine: GrowthAutomaton, nmax: int) -> list[int]:
    """Accepted-word counts for lengths 0..nmax by direct dynamic programming.

    Independent of the linear-algebra route: counts label-weighted paths.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    n = machine.n_states
    # h[k][p] = number of accepted words of length k starting from state p
    h = [[0] * n for _ in range(nmax + 1)]
    for p in machine.accepts:
        h[0][p] = 1
    for k in range(1, nmax + 1):
        row = h[k]
        for src, dst, label in machine.edges:
            for j, c in enumerate(label.coeffs):
                if c and j <= k:
                    row[src] += c * h[k - j][dst]
    return [h[k][machine.start] for k in range(nmax + 1)]


# ---------------------------------------------------------------------------
# builders

def quadrant_expected_growth() -> RationalFunction:
    """x^2/(1-x)^2, the growth of the positive quadrant language a^i b^j."""
    return rf_normalize(poly(0, 0, 1), poly(1, -2, 1))


def build_quadrant_fsa() -> GrowthAutomaton:
    """Letter-by-letter machine for a^i b^j (i, j >= 1): 3 states, x labels."""
    x = poly(0, 1)
    return GrowthAutomaton(
        n_states=3,
        start=0,
        accepts=frozenset({2}),
        edges=((0, 1, x), (1, 1, x), (1, 2, x), (2, 2, x)),
    )


def build_quadrant_gfsa() -> GrowthAutomaton:
    """Block machine for the same language with a two-letter 'ab' block.

    Each word a^i b^j factors uniquely as a^(i-1) (ab) b^(j-1), so the
    'ab' block appears as a single edge labeled x^2.
    """
    x = poly(0, 1)
    ab = poly(0, 0, 1)
    return GrowthAutomaton(
        n_states=3,
        start=0,
        accepts=frozenset({2}),
        edges=((0, 1, x), (1, 1, x), (0, 2, ab), (1, 2, ab), (2, 2, x)),
    )


def build_prefix_suffix_machine(m: int) -> GrowthAutomaton:
    """Single-state loop whose label x^2 (1+2x)^m counts one descent-ascent
    block carrying a sign pattern on m generators; its growth is
    1/(1 - x^2 (1+2x)^m)."""
    if m < 1:
        raise ValueError("rank m must be at least 1")
    label = (poly(1, 2) ** m).shift(2)
    return GrowthAutomaton(1, 0, frozenset({0}), ((0, 0, label),))
