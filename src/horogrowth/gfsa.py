"""Finite-state machines whose edges carry polynomial length-counting labels.

An edge label is an integer polynomial with nonnegative coefficients and
zero constant term: coefficient c_k counts the letter blocks of length k
that traverse the edge.  A machine with every label equal to x is an
ordinary letter-by-letter automaton; labels of higher degree encode
finitely many multi-letter blocks per edge, so an infinite block language
must first be decomposed uniquely into such blocks by the builder.

The growth series of the accepted language solves u = A u + e, where
A[p][q] sums the labels from p to q and e marks accepting states; the
system is solved exactly by Gaussian elimination over the rational
function field.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import (
    IntPolynomial,
    RationalFunction,
    poly,
    rf_div,
    rf_mul,
    rf_normalize,
    rf_sub,
)

_RF_ZERO = rf_normalize(0, 1)
_RF_ONE = rf_normalize(1, 1)


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


def solve_linear_system(
    matrix: list[list[RationalFunction]], rhs: list[RationalFunction]
) -> list[RationalFunction]:
    """Solve matrix * u = rhs exactly over the rational function field.

    Pivots are chosen to keep entries small: lowest denominator degree,
    then lowest numerator degree.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        candidates = [r for r in range(col, n) if aug[r][col].num]
        if not candidates:
            raise ValueError("singular matrix")
        r = min(
            candidates,
            key=lambda i: (aug[i][col].den.degree, aug[i][col].num.degree, i),
        )
        aug[col], aug[r] = aug[r], aug[col]
        piv = aug[col][col]
        for j in range(col, n + 1):
            aug[col][j] = rf_div(aug[col][j], piv)
        for i in range(n):
            if i != col and aug[i][col].num:
                factor = aug[i][col]
                for j in range(col, n + 1):
                    aug[i][j] = rf_sub(aug[i][j], rf_mul(factor, aug[col][j]))
    return [aug[i][n] for i in range(n)]


def automaton_growth(machine: GrowthAutomaton) -> RationalFunction:
    """Exact growth series of the language accepted by the machine."""
    n = machine.n_states
    a = [[_RF_ZERO] * n for _ in range(n)]
    for src, dst, label in machine.edges:
        a[src][dst] = rf_normalize(label, 1)
    matrix = [
        [rf_sub(_RF_ONE if i == j else _RF_ZERO, a[i][j]) for j in range(n)]
        for i in range(n)
    ]
    rhs = [_RF_ONE if p in machine.accepts else _RF_ZERO for p in range(n)]
    u = solve_linear_system(matrix, rhs)
    return u[machine.start]


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
