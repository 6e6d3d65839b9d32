"""Breadth-first enumeration of the Cayley graph.

This is the brute-force certificate for the closed-form series: sphere
sizes, geodesic distances, coset distances, and relative coset growth
are measured directly on group elements, never through a formula.

Signed permutations of the coordinates (the hyperoctahedral group B_m, of
order m! 2^m) are automorphisms of G_m that fix e and permute the
generators, so they preserve graph distance.  One breadth-first search
per rank, grown a sphere at a time on demand, therefore runs on orbit
representatives (tee, exp, sorted |nums|), stores the graph distance from
e of each, and serves every question: a sphere, coset census or coset's
growth is a sum of orbit sizes m! 2^(nonzeros) / prod mult!, and the
distance of an element is that of its representative.  Sphere counts are
summed once per search: each sphere's elements, lattice elements and
elements by height bucket are kept beside the search the first time
bfs_spheres reads that sphere, never while it grows.  Radii are capped
per rank, and stored orbits are counted against a memory budget
(HOROGROWTH_BUDGET_MB, default 512): a sphere that would overrun it is
discarded and BudgetError raised, keeping the whole spheres.

The search steps from a representative to the next orbits directly.  A
t-move keeps the sorted |nums|.  A lattice move adds +-3^k, k = exp + tee,
to one entry per run of equal |nums| and re-sorts, after rescaling nums to
the denominator 3^-tee when k < 0; only when k = 0 < exp, where the move
may make every entry divisible by 3, is the neighbour reduced.  A coset
key with k = 0 has no residues to reduce, so it is already the key of its
coset orbit.

The distance to a lattice element g = a^vec is a bidirectional search on
the same quotient: it scans one sphere, two short of halfway along the
spelled geodesic, and looks up the representative of each state's
translate by every signed image of g^-1 (a shift of its packed
coordinates, with no group product).  The split lies past halfway because
each scanned representative costs one lookup per signed image, so a
nearer, smaller sphere is cheaper, while the far side is grown once per
rank and kept.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, permutations, product
from math import factorial
from operator import mul, sub
from typing import Iterator, Sequence

from .errors import BudgetError
from .geodesic import word_length
from .group import GroupElement, Word, _canonical, _pack, coset_key, eval_word, is_horocyclic
from .growth import CosetCensus

RADIUS_CAP = {1: 12, 2: 9, 3: 7}

_DEFAULT_BUDGET_MB = 512
# bytes per flat state (one element and its distance): nothing in the package
# stores flat states, and the one reader of this model is
# perfbench/tracing.measure_ball_memory; the tests check it against the flat
# search they keep
_STATE_BYTES = 180
_STATE_BYTES_PER_COORD = 20
# bytes per stored orbit: at least 1.1 times the tracemalloc peak per orbit
# of fresh quotients at ranks 1 to 3 (the worst, 190 B, at rank 1, radius 12)
_ORBIT_BYTES = 200
_ORBIT_BYTES_PER_COORD = 10


def _budget_bytes() -> int:
    raw = os.environ.get("HOROGROWTH_BUDGET_MB", str(_DEFAULT_BUDGET_MB))
    try:
        mb = int(raw)
    except ValueError:
        raise BudgetError(f"HOROGROWTH_BUDGET_MB is not an integer: {raw!r}")
    if mb <= 0:
        raise BudgetError(f"HOROGROWTH_BUDGET_MB must be positive: {mb}")
    return mb * 1024 * 1024


def _check_radius(m: int, radius: int) -> None:
    if m < 1:
        raise ValueError("rank m must be at least 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > RADIUS_CAP.get(m, -1):
        raise BudgetError(
            f"no rank-{m} ball of radius {radius} within the radius caps {RADIUS_CAP}"
        )


def _orbit_neighbours(g: GroupElement) -> list[GroupElement]:
    """The representatives (tee, exp, sorted |nums|) of the B_m-orbits
    next to the representative g.  Moves that a signed permutation fixing g
    maps to each other reach one orbit: one move per run of equal
    |coordinates|, and a single sign on a zero coordinate.

    A t-move keeps nums, already sorted and nonnegative.  A lattice move
    adds +-3^k to one entry, k = exp + tee.  When k < 0 the sum needs the
    finer denominator 3^-tee: over it every entry is divisible by 3 and the
    moved one is +-1 mod 3, so the neighbour is canonical.  When
    k = 0 < exp, adding +-1 can make every entry divisible by 3, so the
    neighbour is reduced."""
    tee, exp, nums = g
    nbs = [_pack(GroupElement, (tee + 1, exp, nums)), _pack(GroupElement, (tee - 1, exp, nums))]
    k = exp + tee
    reduce = k == 0 and exp > 0
    if k < 0:
        scale = 3**-k
        nums = [x * scale for x in nums]
        exp, k = -tee, 0
    unit = 3**k
    for i, x in enumerate(nums):
        if i and x == nums[i - 1]:
            continue
        vec = list(nums)
        vec[i] = x + unit
        nbs.append(_pack(GroupElement, (tee, exp, tuple(sorted(vec)))))
        if x:
            vec[i] = abs(x - unit)
            nbs.append(_pack(GroupElement, (tee, exp, tuple(sorted(vec)))))
    if reduce:
        nbs[2:] = [_canonical(*nb) for nb in nbs[2:]]
    return nbs


class _Search:
    """Graph distances from the identity of the B_m-orbit representatives,
    in breadth-first order: the first ends[r] lie within radius r, and
    frontier is the last sphere.  spheres[r], once bfs_spheres has read
    sphere r, is its (elements, lattice elements, {height bucket:
    elements})."""

    def __init__(self, m: int):
        self.frontier = [GroupElement.identity(m)]
        self.dist = {self.frontier[0]: 0}
        self.ends = [1]
        self.spheres: list[tuple[int, int, dict[int, int]]] = []

    def grow(self, radius: int, limit: int) -> bool:
        """Whether the ball fits in limit states, searching out to radius
        if so; a sphere that overruns the limit is discarded."""
        dist = self.dist
        while len(self.ends) <= radius:
            r = len(self.ends)
            for nb in chain.from_iterable(map(_orbit_neighbours, self.frontier)):
                if nb not in dist:
                    dist[nb] = r
                    if len(dist) > limit:
                        while len(dist) > self.ends[-1]:
                            dist.popitem()
                        return False
            self.frontier = list(islice(dist, self.ends[-1], None))
            self.ends.append(len(dist))
        return self.ends[radius] <= limit


@lru_cache(maxsize=None)
def _quotient(m: int) -> _Search:
    """The one search of rank m."""
    return _Search(m)


def _orbit_size(m: int, values: Sequence[int]) -> int:
    """How many vectors the signed permutations make of m sorted
    nonnegative values: m! 2^(nonzeros) / prod mult!."""
    size = factorial(m) << (m - values.count(0))
    run = 1
    for a, b in zip(values, values[1:]):
        # the j-th equal value in a run divides by j, so a run of mult by mult!
        run = run + 1 if a == b else 1
        size //= run
    return size


def _orbits(m: int, radius: int) -> Iterator[tuple[GroupElement, int]]:
    """(representative, graph distance) for every B_m-orbit within radius,
    in breadth-first order (so distances never decrease), grown within the
    radius caps and the memory budget, which is checked on every call
    against the orbits the search holds.  Like any dict iterator, it fails
    if the search grows before it is read."""
    _check_radius(m, radius)
    search = _quotient(m)
    limit = _budget_bytes() // (_ORBIT_BYTES + _ORBIT_BYTES_PER_COORD * m)
    if not search.grow(radius, limit):
        raise BudgetError(
            f"the rank-{m} ball of radius {radius} holds more than the {limit} "
            "orbit states the memory budget allows (set HOROGROWTH_BUDGET_MB to raise it)"
        )
    return islice(search.dist.items(), search.ends[radius])


@dataclass(frozen=True)
class SphereCounts:
    """Sphere sizes out to the given radius, total and split by the
    height bucket min(tau, 0)."""

    m: int
    radius: int
    total: tuple[int, ...]
    horocyclic: tuple[int, ...]
    by_level: dict[int, tuple[int, ...]]


def bfs_spheres(m: int, radius: int) -> SphereCounts:
    """Count elements at each graph distance 0..radius: the orbit sizes
    summed by distance.  Each sphere of the rank's search is summed once,
    the first time it is asked for, and kept beside the search."""
    _orbits(m, radius)  # grown within the caps and the budget
    search = _quotient(m)
    spheres = search.spheres
    for r in range(len(spheres), radius + 1):
        total = horo = 0
        levels: dict[int, int] = {}
        for g in islice(search.dist, search.ends[r - 1] if r else 0, search.ends[r]):
            size = _orbit_size(m, g.nums)
            total += size
            if is_horocyclic(g):
                horo += size
            level = min(g.tee, 0)
            levels[level] = levels.get(level, 0) + size
        spheres.append((total, horo, levels))
    read = spheres[: radius + 1]
    by_level: dict[int, list[int]] = {}
    for r, (_, _, levels) in enumerate(read):
        for level, size in levels.items():
            by_level.setdefault(level, [0] * (radius + 1))[r] = size
    return SphereCounts(
        m,
        radius,
        tuple(total for total, _, _ in read),
        tuple(horo for _, horo, _ in read),
        {level: tuple(col) for level, col in by_level.items()},
    )


# ---------------------------------------------------------------------------
# distances


def element_distance(m: int, vec: Sequence[int]) -> int:
    """Graph distance from the identity to g = a^vec, for word_length(m, vec)
    <= 2 * RADIUS_CAP[m], by a bidirectional search on the orbit quotient.

    With upper = word_length(m, vec), the search is grown to the far radius
    R = min(upper - upper // 2 + 2, RADIUS_CAP[m], upper), and a geodesic of
    length at most upper crosses the sphere of radius near = upper - R at
    some x with d(x, g) <= R.  Left multiplication is a graph automorphism,
    so d(x, g) = d(e, g^-1 x).  Write x = sigma(s) for a representative s
    on that sphere and a signed permutation sigma; then g^-1 x is the image
    under sigma of a^-u s, with u = sigma^-1(vec), and a^-u s is a
    translation of s: (tee, exp, nums - u 3^exp), already in canonical form.
    The distance is the least near + d(e, a^-u s) over the sphere and the
    distinct signed images u of vec, each read off the representative of
    a^-u s, unless the search already holds g's own representative, whose
    stored distance is exact.  A distance above upper means word_length is
    no upper bound, and raises ValueError.

    R lies two spheres past halfway: each representative on the scanned
    sphere costs one lookup per signed image of vec, and a sphere nearer e
    holds far fewer representatives, while the far side is grown once per
    rank and kept.  Split at halfway, the scan costs several times more."""
    if len(vec) != m:
        raise ValueError("vector length does not match the rank")
    upper = word_length(m, vec)
    _check_radius(m, upper - upper // 2)  # the far half of a geodesic of length upper
    far = min(upper - upper // 2 + 2, RADIUS_CAP[m], upper)
    near = upper - far
    _orbits(m, far)  # grown within the budget
    search = _quotient(m)
    dist = search.dist
    best = dist.get((0, 0, tuple(sorted(map(abs, vec)))))
    if best is None:
        images = {
            tuple(map(mul, signs, p))
            for p in permutations(vec)
            for signs in product((1, -1), repeat=m)
        }
        shifts: dict[int, list[tuple[int, ...]]] = {}
        best = upper + 1
        sphere = islice(dist, search.ends[near - 1] if near else 0, search.ends[near])
        for tee, exp, nums in sphere:
            shifted = shifts.get(exp)
            if shifted is None:
                scale = 3**exp
                shifted = shifts[exp] = [tuple(x * scale for x in u) for u in images]
            for shift in shifted:
                back = dist.get((tee, exp, tuple(sorted(map(abs, map(sub, nums, shift))))))
                if back is not None and near + back < best:
                    best = near + back
    if best > upper:
        raise ValueError(
            f"word_length gives {upper} for {tuple(vec)}, below its graph distance"
        )
    return best


# ---------------------------------------------------------------------------
# coset census and relative growth


def _coset_orbit(key):
    """A coset_key made invariant under signed permutations: each residue
    rho mod 3^k becomes min(rho, 3^k - rho), and they are sorted."""
    tee, k, residues = key
    if not k:  # every residue is 0
        return key
    q = 3**k
    return tee, k, tuple(sorted(min(x, q - x) for x in residues))


def coset_distance_census(m: int, radius: int) -> CosetCensus:
    """chi(level, r) measured on the graph: each coset is charged to the
    distance of its closest element, so each coset orbit is charged its
    size at the first element orbit that reaches it."""
    orbits = _orbits(m, radius)
    columns = {level: [0] * (radius + 1) for level in range(0, -(radius + 1), -1)}
    seen = set()
    for g, r in orbits:
        key = _coset_orbit(coset_key(g))
        if key not in seen:
            seen.add(key)
            columns[min(g.tee, 0)][r] += _orbit_size(m, key[2])
    return CosetCensus(m, radius, {lv: tuple(col) for lv, col in columns.items()})


def relative_growth(m: int, stem: Word, radius: int) -> list[int]:
    """Count elements of the coset (stem) Z^m at distance L + r for
    r = 0..radius, where L is the stem's token count.

    The cosets of one coset orbit grow alike, so the count is the summed
    size of the element orbits in the stem's coset orbit, divided by the
    number of its cosets.  The stem must be geodesic to its coset: its
    token count must equal the coset's graph distance, otherwise
    ValueError."""
    if stem.m != m:
        raise ValueError("stem rank does not match m")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    span = stem.length + radius
    orbits = _orbits(m, span)
    key = _coset_orbit(coset_key(eval_word(stem)))
    per_radius = [0] * (span + 1)
    for g, r in orbits:
        if g.tee == key[0] and _coset_orbit(coset_key(g)) == key:
            per_radius[r] += _orbit_size(m, g.nums)
    first = next(r for r, count in enumerate(per_radius) if count)
    if first != stem.length:
        raise ValueError(
            f"stem of length {stem.length} reaches a coset at distance {first}"
        )
    cosets = _orbit_size(m, key[2])
    return [count // cosets for count in per_radius[stem.length :]]
