"""A plain breadth-first search of the Cayley graph over every element.

The package searches only orbit representatives of the signed coordinate
permutations; this search steps each element by each of the 2m + 2
generators with its own step, shares with the package's search only the
reduction group._canonical, and certifies its spheres, census, relative
growth and distances at ranks 1-3.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice

from horogrowth.group import GroupElement, _canonical, _pack


def step(g: GroupElement, index: int, sign: int) -> GroupElement:
    """g times one generator: a_(index+1)^sign for index >= 0, t^sign for
    index < 0."""
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


def moves(m: int) -> tuple[tuple[int, int], ...]:
    """Right-multiplication moves in order a1, A1, ..., am, Am, t, T, as
    the (index, sign) arguments of step."""
    lattice = tuple((i, s) for i in range(m) for s in (1, -1))
    return lattice + ((-1, 1), (-1, -1))


@lru_cache(maxsize=None)
def flat_ball(m: int, radius: int) -> dict[GroupElement, int]:
    """{element: graph distance from e} for every element within radius,
    in breadth-first order.  Cached: read it, never change it."""
    identity = GroupElement.identity(m)
    dist = {identity: 0}
    sphere = [identity]
    for r in range(1, radius + 1):
        start = len(dist)
        for g in sphere:
            for index, sign in moves(m):
                nb = step(g, index, sign)
                if nb not in dist:
                    dist[nb] = r
        # the new sphere is read off the dict's tail, so no list grows
        # beside it while the sphere is searched
        sphere = list(islice(dist, start, None))
    return dist


def representative(g) -> tuple:
    """The representative (tee, exp, sorted |nums|) of g's orbit under the
    signed permutations of the coordinates."""
    tee, exp, nums = g
    return tee, exp, tuple(sorted(map(abs, nums)))
