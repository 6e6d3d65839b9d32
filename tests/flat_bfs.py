"""A plain breadth-first search of the Cayley graph over every element.

The package searches only orbit representatives of the signed coordinate
permutations; this search steps each element by each of the 2m + 2
generators, shares no code with the package's search but group.step, and
certifies its spheres, census, relative growth and distances at ranks 1-3.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice

from horogrowth.group import GroupElement, step


def moves(m: int) -> tuple[tuple[int, int], ...]:
    """Right-multiplication moves in order a1, A1, ..., am, Am, t, T, as
    the (index, sign) arguments of group.step."""
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
