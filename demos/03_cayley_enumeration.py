"""
Brute-force enumeration of the Cayley graph
===========================================

Breadth-first search over exact group elements is the package's
certificate: every closed form is replayed against sphere counts that
never touch a formula.  One search, which stores each state's distance
from e, runs over two state spaces.  The counts are taken on orbits of
the signed coordinate permutations, automorphisms of the group that fix
e and permute the generators, each orbit weighing its size; the
enumeration of every element gives distances, and certifies the orbit
counts in the tests.
"""

from horogrowth import (
    bfs_spheres,
    element_distance,
    full_series,
    series_prefix,
    subgroup_series,
)

# Count the rank-1 ball of radius 10 and print the sphere sizes.
counts = bfs_spheres(1, 10)
print("rank 1 total spheres:     ", list(counts.total))
print("rank 1 lattice spheres:   ", list(counts.horocyclic))

# The same numbers fall out of the closed forms.
print("full series prefix:       ", list(series_prefix(full_series(1), 10)))
print("subgroup series prefix:   ", list(series_prefix(subgroup_series(1), 10)))

# Spheres split by level, the height clamped to zero from above; the
# columns sum back to the totals.
for level, column in sorted(counts.by_level.items(), reverse=True):
    print(f"  level {level}: {list(column)}")

# Geodesic distance of a single lattice element g, found on the identity's
# enumeration alone: left multiplication by g is a graph automorphism, so
# d(s, g) = d(e, g^-1 s), and for a lattice element g^-1 s is a translate of
# s.  Scanning the sphere at half the spelled length, and looking each
# translate up, finds the least d(e, s) + d(s, g).
print("distance to a^6:", element_distance(1, (6,)))
print("distance to a^10 b^16:", element_distance(2, (10, 16)))
