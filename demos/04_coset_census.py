"""
Coset census and the full group series
======================================

Cosets of the lattice sit on the vertices of a regular tree.  Counting
them by level and distance (the census), summing the two level series
in closed form, and weighting by the subgroup series assembles the
growth series of the whole group.
"""

from horogrowth import (
    coset_census,
    full_series,
    level_series,
    poly_str,
    published_full_form,
    relative_growth_series,
    rf_str,
    series_prefix,
    subgroup_series,
)

# chi(level, r) counts cosets of a given level at distance r.
census = coset_census(1, 8)
for level in sorted(census.columns, reverse=True):
    print(f"chi({level}, 0..8) = {list(census.columns[level])}")

# Two rational series give the level columns.  They are summed in closed
# form from the stem normal form T^n (w_1 t)...(w_j t), so their
# numerators x - x^3 and 1 - x^2 are the same at every rank; the census
# is read from their prefixes, and the census suite certifies both
# against a dynamic-programming count of the stems through the horizon.
fit = level_series(1)
print("p_hat =", poly_str(fit.p_hat))
print("q_hat =", poly_str(fit.q_hat))
print("certified through x^", fit.certified_to, sep="")
print("X_0  =", rf_str(fit.X_0))
print("X_-1 =", rf_str(fit.X_minus1))

# Relative growth below the stem T^n is the subgroup series times W^n.
for n in (0, 1, 2):
    print(f"B_-{n} prefix:", series_prefix(relative_growth_series(1, n), 6))

# The full series weights every coset by the subgroup series.
full = full_series(1)
print("full group series:", rf_str(full))
print("sphere sizes:", series_prefix(full, 10))

# A previously published closed form for the same series disagrees
# with enumeration already at x^1 (2 where the sphere has 4 elements);
# it is kept only for diagnostic comparison.
published = published_full_form(1)
print("published form gives:", series_prefix(published, 5))
print("subgroup series for scale:", series_prefix(subgroup_series(1), 5))
