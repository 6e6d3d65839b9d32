"""
Growth series of the lattice subgroup
=====================================

The group is Z^m extended by a stable letter t that cubes the lattice.
Counting lattice elements by geodesic length in the big group gives a
rational series, read off the balanced-ternary digit rule of geodesics:
one signed coordinate sums to c (1+2x)^N on its band N, and the bands
form a geometric series in x^2 W.  The demo prints the suffix polynomial
W, the cap polynomial V, the prefix/suffix series R, the positive-orthant
series P and the subgroup series.
"""

from horogrowth import (
    cap_poly,
    positive_series,
    prefix_suffix_series,
    rf_str,
    series_prefix,
    subgroup_series,
    suffix_poly,
)

# The suffix polynomial counts sign words a_1^{e_1}..a_m^{e_m} with
# e_i in {-1, 0, 1}: one term per letter kept, doubled for the sign.
for m in (1, 2, 3):
    print(f"W_{m} =", suffix_poly(m))

# The cap polynomial counts the finishing block of a geodesic normal
# form; its coefficients count the top digit patterns 2, 3, 4.
for m in (1, 2, 3):
    print(f"V_{m} =", cap_poly(m))

# R is the generating series of prefix/suffix pairs (t^n, suffix^n):
# a geometric series in x^2 W.
print("R_1 =", rf_str(prefix_suffix_series(1)))
print("R_1 prefix:", series_prefix(prefix_suffix_series(1), 7))

# The positive-orthant series P counts vectors with all coordinates
# at least 1 by word length.  The same digit rule gives it: a coordinate
# at least 1 sums to (c (1+2x)^N - 1)/2 on its band N.
print("P_3 prefix:", series_prefix(positive_series(3), 8))

# The digit rule sums the subgroup series in closed form,
# c^m (1 - x^2)/(1 - x^2 W_m) with c = 1 + 2x + 2x^2.  It also equals the
# sum of P over coordinate subsets (choose which coordinates are nonzero,
# with signs), sum_i C(m,i) 2^i P_i, as the tests check.
for m in (1, 2, 10):
    f = subgroup_series(m)
    print(f"rank {m}: {rf_str(f)}")
    print(f"  sphere sizes 0..8: {series_prefix(f, 8)}")
