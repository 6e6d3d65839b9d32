"""
Counting with label-weighted automata
=====================================

A small finite-state machine whose edges carry polynomial labels has a
rational growth series, read off exactly by eliminating its states one
at a time.  Two machines with different shapes can certify
the same series.
"""

from horogrowth import (
    automaton_growth,
    build_prefix_suffix_machine,
    build_quadrant_fsa,
    build_quadrant_gfsa,
    count_words_by_length,
    prefix_suffix_series,
    quadrant_expected_growth,
    rf_str,
    series_prefix,
)

# Walks that climb then descend: a letter-per-edge machine and a
# block-labeled machine both give x^2/(1-x)^2.
expected = quadrant_expected_growth()
print("target:", rf_str(expected))
for name, machine in [
    ("letter machine", build_quadrant_fsa()),
    ("block machine ", build_quadrant_gfsa()),
]:
    growth = automaton_growth(machine)
    print(f"{name}: {rf_str(growth)}  equal: {growth == expected}")

# Direct enumeration of accepted words agrees coefficient by
# coefficient.
machine = build_quadrant_fsa()
print("counted:", count_words_by_length(machine, 10))
print("series: ", list(series_prefix(expected, 10)))

# A one-state loop labeled x^2 W_m regenerates the prefix/suffix
# series R_m.
for m in (1, 2, 3):
    growth = automaton_growth(build_prefix_suffix_machine(m))
    assert growth == prefix_suffix_series(m)
    print(f"rank {m} loop machine:", rf_str(growth))
