"""Exact growth-series calculator and verifier for the groups
Z^m extended by a stable letter that cubes the lattice.

Layers, bottom up:

  series    exact integer polynomials, canonical rational functions,
            and series prefixes
  group     elements a^v t^s in packed triadic form, words, evaluation
  geodesic  balanced-ternary spelling of lattice vectors and the level
            languages
  growth    closed-form growth series: subgroup, cosets, full group,
            and the coset census
  bfs       brute-force Cayley-graph enumeration certifying the forms
  gfsa      label-weighted automata with rational growth
  verify    named verification suites with pass/fail witnesses
  cli       the `horogrowth` command
"""
from .bfs import (
    SphereCounts,
    bfs_spheres,
    coset_distance_census,
    element_distance,
    relative_growth,
)
from .errors import BudgetError
from .geodesic import (
    balanced_digits,
    check_level_ranges,
    enumerate_level,
    level_box,
    spell,
    word_length,
)
from .gfsa import (
    GrowthAutomaton,
    automaton_growth,
    build_prefix_suffix_machine,
    build_quadrant_fsa,
    build_quadrant_gfsa,
    count_words_by_length,
    quadrant_expected_growth,
)
from .group import (
    GroupElement,
    TriadicRational,
    Word,
    coset_key,
    element_str,
    element_to_json,
    eval_word,
    format_word,
    is_horocyclic,
    max_height,
    multiply,
    parse_word,
)
from .growth import (
    CENSUS_RMAX,
    CosetCensus,
    LevelSeries,
    cap_poly,
    coset_census,
    full_series,
    level_series,
    positive_series,
    prefix_suffix_series,
    published_full_form,
    relative_growth_series,
    subgroup_series,
    suffix_poly,
)
from .series import (
    ONE,
    X,
    ZERO,
    IntPolynomial,
    RationalFunction,
    SeriesPrefix,
    exact_div,
    poly,
    poly_gcd,
    poly_latex,
    poly_str,
    rf_latex,
    rf_mul,
    rf_normalize,
    rf_str,
    rf_to_json,
    series_prefix,
)
from .verify import (
    SUITES,
    run_suite,
    verify_appendix,
    verify_bfs,
    verify_census,
    verify_gfsa,
    verify_language,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CENSUS_RMAX",
    "CosetCensus",
    "GroupElement",
    "GrowthAutomaton",
    "IntPolynomial",
    "LevelSeries",
    "ONE",
    "RationalFunction",
    "SUITES",
    "SeriesPrefix",
    "SphereCounts",
    "TriadicRational",
    "Word",
    "X",
    "ZERO",
    "automaton_growth",
    "balanced_digits",
    "bfs_spheres",
    "build_prefix_suffix_machine",
    "build_quadrant_fsa",
    "build_quadrant_gfsa",
    "cap_poly",
    "check_level_ranges",
    "coset_census",
    "coset_distance_census",
    "coset_key",
    "count_words_by_length",
    "element_distance",
    "element_str",
    "element_to_json",
    "enumerate_level",
    "eval_word",
    "exact_div",
    "format_word",
    "full_series",
    "is_horocyclic",
    "level_box",
    "level_series",
    "max_height",
    "multiply",
    "parse_word",
    "poly",
    "poly_gcd",
    "poly_latex",
    "poly_str",
    "positive_series",
    "prefix_suffix_series",
    "published_full_form",
    "quadrant_expected_growth",
    "relative_growth",
    "relative_growth_series",
    "rf_latex",
    "rf_mul",
    "rf_normalize",
    "rf_str",
    "rf_to_json",
    "run_suite",
    "series_prefix",
    "spell",
    "subgroup_series",
    "suffix_poly",
    "verify_appendix",
    "verify_bfs",
    "verify_census",
    "verify_gfsa",
    "verify_language",
    "word_length",
]
