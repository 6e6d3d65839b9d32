"""Names of the workloads, and the name and unit of every metric the
benchmark reports, in report order.

Kept free of package imports, so run.py can use it without the package
on its path.  README.md defines each metric; BENCHMARK.json lists the
same names.
"""

WORKLOADS = ("closed_forms", "oracle")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)

PER_LAYER = (
    ("series.mul.calls", "count"),
    ("series.mul.coef_ops", "count"),
    ("series.mul.self_s", "s"),
    ("series.rf_normalize.calls", "count"),
    ("series.rf_normalize.self_s", "s"),
    ("series.poly_gcd.self_s", "s"),
    ("series.series_prefix.self_s", "s"),
    ("growth.subgroup_series.m8.s", "s"),
    ("growth.subgroup_series.m10.s", "s"),
    ("growth.subgroup_series.m12.s", "s"),
    ("growth.subgroup_series.self_s", "s"),
    ("growth.full_series.self_s", "s"),
    ("growth.level_series.self_s", "s"),
    ("growth.coset_census.self_s", "s"),
    ("gfsa.automaton_growth.self_s", "s"),
    ("gfsa.count_words_by_length.self_s", "s"),
    ("group.coset_key.calls", "count"),
    ("group.coset_key.self_s", "s"),
    ("group.triadic_make.calls", "count"),
    ("group.eval_word.calls", "count"),
    ("group.eval_word.tokens_per_s", "1/s"),
    ("group.multiply.calls", "count"),
    ("group.parse_word.self_s", "s"),
    ("geodesic.spell.per_s", "1/s"),
    ("geodesic.word_length.per_s", "1/s"),
    ("geodesic.check_level_ranges.self_s", "s"),
    ("bfs.spheres.states", "count"),
    ("bfs.spheres.m2r8.states_per_s", "1/s"),
    ("bfs.spheres.m3r6.states_per_s", "1/s"),
    ("bfs.census.self_s", "s"),
    ("bfs.relative_growth.self_s", "s"),
    ("bfs.element_distance.self_s", "s"),
    ("bfs.peak_bytes_per_state", "B"),
    ("bfs.budget_model_ratio", "ratio"),
    ("verify.appendix.s", "s"),
    ("verify.gfsa.s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "ratio"),
)

# measured outside the traced child: by tracemalloc, and by run.py
MEMORY = ("bfs.peak_bytes_per_state", "bfs.budget_model_ratio")
RUN_LEVEL = ("trace.overhead_s", "fail_ratio")
