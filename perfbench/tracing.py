"""Per-layer tracing of the horogrowth package, installed from outside.

``Tracer.install()`` replaces the public functions of each layer module
with wrappers, in every ``horogrowth`` module that binds them, and
``Tracer.remove()`` puts the originals back.  No file of the package
changes.  A timed wrapper keeps a stack of open spans, so a span's self
time is its duration minus the time its child spans cover.  Spans are
aggregated by name as they close instead of being stored one by one:
the hottest boundaries are called millions of times per episode.
``TriadicRational.make`` and ``multiply`` are only counted, because a
timer around them would cost more than the work it measures.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

import horogrowth as hg
from horogrowth import bfs, cli, geodesic, gfsa, group, growth, series, verify
from metrics import PER_LAYER

# (module, function, span name) for every timed boundary
_TIMED = (
    (series, "rf_normalize", "series.rf_normalize"),
    (series, "poly_gcd", "series.poly_gcd"),
    (series, "series_prefix", "series.series_prefix"),
    (growth, "subgroup_series", "growth.subgroup_series"),
    (growth, "positive_series", "growth.positive_series"),
    (growth, "full_series", "growth.full_series"),
    (growth, "level_series", "growth.level_series"),
    (growth, "coset_census", "growth.coset_census"),
    (growth, "relative_growth_series", "growth.relative_growth_series"),
    (gfsa, "automaton_growth", "gfsa.automaton_growth"),
    (gfsa, "count_words_by_length", "gfsa.count_words_by_length"),
    (group, "coset_key", "group.coset_key"),
    (group, "eval_word", "group.eval_word"),
    (group, "parse_word", "group.parse_word"),
    (group, "format_word", "group.format_word"),
    (geodesic, "spell", "geodesic.spell"),
    (geodesic, "word_length", "geodesic.word_length"),
    (geodesic, "check_level_ranges", "geodesic.check_level_ranges"),
    (bfs, "bfs_spheres", "bfs.spheres"),
    (bfs, "coset_distance_census", "bfs.census"),
    (bfs, "relative_growth", "bfs.relative_growth"),
    (bfs, "element_distance", "bfs.element_distance"),
    (verify, "verify_appendix", "verify.appendix"),
    (verify, "verify_bfs", "verify.bfs"),
    (verify, "verify_language", "verify.language"),
    (verify, "verify_census", "verify.census"),
    (verify, "verify_gfsa", "verify.gfsa"),
    (cli, "main", "cli.main"),
)
_COUNTED = ((group, "multiply", "group.multiply"),)

# subgroup_series ranks whose inclusive time is reported on its own
_SUBGROUP_RANKS = (8, 10, 12)
# bfs_spheres balls whose enumeration rate is reported on its own
_RATE_BALLS = ((2, 8), (3, 6))


def _per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "horogrowth" or name.startswith("horogrowth.")
    ]


class Tracer:
    """Span and count recorder for one traced episode."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self._stack = [[0.0]]
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - children[0]
            if hook is not None:
                hook(args, result, took, took - children[0])
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read arguments and results -----------------------------

    def _on_mul(self, args, result, took, self_took):
        a, b = args
        n = len(b.coeffs) if isinstance(b, series.IntPolynomial) else int(b != 0)
        self.counts["series.mul.coef_ops"] += len(a.coeffs) * n

    def _on_subgroup(self, args, result, took, self_took):
        if args[0] in _SUBGROUP_RANKS:
            self.seconds[f"growth.subgroup_series.m{args[0]}.s"] += took

    def _on_eval(self, args, result, took, self_took):
        self.counts["group.eval_word.tokens"] += args[0].length

    def _on_spheres(self, args, result, took, self_took):
        states = sum(result.total)
        self.counts["bfs.spheres.states"] += states
        if tuple(args[:2]) in _RATE_BALLS:
            m, r = args[:2]
            self.counts[f"bfs.spheres.m{m}r{r}.states"] += states
            self.seconds[f"bfs.spheres.m{m}r{r}.s"] += self_took

    def _on_report(self, args, result, took, self_took):
        self.counts["verify.checks"] += len(result["checks"])
        self.counts["verify.checks_failed"] += sum(not c["pass"] for c in result["checks"])

    # -- install and remove ------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, replacement):
        """Rebind fn in every package module that holds it."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, replacement)

    def install(self) -> "Tracer":
        hooks = {
            "growth.subgroup_series": self._on_subgroup,
            "group.eval_word": self._on_eval,
            "bfs.spheres": self._on_spheres,
        }
        for module, attr, name in _TIMED:
            fn = getattr(module, attr)
            hook = hooks.get(name)
            if name.startswith("verify."):
                hook = self._on_report
            self._patch_function(fn, self._timed(name, fn, hook))
        for module, attr, name in _COUNTED:
            fn = getattr(module, attr)
            self._patch_function(fn, self._counted(name, fn))
        poly = series.IntPolynomial
        mul = self._timed("series.mul", poly.__dict__["__mul__"], self._on_mul)
        self._patch(poly, "__mul__", mul)
        self._patch(poly, "__rmul__", mul)
        tr = group.TriadicRational
        make = self._counted("group.triadic_make", tr.__dict__["make"].__func__)
        self._patch(tr, "make", classmethod(make))
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics measured by this tracer: every PER_LAYER name
        but those in metrics.MEMORY and metrics.RUN_LEVEL."""
        out = {
            "series.mul.calls": self.calls["series.mul"],
            "series.mul.coef_ops": self.counts["series.mul.coef_ops"],
            "series.rf_normalize.calls": self.calls["series.rf_normalize"],
            "group.coset_key.calls": self.calls["group.coset_key"],
            "group.triadic_make.calls": self.counts["group.triadic_make"],
            "group.eval_word.calls": self.calls["group.eval_word"],
            "group.eval_word.tokens_per_s": _per_second(
                self.counts["group.eval_word.tokens"], self.total["group.eval_word"]
            ),
            "group.multiply.calls": self.counts["group.multiply"],
            "geodesic.spell.per_s": _per_second(
                self.calls["geodesic.spell"], self.total["geodesic.spell"]
            ),
            "geodesic.word_length.per_s": _per_second(
                self.calls["geodesic.word_length"], self.total["geodesic.word_length"]
            ),
            "bfs.spheres.states": self.counts["bfs.spheres.states"],
            "verify.appendix.s": self.total["verify.appendix"],
            "verify.gfsa.s": self.total["verify.gfsa"],
            "verify.checks": self.counts["verify.checks"],
            "verify.checks_failed": self.counts["verify.checks_failed"],
            "cli.main.s": self.total["cli.main"],
        }
        for m in _SUBGROUP_RANKS:
            key = f"growth.subgroup_series.m{m}.s"
            out[key] = self.seconds[key]
        for m, r in _RATE_BALLS:
            ball = f"bfs.spheres.m{m}r{r}"
            out[f"{ball}.states_per_s"] = _per_second(
                self.counts[f"{ball}.states"], self.seconds[f"{ball}.s"]
            )
        for metric, unit in PER_LAYER:
            if metric.endswith(".self_s"):
                out[metric] = self.self_time[metric[: -len(".self_s")]]
        return out


def measure_ball_memory(balls) -> dict[str, float]:
    """tracemalloc peak bytes per enumerated state, and its ratio to the
    budget model in ``bfs``, for the worst of the given balls.

    Run in a fresh interpreter: the balls must not be cached yet.  The
    closed forms the budget check needs are computed before tracing."""
    worst = (0.0, 0.0)
    for m, r in balls:
        hg.full_series(m)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        states = sum(hg.bfs_spheres(m, r).total)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        per_state = peak / states
        model = bfs._STATE_BYTES + bfs._STATE_BYTES_PER_COORD * m
        worst = max(worst, (per_state / model, per_state))
    return {"bfs.peak_bytes_per_state": worst[1], "bfs.budget_model_ratio": worst[0]}
