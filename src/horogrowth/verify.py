"""Verification suites.

Each suite rechecks one layer of the package against independent data or
an independent computation and returns a JSON-ready report: a suite
name, an overall pass flag, and a list of named checks.  A failed check
carries a minimal witness (a vector, a word, or a coefficient index).

Suites:
  appendix  closed forms and series rows against the published tables
  bfs       closed forms against brute-force Cayley-graph enumeration
  language  geodesic spelling: round trip, minimality, level tiling
  census    coset census: stem DP vs enumeration, certified level series, the
            full series against its product form
  gfsa      automaton growth against closed forms and word enumeration
"""
from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .bfs import _orbits, bfs_spheres, coset_distance_census, relative_growth
from .errors import FitError
from .geodesic import (
    check_level_ranges,
    enumerate_level,
    level_box,
    spell,
    word_length,
)
from .gfsa import (
    automaton_growth,
    build_prefix_suffix_machine,
    build_quadrant_fsa,
    build_quadrant_gfsa,
    count_words_by_length,
    quadrant_expected_growth,
)
from .group import eval_word, format_word, is_horocyclic, parse_word
from .growth import (
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
    IntPolynomial,
    RationalFunction,
    poly,
    poly_str,
    rf_mul,
    rf_normalize,
    rf_str,
    series_prefix,
)

SUITES = ("appendix", "bfs", "language", "census", "gfsa")


# ---------------------------------------------------------------------------
# report plumbing


def _check(name: str, ok: bool, witness=None, data=None) -> dict:
    entry = {"name": name, "pass": bool(ok)}
    if not ok and witness is not None:
        entry["witness"] = witness
    if data is not None:
        entry["data"] = data
    return entry


def _prefix_check(name: str, got, want, data=None) -> dict:
    got = list(got)
    want = list(want)
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    ok = first is None and len(got) == len(want)
    witness = None
    if not ok:
        if first is None:
            witness = {"computed_length": len(got), "expected_length": len(want)}
        else:
            witness = {"index": first, "computed": got[first], "expected": want[first]}
    return _check(name, ok, witness, data)


def _report(suite: str, checks: list[dict], **extra) -> dict:
    report = {"suite": suite, "pass": all(c["pass"] for c in checks), "checks": checks}
    report.update(extra)
    return report


# ---------------------------------------------------------------------------
# golden data


@lru_cache(maxsize=None)
def _golden() -> dict:
    path = resources.files("horogrowth.data").joinpath("appendix_golden.json")
    return json.loads(path.read_text())


def _poly_of(strings) -> IntPolynomial:
    return poly(*(int(v) for v in strings))


def _factored(factors) -> IntPolynomial:
    out = ONE
    for coeffs, power in factors:
        out = out * _poly_of(coeffs) ** power
    return out


def _rational_of(entry) -> RationalFunction:
    return rf_normalize(_factored(entry["num_factors"]), _factored(entry["den_factors"]))


# ---------------------------------------------------------------------------
# suite: appendix


def verify_appendix(m: int | None = None) -> dict:
    """Compare computed series against the published reference tables."""
    data = _golden()
    ranks = sorted(row["m"] for row in data["subgroup"])
    if m is not None and m not in ranks:
        raise ValueError(f"the appendix tables cover ranks {ranks[0]} to {ranks[-1]}")
    comps = data["components"]
    tables = (
        (data["subgroup"], "series", subgroup_series, "subgroup series"),
        (comps["V"], "coeffs", cap_poly, "cap polynomial"),
        (comps["R"], "prefix", prefix_suffix_series, "prefix/suffix series"),
        (comps["P"], "prefix", positive_series, "positive-orthant series"),
        (comps["S"], "prefix", subgroup_series, "subgroup series (three-rank table)"),
    )
    checks = []
    for rows, key, series_fn, label in tables:
        for row in rows:
            mm = row["m"]
            if m is not None and mm != m:
                continue
            computed = series_fn(mm)
            if "num_factors" in row:
                target = _rational_of(row)
                checks.append(
                    _check(
                        f"rank {mm}: {label} rational form",
                        computed == target,
                        {"computed": rf_str(computed), "expected": rf_str(target)},
                    )
                )
            want = [int(v) for v in row[key]]
            # a "coeffs" row is a whole polynomial, so its degree is checked
            # too; any other row is a prefix of a series
            if key == "coeffs":
                got = computed.coeffs
            else:
                got = series_prefix(computed, len(want) - 1)
            checks.append(_prefix_check(f"rank {mm}: {label} row", got, want))
    return _report("appendix", checks)


# ---------------------------------------------------------------------------
# suite: bfs


_BFS_RADIUS = {1: 10, 2: 8, 3: 6}


def verify_bfs(m: int | None = None, radius: int | None = None) -> dict:
    """Compare closed-form sphere counts against graph enumeration."""
    ms = [m] if m is not None else [1, 2, 3]
    checks = []
    erratum = []
    for mm in ms:
        r = radius if radius is not None else _BFS_RADIUS.get(mm, 6)
        counts = bfs_spheres(mm, r)
        total = list(counts.total)
        checks.append(
            _prefix_check(
                f"rank {mm}: lattice spheres match the closed form to radius {r}",
                counts.horocyclic,
                series_prefix(subgroup_series(mm), r),
            )
        )
        checks.append(
            _prefix_check(
                f"rank {mm}: full spheres match the assembled series to radius {r}",
                total,
                series_prefix(full_series(mm), r),
            )
        )
        sums = [
            sum(col[n] for col in counts.by_level.values()) for n in range(r + 1)
        ]
        checks.append(
            _prefix_check(f"rank {mm}: level columns sum to the totals", sums, total)
        )
        if mm in (1, 2):
            pub = list(series_prefix(published_full_form(mm), r))
            first = next(
                (i for i, (a, b) in enumerate(zip(pub, total)) if a != b), None
            )
            erratum.append(
                {
                    "m": mm,
                    "erratum": True,
                    "published_prefix": pub,
                    "enumerated_prefix": total,
                    "first_mismatch": first,
                    "note": (
                        "the published closed form for the full-group series "
                        "contradicts the enumerated sphere counts and is not a "
                        "verification target"
                    ),
                }
            )
    return _report("bfs", checks, erratum=erratum)


# ---------------------------------------------------------------------------
# suite: language


_LANG_BALL = {1: 10, 2: 8}
_LANG_LEVELS = 3


def verify_language(m: int | None = None) -> dict:
    """Check geodesic spelling: evaluation round trip over a coordinate
    box, length minimality inside a ball, and the level tiling of the
    box by the level languages plus the corner word."""
    ms = [m] if m is not None else [1, 2]
    checks = []
    for mm in ms:
        if mm not in (1, 2):
            raise ValueError("language checks cover ranks 1 and 2")
        # fetched first, so a budget that refuses the ball refuses at once
        r = _LANG_BALL[mm]
        orbits = _orbits(mm, r)
        upper = level_box(_LANG_LEVELS)[1]
        if mm == 1:
            vectors = [(v,) for v in range(1, upper + 1)]
        else:
            vectors = [
                (x, y)
                for x in range(1, upper + 1)
                for y in range(1, upper + 1)
            ]
        bad = None
        for v in vectors:
            w = spell(mm, v)
            g = eval_word(w)
            if (
                not is_horocyclic(g)
                or g.nums != v
                or w.length != word_length(mm, v)
            ):
                bad = {"vector": list(v), "word": format_word(w)}
                break
        checks.append(
            _check(
                f"rank {mm}: spell round-trips with the stated length on "
                f"[1, {upper}]^{mm}",
                bad is None,
                bad,
            )
        )
        bad = None
        # on orbit representatives: both sides are B_m-invariant
        for g, dist in orbits:
            if is_horocyclic(g) and word_length(mm, g.nums) != dist:
                bad = {
                    "vector": list(g.nums),
                    "distance": dist,
                    "word_length": word_length(mm, g.nums),
                }
                break
        checks.append(
            _check(
                f"rank {mm}: word_length equals graph distance for every "
                f"lattice point in the radius-{r} ball",
                bad is None,
                bad,
            )
        )
        values = {(1,) * mm}
        count = 1
        for k in range(_LANG_LEVELS + 1):
            info = check_level_ranges(mm, k)
            checks.append(
                _check(
                    f"rank {mm}: level-{k} words are distinct, in the level "
                    "shell, with the stated peak heights",
                    info["all_distinct"] and info["all_in_box"] and info["heights_ok"],
                    info,
                )
            )
            for w in enumerate_level(mm, k):
                values.add(eval_word(w).nums)
                count += 1
        checks.append(
            _check(
                f"rank {mm}: levels 0..{_LANG_LEVELS} plus the corner tile "
                f"[1, {upper}]^{mm} exactly once",
                count == len(values) == upper**mm,
                {"words": count, "distinct_values": len(values), "box": upper**mm},
            )
        )
    return _report("language", checks)


# ---------------------------------------------------------------------------
# suite: census


_CENSUS_RADIUS = {1: 8, 2: 8, 3: 7}
_STEMS = (("", 0), ("t", 0), ("T", 1), ("TT", 2))


def verify_census(m: int | None = None, radius: int | None = None) -> dict:
    """Check the coset census and the level series against enumeration."""
    ms = [m] if m is not None else [1, 2]
    checks = []
    for mm in ms:
        r = radius if radius is not None else _CENSUS_RADIUS.get(mm, 6)
        enumerated = coset_distance_census(mm, r)
        derived = coset_census(mm, r)
        witness = None
        if enumerated != derived:
            witness = next(
                (
                    {
                        "level": level,
                        "enumerated": list(enumerated.column(level)),
                        "derived": list(derived.column(level)),
                    }
                    for level in range(0, -(r + 1), -1)
                    if enumerated.column(level) != derived.column(level)
                ),
                {"note": "censuses differ"},
            )
        checks.append(
            _check(
                f"rank {mm}: stem count equals enumerated census to radius {r}",
                enumerated == derived,
                witness,
            )
        )
        try:
            ls = level_series(mm)
        except FitError as exc:
            checks.append(
                _check(f"rank {mm}: level-series fit", False, {"error": str(exc)})
            )
        else:
            # level_series raises FitError unless its own horizon is certified
            checks.append(
                _check(
                    f"rank {mm}: level series certified through x^{ls.certified_to}",
                    True,
                    data={
                        "p_hat": poly_str(ls.p_hat),
                        "q_hat": poly_str(ls.q_hat),
                        "certified_to": ls.certified_to,
                    },
                )
            )
            # full_series needs the level series, so only a certified rank has one
            w, assembled = suffix_poly(mm), full_series(mm)
            product = rf_mul(
                subgroup_series(mm),
                rf_normalize(
                    poly(1, 0, -1) * (ONE + w.shift(1)),
                    (ONE - w.shift(1)) * (ONE - w.shift(2)),
                ),
            )
            checks.append(
                _check(
                    f"rank {mm}: assembled full series equals its product form",
                    assembled == product,
                    {"computed": rf_str(assembled), "expected": rf_str(product)},
                )
            )
        rr = 6 if mm == 1 else 4
        for stem_text, n in _STEMS:
            stem = parse_word(stem_text, mm)
            got = relative_growth(mm, stem, rr)
            want = series_prefix(relative_growth_series(mm, n), rr)
            checks.append(
                _prefix_check(
                    f"rank {mm}: relative growth below stem "
                    f"{stem_text or 'e'} matches the closed form",
                    got,
                    want,
                )
            )
    return _report("census", checks)


# ---------------------------------------------------------------------------
# suite: gfsa


def verify_gfsa() -> dict:
    """Check automaton growth against closed forms and direct counting."""
    checks = []
    target = quadrant_expected_growth()
    machines = [
        ("letter-labeled quadrant machine", build_quadrant_fsa(), target),
        ("block-labeled quadrant machine", build_quadrant_gfsa(), target),
    ]
    for mm in (1, 2, 3):
        machines.append(
            (
                f"rank-{mm} prefix/suffix loop machine",
                build_prefix_suffix_machine(mm),
                prefix_suffix_series(mm),
            )
        )
    for name, machine, expected in machines:
        growth = automaton_growth(machine)
        checks.append(
            _check(
                f"{name}: growth equals the closed form",
                growth == expected,
                {"computed": rf_str(growth), "expected": rf_str(expected)},
            )
        )
        checks.append(
            _prefix_check(
                f"{name}: direct word count matches to length 10",
                count_words_by_length(machine, 10),
                series_prefix(growth, 10),
            )
        )
    return _report("gfsa", checks)


# ---------------------------------------------------------------------------
# dispatcher


def run_suite(suite: str, m: int | None = None, radius: int | None = None) -> dict:
    if radius is not None and suite in ("appendix", "language", "gfsa"):
        raise ValueError(f"suite {suite!r} takes no radius")
    if m is not None and suite == "gfsa":
        raise ValueError("suite 'gfsa' takes no rank")
    if suite == "appendix":
        return verify_appendix(m)
    if suite == "bfs":
        return verify_bfs(m, radius)
    if suite == "language":
        return verify_language(m)
    if suite == "census":
        return verify_census(m, radius)
    if suite == "gfsa":
        return verify_gfsa()
    raise ValueError(f"unknown suite {suite!r}")
