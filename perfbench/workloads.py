"""Workloads of the horogrowth benchmark: seeded inputs and certified operations.

An operation is one public call plus its check.  A check compares a
digest of the result's canonical JSON with the value recorded in
reference.json, certifies the result against an independent computation
(a closed form, a round trip or a second algorithm), or both.  A wrong
result or an exception from the package fails the operation.

Seeded inputs are drawn from fixed pools, so the reference holds one
digest per pool entry and any seed can be checked.  The functions here
call the package through attribute lookups on the ``horogrowth`` module
at call time, so the wrappers of the traced run see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import horogrowth as hg
import horogrowth.cli
from metrics import WORKLOADS

REFERENCE = Path(__file__).with_name("reference.json")

# operation time between two timings of the calibration kernel: the slow
# stretches of a shared host last about a second
GAUGE_EVERY_S = 0.1

_POOL_SEED = 1605_01131
_POOLS = {
    # name: (rank, pool size, coordinate bound)
    "spell2": (2, 2000, 3**8),
    "spell4": (4, 1000, 3**12),
}
# element_distance targets: rank-2 vectors whose geodesic has this length,
# so each search grows two balls of radius 6 and all cost about the same.
_DISTANCE_LENGTH = 12
_DISTANCE_POOL = 64
_DISTANCE_BOUND = 60
_STEMS = (("", 0), ("t", 0), ("T", 1), ("TT", 2))
_STEM_DEPTHS = range(7)

SIZES = {
    "closed_forms": {
        "full": {"ranks": 12, "prefix": 600, "appendix_rank": None},
        "smoke": {"ranks": 4, "prefix": 60, "appendix_rank": 2},
    },
    "oracle": {
        "full": {
            "spell2": 1000, "spell4": 500, "levels": (2, 2),
            "distances": 16, "stem_radius": 4, "balls": ((2, 8), (3, 6)),
        },
        "smoke": {
            "spell2": 20, "spell4": 10, "levels": (1, 2),
            "distances": 2, "stem_radius": 3, "balls": ((1, 6), (2, 4)),
        },
    },
}


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns (canonical result, certificate
    passed); ``ref`` names the recorded digest, or is None when the
    certificate alone decides."""

    ref: str | None
    run: Callable[[], tuple[object, bool]]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def expected(reference: dict, ref: str) -> str:
    """Recorded digest: ``pool/index`` keys live in per-pool lists."""
    pool, sep, index = ref.partition("/")
    if sep:
        return reference["pools"][pool][int(index)]
    return reference["ops"][ref]


# ---------------------------------------------------------------------------
# canonical forms


def _levels_json(ls) -> dict:
    return {
        "X_minus1": hg.rf_to_json(ls.X_minus1),
        "X_0": hg.rf_to_json(ls.X_0),
        "p_hat": [str(c) for c in ls.p_hat.coeffs],
        "q_hat": [str(c) for c in ls.q_hat.coeffs],
        "certified_to": ls.certified_to,
    }


def _spheres_json(s) -> dict:
    return {
        "total": list(s.total),
        "horocyclic": list(s.horocyclic),
        "by_level": {str(k): list(v) for k, v in sorted(s.by_level.items())},
    }


# ---------------------------------------------------------------------------
# pools


def _pool(name: str) -> list[tuple[int, ...]]:
    m, size, bound = _POOLS[name]
    rng = random.Random(f"{_POOL_SEED}/{name}")
    out = []
    while len(out) < size:
        v = tuple(rng.randint(-bound, bound) for _ in range(m))
        if any(v):
            out.append(v)
    return out


def _distance_pool() -> list[tuple[int, int]]:
    rng = random.Random(f"{_POOL_SEED}/distance2")
    out = []
    while len(out) < _DISTANCE_POOL:
        v = (
            rng.randint(-_DISTANCE_BOUND, _DISTANCE_BOUND),
            rng.randint(-_DISTANCE_BOUND, _DISTANCE_BOUND),
        )
        if v not in out and hg.word_length(2, v) == _DISTANCE_LENGTH:
            out.append(v)
    return out


def _pick(rng: random.Random | None, n_items: int, k: int) -> list[int]:
    """k pool indices chosen by the seed, or every index when rng is None."""
    if rng is None:
        return list(range(n_items))
    return rng.sample(range(n_items), k)


# ---------------------------------------------------------------------------
# operations


def _cli_op(argv: list[str]) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hg.cli.main(argv)
        return {"code": code, "stdout": out.getvalue()}, code == 0

    return Op("cli " + " ".join(argv), run)


def _call_op(ref: str, call, canon, certify=lambda result: True) -> Op:
    def run():
        result = call()
        return canon(result), bool(certify(result))

    return Op(ref, run)


def _closed_forms(size: dict, rng) -> list[Op]:
    ranks = range(1, size["ranks"] + 1)
    ops = []
    for m in ranks:
        ops += [
            _call_op(f"subgroup_series({m})", lambda m=m: hg.subgroup_series(m), hg.rf_to_json),
            _call_op(f"positive_series({m})", lambda m=m: hg.positive_series(m), hg.rf_to_json),
            _call_op(f"full_series({m})", lambda m=m: hg.full_series(m), hg.rf_to_json),
            _call_op(f"level_series({m})", lambda m=m: hg.level_series(m), _levels_json),
            _call_op(
                f"coset_census({m},24)",
                lambda m=m: hg.coset_census(m, 24),
                lambda c: c.to_json(),
            ),
        ]
    terms = size["prefix"]
    for m in ranks:
        ops.append(
            _call_op(
                f"series_prefix(full_series({m}),{terms})",
                lambda m=m: hg.series_prefix(hg.full_series(m), terms),
                lambda p: p.to_json(),
            )
        )
    for m in ranks:
        depths = _STEM_DEPTHS if rng is None else [rng.choice(_STEM_DEPTHS)]
        for n in depths:
            ops.append(
                _call_op(
                    f"relative_growth_series({m},{n})",
                    lambda m=m, n=n: hg.relative_growth_series(m, n),
                    hg.rf_to_json,
                )
            )
    rank = size["appendix_rank"]
    ops.append(
        _call_op(
            f"verify_appendix({rank})",
            lambda: hg.verify_appendix(rank),
            lambda r: r,
            lambda r: r["pass"],
        )
    )
    ops.append(
        _call_op("verify_gfsa()", lambda: hg.verify_gfsa(), lambda r: r, lambda r: r["pass"])
    )
    ops.append(
        _cli_op(["series", "--kind", "full", "--m", str(size["ranks"]), "--rational", "--output", "json"])
    )
    return ops


def _prefix(f, order: int) -> list[int]:
    return list(hg.series_prefix(f, order))


def _spelling_ops(ref: str, m: int, vec: tuple[int, ...]) -> list[Op]:
    """spell, word_length, eval_word round trip, format/parse round trip."""
    box = {}

    def spell():
        box["word"] = word = hg.spell(m, vec)
        return "".join(word.tokens), True

    def length():
        n = hg.word_length(m, vec)
        return n, n == box["word"].length

    def evaluate():
        g = hg.eval_word(box["word"])
        coords = tuple(c.num for c in g.coords)
        return None, g.tee == 0 and all(c.exp == 0 for c in g.coords) and coords == vec

    def reparse():
        word = box["word"]
        return None, hg.parse_word(hg.format_word(word), m) == word

    return [Op(ref, spell), Op(None, length), Op(None, evaluate), Op(None, reparse)]


def _spelling(size: dict, rng) -> list[Op]:
    ops = []
    for name in _POOLS:
        pool = _pool(name)
        m = _POOLS[name][0]
        for i in _pick(rng, len(pool), size[name]):
            ops += _spelling_ops(f"{name}/{i}", m, pool[i])
    m, n = size["levels"]
    ops.append(
        _call_op(
            f"check_level_ranges({m},{n})",
            lambda: hg.check_level_ranges(m, n),
            lambda info: info,
            lambda info: info["all_distinct"] and info["all_in_box"] and info["heights_ok"],
        )
    )
    return ops


def _oracle(size: dict, rng) -> list[Op]:
    # Spelling and the small searches run before the big balls are cached:
    # afterwards every full garbage collection walks those balls, which
    # would swamp the small operations' latencies.
    ops = _spelling(size, rng)
    pool = _distance_pool()
    for i in _pick(rng, len(pool), size["distances"]):
        v = pool[i]
        ops.append(
            _call_op(
                f"distance2/{i}",
                lambda v=v: hg.element_distance(2, v),
                int,
                lambda d, v=v: d == hg.word_length(2, v),
            )
        )
    radius = size["stem_radius"]
    for m in sorted({m for m, _ in size["balls"]}):
        for stem, n in _STEMS:
            ops.append(
                _call_op(
                    f"relative_growth({m},{stem or 'e'},{radius})",
                    lambda m=m, stem=stem: hg.relative_growth(m, hg.parse_word(stem, m), radius),
                    list,
                    lambda got, m=m, n=n: got == _prefix(hg.relative_growth_series(m, n), radius),
                )
            )
    for m, r in size["balls"]:
        ops.append(
            _call_op(
                f"bfs_spheres({m},{r})",
                lambda m=m, r=r: hg.bfs_spheres(m, r),
                _spheres_json,
                lambda s, m=m, r=r: list(s.total) == _prefix(hg.full_series(m), r)
                and list(s.horocyclic) == _prefix(hg.subgroup_series(m), r),
            )
        )
        ops.append(
            _call_op(
                f"coset_distance_census({m},{r})",
                lambda m=m, r=r: hg.coset_distance_census(m, r),
                lambda c: c.to_json(),
                lambda c, m=m, r=r: c == hg.coset_census(m, r),
            )
        )
    m, r = size["balls"][0]
    ops.append(
        _cli_op(["verify", "--suite", "bfs", "--m", str(m), "--radius", str(r), "--output", "json"])
    )
    return ops


_BUILDERS = {"closed_forms": _closed_forms, "oracle": _oracle}


def build(workload: str, seed: int | None, smoke: bool = False) -> list[Op]:
    """The workload's operations for a seed; seed None takes every pooled
    input (used to record the reference)."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    rng = None if seed is None else random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](size, rng)


# ---------------------------------------------------------------------------
# running


def run_ops(ops: list[Op], reference: dict, gauge: Callable[[], float] | None = None) -> dict:
    """Run every operation with its check, timing each one.

    With ``gauge``, also time the calibration kernel before the first
    operation, after the last, and between two operations whenever
    GAUGE_EVERY_S of operations have run since the last gauge.  Each
    operation gets the mean of the two gauges around it.

    Returns the time spent in operations, the number failed, each
    operation's latency, CPU time and gauge, and the first few failures
    by reference key."""
    latencies, cpu_times, intervals = [], [], []
    errors = []
    gauges = [gauge()] if gauge else []
    since = 0.0
    for op in ops:
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result, ok = op.run()
            ok = ok and (op.ref is None or digest(result) == expected(reference, op.ref))
            why = "wrong result"
        except Exception as exc:  # the package under test failed this operation
            ok, why = False, f"{type(exc).__name__}: {exc}"
        cpu_times.append(time.process_time() - c0)
        latencies.append(time.perf_counter() - t0)
        if not ok:
            errors.append(f"{op.ref or 'certificate'}: {why}")
        intervals.append(len(gauges) - 1)
        since += latencies[-1]
        if gauge and since >= GAUGE_EVERY_S:
            gauges.append(gauge())
            since = 0.0
    if gauge:
        gauges.append(gauge())
    return {
        "wall_s": sum(latencies),
        "ops": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "op_wall_s": latencies,
        "op_cpu_s": cpu_times,
        "op_gauge_s": [(gauges[i] + gauges[i + 1]) / 2 for i in intervals] if gauge else [],
    }


def record() -> dict:
    """Digests of every operation at full and smoke size over every pooled
    input.  Raises if any independent certificate fails."""
    ops, pools = {}, {}
    for workload in WORKLOADS:
        for smoke in (False, True):
            for op in build(workload, None, smoke):
                result, ok = op.run()
                if not ok:
                    raise RuntimeError(f"certificate failed for {op.ref!r} in {workload}")
                if op.ref is None:
                    continue
                pool, sep, index = op.ref.partition("/")
                if sep:
                    entries = pools.setdefault(pool, {})
                    entries[int(index)] = digest(result)
                else:
                    ops[op.ref] = digest(result)
    return {
        "ops": dict(sorted(ops.items())),
        "pools": {name: [d[i] for i in range(len(d))] for name, d in sorted(pools.items())},
    }
