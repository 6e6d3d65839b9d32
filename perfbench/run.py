"""Run one workload of the horogrowth benchmark and print its metrics.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 60 --trace 0

Every episode runs in a fresh child interpreter (child.py): each layer of
the package memoises with lru_cache, so a repeat inside one process would
time cache hits, while a command-line user pays the cold cost on every
call.  The load is a closed loop with one client: one child at a time,
no threads.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones; README.md defines each metric.  The
end-to-end timings are means over the episodes of each operation's
latency, scaled to a reference host speed by the time calibrate.py's
kernel takes around that operation.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records
the context (machine, Python, commit) and the sample counts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up-only children before each episode, so that the set-up samples
# spread over the whole run like the episodes do
SETUP_SPAWNS = 2
# samples beyond the tail percentile: the tail latency is the 11th largest
TAIL_SAMPLES = 10
# every run ends well inside three minutes, even when the package hangs
DEADLINE_S = 150


def _child_env() -> dict:
    """Pinned environment: fixed hash seed, default memory budget, and the
    package taken from this checkout's src/ only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HOROGROWTH_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(mode: str, args, deadline: float) -> dict:
    """Run one child and return its report, or {"error": ...}."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        return {"error": f"{mode} child exited {proc.returncode}: {err.strip()[-800:]}"}
    try:
        report = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} child printed no report: {out[-200:]!r}"}
    report["setup_s"] = report["ready"] - start
    return report


def _episodes(mode: str, args, end: float, deadline: float, limit: int | None = None,
              setups: int = 0) -> tuple[list[dict], list[dict]]:
    """Episodes, each after ``setups`` set-up-only children, until the next
    would run past ``end`` (at least one).  Returns (episodes, set-ups)."""
    episodes, setup_runs, last = [], [], 0.0
    while not episodes or (
        time.monotonic() + last <= end and (limit is None or len(episodes) < limit)
    ):
        t0 = time.monotonic()
        setup_runs += [_spawn("setup", args, deadline) for _ in range(setups)]
        episodes.append(_spawn(mode, args, deadline))
        last = time.monotonic() - t0
    return episodes, setup_runs


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _scaled_mean(episodes: list[dict], key: str) -> list[float]:
    """Each operation's time at the reference host speed, averaged over
    the episodes, which all run the same operations from the same cold
    state.

    Other tenants of a shared host slow every process, by up to 2x for a
    second at a time.  An operation's gauge is the calibration kernel's
    time around it, so REFERENCE_S over the gauge cancels the slowdown
    the operation met."""
    scaled = (
        [t * calibrate.REFERENCE_S / g for t, g in zip(e[key], e["op_gauge_s"], strict=True)]
        for e in episodes
    )
    return [statistics.fmean(times) for times in zip(*scaled, strict=True)]


def _end_to_end(setups: list[float], episodes: list[dict]) -> dict:
    latency = sorted(_scaled_mean(episodes, "op_wall_s"), reverse=True)
    return {
        "setup_s": _median(setups),
        "wall_s": sum(latency),
        "cpu_s": sum(_scaled_mean(episodes, "op_cpu_s")),
        "peak_rss_mb": _median(e["maxrss_kb"] / 1024 for e in episodes),
        "op_p50_ms": _median(latency) * 1000,
        "op_tail_ms": latency[min(TAIL_SAMPLES, len(latency) - 1)] * 1000 if latency else 0.0,
    }


def _per_layer(baseline: list[dict], traced: list[dict], memory: dict, fail_ratio: float) -> dict:
    out = {
        name: _median(e["layers"][name] for e in traced)
        for name, _ in metrics.PER_LAYER
        if name not in metrics.MEMORY + metrics.RUN_LEVEL
    }
    out.update({name: memory.get(name, 0.0) for name in metrics.MEMORY})
    out["trace.overhead_s"] = _median(e["wall_s"] for e in traced) - _median(
        e["wall_s"] for e in baseline
    )
    out["fail_ratio"] = fail_ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "horogrowth" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'horogrowth'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so _spawn kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    _spawn("setup", args, deadline)  # warm-up: writes the bytecode caches
    start = time.monotonic()
    end = start + args.seconds
    if args.trace:
        baseline, _ = _episodes("run", args, end, deadline, limit=1)
        traced, _ = _episodes("trace", args, end, deadline)
        episodes, setup_runs = baseline + traced, []
    else:
        episodes, setup_runs = _episodes("run", args, end, deadline, setups=SETUP_SPAWNS)
    reports = setup_runs + episodes
    good = [e for e in episodes if "error" not in e]
    errors = [r["error"] for r in reports if "error" in r]
    errors += [msg for e in good for msg in e["errors"]]
    attempted = sum(e["ops"] for e in good) + sum("error" in e for e in episodes)
    failed = sum(e["failed"] for e in good) + sum("error" in e for e in episodes)
    correct = not errors and failed == 0

    if args.trace:
        memory = _spawn("memory", args, deadline)
        if "error" in memory:
            errors.append(memory["error"])
            correct = False
        traced = [e for e in traced if "error" not in e]
        baseline = [e for e in baseline if "error" not in e]
        values = _per_layer(baseline, traced, memory, failed / max(attempted, 1))
        units = metrics.PER_LAYER
    else:
        values = _end_to_end([r["setup_s"] for r in reports if "error" not in r], good)
        units = metrics.END_TO_END
    results = {name: {"value": values[name], "unit": unit} for name, unit in units}

    ops = good[0]["ops"] if good else 0
    for name, m in results.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for msg in errors[:10]:
        print(f"  FAILED {msg}")
    record = {
        "context": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": _commit(),
            "source_sha256": _source_digest(),
        },
        "samples": {
            "episodes": len(episodes),
            "setups": len(reports),
            "ops_per_episode": ops,
            "episode_wall_s": [round(e["wall_s"], 4) for e in good],
            "mean_gauge_s": [statistics.fmean(e["op_gauge_s"]) for e in good if e["op_gauge_s"]],
        },
        "op_tail_percentile": round(100 * (1 - TAIL_SAMPLES / ops), 2) if ops > TAIL_SAMPLES else None,
        "elapsed_s": time.monotonic() - start,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
