"""Self-tests of the benchmark, at smoke size so they finish in seconds."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_timings_are_per_operation_means_at_the_reference_speed():
    ref = calibrate.REFERENCE_S
    episodes = [
        {"op_wall_s": [1.0, 4.0], "op_gauge_s": [ref, 2 * ref]},
        {"op_wall_s": [2.0, 3.0], "op_gauge_s": [2 * ref, ref]},
    ]
    assert run._scaled_mean(episodes, "op_wall_s") == [1.0, 2.5]
    ops = workloads.build("closed_forms", 7, smoke=True)
    result = workloads.run_ops(ops, workloads.load_reference(), calibrate.gauge)
    assert len(result["op_gauge_s"]) == len(ops)
    assert all(g > 0 for g in result["op_gauge_s"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_reference_value_fails_an_operation(workload):
    reference = workloads.load_reference()
    ops = workloads.build(workload, 7, smoke=True)
    assert workloads.run_ops(ops, reference)["failed"] == 0
    target = next(op.ref for op in ops if op.ref is not None)
    pool, sep, index = target.partition("/")
    perturbed = json.loads(json.dumps(reference))
    if sep:
        perturbed["pools"][pool][int(index)] = "0" * 12
    else:
        perturbed["ops"][target] = "0" * 12
    result = workloads.run_ops(workloads.build(workload, 7, smoke=True), perturbed)
    assert result["failed"] / result["ops"] > 0
    assert result["errors"][0].startswith(target)


def _bindings():
    """Every attribute of the package's modules and traced classes."""
    from horogrowth import group, series

    modules = tracing._package_modules()
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (series.IntPolynomial, group.TriadicRational):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def _digests(workload):
    out = []
    for op in workloads.build(workload, 7, smoke=True):
        result, ok = op.run()
        out.append((op.ref, workloads.digest(result), ok))
    return out


def test_tracer_is_removed_and_leaves_results_unchanged():
    before = _bindings()
    plain = {w: _digests(w) for w in workloads.WORKLOADS}
    with tracing.Tracer() as tracer:
        assert _bindings() != before
        traced = {w: _digests(w) for w in workloads.WORKLOADS}
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert traced == plain
    layers = tracer.metrics()
    skipped = metrics.MEMORY + metrics.RUN_LEVEL
    assert {name for name, _ in metrics.PER_LAYER if name not in skipped} <= set(layers)
    for name in ("series.mul.calls", "group.coset_key.calls", "group.eval_word.calls",
                 "bfs.spheres.states", "verify.checks", "group.triadic_make.calls"):
        assert layers[name] > 0, name
