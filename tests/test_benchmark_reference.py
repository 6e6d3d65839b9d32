"""The benchmark's recorded outputs, checked in the test suite.

perfbench/reference.json holds a digest of every benchmarked result.  A
change to any of those outputs fails here, not only when the benchmark
runs.  Nothing under perfbench/ is modified.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pooled_input_matches_the_benchmark_reference(workload):
    result = workloads.run_ops(workloads.build(workload, None), workloads.load_reference())
    assert result["failed"] == 0, result["errors"]
