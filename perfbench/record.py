"""Record the reference digests that every benchmark run checks against.

    PYTHONPATH=src python3 perfbench/record.py

Runs every operation of every workload, at full and smoke size and over
every pooled input, and writes perfbench/reference.json.  Recording
refuses to write when any independent certificate fails.  Re-record only
when a change to the package is meant to change its outputs.
"""
from __future__ import annotations

import json

import workloads


def main() -> None:
    reference = workloads.record()
    workloads.REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")
    n_pooled = sum(len(v) for v in reference["pools"].values())
    print(f"wrote {workloads.REFERENCE}: {len(reference['ops'])} operations, {n_pooled} pooled inputs")


if __name__ == "__main__":
    main()
