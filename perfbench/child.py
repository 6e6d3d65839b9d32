"""One benchmark episode in a fresh interpreter; started by run.py.

Modes:
  setup   import the package and load the reference, then exit
  run     also run the workload's operations with their checks, timing
          the calibration kernel between them (workloads.run_ops)
  trace   the same with every layer wrapped by tracing.Tracer, without
          the calibration kernel
  memory  measure the oracle balls' peak bytes per state with tracemalloc

Prints one JSON line.  ``ready`` is the CLOCK_MONOTONIC reading when
set-up finished, which run.py compares with its own reading at spawn.
"""
from __future__ import annotations

import argparse
import json
import resource
import time

import horogrowth  # noqa: F401  (set-up: the package import is measured)
import calibrate
import tracing
import workloads

REFERENCE = workloads.load_reference()
READY = time.monotonic()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "memory"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    out = {"ready": READY}
    if args.mode == "memory":
        size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
        out.update(tracing.measure_ball_memory(size.get("balls", ())))
    elif args.mode != "setup":
        ops = workloads.build(args.workload, args.seed, args.smoke)
        if args.mode == "trace":
            with tracing.Tracer() as tracer:
                out.update(workloads.run_ops(ops, REFERENCE))
            out["layers"] = tracer.metrics()
        else:
            out.update(workloads.run_ops(ops, REFERENCE, calibrate.gauge))
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main()
