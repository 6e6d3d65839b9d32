"""A fixed pure-Python kernel that gauges how fast the host runs Python.

The kernel does the kinds of work the package does (a breadth-first
search over frozen dataclass states kept in a set, and a product of
polynomials with big integer coefficients) but calls nothing of the
package, and it runs with the garbage collector off, so the package's
heap in the same process does not move it either.  Its time follows only
the host: on a shared host other tenants slow every process, by up to 2x
for a second at a time.  workloads.run_ops times the kernel between the
operations of an episode, and run.py scales each operation's latency by
REFERENCE_S over the kernel's time around it (see README.md).
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass

# the kernel's result, so a broken interpreter cannot pass for a fast one
CHECKSUM = 79723
# about the kernel's time on the reference host (2 vCPUs of a shared Intel
# Xeon, Python 3.11.7) when no other tenant slows it; timings are
# reported at that speed
REFERENCE_S = 0.0025


@dataclass(frozen=True)
class _State:
    num: tuple[int, ...]
    tee: int


def _neighbours(s: _State):
    for i in range(len(s.num)):
        for d in (-1, 1):
            num = list(s.num)
            num[i] += d * 3 ** max(s.tee, 0)
            yield _State(tuple(num), s.tee)
    yield _State(tuple(3 * c for c in s.num), s.tee + 1)
    yield _State(tuple(c // 3 for c in s.num), s.tee - 1)


def _search(radius: int) -> int:
    start = _State((0, 0, 0), 0)
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for s in frontier:
            for n in _neighbours(s):
                if n not in seen:
                    seen.add(n)
                    nxt.append(n)
        frontier = nxt
    return len(seen)


def _product(n: int) -> int:
    a = [3**k - k for k in range(n)]
    b = [(-2) ** k + k for k in range(n)]
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return sum(out) % 1_000_003


def kernel() -> int:
    return _search(4) + _product(40)


def gauge() -> float:
    """Seconds one run of the kernel takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = kernel()
        took = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if value != CHECKSUM:
        raise RuntimeError(f"calibration kernel returned {value}, not {CHECKSUM}")
    return took
