"""Speed probe: a fixed piece of pure-Python work that never touches polyprime.

The benchmark runs one probe before every timed item, so the probes sample
the speed of the host over the same seconds as the workload. ``scale``
turns a time measured beside a set of probes into reference seconds: the
time it would have taken on a host where one probe takes ``REF_S``.

The probe does what the Python kernel spends its time on. For every pair
of 32 exponent tuples it tests divisibility, compares the two under a
weight-matrix order, builds the quotient or the lcm, and counts the result
in a dict. A probe that only loops over one small tuple tracked the
workload worse: on the same host its speed moved by 30% and more while
the workload's did not.
"""

import statistics
import time

NVARS = 12
# 32 exponent tuples with entries 0..2 from a fixed linear congruential sequence
_x = 12345
MONOS = []
for _ in range(32):
    _m = []
    for _ in range(NVARS):
        _x = (_x * 1103515245 + 12345) & 0x7FFFFFFF
        _m.append((_x >> 16) % 3)
    MONOS.append(tuple(_m))
# degree, then reverse lexicographic: the rows of a degrevlex weight matrix
ROWS = [(1,) * NVARS] + [tuple(-1 if j == NVARS - 1 - i else 0 for j in range(NVARS))
                         for i in range(NVARS - 1)]

# Times are scaled to a host on which one probe takes this long, about
# the median on the 2-vCPU Xeon virtual machine the benchmark was built on.
REF_S = 0.004


def _compare(a, b):
    for row in ROWS:
        s = 0
        for w, x, y in zip(row, a, b):
            if w:
                s += w * (x - y)
        if s:
            return 1 if s > 0 else -1
    return 0


def probe():
    """Run the probe once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    seen = {}
    for a in MONOS:
        for b in MONOS:
            if all(p >= q for p, q in zip(a, b)):
                c = tuple(p - q for p, q in zip(a, b))
                seen[c] = seen.get(c, 0) + 1
            elif _compare(a, b) > 0:
                c = tuple(p if p > q else q for p, q in zip(a, b))
                seen[c] = seen.get(c, 0) - 1
    return time.perf_counter() - t0


def scale(probes_s):
    """Factor that turns a time measured beside these probes into reference seconds."""
    return REF_S / statistics.median(probes_s)
