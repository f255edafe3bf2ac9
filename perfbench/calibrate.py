"""Host-speed calibration.

A shared machine's speed drifts: on a 2-core x86-64 VM it changed by up
to 40% over minutes (the median sweep-k2 operation took 0.29 s in one run
and 0.20 s in a run minutes later). A fixed kernel that
never calls the program, timed between the program's operations, tracks
that drift; dividing an operation's time by the kernel's time at either
side of it and multiplying by CAL_REF_S expresses the operation in
reference seconds: its time on a host where the kernel takes CAL_REF_S.
The kernel mixes interpreter work and numpy array operations, as the
program does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on that VM (Python 3.11, numpy 2.4, one BLAS thread)
CAL_REF_S = 0.0065
# a calibration after a measurement lasts about this share of it, so long
# operations, which get few calibrations, get precise ones
CAL_SHARE = 0.03
MIN_REPS = 5
FIRST_REPS = 30


def kernel() -> float:
    acc = 0
    table = {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 255] = acc
    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    total = 0.0
    for _ in range(8):
        b = a[:, ::-1] * 0.5 + a * 0.25
        total += float(np.sum(b**3)) + float(np.trace(b[:64, :64] @ b[:64, :64]))
    return total + acc


def reps_after(seconds: float) -> int:
    """Kernel repetitions for the calibration after a `seconds` measurement."""
    return max(MIN_REPS, round(CAL_SHARE * seconds / CAL_REF_S))


def calibrate(reps: int) -> float:
    """Median kernel time over `reps` repetitions, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        if not np.isfinite(kernel()):
            raise RuntimeError("calibration kernel produced a non-finite value")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` measured between two calibrations, in reference seconds."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)
