"""Calibration kernel: converts raw seconds into calibrated seconds.

The host's speed drifts from run to run and from second to second (a shared
2-vCPU VM), so raw CPU or wall seconds of the same work spread by tens of
percent.  A short stdlib-only kernel whose mix resembles the program's hot
loops (small-int arithmetic, 256-bit bitwise operations, function calls,
dict and tuple work) is timed next to every timed operation.  Work measured
over a window is scaled by ``NOMINAL_S / mean kernel time`` over the window
(:func:`factor`): a calibrated second is the time the work would take on a
host where one kernel repetition takes exactly ``NOMINAL_S``.

``NOMINAL_S`` is fixed (it is the kernel's duration on the 2-vCPU reference
host of README.md when that host runs fast), so calibrated figures stay
comparable between commits.
"""

from __future__ import annotations

import gc
import time
from typing import Sequence

#: Duration of one kernel repetition on the reference host, in seconds.
NOMINAL_S = 0.0058

_ITERATIONS = 10_000
_REPEATS = 5
_MASK = (1 << 256) - 1
_SEED = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95

def _mix(a: int, b: int) -> int:
    return (a * 33 + b) & 0xFFFF


def kernel(iterations: int = _ITERATIONS) -> int:
    """One repetition of the calibration work; returns a checksum."""
    acc = 1
    word = _SEED
    table: dict = {}
    for i in range(iterations):
        acc = _mix(acc, i)
        word = ((word << 3) | (word >> 253)) & _MASK
        word ^= _SEED if acc & 1 else acc
        key = (acc & 63, i & 7)
        table[key] = table.get(key, 0) + (word & 0xFF)
    return acc + len(table)


def kernel_seconds() -> float:
    """Mean CPU time of a few kernel repetitions.

    The host's speed changes within seconds; across ten processes the mean
    of five repetitions gave a narrower spread of calibrated times than
    their minimum or median did.
    """
    total = 0.0
    # The collector's pauses grow with the live heap of the benchmark's own
    # process; with it on, the kernel would measure that heap, not the host.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(_REPEATS):
            start = time.process_time()
            kernel()
            total += time.process_time() - start
    finally:
        if enabled:
            gc.enable()
    return total / _REPEATS


def factor(kernels: Sequence[float]) -> float:
    """Calibration factor ``NOMINAL_S / mean kernel time`` of one window.

    Single kernel samples track the host poorly (its speed changes within
    a second), but their mean over a window of a few seconds does: the
    calibrated time of a window is its raw time times this factor.
    """
    return NOMINAL_S / (sum(kernels) / len(kernels))
