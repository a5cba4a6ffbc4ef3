"""Host-speed calibration: a fixed slice of pure-Python work.

The benchmark host is shared, and its CPU speed drifts by 20-50% over
seconds to minutes.  Process CPU time drifts with it, so it does not
help.  Every repetition therefore runs :func:`calibration_slice` every
``PERIOD_S`` seconds from a ``SIGALRM`` handler.  The slices sample the
host's speed over exactly the interval the workload ran in.  The child
scales each stretch of workload time by :func:`scale` of the median of
the slices around it: seconds at a fixed reference speed.  Raw seconds
and slice statistics stay in every record.

The slice allocates no container objects, so it never triggers the
garbage collector and its cost does not depend on the workload's heap.
It is benchmark-owned code: a change to the program cannot speed it up.
"""

from __future__ import annotations

import time

#: Seconds between calibration slices.
PERIOD_S = 0.04

#: Median slice duration on the reference host (2 vCPU shared VM,
#: CPython 3.11); reported seconds are seconds at this speed.
REFERENCE_SLICE_S = 0.0005

#: Workloads slow down less than the slice when the host is contended.
#: Regressing a repetition's log run time on the log of its median slice
#: gave slopes of 0.50-0.79 per workload in four ten-run sets, so the
#: full slice ratio over-corrects a run made in a slow period.  Over two
#: of those sets, each re-scaled from its recorded chunks, 0.85 gave the
#: smallest worst ``wall_s`` or ``ops_per_s`` spread: 4.5%, against 7.8%
#: at 1.0 and 6.6% at 0.7.
EXPONENT = 0.85

_ITERATIONS = 1500


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


_TABLE = list(range(256))
_MAP = dict.fromkeys(range(256), 0)
_CELLS = [_Cell() for _ in range(64)]


def calibration_slice() -> None:
    """A fixed mix of integer, list, dict and attribute operations."""
    table, mapping, cells = _TABLE, _MAP, _CELLS
    x = 1
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 255
        mapping[k] = (mapping[k] + table[(k * 7) & 255]) & 0xFFFF
        cell = cells[k & 63]
        if x & 1:
            cell.value = i
        else:
            x ^= cell.value


def scale(slice_s: float) -> float:
    """Factor that turns seconds at slice speed ``slice_s`` into seconds
    at the reference speed."""
    return (REFERENCE_SLICE_S / slice_s) ** EXPONENT


def calibration_time(slices: int = 20) -> float:
    """Median seconds of ``slices`` back-to-back calibration slices."""
    times = []
    for _ in range(slices):
        t = time.perf_counter()
        calibration_slice()
        times.append(time.perf_counter() - t)
    times.sort()
    return times[len(times) // 2]
