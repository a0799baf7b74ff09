"""Machine-speed probe for the untraced timings.

On a host whose cores are shared with other tenants (measured on a 2-core
Xeon VM), speed shifts by up to 1.7x for tens of seconds at a time.
Ten-second medians of identical work then spread by 20-40%, wider than any
useful regression bound.  A fixed calibration loop, timed right before and
after each timed unit of work, tracks those shifts: dividing by it cut the
spread of 10 s medians from 0.34 to 0.05 there.

Every untraced timing is therefore scaled to the probe's reference speed:

    reported = measured * REFERENCE_S / probe

where ``probe`` is the mean of the calibration times bracketing the unit.
The loop does not touch ``crloading``, so a change to the package moves
the reported numbers and a change of machine speed mostly does not.  The raw
timings are kept in the run's record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Calibration loop time taken as the reference speed: its usual value on a
# 2-core Intel Xeon VM with Python 3.11 and numpy 2.4, where it ranged
# 0.75-1.25 ms.  A constant, so reported timings read as seconds at that
# speed.
REFERENCE_S = 1.2e-3
# Each probe takes the median of this many loop runs.
_REPEATS = 3
_X = np.linspace(0.1, 2.0, 64)
_TABLE = np.random.default_rng(0).random(1 << 15)      # 256 KiB
_M = 2.0 * np.eye(3) + 0.1


@dataclass(frozen=True)
class _Record:
    value: float
    array: np.ndarray


def _calibration_loop():
    """The mix the package's per-trial code runs: interpreter work, frozen
    dataclasses, small-array numpy calls, a 3x3 solve and strided reads
    from an L2-sized table."""
    acc = 0.0
    for i in range(25):
        y = np.exp(-_X * (i % 7 + 1))
        acc += float(np.sum(y[y > 0.1])) + float(np.max(y))
        acc += int(np.argmax(y)) + float(np.linalg.solve(_M, y[:3])[0])
        acc += _Record(value=acc, array=y).value * 1e-9
        acc += sum({k: k * i for k in range(10)}.values()) * 1e-12
        acc += float(_TABLE[(i * 997) % _TABLE.size::64].sum()) * 1e-9
        acc += float(np.where(y > 0.5, y, 0.0).sum())
        acc += float(np.log2(y + 1.0).sum())
    return acc


class SpeedProbe:
    """Calibration samples of one run and the scale they imply."""

    def __init__(self):
        self.samples = []

    def __call__(self):
        """Time the calibration loop now; return its median duration."""
        runs = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _calibration_loop()
            runs.append(time.perf_counter() - t0)
        c = sorted(runs)[_REPEATS // 2]
        self.samples.append(c)
        return c

    @staticmethod
    def scale(before, after):
        """Factor taking a time measured between two probes to the
        reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
