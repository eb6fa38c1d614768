"""Timing scaled to the machine's current speed.

The benchmark shares its machine with other work. On a shared 2-vCPU host the
same `delta` call took up to 1.75 times longer in some 5-second windows than in
others, in CPU time as much as in wall time, which no run length averages out.
So every timed interval is preceded by a short fixed calibration kernel, and
its time is divided by the kernel's slowness: the median, over the intervals
around it, of the kernel's run time over its nominal time. On that host the
5-second medians of one `delta` call moved by up to 48% raw and by at most 7%
scaled. A scaled time reads as milliseconds at the nominal speed.

The kernels use only the standard library, so a change to the program cannot
change them. Contention slows interpreter-bound work on small integers more
than big-integer work, so a kernel must resemble the work it calibrates:
"mixed" is half continued-fraction and `Fraction` steps on small integers and
half square roots and `Fraction` sums of 4000-bit integers; "bigint" works on
16000-bit integers like the size ladder does. With "mixed" on the ladder the
spread between runs was 10%, with "bigint" 4%.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from math import isqrt

SAMPLES = 10  # calibrations around an interval that set its speed


def _mixed_work() -> int:
    # Half interpreter-bound work on small integers, half big-integer work.
    d = 2 * 999_999_937 + 1
    a0 = isqrt(d)
    P, Q, a = 0, 1, a0
    h_prev, h = 1, a0
    acc = Fraction(0)
    for i in range(150):
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (a0 + P) // Q
        h, h_prev = a * h + h_prev, h
        acc += Fraction(a, i + 1)
    x = (1 << 4000) // 3 + 12345
    out = acc.numerator ^ h
    for i in range(5):
        r = isqrt(x + i)
        f = Fraction(r, x + 7 * i + 1) + Fraction(i + 1, r | 1)
        out ^= f.numerator % 1_000_003
    return out


def _bigint_work() -> int:
    x = (1 << 16000) // 3 + 12345
    r = isqrt(x)
    f = Fraction(r, x + 7) + Fraction(1, r | 1)
    return f.numerator % 1_000_003


# kernel -> (work, nominal ms: about its run time on the host it was tuned on)
KERNELS = {"mixed": (_mixed_work, 0.7), "bigint": (_bigint_work, 0.66)}


def slowness(kernel: str = "mixed") -> float:
    """The kernel's run time over its nominal time: 1.0 at nominal speed."""
    work, nominal_ms = KERNELS[kernel]
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) * 1000 / nominal_ms


def scale_factor(slows: list[float]) -> float:
    """Factor that turns raw times taken alongside `slows` into scaled times."""
    return 1 / statistics.median(slows)


def scaled(raw: list[float], cals: list[list[float]]) -> list[float]:
    """Scale raw[i] by the slowness calibrated nearest to it.

    cals[i] holds the slowness readings taken just before interval i, and
    cals[-1] those taken after the last one. Interval i uses the groups on
    both sides of it, widened symmetrically until they hold at least SAMPLES
    readings.
    """
    per_group = max(1, min(len(g) for g in cals))
    reach = -(-SAMPLES // (2 * per_group))
    out = []
    for i, value in enumerate(raw):
        window = [x for group in cals[max(0, i + 1 - reach): i + 1 + reach] for x in group]
        out.append(value * scale_factor(window))
    return out


def scaled_call(fn):
    """(scaled seconds, result) of one call of fn, calibrated on both sides."""
    before = [slowness() for _ in range(SAMPLES // 2)]
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = [slowness() for _ in range(SAMPLES // 2)]
    return raw * scale_factor(before + after), result
