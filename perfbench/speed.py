"""How fast the machine runs at this moment, and times scaled by it.

The benchmark's machine shares its cores with other tenants, which slow
a pure-Python process by up to 2x for seconds to minutes at a time (see
README.md).  A child therefore times a fixed loop of ``Fraction``
arithmetic before its first op and after every op.  An op's time is
scaled by the loop's reference duration over the mean of the two loops
around the op, so it reads in seconds at the reference speed.  Nothing
in the loop depends on umbrakit, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# A product of two 16-term sparse polynomials with Fraction coefficients,
# the same kind of work as umbrakit's Poly and series arithmetic.
_FACTOR = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
# The loop's least time on the machine the benchmark was written on
# (2 vCPUs, "Intel(R) Xeon(R) Processor", Python 3.11.7): 0.74 ms.
CAL_REFERENCE_S = 0.74e-3


def calibrate() -> float:
    """Seconds the fixed loop takes now, with the cyclic collector held off
    so that a collection the program owes does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out: dict = {}
        for (i1, j1), a in _FACTOR.items():
            for (i2, j2), b in _FACTOR.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + a * b
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(op_s: list[float], cal_s: list[float]) -> list[float]:
    """Op times at the reference speed; cal_s[i] and cal_s[i + 1] are the
    loops run just before and just after op i."""
    return [t * CAL_REFERENCE_S / ((before + after) / 2)
            for t, before, after in zip(op_s, cal_s, cal_s[1:])]
