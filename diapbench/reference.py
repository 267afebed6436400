"""Host-speed reference: a fixed stdlib computation timed next to every round.

It never imports `diapason`, so no change to the program can move it;
what moves it is the host (CPU frequency, noisy neighbours, cache
pressure).  Its work resembles the closure's — `Fraction` means, hashing
and set inserts — so the host affects both alike, and a round's time
divided by the time of its adjacent slices tracks the program alone.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

_TONES = tuple(
    sorted(
        Fraction(n, d)
        for n, d in (
            (1, 1), (16, 15), (10, 9), (9, 8), (6, 5), (5, 4), (4, 3), (45, 32),
            (3, 2), (8, 5), (5, 3), (16, 9), (15, 8), (2, 1), (25, 24), (27, 25),
            (32, 27), (81, 64), (25, 16), (27, 16), (9, 5), (64, 45), (135, 128), (243, 128),
        )
    )
)


def unit() -> int:
    """One fixed unit of work: arithmetic and harmonic means of 276 pairs, into a set."""
    seen = set()
    for i, a in enumerate(_TONES):
        for b in _TONES[i + 1 :]:
            seen.add((a + b) / 2)
            seen.add(2 * a * b / (a + b))
    return len(seen)


UNIT_RESULT = 506


def slice_seconds(units: int) -> float:
    """Wall time of `units` reference units, started after a full collection."""
    gc.collect()
    start = time.perf_counter()
    total = 0
    for _ in range(units):
        total += unit()
    elapsed = time.perf_counter() - start
    if total != units * UNIT_RESULT:
        raise RuntimeError(f"reference computation gave {total}, expected {units * UNIT_RESULT}")
    return elapsed
