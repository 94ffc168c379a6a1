"""Host speed, measured with fixed reference kernels between operations.

The benchmark runs on a few cores of a shared host whose speed changes by
half or more over minutes, with the neighbours' load; wall-clock times of
the same code taken an hour apart then differ more than any bound worth
checking.  So a run samples reference kernels between the program's
operations and reports every timed metric scaled to the nominal host
speed, at which each kernel takes about ``NOMINAL_S`` seconds:

    scaled seconds = measured seconds * NOMINAL_S / mean kernel seconds

Different arithmetic follows the host's speed differently, so each
workload names the kernels that do its kind of work, and a sample runs
each of them once and counts their mean time:

* ``rational``: exact Gaussian elimination in the standard library's
  ``fractions``, the arithmetic and object churn of the default backend;
* ``modular``: a polynomial evaluated by Horner's rule at successive
  residues modulo a prime near 10^6, the exhaustive root search over
  GF(p).

The kernels do not import the program, so a change to the program moves
the scaled times and a change of the host's speed mostly does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010  # each kernel's seconds, about, on the nominal host
SAMPLE_EVERY_S = 0.1  # one kernel sample for each this long of timed work
_SIZE = 7
_REPEATS = 12
_PRIME = 999983
_RESIDUES = 15000  # takes about as long as the rational kernel


def rational_kernel() -> Fraction:
    """Eliminate one fixed rational matrix, _REPEATS times over."""
    n = _SIZE
    m = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5) + 3 * (i == j) for j in range(n)]
        for i in range(n)
    ]
    total = Fraction(0)
    for _ in range(_REPEATS):
        a = [row[:] for row in m]
        for c in range(n):
            p = next(r for r in range(c, n) if a[r][c])
            a[c], a[p] = a[p], a[c]
            inverse = 1 / a[c][c]
            for r in range(c + 1, n):
                f = a[r][c] * inverse
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        for c in range(n):
            total += a[c][c]
    return total


def modular_kernel() -> int:
    """Count the roots of one fixed quintic among the first _RESIDUES
    residues modulo _PRIME."""
    roots = 0
    for x in range(_RESIDUES):
        acc = 0
        for c in (1, 5, 7, 11, 13, 17):
            acc = (acc * x + c) % _PRIME
        if acc == 0:
            roots += 1
    return roots


KERNELS = {"rational": rational_kernel, "modular": modular_kernel}


class HostSpeed:
    """Kernel samples of one process, spread evenly over its timed work."""

    def __init__(self, kernels=("rational",)):
        self.kernels = [KERNELS[name] for name in kernels]
        self.names = tuple(kernels)
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        """Run each kernel once; the sample is their mean time."""
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        end = time.perf_counter()
        self.samples.append((end - start) / len(self.kernels))
        self._last = end

    def catch_up(self) -> None:
        """Sample once for each SAMPLE_EVERY_S since the last sample (once
        if there is none), so that each stretch of timed work is weighted
        by its length, however long the operations between samples are."""
        if not self.samples:
            self.sample()
            return
        due = (time.perf_counter() - self._last) / SAMPLE_EVERY_S
        for _ in range(int(due)):
            self.sample()
        # The fraction of an interval left over counts towards the next.
        self._last = time.perf_counter() - (due - int(due)) * SAMPLE_EVERY_S

    def scale(self, start: int = 0, stop: "int | None" = None) -> float:
        """Factor that takes measured seconds to nominal-host seconds,
        from the samples with indices in [start, stop)."""
        return NOMINAL_S / statistics.fmean(self.samples[start:stop])

    def describe(self) -> str:
        mean = statistics.fmean(self.samples)
        return (
            f"reference kernels {'+'.join(self.names)} {1000 * mean:.3f} ms mean "
            f"over {len(self.samples)} samples "
            f"(nominal {1000 * NOMINAL_S:.1f} ms), scale factor {NOMINAL_S / mean:.4f}"
        )
