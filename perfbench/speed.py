"""Machine-speed gauge for normalizing wall times.

On a machine shared with other tenants (measured on a 2-vCPU KVM guest),
their load slows interpreter code by up to 2x in phases lasting seconds to
minutes, often longer than one run.  Raw wall times of whole runs then spread
by far more than any regression bound.  The gauge times a fixed pure-Python
kernel that touches no taskalloc code between blocks of ops; each op's wall
time is scaled by REF_S over the mean kernel time of the samples near its
block.  A normalized time is the time the op would take at the speed at which
the kernel takes REF_S, so a change to the library moves it and a change in
machine load does not.
"""

from __future__ import annotations

import statistics
import time

# A round figure near the kernel's time on an unloaded 2-vCPU Intel Xeon (KVM)
# under CPython 3.11: the speed normalized times are quoted at.  A constant,
# so that runs at different times on one machine are comparable.
REF_S = 0.004

# Ops are grouped into blocks of at least this much wall time between two
# gauge samples; a block is scaled by the samples up to WINDOW blocks away.
BLOCK_S = 0.25
WINDOW = 4


def kernel() -> float:
    """Mixed interpreter work (ints, floats, dicts, sets, sorting),
    about 4 ms unloaded."""
    acc = 0.0
    table: dict = {}
    for i in range(20000):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.25
    merged = frozenset(range(0, 4000, 3)) | frozenset(range(0, 4000, 5))
    ordered = sorted(table.values())
    return acc + len(merged) + ordered[0]


def sample(repeats: int = 3) -> float:
    """Mean kernel wall time in seconds over ``repeats`` runs.  The mean
    tracks the slow-down an op sees better than the minimum does."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) / repeats


class Gauge:
    """Kernel samples taken at block boundaries: block ``b`` of ops runs
    between samples ``b`` and ``b + 1``."""

    def __init__(self):
        self.samples = [sample()]
        self.block_start = time.perf_counter()

    def block_done(self) -> bool:
        return time.perf_counter() - self.block_start >= BLOCK_S

    def mark(self) -> int:
        """End the current block with a sample; returns its index."""
        self.samples.append(sample())
        self.block_start = time.perf_counter()
        return len(self.samples) - 2

    def scale(self, block: int) -> float:
        """Factor taking a wall time in ``block`` to reference speed:
        REF_S over the mean of the samples within WINDOW blocks of it.  An
        op feels every slow-down while it runs, so the mean, not the median,
        of the kernel times tracks it; the window damps single samples."""
        lo = max(0, block - WINDOW)
        return REF_S / statistics.fmean(self.samples[lo:block + 2 + WINDOW])

    def run_scale(self) -> float:
        """Factor from every sample of the run, for times measured in child
        processes (set-up), too short for the samples around them."""
        return REF_S / statistics.fmean(self.samples)
