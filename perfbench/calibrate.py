"""How fast the host runs the program's kind of work right now.

The benchmark's host is a small VM on a shared machine.  A fixed loop's time
drifts by 15-30% over minutes and doubles for a second or so at a time, and
the process's CPU time grows with it, so no clock of the process separates
the program's cost from the host's.  A calibration unit is a fixed piece of
the two kinds of work the program does: row reduction over ``Fraction``
entries held in dict rows, which the arithmetic units bound, and reads
scattered over a working set larger than the cache, which memory bounds.
The program's commands lean on each to a different degree, and the host's
neighbours slow each by a different amount, so a unit holds both.  It is
written here, so no change to ``orehom`` changes it.

The worker times units before and after its command and, from a timer
signal, every ``interval`` seconds while the command runs.  run.py divides
each command's times by the worker's slowdown (its mean unit time over
``NOMINAL_S``), so a slow second or minute on the host slows both and
cancels out.
"""

import contextlib
import random
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.010       # a unit's time on the host the scaled times refer to
WALK_BYTES = 8 << 20    # larger than a core's share of the host's cache
WALK_STEPS = 10000


def _matrix(n=12, seed=7):
    rng = random.Random(seed)
    return [{j: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for j in range(n)}
            for _ in range(n)]


MATRIX = _matrix()


def reduce_matrix():
    """Row-reduce the fixed 12x12 rational matrix; returns its rank."""
    rows = [dict(r) for r in MATRIX]
    rank = 0
    for col in range(len(MATRIX)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i].get(col)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        prow = {j: v * inv for j, v in rows[rank].items() if v}
        rows[rank] = prow
        for i, row in enumerate(rows):
            f = row.get(col) if i != rank else None
            if f:
                for j, v in prow.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
        rank += 1
    return rank


def walk(memory, steps=WALK_STEPS):
    """Read ``steps`` bytes of ``memory`` (its length a power of two), each at
    an offset computed from the byte read before, so no read can start before
    the last one ends."""
    mask = len(memory) - 1
    i = 0
    for k in range(steps):
        i = (i * 31 + memory[i] * 65599 + k) & mask
    return i


def slowdown(times):
    """The host's slowdown against the nominal host: mean unit time / NOMINAL_S.
    The mean, not the median, because a command's time is the sum of its
    slow and fast moments."""
    return sum(times) / len(times) / NOMINAL_S


class Calibration:
    """Times calibration units in one process.

    ``units`` holds every unit's time.  ``block_wall_s`` and ``block_cpu_s``
    are what the units timed inside ``during`` took, for the caller to
    subtract from the block's times.
    """

    def __init__(self):
        self.memory = bytes(range(256)) * (WALK_BYTES // 256)
        self.units = []
        self.block_wall_s = 0.0
        self.block_cpu_s = 0.0

    def unit(self):
        reduce_matrix()
        walk(self.memory)

    def sample(self, count):
        for _ in range(count):
            t0 = time.perf_counter()
            self.unit()
            self.units.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        c0, t0 = time.process_time(), time.perf_counter()
        self.unit()
        t1 = time.perf_counter()
        self.units.append(t1 - t0)
        self.block_wall_s += t1 - t0
        self.block_cpu_s += time.process_time() - c0

    @contextlib.contextmanager
    def during(self, interval):
        """Time one unit every ``interval`` seconds of wall time, from a
        SIGALRM handler, while the block runs."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
