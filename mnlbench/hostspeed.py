"""Host speed, sampled while the program runs, to put times on one scale.

The benchmark host is a share of a busy machine.  The same single-threaded
code runs 30-60 % faster or slower from one stretch of seconds to the next,
as the neighbours' load comes and goes, and a time to verdict measured on
the wall clock moves with it.  `Sampler` takes that out.  A one-shot
interval timer interrupts the workload every `INTERVAL` seconds and runs a
fixed kernel that does not touch `mnl`: pure-Python work (fractions, big
integers, a dict), as in the algebra layers and in small Fock spaces, and,
for a workload whose sparse products are large, random reads from a table
larger than a core's L2 cache, as in those products.  The kernel's duration
is the host's speed at that moment.  The Python part alone follows the
Python-bound work closely but not the large sparse products; with the reads
it follows those closely and the Python-bound work less well.  Each stretch
of program time between two samples counts as

    stretch * REFERENCE_S / (kernel duration around the stretch)

seconds: the time it would have taken with the host at the reference speed,
at which the kernel takes `REFERENCE_S`.  Kernel time itself is left out.
A faster or slower program moves the scaled time exactly as it moves the
wall time; only the host's swings are divided out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL = 0.05
# kernel duration without and with the table reads, on the reference host (a
# 2-vCPU x86-64 share, Python 3.11) at its usual speed, between the
# workload's own calls; scaled times are seconds at that speed
REFERENCE_S = {False: 0.00075, True: 0.0013}
# samples on each side of a stretch whose median is its host speed
WINDOW = 2
# int64 entries of the kernel's table (16 MiB) and reads from it per run
TABLE = 1 << 21
GATHERS = 30000


class Sampler:
    """Runs the kernel from a SIGALRM handler while active; `scaled(start,
    end)` gives the program time between two perf_counter readings at the
    reference speed."""

    def __init__(self, memory):
        self.samples = []       # (start, end) of each kernel run
        self.reference = REFERENCE_S[memory]
        self._table = np.arange(TABLE if memory else 0, dtype=np.int64)
        self._index = np.random.default_rng(0).integers(0, TABLE, size=GATHERS if memory else 0)
        # resident for the sampler's life, so part of the process's peak RSS
        self.resident_mb = (self._table.nbytes + self._index.nbytes) / 2 ** 20
        self._active = False
        self._previous = None

    def kernel(self):
        acc = Fraction(0)
        table = {}
        x = 1
        for i in range(1, 160):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            x = (x * 1_000_003 + i) % (1 << 89)
            table[x & 255] = acc.numerator
        return acc, len(table), int(self._table[self._index].sum())

    def _sample(self, signum, frame):
        # the cyclic collector is held off, so that it never runs inside a sample
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter()))
        if enabled:
            gc.enable()
        # one-shot, re-armed after the kernel: a handler never interrupts
        # itself, and a signal handled while leaving arms no new timer
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self):
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start, end):
        """(program seconds at the reference speed, program wall seconds)."""
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        durations = [t1 - t0 for t0, t1 in self.samples]
        first = self.samples.index(inside[0]) if inside else None
        scaled = wall = 0.0
        edge = start
        for n, (t0, t1) in enumerate(inside + [(end, end)]):
            stretch = t0 - edge
            edge = t1
            if first is None:
                around = durations or [self.reference]
            else:
                i = first + n      # the sample that ends this stretch
                around = durations[max(0, i - WINDOW):i + WINDOW]
            scaled += stretch * self.reference / statistics.median(around)
            wall += stretch
        return scaled, wall
