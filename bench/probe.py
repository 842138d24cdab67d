"""Machine-speed probe and the clock that scales each piece of work by it.

Other tenants of a shared machine slow this process by a third or more, in
phases that last from seconds to minutes; the process's CPU time grows with
its wall time, so the slowdown is contention for the cores themselves, not
time spent descheduled.  A fixed piece of reference work, run just before and
just after each piece of the workload, runs in the same phase and slows by
about as much.  A piece's time scaled by ``REFERENCE_S`` over the probe's
time is what the piece would take on the machine when the probe takes
``REFERENCE_S``.  In a 90-second tuning run of ``encode`` on a two-core shared
machine, per-piece medians of wall time moved by up to 45% between thirds of
the run, and of scaled time by 2%.

Contention slows pure Python and numpy kernels by different amounts, so the
probe does the kind of work the workload does.  For a workload that runs
``ndnn`` it is half pure Python (tokenizing and counting, like ``pylex`` and
``vocab``) and half numpy (a windowed einsum and a window max, like
``conv1d`` and ``max_pool1d``); for one that does not, it is pure Python
only.  On ``encode``, which runs no ``ndnn``, the half-numpy probe left ten
runs spread by 13%, because it slowed less than the workload in slow phases.
The probe calls nothing in ``clcp``, so no change to the program moves it.
"""
from __future__ import annotations

import io
import time
import tokenize

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: The probe's time, in seconds, on the reference machine: the scaled times
#: are in seconds of that machine.  It is a round figure near the probe's
#: median time on the shared two-core x86_64 machine of the first baseline
#: (Python 3.11, numpy 2.4, OpenBLAS with one thread).
REFERENCE_S = 0.004

_SOURCE = "".join(
    f"def f{i}(x, y={i}):\n    '''doc {i}'''\n    z = [x * y + {i} for _ in range(3)]\n"
    f"    return {{'k{i}': z, 'v': x.attr_{i % 7}(y)}}\n\n" for i in range(12))


class SpeedProbe:
    """Times one run of fixed reference work; inputs are built once.

    With ``numpy`` false the numpy half is replaced by a second pass of the
    Python half, so both kinds take about ``REFERENCE_S``.
    """

    def __init__(self, numpy=True):
        self.numpy = numpy
        rng = np.random.default_rng(0)   # its own generator: the global one is untouched
        self._x = rng.standard_normal((4, 32, 256)).astype(np.float32)
        self._w = rng.standard_normal((32, 32, 3)).astype(np.float32)
        for _ in range(3):               # warm imports and allocator
            self()

    def __call__(self):
        start = time.perf_counter()
        self._python()
        if self.numpy:
            win = sliding_window_view(self._x, 3, axis=2)
            out = np.einsum("bilk,oik->bol", win, self._w, optimize=True)
            pairs = sliding_window_view(out, 2, axis=2)[:, :, ::2]
            pairs.max(axis=3)
            pairs.argmax(axis=3)
        else:
            self._python()
        return time.perf_counter() - start

    @staticmethod
    def _python():
        counts = {}
        for tok in tokenize.generate_tokens(io.StringIO(_SOURCE).readline):
            counts[tok.string] = counts.get(tok.string, 0) + 1


class PieceClock:
    """Times consecutive pieces of work, probing the machine at each boundary.

    ``start()`` probes and begins the first piece; each ``mark(key, items)``
    ends the current piece, probes, and begins the next.  Every sample is
    ``(key, items, seconds, probe_seconds)``, the probe time being the mean
    of the probes on either side of the piece; probe time is in no piece.
    """

    def __init__(self, probe):
        self.probe = probe
        self.samples = []

    def start(self):
        self._before = self.probe()
        self._start = time.perf_counter()

    def mark(self, key, items):
        seconds = time.perf_counter() - self._start
        after = self.probe()
        self.samples.append((key, items, seconds, (self._before + after) / 2))
        self._before = after
        self._start = time.perf_counter()


def scaled(seconds, probe_seconds):
    """``seconds`` as measured, in seconds of the reference machine."""
    return seconds * REFERENCE_S / probe_seconds
