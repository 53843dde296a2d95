"""Host-speed probe: adjusts measured seconds for the host's speed phases.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass, with the same exact counters, takes up to twice as long in a slow
phase as in a fast one, and phases last from seconds to minutes.  The probe
measures that speed while the work runs.  ``SpeedProbe`` samples a fixed
piece of pure-Python work (``probe_once``: a sparse product of two
six-term polynomials with ``Fraction`` coefficients, the kind of arithmetic
the library does) on a ``SIGALRM`` timer every ``PERIOD`` seconds, and once
when the interval starts and once when it ends.  Samples come at even time
steps, so the host's mean speed over the interval is the mean of the
samples' speeds ``1 / probe``, and their harmonic mean is the probe's mean
time.  A median would follow whichever phase covers more than half of the
interval.  ``adjust`` removes the probe's own time from a measured interval
and scales the rest:

    adjusted = (measured - probe time inside the interval) * PROBE_REF_S / harmonic mean

so an adjusted figure reads as seconds on a host on which the probe takes
``PROBE_REF_S``.  The probe uses only the standard library, so no change to
``superpds`` changes its time.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from statistics import harmonic_mean
from time import perf_counter

PERIOD = 0.01
# About the probe's time in a fast phase of the 2-core virtual machine on
# which the benchmark was defined; only the scale of adjusted figures
# depends on it.
PROBE_REF_S = 150e-6


def _factors():
    rng = random.Random(0)
    values = [Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**12)) for _ in range(12)]
    keys = [(rng.randrange(-3, 4), rng.randrange(-3, 4), i % 3) for i in range(12)]
    return dict(zip(keys[:6], values[:6])), dict(zip(keys[6:], values[6:]))


_P, _Q = _factors()


def probe_once():
    """Seconds taken by one product of the two fixed polynomials."""
    start = perf_counter()
    out = {}
    for (a, b, c), x in _P.items():
        for (d, e, f), y in _Q.items():
            key = (a + d, b + e, (c + f) % 3)
            out[key] = out.get(key, 0) + x * y
    return perf_counter() - start


class SpeedProbe:
    """Samples ``probe_once`` while the ``with`` block runs."""

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0  # probe time spent inside the block, on the timer
        self._previous = None

    def _on_timer(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe_once())
        self.inside_s += perf_counter() - start

    def __enter__(self):
        self.samples.append(probe_once())
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe_once())
        return False

    def mean_s(self):
        """The probe's mean time over the block (harmonic mean of the samples)."""
        return harmonic_mean(self.samples)

    def adjust(self, seconds):
        """``seconds`` measured inside the block, in seconds at ``PROBE_REF_S``."""
        return (seconds - self.inside_s) * PROBE_REF_S / self.mean_s()
