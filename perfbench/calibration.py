"""Rescaling of measured times by the speed of the core they ran on.

On shared 2-core x86-64 hosts the speed of one core drifts by up to 2x
within seconds to minutes, with CPU time equal to wall time, so nothing in
the guest sees the cause.  Wall-clock figures then move with the host more
than with the program.  In two sets of ten runs (seeds 11-20, 20 s a run)
of the same job code on such a host, the quartile spread of wall-clock
``records_per_s`` was 29% and 41% on ``sort_score_name`` and 21% and 34% on
``encode_nested``, and the two sets' medians were 26% apart on
``sort_score_name``.  Rescaled as below, the second set's spreads were 2.6%
and 2.9%, and a third set on seeds 21-30 had medians within 3.3% of it on
both workloads.

A ``Probe`` therefore samples the core's speed around, and optionally
during, the timed code: each sample times ``STEPS`` steps of a fixed
arithmetic loop.  ``Probe.scale`` removes the in-job samples' own time from
the wall time and rescales the rest to a core that runs the loop at
``REFERENCE_RATE``.  Program changes move the scaled times exactly as they
move wall time; drifts of the core largely cancel.  The wall times are
printed beside the scaled ones.

Only ``signal`` and ``time`` are imported, so that timing ``import tsokey``
after importing this module still counts every module tsokey pulls in.
"""

import signal
import time

STEPS = 4000
# The unit of every scaled time: a core that runs the loop at this rate.
# Any fixed value would do; this one is near the loop's rate on a 2-core
# shared x86-64 host, so that scaled and wall figures come out of one size.
REFERENCE_RATE = 3_000_000  # loop steps per second
_DATA = bytes(range(256))


def _sample() -> float:
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(STEPS):
        acc = (acc * 31 + _DATA[i & 255]) & 0xFFFFFFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


class Probe:
    """Context manager sampling core speed around the timed code.

    One sample is taken on entry and one on exit, outside the timed code, so
    even short code gets a speed estimate.  With an ``interval``, a SIGALRM
    handler also samples every ``interval`` seconds inside it; ``scale``
    takes those samples' time back out.
    """

    def __init__(self, interval: float = 0.0):
        self.interval = interval
        self.edges: list[float] = []
        self.inside: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append(_sample())

    def __enter__(self):
        self.edges.append(_sample())
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.edges.append(_sample())

    def scale(self, elapsed: float) -> float:
        """elapsed, net of in-job samples, at the reference speed."""
        samples = self.edges + self.inside
        seconds_per_sample = sum(samples) / len(samples)
        return (elapsed - sum(self.inside)) * (STEPS / REFERENCE_RATE) / seconds_per_sample
