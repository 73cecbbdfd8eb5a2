"""Machine speed, measured by a fixed probe task in the timed thread.

On a shared machine the same work can take 20-30% longer from one minute to
the next, and each core drifts on its own.  A probe of fixed pure-Python
work, run in the same thread as the timed work, slows down in step with it,
so a time divided by the probes' mean slowdown is the time the work would
have taken at the nominal probe speed.  Measured on 2 cores, seven
run_verification calls over (5,5,5) spread by 0.31 (quartile distance over
median) raw and by 0.05 normalized this way; eight jobs=2 calls over (10,10)
spread by 0.12 raw, 0.09 with probes in the calling process alone and 0.05
with probes in its pool workers too.
"""
from __future__ import annotations

import os
import signal
import struct
from contextlib import contextmanager
from statistics import fmean
from time import perf_counter_ns, thread_time_ns

PROBE_LOOPS = 5000
# the probe's CPU time at nominal speed; fixed, so results compare across runs
NOMINAL_PROBE_S = 0.002
# how often a timer interrupts a long call to take a probe sample
SAMPLE_EVERY_S = 0.05


def probe_ns() -> int:
    """Thread CPU time of one fixed piece of dict- and tuple-heavy work."""
    start = thread_time_ns()
    table: dict[tuple[int, int], int] = {}
    for i in range(PROBE_LOOPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return thread_time_ns() - start


class SpeedProbe:
    """Probe samples taken during one timed section, in this process and in
    any worker process it forks meanwhile."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0  # wall time this process spent probing
        self._from_workers: int | None = None  # read end of the workers' pipe

    def sample(self) -> None:
        start = perf_counter_ns()
        self.samples.append(probe_ns())
        self.spent_ns += perf_counter_ns() - start
        self._drain()

    def _drain(self) -> None:
        while self._from_workers is not None:
            try:
                data = os.read(self._from_workers, 1 << 16)
            except BlockingIOError:
                return
            if not data:
                return
            self.samples.extend(struct.unpack(f"{len(data) // 8}q", data))

    @property
    def slowdown(self) -> float:
        """Mean probe time over the nominal one: 1.2 means 20% slower.
        A section's time at nominal speed is its time over this."""
        return fmean(self.samples) / 1e9 / NOMINAL_PROBE_S

    @contextmanager
    def during(self):
        """Sample before the section and then every SAMPLE_EVERY_S inside it.

        The samples run from a SIGALRM handler, which Python executes in the
        main thread, so they share the timed code's core.  A process forked
        inside the section, such as a pool worker, starts its own timer and
        sends its samples back through a pipe; its probing stays in its time.
        """
        global _workers_pipe
        _install_fork_hook()
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)
        os.set_blocking(write_end, False)
        self._from_workers = read_end
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        _workers_pipe = write_end
        try:
            yield self
        finally:
            _workers_pipe = None
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._drain()
            self._from_workers = None
            os.close(read_end)
            os.close(write_end)


# where a forked child sends its samples; the fork hook, once installed,
# stays for the life of the process, so it acts only while a section is timed
_workers_pipe: int | None = None
_hooked = False


def _install_fork_hook() -> None:
    global _hooked
    if not _hooked:
        os.register_at_fork(after_in_child=_start_in_child)
        _hooked = True


def _start_in_child() -> None:
    write_end = _workers_pipe
    if write_end is None:
        return

    def report(signum, frame) -> None:
        try:
            os.write(write_end, struct.pack("q", probe_ns()))  # 8 bytes: one atomic write
        except OSError:
            pass  # pipe full or closed: the sample is dropped

    signal.signal(signal.SIGALRM, report)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
