"""How fast the machine ran, sampled through the whole run.

On a shared machine the same call can take 70 % longer in one minute than
in another, in CPU time as well as in wall time, because other tenants
slow the processor down.  Timings are therefore expressed in reference
seconds: the time the call would have taken on a machine that runs a fixed
pure-Python kernel in exactly REF_S.

While the probe runs, SIGALRM fires every PERIOD seconds and its handler
runs the kernel twice and times the second pass, which finds the kernel's
code and data in the caches again.  The handler runs in the benchmark's only
thread, between bytecodes of whatever is running, so it measures the
processor the program runs on at the moments it runs.  `clock()` leaves
the handler's own time out, so a call timed with it is not charged for the
samples taken during it.  After a section ends,
`reference_seconds(start, seconds)` divides a timed interval by the median
kernel time sampled in and around it.

    speed.start()
    t0 = speed.clock(); work(); t = speed.clock() - t0
    speed.stop()
    ref = speed.reference_seconds(t0, t)
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Kernel time on the reference machine; this machine takes about as long
#: when nothing else loads it.
REF_S = 0.001
#: Seconds between samples; the handler takes about 2 % of the run.
PERIOD = 0.1
#: Samples this far on each side of an interval count towards its speed, and
#: at least MIN_SAMPLES are used.
MARGIN_S = 0.5
MIN_SAMPLES = 9

_times: list = []  # clock() at the middle of each sampled pass, ascending
_costs: list = []  # kernel seconds of each pass
_paused = 0.0  # handler seconds so far, left out of clock()
_previous = None  # the SIGALRM handler before start()


def kernel() -> int:
    """A fixed amount of interpreter work, about 1 ms here."""
    s = 0
    for i in range(16_000):
        s += i * i % 7
    return s


def _tick(signum, frame):
    global _paused
    entered = time.perf_counter()
    kernel()  # refills the caches the program took over; not timed
    begin = time.perf_counter()
    kernel()
    end = time.perf_counter()
    _times.append((begin + end) / 2 - _paused)
    _costs.append(end - begin)
    _paused += time.perf_counter() - entered


def clock() -> float:
    """perf_counter() without the time spent taking samples."""
    return time.perf_counter() - _paused


def start() -> None:
    """Sample from now on; forget earlier samples."""
    global _previous, _paused
    _times.clear()
    _costs.clear()
    _paused = 0.0
    _previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop() -> None:
    """Stop sampling and put the earlier SIGALRM handler back."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if _previous is not None:
        signal.signal(signal.SIGALRM, _previous)


def kernel_seconds(begin: float, end: float) -> float:
    """Median kernel time over the samples in [begin, end] widened by
    MARGIN_S each side, or the MIN_SAMPLES nearest ones."""
    if not _costs:
        return REF_S
    lo = bisect.bisect_left(_times, begin - MARGIN_S)
    hi = bisect.bisect_right(_times, end + MARGIN_S)
    while hi - lo < min(MIN_SAMPLES, len(_times)):
        if lo > 0:
            lo -= 1
        if hi < len(_times) and hi - lo < MIN_SAMPLES:
            hi += 1
    return statistics.median(_costs[lo:hi])


def reference_seconds(begin: float, seconds: float) -> float:
    """A clock() interval in reference seconds."""
    return seconds * REF_S / kernel_seconds(begin, begin + seconds)


def summary() -> dict:
    """The kernel's median time and quartiles over the run, for the record."""
    if len(_costs) < 2:
        return {"samples": len(_costs)}
    q1, q2, q3 = statistics.quantiles(_costs, n=4)
    return {"samples": len(_costs), "kernel_q1_s": q1, "kernel_median_s": q2, "kernel_q3_s": q3}
