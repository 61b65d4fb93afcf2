"""Measurement helpers: percentiles, ``/proc`` readers, CPU pinning and the
host-speed probe that normalises times."""

from __future__ import annotations

import ctypes
import gc
import math
import os
import statistics
import time

#: the percentile ladder the tail report climbs; a rung is reported only
#: when at least :data:`TAIL_MIN_BEYOND` samples lie beyond it
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10
#: :func:`chunked_percentile` cuts a window into at most this many chunks
#: (a tenth of a second each in a 15 s run), each holding at least
#: ``MIN_CHUNK`` samples so that its p99 has ten samples beyond it.  On a
#: shared host, stalls of a few milliseconds come and go; the median over
#: short chunks keeps the tail of a typical stretch instead of whichever
#: stalls one run happened to catch.
MAX_CHUNKS = 150
MIN_CHUNK = 1000

#: a timed window runs a host-speed probe (:func:`probe`) every
#: ``SEGMENT_S`` seconds on each CPU it uses
SEGMENT_S = 0.02
#: rounds of :func:`reference` in one probe, about half a millisecond, and
#: the untimed rounds before them
PROBE_ROUNDS = 2000
PROBE_WARMUP_ROUNDS = 2000
#: host-normalised time reads as if every probe had taken this long; it is
#: roughly the probe's median on the 2-vCPU host the benchmark was tuned on
PROBE_NOMINAL_S = 0.0005
#: probes timed right before and right after each set-up
SETUP_PROBES = 40
_PROBE_TABLE = tuple(range(1000, 1256))

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``pct`` in 0..100)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least 10 samples beyond it.

    With ``count`` samples, percentile ``p`` has ``count * (1 - p/100)``
    samples above its rank; the rule keeps the highest rung where that is
    at least :data:`TAIL_MIN_BEYOND`.  ``None`` when even the median has
    fewer than ten samples beyond it (fewer than 20 samples).
    """
    best = None
    for pct in TAIL_LADDER:
        # integer arithmetic on thousandths of a percent avoids 0.1-style
        # float error deciding a boundary case such as 1000 samples at p99
        beyond = count * (100_000 - round(pct * 1000))
        if beyond >= TAIL_MIN_BEYOND * 100_000:
            best = pct
    return best


def chunked_percentile(values, pct: float) -> tuple[float, int]:
    """``(median of per-chunk percentiles, chunk count)`` of a time series.

    ``values`` are in the order they were measured.  They are cut into up
    to :data:`MAX_CHUNKS` consecutive chunks of at least
    :data:`MIN_CHUNK` samples (one chunk when there are fewer), each
    chunk's nearest-rank percentile is taken, and the median of those is
    returned: a stall that fills one chunk moves the result by one rank
    instead of deciding the whole tail.
    """
    chunks = max(1, min(MAX_CHUNKS, len(values) // MIN_CHUNK))
    size = len(values) // chunks
    per_chunk = [
        percentile(sorted(values[index * size : (index + 1) * size]), pct)
        for index in range(chunks)
    ]
    return statistics.median(per_chunk), chunks


def reference(rounds: int = PROBE_ROUNDS) -> int:
    """A fixed pure-Python loop: integer arithmetic, dict and list work.

    Its data is small (a 256-entry table, a 64-key dict), so that a short
    warm-up brings all of it back into the caches, and it allocates no
    object the garbage collector tracks, so that it never triggers a
    collection over the program's heap.
    """
    table = _PROBE_TABLE
    seen = {}
    pending = []
    x = 1
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFF
        seen[x & 63] = table[x]
        pending.append(x)
        if len(pending) == 64:
            pending.sort()
            pending.clear()
    return len(seen)


def probe() -> float:
    """Seconds one :func:`reference` run takes on this CPU now.

    An untimed warm-up run first refills the caches the program under test
    evicted; without it the probe would time that refill, and the factor
    would move with the program's memory footprint.
    """
    reference(PROBE_WARMUP_ROUNDS)
    clock = time.perf_counter
    start = clock()
    reference()
    return clock() - start


def probe_burst(count: int = SETUP_PROBES) -> list[float]:
    """``count`` probes in a row, for work that cannot be interleaved with
    probes (one long library call, such as a set-up's encode)."""
    return [probe() for _ in range(count)]


def host_factor(probes) -> float:
    """``PROBE_NOMINAL_S`` over the mean of ``probes`` (seconds each).

    On a shared host the speed of one CPU drifts by tens of percent within
    seconds, as other tenants come and go on its core and caches, and by
    up to a factor of two over hours.  The short fixed :func:`reference` loop,
    timed every ``SEGMENT_S`` on the same CPU during a window, slows down
    with it.  A wall time times this factor is host-normalised: the time
    the work would have taken had the host run the reference at its
    nominal speed.  A change to the program moves wall time and leaves the
    probes alone, so it shows in full.
    """
    return PROBE_NOMINAL_S / statistics.fmean(probes)


def proc_cpu_seconds(pid: int | str = "self") -> float:
    """utime + stime of a process from ``/proc/<pid>/stat``, in seconds."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read()
    # the command name may contain spaces and parentheses: split after the
    # last ')' — the fields that follow start at field 3 (state)
    fields = data.rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_rss_bytes(pid: int | str = "self") -> int:
    """VmRSS of a process from ``/proc/<pid>/status``, in bytes."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmRSS:"):
                return int(line.split()[1]) * 1024
    raise OSError(f"no VmRSS line for process {pid}")


def release_free_memory() -> None:
    """Collect garbage and return free heap pages to the OS (glibc only)."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: freed pages stay mapped
        pass


def choose_cpus() -> tuple[int, int]:
    """``(benchmark_cpu, server_cpu)``: two distinct CPUs when allowed.

    With a single allowed CPU both sides share it; the environment record
    printed with every result shows that.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[1] if len(allowed) > 1 else allowed[0]


def pin(pid: int, cpu: int) -> None:
    """Restrict process ``pid`` (0 = this process) to one CPU."""
    os.sched_setaffinity(pid, {cpu})
