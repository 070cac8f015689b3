"""Clocks, order statistics, memory and provenance shared by the workloads."""

import os
import platform
import resource
import statistics
import sys
import time
from time import perf_counter

import numpy as np


def wait_until(deadline):
    """Sleep most of the way, then spin, so a due time is met within microseconds."""
    while True:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            return
        if remaining > 0.002:
            time.sleep(remaining - 0.001)


def median(values):
    return float(statistics.median(values))


# Other tenants of a shared host slow the CPU for stretches of seconds to
# minutes. Over 30 s windows of one fixed job on a 2-vCPU VM, the median time
# ranged over 24.9-39.6 ms while the 5th percentile ranged over 23.0-25.1 ms.
# Throughput is therefore taken at the 5th percentile of many short samples:
# the program's speed when the host leaves it alone, which is what a change
# to the program can move.
UNCONTENDED_PERCENTILE = 5


def uncontended(times, percentile=UNCONTENDED_PERCENTILE):
    """The low-percentile (by default 5th) duration of a list of sample durations."""
    return float(np.percentile(np.asarray(times, dtype=float), percentile))


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); the value is the 11th largest
    sample, so exactly ten lie beyond it. None when fewer than 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_info():
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance():
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }
