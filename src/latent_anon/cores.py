"""The cores in the process's CPU affinity, for work large enough to split.

CORES counts them at import (the machine's cores where the platform has no
affinity call); the CLI's attack runs that many attack runs at once.

One thread pool of one worker fewer than those cores serves the whole
process: the row blocks of a large batch's model call (nn.layers.MLP) and an
artefact's CRC32 beside its file I/O (container). The work it runs is numpy,
BLAS and zlib calls that release the GIL. The pool starts on first use,
never at import; a process with one core never starts it, and a process
forked from one that has it starts its own.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

try:
    CORES = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on macOS or Windows
    CORES = os.cpu_count() or 1
_pool = None
_lock = threading.Lock()


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool():
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(CORES - 1, thread_name_prefix="latent-anon")
        return _pool


def submit(fn, *args):
    """fn(*args) started on the pool: its Future, or None when the process
    has one core and the caller should run fn itself."""
    return None if CORES < 2 else _get_pool().submit(fn, *args)


def map_rows(fn, x, out, blocks):
    """fn(x[a:b], out[a:b]) over `blocks` contiguous row blocks of x. The
    caller's thread runs the first block and the pool the others. Returns out
    once every block has finished; the caller's error, else the first
    failing block's, is raised only then."""
    edges = [len(x) * k // blocks for k in range(blocks + 1)]
    pool = _get_pool()
    futures = [pool.submit(fn, x[a:b], out[a:b]) for a, b in zip(edges[1:-1], edges[2:])]
    try:
        fn(x[: edges[1]], out[: edges[1]])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return out


def blocks(rows, work, floor):
    """How many row blocks a batch of `rows` rows and `work` multiply-adds
    splits into: one per `floor` multiply-adds, at most one per row and one
    per core. Below 2 the caller runs the batch as one call."""
    return min(CORES, rows, work // floor)
