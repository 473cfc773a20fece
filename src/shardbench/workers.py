"""Forked workers, shared by the scan kernel and the corpus generator.

How many processes to split a job over, and how to start and stop one.
It loads neither `signal` nor `pickle`: only os.fork and os.pipe.
"""

from __future__ import annotations

import os
import sys
from typing import BinaryIO, Callable

_MAX_AUTO_WORKERS = 8
_WORKERS_PER_CPU = 4  # cap on an explicit SHARDBENCH_THREADS, per CPU
_SIGKILL = 9  # signal.SIGKILL on every POSIX system, which os.fork needs


def _threads_setting() -> int:
    """The workers SHARDBENCH_THREADS asks for, capped per CPU; 0 unless a positive integer."""
    raw = os.environ.get("SHARDBENCH_THREADS")
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        print(f"warning: ignoring non-integer SHARDBENCH_THREADS={raw!r}", file=sys.stderr)
        return 0
    cap = _WORKERS_PER_CPU * (os.cpu_count() or 1)
    if value > cap:
        print(f"warning: capping SHARDBENCH_THREADS={value} at {cap} "
              f"({_WORKERS_PER_CPU} per CPU)", file=sys.stderr)
        return cap
    return max(value, 0)


def _worker_count(large: bool = True) -> int:
    """The processes to split a job over, the caller included.

    SHARDBENCH_THREADS if it asks for workers; otherwise one per CPU, up to
    _MAX_AUTO_WORKERS, for a `large` job and 1 for any other. Always 1
    without os.fork.
    """
    workers = _threads_setting() or (min(os.cpu_count() or 1, _MAX_AUTO_WORKERS) if large else 1)
    return workers if hasattr(os, "fork") else 1


def _fork(work: Callable[[BinaryIO], None]) -> tuple[int, int]:
    """Fork a child that runs work(pipe) on the write end of a new pipe: (pid, read end).

    The child leaves by os._exit once `work` returns or raises: it never
    returns, never flushes the stdio buffers it inherited and never runs
    exit handlers.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    try:
        os.close(read_end)  # so a write fails, not blocks, once the parent closes its end
        with open(write_end, "wb") as pipe:
            work(pipe)
    finally:
        os._exit(0)


def _stop(children: list[tuple[int, int]]) -> None:
    """Kill each (pid, read end) child, close its pipe and reap it.

    A child that has already sent all it has is only ended sooner.
    """
    for pid, read_end in children:
        os.kill(pid, _SIGKILL)
        os.close(read_end)
        os.waitpid(pid, 0)
