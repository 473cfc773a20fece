"""Forked workers, shared by the scan kernel and the corpus generator.

How many processes to split a job over, how to start and stop them, and
the one frame format a child sends its parent. It loads neither `signal`
nor `pickle`, unless a child fails: only os.fork, os.pipe and marshal.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys
from typing import BinaryIO, Callable, Iterable, Iterator

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


def _send(pipe: BinaryIO, value) -> None:
    """Write one frame to `pipe`: an 8-byte little-endian length, then `value` marshalled."""
    payload = marshal.dumps(value)
    pipe.write(len(payload).to_bytes(8, "little", signed=True))
    pipe.write(payload)  # not joined to the header: a scan's payload can run to megabytes
    pipe.flush()


def _receive(pipe: BinaryIO, lost: str):
    """The value of the next frame on `pipe`; ChildProcessError(lost) if it is cut short.

    An error frame, marked by a negative length, holds a pickled exception to raise.
    """
    header = pipe.read(8)
    size = int.from_bytes(header, "little", signed=True)
    payload = pipe.read(abs(size))
    if len(header) < 8 or len(payload) < abs(size):
        raise ChildProcessError(lost)
    if size >= 0:
        return marshal.loads(payload)
    import pickle  # here, not at module level: only a failed child needs it
    raise pickle.loads(payload)


def _fork(work: Callable[[BinaryIO], None]) -> tuple[int, BinaryIO]:
    """Fork a child that runs work(pipe) on the write end of a new pipe: (pid, read end).

    If `work` raises, the child's last frame is an error frame. It leaves by os._exit,
    so it never returns, flushes the stdio buffers it inherited or runs exit handlers.
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
        return pid, open(read_end, "rb")
    try:
        os.close(read_end)  # so a write fails, not blocks, once the parent closes its end
        with open(write_end, "wb") as pipe:
            try:
                work(pipe)
            except BaseException as exc:
                import pickle
                payload = pickle.dumps(exc)
                pickle.loads(payload)  # one the parent could not load is sent as no frame at all
                pipe.write((-len(payload)).to_bytes(8, "little", signed=True) + payload)
    finally:
        os._exit(0)


@contextlib.contextmanager
def _forked(works: Iterable[Callable[[BinaryIO], None]]) -> Iterator[list[BinaryIO]]:
    """Fork a child for each work with _fork(), and yield their read ends in order.

    However the block ends, every child is killed, its pipe closed and the child reaped.
    """
    children: list[tuple[int, BinaryIO]] = []
    try:
        for work in works:
            children.append(_fork(work))
        yield [pipe for _, pipe in children]
    finally:
        for pid, pipe in children:
            os.kill(pid, _SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
