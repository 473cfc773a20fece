"""In-process tracing of the shardbench layers, from outside the package.

`Tracer.install()` replaces each traced public function, in every loaded
`shardbench` module that binds it, with a wrapper that records a span: the
span's name, start, end and parent (the span open when it began). Generator
functions get one span per resume, so the time a consumer spends between
items is not charged to the generator. Spans are held in flat arrays in
memory and summarised when the call ends; a span's self time is its
duration minus the durations of its child spans.

Worker processes forked while a tracer is installed record nothing: a fork
hook switches the wrappers off in the child, so only the calling process's
spans (scan glue, merges, stats) are kept.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import sys
import time
from array import array

# (module, function, span name). The CLI scans through its own range reader,
# `cli._iter_range`; `corpus.load_corpus` is the library's reader. Both are
# the read-and-decode layer, and both are traced so whichever one the scan
# calls is measured.
TRACED = [
    ("shardbench.corpus", "generate_corpus", "corpus.generate_corpus"),
    ("shardbench.corpus", "load_corpus", "corpus.load_corpus"),
    ("shardbench.cli", "_iter_range", "cli._iter_range"),
    ("shardbench.model", "normalize_username", "model.normalize_username"),
    ("shardbench.strategies", "md5_placement", "strategies.md5_placement"),
    ("shardbench.strategies", "md5_digest", "strategies.md5_digest"),
    ("shardbench.strategies", "letter_placement", "strategies.letter_placement"),
    ("shardbench.strategies", "ascii_sum_placement", "strategies.ascii_sum_placement"),
    ("shardbench.stats", "build_histogram", "stats.build_histogram"),
    ("shardbench.stats", "build_mapping_histogram", "stats.build_mapping_histogram"),
    ("shardbench.stats", "merge_histograms", "stats.merge_histograms"),
    ("shardbench.stats", "compute_stats", "stats.compute_stats"),
]
ROOT = "cli.main"


class Tracer:
    """Spans of one traced call, in flat arrays indexed by span number."""

    def __init__(self) -> None:
        self.names = [ROOT] + [span for _, _, span in TRACED]
        self.name_id = array("B")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = [0] * len(self.names)
        self.stack: list[int] = []
        self.active = [True]

    def wrap(self, fn, name: str):
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, raised, active, clock = self.stack, self.raised, self.active, time.perf_counter

        def begin() -> int:
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def finish(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        if not active[0]:
                            yield from inner
                            return
                        i = begin()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        except Exception:
                            raised[nid] += 1
                            raise
                        finally:
                            finish(i)
                        yield item
                finally:
                    inner.close()
            return traced_gen

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            i = begin()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised[nid] += 1
                raise
            finally:
                finish(i)
        return traced

    @contextlib.contextmanager
    def install(self):
        """Swap the traced functions for wrappers in every shardbench module."""
        patches = []
        for module_name, attr, span in TRACED:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                continue  # the layer is gone; its span records nothing
            wrapper = self.wrap(fn, span)
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "shardbench"]:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, key, fn))
                        setattr(module, key, wrapper)
        active = self.active  # the hook outlives the tracer, so it holds only the flag
        os.register_at_fork(after_in_child=lambda: active.__setitem__(0, False))
        try:
            yield
        finally:
            self.active[0] = False
            for module, key, fn in reversed(patches):
                setattr(module, key, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds, span count and raised count."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = {name: {"incl": 0.0, "self": 0.0, "count": 0, "raised": self.raised[k]}
                  for k, name in enumerate(self.names)}
        for i in range(n):
            entry = totals[self.names[self.name_id[i]]]
            duration = end[i] - start[i]
            entry["incl"] += duration
            entry["self"] += duration - child[i]
            entry["count"] += 1
        return totals


def rchar() -> tuple[int, int]:
    """(bytes this process has read so far, bytes this reading itself adds)."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        data = os.read(fd, 4096)
    finally:
        os.close(fd)
    for line in data.split(b"\n"):
        if line.startswith(b"rchar:"):
            return int(line.split()[1]), len(data)
    raise RuntimeError("/proc/self/io has no rchar line")


@contextlib.contextmanager
def _environ(threads: str | None):
    saved = os.environ.pop("SHARDBENCH_THREADS", None)
    if threads is not None:
        os.environ["SHARDBENCH_THREADS"] = threads
    try:
        yield
    finally:
        os.environ.pop("SHARDBENCH_THREADS", None)
        if saved is not None:
            os.environ["SHARDBENCH_THREADS"] = saved


def call_main(argv: list[str], threads: str | None, tracer: Tracer | None = None) -> dict:
    """Run `shardbench.cli.main(argv)` in this process, traced if a tracer is given.

    Returns the exit code, captured stdout and stderr as bytes, the wall time
    and the bytes the call read.
    """
    from shardbench import cli

    out, err = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap(cli.main, ROOT)
    installed = tracer.install() if tracer is not None else contextlib.nullcontext()
    with _environ(threads), installed, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        read_before, own = rchar()
        began = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - began
        read_after, _ = rchar()
    return {"code": code, "stdout": out.getvalue().encode("utf-8"),
            "stderr": err.getvalue().encode("utf-8"), "wall": wall,
            "read": read_after - read_before - own}
