"""The scan kernel: every (config, level) histogram of a corpus file in one pass.

Only the verbs that scan a corpus, analyze and compare, import this module.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import stat
import tempfile
from functools import partial
from itertools import compress
from operator import add
from typing import Callable

from . import corpus
from .corpus import NAME_END, read_names
from .stats import Histogram, joint_bucket_count
from .strategies import _md5
from .workers import _forked, _receive, _send, _worker_count

_PARALLEL_MIN_BYTES = 4 << 20


# Kernel loops: one per strategy spec, at the deepest level asked of it. Each
# adds a block of names, as read_names() yields them, to the spec's tallies:
# tallies[level] counts each name reaching `level` at the row-major joint
# index linear_index() gives its placement there. If the config's index rule
# truncates, tallies[k], k < level, counts each name of exactly k + 1
# characters, too short to reach `level`, at its own level-k index; otherwise
# they stay empty lists. A loop's source is unrolled, one term per level with
# every modulus, stride and table inlined, and compiled once per scan.
# The per-name placement functions stay as the reference they must match.

def _build_loop(config, level: int) -> tuple[Callable[[list[bytes]], None], list[list[int]]]:
    """(loop over a block of names, the dense tallies it fills) for one spec at `level`."""
    rule, moduli = config.index_rule, config.level_moduli
    tallies = [[0] * joint_bucket_count(moduli, k) if rule.truncates or k == level else []
               for k in range(level + 1)]
    space = {"md5": _md5, **{f"c{k}": tally for k, tally in enumerate(tallies)}}

    def index(deepest: int) -> str:
        """The source of a name's joint index at level `deepest`."""
        terms, stride = [], 1
        for k in range(deepest, -1, -1):
            m = moduli[k]
            operand = rule.operand.format(k=k, drop="".join(f" - b[{j}]" for j in range(k)))
            if rule.table is not None:
                table = f"t{m}_{stride}"
                if table not in space:
                    space[table] = [rule.table(byte, m) * stride for byte in range(256)]
                terms.append(f"{table}[{operand}]")
            else:
                terms.append(f"{operand} % {m}" + (f" * {stride}" if stride > 1 else ""))
            stride *= m
        return " + ".join(reversed(terms))

    body = [rule.prelude.format(end=sum(NAME_END))] if rule.prelude else []
    if rule.truncates and level:
        for k in range(level, 0, -1):  # a name of more than k characters reaches level k
            body += [f"{'if' if k == level else 'elif'} len(b) > {k + len(NAME_END)}:",
                     f"    c{k}[{index(k)}] += 1"]
        body += ["else:", f"    c0[{index(0)}] += 1"]
    else:
        body.append(f"c{level}[{index(level)}] += 1")
    source = "\n".join([f"def loop(names, {', '.join(f'{n}={n}' for n in space)}):",
                        "    for b in names:", *(f"        {line}" for line in body)])
    exec(compile(source, f"<{type(config).__name__} loop at level {level}>", "exec"), space)
    return space["loop"], tallies


def _scan_chunk(path: str, start: int, end: int | None, before: int, loops,
                report) -> tuple[list[list[list[int]]], int]:
    """One pass over a byte range, after `before` lines: each loop's tallies, and its reject count.

    Runs each _build_loop() loop over the range's names, and returns the
    tallies they fill. An `end` of None reads to the end of the file. A
    range from 0 opens the file once, so a pipe or a FIFO can be scanned.

    Writes `line N: reason` for each rejected line to the text stream
    `report` as it goes, N counted from the file's first line, one joined
    write per block, and returns the number of rejected lines.
    """
    rejected = 0
    for names, rejects in read_names(path, start, end, before + 1):
        for loop, _ in loops:
            loop(names)
        if rejects:  # a line-buffered stream writes once per newline, unless joined
            report.write("".join([f"line {number}: {reason}\n" for number, reason in rejects]))
            rejected += len(rejects)
    return [tallies for _, tallies in loops], rejected


def _levels(tallies: list[list[int]], moduli: tuple[int, ...], lowest: int) -> dict[int, Histogram]:
    """A spec's histograms at levels lowest..L, from its tallies at its deepest level L.

    Level l's joint index is level l+1's divided by level l+1's modulus, so
    each level-l bucket sums one row-major run of that many level-(l+1)
    buckets, plus the names that stop at level l. The names too short to
    reach level l are its skipped.
    """
    deepest = len(tallies) - 1
    totals = [sum(tally) for tally in tallies]
    skipped = sum(totals[:-1])
    levels = {deepest: Histogram(tallies[-1], totals[-1], skipped)}
    for level in range(deepest - 1, lowest - 1, -1):
        deeper, tally, run = levels[level + 1].counts, tallies[level], moduli[level + 1]
        counts = [sum(deeper[i:i + run]) for i in range(0, len(deeper), run)]
        if tally:  # md5's are empty
            counts = list(map(add, counts, tally))
        skipped -= totals[level]
        levels[level] = Histogram(counts, sum(counts), skipped)
    return levels


def _plan_chunks(path: str, workers: int) -> list[tuple[int, int, int]]:
    """Newline-aligned (start, end, lines before start) byte ranges covering the file.

    Each range but the first starts just past the first newline at or after
    an even share of the file. One read up to the last such newline, in
    blocks of corpus._BLOCK bytes, finds them and counts the lines before.
    """
    size = os.path.getsize(path)
    cuts = [size * i // workers for i in range(1, workers)]
    starts = [(0, 0)]
    at = lines = 0  # the offset of the block in hand, and the lines before it
    with open(path, "rb") as handle:
        while cuts and (block := handle.read(corpus._BLOCK)):
            while cuts and (newline := block.find(b"\n", max(cuts[0] - at, 0))) >= 0:
                start = at + newline + 1
                if starts[-1][0] < start < size:
                    starts.append((start, lines + block.count(b"\n", 0, newline + 1)))
                del cuts[0]
            lines += block.count(b"\n")
            at += len(block)
    ends = [start for start, _ in starts[1:]] + [size]
    return [(start, end, before) for (start, before), end in zip(starts, ends)]


def _scan(path: str, pairs, report) -> list[Histogram]:
    """Histogram a corpus file once for every (config, level) pair.

    Scans each distinct config, a spec, once at its deepest level, and
    folds it down to its shallowest; configs compare by value. Writes each
    rejected line's `line N: reason` to the text stream `report` in file
    order, as the scan goes, then `N lines rejected` if any were. Returns
    the histograms, in pair order.
    """
    spans: dict[object, tuple[int, int]] = {}  # (shallowest, deepest) level
    for config, level in pairs:
        low, high = spans.get(config, (level, level))
        spans[config] = min(low, level), max(high, level)
    tallies, rejected = _scan_specs(path, [(config, high) for config, (_, high) in spans.items()],
                                    report)
    if rejected:
        report.write(f"{rejected} lines rejected\n")
    levels = {config: _levels(spec_tallies, config.level_moduli, low)
              for (config, (low, _)), spec_tallies in zip(spans.items(), tallies)}
    return [levels[config][level] for config, level in pairs]


def _scan_specs(path: str, specs, report) -> tuple[list[list[list[int]]], int]:
    """The tallies of every (config, level) spec over a corpus file, and its reject count.

    Builds each spec's loop, and plans the chunks, before any work starts.
    Splits a regular file into chunks when worthwhile: a forked child scans
    each chunk but the first, which this process scans meanwhile, reporting
    its rejects straight to `report`. A child inherits the loops, and its
    own copy of their tallies. Each child writes its report to its own
    anonymous temp file, already numbered from the file's first line.
    The per-chunk tallies are summed, and the reports copied, in chunk
    order. Anything else, such as a pipe or a FIFO, is read by this process
    alone, from one open to its end.
    """
    info = os.stat(path)
    workers = _worker_count(info.st_size >= _PARALLEL_MIN_BYTES)  # warns alike for any file
    if stat.S_ISREG(info.st_mode):
        first, *rest = _plan_chunks(path, workers)
    else:  # it cannot seek, and its size says nothing
        first, rest = (0, None, 0), []
    loops = [_build_loop(config, level) for config, level in specs]
    # Unwinds last in, first out: every child is killed and reaped, then its
    # report closed. Each report is unlinked at creation, so none outlives the scan.
    with contextlib.ExitStack() as stack:
        reports = [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", errors="surrogateescape", newline="")) for _ in rest]
        pipes = stack.enter_context(_forked([partial(_send_chunk, path, *chunk, loops, chunk_report)
                                             for chunk, chunk_report in zip(rest, reports)]))
        tallies, rejected = _scan_chunk(path, *first, loops, report)
        for pipe, (start, end, _), chunk_report in zip(pipes, rest, reports):
            lost = f"the worker scanning bytes {start}..{end} of {path} exited without a result"
            partials, partial_rejected = _receive(pipe, lost)
            for spec, sparse in zip(tallies, partials):
                for tally, (indices, counts) in zip(spec, sparse):
                    for i, count in zip(indices, counts):
                        tally[i] += count
            chunk_report.seek(0)
            shutil.copyfileobj(chunk_report, report)
            rejected += partial_rejected
    return tallies, rejected


def _send_chunk(path: str, start: int, end: int, before: int, loops, report, pipe) -> None:
    """In a forked child: scan one chunk and send its result to `pipe`.

    Writes the chunk's reject report to the text file `report`, then sends
    the tallies and reject count of _scan_chunk() on the chunk as one
    frame, with each tally sparse, as (indices, counts) of its nonzero
    buckets.
    """
    tallies, rejected = _scan_chunk(path, start, end, before, loops, report)
    report.flush()
    _send(pipe, ([[(list(compress(range(len(t)), t)), list(filter(None, t))) for t in spec]
                  for spec in tallies], rejected))
