"""Command-line front end: corpus tooling, analysis, comparison, lookup."""

from __future__ import annotations

import argparse
import contextlib
import marshal
import os
import re
import stat
import sys
import tempfile
from operator import add
from typing import Callable, NamedTuple, Sequence

from .corpus import MODELS, NAME_END, CorpusSpec, generate_corpus, read_names
from .errors import ShardbenchError
from .layout import (
    DEFAULT_FANOUT_LIMIT,
    FanoutReport,
    fanout_report,
    letter_path,
    materialize_tree,
    md5_path,
)
from .model import ALPHABET, normalize_username
# build_histogram is the per-name oracle the scan kernel must match; it stays
# bound here so perfbench/spans.py traces the same names in every module.
from .stats import (  # noqa: F401
    DENSE_BUCKET_CAP,
    DistributionStats,
    Histogram,
    build_histogram,
    build_mapping_histogram,
    compute_stats,
    joint_bucket_count,
)
from .strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
    _md5,
    letter_placement,
    md5_placement,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_LIMIT = 5

_PARALLEL_MIN_BYTES = 4 << 20
_MAX_AUTO_WORKERS = 8
_WORKERS_PER_CPU = 4  # cap on an explicit SHARDBENCH_THREADS, per CPU
_REJECTS_PER_WRITE = 1024  # reject report lines joined per write; more raise peak RSS
_IDS_PATTERN = re.compile(r"^(\d+)\.\.(\d+)$")


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


# --- strategy table --------------------------------------------------------

def _parse_moduli(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--moduli expects comma-separated integers, got {text!r}") from None


def _parse_depth(text) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"letter spec expects an integer depth, got {text!r}") from None


def _parse_mapping(text: str) -> tuple[int, ...]:
    if not text:
        raise UsageError("mapping spec needs bucket_size,num_servers (e.g. mapping:50000,20)")
    parts = _parse_moduli(text)
    if len(parts) != 2:
        raise UsageError("mapping spec needs exactly bucket_size,num_servers")
    return parts


class _Strategy(NamedTuple):
    """What the verbs know of one strategy; each reads it here, not from its name.

    A strategy's payload is what its config is built from: an int for
    letter, a tuple otherwise. `default` is the payload its config class
    defaults to. `flag` is the --levels/--moduli flag that carries the
    payload; it is None for mapping, which is keyed by counter ID, not by
    username. `parse` turns spec or flag text into a payload. `place` and
    `path` give a name's placement and storage path, for the strategies
    with a directory layout.
    """

    name: str
    config: Callable
    default: object
    flag: str | None
    parse: Callable
    place: Callable | None = None
    path: Callable | None = None


_STRATEGIES = {strategy.name: strategy for strategy in (
    _Strategy("letter", LetterConfig, LetterConfig().levels, "levels", _parse_depth,
              letter_placement, lambda u, cfg, root: letter_path(u, root, cfg.levels)),
    _Strategy("ascii-sum", AsciiSumConfig, AsciiSumConfig().level_moduli, "moduli", _parse_moduli),
    _Strategy("mapping", lambda parts: MappingConfig(*parts), None, None, _parse_mapping),
    _Strategy("md5", Md5Config, Md5Config().level_moduli, "moduli", _parse_moduli,
              md5_placement, md5_path),
)}


def _config(name: str, payload):
    """Rebuild a strategy config from its picklable payload; bad values are usage errors."""
    try:
        return _STRATEGIES[name].config(payload)
    except ValueError as exc:
        raise UsageError(f"bad {name} config: {exc}") from None


def _payload(strategy: _Strategy, text):
    """The payload spec or flag text gives; no text gives the config class's defaults."""
    if text in (None, "") and strategy.default is not None:
        return strategy.default
    return strategy.parse(text)


def _flag_payload(args) -> tuple[_Strategy, object]:
    """--strategy's record and the payload its flag gives; the other flag is an error."""
    strategy = _STRATEGIES[args.strategy]
    for flag in ("levels", "moduli"):
        if flag != strategy.flag and getattr(args, flag) not in (None, ""):
            raise UsageError(f"--{flag} does not apply to the {strategy.name} strategy")
    return strategy, _payload(strategy, getattr(args, strategy.flag))


def _parse_ids(text: str) -> range:
    match = _IDS_PATTERN.match(text)
    if not match:
        raise UsageError(f"--ids expects the form A..B, got {text!r}")
    first, last = int(match.group(1)), int(match.group(2))
    if first < 1 or last < first:
        raise UsageError(f"--ids needs 1 <= A <= B, got {text!r}")
    return range(first, last + 1)


# --- corpus scanning (serial and parallel) ----------------------------------

# Kernel loops: one per strategy spec, at the deepest level asked of it. Each
# adds a block of names, as read_names() yields them (ending in NAME_END), to
# the spec's tallies: tallies[level] counts each name reaching `level` at the
# row-major joint index linear_index() gives its placement there, and
# tallies[k], k < level, counts each name of exactly k + 1 characters, too
# short to reach `level`, at its own level-k index. md5 never skips a name,
# so its shallower tallies stay empty lists.
# The per-name placement functions stay as the reference they must match.

_LETTER_INDEX = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET else 0 for b in range(256))


def _spec_loop(name: str, payload, level: int) -> tuple[Callable[[list[bytes]], None], list]:
    """(loop over a block of names, the dense tallies it fills) for one spec at `level`."""
    moduli = _config(name, payload).level_moduli
    sizes = [joint_bucket_count(moduli, k) if name != "md5" or k == level else 0
             for k in range(level + 1)]
    tallies = [[0] * size for size in sizes]
    counts, short = tallies[level], tallies[0]
    depth = level + 1  # characters a name needs to reach `level`
    shallow = level + len(NAME_END)  # a name whose bytes are no more than this is too short
    end_len, end_sum = len(NAME_END), sum(NAME_END)
    m0, m1 = moduli[0], moduli[1] if level else 0
    per_level = tuple(enumerate(moduli[:depth]))  # (k, modulus) pairs
    if name == "md5":
        md5 = _md5  # md5_digest() hashes the name with its newline too
        if level == 1:
            rows = [byte % m0 * m1 for byte in range(256)]  # lookups beat two % and a *
            cols = [byte % m1 for byte in range(256)]

            def loop(names: list[bytes]) -> None:
                for b in names:
                    d = md5(b).digest()
                    counts[rows[d[0]] + cols[d[1]]] += 1
        else:
            def loop(names: list[bytes]) -> None:
                for b in names:
                    d = md5(b).digest()
                    i = 0
                    for k, m in per_level:
                        i = i * m + d[k] % m
                    counts[i] += 1
    elif name == "ascii-sum":
        if level == 1:
            def loop(names: list[bytes]) -> None:
                for b in names:
                    total = sum(b) - end_sum
                    if len(b) > shallow:
                        counts[total % m0 * m1 + (total - b[0]) % m1] += 1
                    else:
                        short[total % m0] += 1
        else:
            prefixes = [per_level[:n] for n in range(depth + 1)]  # the pairs n characters reach

            def loop(names: list[bytes]) -> None:
                for b in names:
                    reach = len(b) - end_len
                    if reach > depth:
                        reach = depth
                    total = sum(b) - end_sum
                    i = 0
                    for k, m in prefixes[reach]:
                        i = i * m + total % m
                        total -= b[k]
                    tallies[reach - 1][i] += 1
    else:
        table = _LETTER_INDEX
        if level == 1:
            def loop(names: list[bytes]) -> None:
                for b in names:
                    if len(b) > shallow:
                        counts[table[b[0]] * 37 + table[b[1]]] += 1
                    else:
                        short[table[b[0]]] += 1
        else:
            def loop(names: list[bytes]) -> None:
                for b in names:
                    reach = len(b) - end_len
                    if reach > depth:
                        reach = depth
                    i = 0
                    for c in b[:reach]:
                        i = i * 37 + table[c]
                    tallies[reach - 1][i] += 1
    return loop, tallies


def _scan_chunk(task) -> tuple[list[list[list[int]]], list[tuple[int, str]], int]:
    """One pass over a byte range: the dense tallies of each (name, payload, level) spec.

    Also returns the rejected lines, numbered from 1 at the range's start,
    and the number of lines in the range.
    """
    path, start, end, specs = task
    loops = [_spec_loop(name, payload, level) for name, payload, level in specs]
    rejects: list[tuple[int, str]] = []
    reader = read_names(path, lambda n, r: rejects.append((n, r)), start, end)
    try:
        while True:
            names = next(reader)
            for loop, _ in loops:
                loop(names)
    except StopIteration as done:  # read_names returns its line count
        lines = done.value
    return [tallies for _, tallies in loops], rejects, lines


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


def _plan_chunks(path: str, workers: int) -> list[tuple[int, int]]:
    """Newline-aligned (start, end) byte ranges covering the file."""
    size = os.path.getsize(path)
    if workers <= 1:
        return [(0, size)]
    bounds = [0]
    with open(path, "rb") as handle:
        for i in range(1, workers):
            handle.seek(size * i // workers)
            aligned = handle.tell() + len(handle.readline())  # just past the next newline
            if bounds[-1] < aligned < size:
                bounds.append(aligned)
    bounds.append(size)
    return list(zip(bounds, bounds[1:]))


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


def _worker_count() -> int:
    return _threads_setting() or min(os.cpu_count() or 1, _MAX_AUTO_WORKERS)


def _scan(path: str, pairs) -> tuple[list[Histogram], list[tuple[int, str]]]:
    """Histogram a corpus file once for every (name, payload, level) pair.

    Scans each distinct (name, payload) spec once, at its deepest level,
    and folds it down to its shallowest. Returns the histograms, in pair
    order, and every rejected line as (line_number, reason).
    """
    spans: dict[tuple[str, object], tuple[int, int]] = {}  # (shallowest, deepest) level
    for name, payload, level in pairs:
        low, high = spans.get((name, payload), (level, level))
        spans[name, payload] = min(low, level), max(high, level)
    tallies, rejects = _scan_specs(path, [(*spec, high) for spec, (_, high) in spans.items()])
    levels = {spec: _levels(spec_tallies, _config(*spec).level_moduli, low)
              for (spec, (low, _)), spec_tallies in zip(spans.items(), tallies)}
    return [levels[name, payload][level] for name, payload, level in pairs], rejects


def _scan_specs(path: str, specs) -> tuple[list[list[list[int]]], list[tuple[int, str]]]:
    """The tallies of every (name, payload, level) spec over a corpus file, and its rejects.

    Splits the file into chunks when worthwhile: a forked child scans each
    chunk but the first, which this process scans meanwhile. The per-chunk
    tallies are summed, and the rejects renumbered, in chunk order.
    """
    if os.path.getsize(path) < _PARALLEL_MIN_BYTES:
        workers = _threads_setting() or 1  # serial unless the setting asks for workers
    else:
        workers = _worker_count()
    first, *rest = _plan_chunks(path, workers if hasattr(os, "fork") else 1)
    children: list[tuple[int, int, tuple[int, int]]] = []  # (pid, read end, chunk)
    try:
        for chunk in rest:
            children.append((*_fork_chunk((path, *chunk, specs)), chunk))
        tallies, rejects, lines_before = _scan_chunk((path, *first, specs))
        for pid, read_end, (start, end) in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            try:
                result = marshal.loads(payload)
            except (EOFError, ValueError, TypeError):
                raise ChildProcessError(f"the worker scanning bytes {start}..{end} of "
                                        f"{path} exited without a result") from None
            if isinstance(result, bytes):  # the worker failed: raise what it raised
                import pickle  # here, not at module level: only a failed worker needs it
                raise pickle.loads(result)
            partials, partial_rejects, lines = result
            tallies = [[list(map(add, t, p)) for t, p in zip(spec, partial)]
                       for spec, partial in zip(tallies, partials)]
            rejects += [(n + lines_before, reason) for n, reason in partial_rejects]
            lines_before += lines
    except BaseException:
        import signal  # likewise: only a failed scan stops its workers early
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_end, _ in children:
            os.close(read_end)
            os.waitpid(pid, 0)
    return tallies, rejects


def _fork_chunk(task) -> tuple[int, int]:
    """Fork a child that scans one chunk and writes its result to a pipe: (pid, read end).

    The child writes the marshalled result of _scan_chunk(task), or if that
    raises, the pickled exception, and leaves by os._exit: it never returns,
    never flushes the stdio buffers it inherited and never runs exit handlers.
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
        os.close(read_end)  # so the write fails, not blocks, once the parent closes its end
        try:
            payload = marshal.dumps(_scan_chunk(task))
        except BaseException as exc:
            import pickle
            payload = marshal.dumps(pickle.dumps(exc))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _report_rejects(rejects: list[tuple[int, str]]) -> None:
    if rejects:
        # A line-buffered stderr makes one write() per newline printed: join each batch.
        for i in range(0, len(rejects), _REJECTS_PER_WRITE):
            batch = rejects[i:i + _REJECTS_PER_WRITE]
            sys.stderr.write("".join(f"line {n}: {reason}\n" for n, reason in batch))
        print(f"{len(rejects)} lines rejected", file=sys.stderr)


def _scan_corpus(
    path: str,
    name: str,
    payload,
    level: int,
    report_rejects: bool,
) -> Histogram:
    """Histogram a corpus file for one strategy at one level."""
    (histogram,), rejects = _scan(path, [(name, payload, level)])
    if report_rejects:
        _report_rejects(rejects)
    return histogram


# --- report emission --------------------------------------------------------

def _replacing(path: str, newline: str | None):
    """A text file for `path` whose old content survives a failed run.

    A missing path or a regular file is written as a temp file beside it and
    put in its place only once the block completes. Anything else (a symlink,
    a device such as /dev/null, a FIFO, a directory) is opened as it stands,
    so output still streams through it.
    """
    try:
        old = os.lstat(path)
    except FileNotFoundError:
        return _written_beside(path, newline, None)
    except OSError:  # open() reports it as it always has
        old = None
    if old is None or not stat.S_ISREG(old.st_mode):
        return open(path, "w", encoding="utf-8", newline=newline)
    return _written_beside(path, newline, old)


@contextlib.contextmanager
def _written_beside(path: str, newline: str | None, old: os.stat_result | None):
    """A temp file beside `path` that replaces it once the block completes.

    The temp file takes the mode of the file it replaces (and its owner,
    where that is allowed), or the mode open(path, "w") would give a new
    file. It is removed on any failure. Errors in creating or placing it
    name `path`, as open(path, "w") would.
    """
    folder, base = os.path.split(path)
    try:
        fd, temp = tempfile.mkstemp(prefix=base + ".", suffix=".tmp", dir=folder or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as out:
            if old is None:
                mask = os.umask(0)
                os.umask(mask)
                os.fchmod(fd, 0o666 & ~mask)
            else:
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
                with contextlib.suppress(OSError):  # only root may give a file away
                    os.fchown(fd, old.st_uid, old.st_gid)
            yield out
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        os.unlink(temp)
        raise


def _output(path: str | None):
    """Where a report goes: stdout for None or "-", else a file replaced when complete."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return _replacing(path, newline="")


def _emit_analysis(
    out,
    fmt: str,
    strategy: str,
    config_echo: dict,
    level: int,
    histogram: Histogram,
    stats: DistributionStats,
    include_counts: bool,
) -> None:
    if fmt == "json":
        import json  # here, not at module level, so only runs that write JSON load it

        report = {
            "strategy": strategy,
            "config": config_echo,
            "level": level,
            "bucket_count": histogram.bucket_count,
            "total": histogram.total,
            "skipped": histogram.skipped,
            "ideal_mean": stats.ideal_mean,
            "std_dev": stats.std_dev,
            "deviation_ratio": stats.deviation_ratio,
        }
        if include_counts:
            report["counts"] = histogram.counts
        json.dump(report, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        import csv  # likewise for CSV

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["bucket", "count"])
        for bucket, count in enumerate(histogram.counts):
            writer.writerow([bucket, count])
    else:  # plot-data
        for bucket, count in enumerate(histogram.counts):
            out.write(f"{bucket} {count}\n")


def _stats_line(stats: DistributionStats, skipped: int) -> str:
    return (
        f"ideal_mean={stats.ideal_mean:.6g} std_dev={stats.std_dev:.6g} "
        f"ratio={stats.deviation_ratio:.6g} skipped={skipped}"
    )


# --- verbs -------------------------------------------------------------------

def _cmd_gen_corpus(args) -> int:
    model = args.model.replace("-", "_")
    try:
        spec = CorpusSpec(model, args.count, args.seed, args.min_len, args.max_len)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        with _replacing(args.output, newline=None) as out:
            for name in generate_corpus(spec):
                out.write(name)
                out.write("\n")
    except ShardbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.count} names (model={args.model}, seed={args.seed})", file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    include_counts = not args.no_counts
    if _STRATEGIES[args.strategy].flag is None:  # keyed by counter ID, not by username
        if args.ids is None:
            raise UsageError("the mapping strategy requires --ids A..B")
        if args.level != 0:
            raise UsageError("the mapping strategy only has level 0 (server loads)")
        if args.bucket_size is None or args.servers is None:
            raise UsageError("the mapping strategy requires --bucket-size and --servers")
        cfg = MappingConfig(args.bucket_size, args.servers)
        histogram = build_mapping_histogram(_parse_ids(args.ids), cfg)
        echo = {"bucket_size": cfg.bucket_size, "num_servers": cfg.num_servers, "ids": args.ids}
    else:
        if args.ids is not None or args.bucket_size is not None or args.servers is not None:
            raise UsageError("--ids/--bucket-size/--servers only apply to the mapping strategy")
        if args.corpus is None:
            raise UsageError(f"the {args.strategy} strategy requires a corpus file")
        strategy, payload = _flag_payload(args)
        moduli = _config(args.strategy, payload).level_moduli
        if not 0 <= args.level < len(moduli):
            raise UsageError(f"level {args.level} outside 0..{len(moduli) - 1}")
        echo = {strategy.flag: list(payload) if isinstance(payload, tuple) else payload}
        histogram = _scan_corpus(args.corpus, args.strategy, payload, args.level, True)
    if histogram.total == 0:
        print("error: no names were placed (empty or fully rejected corpus)", file=sys.stderr)
        return EXIT_EMPTY
    stats = compute_stats(histogram)
    with _output(args.output) as out:
        _emit_analysis(out, args.format, args.strategy, echo, args.level, histogram, stats,
                       include_counts)
    print(_stats_line(stats, histogram.skipped), file=sys.stderr)
    return EXIT_OK


def _parse_strategy_spec(spec: str) -> tuple[_Strategy, object]:
    name, _, text = spec.partition(":")
    strategy = _STRATEGIES.get(name)
    if strategy is None:
        raise UsageError(f"unknown strategy {name!r} in spec {spec!r}")
    payload = _payload(strategy, text)
    _config(name, payload)
    return strategy, payload


def _compare_steps(specs, levels: list[int], ids: str | None):
    """compare's (level, strategy, payload, note) steps in report order; a note replaces a row.

    A step whose row would fail raises here, so a caller that collects the
    steps before scanning can replay everything up to the failure first.
    """
    for level in levels:
        for strategy, payload in specs:
            note = None
            if strategy.flag is None:
                if ids is None:
                    raise UsageError("mapping strategies in compare require --ids A..B")
                if level != 0:
                    note = f"skipping mapping at level {level} (only level 0 exists)"
                else:
                    _parse_ids(ids)
                    joint_bucket_count((payload[1],), 0)  # one dense slot per server
            else:
                moduli = _config(strategy.name, payload).level_moduli
                if level >= len(moduli):
                    note = f"skipping {strategy.name} at level {level} (depth {len(moduli)})"
                else:
                    joint_bucket_count(moduli, level)
            yield level, strategy, payload, note


def _cmd_compare(args) -> int:
    if len(args.strategy) < 2:
        raise UsageError("compare needs at least two --strategy specs")
    levels = args.level or [0]
    specs = [_parse_strategy_spec(s) for s in args.strategy]
    steps = []
    error = None
    try:
        for step in _compare_steps(specs, levels, args.ids):
            steps.append(step)
    except (UsageError, ShardbenchError) as exc:
        error = exc
    scans = [(strategy.name, payload, level) for level, strategy, payload, note in steps
             if note is None and strategy.flag is not None]
    scanned = None
    rows = []
    for level, strategy, payload, note in steps:
        if note is not None:
            print(f"note: {note}", file=sys.stderr)
            continue
        if strategy.flag is None:
            cfg = _config(strategy.name, payload)
            histogram = build_mapping_histogram(_parse_ids(args.ids), cfg)
            label = f"{strategy.name}[{payload[0]},{payload[1]}]"
        else:
            if scanned is None:  # one pass over the corpus serves every scanned step
                histograms, rejects = _scan(args.corpus, scans)
                _report_rejects(rejects)
                scanned = iter(histograms)
            histogram = next(scanned)
            label = strategy.name
        if histogram.total == 0:
            print(f"note: skipping {label} at level {level} (nothing placed)", file=sys.stderr)
            continue
        stats = compute_stats(histogram)
        rows.append((level, stats.deviation_ratio, label, histogram, stats))
    if error is not None:
        raise error
    if not rows:
        print("error: no names were placed (empty or fully rejected corpus)", file=sys.stderr)
        return EXIT_EMPTY
    rows.sort(key=lambda row: (row[0], row[1]))
    with _output(args.output) as out:
        _emit_compare(out, args.format, rows)
    return EXIT_OK


def _emit_compare(out, fmt: str, rows) -> None:
    header = ["strategy", "level", "bucket_count", "ideal_mean",
              "std_dev", "deviation_ratio", "skipped"]
    formatted = [
        [label, str(level), str(histogram.bucket_count), f"{stats.ideal_mean:.6g}",
         f"{stats.std_dev:.6g}", f"{stats.deviation_ratio:.6g}", str(histogram.skipped)]
        for level, _, label, histogram, stats in rows
    ]
    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)
    else:  # text
        widths = [max(len(header[i]), *(len(row[i]) for row in formatted))
                  for i in range(len(header))]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in formatted:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _cmd_locate(args) -> int:
    try:
        name = normalize_username(args.name)
    except ShardbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    strategy, payload = _flag_payload(args)
    cfg = _config(args.strategy, payload)
    print(" ".join(str(bucket) for bucket, _ in strategy.place(name, cfg).levels))
    print(strategy.path(name, cfg, args.root).render())
    return EXIT_OK


def _fanout(args) -> FanoutReport:
    """The fan-out report of --strategy's layout; raw --moduli may pass Md5Config's 256 cap."""
    strategy, payload = _flag_payload(args)
    if strategy.flag != "moduli":
        payload = _config(args.strategy, payload).level_moduli
    try:
        return fanout_report(payload, args.limit)
    except ValueError as exc:  # a modulus below 1
        raise UsageError(f"bad {strategy.name} config: {exc}") from None


def _cmd_check_fanout(args) -> int:
    report = _fanout(args)
    print("per_level_dirs=" + ",".join(str(m) for m in report.per_level_dirs))
    print(f"dirs_under_one_top={report.dirs_under_one_top}")
    print(f"total_leaf_buckets={report.total_leaf_buckets}")
    print(f"limit={report.limit}")
    print(f"ok={'true' if report.ok else 'false'}")
    return EXIT_OK if report.ok else EXIT_LIMIT


def _cmd_mkdirs(args) -> int:
    report = _fanout(args)
    if not report.ok:
        print(f"error: fan-out check failed (limit {report.limit}); refusing to create",
              file=sys.stderr)
        return EXIT_LIMIT
    if report.total_leaf_buckets > DENSE_BUCKET_CAP:
        print(f"error: {report.total_leaf_buckets} leaf directories exceed the cap of "
              f"{DENSE_BUCKET_CAP}; refusing to create", file=sys.stderr)
        return EXIT_LIMIT
    created = materialize_tree(args.root, report.per_level_dirs)
    print(f"created {created} directories under {args.root}", file=sys.stderr)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_strategy_flags(parser: argparse.ArgumentParser, choices: Sequence[str]) -> None:
    parser.add_argument("--strategy", required=True, choices=list(choices))
    parser.add_argument("--levels", type=int, help="letter strategy depth (1..6)")
    parser.add_argument("--moduli", help="comma-separated per-level moduli")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shardbench",
        description="Shard-placement strategies and distribution-quality benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    laid_out = [name for name, s in _STRATEGIES.items() if s.path]  # with directory layouts

    gen = sub.add_parser("gen-corpus", help="write a synthetic username corpus")
    gen.add_argument("--model", required=True,
                     choices=[m.replace("_", "-") for m in MODELS])
    gen.add_argument("--count", required=True, type=_positive_int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--min-len", type=int, default=3)
    gen.add_argument("--max-len", type=int, default=12)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_gen_corpus)

    analyze = sub.add_parser("analyze", help="histogram one strategy over a corpus")
    analyze.add_argument("corpus", nargs="?",
                         help="username file; unused by the ID-keyed mapping strategy")
    _add_strategy_flags(analyze, _STRATEGIES)
    analyze.add_argument("--level", type=int, default=0)
    analyze.add_argument("--format", default="json", choices=["json", "csv", "plot-data"])
    analyze.add_argument("--bucket-size", type=_positive_int)
    analyze.add_argument("--servers", type=_positive_int)
    analyze.add_argument("--ids", help="synthetic ID range A..B for the mapping strategy")
    analyze.add_argument("--no-counts", action="store_true",
                         help="omit per-bucket counts from JSON output")
    analyze.add_argument("-o", "--output")
    analyze.set_defaults(handler=_cmd_analyze)

    compare = sub.add_parser("compare", help="rank strategies by deviation ratio")
    compare.add_argument("corpus")
    compare.add_argument("--strategy", action="append", default=[],
                         help="name[:config], e.g. md5:64,64,128 (repeatable)")
    compare.add_argument("--level", action="append", type=int,
                         help="level to compare at (repeatable; default 0)")
    compare.add_argument("--format", default="text", choices=["text", "csv"])
    compare.add_argument("--ids", help="ID range A..B for mapping strategies")
    compare.add_argument("-o", "--output")
    compare.set_defaults(handler=_cmd_compare)

    locate = sub.add_parser("locate", help="print placement and storage path for one name")
    locate.add_argument("name")
    _add_strategy_flags(locate, laid_out)
    locate.add_argument("--root", default="")
    locate.set_defaults(handler=_cmd_locate)

    fanout = sub.add_parser("check-fanout", help="validate directory fan-out limits")
    _add_strategy_flags(fanout, laid_out)
    fanout.add_argument("--limit", type=_positive_int, default=DEFAULT_FANOUT_LIMIT)
    fanout.set_defaults(handler=_cmd_check_fanout)

    mkdirs = sub.add_parser("mkdirs", help="materialize an empty bucket directory skeleton")
    _add_strategy_flags(mkdirs, laid_out)
    mkdirs.add_argument("--root", required=True)
    mkdirs.add_argument("--limit", type=_positive_int, default=DEFAULT_FANOUT_LIMIT)
    mkdirs.set_defaults(handler=_cmd_mkdirs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShardbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
