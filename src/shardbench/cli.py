"""Command-line front end: corpus tooling, analysis, comparison, lookup."""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import re
import stat
import sys
import tempfile
from typing import Callable, NamedTuple, Sequence

from .corpus import MODELS, PARALLEL_MIN_NAMES, CorpusSpec, _segments
from .errors import EmptyHistogram, ShardbenchError
from .layout import (
    DEFAULT_FANOUT_LIMIT,
    FanoutReport,
    fanout_report,
    letter_path,
    materialize_tree,
    md5_path,
)
from .model import normalize_username
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
    letter_placement,
    md5_placement,
)
from .workers import _stderr, _worker_count

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_LIMIT = 5

_IDS_PATTERN = re.compile(r"^(\d+)\.\.(\d+)$")


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


class LimitExceeded(Exception):
    """A tree past the fan-out limit or the leaf cap, refused; maps to exit code 5."""


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

    `config` makes the strategy's config from what `parse` makes of spec or
    flag text, and with no argument gives the config class's defaults.
    `flag` is the --levels/--moduli flag that carries the text; it is None
    for mapping, which is keyed by counter ID, not by username, and has no
    defaults. `place` and `path` give a name's placement and storage path,
    for the strategies with a directory layout.
    """

    name: str
    config: Callable
    flag: str | None
    parse: Callable
    place: Callable | None = None
    path: Callable | None = None


_STRATEGIES = {strategy.name: strategy for strategy in (
    _Strategy("letter", LetterConfig, "levels", _parse_depth,
              letter_placement, lambda u, cfg, root: letter_path(u, root, cfg.levels)),
    _Strategy("ascii-sum", AsciiSumConfig, "moduli", _parse_moduli),
    _Strategy("mapping", lambda parts: MappingConfig(*parts), None, _parse_mapping),
    _Strategy("md5", Md5Config, "moduli", _parse_moduli, md5_placement, md5_path),
)}


def _config(strategy: _Strategy, text):
    """The config spec or flag text gives; no text (but a depth of 0 is text) gives the defaults.

    Text that does not parse, and values the config refuses, are usage errors.
    """
    try:
        if text in (None, "") and strategy.flag is not None:
            return strategy.config()
        return strategy.config(strategy.parse(text))
    except ValueError as exc:
        raise UsageError(f"bad {strategy.name} config: {exc}") from None


def _flag_text(args) -> tuple[_Strategy, object]:
    """--strategy's record and its flag's text; the other flag is an error."""
    strategy = _STRATEGIES[args.strategy]
    for flag in ("levels", "moduli"):
        if flag != strategy.flag and getattr(args, flag) not in (None, ""):
            raise UsageError(f"--{flag} does not apply to the {strategy.name} strategy")
    return strategy, getattr(args, strategy.flag)


def _parse_ids(text: str) -> range:
    match = _IDS_PATTERN.match(text)
    if not match:
        raise UsageError(f"--ids expects the form A..B, got {text!r}")
    first, last = int(match.group(1)), int(match.group(2))
    if first < 1 or last < first:
        raise UsageError(f"--ids needs 1 <= A <= B, got {text!r}")
    return range(first, last + 1)


# --- report emission --------------------------------------------------------

@contextlib.contextmanager
def _written_beside(path: str, old: os.stat_result | None):
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
        with open(fd, "w", encoding="utf-8", newline="") as out:
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
    """Where a report or a corpus goes: stdout for None or "-", else `path`.

    A missing path or a regular file is written as a temp file beside it and
    put in its place only once the block completes, so its old content
    survives a failed run. Anything else (a symlink, a device such as
    /dev/null, a FIFO, a directory) is opened as it stands, so output still
    streams through it.
    """
    if path is None or path == "-":
        return _stdout()
    try:
        old = os.lstat(path)
        replace = stat.S_ISREG(old.st_mode)
    except FileNotFoundError:
        old, replace = None, True
    except OSError:  # open() reports it as it always has
        replace = False
    if replace:
        return _written_beside(path, old)
    return open(path, "w", encoding="utf-8", newline="")


@contextlib.contextmanager
def _stdout():
    """sys.stdout, buffered while the block runs and flushed once it completes.

    Under PYTHONUNBUFFERED stdout is write-through, so each of json.dump's
    tokens and csv.writer's rows would be a system call of its own; the
    block runs with write-through off, and it is put back afterwards, even
    when the block fails. A failed write fails the run. A closed stdout is
    an OSError, as a write to it would be.
    """
    out = sys.stdout
    if out is None:  # the program was started with file descriptor 1 closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    write_through = getattr(out, "write_through", False)  # an io.StringIO has none
    if write_through:
        out.reconfigure(write_through=False)
    try:
        yield out
        out.flush()
    finally:
        if write_through:
            out.reconfigure(write_through=True)


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
    workers = _worker_count(spec.count >= PARALLEL_MIN_NAMES)
    with _output(args.output) as out, contextlib.closing(_segments(spec, workers)) as segments:
        for names in segments:
            # One write: a "\n" of its own would be held back, then written
            # by a system call of its own ahead of the next segment.
            out.write(b"\n".join(names).decode("ascii") + "\n")
    print(f"wrote {args.count} names (model={args.model}, seed={args.seed})", file=_stderr())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if _STRATEGIES[args.strategy].flag is None:  # keyed by counter ID, not by username
        if args.ids is None:
            raise UsageError("the mapping strategy requires --ids A..B")
        if args.level != 0:
            raise UsageError("the mapping strategy only has level 0 (server loads)")
        if args.bucket_size is None or args.servers is None:
            raise UsageError("the mapping strategy requires --bucket-size and --servers")
        cfg = MappingConfig(args.bucket_size, args.servers)
        echo = {"bucket_size": cfg.bucket_size, "num_servers": cfg.num_servers, "ids": args.ids}
    else:
        if args.ids is not None or args.bucket_size is not None or args.servers is not None:
            raise UsageError("--ids/--bucket-size/--servers only apply to the mapping strategy")
        if args.corpus is None:
            raise UsageError(f"the {args.strategy} strategy requires a corpus file")
        strategy, text = _flag_text(args)
        cfg = _config(strategy, text)
        if not 0 <= args.level < len(cfg.level_moduli):
            raise UsageError(f"level {args.level} outside 0..{len(cfg.level_moduli) - 1}")
        echo = {strategy.flag: cfg._values()[0]}  # a username config's one field
    steps = list(_steps([(_STRATEGIES[args.strategy], cfg)], [args.level], args.ids))
    with _output(args.output) as out:
        [(*_, histogram)] = _histograms(args.corpus, steps, args.ids)
        stats = compute_stats(histogram)  # an empty one raises EmptyHistogram
        _emit_analysis(out, args.format, args.strategy, echo, args.level, histogram, stats,
                       not args.no_counts)
    print(_stats_line(stats, histogram.skipped), file=_stderr())
    return EXIT_OK


def _parse_strategy_spec(spec: str) -> tuple[_Strategy, object]:
    name, _, text = spec.partition(":")
    strategy = _STRATEGIES.get(name)
    if strategy is None:
        raise UsageError(f"unknown strategy {name!r} in spec {spec!r}")
    return strategy, _config(strategy, text)


def _steps(specs, levels: list[int], ids: str | None):
    """analyze's or compare's (level, strategy, config, note) steps; a note replaces a histogram.

    A step whose histogram would fail raises here, so collecting the steps
    checks every one of them before the target opens or the corpus is read.
    """
    for level in levels:
        for strategy, config in specs:
            note = None
            if strategy.flag is None:
                if ids is None:
                    raise UsageError("mapping strategies in compare require --ids A..B")
                if level != 0:
                    note = f"skipping mapping at level {level} (only level 0 exists)"
                else:
                    _parse_ids(ids)
                    joint_bucket_count((config.num_servers,), 0)  # one dense slot per server
            else:
                moduli = config.level_moduli
                if level >= len(moduli):
                    note = f"skipping {strategy.name} at level {level} (depth {len(moduli)})"
                else:
                    joint_bucket_count(moduli, level)
            yield level, strategy, config, note


def _histograms(corpus: str | None, steps: list, ids: str | None):
    """Each step's (level, strategy, config, histogram) in order, or its note on stderr.

    One pass over the corpus, made at the first scanned step, serves every scanned step.
    """
    scans = [(config, level) for level, strategy, config, note in steps
             if note is None and strategy.flag is not None]
    scanned = None
    for level, strategy, config, note in steps:
        if note is not None:
            print(f"note: {note}", file=_stderr())
        elif strategy.flag is None:
            yield level, strategy, config, build_mapping_histogram(_parse_ids(ids), config)
        else:
            if scanned is None:
                from . import scan  # here, not at module level: only the scanning verbs load it

                scanned = iter(scan._scan(corpus, scans, _stderr()))
            yield level, strategy, config, next(scanned)


def _cmd_compare(args) -> int:
    if len(args.strategy) < 2:
        raise UsageError("compare needs at least two --strategy specs")
    levels = args.level or [0]
    specs = [_parse_strategy_spec(s) for s in args.strategy]
    steps = list(_steps(specs, levels, args.ids))
    rows = []
    with _output(args.output) as out:
        for level, strategy, config, histogram in _histograms(args.corpus, steps, args.ids):
            label = strategy.name + ("" if strategy.flag else
                                     f"[{config.bucket_size},{config.num_servers}]")
            if histogram.total == 0:
                print(f"note: skipping {label} at level {level} (nothing placed)",
                      file=_stderr())
                continue
            stats = compute_stats(histogram)
            rows.append((level, stats.deviation_ratio, label, histogram, stats))
        if not rows:
            raise EmptyHistogram("no row has a placed entry")
        rows.sort(key=lambda row: (row[0], row[1]))
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
    name = normalize_username(args.name)
    strategy, text = _flag_text(args)
    cfg = _config(strategy, text)
    with _stdout() as out:
        print(" ".join(str(bucket) for bucket, _ in strategy.place(name, cfg).levels),
              strategy.path(name, cfg, args.root).render(), sep="\n", file=out)
    return EXIT_OK


def _fanout(args) -> FanoutReport:
    """The fan-out report of --strategy's layout; raw --moduli may pass Md5Config's 256 cap."""
    strategy, text = _flag_text(args)
    if strategy.flag == "moduli" and text:
        moduli = strategy.parse(text)
    else:
        moduli = _config(strategy, text).level_moduli
    try:
        return fanout_report(moduli, args.limit)
    except ValueError as exc:  # a modulus below 1
        raise UsageError(f"bad {strategy.name} config: {exc}") from None


def _cmd_check_fanout(args) -> int:
    report = _fanout(args)
    with _stdout() as out:
        print("per_level_dirs=" + ",".join(str(m) for m in report.per_level_dirs),
              f"dirs_under_one_top={report.dirs_under_one_top}",
              f"total_leaf_buckets={report.total_leaf_buckets}", f"limit={report.limit}",
              f"ok={'true' if report.ok else 'false'}", sep="\n", file=out)
    return EXIT_OK if report.ok else EXIT_LIMIT


def _cmd_mkdirs(args) -> int:
    report = _fanout(args)
    if not report.ok:
        raise LimitExceeded(f"fan-out check failed (limit {report.limit}); refusing to create")
    if report.total_leaf_buckets > DENSE_BUCKET_CAP:
        raise LimitExceeded(f"{report.total_leaf_buckets} leaf directories exceed the cap of "
                            f"{DENSE_BUCKET_CAP}; refusing to create")
    created = materialize_tree(args.root, report.per_level_dirs)
    print(f"created {created} directories under {args.root}", file=_stderr())
    return EXIT_OK


# --- argument parsing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """The parser's and every subparser's class: help is a report, and main writes usage errors."""

    def print_help(self, file=None) -> None:
        with _stdout() as out:
            out.write(self.format_help())

    def error(self, message: str):
        raise SystemExit(f"{self.format_usage()}{self.prog}: error: {message}")


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
    parser = _Parser(
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


def _to_devnull(stream) -> None:
    """Point `stream`'s file descriptor, if it has one, at os.devnull, where the bytes a
    failed write left in its buffer go at exit, not to a flush that fails again (exit 120)."""
    if stream is not None:
        with contextlib.suppress(OSError, ValueError):  # no file descriptor behind it
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:  # the program, not an in-process call
        # Moves every object made so far, most of them by the interpreter's
        # own start-up, out of the collector's reach, so its full collection
        # at exit has little left to walk.
        gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse's: 0 once --help is written, or a usage error's text
        if not exc.code:
            return EXIT_OK
        code, message = EXIT_USAGE, exc.code
    except UsageError as exc:
        code, message = EXIT_USAGE, f"usage error: {exc}"
    except LimitExceeded as exc:
        code, message = EXIT_LIMIT, f"error: {exc}"
    except OSError as exc:
        code, message = EXIT_IO, f"error: {exc}"
        if argv is None:  # the program, not an in-process call
            _to_devnull(sys.stdout)
    except EmptyHistogram:
        code, message = EXIT_EMPTY, "error: no names were placed (empty or fully rejected corpus)"
    except (ShardbenchError, OverflowError) as exc:  # the latter: a spread past the float range
        code, message = EXIT_USAGE, f"error: {exc}"
    try:  # one try, and never an exception: the code alone reports a failing stderr
        print(message, file=_stderr())
    except OSError:
        if argv is None:  # as for stdout above
            _to_devnull(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
