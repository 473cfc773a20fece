"""Command-line front end: corpus tooling, analysis, comparison, lookup."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from .corpus import MODELS, CorpusSpec, generate_corpus, read_names
from .errors import ShardbenchError
from .layout import (
    DEFAULT_FANOUT_LIMIT,
    fanout_report,
    letter_path,
    materialize_tree,
    md5_path,
)
from .model import ALPHABET, normalize_username
# build_histogram is the per-name oracle the scan kernel must match; it stays
# bound here so perfbench/spans.py traces the same names in every module.
from .stats import (  # noqa: F401
    DistributionStats,
    Histogram,
    build_histogram,
    build_mapping_histogram,
    compute_stats,
    joint_bucket_count,
    merge_histograms,
)
from .strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
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
_IDS_PATTERN = re.compile(r"^(\d+)\.\.(\d+)$")


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 2."""


# --- strategy plumbing -----------------------------------------------------

_CONFIGS = {"letter": LetterConfig, "ascii-sum": AsciiSumConfig, "md5": Md5Config}


def _config(name: str, payload) -> LetterConfig | AsciiSumConfig | Md5Config:
    """Rebuild a strategy config from its picklable payload; bad values are usage errors."""
    try:
        return _CONFIGS[name](payload)
    except ValueError as exc:
        raise UsageError(f"bad {name} config: {exc}") from None


def _parse_moduli(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--moduli expects comma-separated integers, got {text!r}") from None


def _username_strategy(args) -> tuple[str, object, dict]:
    """(name, payload, config echo) for the username-keyed strategies."""
    name = args.strategy
    if name == "letter":
        if getattr(args, "moduli", None):
            raise UsageError("--moduli does not apply to the letter strategy")
        levels = args.levels if args.levels is not None else 6
        _config(name, levels)
        return name, levels, {"levels": levels}
    if name in ("ascii-sum", "md5"):
        if getattr(args, "levels", None) is not None:
            raise UsageError(f"--levels does not apply to the {name} strategy")
        default = (31, 33) if name == "ascii-sum" else (64, 64, 128)
        moduli = _parse_moduli(args.moduli) if args.moduli else default
        _config(name, moduli)
        return name, moduli, {"moduli": list(moduli)}
    raise UsageError(f"strategy {name!r} is not keyed on usernames here")


def _parse_ids(text: str) -> range:
    match = _IDS_PATTERN.match(text)
    if not match:
        raise UsageError(f"--ids expects the form A..B, got {text!r}")
    first, last = int(match.group(1)), int(match.group(2))
    if first < 1 or last < first:
        raise UsageError(f"--ids needs 1 <= A <= B, got {text!r}")
    return range(first, last + 1)


# --- corpus scanning (serial and parallel) ----------------------------------

# Kernel joint indices: each maps a valid name's lowercased bytes to the
# row-major bucket index linear_index() gives its placement at the level, or
# to one slot past the last bucket when the placement is too shallow (skipped).
# The per-name placement functions stay as the reference they must match.

_LETTER_INDEX = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET else 0 for b in range(256))


def _index_fn(name: str, payload, level: int) -> tuple[Callable[[bytes], int], int]:
    """(joint index function, bucket count) for one strategy at one level."""
    cfg = _config(name, payload)
    buckets = joint_bucket_count(cfg.level_moduli, level)
    per_level = tuple(enumerate(cfg.level_moduli[: level + 1]))  # (k, modulus) pairs
    if name == "md5":
        md5 = hashlib.md5

        def index(b: bytes) -> int:
            digest = md5(b + b"\n").digest()
            i = 0
            for k, m in per_level:
                i = i * m + digest[k] % m
            return i
    elif name == "ascii-sum":
        def index(b: bytes) -> int:
            if len(b) <= level:
                return buckets
            total = sum(b)
            i = 0
            for k, m in per_level:
                i = i * m + total % m
                total -= b[k]
            return i
    else:
        table = _LETTER_INDEX

        def index(b: bytes) -> int:
            if len(b) <= level:
                return buckets
            i = 0
            for c in b[: level + 1]:
                i = i * 37 + table[c]
            return i
    return index, buckets


def _scan_chunk(task) -> tuple[list[Histogram], list[tuple[int, str]]]:
    """One pass over a byte range: a histogram per (name, payload, level) pair."""
    path, start, end, first_line, pairs = task
    jobs = []
    for name, payload, level in pairs:
        index, buckets = _index_fn(name, payload, level)
        jobs.append((index, [0] * (buckets + 1)))  # the last slot counts skipped names
    rejects: list[tuple[int, str]] = []
    for b in read_names(path, lambda n, r: rejects.append((n, r)), start, end, first_line):
        for index, counts in jobs:
            counts[index(b)] += 1
    histograms = []
    for _, counts in jobs:
        skipped = counts.pop()
        histograms.append(Histogram(counts, sum(counts), skipped))
    return histograms, rejects


def _plan_chunks(path: str, workers: int) -> list[tuple[int, int, int]]:
    """Newline-aligned (start, end, first_line) ranges covering the file."""
    size = os.path.getsize(path)
    if size == 0 or workers <= 1:
        return [(0, size, 1)]
    targets = [size * i // workers for i in range(1, workers)]
    marks: list[tuple[int, int]] = []
    with open(path, "rb") as handle:
        base = 0
        lines_before = 0
        ti = 0
        while ti < len(targets):
            block = handle.read(1 << 20)
            if not block:
                break
            while ti < len(targets) and targets[ti] < base + len(block):
                local = max(targets[ti] - base, 0)
                newline = block.find(b"\n", local)
                if newline == -1:
                    break  # the aligning newline sits in a later block
                aligned = base + newline + 1
                line_number = lines_before + block.count(b"\n", 0, newline + 1) + 1
                if not marks or marks[-1][0] != aligned:
                    marks.append((aligned, line_number))
                ti += 1
            lines_before += block.count(b"\n")
            base += len(block)
    chunks = []
    start, first_line = 0, 1
    for offset, line_number in marks:
        if offset > start:
            chunks.append((start, offset, first_line))
            start, first_line = offset, line_number
    if start < size:
        chunks.append((start, size, first_line))
    return chunks or [(0, size, 1)]


def _worker_count() -> int:
    raw = os.environ.get("SHARDBENCH_THREADS")
    cpus = os.cpu_count() or 1
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            print(f"warning: ignoring non-integer SHARDBENCH_THREADS={raw!r}", file=sys.stderr)
            value = 0
        cap = _WORKERS_PER_CPU * cpus
        if value > cap:
            print(f"warning: capping SHARDBENCH_THREADS={value} at {cap} "
                  f"({_WORKERS_PER_CPU} per CPU)", file=sys.stderr)
            value = cap
        if value > 0:
            return value
    return min(cpus, _MAX_AUTO_WORKERS)


def _scan(path: str, pairs) -> tuple[list[Histogram], list[tuple[int, str]]]:
    """Histogram a corpus file once for every (name, payload, level) pair.

    Splits the file across processes when worthwhile and merges the
    per-chunk histograms pairwise in input order. Returns the histograms,
    in pair order, and every rejected line as (line_number, reason).
    """
    workers = _worker_count()
    explicit = os.environ.get("SHARDBENCH_THREADS") not in (None, "", "0")
    if not explicit and os.path.getsize(path) < _PARALLEL_MIN_BYTES:
        workers = 1
    tasks = [(path, start, end, first_line, pairs)
             for start, end, first_line in _plan_chunks(path, workers)]
    if len(tasks) == 1:
        return _scan_chunk(tasks[0])
    with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
        results = list(pool.map(_scan_chunk, tasks))
    histograms, rejects = results[0][0], list(results[0][1])
    for partials, partial_rejects in results[1:]:
        histograms = [merge_histograms(h, p) for h, p in zip(histograms, partials)]
        rejects.extend(partial_rejects)
    return histograms, rejects


def _report_rejects(rejects: list[tuple[int, str]]) -> None:
    if rejects:
        for line_number, reason in rejects:
            print(f"line {line_number}: {reason}", file=sys.stderr)
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

def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


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
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["bucket", "count"])
        for bucket, count in enumerate(histogram.counts):
            writer.writerow([bucket, count])
    elif fmt == "plot-data":
        for bucket, count in enumerate(histogram.counts):
            out.write(f"{bucket} {count}\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


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
        with open(args.output, "w", encoding="utf-8") as out:
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
    if args.strategy == "mapping":
        if args.ids is None:
            raise UsageError("the mapping strategy requires --ids A..B")
        if args.level != 0:
            raise UsageError("the mapping strategy only has level 0 (server loads)")
        if args.bucket_size is None or args.servers is None:
            raise UsageError("the mapping strategy requires --bucket-size and --servers")
        cfg = MappingConfig(args.bucket_size, args.servers)
        histogram = build_mapping_histogram(_parse_ids(args.ids), cfg)
        echo = {"bucket_size": cfg.bucket_size, "num_servers": cfg.num_servers, "ids": args.ids}
        strategy = "mapping"
    else:
        if args.ids is not None or args.bucket_size is not None or args.servers is not None:
            raise UsageError("--ids/--bucket-size/--servers only apply to the mapping strategy")
        if args.corpus is None:
            raise UsageError(f"the {args.strategy} strategy requires a corpus file")
        strategy, payload, echo = _username_strategy(args)
        moduli = _config(strategy, payload).level_moduli
        if not 0 <= args.level < len(moduli):
            raise UsageError(f"level {args.level} outside 0..{len(moduli) - 1}")
        histogram = _scan_corpus(args.corpus, strategy, payload, args.level, True)
    if histogram.total == 0:
        print("error: no names were placed (empty or fully rejected corpus)", file=sys.stderr)
        return EXIT_EMPTY
    stats = compute_stats(histogram)
    out, close = _open_output(args.output)
    try:
        _emit_analysis(out, args.format, strategy, echo, args.level, histogram, stats, include_counts)
    finally:
        if close:
            out.close()
    print(_stats_line(stats, histogram.skipped), file=sys.stderr)
    return EXIT_OK


def _parse_strategy_spec(spec: str) -> tuple[str, object, dict]:
    name, _, config = spec.partition(":")
    if name == "letter":
        try:
            levels = int(config) if config else 6
        except ValueError:
            raise UsageError(f"letter spec expects an integer depth, got {config!r}") from None
        _config(name, levels)
        return name, levels, {"levels": levels}
    if name in ("ascii-sum", "md5"):
        default = (31, 33) if name == "ascii-sum" else (64, 64, 128)
        moduli = _parse_moduli(config) if config else default
        _config(name, moduli)
        return name, moduli, {"moduli": list(moduli)}
    if name == "mapping":
        if not config:
            raise UsageError("mapping spec needs bucket_size,num_servers (e.g. mapping:50000,20)")
        parts = _parse_moduli(config)
        if len(parts) != 2:
            raise UsageError("mapping spec needs exactly bucket_size,num_servers")
        try:
            MappingConfig(*parts)
        except ValueError as exc:
            raise UsageError(f"bad mapping config: {exc}") from None
        return name, parts, {"bucket_size": parts[0], "num_servers": parts[1]}
    raise UsageError(f"unknown strategy {name!r} in spec {spec!r}")


def _compare_steps(specs, levels: list[int], ids: str | None):
    """compare's (level, name, payload, note) steps in report order; a note replaces a row.

    A step whose row would fail raises here, so a caller that collects the
    steps before scanning can replay everything up to the failure first.
    """
    for level in levels:
        for name, payload, _ in specs:
            note = None
            if name == "mapping":
                if ids is None:
                    raise UsageError("mapping strategies in compare require --ids A..B")
                if level != 0:
                    note = f"skipping mapping at level {level} (only level 0 exists)"
                else:
                    _parse_ids(ids)
            else:
                moduli = _config(name, payload).level_moduli
                if level >= len(moduli):
                    note = f"skipping {name} at level {level} (depth {len(moduli)})"
                else:
                    joint_bucket_count(moduli, level)
            yield level, name, payload, note


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
    scans = [(name, payload, level) for level, name, payload, note in steps
             if note is None and name != "mapping"]
    scanned = None
    rows = []
    for level, name, payload, note in steps:
        if note is not None:
            print(f"note: {note}", file=sys.stderr)
            continue
        if name == "mapping":
            histogram = build_mapping_histogram(_parse_ids(args.ids), MappingConfig(*payload))
            label = f"mapping[{payload[0]},{payload[1]}]"
        else:
            if scanned is None:  # one pass over the corpus serves every scanned step
                histograms, rejects = _scan(args.corpus, scans)
                _report_rejects(rejects)
                scanned = iter(histograms)
            histogram = next(scanned)
            label = name
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
    out, close = _open_output(args.output)
    try:
        _emit_compare(out, args.format, rows)
    finally:
        if close:
            out.close()
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
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)
    elif fmt == "text":
        widths = [max(len(header[i]), *(len(row[i]) for row in formatted))
                  for i in range(len(header))]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for row in formatted:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    else:
        raise UsageError(f"unknown format {fmt!r}")


def _cmd_locate(args) -> int:
    try:
        name = normalize_username(args.name)
    except ShardbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.strategy == "letter":
        if args.moduli:
            raise UsageError("--moduli does not apply to the letter strategy")
        levels = args.levels if args.levels is not None else 6
        placement = letter_placement(name, _config("letter", levels))
        path = letter_path(name, args.root, levels)
    elif args.strategy == "md5":
        if args.levels is not None:
            raise UsageError("--levels does not apply to the md5 strategy")
        moduli = _parse_moduli(args.moduli) if args.moduli else (64, 64, 128)
        cfg = _config("md5", moduli)
        placement = md5_placement(name, cfg)
        path = md5_path(name, cfg, args.root)
    else:
        raise UsageError("locate supports --strategy letter or md5 (the path-producing schemes)")
    print(" ".join(str(bucket) for bucket, _ in placement.levels))
    print(path.render())
    return EXIT_OK


def _fanout_moduli(args) -> tuple[int, ...]:
    """Moduli to vet: raw --moduli are allowed (beyond Md5Config's 256 cap)."""
    if args.strategy == "letter":
        if args.moduli:
            raise UsageError("--moduli does not apply to the letter strategy")
        return _config("letter", args.levels if args.levels is not None else 6).level_moduli
    if args.levels is not None:
        raise UsageError("--levels does not apply to the md5 strategy")
    if args.moduli:
        return _parse_moduli(args.moduli)
    return Md5Config().level_moduli


def _cmd_check_fanout(args) -> int:
    report = fanout_report(_fanout_moduli(args), args.limit)
    print("per_level_dirs=" + ",".join(str(m) for m in report.per_level_dirs))
    print(f"dirs_under_one_top={report.dirs_under_one_top}")
    print(f"total_leaf_buckets={report.total_leaf_buckets}")
    print(f"limit={report.limit}")
    print(f"ok={'true' if report.ok else 'false'}")
    return EXIT_OK if report.ok else EXIT_LIMIT


def _cmd_mkdirs(args) -> int:
    moduli = _fanout_moduli(args)
    report = fanout_report(moduli, args.limit)
    if not report.ok:
        print(f"error: fan-out check failed (limit {report.limit}); refusing to create",
              file=sys.stderr)
        return EXIT_LIMIT
    created = materialize_tree(args.root, moduli)
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
    _add_strategy_flags(analyze, ("letter", "ascii-sum", "mapping", "md5"))
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
    _add_strategy_flags(locate, ("letter", "md5"))
    locate.add_argument("--root", default="")
    locate.set_defaults(handler=_cmd_locate)

    fanout = sub.add_parser("check-fanout", help="validate directory fan-out limits")
    _add_strategy_flags(fanout, ("letter", "md5"))
    fanout.add_argument("--limit", type=_positive_int, default=DEFAULT_FANOUT_LIMIT)
    fanout.set_defaults(handler=_cmd_check_fanout)

    mkdirs = sub.add_parser("mkdirs", help="materialize an empty bucket directory skeleton")
    _add_strategy_flags(mkdirs, ("letter", "md5"))
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
