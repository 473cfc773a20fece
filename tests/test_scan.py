"""The bytes-level scan kernel against the per-name oracle, and the shared reader."""

import hashlib
import io
import os
import string
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shardbench import cli, corpus, scan, workers
from shardbench.corpus import load_corpus, read_names
from shardbench.errors import ShardbenchError
from shardbench.model import normalize_username
from shardbench.stats import build_histogram, compute_stats
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    Md5Config,
    ascii_sum_placement,
    letter_placement,
    md5_placement,
)

# (config, per-name placement, level moduli) for every username strategy.
STRATEGIES = [
    (LetterConfig(6), lambda u: letter_placement(u, LetterConfig(6)), (37,) * 6),
    (AsciiSumConfig(), lambda u: ascii_sum_placement(u, AsciiSumConfig()), (31, 33)),
    (Md5Config(), lambda u: md5_placement(u, Md5Config()), (64, 64, 128)),
]
PAIRS = [(config, level) for config, _, _ in STRATEGIES for level in (0, 1)]

# \x1f and NEL (\xc2\x85) are whitespace only once decoded; \x00 never is.
_PADDING = [b"", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1f", b"\xc2\xa0",
            b"\xc2\x85", b"\x00"]
_NAMES = st.one_of(
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=4).map(str.encode),
    st.sampled_from([b"a" * 64, b"B" * 64, b"c" * 65, b"aB" * 32, b"Ab" * 32 + b"C",
                     b"x" * 63 + b"Y_", b"na me", b"a\rb", b"\xff", b"\xc3(", b"\xc3\xa9"]),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_PADDING), _NAMES, st.sampled_from(_PADDING)).map(b"".join),
    # Blank lines, runs of them, and lines of only \r.
    st.sampled_from([b"", b"\n", b"\n\n", b"  ", b"\r", b"\r\r"]),
    st.binary(max_size=6),
)
FILES = st.tuples(st.lists(_LINES, max_size=30), st.booleans()).map(
    lambda parts: b"\n".join(parts[0]) + (b"\n" if parts[1] else b""))


def oracle(data: bytes):
    """Names and (line_number, reason) rejects, line by line through normalize_username."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    names, rejects = [], []
    for number, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            rejects.append((number, "undecodable bytes"))
            continue
        if not text:
            continue
        try:
            names.append(normalize_username(text))
        except ShardbenchError as exc:
            rejects.append((number, str(exc)))
    return names, rejects


def report_text(rejects) -> str:
    """(line_number, reason) rejects as the kernel reports them."""
    return "".join(f"line {number}: {reason}\n" for number, reason in rejects)


def scanned(path, pairs):
    """scan._scan()'s histograms, report text and reject count for a corpus file.

    The count is the one the report's last line, `N lines rejected`, gives;
    a report with no rejects is empty.
    """
    report = io.StringIO()
    histograms = scan._scan(str(path), pairs, report)
    *lines, count = report.getvalue().splitlines(True) or ["0 lines rejected\n"]
    rejected = int(count.split()[0])
    assert count == f"{rejected} lines rejected\n"
    return histograms, "".join(lines), rejected


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "names.txt"


def _check_kernel(path, data: bytes, threads: int) -> None:
    path.write_bytes(data)
    names, rejects = oracle(data)
    with mock.patch.dict(os.environ, {"SHARDBENCH_THREADS": str(threads)}):
        histograms, report, rejected = scanned(path, PAIRS)
    assert (report, rejected) == (report_text(rejects), len(rejects))
    by_config = {config: (placement_fn, moduli) for config, placement_fn, moduli in STRATEGIES}
    for (config, level), histogram in zip(PAIRS, histograms):
        placement_fn, moduli = by_config[config]
        expected = build_histogram(names, placement_fn, moduli, level)
        assert (histogram.counts, histogram.total, histogram.skipped) == \
            (expected.counts, expected.total, expected.skipped), (config, level)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
def test_serial_kernel_and_load_corpus_match_the_oracle(corpus_file, data):
    _check_kernel(corpus_file, data, 1)
    names, rejects = oracle(data)
    loaded_rejects = []
    loaded = list(load_corpus(corpus_file, lambda n, r: loaded_rejects.append((n, r))))
    assert loaded == names
    assert loaded_rejects == rejects


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES, threads=st.integers(2, 4), block=st.sampled_from([1, 7, 16 << 10]))
def test_pooled_kernel_matches_the_oracle(corpus_file, data, threads, block):
    # Small blocks move the planner's split points and line counts across block edges.
    with mock.patch.object(corpus, "_BLOCK", block):
        _check_kernel(corpus_file, data, threads)


def test_load_corpus_reports_an_undecodable_line_and_goes_on(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\n\xff\xfe\nBob\n")
    rejects = []
    assert list(load_corpus(path, lambda n, r: rejects.append((n, r)))) == ["alice", "bob"]
    assert rejects == [(2, "undecodable bytes")]


def test_load_corpus_splits_lines_on_newline_only(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"a\rb\ncarol\r\n")
    rejects = []
    assert list(load_corpus(path, lambda n, r: rejects.append((n, r)))) == ["carol"]
    assert rejects == [(1, "invalid character '\\r' at position 1")]


def _read_seconds(path) -> float:
    """The least of three times to read every block of `path`."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in read_names(path):
            pass
        best = min(best, time.perf_counter() - start)
    return best


def test_blank_lines_are_dropped_in_one_pass(tmp_path):
    blank, names = tmp_path / "blank.txt", tmp_path / "names.txt"
    blank.write_bytes(b"\n" * (1 << 20) + b"carol\n")
    names.write_bytes(b"".join(b"user%d\n" % n for n in range(1 << 17))[:1 << 20])
    assert list(load_corpus(blank)) == ["carol"]
    # Deleting each blank line on its own, a quadratic sweep, took 230 times as long.
    assert _read_seconds(blank) < 20 * _read_seconds(names)


def test_compare_reads_the_corpus_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\nbob\ncarol\n")
    reads = []
    read_names = scan.read_names

    def counting_reader(path, *args):
        reads.append(path)
        return read_names(path, *args)

    monkeypatch.setattr(scan, "read_names", counting_reader)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    argv = ["compare", str(path), "--strategy", "letter", "--strategy", "ascii-sum",
            "--strategy", "md5", "--level", "0", "--level", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert reads == [str(path)]


def test_explicit_threads_are_capped_per_cpu(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1000000")
    assert workers._worker_count() == 8
    assert capsys.readouterr().err == \
        "warning: capping SHARDBENCH_THREADS=1000000 at 8 (4 per CPU)\n"
    monkeypatch.setenv("SHARDBENCH_THREADS", "8")
    assert workers._worker_count() == 8
    assert capsys.readouterr().err == ""


def test_threads_warning_prints_once_per_compare(tmp_path, monkeypatch, capsys):
    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\nbob\ncarol\n")
    monkeypatch.setenv("SHARDBENCH_THREADS", "lots")
    argv = ["compare", str(path), "--strategy", "ascii-sum", "--strategy", "md5",
            "--level", "0", "--level", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err.count("SHARDBENCH_THREADS") == 1


@pytest.mark.parametrize("block", [1, 7])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
# With blocks of 7 bytes: blank lines at block starts, and a CRLF line that fills a block.
@example(data=b"abcdef\n\nx\n")
@example(data=b"abcde\r\n\n\n")
@example(data=b"\n\n\n\n\n\n\n\nAb\n")
@example(data=b"abcdefg\n\nh")
def test_kernel_matches_the_oracle_across_block_edges(corpus_file, block, data):
    with mock.patch.object(corpus, "_BLOCK", block):
        _check_kernel(corpus_file, data, 1)


@pytest.mark.parametrize("block", [1, 4, 16 << 10])
@pytest.mark.parametrize("data, names, rejects", [
    # A line longer than a block, then one the block read stops inside.
    (b"ab\n" + b"C" * 64 + b"\nde\n", [b"ab", b"c" * 64, b"de"], []),
    # A CRLF whose \r and \n fall in different blocks.
    (b"abc\r\nDe\r\nfg\n", [b"abc", b"de", b"fg"], []),
    # A final line with no newline.
    (b"ab\ncd", [b"ab", b"cd"], []),
    # 65 valid characters: the last 64 alone would pass, the line must not.
    (b"ab\nz" + b"y" * 64 + b"\ncd\n", [b"ab", b"cd"],
     [(2, "username has 65 characters, max 64")]),
])
def test_reader_at_block_edges(tmp_path, block, data, names, rejects):
    path = tmp_path / "names.txt"
    path.write_bytes(data)
    with mock.patch.object(corpus, "_BLOCK", block):
        blocks = list(read_names(path))
        _check_kernel(path, data, 1)
    assert [name for names_in_block, _ in blocks for name in names_in_block] == \
        [name + b"\n" for name in names]
    assert [reject for _, rejects_in_block in blocks for reject in rejects_in_block] == rejects


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("block", [6, 16 << 10])
@pytest.mark.parametrize("data", [
    # A blank first line of the file, and (in blocks of 6 bytes) of later blocks.
    b"\nalice\n\nbob\ncarol\n\ndave\n",
    # Runs of blank lines, one of them at the end.
    b"alice\n\n\n\nbob\n\n\ncarol\n\n\n",
    # Lines of only \r, of only whitespace, and of both.
    b"alice\n\r\n\r\r\n \t\n\x0b\x0c\n \r\nbob\n  \ncarol\n",
    # Dropped lines (rejected, or blank once trimmed) next to blank lines.
    b"alice\n\nbad-name\n\nb@d\n\xff\n\n \nbob\n" + b"x" * 65 + b"\n\ncarol\n",
    # A file that ends without \n, in a dropped line and in a name.
    b"alice\n\n-x-",
    b"alice\n\nBob ",
])
def test_reader_edge_cases_match_the_oracle(tmp_path, threads, block, data):
    with mock.patch.object(corpus, "_BLOCK", block):
        _check_kernel(tmp_path / "names.txt", data, threads)


def _plan_rule(data: bytes, workers: int) -> list[int]:
    """The range starts: just past the first newline at or after each even share of the file."""
    starts = [0]
    for i in range(1, workers):
        start = data.find(b"\n", len(data) * i // workers) + 1
        if starts[-1] < start < len(data):
            starts.append(start)
    return starts


@pytest.mark.parametrize("block", [1, 7])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
@example(data=b"")
@example(data=b"\n\n\n\n")
@example(data=b"abcdefghijklmnop\r\n\nq\r\n" + b"r" * 20)
def test_the_plan_tiles_the_file_and_counts_the_lines_before_each_range(
        corpus_file, block, data):
    corpus_file.write_bytes(data)
    for workers in range(1, 5):
        with mock.patch.object(corpus, "_BLOCK", block):
            plan = scan._plan_chunks(str(corpus_file), workers)
        starts = [start for start, _, _ in plan]
        assert starts == _plan_rule(data, workers)
        assert [end for _, end, _ in plan] == starts[1:] + [len(data)]
        for start, _, before in plan:
            assert start == 0 or data[start - 1] == ord("\n")
            assert before == data[:start].count(b"\n")


def test_each_loop_compiles_once_per_scan_before_any_fork(tmp_path, monkeypatch):
    path = _pooled_corpus(tmp_path)
    this_process = os.getpid()
    built = []
    build_loop = scan._build_loop

    def spy(config, level):
        if os.getpid() != this_process:
            raise AssertionError("a worker compiled a loop")
        built.append((config, level))
        return build_loop(config, level)

    monkeypatch.setattr(scan, "_build_loop", spy)
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    assert len(scan._plan_chunks(str(path), 3)) == 3
    pairs = [(Md5Config(), 0), (LetterConfig(4), 2), (Md5Config(), 1)]
    (md5, letter, _), report, rejected = scanned(path, pairs)
    assert built == [(Md5Config(), 1), (LetterConfig(4), 2)]
    assert (md5.total, letter.total + letter.skipped, report, rejected) == \
        (400, 400, "line 401: invalid character ' ' at position 3\n", 1)


def test_builtin_md5_matches_hashlib():
    for name in [b"\n", b"frank\n", b"a" * 64 + b"\n", b"user_0042\n"]:
        assert scan._md5(name).digest() == hashlib.md5(name).digest()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
def test_kernel_matches_the_oracle_with_hashlib_md5(corpus_file, data):
    with mock.patch.object(scan, "_md5", hashlib.md5):
        _check_kernel(corpus_file, data, 1)


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_pooled_reject_line_numbers_count_from_the_file_start(tmp_path, monkeypatch, threads):
    # Rejects in every chunk: each worker numbers its lines from its own
    # chunk start, and the parent must shift them by the lines before it.
    lines = []
    for number in range(1, 401):
        lines.append(b"bad name" if number % 37 == 0 else b"" if number % 41 == 0
                     else b"\xff" if number % 53 == 0 else b"user%d" % number)
    path = tmp_path / "names.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    _, expected = oracle(path.read_bytes())
    monkeypatch.setenv("SHARDBENCH_THREADS", str(threads))
    assert len(scan._plan_chunks(str(path), threads)) == threads
    _, report, rejected = scanned(path, PAIRS[:1])
    assert (report, rejected) == (report_text(expected), len(expected))
    assert report.endswith("line 371: undecodable bytes\n")


def _dirty_in_every_chunk(tmp_path, chunks):
    """A corpus whose every chunk holds rejects, blank lines and padded names; its oracle."""
    lines = []
    for number in range(1, 601):
        lines.append(b"bad name" if number % 37 == 0 else b"" if number % 41 == 0
                     else b"\xff" if number % 53 == 0 else b"  User%d\r" % number if number % 9 == 0
                     else b"user%d" % number)
    path = tmp_path / "names.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    data = path.read_bytes()
    planned = scan._plan_chunks(str(path), chunks)
    assert len(planned) == chunks
    for start, end, _ in planned:
        chunk = data[start:end]
        assert oracle(chunk)[1] and b"\n\n" in chunk, (start, end)
    return path, oracle(data)


@pytest.mark.parametrize("verb", ["analyze", "compare"])
def test_stderr_does_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys, verb):
    path, (names, rejects) = _dirty_in_every_chunk(tmp_path, 3)
    expected = report_text(rejects) + f"{len(rejects)} lines rejected\n"
    if verb == "analyze":
        argv = ["analyze", str(path), "--strategy", "md5", "--level", "1", "--no-counts"]
        histogram = build_histogram(names, lambda u: md5_placement(u, Md5Config()),
                                    (64, 64, 128), 1)
        expected += cli._stats_line(compute_stats(histogram), histogram.skipped) + "\n"
    else:  # the note comes after the scan its level-0 steps set off
        argv = ["compare", str(path), "--strategy", "letter:1", "--strategy", "md5",
                "--level", "0", "--level", "1"]
        expected += "note: skipping letter at level 1 (depth 1)\n"
    for threads in (1, 2, 3):
        monkeypatch.setenv("SHARDBENCH_THREADS", str(threads))
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == expected, threads


# Every level of seven deeper specs, with the md5 spec asked for twice: the
# kernel scans each distinct spec once, at its deepest level, and folds the
# shallower levels (and the names too short to reach them) from that scan.
# md5:32,16 has unequal moduli, so a row stride taken from the wrong level shows.
# The last three give the generated loops unusual shapes: terms of modulus 1
# over four levels, the widest and the narrowest md5 table, and one level only.
DEEP = [
    (LetterConfig(4), lambda u: letter_placement(u, LetterConfig(4)), (37,) * 4),
    (AsciiSumConfig((31, 33, 7)),
     lambda u: ascii_sum_placement(u, AsciiSumConfig((31, 33, 7))), (31, 33, 7)),
    (Md5Config(), lambda u: md5_placement(u, Md5Config()), (64, 64, 128)),
    (Md5Config((32, 16)), lambda u: md5_placement(u, Md5Config((32, 16))), (32, 16)),
    (AsciiSumConfig((1, 5, 1, 3)),
     lambda u: ascii_sum_placement(u, AsciiSumConfig((1, 5, 1, 3))), (1, 5, 1, 3)),
    (Md5Config((256, 2, 3)), lambda u: md5_placement(u, Md5Config((256, 2, 3))), (256, 2, 3)),
    (LetterConfig(1), lambda u: letter_placement(u, LetterConfig(1)), (37,)),
]
DEEP_PAIRS = [(config, level) for config, _, moduli in DEEP for level in range(len(moduli))]
DEEP_PAIRS += [(Md5Config(), level) for level in range(3)]
# Names of 1..5 characters, so some stop short of each level, among dirty lines.
DEEP_FILES = st.lists(
    st.one_of(st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=5)
              .map(str.encode), _LINES),
    max_size=30,
).map(lambda lines: b"\n".join(lines) + b"\n")


def _check_every_level(path, data: bytes, pairs, threads: int) -> None:
    path.write_bytes(data)
    names, rejects = oracle(data)
    with mock.patch.dict(os.environ, {"SHARDBENCH_THREADS": str(threads)}):
        histograms, report, rejected = scanned(path, pairs)
    assert (report, rejected) == (report_text(rejects), len(rejects))
    by_spec = {config: (placement_fn, moduli) for config, placement_fn, moduli in DEEP}
    for (config, level), histogram in zip(pairs, histograms):
        placement_fn, moduli = by_spec[config]
        expected = build_histogram(names, placement_fn, moduli, level)
        assert (histogram.counts, histogram.total, histogram.skipped) == \
            (expected.counts, expected.total, expected.skipped), (config, level)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=DEEP_FILES, pairs=st.permutations(DEEP_PAIRS))
def test_every_level_of_a_spec_matches_the_oracle(corpus_file, data, pairs):
    _check_every_level(corpus_file, data, pairs, 1)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=DEEP_FILES, pairs=st.permutations(DEEP_PAIRS))
def test_every_level_of_a_spec_matches_the_oracle_pooled(corpus_file, data, pairs):
    _check_every_level(corpus_file, data, pairs, 3)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=DEEP_FILES, pairs=st.lists(st.sampled_from(DEEP_PAIRS), min_size=1, max_size=6))
def test_some_levels_of_a_spec_match_the_oracle(corpus_file, data, pairs):
    _check_every_level(corpus_file, data, pairs, 1)


def test_a_spec_is_folded_only_down_to_its_shallowest_level(tmp_path, monkeypatch):
    path = tmp_path / "names.txt"
    path.write_bytes(b"al\nbob\ncarol\n")
    folded = []
    levels = scan._levels

    def spy(*args):
        folded.append(levels(*args))
        return folded[-1]

    monkeypatch.setattr(scan, "_levels", spy)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    scanned(path, [(LetterConfig(4), 3), (LetterConfig(4), 2), (Md5Config(), 1)])
    assert [sorted(by_level) for by_level in folded] == [[2, 3], [1]]


def test_md5_tallies_no_names_below_its_deepest_level(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"al\nbob\ncarol\n")
    (tallies,), _ = scan._scan_chunk(str(path), 0, path.stat().st_size, 0,
                                     [scan._build_loop(Md5Config(), 2)], io.StringIO())
    assert [len(t) for t in tallies] == [0, 0, 64 * 64 * 128]
    assert sum(tallies[-1]) == 3


def test_compare_hashes_each_name_once_per_distinct_md5_spec(tmp_path, monkeypatch, capsys):
    names = [b"alice", b"bob", b"carol", b"dave", b"eve", b"frank", b"grace"]
    path = tmp_path / "names.txt"
    path.write_bytes(b"\n".join(names) + b"\n")
    hashed = []
    md5 = scan._md5

    def counting_md5(data):
        hashed.append(data)
        return md5(data)

    monkeypatch.setattr(scan, "_md5", counting_md5)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    argv = ["compare", str(path), "--strategy", "md5", "--strategy", "md5:64,64,128",
            "--strategy", "letter", "--level", "0", "--level", "1", "--level", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert hashed == [name + b"\n" for name in names]  # once each, not once per pair


@pytest.mark.parametrize("threads", ["abc", "-1", ""])
def test_ignored_threads_setting_acts_as_unset(tmp_path, monkeypatch, capsys, threads):
    # A small file scans serially unless SHARDBENCH_THREADS asks for workers;
    # a value it ignores must not ask.
    def no_fork():
        raise AssertionError("a worker was forked")

    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\nbob\ncarol\ndave\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    (histogram,), report, rejected = scanned(path, [(Md5Config(), 0)])
    assert (histogram.total, report, rejected) == (4, "", 0)
    capsys.readouterr()


def _pooled_corpus(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"".join(b"user%d\n" % n for n in range(400)) + b"bad name\n")
    return path


def _temp_dir(tmp_path, monkeypatch):
    """An empty directory that tempfile makes its files in from now on."""
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return temp


def test_a_failing_worker_fails_the_run_as_a_serial_scan_does(tmp_path, monkeypatch, capsys):
    path = _pooled_corpus(tmp_path)
    temp = _temp_dir(tmp_path, monkeypatch)
    scan_chunk = scan._scan_chunk

    def failing(path, start, end, before, loops, report, fails=lambda start: True):
        if fails(start):
            raise OSError(5, "Input/output error", path)
        return scan_chunk(path, start, end, before, loops, report)

    argv = ["analyze", str(path), "--strategy", "md5", "--level", "1"]
    monkeypatch.setattr(scan, "_scan_chunk", failing)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    assert cli.main(argv) == cli.EXIT_IO
    serial = capsys.readouterr()
    assert serial.err == f"error: [Errno 5] Input/output error: '{path}'\n"
    # A forked child inherits the patch: only the workers' chunks fail, or only the parent's.
    for fails in (lambda start: start > 0, lambda start: start == 0):
        monkeypatch.setattr(scan, "_scan_chunk", lambda *chunk: failing(*chunk, fails))
        monkeypatch.setenv("SHARDBENCH_THREADS", "3")
        assert cli.main(argv) == cli.EXIT_IO
        assert capsys.readouterr() == ("", serial.err)
        assert list(temp.iterdir()) == []


def test_a_worker_that_exits_without_a_result_fails_the_run(tmp_path, monkeypatch, capsys):
    path = _pooled_corpus(tmp_path)
    temp = _temp_dir(tmp_path, monkeypatch)
    scan_chunk = scan._scan_chunk

    def vanishing(path, start, end, before, loops, report):
        if start > 0:
            os._exit(0)
        return scan_chunk(path, start, end, before, loops, report)

    monkeypatch.setattr(scan, "_scan_chunk", vanishing)
    monkeypatch.setenv("SHARDBENCH_THREADS", "2")
    _, (start, size, _) = scan._plan_chunks(str(path), 2)
    assert cli.main(["analyze", str(path), "--strategy", "md5"]) == cli.EXIT_IO
    assert capsys.readouterr() == ("", f"error: the worker scanning bytes {start}..{size} of "
                                       f"{path} exited without a result\n")
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_the_parent_scans_the_first_chunk_and_forks_one_worker_per_other(
        tmp_path, monkeypatch, threads):
    path = _pooled_corpus(tmp_path)
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setenv("SHARDBENCH_THREADS", str(threads))
    assert len(scan._plan_chunks(str(path), threads)) == threads
    (histogram,), report, rejected = scanned(path, [(Md5Config(), 1)])
    assert len(forked) == threads - 1
    assert (histogram.total, report, rejected) == \
        (400, "line 401: invalid character ' ' at position 3\n", 1)


def test_without_fork_the_scan_is_serial(tmp_path, monkeypatch):
    path = _pooled_corpus(tmp_path)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    (histogram,), report, rejected = scanned(path, [(Md5Config(), 1)])
    assert (histogram.total, report, rejected) == \
        (400, "line 401: invalid character ' ' at position 3\n", 1)


def test_unflushed_output_from_before_a_pooled_scan_is_written_once(tmp_path):
    path = _pooled_corpus(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys\nsys.stdout.write('before the scan\\n')\n"
            "from shardbench import cli\n"
            f"sys.exit(cli.main(['analyze', {str(path)!r}, '--strategy', 'md5', '--no-counts']))")
    env = dict(os.environ, SHARDBENCH_THREADS="3",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # so the text waits in the buffer when the workers fork
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.count(b"before the scan") == 1


@pytest.fixture(scope="module")
def million_rejects(tmp_path_factory):
    path = tmp_path_factory.mktemp("rejects") / "rejects.txt"
    with open(path, "wb") as out:
        for start in range(0, 1_000_000, 100_000):
            out.write(b"".join(b"bad-name%d\n" % n for n in range(start, start + 100_000)))
    yield path
    path.unlink()


# A process's peak RSS starts at that of the process that started it, so this
# small launcher, not the test process, starts the CLI. wait4 then gives the
# peak of that one run and the workers it reaped, where RUSAGE_CHILDREN would
# keep the largest child of any earlier test.
_LAUNCH = """
import os, sys
err = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
argv = [sys.executable, "-m", "shardbench.cli", *sys.argv[2:]]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0), (os.POSIX_SPAWN_DUP2, err, 2)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("threads", ["1", "3"])
def test_a_million_rejected_lines_scan_in_bounded_memory(million_rejects, tmp_path, threads):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, SHARDBENCH_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    err = tmp_path / "stderr.txt"
    launch = subprocess.run([sys.executable, "-c", _LAUNCH, str(err), "analyze",
                             str(million_rejects), "--strategy", "md5"],
                            env=env, capture_output=True, text=True, timeout=300)
    assert launch.returncode == 0, launch.stderr
    code, peak_kib = map(int, launch.stdout.split())
    assert code == cli.EXIT_EMPTY
    assert peak_kib < 64 << 10, f"peak RSS {peak_kib} KiB"
    report = "line {}: invalid character '-' at position 3\n"
    size = sum(len(report.format(n)) for n in range(1, 1_000_001))
    tail = ("1000000 lines rejected\n"
            "error: no names were placed (empty or fully rejected corpus)\n").encode()
    assert err.stat().st_size == size + len(tail)
    with open(err, "rb") as written:
        written.seek(size - len(report.format(1_000_000)))
        assert written.read() == report.format(1_000_000).encode() + tail
    err.unlink()  # about 49 MB
