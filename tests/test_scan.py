"""The bytes-level scan kernel against the per-name oracle, and the shared reader."""

import hashlib
import os
import string
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shardbench import cli, corpus
from shardbench.corpus import load_corpus, read_names
from shardbench.errors import ShardbenchError
from shardbench.model import normalize_username
from shardbench.stats import build_histogram
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    Md5Config,
    ascii_sum_placement,
    letter_placement,
    md5_placement,
)

# (cli name, payload, per-name placement, level moduli) for every username strategy.
STRATEGIES = [
    ("letter", 6, lambda u: letter_placement(u, LetterConfig(6)), (37,) * 6),
    ("ascii-sum", (31, 33), lambda u: ascii_sum_placement(u, AsciiSumConfig()), (31, 33)),
    ("md5", (64, 64, 128), lambda u: md5_placement(u, Md5Config()), (64, 64, 128)),
]
PAIRS = [(name, payload, level) for name, payload, _, _ in STRATEGIES for level in (0, 1)]

_PADDING = [b"", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\xc2\xa0"]
_NAMES = st.one_of(
    st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=4).map(str.encode),
    st.sampled_from([b"a" * 64, b"B" * 64, b"c" * 65, b"na me", b"a\rb", b"\xff", b"\xc3(", b"\xc3\xa9"]),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_PADDING), _NAMES, st.sampled_from(_PADDING)).map(b"".join),
    st.sampled_from([b"", b"  ", b"\r"]),
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


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("scan") / "names.txt"


def _check_kernel(path, data: bytes, threads: int) -> None:
    path.write_bytes(data)
    names, rejects = oracle(data)
    with mock.patch.dict(os.environ, {"SHARDBENCH_THREADS": str(threads)}):
        histograms, scanned_rejects = cli._scan(str(path), PAIRS)
    assert scanned_rejects == rejects
    by_name = {name: (placement_fn, moduli) for name, _, placement_fn, moduli in STRATEGIES}
    for (name, _, level), histogram in zip(PAIRS, histograms):
        placement_fn, moduli = by_name[name]
        expected = build_histogram(names, placement_fn, moduli, level)
        assert (histogram.counts, histogram.total, histogram.skipped) == \
            (expected.counts, expected.total, expected.skipped), (name, level)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
def test_serial_kernel_and_load_corpus_match_the_oracle(corpus_file, data):
    _check_kernel(corpus_file, data, 1)
    names, rejects = oracle(data)
    loaded_rejects = []
    loaded = list(load_corpus(corpus_file, lambda n, r: loaded_rejects.append((n, r))))
    assert loaded == names
    assert loaded_rejects == rejects


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES, threads=st.integers(2, 4))
def test_pooled_kernel_matches_the_oracle(corpus_file, data, threads):
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


def test_compare_reads_the_corpus_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\nbob\ncarol\n")
    reads = []
    read_names = cli.read_names

    def counting_reader(path, *args):
        reads.append(path)
        return read_names(path, *args)

    monkeypatch.setattr(cli, "read_names", counting_reader)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    argv = ["compare", str(path), "--strategy", "letter", "--strategy", "ascii-sum",
            "--strategy", "md5", "--level", "0", "--level", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert reads == [str(path)]


def test_explicit_threads_are_capped_per_cpu(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1000000")
    assert cli._worker_count() == 8
    assert capsys.readouterr().err == \
        "warning: capping SHARDBENCH_THREADS=1000000 at 8 (4 per CPU)\n"
    monkeypatch.setenv("SHARDBENCH_THREADS", "8")
    assert cli._worker_count() == 8
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
    seen = []
    with mock.patch.object(corpus, "_BLOCK", block):
        blocks = list(read_names(path, lambda n, r: seen.append((n, r))))
        _check_kernel(path, data, 1)
    assert [name for names_in_block in blocks for name in names_in_block] == \
        [name + b"\n" for name in names]
    assert seen == rejects


def test_builtin_md5_matches_hashlib():
    for name in [b"\n", b"frank\n", b"a" * 64 + b"\n", b"user_0042\n"]:
        assert cli._md5(name).digest() == hashlib.md5(name).digest()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=FILES)
def test_kernel_matches_the_oracle_with_hashlib_md5(corpus_file, data):
    with mock.patch.object(cli, "_md5", hashlib.md5):
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
    assert len(cli._plan_chunks(str(path), threads)) == threads
    _, rejects = cli._scan(str(path), PAIRS[:1])
    assert rejects == expected
    assert rejects[-1] == (371, "undecodable bytes")


# Every level of four deeper specs, with the md5 spec asked for twice: the
# kernel scans each distinct spec once, at its deepest level, and folds the
# shallower levels (and the names too short to reach them) from that scan.
# md5:32,16 has unequal moduli, so a row stride taken from the wrong level shows.
DEEP = [
    ("letter", 4, lambda u: letter_placement(u, LetterConfig(4)), (37,) * 4),
    ("ascii-sum", (31, 33, 7),
     lambda u: ascii_sum_placement(u, AsciiSumConfig((31, 33, 7))), (31, 33, 7)),
    ("md5", (64, 64, 128), lambda u: md5_placement(u, Md5Config()), (64, 64, 128)),
    ("md5", (32, 16), lambda u: md5_placement(u, Md5Config((32, 16))), (32, 16)),
]
DEEP_PAIRS = [(name, payload, level) for name, payload, _, moduli in DEEP
              for level in range(len(moduli))]
DEEP_PAIRS += [("md5", (64, 64, 128), level) for level in range(3)]
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
        histograms, scanned_rejects = cli._scan(str(path), pairs)
    assert scanned_rejects == rejects
    by_spec = {(name, payload): (placement_fn, moduli)
               for name, payload, placement_fn, moduli in DEEP}
    for (name, payload, level), histogram in zip(pairs, histograms):
        placement_fn, moduli = by_spec[name, payload]
        expected = build_histogram(names, placement_fn, moduli, level)
        assert (histogram.counts, histogram.total, histogram.skipped) == \
            (expected.counts, expected.total, expected.skipped), (name, payload, level)


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
    levels = cli._levels

    def spy(*args):
        folded.append(levels(*args))
        return folded[-1]

    monkeypatch.setattr(cli, "_levels", spy)
    monkeypatch.setenv("SHARDBENCH_THREADS", "1")
    cli._scan(str(path), [("letter", 4, 3), ("letter", 4, 2), ("md5", (64, 64, 128), 1)])
    assert [sorted(by_level) for by_level in folded] == [[2, 3], [1]]


def test_md5_tallies_no_names_below_its_deepest_level(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"al\nbob\ncarol\n")
    task = (str(path), 0, path.stat().st_size, [("md5", (64, 64, 128), 2)])
    (tallies,), _, _ = cli._scan_chunk(task)
    assert [t.bucket_count for t in tallies] == [0, 0, 64 * 64 * 128]
    assert tallies[-1].total == 3


def test_compare_hashes_each_name_once_per_distinct_md5_spec(tmp_path, monkeypatch, capsys):
    names = [b"alice", b"bob", b"carol", b"dave", b"eve", b"frank", b"grace"]
    path = tmp_path / "names.txt"
    path.write_bytes(b"\n".join(names) + b"\n")
    hashed = []
    md5 = cli._md5

    def counting_md5(data):
        hashed.append(data)
        return md5(data)

    monkeypatch.setattr(cli, "_md5", counting_md5)
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
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    path = tmp_path / "names.txt"
    path.write_bytes(b"alice\nbob\ncarol\ndave\n")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    (histogram,), rejects = cli._scan(str(path), [("md5", (64, 64, 128), 0)])
    assert (histogram.total, rejects) == (4, [])
    capsys.readouterr()
