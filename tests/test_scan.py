"""The bytes-level scan kernel against the per-name oracle, and the shared reader."""

import os
import string
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shardbench import cli
from shardbench.corpus import load_corpus
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
