"""Report bytes: each format as json.dump and csv.writer write it, in a few large writes."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from argparse import Namespace
from functools import partial
from pathlib import Path

import pytest

from shardbench import cli
from shardbench.corpus import CorpusSpec, generate_corpus
from shardbench.stats import Histogram, compute_stats

SRC = Path(__file__).resolve().parents[1] / "src"


def _histogram(buckets: int, seed: int) -> Histogram:
    counts = [(bucket * 7919 + seed) % 97 for bucket in range(buckets)]
    return Histogram(counts, sum(counts), seed)


HISTOGRAMS = [_histogram(1, 1), _histogram(7, 3), _histogram(4096, 5)]


def _reference_analysis(out, fmt, strategy, echo, level, histogram, stats, include_counts):
    """An analysis report written with json.dump and csv.writer, one write per piece."""
    if fmt == "json":
        report = {
            "strategy": strategy, "config": echo, "level": level,
            "bucket_count": histogram.bucket_count, "total": histogram.total,
            "skipped": histogram.skipped, "ideal_mean": stats.ideal_mean,
            "std_dev": stats.std_dev, "deviation_ratio": stats.deviation_ratio,
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
    else:
        for bucket, count in enumerate(histogram.counts):
            out.write(f"{bucket} {count}\n")


def _joined(emit, *args) -> str:
    """What `emit` writes to a stream."""
    stream = io.StringIO()
    emit(stream, *args)
    return stream.getvalue()


@pytest.mark.parametrize("include_counts", [True, False])
@pytest.mark.parametrize("fmt", ["json", "csv", "plot-data"])
@pytest.mark.parametrize("histogram", HISTOGRAMS, ids=lambda h: f"{h.bucket_count}-buckets")
def test_analysis_reports_match_json_dump_and_csv_writer(histogram, fmt, include_counts):
    stats = compute_stats(histogram)
    expected = io.StringIO()
    _reference_analysis(expected, fmt, "md5", {"moduli": [64, 64]}, 1, histogram, stats,
                        include_counts)
    args = Namespace(format=fmt, no_counts=not include_counts)
    row = cli._Row(1, "md5", histogram, stats)
    assert _joined(cli._emit_analysis, args, "md5", {"moduli": [64, 64]}, row) == \
        expected.getvalue()


def _compare_rows():
    rows = []
    for level, (label, histogram) in enumerate([("md5", HISTOGRAMS[2]),
                                                ("mapping[10000,20]", HISTOGRAMS[1]),
                                                ("letter", HISTOGRAMS[0])]):
        rows.append(cli._Row(level, label, histogram, compute_stats(histogram)))
    return rows


def _reference_compare_cells(rows):
    header = ["strategy", "level", "bucket_count", "ideal_mean", "std_dev", "deviation_ratio",
              "skipped"]
    return [header] + [
        [label, str(level), str(h.bucket_count), f"{s.ideal_mean:.6g}", f"{s.std_dev:.6g}",
         f"{s.deviation_ratio:.6g}", str(h.skipped)]
        for level, label, h, s in rows
    ]


def test_compare_csv_matches_csv_writer():
    rows = _compare_rows()
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(_reference_compare_cells(rows))
    assert _joined(cli._emit_compare, "csv", rows) == expected.getvalue()


def test_compare_text_pads_each_column_to_its_widest_cell():
    rows = _compare_rows()
    cells = _reference_compare_cells(rows)
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    expected = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                       for row in cells)
    assert _joined(cli._emit_compare, "text", rows) == expected


class _CountingRaw(io.RawIOBase):
    """An unbuffered sink that counts the writes reaching it, as system calls would."""

    def __init__(self):
        self.writes = 0
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        self.data += data
        return len(data)


def _write_through():
    """A text stream like stdout under PYTHONUNBUFFERED: every write reaches the raw file."""
    raw = _CountingRaw()
    return raw, io.TextIOWrapper(raw, encoding="utf-8", write_through=True)


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("reports") / "names.txt"
    path.write_text("".join(f"user{n}\n" for n in range(20_000)))
    return path


@pytest.mark.parametrize("fmt", ["json", "csv", "plot-data"])
def test_a_4096_bucket_report_takes_a_few_writes(wide_corpus, monkeypatch, capsys, fmt):
    raw, stream = _write_through()
    monkeypatch.setattr(sys, "stdout", stream)
    argv = ["analyze", str(wide_corpus), "--strategy", "md5", "--moduli", "64,64", "--level", "1",
            "--format", fmt]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert raw.data.count(b"\n") >= 4096
    assert raw.writes <= 8, raw.writes
    # The stream is write-through: json.dump alone makes a write per token.
    if fmt == "json":
        raw.writes = 0
        json.dump(list(range(4096)), stream, indent=2)
        assert raw.writes > 4096


class _FullRaw(_CountingRaw):
    """A sink whose every write fails, as on a full device."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("raw, code", [(_CountingRaw, cli.EXIT_OK), (_FullRaw, cli.EXIT_IO)],
                         ids=["written", "failed"])
@pytest.mark.parametrize("verb", [["analyze", "{corpus}", "--strategy", "md5", "--level", "1"],
                                  ["locate", "frank", "--strategy", "md5"]])
def test_an_in_process_run_leaves_stdout_write_through(wide_corpus, monkeypatch, capsys, raw,
                                                       code, verb):
    stream = io.TextIOWrapper(raw(), encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stream)
    assert cli.main([arg.format(corpus=wide_corpus) for arg in verb]) == code
    capsys.readouterr()
    assert stream.write_through


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("moduli", ["64", "64,64"])  # a report within stdout's buffer, and past it
def test_a_report_to_a_full_device_fails_with_exit_3(tmp_path, unbuffered, moduli):
    (tmp_path / "names.txt").write_text("alice\nbob\n")
    verb = ["analyze", "names.txt", "--strategy", "md5", "--moduli", moduli,
            "--level", str(moduli.count(","))]
    run = _run_with_failing(tmp_path, verb, "full", unbuffered, stream="stdout")
    assert run.returncode == cli.EXIT_IO, run.stderr
    assert run.stderr == "error: [Errno 28] No space left on device\n"


def test_an_in_process_io_error_leaves_stdout_where_it_was(tmp_path, capfd):
    missing = str(tmp_path / "missing.txt")
    assert cli.main(["analyze", missing, "--strategy", "md5"]) == cli.EXIT_IO
    print("printed", flush=True)
    os.write(1, b"written\n")
    assert capfd.readouterr() == ("printed\nwritten\n", f"error: [Errno 2] No such file or "
                                                        f"directory: {missing!r}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("verb", [
    ["locate", "frank", "--strategy", "md5"],
    ["check-fanout", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "letter", "--strategy", "md5"],
    ["gen-corpus", "--model", "uniform", "--count", "50", "-o", "-"],  # within stdout's buffer
    ["gen-corpus", "--model", "uniform", "--count", "30000", "-o", "-"],  # and past it
], ids=["locate", "check-fanout", "compare", "gen-corpus-50", "gen-corpus-30000"])
def test_a_write_to_a_full_device_fails_with_exit_3(tmp_path, unbuffered, verb):
    (tmp_path / "names.txt").write_text("alice\nbob\n")
    run = _run_with_failing(tmp_path, [arg.format(corpus="names.txt") for arg in verb], "full",
                            unbuffered, stream="stdout")
    assert run.returncode == cli.EXIT_IO, run.stderr
    assert run.stderr == "error: [Errno 28] No space left on device\n"


def _run_with_failing(tmp_path, verb, state, unbuffered, stream="stderr"):
    """Runs the program in tmp_path with `stream` on /dev/full or closed, the other one piped.

    A closed stream is closed before the program starts, as `2>&-` or `>&-` closes it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if unbuffered:  # the binary layer of stdout and stderr is then a FileIO, else a BufferedWriter
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "shardbench.cli", *verb]
    piped = {"stdout": "stderr", "stderr": "stdout"}[stream]
    with open("/dev/full", "w") as full:
        failing = ({stream: full} if state == "full" else
                   {"preexec_fn": partial(os.close, {"stdout": 1, "stderr": 2}[stream])})
        return subprocess.run(argv, cwd=tmp_path, env=env, text=True, timeout=60,
                              **{piped: subprocess.PIPE}, **failing)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("state", ["closed", "full"])
@pytest.mark.parametrize("verb", [
    ["analyze", "clean.txt", "--strategy", "md5", "--no-counts"],  # the stats line fails
    ["analyze", "dirty.txt", "--strategy", "md5", "--no-counts"],  # a reject line fails
    ["analyze", "dirty.txt", "--strategy", "md5", "-o", "old.json"],
    ["analyze", "missing.txt", "--strategy", "md5"],  # main's own error line fails
    ["compare", "dirty.txt", "--strategy", "letter", "--strategy", "md5"],
    ["gen-corpus", "--model", "name-like", "--count", "500", "--seed", "3", "-o", "names.txt"],
    ["mkdirs", "--root", "tree", "--strategy", "md5", "--moduli", "4,4"],
], ids=["analyze-clean", "analyze-dirty", "analyze-dirty-o", "analyze-missing", "compare-dirty",
        "gen-corpus-o", "mkdirs"])
def test_a_failing_stderr_fails_with_exit_3(tmp_path, unbuffered, state, verb):
    (tmp_path / "clean.txt").write_text("alice\nbob\n")
    (tmp_path / "dirty.txt").write_text("alice\nna me\nbob\n")
    (tmp_path / "old.json").write_text("old\n")
    run = _run_with_failing(tmp_path, verb, state, unbuffered)
    assert run.returncode == cli.EXIT_IO, run.stdout
    assert "Traceback" not in run.stdout
    assert "rejected" not in run.stdout and "error" not in run.stdout  # no diagnostic on stdout
    # What a verb committed before its summary line stays; a failed report changes nothing.
    assert (tmp_path / "old.json").read_text() == "old\n"
    if verb[0] == "gen-corpus":
        expected = list(generate_corpus(CorpusSpec("name_like", 500, 3)))
        assert (tmp_path / "names.txt").read_text().splitlines() == expected
    if verb[0] == "mkdirs":
        assert len(list((tmp_path / "tree").rglob("*"))) == 4 + 16


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("state", ["closed", "full"])
@pytest.mark.parametrize("verb, code", [
    (["analyze", "clean.txt", "--strategy", "mapping"], cli.EXIT_USAGE),
    (["analyze", "clean.txt", "--strategy", "nope"], cli.EXIT_USAGE),  # argparse's own error
    (["compare"], cli.EXIT_USAGE),  # and a subparser's
    (["analyze", "empty.txt", "--strategy", "md5"], cli.EXIT_EMPTY),
    (["mkdirs", "--root", "tree", "--strategy", "md5", "--moduli", "9,9", "--limit", "8"],
     cli.EXIT_LIMIT),
], ids=["usage", "argparse", "argparse-compare", "empty", "limit"])
def test_a_failing_stderr_keeps_mains_own_codes(tmp_path, unbuffered, state, verb, code):
    (tmp_path / "clean.txt").write_text("alice\nbob\n")
    (tmp_path / "empty.txt").write_text("")
    run = _run_with_failing(tmp_path, verb, state, unbuffered)
    assert (run.returncode, run.stdout) == (code, "")
    assert not (tmp_path / "tree").exists()


HELPS = [[], ["gen-corpus"], ["analyze"], ["compare"], ["locate"], ["check-fanout"], ["mkdirs"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("state, line", [
    ("closed", "error: [Errno 9] Bad file descriptor: '<stdout>'\n"),
    ("full", "error: [Errno 28] No space left on device\n"),
], ids=["closed", "full"])
@pytest.mark.parametrize("verb", HELPS, ids=lambda verb: verb[0] if verb else "shardbench")
def test_help_to_a_failing_stdout_fails_with_exit_3(tmp_path, unbuffered, state, line, verb):
    run = _run_with_failing(tmp_path, [*verb, "--help"], state, unbuffered, stream="stdout")
    assert (run.returncode, run.stderr) == (cli.EXIT_IO, line)


@pytest.mark.parametrize("verb", HELPS, ids=lambda verb: verb[0] if verb else "shardbench")
def test_help_is_argparses_own_text(verb, capsys):
    parser = cli._build_parser()
    if verb:
        parser = parser._subparsers._group_actions[0].choices[verb[0]]
    assert cli.main([*verb, "--help"]) == cli.EXIT_OK
    assert capsys.readouterr() == (parser.format_help(), "")


def test_an_in_process_closed_stderr_keeps_diagnostics_off_stdout(tmp_path, monkeypatch, capsys):
    (tmp_path / "clean.txt").write_text("alice\nbob\n")
    (tmp_path / "dirty.txt").write_text("alice\nna me\nbob\n")
    report = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stderr", None)
    analyze = ["analyze", "--strategy", "md5", "--no-counts", "-o", str(report)]
    assert cli.main([*analyze, str(tmp_path / "dirty.txt")]) == cli.EXIT_IO  # a reject line
    assert not report.exists()
    assert cli.main([*analyze, str(tmp_path / "clean.txt")]) == cli.EXIT_IO  # the stats line
    assert json.loads(report.read_text())["total"] == 2
    assert cli.main([*analyze, str(tmp_path / "missing.txt")]) == cli.EXIT_IO
    assert cli.main(["analyze", "--strategy", "mapping"]) == cli.EXIT_USAGE
    assert cli.main(["analyze", "--strategy", "nope"]) == cli.EXIT_USAGE  # argparse's usage text
    tree = ["mkdirs", "--root", str(tmp_path / "tree"), "--strategy", "md5", "--moduli", "9,9"]
    assert cli.main([*tree, "--limit", "8"]) == cli.EXIT_LIMIT  # the refusal keeps its code
    monkeypatch.setenv("SHARDBENCH_THREADS", "x")  # a warning fails before the stats line
    assert cli.main([*analyze, str(tmp_path / "clean.txt")]) == cli.EXIT_IO
    assert capsys.readouterr().out == ""
