"""Report bytes: each format as json.dump and csv.writer write it, in a few large writes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shardbench import cli
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
    """What `emit` writes through the CLI's write-joining stand-in for a stream."""
    stream = io.StringIO()
    joined = cli._Joined(stream)
    emit(joined, *args)
    joined.flush()
    return stream.getvalue()


@pytest.mark.parametrize("include_counts", [True, False])
@pytest.mark.parametrize("fmt", ["json", "csv", "plot-data"])
@pytest.mark.parametrize("histogram", HISTOGRAMS, ids=lambda h: f"{h.bucket_count}-buckets")
def test_analysis_reports_match_json_dump_and_csv_writer(histogram, fmt, include_counts):
    args = (fmt, "md5", {"moduli": [64, 64]}, 1, histogram, compute_stats(histogram),
            include_counts)
    expected = io.StringIO()
    _reference_analysis(expected, *args)
    assert _joined(cli._emit_analysis, *args) == expected.getvalue()


def _compare_rows():
    rows = []
    for level, (label, histogram) in enumerate([("md5", HISTOGRAMS[2]),
                                                ("mapping[10000,20]", HISTOGRAMS[1]),
                                                ("letter", HISTOGRAMS[0])]):
        stats = compute_stats(histogram)
        rows.append((level, stats.deviation_ratio, label, histogram, stats))
    return rows


def _reference_compare_cells(rows):
    header = ["strategy", "level", "bucket_count", "ideal_mean", "std_dev", "deviation_ratio",
              "skipped"]
    return [header] + [
        [label, str(level), str(h.bucket_count), f"{s.ideal_mean:.6g}", f"{s.std_dev:.6g}",
         f"{s.deviation_ratio:.6g}", str(h.skipped)]
        for level, _, label, h, s in rows
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("moduli", ["64", "64,64"])  # a report within stdout's buffer, and past it
def test_a_report_to_a_full_device_fails_with_exit_3(tmp_path, unbuffered, moduli):
    corpus = tmp_path / "names.txt"
    corpus.write_text("alice\nbob\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "shardbench.cli", "analyze", str(corpus), "--strategy", "md5",
            "--moduli", moduli, "--level", str(moduli.count(","))]
    with open("/dev/full", "w") as full:
        run = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=60)
    assert run.returncode == cli.EXIT_IO, run.stderr
    assert run.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("verb", [["locate", "frank"], ["check-fanout"]])
def test_a_lookup_to_a_full_device_fails_with_exit_3(unbuffered, verb):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "shardbench.cli", *verb, "--strategy", "md5"]
    with open("/dev/full", "w") as full:
        run = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=60)
    assert run.returncode == cli.EXIT_IO, run.stderr
    assert run.stderr == "error: [Errno 28] No space left on device\n"
