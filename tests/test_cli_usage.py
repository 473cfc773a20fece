"""CLI contract details: bad strategy configs are usage errors, compare's stderr is pinned."""

import pytest

from shardbench.cli import EXIT_OK, EXIT_USAGE, main

# Every reject class, Unicode whitespace padding, CRLF, a blank line and no
# trailing newline; ascii-sum:31 has depth 1, so level 1 skips it with a note.
DIRTY = (b"frank\nna me\n\xff\xfebob\n  Alice \r\n\n" + b"x" * 65
         + b"\nzoe\x1c\nCarol\xc2\xa0\nbob")
COMPARE_ARGS = ["--strategy", "ascii-sum:31", "--strategy", "md5", "--level", "1", "--level", "0"]
COMPARE_STDERR = (
    "note: skipping ascii-sum at level 1 (depth 1)\n"
    "line 2: invalid character ' ' at position 2\n"
    "line 3: undecodable bytes\n"
    "line 6: username has 65 characters, max 64\n"
    "3 lines rejected\n"
)
COMPARE_STDOUT = (
    "strategy   level  bucket_count  ideal_mean  std_dev    deviation_ratio  skipped\n"
    "ascii-sum  0      31            0.16129     0.367799   2.28035          0\n"
    "md5        0      64            0.078125    0.268368   3.43511          0\n"
    "md5        1      4096          0.0012207   0.0349172  28.6042          0\n"
)


@pytest.fixture
def dirty_path(tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_bytes(DIRTY)
    return str(path)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_compare_stderr_is_pinned(dirty_path, threads, monkeypatch, capsys):
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    assert main(["compare", dirty_path, *COMPARE_ARGS]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == COMPARE_STDERR
    assert out == COMPARE_STDOUT


@pytest.mark.parametrize("argv", [
    ["compare", "{corpus}", "--strategy", "md5:300", "--strategy", "letter"],
    ["compare", "{corpus}", "--strategy", "letter:9", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "letter:x", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "mapping:0,20", "--strategy", "md5", "--ids", "1..10"],
    ["analyze", "{corpus}", "--strategy", "md5", "--moduli", "300"],
    ["locate", "frank", "--strategy", "letter", "--levels", "9"],
    ["check-fanout", "--strategy", "letter", "--levels", "9"],
])
def test_bad_strategy_config_is_a_usage_error(dirty_path, argv, capsys):
    assert main([arg.format(corpus=dirty_path) for arg in argv]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
