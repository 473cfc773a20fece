"""A corpus that is a pipe or a FIFO: read once, serially, with a regular file's output."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from shardbench import cli
from shardbench.corpus import load_corpus

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX pipes and FIFOs")


def _corpus() -> bytes:
    """20,000 lines, past a pipe's buffer: names, blank, padded, upper-case, CRLF and bad lines."""
    lines = []
    for i in range(20_000):
        if i % 97 == 0:
            lines.append(f"bad name {i}!")
        elif i % 101 == 0:
            lines.append("")
        elif i % 89 == 0:
            lines.append(f"  Padded{i} ")
        elif i % 83 == 0:
            lines.append(f"crlf{i}\r")
        else:
            lines.append(f"User{i * 7919 % 100_003}")
    return "\n".join(lines).encode("ascii")  # and no final newline


VERBS = {
    "analyze": ["analyze", "{}", "--strategy", "md5", "--level", "1", "--no-counts"],
    "compare": ["compare", "{}", "--strategy", "letter", "--strategy", "ascii-sum",
                "--strategy", "md5", "--level", "0", "--level", "1"],
}


def _run(verb: str, path, threads: str, stdin: bytes | None = None):
    """(exit code, stdout, stderr) of the CLI verb on the corpus at `path`."""
    env = dict(os.environ, SHARDBENCH_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "shardbench.cli", *(a.format(path) for a in VERBS[verb])]
    run = subprocess.run(argv, input=stdin, env=env, capture_output=True, timeout=60)
    return run.returncode, run.stdout, run.stderr


@pytest.fixture
def through_fifo(tmp_path):
    """through(data): a FIFO that a writer thread fills with `data` once a reader opens it."""
    fifo = tmp_path / "corpus.fifo"
    writers = []

    def through(data: bytes):
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "wb") as out:
                    out.write(data)
            except BrokenPipeError:  # the reader closed it early; its run fails the test
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writers.append(writer)
        return fifo

    yield through
    for writer in writers:
        if writer.is_alive():  # no reader ever opened it: open one, so the writer can finish
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(10)
        assert not writer.is_alive()


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("data", [_corpus(), b"bad!\n\n"], ids=["names", "all-rejected"])
def test_a_pipe_on_stdin_scans_as_the_file_does(tmp_path, verb, threads, data):
    corpus = tmp_path / "names.txt"
    corpus.write_bytes(data)
    expected = _run(verb, corpus, threads)
    assert expected[0] == (cli.EXIT_OK if len(data) > 6 else cli.EXIT_EMPTY)
    assert _run(verb, "/dev/stdin", threads, stdin=data) == expected


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("data", [_corpus(), b"bad!\n\n"], ids=["names", "all-rejected"])
def test_a_fifo_scans_as_the_file_does_and_does_not_hang(tmp_path, through_fifo, verb, threads,
                                                        data):
    corpus = tmp_path / "names.txt"
    corpus.write_bytes(data)
    expected = _run(verb, corpus, threads)
    assert _run(verb, through_fifo(data), threads) == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_corpus_reads_a_pipe_as_the_file(tmp_path):
    data = _corpus()
    corpus = tmp_path / "names.txt"
    corpus.write_bytes(data)
    from_file: list = []
    expected = list(load_corpus(corpus, lambda *reject: from_file.append(reject)))
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "wb") as out:
            out.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    from_pipe: list = []
    try:
        names = list(load_corpus(f"/dev/fd/{read_end}", lambda *reject: from_pipe.append(reject)))
    finally:
        os.close(read_end)
        writer.join(10)
    assert not writer.is_alive()
    assert (names, from_pipe) == (expected, from_file)
    assert from_file and len(expected) > 19_000
