"""The pooled corpus generator: the same bytes at any worker count, and no child left behind."""

import contextlib
import hashlib
import os
import random
import signal

import pytest

from shardbench import cli, corpus
from shardbench.corpus import MODELS, CorpusSpec, generate_corpus
from test_corpus import PINNED


def _stream(spec, workers=1) -> bytes:
    """Everything gen-corpus writes for the spec."""
    return "".join(name + "\n" for name in generate_corpus(spec, workers)).encode("ascii")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _spy_on_fork(monkeypatch) -> list[int]:
    """The pids os.fork() returns to this process from now on."""
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
@pytest.mark.parametrize("k", [1, 2, 5, 12, 64, 311, 312, 313, 1000])
def test_getrandbits_advances_the_stream_as_random_does(seed, k):
    skipped, drawn = random.Random(seed), random.Random(seed)
    for rng in (skipped, drawn):  # start off a word boundary of the 624-word state
        for _ in range(k % 7):
            rng.random()
    skipped.getrandbits(64 * k)
    for _ in range(k):
        drawn.random()
    assert skipped.getstate() == drawn.getstate(), (
        f"getrandbits({64 * k}) no longer advances the Mersenne Twister as {k} random() "
        "calls do, and gen-corpus workers skip the candidates of other segments by that fact")


def _segment_edges(spec, segments: int) -> list[int]:
    """For each of the first `segments` segment ends, the names the stream has made by then."""
    draw, rng = corpus._drawer(spec), random.Random(spec.seed)
    seen, edges = set(), []
    for _ in range(segments):
        seen.update(draw(rng.random, corpus._SEGMENT))
        edges.append(len(seen))
    return edges


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_pooled_names_match_the_serial_stream_around_each_segment_end(monkeypatch, model,
                                                                       workers):
    monkeypatch.setattr(corpus, "_SEGMENT", 16)  # children inherit it, so rounds stay short
    spec = CorpusSpec(model, 1, 5, min_len=1, max_len=3)
    for edge in _segment_edges(spec, 9):  # each worker's segments, over two rounds and more
        for count in (edge - 1, edge, edge + 1):
            if count:
                spec = CorpusSpec(model, count, 5, min_len=1, max_len=3)
                assert _stream(spec, workers) == _stream(spec), (count, workers)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_pooled_names_match_at_full_segments(model, workers):
    spec = CorpusSpec(model, 1, 11)
    edge = _segment_edges(spec, workers + 1)[-1]  # the end of the parent's second segment
    for count in (edge - 1, edge, edge + 1):
        spec = CorpusSpec(model, count, 11)
        assert _stream(spec, workers) == _stream(spec), (count, workers)


@pytest.mark.parametrize("spec", [
    CorpusSpec("uniform", 3_000, 2, min_len=4, max_len=4),
    CorpusSpec("name_like", 3_000, 2, min_len=5, max_len=5),
    CorpusSpec("uniform", 37, 0, min_len=1, max_len=1),  # every name there is
    CorpusSpec("name_like", 37, 1, min_len=1, max_len=1),
])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_pooled_names_match_for_one_length_and_near_capacity(spec, workers):
    assert _stream(spec, workers) == _stream(spec)


@pytest.mark.parametrize("threads", ["2", "3"])
@pytest.mark.parametrize("spec, sha256", PINNED)
def test_pooled_cli_output_is_pinned(tmp_path, monkeypatch, capsys, threads, spec, sha256):
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    forked = _spy_on_fork(monkeypatch)
    out = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", spec.model.replace("_", "-"), "--count", str(spec.count),
            "--seed", str(spec.seed), "--min-len", str(spec.min_len),
            "--max-len", str(spec.max_len), "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(forked) == int(threads) - 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("segment", [1, 2])
@pytest.mark.parametrize("threads", ["1", "3"])
def test_segments_of_duplicates_write_no_blank_line(tmp_path, monkeypatch, capsys, segment,
                                                    threads):
    # 37 one-character names from segments of 1 or 2 candidates: most segments are all duplicates.
    monkeypatch.setattr(corpus, "_SEGMENT", segment)
    monkeypatch.setenv("SHARDBENCH_THREADS", threads)
    spec = CorpusSpec("uniform", 37, 0, min_len=1, max_len=1)
    out = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", "uniform", "--count", "37", "--seed", "0",
            "--min-len", "1", "--max-len", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == _stream(spec)


@pytest.mark.parametrize("count, forks", [(99, 0), (100, 2)])
def test_auto_workers_start_at_the_threshold(tmp_path, monkeypatch, capsys, count, forks):
    monkeypatch.delenv("SHARDBENCH_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(cli, "PARALLEL_MIN_NAMES", 100)
    forked = _spy_on_fork(monkeypatch)
    argv = ["gen-corpus", "--model", "uniform", "--count", str(count), "-o",
            str(tmp_path / "names.txt")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(forked) == forks


def test_without_fork_the_generator_is_serial(monkeypatch):
    spec = CorpusSpec("name_like", 3_000, 4)
    serial = _stream(spec)
    monkeypatch.delattr(os, "fork")
    assert _stream(spec, 3) == serial


def test_closing_the_generator_early_stops_every_child(monkeypatch):
    forked = _spy_on_fork(monkeypatch)
    names = generate_corpus(CorpusSpec("name_like", 50_000, 7), 3)
    for _ in range(5_000):
        next(names)
    assert len(forked) == 2
    names.close()
    _no_child_left()


class _FailingOutput:
    """A text stream whose writes raise `error` once `room` characters have been written."""

    def __init__(self, room: int, error: BaseException) -> None:
        self.room, self.error = room, error

    def write(self, text: str) -> None:
        self.room -= len(text)
        if self.room < 0:
            raise self.error


def _gen_corpus_writing_to(monkeypatch, output) -> list[int]:
    """Let gen-corpus write to `output`, with 3 workers: the pids it forks."""
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    monkeypatch.setattr(cli, "_written_beside", lambda path, old: contextlib.nullcontext(output))
    return _spy_on_fork(monkeypatch)


GEN_ARGV = ["gen-corpus", "--model", "name-like", "--count", "20000", "-o", "unused.txt"]


def test_a_consumer_that_raises_stops_every_child(monkeypatch, capsys):
    forked = _gen_corpus_writing_to(
        monkeypatch, _FailingOutput(20_000, OSError(28, "No space left on device")))
    assert cli.main(GEN_ARGV) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert len(forked) == 2
    _no_child_left()


def test_an_interrupt_while_writing_stops_every_child_before_it_propagates(monkeypatch):
    # The traceback keeps the generator alive, so only closing it stops the children.
    forked = _gen_corpus_writing_to(monkeypatch, _FailingOutput(20_000, KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt) as raised:
        cli.main(GEN_ARGV)
    assert len(forked) == 2
    _no_child_left()
    del raised


def test_a_child_killed_mid_run_fails_the_generator(monkeypatch):
    monkeypatch.setattr(corpus, "_SEGMENT", 64)
    forked = _spy_on_fork(monkeypatch)
    names = generate_corpus(CorpusSpec("name_like", 20_000, 7), 3)
    drawn = [next(names) for _ in range(1_000)]
    os.kill(forked[0], signal.SIGKILL)
    with pytest.raises(ChildProcessError, match="worker exited before its names were drawn"):
        drawn.extend(names)
    assert len(drawn) < 20_000
    _no_child_left()


def test_a_child_killed_mid_run_fails_the_cli_and_writes_no_corpus(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(corpus, "_SEGMENT", 64)
    monkeypatch.setenv("SHARDBENCH_THREADS", "2")
    forked = _spy_on_fork(monkeypatch)

    def killing(spec, workers):
        segments = corpus._segments(spec, workers)
        with contextlib.closing(segments):
            for n, names in enumerate(segments):
                if n == 16:  # about 1,000 names in
                    os.kill(forked[0], signal.SIGKILL)
                yield names

    monkeypatch.setattr(cli, "_segments", killing)
    out = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", "name-like", "--count", "20000", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err == \
        "error: a gen-corpus worker exited before its names were drawn\n"
    assert list(tmp_path.iterdir()) == []
    _no_child_left()


def _failing_in_children(monkeypatch, error: BaseException) -> None:
    """Make corpus._skip, which only a child calls, raise `error` in any process but this one."""
    parent, skip = os.getpid(), corpus._skip

    def failing(*args):
        if os.getpid() != parent:
            raise error
        skip(*args)

    monkeypatch.setattr(corpus, "_skip", failing)


def test_a_childs_exception_reaches_the_generator_as_itself(monkeypatch):
    _failing_in_children(monkeypatch, MemoryError("a child ran out"))
    with pytest.raises(MemoryError, match="^a child ran out$"):
        list(generate_corpus(CorpusSpec("name_like", 5_000, 7), 3))
    _no_child_left()


def test_a_childs_os_error_fails_the_cli_as_a_serial_one_and_writes_no_corpus(
        tmp_path, monkeypatch, capsys):
    error = OSError(5, "Input/output error", "somewhere")
    _failing_in_children(monkeypatch, error)
    monkeypatch.setenv("SHARDBENCH_THREADS", "3")
    out = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", "name-like", "--count", "5000", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []
    _no_child_left()
