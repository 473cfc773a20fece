"""Drawn command lines for every verb: a documented exit code, never a traceback.

Each example runs in-process through cli.main(argv), in a directory of its
own that holds a small corpus, a file an -o may replace, and a
subdirectory. Every value is drawn as often from values a verb accepts as
from odd ones: 0, -1, 2**63 +- 1, 10**20, 10**400, empty and malformed specs, and
missing, directory and device paths. Every draw stays small: a large
--count comes only with lengths whose capacity it overdraws, and mkdirs
never gets a layout of more than a few thousand directories. Stdout and
stderr are each drawn as often working as failing: closed (None), full
(ENOSPC) or a broken pipe (EPIPE).
"""

import contextlib
import errno
import io
import os
import tempfile
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shardbench import cli, workers

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_IO, cli.EXIT_EMPTY, cli.EXIT_LIMIT}
BIG = [str(2**63 - 1), str(2**63 + 1), str(10**20), str(10**400)]
EDGES = ["0", "-1", *BIG]
ODD = [*EDGES, "", "x"]
OLD = b"old\n"


def _values(valid: list[str], odd: list[str]) -> st.SearchStrategy[str]:
    """A value from `valid` as often as one from `odd`."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(odd))


def _given(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """[flag, a drawn value]."""
    return values.map(lambda value: [flag, value])


def _flag(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """[] or [flag, a drawn value]."""
    return st.one_of(st.just([]), _given(flag, values))


def _argv(verb: str, *parts: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    """[verb] and then each part's tokens, in order."""
    return st.tuples(*parts).map(lambda drawn: [verb] + [token for part in drawn for token in part])


# Path tokens, made real in each example's directory; os.devnull is a device.
CORPUS = _values(["{corpus}"], ["{missing}", "{dir}", "{existing}", os.devnull]).map(
    lambda path: [path])
OUTPUTS = _values(["-", "{missing}", "{existing}"], ["{nested}", "{dir}", os.devnull])
NUMBERS = _values(["1", "3", "20"], ODD)
MODULI = st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
LEVELS = _values(["0", "1"], ODD[1:])
# The long ranges hold more IDs than sys.maxsize, the last more than a float can.
IDS = _values(["1..10", "1.." + BIG[1], "1.." + BIG[2], "1.." + BIG[3]],
              ["1..1", f"{BIG[2]}..{BIG[2]}", "5..1", "0..3", "", "1-10", "a..b"])
FLAGS = st.tuples(_flag("--levels", LEVELS), _flag("--moduli", MODULI)).map(lambda t: t[0] + t[1])

GEN_CORPUS = _argv(
    "gen-corpus", _given("--model", st.sampled_from(["uniform", "name-like", "name_like"])),
    st.one_of(
        st.tuples(_given("--count", _values(["1", "2", "37"], ODD[:2] + ODD[-2:])),
                  _flag("--min-len", _values(["1", "3", "12", "64"], ["65", *ODD])),
                  _flag("--max-len", _values(["1", "3", "12", "64"], ["65", *ODD]))),
        # Valid lengths of at most 12 give fewer than 2**63 - 1 names, so
        # these counts fail before any name is drawn.
        st.tuples(_given("--count", st.sampled_from(BIG)),
                  _flag("--min-len", _values(["1", "3", "12"], ODD)),
                  _flag("--max-len", _values(["1", "3", "12"], ODD))),
    ).map(lambda parts: parts[0] + parts[1] + parts[2]),
    _flag("--seed", _values(["0", "7"], ODD[1:])), _given("-o", OUTPUTS))

ANALYZE = st.one_of(
    _argv("analyze", CORPUS, _given("--strategy", _values(["letter", "ascii-sum", "md5"],
                                                          ["mapping", "bogus"])), FLAGS),
    _argv("analyze", st.sampled_from([[], ["{corpus}"]]), st.just(["--strategy", "mapping"]),
          _given("--ids", IDS), _given("--bucket-size", NUMBERS), _given("--servers", NUMBERS)),
).flatmap(lambda argv: _argv(
    argv[0], st.just(argv[1:]), _flag("--level", LEVELS),
    _flag("--format", st.sampled_from(["json", "csv", "plot-data", "text"])),
    st.sampled_from([[], ["--no-counts"]]), _flag("-o", OUTPUTS)))

SPECS = st.one_of(
    st.sampled_from(["letter", "letter:2", "ascii-sum", "ascii-sum:31", "md5", "md5:16,16",
                     "mapping:1,3", "mapping:50000,20"]),
    st.sampled_from(["bogus", "", "mapping", "md5:"]),
    st.tuples(st.sampled_from(["letter", "ascii-sum", "md5", "mapping"]), MODULI).map(":".join),
)
COMPARE = _argv(
    "compare", CORPUS,
    st.lists(SPECS, min_size=2, max_size=3).map(
        lambda specs: [t for s in specs for t in ("--strategy", s)]),
    st.lists(LEVELS, max_size=2).map(lambda levels: [t for lv in levels for t in ("--level", lv)]),
    _flag("--format", st.sampled_from(["text", "csv", "json"])), _given("--ids", IDS),
    _flag("-o", OUTPUTS))

LAID_OUT = _values(["letter", "md5"], ["ascii-sum", "mapping", "bogus"])
LIMITS = _values(["1", "64000"], ODD)
LOCATE = _argv(
    "locate", _values(["frank", "  Frank ", "_9"], ["", "fr ank", "x" * 65, "café"]).map(
        lambda name: [name]),
    _given("--strategy", LAID_OUT), FLAGS, _flag("--root", st.sampled_from(["", "{dir}", "/nas"])))

CHECK_FANOUT = _argv("check-fanout", _given("--strategy", LAID_OUT), FLAGS,
                     _flag("--limit", LIMITS))

# mkdirs always names its md5 layout: the default, and an empty --moduli,
# would build 528,448 directories. Letter's default is refused by the dense
# cap. Moduli parts of 1 to 3 make at most 39 directories and --levels 2
# makes 1,406; every other value is refused.
MKDIRS = st.one_of(
    _argv("mkdirs", st.just(["--strategy", "letter"]),
          _flag("--levels", _values(["1", "2"], ["0", "-1", *BIG, "x"]))),
    _argv("mkdirs", st.just(["--strategy", "md5", "--moduli"]),
          st.lists(_values(["1", "2", "3"], [*EDGES, "x"]), min_size=1, max_size=3).map(
              lambda parts: [",".join(parts)])),
    _argv("mkdirs", st.sampled_from([["--strategy", "ascii-sum"], ["--strategy", "bogus"]]),
          _flag("--moduli", st.just("2"))),
).flatmap(lambda argv: _argv(
    argv[0], st.just(argv[1:]),
    _given("--root", _values(["{missing}", "{nested}", "{dir}"], ["{existing}", os.devnull])),
    _flag("--limit", LIMITS)))

# A flag each verb requires is drawn every time; these lines go without one.
MISSING = st.sampled_from([
    [], ["bogus"], ["--help"], ["analyze", "--bogus"], ["gen-corpus", "--count", "1"],
    ["compare", "{corpus}", "--strategy", "md5"],
    ["compare", "{corpus}", "--strategy", "md5", "--strategy", "mapping:1,3"],
    ["locate", "--strategy", "md5"], ["mkdirs", "--strategy", "md5", "--moduli", "2"],
    *([verb, "--help"] for verb in ("gen-corpus", "analyze", "compare", "locate", "check-fanout",
                                    "mkdirs")),
])
VERBS = {"gen-corpus": GEN_CORPUS, "analyze": ANALYZE, "compare": COMPARE, "locate": LOCATE,
         "check-fanout": CHECK_FANOUT, "mkdirs": MKDIRS, "none": MISSING}
THREADS = st.sampled_from([None, "0", "1", "-1", "", "x"])  # none of them forks
STREAMS = st.one_of(st.just("working"), st.sampled_from(["closed", errno.ENOSPC, errno.EPIPE]))


class _Failing(io.TextIOBase):
    """A text stream whose every write fails with `err`, as a full device or a broken pipe's."""

    def __init__(self, err: int):
        super().__init__()
        self.err = err

    def write(self, text: str) -> int:
        raise OSError(self.err, os.strerror(self.err))


def _stream(state):
    """A stream in the drawn state: working, closed as sys.stdout is when fd 1 was, or failing."""
    if state == "working":
        return io.StringIO()
    return None if state == "closed" else _Failing(state)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


class _Run(NamedTuple):
    """A run's exit code, what stdout and stderr got, and what the file an -o may replace holds.

    A failing stream got None; in what a working one got, the run's directory reads {work}.
    """

    code: int
    out: str | None
    err: str | None
    left: bytes


def _run(base, argv: list[str], threads: str | None, stdout="working",
         stderr="working") -> _Run:
    """Run argv in a directory of its own, with the streams in the states given.

    Checks that the exit code is a documented one and that no temp file is left.
    """
    with tempfile.TemporaryDirectory(dir=base) as work:
        paths = {"corpus": os.path.join(work, "corpus.txt"),
                 "existing": os.path.join(work, "existing.txt"),
                 "missing": os.path.join(work, "missing.txt"),
                 "nested": os.path.join(work, "no", "such", "dir", "out.txt"),
                 "dir": os.path.join(work, "dir")}
        with open(paths["corpus"], "wb") as corpus:
            corpus.write(b"frank\nalice\nna me\n\xff\nbob\n\n" + b"x" * 65 + b"\nCarol")
        with open(paths["existing"], "wb") as existing:
            existing.write(OLD)
        os.mkdir(paths["dir"])
        streams = _stream(stdout), _stream(stderr)
        with mock.patch.dict(os.environ, {"SHARDBENCH_THREADS": threads or ""}), \
                contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
            if threads is None:
                del os.environ["SHARDBENCH_THREADS"]
            code = cli.main([arg.format(**paths) for arg in argv])
        assert code in EXIT_CODES, code
        assert not [name for name in os.listdir(work) if name.endswith(".tmp")]
        with open(paths["existing"], "rb") as existing:
            return _Run(code, *(stream.getvalue().replace(work, "{work}")
                                if isinstance(stream, io.StringIO) else None
                                for stream in streams), existing.read())


def _check(base, argv: list[str], threads: str | None, stdout="working",
           stderr="working") -> int:
    """Run argv with the streams given; hold it to a working run of the same argv.

    A run that fails leaves the file an -o may replace as it was. With a
    failing stream, a run exits 0 only if a working run writes nothing to
    that stream, and a failing stderr puts no more on stdout than a working
    run does. Returns the exit code.
    """
    run = _run(base, argv, threads, stdout, stderr)
    if stdout == stderr == "working":
        assert run.code == cli.EXIT_OK or run.left == OLD, argv
        return run.code
    working = _run(base, argv, threads)
    if run.code == cli.EXIT_OK:
        assert stdout == "working" or working.out == "", argv
        assert stderr == "working" or working.err == "", argv
    elif run.left != OLD:
        # Only a summary line written to stderr after the commit fails a run
        # that has replaced its -o file, and then the file holds all its output.
        assert stderr != "working" and run.code == cli.EXIT_IO, argv
        assert run.left == working.left, argv
    if stdout == "working":
        assert working.out.startswith(run.out), argv
    return run.code


@pytest.mark.parametrize("verb", VERBS)
def test_every_command_line_exits_with_a_documented_code(base, verb):
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=VERBS[verb], threads=THREADS, stdout=STREAMS, stderr=STREAMS)
    def run(argv, threads, stdout, stderr):
        _check(base, argv, threads, stdout, stderr)

    run()


# Repros the drawn lines found, or found too rarely to count on: each ended in
# an OverflowError traceback. Their ranges hold more IDs than a float can,
# and more than sys.maxsize.
KNOWN = [
    (["analyze", "--strategy", "mapping", "--ids", "1.." + BIG[3], "--bucket-size", "1",
      "--servers", "3"], cli.EXIT_USAGE),
    (["analyze", "--strategy", "mapping", "--ids", "1.." + BIG[1], "--bucket-size", "1",
      "--servers", "3"], cli.EXIT_OK),
    (["compare", "{corpus}", "--strategy", "md5", "--strategy", "mapping:1,3",
      "--ids", "1.." + BIG[3]], cli.EXIT_USAGE),
    (["compare", "{corpus}", "--strategy", "md5", "--strategy", "mapping:1,3",
      "--ids", "1.." + BIG[1]], cli.EXIT_OK),
]


@pytest.mark.parametrize("output", [[], ["-o", "{existing}"]], ids=["stdout", "file"])
@pytest.mark.parametrize("argv, code", KNOWN,
                         ids=["analyze-float", "analyze-maxsize", "compare-float", "compare-maxsize"])
def test_each_known_repro_exits_with_its_code(base, argv, code, output):
    assert _check(base, argv + output, None) == code


@given(st.one_of(st.sampled_from([*ODD, " 3 ", "1e3", "3.0"]), st.integers().map(str),
                 st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"))))
def test_any_threads_setting_asks_for_a_bounded_count(raw):
    cap = workers._WORKERS_PER_CPU * (os.cpu_count() or 1)
    with mock.patch.dict(os.environ, {"SHARDBENCH_THREADS": raw}), \
            contextlib.redirect_stderr(io.StringIO()):
        assert 0 <= workers._threads_setting() <= cap
