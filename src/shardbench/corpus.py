"""Username streams: file loading and synthetic corpus generation."""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
from bisect import bisect_right
from functools import partial
from typing import BinaryIO, Callable, Iterator

from .errors import ShardbenchError, SpaceExhausted
from .model import ALPHABET, MAX_USERNAME_LENGTH, Username, _Record, normalize_username
from .workers import _forked, _receive, _send

VOWELS = "aeiou"

# Candidates in one segment of the random stream: what one worker draws in one go.
_SEGMENT = 1024
# Turns each alphabet index into its character, and len(ALPHABET) into "\n".
_INDEX_CHARS = bytes.maketrans(bytes(range(len(ALPHABET) + 1)), (ALPHABET + "\n").encode())
# Builds a Username without its check, for names that pass it already: drawn
# from ALPHABET in the length range, or validated by read_names().
_username = partial(str.__new__, Username)
# Fewer names than this are drawn by one process unless SHARDBENCH_THREADS
# asks for workers: below it, forking costs more than it saves.
PARALLEL_MIN_NAMES = 20_000
# The error of a run whose child exited before it had sent all it was asked for.
_LOST = "a gen-corpus worker exited before its names were drawn"

# First-character weights for the name_like model, loosely modeled on the
# initials of English given names: a handful of letters carry several times
# the average mass, and digits and underscore are rare. Weights are
# relative, not normalized, and every character of ALPHABET has one.
_FIRST_LETTER = {
    "a": 7.0, "b": 4.0, "c": 6.5, "d": 9.0, "e": 1.8, "f": 1.5, "g": 1.5,
    "h": 1.7, "i": 1.2, "j": 8.5, "k": 4.5, "l": 4.0, "m": 12.0, "n": 2.1,
    "o": 0.9, "p": 1.8, "q": 0.18, "r": 4.5, "s": 10.5, "t": 5.0, "u": 0.5,
    "v": 0.9, "w": 1.5, "x": 0.12, "y": 0.6, "z": 0.3,
    "_": 0.4,
    "0": 0.08, "1": 0.14, "2": 0.12, "3": 0.10, "4": 0.10,
    "5": 0.10, "6": 0.08, "7": 0.10, "8": 0.10, "9": 0.12,
}
# Mid-name transition weights for the name_like model, keyed by the class of
# the previous character. Vowels hand off to a tight consonant core (r/s/t)
# and consonants to a tight vowel core (e/i); everything else keeps a small
# positive weight so realistic oddballs still appear. The concentration is
# what gives name-like corpora their clumped ascii sums: names built from the
# same few letters produce near-identical totals.
_AFTER_VOWEL = {
    "r": 2.1, "s": 2.5, "t": 2.3,
    "n": 0.10, "l": 0.05, "m": 0.04, "d": 0.02, "k": 0.02, "p": 0.02,
    "h": 0.015, "c": 0.01, "g": 0.01, "b": 0.01, "v": 0.01, "w": 0.01,
    "f": 0.01, "y": 0.015, "j": 0.005, "z": 0.005, "q": 0.002, "x": 0.002,
    "a": 0.02, "e": 0.025, "i": 0.02, "o": 0.012, "u": 0.008,
    "_": 0.02,
    "0": 0.0018, "1": 0.0018, "2": 0.0018, "3": 0.0018, "4": 0.0018,
    "5": 0.0018, "6": 0.0018, "7": 0.0018, "8": 0.0018, "9": 0.0018,
}
_AFTER_CONSONANT = {
    "e": 2.6, "i": 1.6,
    "a": 0.05, "o": 0.03, "u": 0.015, "y": 0.02,
    "r": 0.02, "l": 0.015, "h": 0.012, "n": 0.015, "s": 0.015, "t": 0.015,
    "_": 0.02,
    "0": 0.0018, "1": 0.0018, "2": 0.0018, "3": 0.0018, "4": 0.0018,
    "5": 0.0018, "6": 0.0018, "7": 0.0018, "8": 0.0018, "9": 0.0018,
}
# After a digit or underscore: mostly more digits (trailing-number style).
_AFTER_OTHER = dict.fromkeys(ALPHABET, 0.04)
_AFTER_OTHER.update({
    "0": 1.0, "1": 1.2, "2": 1.0, "3": 0.8, "4": 0.6, "5": 0.6,
    "6": 0.5, "7": 0.6, "8": 0.6, "9": 1.0, "_": 0.1,
})

_TRANSITIONS = {"vowel": _AFTER_VOWEL, "other": _AFTER_OTHER, "consonant": _AFTER_CONSONANT}

# Each model's first-character weights and its weights after a character of
# each class. Under uniform every table gives each character weight 1.0.
_UNIFORM = dict.fromkeys(ALPHABET, 1.0)
_MODELS = {
    "uniform": (_UNIFORM, dict.fromkeys(_TRANSITIONS, _UNIFORM)),
    "name_like": (_FIRST_LETTER, _TRANSITIONS),
}
MODELS = tuple(_MODELS)


def _char_class(c: str) -> str:
    if c in VOWELS:
        return "vowel"
    if c.isdigit() or c == "_":
        return "other"
    return "consonant"


class CorpusSpec(_Record):
    """What to generate: model, size, seed, and the length range."""

    __slots__ = ("model", "count", "seed", "min_len", "max_len")

    def __init__(self, model: str, count: int, seed: int, min_len: int = 3,
                 max_len: int = 12) -> None:
        if model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {model!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if not 1 <= min_len <= max_len <= MAX_USERNAME_LENGTH:
            raise ValueError(
                f"need 1 <= min_len <= max_len <= {MAX_USERNAME_LENGTH}, "
                f"got {min_len}..{max_len}"
            )
        self._fill(model, count, seed, min_len, max_len)


# In a block's marks each name byte ([0-9A-Za-z_]) reads as `a`, `\n` as
# itself and any other byte as `!`, and 65 `a`s in a row (an over-long line)
# become `!`s. Only a line whose marks hold a `!` needs the per-line check:
# a blank line is dropped whole, and every other line is a name as it stands.
_NAME_BYTES = (ALPHABET + ALPHABET.upper()).encode()
_MARKS = bytes(97 if b in _NAME_BYTES else b if b == 10 else 33 for b in range(256))
_OVERLONG = b"a" * (MAX_USERNAME_LENGTH + 1)
# Folds A-Z, and turns `\r` (only ever in a checked line) into a byte that
# does not split a line, so one splitlines() cuts a block at `\n` alone.
_FOLD = bytes.maketrans(ALPHABET.upper().encode() + b"\r", ALPHABET.encode() + b"!")
# Bytes read per block. Larger blocks buy no speed and raise peak memory.
_BLOCK = 16 << 10
# The line terminator every name from read_names() keeps, so md5 hashes the
# line as read with no copy. load_corpus() strips it, and the letter and
# ascii-sum loops that scan._build_loop() generates discount it.
NAME_END = b"\n"


def read_names(
    path, start: int = 0, end: int | None = None, first_line: int = 1,
) -> Iterator[tuple[list[bytes], list[tuple[int, str]]]]:
    """Yield (valid names, rejects) for each block of lines, in file order.

    Reads lines split on b"\\n" from byte offset `start` (the start of a
    line, numbered `first_line`) up to `end`, or to the end of the file, in
    blocks of whole lines. Each line is trimmed and validated exactly as
    normalize_username() does. A block's names are lowercased ASCII, each
    ending in NAME_END whether or not its line did; its rejects are the
    (line_number, reason) of each undecodable or invalid line, in line
    order. Blank lines are skipped silently.
    """
    line_number = first_line
    for block in _blocks(path, start, sys.maxsize if end is None else end):
        marks = block.translate(_MARKS).replace(_OVERLONG, b"!" * len(_OVERLONG))
        lines = block.translate(_FOLD).splitlines(True)
        # The checked lines are found in file order, so `index` only counts
        # forward and rejects come in line order. A line is checked while it
        # is still as read, so its length gives its start.
        rejects = []
        at = marks.find(b"!")
        seen = index = 0
        while at >= 0:
            stop = marks.find(b"\n", at)
            index += marks.count(b"\n", seen, at)
            seen = at
            name, reason = _check_line(block[stop + 1 - len(lines[index]):stop])
            lines[index] = b"\n" if name is None else name + NAME_END
            if reason is not None:
                rejects.append((line_number + index, reason))
            at = marks.find(b"!", stop)
        line_number += len(lines)
        # Blank lines, and the dropped ones now made blank, are all that read b"\n".
        if b"\n" in lines:
            lines = [line for line in lines if line != b"\n"]
        yield lines, rejects


def _blocks(path, start: int, end: int) -> Iterator[bytes]:
    """The lines starting in [start, end), in blocks of whole lines that each end with b"\\n"."""
    with open(path, "rb") as handle:
        if start:  # a pipe or a FIFO cannot seek, and is only ever read from 0
            handle.seek(start)
        position = start
        while position < end:
            block = handle.read(min(_BLOCK, end - position))
            if not block:
                break
            if not block.endswith(b"\n"):
                block += handle.readline()  # finish the last line, even past `end`
            position += len(block)
            yield block if block.endswith(b"\n") else block + b"\n"  # the file's last line


def _check_line(raw: bytes) -> tuple[bytes | None, str | None]:
    """(name, None) for a valid line, (None, reason) for a rejected one, (None, None) if blank."""
    name = raw.strip()  # a name padded with ASCII whitespace needs no decoding
    if 0 < len(name) <= MAX_USERNAME_LENGTH and not name.translate(None, _NAME_BYTES):
        return name.lower(), None
    try:
        text = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        return None, "undecodable bytes"
    if not text:
        return None, None
    try:
        return normalize_username(text).encode("ascii"), None
    except ShardbenchError as exc:
        return None, str(exc)


def load_corpus(
    path,
    on_reject: Callable[[int, str], None] | None = None,
) -> Iterator[Username]:
    """Yield the normalized name from each non-blank line, in file order.

    Lines split on "\\n" only. Lines that fail validation, undecodable ones
    included, are reported through on_reject(line_number, reason) and
    skipped; the stream never aborts on bad input.
    """
    for names, rejects in read_names(path):
        if on_reject is not None:
            for number, reason in rejects:
                on_reject(number, reason)
        yield from map(_username, b"".join(names).decode("ascii").splitlines())


def _cumulative(weights: dict[str, float]) -> list[float]:
    return list(itertools.accumulate(weights.get(c, 0.0) for c in ALPHABET))


def distinct_capacity(spec: CorpusSpec) -> int:
    """Exact count of distinct names the model can emit in the length range."""
    # Count the strings reachable through positive-weight transitions. What
    # may follow a character depends only on its class, so the strings are
    # counted by the class of their last character.
    first, transitions = _MODELS[spec.model]

    def by_class(weights: dict[str, float]) -> dict[str, int]:
        """How many characters of positive weight each class holds."""
        return {cls: sum(1 for c in ALPHABET if weights.get(c, 0.0) > 0 and _char_class(c) == cls)
                for cls in _TRANSITIONS}

    successors = {cls: by_class(table) for cls, table in transitions.items()}
    ending = by_class(first)
    capacity = 0
    for length in range(1, spec.max_len + 1):
        if length >= spec.min_len:
            capacity += sum(ending.values())
        ending = {cls: sum(ways * successors[prev][cls] for prev, ways in ending.items())
                  for cls in _TRANSITIONS}
    return capacity


def generate_corpus(spec: CorpusSpec, workers: int = 1) -> Iterator[Username]:
    """Yield `count` distinct names, deterministically for a given seed.

    Only rng.random() is consumed from the Mersenne Twister stream, keeping
    output stable across platforms and Python versions. Duplicates redraw
    the whole name (length included) so the model's shape is undisturbed.

    The stream's candidates are drawn in segments of _SEGMENT, dealt round
    robin to this process and `workers` - 1 forked children (none without
    os.fork). This process draws the first segment of each round. Child k
    draws the k-th and skips the rest with _skip(); it sends each segment
    with the stream's state after it, and the last child's state starts
    this process's next segment. Duplicates are dropped in stream order, so
    the names do not depend on `workers`. What a child raises is raised
    here. Every child is killed and reaped once the names are out or the
    generator is closed. The names are held as bytes, and each segment is
    decoded in one go before its names are yielded.
    """
    segments = _segments(spec, workers)
    try:
        for names in segments:
            yield from map(_username, b"\n".join(names).decode("ascii").split("\n"))
    finally:
        segments.close()


def _segments(spec: CorpusSpec, workers: int) -> Iterator[list[bytes]]:
    """generate_corpus(spec, workers) as ASCII bytes, one non-empty list of fresh names per segment.

    The names seen so far are held in a set of bytes, which costs 16 bytes
    less per short name than a set of str on CPython 3.11.
    """
    capacity = distinct_capacity(spec)
    if spec.count > capacity:
        raise SpaceExhausted(
            f"{spec.count} names requested but the {spec.model} model can only "
            f"produce {capacity} distinct names of length "
            f"{spec.min_len}..{spec.max_len}"
        )
    if not hasattr(os, "fork"):
        workers = 1
    draw = _drawer(spec)
    rng = random.Random(spec.seed)
    seen: set[bytes] = set()
    add, left = seen.add, spec.count
    with _forked([partial(_send_segments, draw, spec, k, workers)
                  for k in range(1, workers)]) as pipes:
        for turn in itertools.count():
            k = turn % workers
            if k:
                names, state = _receive(pipes[k - 1], _LOST)
                names = names.split(b"\n")
                if k == workers - 1:
                    rng.setstate(state)
            else:  # alone, draw no more candidates than names are left
                names = draw(rng.random, _SEGMENT if workers > 1 else min(_SEGMENT, left))
            fresh = [name for name in names if not (name in seen or add(name))]
            if len(fresh) >= left:
                yield fresh[:left]
                return
            if fresh:
                yield fresh
                left -= len(fresh)


def _thresholds(cumulative: list[float]) -> list[float]:
    """The least double r with r * total >= c, for each c of a cumulative table.

    `total` is the table's last entry, so no r is above 1.0, and an r of
    1.0 is never drawn. Rounding r * total is monotone in r, so
    bisect_right(thresholds, r) == bisect_right(cumulative, r * total) for
    every r in [0, 1): a draw from the thresholds takes no multiply.
    """
    total, nextafter = cumulative[-1], math.nextafter
    thresholds = []
    for c in cumulative:
        r = c / total  # within an ulp or two of the answer
        while r * total < c:
            r = nextafter(r, 2.0)
        while r > 0.0 and nextafter(r, 0.0) * total >= c:
            r = nextafter(r, 0.0)
        thresholds.append(r)
    return thresholds


def _drawer(spec: CorpusSpec) -> Callable[[Callable[[], float], int], list[bytes]]:
    """draw(random_, n): the spec's next n candidate names, as ASCII bytes, from a random() stream.

    Each candidate takes 1 + its length random() calls: one for its length,
    one per character. A character is the index bisect_right() finds for
    its random() in the threshold table of the class before it (the first
    character's table for the first); under the uniform model every table
    is that of the weights 1.0 each, where the index is int(r * 37). The
    indices are collected in one bytearray and turned into names with
    one translate, which costs less than building each name a character
    at a time. The names are split from a bytes copy: a bytearray's
    pieces are bytearrays, which no set can hold.
    """
    min_len, span = spec.min_len, spec.max_len - spec.min_len + 1
    weights, transitions = _MODELS[spec.model]
    first = _thresholds(_cumulative(weights))
    by_class = {cls: _thresholds(_cumulative(table)) for cls, table in transitions.items()}
    after = [by_class[_char_class(c)] for c in ALPHABET]  # the table after each index
    rest = [range(length - 1) for length in range(min_len, spec.max_len + 1)]  # after the first
    end = len(ALPHABET)

    def draw(random_: Callable[[], float], n: int) -> list[bytes]:
        indices = bytearray()
        add = indices.append
        for _ in range(n):
            others = rest[int(random_() * span)]
            i = bisect_right(first, random_())
            add(i)
            for _ in others:
                i = bisect_right(after[i], random_())
                add(i)
            add(end)
        return bytes(indices).translate(_INDEX_CHARS).splitlines()
    return draw


def _skip(rng: random.Random, spec: CorpusSpec, candidates: int) -> None:
    """Advance rng past `candidates` candidates of the spec, as drawing them would.

    random() spends two 32-bit words of the Mersenne Twister, and so does
    each 64 bits of getrandbits(): one getrandbits(64 * length) stands for a
    candidate's `length` character draws.
    """
    random_, getrandbits, span = rng.random, rng.getrandbits, spec.max_len - spec.min_len + 1
    bits = [64 * length for length in range(spec.min_len, spec.max_len + 1)]
    for _ in range(candidates):
        getrandbits(bits[int(random_() * span)])


def _send_segments(draw: Callable[[Callable[[], float], int], list[bytes]], spec: CorpusSpec,
                   k: int, workers: int, pipe: BinaryIO) -> None:
    """In forked child k: draw segments k, k + workers, ... and send each to `pipe`, without end.

    Each segment goes as one frame: its b"\\n"-joined names and the stream's
    state after them.
    """
    rng = random.Random(spec.seed)
    _skip(rng, spec, k * _SEGMENT)
    while True:
        _send(pipe, (b"\n".join(draw(rng.random, _SEGMENT)), rng.getstate()))
        _skip(rng, spec, (workers - 1) * _SEGMENT)
