"""Username streams: file loading and synthetic corpus generation."""

from __future__ import annotations

import bisect
import random
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterator

from .errors import ShardbenchError, SpaceExhausted
from .model import ALPHABET, MAX_USERNAME_LENGTH, Username, normalize_username

MODELS = ("uniform", "name_like")

VOWELS = "aeiou"

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

_first_letter_weights: dict[str, float] | None = None


def _char_class(c: str) -> str:
    if c in VOWELS:
        return "vowel"
    if c.isdigit() or c == "_":
        return "other"
    return "consonant"


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """What to generate: model, size, seed, and the length range."""

    model: str
    count: int
    seed: int
    min_len: int = 3
    max_len: int = 12

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 1 <= self.min_len <= self.max_len <= MAX_USERNAME_LENGTH:
            raise ValueError(
                f"need 1 <= min_len <= max_len <= {MAX_USERNAME_LENGTH}, "
                f"got {self.min_len}..{self.max_len}"
            )


def first_letter_weights() -> dict[str, float]:
    """The shipped first-character table, loaded once from package data."""
    global _first_letter_weights
    if _first_letter_weights is None:
        text = (
            resources.files("shardbench")
            .joinpath("data/first_letter_weights.txt")
            .read_text(encoding="utf-8")
        )
        weights: dict[str, float] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            char, value = line.split()
            weights[char] = float(value)
        missing = set(ALPHABET) - set(weights)
        if missing:
            raise ShardbenchError(f"first-letter table is missing {sorted(missing)}")
        _first_letter_weights = weights
    return _first_letter_weights


# A line whose ASCII-trimmed bytes match this is a valid name as it stands:
# only Unicode-aware trimming or a reject reason needs the slow path.
_PLAIN_NAME = re.compile(rb"[0-9A-Za-z_]{1,%d}" % MAX_USERNAME_LENGTH)


def read_names(
    path,
    on_reject: Callable[[int, str], None] | None = None,
    start: int = 0,
    end: int | None = None,
    first_line: int = 1,
) -> Iterator[bytes]:
    """Yield the lowercased ASCII bytes of each valid name, in file order.

    Reads lines split on b"\\n" from byte offset `start` (the start of a
    line, numbered `first_line`) up to `end`, or to the end of the file.
    Each line is trimmed and validated exactly as normalize_username() does;
    undecodable and invalid lines are reported through on_reject(line_number,
    reason) and skipped, and blank lines are skipped silently.
    """
    if end is None:
        end = sys.maxsize
    fullmatch = _PLAIN_NAME.fullmatch
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        position = start
        for line_number, raw in enumerate(handle, first_line):
            if position >= end:
                break
            position += len(raw)
            name = raw.strip()
            if fullmatch(name):
                yield name.lower()
                continue
            name, reason = _check_line(raw)
            if name is not None:
                yield name
            elif reason is not None and on_reject is not None:
                on_reject(line_number, reason)


def _check_line(raw: bytes) -> tuple[bytes | None, str | None]:
    """(name, None) for a valid line, (None, reason) for a rejected one, (None, None) if blank."""
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
    for name in read_names(path, on_reject):
        yield Username(name.decode("ascii"))


def _cumulative(weights: dict[str, float]) -> list[float]:
    totals, acc = [], 0.0
    for c in ALPHABET:
        acc += weights.get(c, 0.0)
        totals.append(acc)
    return totals


def distinct_capacity(spec: CorpusSpec) -> int:
    """Exact count of distinct names the model can emit in the length range."""
    if spec.model == "uniform":
        return sum(37**length for length in range(spec.min_len, spec.max_len + 1))
    # name_like: count strings reachable through positive-weight transitions.
    supports = {
        cls: [c for c in ALPHABET if table.get(c, 0.0) > 0]
        for cls, table in _TRANSITIONS.items()
    }
    first = first_letter_weights()
    reachable = {c: 1 for c in ALPHABET if first.get(c, 0.0) > 0}
    capacity = 0
    for length in range(1, spec.max_len + 1):
        if length >= spec.min_len:
            capacity += sum(reachable.values())
        nxt: dict[str, int] = {}
        for prev, ways in reachable.items():
            for c in supports[_char_class(prev)]:
                nxt[c] = nxt.get(c, 0) + ways
        reachable = nxt
    return capacity


def generate_corpus(spec: CorpusSpec) -> Iterator[Username]:
    """Yield `count` distinct names, deterministically for a given seed.

    Only rng.random() is consumed from the Mersenne Twister stream, keeping
    output stable across platforms and Python versions. Duplicates redraw
    the whole name (length included) so the model's shape is undisturbed.
    """
    if spec.count > distinct_capacity(spec):
        raise SpaceExhausted(
            f"{spec.count} names requested but the {spec.model} model can only "
            f"produce {distinct_capacity(spec)} distinct names of length "
            f"{spec.min_len}..{spec.max_len}"
        )
    rng = random.Random(spec.seed)
    span = spec.max_len - spec.min_len + 1
    if spec.model == "uniform":
        def draw() -> str:
            length = spec.min_len + int(rng.random() * span)
            return "".join(ALPHABET[int(rng.random() * 37)] for _ in range(length))
    else:
        first = _cumulative(first_letter_weights())
        cumulative = {cls: _cumulative(table) for cls, table in _TRANSITIONS.items()}

        def pick(table: list[float]) -> str:
            return ALPHABET[bisect.bisect_right(table, rng.random() * table[-1])]

        def draw() -> str:
            length = spec.min_len + int(rng.random() * span)
            chars = [pick(first)]
            for _ in range(length - 1):
                chars.append(pick(cumulative[_char_class(chars[-1])]))
            return "".join(chars)

    seen: set[str] = set()
    while len(seen) < spec.count:
        name = draw()
        if name in seen:
            continue
        seen.add(name)
        yield Username(name)
