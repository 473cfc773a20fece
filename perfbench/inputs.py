"""Seeded dirty lines for the analyze corpus.

`inject_dirty` takes clean names (one per line, as `gen-corpus` writes them)
and, deterministically from the seed, rewrites some of them into forms that
normalize back to the same name and inserts lines the scan must skip or
reject. Every reject class the scan reports appears: invalid characters,
undecodable bytes and names over 64 characters. Rejected lines stay near one
percent, so clean names dominate the scan.
"""

from __future__ import annotations

import random

CLEAN_VARIANT_SHARE = 0.03  # mixed case, padding, CRLF: normalize to the same name
BLANK_SHARE = 0.005         # blank or whitespace-only lines: skipped, not rejected
REJECT_SHARE = 0.01         # invalid character, undecodable bytes, over 64 characters

_INVALID_CHARS = ["-", ".", "@", " ", "!", "é", "ß"]
_UNDECODABLE = [b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"]
_PADDING = [b" ", b"  ", b"\t", b" \t"]
_BLANKS = [b"", b" ", b"\t", b"\r", b"   "]


def _clean_variant(name: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(4)
    if kind == 0:
        return name.upper()
    if kind == 1:
        return bytes(c - 32 if 97 <= c <= 122 and rng.random() < 0.5 else c for c in name)
    if kind == 2:
        return rng.choice(_PADDING) + name + rng.choice(_PADDING)
    return name + b"\r"  # the line ends in CRLF


def _reject(name: bytes, rng: random.Random) -> bytes:
    kind = rng.randrange(3)
    at = rng.randrange(len(name) + 1)
    if kind == 0:
        bad = rng.choice(_INVALID_CHARS).encode("utf-8")
        if bad == b" ":
            at = rng.randrange(1, len(name))  # an inner space survives trimming
        return name[:at] + bad + name[at:]
    if kind == 1:
        return name[:at] + rng.choice(_UNDECODABLE) + name[at:]
    long_name = name
    while len(long_name) <= 64:
        long_name += b"_" + name
    return long_name


def inject_dirty(clean: bytes, seed: int) -> bytes:
    """The clean corpus with seeded dirty lines mixed in; clean names keep their order."""
    rng = random.Random(f"dirty-lines-{seed}")
    out = []
    for name in clean.split(b"\n")[:-1]:
        roll = rng.random()
        out.append(_clean_variant(name, rng) if roll < CLEAN_VARIANT_SHARE else name)
        roll = rng.random()
        if roll < BLANK_SHARE:
            out.append(rng.choice(_BLANKS))
        elif roll < BLANK_SHARE + REJECT_SHARE:
            out.append(_reject(name, rng))
    return b"\n".join(out) + b"\n"
