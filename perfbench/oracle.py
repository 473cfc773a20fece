"""Expected outputs of the benchmarked CLI verbs, computed with the standard library only.

The oracle reads a corpus the way `analyze` and `compare` do (lines split on
b"\\n", UTF-8 decoded, whitespace trimmed, ASCII case folded, validated
against the 37-character alphabet) and places names from first principles:
md5 levels are bytes of `hashlib.md5(name + b"\\n").digest()`, ascii-sum
levels are plain byte sums, letter levels index the alphabet, and counter
mapping loads come from a closed-form count per server.

Each `check_*` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz_"
MAX_LENGTH = 64
UNDECODABLE = "undecodable bytes"

_INDEX = {c: i for i, c in enumerate(ALPHABET)}
_FOLD = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")

DEFAULT_MODULI = {"ascii-sum": (31, 33), "md5": (64, 64, 128)}
DEFAULT_LETTER_LEVELS = 6
FLOAT_TOLERANCE = 1e-12


def read_names(data: bytes) -> tuple[list[str], list[tuple[int, str]]]:
    """Names in file order, and (line_number, reason) for each rejected line."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    names: list[str] = []
    rejects: list[tuple[int, str]] = []
    for number, raw in enumerate(lines, 1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            rejects.append((number, UNDECODABLE))
            continue
        if not text:
            continue
        name = text.translate(_FOLD)
        reason = _invalid_reason(name)
        if reason is None:
            names.append(name)
        else:
            rejects.append((number, reason))
    return names, rejects


def _invalid_reason(name: str) -> str | None:
    if len(name) > MAX_LENGTH:
        return f"username has {len(name)} characters, max {MAX_LENGTH}"
    for position, char in enumerate(name):
        if char not in _INDEX:
            return f"invalid character {char!r} at position {position}"
    return None


# --- placement: the joint bucket index over levels 0..=level, or None if skipped ---

def md5_index(name: str, moduli: tuple[int, ...], level: int) -> int:
    digest = hashlib.md5(name.encode("ascii") + b"\n").digest()
    index = 0
    for k in range(level + 1):
        index = index * moduli[k] + digest[k] % moduli[k]
    return index


def ascii_sum_index(name: str, moduli: tuple[int, ...], level: int) -> int | None:
    if min(len(name), len(moduli)) <= level:
        return None
    data = name.encode("ascii")
    index = 0
    for k in range(level + 1):
        index = index * moduli[k] + sum(data[k:]) % moduli[k]
    return index


def letter_index(name: str, levels: int, level: int) -> int | None:
    if min(len(name), levels) <= level:
        return None
    index = 0
    for char in name[: level + 1]:
        index = index * len(ALPHABET) + _INDEX[char]
    return index


def level_moduli(strategy: str, config) -> tuple[int, ...]:
    if strategy == "letter":
        return (len(ALPHABET),) * config
    return tuple(config)


def histogram(names: list[str], strategy: str, config, level: int) -> tuple[list[int], int]:
    """(counts, skipped) for one strategy at one level."""
    moduli = level_moduli(strategy, config)
    counts = [0] * math.prod(moduli[: level + 1])
    skipped = 0
    for name in names:
        if strategy == "md5":
            index = md5_index(name, moduli, level)
        elif strategy == "ascii-sum":
            index = ascii_sum_index(name, moduli, level)
        else:
            index = letter_index(name, config, level)
        if index is None:
            skipped += 1
        else:
            counts[index] += 1
    return counts, skipped


def mapping_counts(first: int, last: int, bucket_size: int, servers: int) -> list[int]:
    """Per-server load of IDs first..=last: bucket (id-1)//S goes to server bucket % P."""

    def upto(n: int, server: int) -> int:  # IDs 1..=n on `server`
        cycle = bucket_size * servers
        return (n // cycle) * bucket_size + min(bucket_size, max(0, n % cycle - server * bucket_size))

    return [upto(last, s) - upto(first - 1, s) for s in range(servers)]


def stats(counts: list[int]) -> tuple[float, float, float]:
    """(ideal_mean, std_dev, deviation_ratio) about the ideal mean over every bucket."""
    total = sum(counts)
    ideal_mean = total / len(counts)
    std_dev = math.sqrt(math.fsum((c - ideal_mean) ** 2 for c in counts) / len(counts))
    return ideal_mean, std_dev, std_dev / ideal_mean


# --- expected outputs and checks ---

def reject_lines(rejects: list[tuple[int, str]]) -> list[str]:
    """The reject report a scan prints to stderr."""
    lines = [f"line {number}: {reason}" for number, reason in rejects]
    if rejects:
        lines.append(f"{len(rejects)} lines rejected")
    return lines


def _reported_rejects(stderr: bytes) -> list[str]:
    return [line for line in stderr.decode("utf-8", "replace").splitlines()
            if line.startswith("line ") or line.endswith(" lines rejected")]


def expected_analyze(data: bytes, strategy: str, level: int) -> dict:
    """The JSON report of `analyze <corpus> --strategy S --level L --format json` with counts."""
    names, rejects = read_names(data)
    config = DEFAULT_LETTER_LEVELS if strategy == "letter" else DEFAULT_MODULI[strategy]
    counts, skipped = histogram(names, strategy, config, level)
    ideal_mean, std_dev, ratio = stats(counts)
    echo = {"levels": config} if strategy == "letter" else {"moduli": list(config)}
    return {
        "report": {
            "strategy": strategy, "config": echo, "level": level,
            "bucket_count": len(counts), "total": sum(counts), "skipped": skipped,
            "ideal_mean": ideal_mean, "std_dev": std_dev, "deviation_ratio": ratio,
            "counts": counts,
        },
        "rejects": reject_lines(rejects),
        "model_rejects": sum(1 for _, reason in rejects if reason != UNDECODABLE),
    }


def check_analyze(stdout: bytes, stderr: bytes, expected: dict) -> list[str]:
    problems = []
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    want = expected["report"]
    if list(report) != list(want):
        problems.append(f"report keys {list(report)} != {list(want)}")
    for key, value in want.items():
        got = report.get(key)
        if isinstance(value, float):
            if not isinstance(got, float) or not math.isclose(got, value, rel_tol=FLOAT_TOLERANCE):
                problems.append(f"{key}: {got!r} != {value!r}")
        elif got != value:
            if key == "counts" and isinstance(got, list) and len(got) == len(value):
                wrong = sum(1 for a, b in zip(got, value) if a != b)
                problems.append(f"counts differ in {wrong} of {len(value)} buckets")
            else:
                problems.append(f"{key}: {str(got)[:80]} != {str(value)[:80]}")
    if _reported_rejects(stderr) != expected["rejects"]:
        problems.append("reject report differs from the expected line numbers and reasons")
    return problems


def _label(strategy: str, config) -> str:
    return f"mapping[{config[0]},{config[1]}]" if strategy == "mapping" else strategy


def parse_spec(spec: str) -> tuple[str, object]:
    name, _, config = spec.partition(":")
    if name == "letter":
        return name, int(config) if config else DEFAULT_LETTER_LEVELS
    if name in DEFAULT_MODULI:
        return name, tuple(int(p) for p in config.split(",")) if config else DEFAULT_MODULI[name]
    if name == "mapping":
        bucket_size, servers = (int(p) for p in config.split(","))
        return name, (bucket_size, servers)
    raise ValueError(f"unknown strategy {name!r}")


def expected_compare(data: bytes, specs: list[str], levels: list[int], ids: tuple[int, int]) -> dict:
    """The text table of `compare` over the given specs and levels, and its reject report."""
    names, rejects = read_names(data)
    rows = []
    for level in levels:
        for strategy, config in map(parse_spec, specs):
            if strategy == "mapping":
                if level != 0:
                    continue
                counts, skipped = mapping_counts(ids[0], ids[1], *config), 0
            else:
                if level >= len(level_moduli(strategy, config)):
                    continue
                counts, skipped = histogram(names, strategy, config, level)
            if sum(counts) == 0:
                continue
            ideal_mean, std_dev, ratio = stats(counts)
            rows.append((level, ratio, [
                _label(strategy, config), str(level), str(len(counts)), f"{ideal_mean:.6g}",
                f"{std_dev:.6g}", f"{ratio:.6g}", str(skipped)]))
    rows.sort(key=lambda row: (row[0], row[1]))
    header = ["strategy", "level", "bucket_count", "ideal_mean",
              "std_dev", "deviation_ratio", "skipped"]
    cells = [row[2] for row in rows]
    widths = [max(len(header[i]), *(len(row[i]) for row in cells)) for i in range(len(header))]
    text = "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [header, *cells])
    return {"table": text, "rejects": reject_lines(rejects),
            "model_rejects": sum(1 for _, reason in rejects if reason != UNDECODABLE)}


def check_compare(stdout: bytes, stderr: bytes, expected: dict) -> list[str]:
    problems = []
    if stdout.decode("utf-8", "replace") != expected["table"]:
        problems.append("compare table differs from the expected table")
    if _reported_rejects(stderr) != expected["rejects"]:
        problems.append("reject report differs from the expected line numbers and reasons")
    return problems


def check_generated(data: bytes, count: int, min_len: int, max_len: int) -> list[str]:
    """A gen-corpus output: `count` distinct valid names of min_len..=max_len, one per line."""
    if not data.endswith(b"\n"):
        return ["output does not end with a newline"]
    lines = data[:-1].split(b"\n")
    problems = []
    if len(lines) != count:
        problems.append(f"{len(lines)} names written, {count} asked for")
    if len(set(lines)) != len(lines):
        problems.append(f"{len(lines) - len(set(lines))} duplicate names")
    bad = 0
    for line in lines:
        try:
            name = line.decode("ascii")
        except UnicodeDecodeError:
            bad += 1
            continue
        if not min_len <= len(name) <= max_len or _invalid_reason(name) is not None:
            bad += 1
    if bad:
        problems.append(f"{bad} names outside the alphabet or the length range")
    return problems
