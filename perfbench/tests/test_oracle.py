"""The benchmark's oracle against the library's per-name functions and the CLI."""

import json

import pytest

import inputs
import oracle
import spans
from shardbench import (
    AsciiSumConfig, CorpusSpec, LetterConfig, MappingConfig, Md5Config, ShardbenchError,
    ascii_sum_placement, build_histogram, build_mapping_histogram, generate_corpus,
    letter_placement, md5_placement, normalize_username,
)
from shardbench.stats import linear_index

SEED = 3


@pytest.fixture(scope="module")
def dirty() -> bytes:
    clean = "".join(name + "\n" for name in generate_corpus(CorpusSpec("name_like", 4000, SEED)))
    return inputs.inject_dirty(clean.encode("ascii"), SEED)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, dirty) -> str:
    path = tmp_path_factory.mktemp("oracle") / "dirty.txt"
    path.write_bytes(dirty)
    return str(path)


def library_read(data: bytes):
    """Names and rejects from the library's normalize_username, line by line."""
    names, rejects = [], []
    for number, raw in enumerate(data.split(b"\n")[:-1], 1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            rejects.append((number, oracle.UNDECODABLE))
            continue
        if text:
            try:
                names.append(normalize_username(text))
            except ShardbenchError as exc:
                rejects.append((number, str(exc)))
    return names, rejects


def test_injector_covers_every_line_class(dirty):
    lines = dirty.split(b"\n")
    _, rejects = oracle.read_names(dirty)
    reasons = {reason.split(" ")[0] for _, reason in rejects}
    assert reasons == {"undecodable", "invalid", "username"}  # bad bytes, bad char, too long
    assert any(line.endswith(b"\r") for line in lines)
    assert any(line != line.lower() for line in lines)
    assert any(line[:1] in (b" ", b"\t") for line in lines)
    assert any(not line.strip() for line in lines[:-1])
    assert len(rejects) < 0.02 * len(lines)
    assert inputs.inject_dirty(dirty, SEED) == inputs.inject_dirty(dirty, SEED)


def test_oracle_reads_like_normalize_username(dirty):
    assert oracle.read_names(dirty) == library_read(dirty)


def test_oracle_places_like_the_strategies(dirty):
    names, _ = oracle.read_names(dirty)
    md5, ascii_sum, letter = Md5Config(), AsciiSumConfig(), LetterConfig()
    for name in names:
        placed = md5_placement(name, md5)
        for level in range(3):
            assert oracle.md5_index(name, md5.level_moduli, level) == linear_index(placed, level)
        placed = ascii_sum_placement(name, ascii_sum)
        for level in range(2):
            want = linear_index(placed, level) if placed.depth > level else None
            assert oracle.ascii_sum_index(name, ascii_sum.level_moduli, level) == want
        placed = letter_placement(name, letter)
        for level in range(6):
            want = linear_index(placed, level) if placed.depth > level else None
            assert oracle.letter_index(name, letter.levels, level) == want


@pytest.mark.parametrize("strategy,config,place,level", [
    ("md5", (64, 64, 128), lambda u: md5_placement(u, Md5Config()), 1),
    ("ascii-sum", (31, 33), lambda u: ascii_sum_placement(u, AsciiSumConfig()), 1),
    ("letter", 6, lambda u: letter_placement(u, LetterConfig()), 2),
])
def test_oracle_histogram_matches_build_histogram(dirty, strategy, config, place, level):
    names, _ = oracle.read_names(dirty)
    histogram = build_histogram(names, place, oracle.level_moduli(strategy, config), level)
    assert oracle.histogram(names, strategy, config, level) == (histogram.counts, histogram.skipped)


@pytest.mark.parametrize("first,last,bucket_size,servers", [
    (1, 1, 10_000, 20), (1, 20_000, 10_000, 20), (1, 123_457, 1000, 7), (50, 999, 10, 3),
])
def test_mapping_closed_form_matches_the_loop(first, last, bucket_size, servers):
    loop = build_mapping_histogram(range(first, last + 1), MappingConfig(bucket_size, servers))
    assert oracle.mapping_counts(first, last, bucket_size, servers) == loop.counts


def test_oracle_accepts_the_cli_and_flags_an_off_by_one_count(corpus, dirty):
    result = spans.call_main(["analyze", corpus, "--strategy", "md5", "--level", "1",
                              "--format", "json"], "1")
    assert result["code"] == 0
    expected = oracle.expected_analyze(dirty, "md5", 1)
    assert oracle.check_analyze(result["stdout"], result["stderr"], expected) == []

    report = json.loads(result["stdout"])
    report["counts"][7] += 1
    problems = oracle.check_analyze(json.dumps(report).encode(), result["stderr"], expected)
    assert problems == ["counts differ in 1 of 4096 buckets"]


def test_oracle_flags_a_wrong_reject_line_number(corpus, dirty):
    result = spans.call_main(["analyze", corpus, "--strategy", "md5"], "1")
    expected = oracle.expected_analyze(dirty, "md5", 0)
    shifted = result["stderr"].replace(b"line 1", b"line 9", 1)
    assert shifted != result["stderr"]
    assert oracle.check_analyze(result["stdout"], shifted, expected) != []


def test_oracle_compare_table_matches_the_cli(corpus, dirty):
    specs = ["letter", "ascii-sum:31,33", "md5", "mapping:1000,7"]
    argv = ["compare", corpus, "--ids", "1..4000", "--level", "0", "--level", "1"]
    result = spans.call_main(argv + [a for spec in specs for a in ("--strategy", spec)], "1")
    assert result["code"] == 0
    expected = oracle.expected_compare(dirty, specs, [0, 1], (1, 4000))
    assert oracle.check_compare(result["stdout"], result["stderr"], expected) == []
    assert oracle.check_compare(result["stdout"].replace(b"md5", b"md6"), result["stderr"],
                                expected) != []


def test_generated_corpus_check(tmp_path):
    out = tmp_path / "names.txt"
    argv = ["gen-corpus", "--model", "name-like", "--count", "500", "--seed", "4", "-o", str(out)]
    assert spans.call_main(argv, None)["code"] == 0
    data = out.read_bytes()
    assert oracle.check_generated(data, 500, 3, 12) == []
    assert oracle.check_generated(data + data.split(b"\n")[0] + b"\n", 501, 3, 12) == [
        "1 duplicate names"]
    assert oracle.check_generated(data, 499, 3, 12) != []
