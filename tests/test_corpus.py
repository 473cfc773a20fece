"""Corpus loading and the synthetic generators."""

import hashlib
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from shardbench.corpus import (
    _TRANSITIONS,
    CorpusSpec,
    _cumulative,
    _thresholds,
    distinct_capacity,
    first_letter_weights,
    generate_corpus,
    load_corpus,
)
from shardbench.errors import ShardbenchError, SpaceExhausted
from shardbench.model import ALPHABET, Username, normalize_username
from shardbench.stats import build_histogram, compute_stats
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    Md5Config,
    ascii_sum_placement,
    letter_placement,
    md5_placement,
)


def _ratio(names, placement_fn, moduli, level=0):
    hist = build_histogram(names, placement_fn, moduli, level)
    return compute_stats(hist).deviation_ratio


def test_generation_is_deterministic():
    spec = CorpusSpec("name_like", 500, 42)
    assert list(generate_corpus(spec)) == list(generate_corpus(spec))


def test_different_seeds_differ():
    a = list(generate_corpus(CorpusSpec("name_like", 500, 1)))
    b = list(generate_corpus(CorpusSpec("name_like", 500, 2)))
    assert a != b


def test_seed7_stream_is_pinned():
    # Output stability contract: same seed must reproduce the same names on
    # any platform. These five are the documented head of the seed-7 stream.
    names = []
    for name in generate_corpus(CorpusSpec("name_like", 5, 7)):
        names.append(str(name))
    assert names == ["cirese", "asereter", "tesonirer", "sesise", "ari"]


# (spec, sha256 of everything gen-corpus writes for it)
PINNED = [
    (CorpusSpec("name_like", 20_000, 7, min_len=3, max_len=12),
     "fee7f8b2b770a351c8bc0a2730b0e158155cf7fa822ffa1a5457ef367dd9aeca"),
    (CorpusSpec("name_like", 5_000, 3, min_len=1, max_len=64),
     "37c365f1f526a8dd7d7305a8651c8f721e682cdf35a111682fd8bebb31350e2c"),
    (CorpusSpec("uniform", 20_000, 99, min_len=3, max_len=12),
     "0f9e6c63814c895744ead6d9856f871b27a0608a0216fc893ca66af14629b29d"),
    (CorpusSpec("uniform", 1_000, 4, min_len=1, max_len=2),
     "322b305da07ab67b5ed104a1dd2c3a38628bf490f529b9098751ad706f6f46f4"),
]


@pytest.mark.parametrize("spec, sha256", PINNED)
def test_whole_stream_is_pinned(spec, sha256):
    # The digest of everything gen-corpus writes for the spec, so a faster
    # draw that changes any byte of any name fails here.
    stream = "".join(name + "\n" for name in generate_corpus(spec))
    assert hashlib.sha256(stream.encode("ascii")).hexdigest() == sha256


@pytest.mark.parametrize("model", ["uniform", "name_like"])
def test_names_are_distinct_valid_and_in_range(model):
    spec = CorpusSpec(model, 5_000, 9, min_len=3, max_len=12)
    names = list(generate_corpus(spec))
    assert len(names) == 5_000
    assert len(set(names)) == 5_000
    for name in names:
        assert isinstance(name, Username)
        assert 3 <= len(name) <= 12
        assert all(c in ALPHABET for c in name)


def test_uniform_covers_the_length_range():
    names = list(generate_corpus(CorpusSpec("uniform", 2_000, 4, min_len=2, max_len=5)))
    lengths = {len(n) for n in names}
    assert lengths == {2, 3, 4, 5}


def test_uniform_exhausts_single_char_space_exactly():
    names = set(generate_corpus(CorpusSpec("uniform", 37, 0, min_len=1, max_len=1)))
    assert names == set(ALPHABET)


@pytest.mark.parametrize("model", ["uniform", "name_like"])
def test_overdrawn_space_is_refused(model):
    with pytest.raises(SpaceExhausted):
        list(generate_corpus(CorpusSpec(model, 38, 0, min_len=1, max_len=1)))


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec("zipf", 10, 0)
    with pytest.raises(ValueError):
        CorpusSpec("uniform", 0, 0)
    with pytest.raises(ValueError):
        CorpusSpec("uniform", 10, 0, min_len=5, max_len=4)
    with pytest.raises(ValueError):
        CorpusSpec("uniform", 10, 0, min_len=1, max_len=65)


def test_first_letter_table_covers_alphabet():
    weights = first_letter_weights()
    assert set(weights) == set(ALPHABET)
    assert all(w > 0 for w in weights.values())


def test_capacity_uniform_is_power_sum():
    assert distinct_capacity(CorpusSpec("uniform", 1, 0, min_len=2, max_len=3)) == 37**2 + 37**3
    assert distinct_capacity(CorpusSpec("uniform", 1, 0, min_len=1, max_len=1)) == 37


def test_capacity_name_like_short_lengths():
    # Hand count: every first char is reachable (37). For the second char,
    # a vowel start allows all 37 successors, a digit/underscore start allows
    # all 37, and a consonant start allows only the 23 positive-weight entries
    # (5 vowels, y/r/l/h/n/s/t, underscore, ten digits):
    #   5*37 + 11*37 + 21*23 = 1075.
    assert distinct_capacity(CorpusSpec("name_like", 1, 0, min_len=1, max_len=1)) == 37
    assert distinct_capacity(CorpusSpec("name_like", 1, 0, min_len=1, max_len=2)) == 37 + 1075
    assert distinct_capacity(CorpusSpec("name_like", 1, 0, min_len=2, max_len=2)) == 1075


def _name_like_capacity_by_character(spec):
    """Reference: the model's distinct names, counted by their last character."""
    from shardbench.corpus import _TRANSITIONS, _char_class

    supports = {cls: [c for c in ALPHABET if table.get(c, 0.0) > 0]
                for cls, table in _TRANSITIONS.items()}
    reachable = {c: 1 for c in ALPHABET if first_letter_weights().get(c, 0.0) > 0}
    capacity = 0
    for length in range(1, spec.max_len + 1):
        if length >= spec.min_len:
            capacity += sum(reachable.values())
        nxt = {}
        for prev, ways in reachable.items():
            for c in supports[_char_class(prev)]:
                nxt[c] = nxt.get(c, 0) + ways
        reachable = nxt
    return capacity


@pytest.mark.parametrize("min_len, max_len", [(1, 1), (1, 3), (3, 12), (5, 5), (1, 64), (40, 64)])
def test_capacity_name_like_matches_a_count_by_character(min_len, max_len):
    spec = CorpusSpec("name_like", 1, 0, min_len=min_len, max_len=max_len)
    assert distinct_capacity(spec) == _name_like_capacity_by_character(spec)


def test_name_like_space_is_smaller_than_uniform():
    name_like = distinct_capacity(CorpusSpec("name_like", 1, 0))
    uniform = distinct_capacity(CorpusSpec("uniform", 1, 0))
    assert name_like < uniform


def test_load_corpus_normalizes_and_reports_rejects(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text(
        "Frankie\n"
        "\n"
        "  bob \n"
        "na me\n"
        + "x" * 65 + "\n"
        "ok_1\n",
        encoding="utf-8",
    )
    rejects = []
    names = list(load_corpus(path, on_reject=lambda n, why: rejects.append((n, why))))
    assert names == ["frankie", "bob", "ok_1"]
    assert [n for n, _ in rejects] == [4, 5]
    assert "position 2" in rejects[0][1]


def test_load_corpus_without_callback_skips_quietly(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("good\nbad name\nalso_good\n", encoding="utf-8")
    assert list(load_corpus(path)) == ["good", "also_good"]


def test_load_corpus_yields_the_username_of_each_accepted_line(tmp_path):
    rng = random.Random(3)
    pieces = ["ann", "Bob", "  carl ", "d\r", "e e", "\t", "", "x" * 64, "y" * 65, "z\u00e9",
              "\u00a0Ann\u00a0", "ok_9", "\u212a", "\xff"]
    lines = [rng.choice(pieces) + rng.choice(["", "a", "7"]) for _ in range(3_000)]
    data = "\n".join(lines).encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")
    path = tmp_path / "dirty.txt"
    path.write_bytes(data)  # more than two read blocks
    expected = []
    for raw in data.split(b"\n"):
        try:
            expected.append(normalize_username(raw.decode("utf-8")))
        except (UnicodeDecodeError, ShardbenchError):
            continue
    names = list(load_corpus(path))
    assert names == expected
    assert all(type(name) is Username for name in names)


def _weights(table: str) -> dict[str, float]:
    if table == "first":
        return first_letter_weights()
    if table == "uniform":
        return dict.fromkeys(ALPHABET, 1.0)
    return _TRANSITIONS[table]


TABLES = ["first", *_TRANSITIONS, "uniform"]


@pytest.mark.parametrize("table", TABLES)
def test_thresholds_are_the_least_doubles_at_each_cumulative_weight(table):
    cumulative = _cumulative(_weights(table))
    total, thresholds = cumulative[-1], _thresholds(cumulative)
    for c, edge in zip(cumulative, thresholds):
        assert edge * total >= c
        if edge > 0.0:
            assert math.nextafter(edge, 0.0) * total < c
        for r in (edge, math.nextafter(edge, 0.0)):
            if 0.0 <= r < 1.0:
                assert bisect_right(thresholds, r) == bisect_right(cumulative, r * total), r
                if table == "uniform":  # the index the uniform model drew before thresholds
                    assert bisect_right(thresholds, r) == int(r * 37), r


@pytest.mark.parametrize("table", TABLES)
@given(r=st.floats(0.0, 1.0, exclude_max=True))
def test_thresholds_bisect_as_the_cumulative_table_does(table, r):
    cumulative = _cumulative(_weights(table))
    assert bisect_right(_thresholds(cumulative), r) == bisect_right(cumulative, r * cumulative[-1])


@given(r=st.floats(0.0, 1.0, exclude_max=True))
def test_uniform_thresholds_pick_int_r_times_37(r):
    assert bisect_right(_thresholds(_cumulative(_weights("uniform"))), r) == int(r * 37)


def test_name_like_first_letters_are_heavily_skewed():
    names = list(generate_corpus(CorpusSpec("name_like", 20_000, 3)))
    cfg = LetterConfig(6)
    ratio = _ratio(names, lambda u: letter_placement(u, cfg), cfg.level_moduli)
    assert ratio > 0.3


@pytest.mark.parametrize("seed", [3, 11])
def test_name_like_letter_dominates_hashed_strategies(seed):
    names = list(generate_corpus(CorpusSpec("name_like", 20_000, seed)))
    letter_cfg = LetterConfig(6)
    ascii_cfg = AsciiSumConfig()
    md5_cfg = Md5Config()
    letter = _ratio(names, lambda u: letter_placement(u, letter_cfg), letter_cfg.level_moduli)
    ascii_ = _ratio(names, lambda u: ascii_sum_placement(u, ascii_cfg), ascii_cfg.level_moduli)
    md5 = _ratio(names, lambda u: md5_placement(u, md5_cfg), md5_cfg.level_moduli)
    assert letter > 10 * ascii_
    assert letter > 10 * md5


def test_uniform_corpus_is_flat_under_every_strategy():
    names = list(generate_corpus(CorpusSpec("uniform", 50_000, 7)))
    ascii_cfg = AsciiSumConfig()
    md5_cfg = Md5Config()
    ascii_ = _ratio(names, lambda u: ascii_sum_placement(u, ascii_cfg), ascii_cfg.level_moduli)
    md5 = _ratio(names, lambda u: md5_placement(u, md5_cfg), md5_cfg.level_moduli)
    assert ascii_ < 0.05
    assert md5 < 0.05
