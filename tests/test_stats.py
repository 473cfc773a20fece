"""Histogram building, merging, and the deviation statistics."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from shardbench.corpus import CorpusSpec, generate_corpus
from shardbench.errors import (
    EmptyHistogram,
    LevelOutOfRange,
    ShapeMismatch,
    TooManyBuckets,
)
from shardbench.model import Username
from shardbench.stats import (
    DENSE_BUCKET_CAP,
    Histogram,
    build_histogram,
    build_mapping_histogram,
    compute_stats,
    joint_bucket_count,
    linear_index,
    merge_histograms,
)
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
    ascii_sum_placement,
    counter_placement,
    letter_placement,
    md5_placement,
)


def test_compute_stats_lopsided_ten_buckets():
    stats = compute_stats(Histogram([20] + [0] * 9, 20))
    assert stats.ideal_mean == 2.0
    assert stats.std_dev == 6.0
    assert stats.deviation_ratio == 3.0


def test_compute_stats_perfectly_even():
    stats = compute_stats(Histogram([2] * 25, 50))
    assert stats.std_dev == 0.0
    assert stats.deviation_ratio == 0.0


def test_compute_stats_two_bucket_extreme():
    stats = compute_stats(Histogram([4, 0], 4))
    assert stats.ideal_mean == 2.0
    assert stats.std_dev == 2.0
    assert stats.deviation_ratio == 1.0


# Mostly-empty spaces with small counts that repeat, and counts large enough
# that their squared deviations need every bit fsum keeps. The example's
# std_dev changes if a count's term is scaled by the buckets holding it
# instead of added once per bucket.
_COUNT_LISTS = st.lists(
    st.one_of(st.sampled_from([0, 0, 0, 1, 2, 3, 7]), st.integers(0, 10**9)), min_size=1,
    max_size=300,
).filter(any)


@given(counts=_COUNT_LISTS)
@example(counts=[0, 0, 3, 0, 0, 2, 3, 3, 2, 0, 2, 2, 2, 0, 0, 0, 2, 0, 0, 7, 7, 0, 2, 0, 7])
def test_compute_stats_matches_a_sum_over_every_bucket_bit_for_bit(counts):
    stats = compute_stats(Histogram(counts, sum(counts)))
    ideal_mean = sum(counts) / len(counts)
    std_dev = math.sqrt(math.fsum((c - ideal_mean) ** 2 for c in counts) / len(counts))
    assert stats.ideal_mean.hex() == ideal_mean.hex()
    assert stats.std_dev.hex() == std_dev.hex()
    assert stats.deviation_ratio.hex() == (std_dev / ideal_mean).hex()


def _float_spread(counts):
    """The std_dev of a sum over every bucket in floats, as compute_stats gives it to 2^53."""
    ideal_mean = sum(counts) / len(counts)
    return math.sqrt(math.fsum((c - ideal_mean) ** 2 for c in counts) / len(counts))


# Totals up to 2^53, the largest the float path keeps: counts near 2^53 / 8.
@given(counts=st.lists(st.one_of(st.integers(0, 3), st.integers(2**49, 2**50)),
                       min_size=1, max_size=8).filter(any))
@example(counts=[2**52, 2**52])
@example(counts=[2**52 + 1, 2**52 - 1])
def test_compute_stats_keeps_the_float_bits_to_a_total_of_2_to_the_53(counts):
    assert sum(counts) <= 2**53
    assert compute_stats(Histogram(counts, sum(counts))).std_dev.hex() == \
        _float_spread(counts).hex()


@given(counts=st.lists(st.integers(0, 10**30), min_size=1, max_size=20)
       .filter(lambda counts: sum(counts) > 2**53))
@example(counts=[2**52 + 1, 2**52])
@example(counts=[10**20 // 3 + 1] * 2 + [10**20 // 3])
def test_compute_stats_is_exact_past_a_total_of_2_to_the_53(counts):
    buckets, total = len(counts), sum(counts)
    variance = sum((Fraction(c) - Fraction(total, buckets)) ** 2 for c in counts) / buckets
    assert compute_stats(Histogram(counts, total)).std_dev == math.sqrt(variance)


def test_compute_stats_rejects_empty():
    with pytest.raises(EmptyHistogram):
        compute_stats(Histogram([0, 0, 0], 0))


def test_histogram_total_must_match_counts():
    with pytest.raises(ValueError):
        Histogram([1, 2], 4)


def test_build_histogram_single_name_md5_level0():
    hist = build_histogram(
        [Username("frank")],
        lambda u: md5_placement(u, Md5Config()),
        (64, 64, 128),
        0,
    )
    assert hist.counts[18] == 1
    assert hist.total == 1
    assert sum(hist.counts) == 1


def test_build_histogram_empty_corpus():
    hist = build_histogram(
        [], lambda u: md5_placement(u, Md5Config()), (64, 64, 128), 0
    )
    assert hist.total == 0
    assert all(c == 0 for c in hist.counts)


def test_build_histogram_joint_space_is_row_major():
    cfg = AsciiSumConfig((31, 33))
    hist = build_histogram(
        [Username("bob")] * 3,
        lambda u: ascii_sum_placement(u, cfg),
        (31, 33),
        1,
    )
    assert hist.bucket_count == 31 * 33
    assert hist.counts[28 * 33 + 11] == 3
    assert hist.total == 3


def test_build_histogram_counts_short_names_as_skipped():
    cfg = LetterConfig(6)
    hist = build_histogram(
        [Username("ab"), Username("abc"), Username("a")],
        lambda u: letter_placement(u, cfg),
        cfg.level_moduli,
        2,
    )
    assert hist.skipped == 2
    assert hist.total == 1
    joint = (10 * 37 + 11) * 37 + 12
    assert hist.counts[joint] == 1


def test_joint_bucket_count_level_bounds():
    with pytest.raises(LevelOutOfRange):
        joint_bucket_count((31, 33), 2)
    with pytest.raises(LevelOutOfRange):
        joint_bucket_count((31,), -1)


def test_joint_space_beyond_dense_cap_is_rejected():
    # 37^5 is ~69M buckets; dense arrays stop at 2^21.
    with pytest.raises(TooManyBuckets):
        joint_bucket_count((37,) * 6, 4)
    assert joint_bucket_count((37,) * 6, 3) == 37**4


def test_linear_index_matches_manual_arithmetic():
    placement = letter_placement(Username("frankie"), LetterConfig(6))
    assert linear_index(placement, 0) == 15
    assert linear_index(placement, 1) == 15 * 37 + 27
    assert linear_index(placement, 2) == (15 * 37 + 27) * 37 + 10


def test_build_mapping_histogram_even_fill():
    hist = build_mapping_histogram(range(1, 101), MappingConfig(10, 10))
    assert hist.counts == [10] * 10
    assert hist.total == 100


def _mapping_loads_per_id(ids, cfg):
    """The reference: place every ID with counter_placement and count per server."""
    counts = [0] * cfg.num_servers
    for member_id in ids:
        _, server = counter_placement(member_id, cfg)
        counts[server] += 1
    return counts


@given(first=st.integers(1, 400), length=st.integers(0, 400),
       bucket_size=st.integers(1, 30), servers=st.integers(1, 12))
def test_mapping_closed_form_matches_the_per_id_loop(first, length, bucket_size, servers):
    ids = range(first, first + length)
    cfg = MappingConfig(bucket_size, servers)
    hist = build_mapping_histogram(ids, cfg)
    assert hist.counts == _mapping_loads_per_id(ids, cfg)
    assert hist.total == length


def test_mapping_histogram_takes_only_step_one_ranges():
    cfg = MappingConfig(10, 4)
    with pytest.raises(TypeError, match="range with step 1, got list"):
        build_mapping_histogram([1, 2, 3], cfg)
    with pytest.raises(TypeError, match=r"got range\(1, 10, 2\)"):
        build_mapping_histogram(range(1, 10, 2), cfg)
    with pytest.raises(ValueError, match="member_id must be >= 1, got 0"):
        build_mapping_histogram(range(0, 5), cfg)


def test_mapping_histogram_is_held_to_the_dense_cap():
    ids = range(1, 11)
    assert build_mapping_histogram(ids, MappingConfig(1, DENSE_BUCKET_CAP)).bucket_count == 1 << 21
    with pytest.raises(TooManyBuckets, match="joint space 2097153 exceeds dense cap 2097152"):
        build_mapping_histogram(ids, MappingConfig(1, DENSE_BUCKET_CAP + 1))


def test_merge_identity():
    hist = build_histogram(
        [Username("bob")], lambda u: ascii_sum_placement(u, AsciiSumConfig()), (31, 33), 0
    )
    zero = Histogram([0] * hist.bucket_count, 0)
    merged = merge_histograms(hist, zero)
    assert merged.counts == hist.counts
    assert merged.total == hist.total


def test_merge_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        merge_histograms(Histogram([0] * 3, 0), Histogram([0] * 4, 0))


counts_pairs = st.integers(min_value=2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n),
        st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n),
    )
)


@given(counts_pairs)
def test_merge_is_commutative_and_associative(triple):
    a, b, c = (Histogram(list(x), sum(x)) for x in triple)
    ab = merge_histograms(a, b)
    ba = merge_histograms(b, a)
    assert ab.counts == ba.counts and ab.total == ba.total
    left = merge_histograms(merge_histograms(a, b), c)
    right = merge_histograms(a, merge_histograms(b, c))
    assert left.counts == right.counts and left.total == right.total


def test_split_and_merge_equals_single_pass():
    names = list(generate_corpus(CorpusSpec("name_like", 10_000, 13)))
    cfg = Md5Config()
    place = lambda u: md5_placement(u, cfg)
    whole = build_histogram(names, place, cfg.level_moduli, 1)
    quarter = len(names) // 4
    parts = [
        build_histogram(names[i * quarter : (i + 1) * quarter if i < 3 else None],
                        place, cfg.level_moduli, 1)
        for i in range(4)
    ]
    merged = parts[0]
    for part in parts[1:]:
        merged = merge_histograms(merged, part)
    assert merged.counts == whole.counts
    assert merged.total == whole.total
    assert merged.skipped == whole.skipped


def test_histogram_is_order_free():
    names = list(generate_corpus(CorpusSpec("uniform", 2_000, 3)))
    cfg = AsciiSumConfig()
    place = lambda u: ascii_sum_placement(u, cfg)
    forward = build_histogram(names, place, cfg.level_moduli, 0)
    backward = build_histogram(list(reversed(names)), place, cfg.level_moduli, 0)
    assert forward.counts == backward.counts


def test_uniform_sample_tracks_multinomial_expectation():
    # Statistical backbone: N uniform draws into B buckets should land near
    # ratio sqrt(B/N); allow a factor of two either way.
    names = list(generate_corpus(CorpusSpec("uniform", 20_000, 5)))
    cfg = LetterConfig(6)
    hist = build_histogram(
        names, lambda u: letter_placement(u, cfg), cfg.level_moduli, 0
    )
    ratio = compute_stats(hist).deviation_ratio
    expectation = math.sqrt(37 / 20_000)
    assert expectation / 2 < ratio < expectation * 2
