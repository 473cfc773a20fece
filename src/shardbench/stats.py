"""Bucket histograms over a corpus and distribution-quality statistics."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from typing import Callable, Iterable

from .errors import EmptyHistogram, LevelOutOfRange, ShapeMismatch, TooManyBuckets
from .model import Placement, Username, _Record
from .strategies import MappingConfig, counter_placement

# Dense count arrays only; joint spaces beyond this are rejected outright
# rather than silently switching to a sparse representation.
DENSE_BUCKET_CAP = 1 << 21


class Histogram(_Record):
    """Dense per-bucket counts over a fixed bucket space, zeros included.

    `skipped` counts corpus entries whose placement was too shallow for the
    requested level; they are excluded from `total`. The one mutable record.
    """

    __slots__ = ("counts", "total", "skipped")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, counts: list[int], total: int, skipped: int = 0) -> None:
        if sum(counts) != total:
            raise ValueError("total does not match sum of counts")
        self._fill(counts, total, skipped)

    @property
    def bucket_count(self) -> int:
        return len(self.counts)


class DistributionStats(_Record):
    """The figure of merit: spread about the ideal (perfectly even) mean."""

    __slots__ = ("ideal_mean", "std_dev", "deviation_ratio")

    def __init__(self, ideal_mean: float, std_dev: float, deviation_ratio: float) -> None:
        self._fill(ideal_mean, std_dev, deviation_ratio)


def joint_bucket_count(level_moduli: tuple[int, ...], level: int) -> int:
    """Size of the Cartesian bucket space for levels 0..=level."""
    if not 0 <= level < len(level_moduli):
        raise LevelOutOfRange(f"level {level} outside 0..{len(level_moduli) - 1}")
    space = math.prod(level_moduli[: level + 1])
    if space > DENSE_BUCKET_CAP:
        raise TooManyBuckets(f"joint space {space} exceeds dense cap {DENSE_BUCKET_CAP}")
    return space


def linear_index(placement: Placement, level: int) -> int:
    """Row-major linearization of the joint bucket for levels 0..=level."""
    index = 0
    for k in range(level + 1):
        bucket, modulus = placement.levels[k]
        index = index * modulus + bucket
    return index


def build_histogram(
    corpus: Iterable[Username],
    placement_fn: Callable[[Username], Placement],
    level_moduli: tuple[int, ...],
    level: int,
) -> Histogram:
    """Count each name's joint bucket at the given level.

    Names whose placement truncates above `level` are tallied as skipped,
    not bucketed; bucketing them anywhere would fabricate data.
    """
    counts = [0] * joint_bucket_count(level_moduli, level)
    total = 0
    skipped = 0
    for name in corpus:
        placement = placement_fn(name)
        if placement.depth <= level:
            skipped += 1
            continue
        counts[linear_index(placement, level)] += 1
        total += 1
    return Histogram(counts, total, skipped)


def build_mapping_histogram(ids: range, cfg: MappingConfig) -> Histogram:
    """Per-server load histogram for a step-1 range of counter IDs.

    Takes O(servers) steps, not one per ID: the buckets from the first ID's
    to the last ID's deal out bucket_size IDs each, round-robin from the
    first bucket's server, less the IDs of those two buckets outside the range.
    """
    if not isinstance(ids, range) or ids.step != 1:
        got = ids if isinstance(ids, range) else type(ids).__name__
        raise TypeError(f"ids must be a range with step 1, got {got}")
    size, servers = cfg.bucket_size, cfg.num_servers
    counts = [0] * joint_bucket_count(cfg.level_moduli, 0)
    if not ids:
        return Histogram(counts, 0)
    first, last = ids[0], ids[-1]
    first_bucket, _ = counter_placement(first, cfg)
    last_bucket, _ = counter_placement(last, cfg)
    rounds, rest = divmod(last_bucket - first_bucket + 1, servers)
    for k in range(servers):
        counts[(first_bucket + k) % servers] = (rounds + (k < rest)) * size
    counts[first_bucket % servers] -= first - 1 - first_bucket * size
    counts[last_bucket % servers] -= (last_bucket + 1) * size - last
    return Histogram(counts, ids.stop - ids.start)  # len(ids) fails past sys.maxsize


def compute_stats(h: Histogram) -> DistributionStats:
    """Standard deviation about the ideal mean, over every bucket.

    Population normalization (divide by bucket_count): the bucket space is
    exhaustive, not a sample, and empty buckets count.
    """
    if h.total == 0:
        raise EmptyHistogram("histogram has no placed entries")
    bucket_count = h.bucket_count
    ideal_mean = h.total / bucket_count
    counts = h.counts
    if h.total > 2 ** 53:  # counts past the float grid: an exact integer variance
        variance = (bucket_count * sum(c * c for c in counts) - h.total ** 2) / bucket_count ** 2
    else:
        # fsum is correctly rounded, so each distinct count's term can be added
        # once per bucket holding it, in any order, and give the same bits.
        groups = Counter(filter(None, counts))
        groups[0] = counts.count(0)
        terms = chain.from_iterable(repeat((c - ideal_mean) ** 2, n) for c, n in groups.items())
        variance = math.fsum(terms) / bucket_count
    std_dev = math.sqrt(variance)
    return DistributionStats(ideal_mean, std_dev, std_dev / ideal_mean)


def merge_histograms(a: Histogram, b: Histogram) -> Histogram:
    """Element-wise sum; associative and commutative, so corpus scans can split."""
    if a.bucket_count != b.bucket_count:
        raise ShapeMismatch(f"bucket spaces differ: {a.bucket_count} vs {b.bucket_count}")
    return Histogram(
        [x + y for x, y in zip(a.counts, b.counts)],
        a.total + b.total,
        a.skipped + b.skipped,
    )
