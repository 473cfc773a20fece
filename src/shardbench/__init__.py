"""Shard-placement strategies and distribution-quality benchmarks.

Four ways to place a member base across finite resources (letter expansion,
ASCII-sum modulo, counter/bucket mapping, multi-level MD5), plus the
histogram statistics and path layouts needed to judge and use them.
"""

from .corpus import CorpusSpec, distinct_capacity, generate_corpus, load_corpus
from .errors import (
    EmptyHistogram,
    EmptyName,
    InvalidCharacter,
    LevelOutOfRange,
    NothingToSum,
    ShapeMismatch,
    ShardbenchError,
    SpaceExhausted,
    TooLong,
    TooManyBuckets,
)
from .layout import (
    FanoutReport,
    StoragePath,
    fanout_report,
    letter_path,
    materialize_tree,
    md5_path,
)
from .model import (
    ALPHABET,
    MAX_USERNAME_LENGTH,
    Placement,
    Username,
    char_index,
    normalize_username,
)
from .stats import (
    DistributionStats,
    Histogram,
    build_histogram,
    build_mapping_histogram,
    compute_stats,
    merge_histograms,
)
from .strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
    ascii_sum,
    ascii_sum_placement,
    counter_placement,
    letter_placement,
    md5_digest,
    md5_hex,
    md5_placement,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "MAX_USERNAME_LENGTH",
    "AsciiSumConfig",
    "CorpusSpec",
    "DistributionStats",
    "EmptyHistogram",
    "EmptyName",
    "FanoutReport",
    "Histogram",
    "InvalidCharacter",
    "LetterConfig",
    "LevelOutOfRange",
    "MappingConfig",
    "Md5Config",
    "NothingToSum",
    "Placement",
    "ShapeMismatch",
    "ShardbenchError",
    "SpaceExhausted",
    "StoragePath",
    "TooLong",
    "TooManyBuckets",
    "Username",
    "ascii_sum",
    "ascii_sum_placement",
    "build_histogram",
    "build_mapping_histogram",
    "char_index",
    "compute_stats",
    "counter_placement",
    "distinct_capacity",
    "fanout_report",
    "generate_corpus",
    "letter_path",
    "letter_placement",
    "load_corpus",
    "materialize_tree",
    "md5_digest",
    "md5_hex",
    "md5_path",
    "md5_placement",
    "merge_histograms",
    "normalize_username",
]
