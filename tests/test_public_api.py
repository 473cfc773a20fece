"""The public API is exactly the names `shardbench.__all__` lists."""

import shardbench

PUBLIC = [
    "ALPHABET", "AsciiSumConfig", "CorpusSpec", "DistributionStats", "EmptyHistogram",
    "EmptyName", "FanoutReport", "Histogram", "InvalidCharacter", "LetterConfig",
    "LevelOutOfRange", "MAX_USERNAME_LENGTH", "MappingConfig", "Md5Config", "NothingToSum",
    "Placement", "ShapeMismatch", "ShardbenchError", "SpaceExhausted", "StoragePath",
    "TooLong", "TooManyBuckets", "Username", "ascii_sum", "ascii_sum_placement",
    "build_histogram", "build_mapping_histogram", "char_index", "compute_stats",
    "counter_placement", "distinct_capacity", "fanout_report", "generate_corpus",
    "letter_path", "letter_placement", "load_corpus", "materialize_tree", "md5_digest",
    "md5_hex", "md5_path", "md5_placement", "merge_histograms", "normalize_username",
]


def test_all_is_the_pinned_public_surface():
    assert sorted(shardbench.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in shardbench.__all__:
        assert getattr(shardbench, name) is not None, name
