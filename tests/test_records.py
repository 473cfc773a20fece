"""The value records: repr, equality, hashing, defaults, validation, immutability, copying."""

import copy
import pickle

import pytest

from shardbench.corpus import CorpusSpec
from shardbench.layout import FanoutReport, StoragePath
from shardbench.model import Placement, Username
from shardbench.stats import DistributionStats, Histogram
from shardbench.strategies import AsciiSumConfig, LetterConfig, MappingConfig, Md5Config

# (class, keyword arguments of one instance, its repr, a field to try to assign)
RECORDS = [
    (Placement, {"levels": ((18, 64), (40, 64))},
     "Placement(levels=((18, 64), (40, 64)))", "levels"),
    (LetterConfig, {"levels": 3}, "LetterConfig(levels=3)", "levels"),
    (AsciiSumConfig, {"level_moduli": (7, 11)}, "AsciiSumConfig(level_moduli=(7, 11))",
     "level_moduli"),
    (MappingConfig, {"bucket_size": 50_000, "num_servers": 20},
     "MappingConfig(bucket_size=50000, num_servers=20)", "num_servers"),
    (Md5Config, {"level_moduli": (16, 256)}, "Md5Config(level_moduli=(16, 256))",
     "level_moduli"),
    (Histogram, {"counts": [2, 0, 1], "total": 3, "skipped": 4},
     "Histogram(counts=[2, 0, 1], total=3, skipped=4)", None),
    (DistributionStats, {"ideal_mean": 2.0, "std_dev": 6.0, "deviation_ratio": 3.0},
     "DistributionStats(ideal_mean=2.0, std_dev=6.0, deviation_ratio=3.0)", "std_dev"),
    (StoragePath, {"root": "/nas", "segments": ("18", "40"), "leaf": Username("frank")},
     "StoragePath(root='/nas', segments=('18', '40'), leaf='frank')", "leaf"),
    (FanoutReport, {"per_level_dirs": (64, 64), "dirs_under_one_top": 64,
                    "total_leaf_buckets": 4096, "limit": 64_000, "ok": True},
     "FanoutReport(per_level_dirs=(64, 64), dirs_under_one_top=64, "
     "total_leaf_buckets=4096, limit=64000, ok=True)", "ok"),
    (CorpusSpec, {"model": "uniform", "count": 10, "seed": 7, "min_len": 2, "max_len": 5},
     "CorpusSpec(model='uniform', count=10, seed=7, min_len=2, max_len=5)", "count"),
]
FROZEN = [case for case in RECORDS if case[3] is not None]


def _ids(cases):
    return [cls.__name__ for cls, *_ in cases]


@pytest.mark.parametrize("cls, kwargs, text, _", RECORDS, ids=_ids(RECORDS))
def test_repr_names_every_field_in_order(cls, kwargs, text, _):
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, kwargs, _, __", RECORDS, ids=_ids(RECORDS))
def test_positional_and_keyword_construction_agree(cls, kwargs, _, __):
    assert cls(*kwargs.values()) == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, _, __", FROZEN, ids=_ids(FROZEN))
def test_equal_values_are_equal_and_hash_alike(cls, kwargs, _, __):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kwargs, _, __", RECORDS, ids=_ids(RECORDS))
def test_another_class_with_the_same_values_is_not_equal(cls, kwargs, _, __):
    twin = type("Twin", (cls,), {})
    assert cls(**kwargs) != twin(**kwargs)
    assert twin(**kwargs) != cls(**kwargs)
    assert cls(**kwargs) != tuple(kwargs.values())


def test_configs_with_the_same_moduli_are_not_equal():
    assert AsciiSumConfig((31, 33)) != Md5Config((31, 33))


@pytest.mark.parametrize("cls, kwargs, _, field", FROZEN, ids=_ids(FROZEN))
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, _, field):
    record = cls(**kwargs)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == cls(**kwargs)


@pytest.mark.parametrize("cls, kwargs, _, __", RECORDS, ids=_ids(RECORDS))
def test_pickle_and_deepcopy_round_trip(cls, kwargs, _, __):
    record = cls(**kwargs)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is cls and again == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record


def test_defaults():
    assert LetterConfig() == LetterConfig(levels=6)
    assert AsciiSumConfig() == AsciiSumConfig(level_moduli=(31, 33))
    assert Md5Config() == Md5Config(level_moduli=(64, 64, 128))
    assert Histogram([1, 2], 3) == Histogram(counts=[1, 2], total=3, skipped=0)
    assert CorpusSpec("uniform", 10, 7) == CorpusSpec("uniform", 10, 7, min_len=3, max_len=12)


def test_moduli_become_tuples():
    assert AsciiSumConfig([5, 6]).level_moduli == (5, 6)
    assert Md5Config(level_moduli=[16, 32]).level_moduli == (16, 32)
    assert AsciiSumConfig([5, 6]) == AsciiSumConfig((5, 6))


def test_properties():
    assert Placement(((1, 2), (0, 3))).depth == 2
    assert LetterConfig(4).level_moduli == (37, 37, 37, 37)
    assert Histogram([1, 0, 2], 3).bucket_count == 3
    path = StoragePath("/nas/", ("18",), Username("frank"))
    assert path.render() == str(path) == "/nas/18/frank"


@pytest.mark.parametrize("build, message", [
    (lambda: Placement(((0, 0),)), "modulus 0 must be positive"),
    (lambda: Placement(((2, 2),)), "bucket 2 outside 0..1"),
    (lambda: Placement(((-1, 3),)), "bucket -1 outside 0..2"),
    (lambda: LetterConfig(0), "levels must be in 1..6, got 0"),
    (lambda: LetterConfig(levels=7), "levels must be in 1..6, got 7"),
    (lambda: AsciiSumConfig(()), "level_moduli must not be empty"),
    (lambda: AsciiSumConfig((3, 0)), "modulus 0 must be positive"),
    (lambda: MappingConfig(0, 1), "bucket_size must be >= 1, got 0"),
    (lambda: MappingConfig(bucket_size=1, num_servers=-2), "num_servers must be >= 1, got -2"),
    (lambda: Md5Config(()), "level_moduli must not be empty"),
    (lambda: Md5Config((2,) * 17), "a digest has 32 hex characters: at most 16 levels"),
    (lambda: Md5Config((1,)), "modulus 1 outside 2..256"),
    (lambda: Md5Config((64, 257)), "modulus 257 outside 2..256"),
    (lambda: Histogram([1, 2], 4), "total does not match sum of counts"),
    (lambda: CorpusSpec("zipf", 1, 0), "model must be one of ('uniform', 'name_like'), got 'zipf'"),
    (lambda: CorpusSpec("uniform", 0, 0), "count must be >= 1, got 0"),
    (lambda: CorpusSpec("uniform", 1, 0, min_len=5, max_len=4),
     "need 1 <= min_len <= max_len <= 64, got 5..4"),
    (lambda: CorpusSpec("uniform", 1, 0, max_len=65),
     "need 1 <= min_len <= max_len <= 64, got 3..65"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def test_histogram_is_mutable_and_unhashable():
    h = Histogram([1, 2], 3)
    h.counts[0] += 1
    h.total = 4
    h.skipped = 5
    assert h == Histogram([2, 2], 4, 5)
    with pytest.raises(TypeError):
        hash(h)
    with pytest.raises(AttributeError):
        h.extra = 1
    clone = copy.deepcopy(h)
    clone.counts[0] = 0
    assert h.counts == [2, 2]


@pytest.mark.parametrize("cls, kwargs, _, __", FROZEN, ids=_ids(FROZEN))
def test_an_unknown_attribute_cannot_be_set(cls, kwargs, _, __):
    with pytest.raises(AttributeError):
        cls(**kwargs).extra = 1
