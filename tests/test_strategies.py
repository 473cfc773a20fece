"""Placement algorithms: worked values, invariants, and load shape."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shardbench.errors import NothingToSum
from shardbench.model import ALPHABET, Username
from shardbench.strategies import (
    AsciiSumConfig,
    LetterConfig,
    MappingConfig,
    Md5Config,
    ascii_sum,
    ascii_sum_placement,
    counter_placement,
    letter_placement,
    md5_digest,
    md5_placement,
)

usernames = st.text(alphabet=ALPHABET, min_size=1, max_size=64).map(Username)


# --- letter expansion ---------------------------------------------------------

def test_letter_placement_frankie():
    got = letter_placement(Username("frankie"), LetterConfig(3))
    assert got.levels == ((15, 37), (27, 37), (10, 37))


def test_letter_placement_truncates_to_name_length():
    got = letter_placement(Username("b"), LetterConfig(6))
    assert got.levels == ((11, 37),)


def test_letter_placement_first_symbol():
    got = letter_placement(Username("0"), LetterConfig(1))
    assert got.levels == ((0, 37),)


def test_letter_config_bounds():
    with pytest.raises(ValueError):
        LetterConfig(0)
    with pytest.raises(ValueError):
        LetterConfig(7)


@given(usernames, st.integers(min_value=1, max_value=6))
def test_letter_placement_depth_and_range(name, levels):
    placement = letter_placement(name, LetterConfig(levels))
    assert placement.depth == min(levels, len(name))
    for bucket, modulus in placement.levels:
        assert modulus == 37
        assert 0 <= bucket < 37


# --- ascii sum ------------------------------------------------------------------

def test_ascii_sum_bob():
    assert ascii_sum(Username("bob"), 0) == 307


def test_ascii_sum_bob_after_drop():
    assert ascii_sum(Username("bob"), 1) == 209


def test_ascii_sum_single_character():
    assert ascii_sum(Username("a"), 0) == 97


def test_ascii_sum_rejects_excessive_drop():
    with pytest.raises(NothingToSum):
        ascii_sum(Username("bob"), 3)


def test_ascii_sum_placement_bob():
    got = ascii_sum_placement(Username("bob"), AsciiSumConfig((31, 33)))
    assert got.levels == ((28, 31), (11, 33))


def test_ascii_sum_placement_truncates_short_names():
    got = ascii_sum_placement(Username("a"), AsciiSumConfig((31, 33)))
    assert got.levels == ((4, 31),)


def test_ascii_sum_placement_modulus_one():
    got = ascii_sum_placement(Username("bob"), AsciiSumConfig((1,)))
    assert got.levels == ((0, 1),)


def test_ascii_sum_config_rejects_bad_moduli():
    with pytest.raises(ValueError):
        AsciiSumConfig(())
    with pytest.raises(ValueError):
        AsciiSumConfig((31, 0))


@given(usernames)
def test_ascii_sum_is_permutation_invariant(name):
    # Commutativity of addition: reordering characters never moves level 0.
    shuffled = Username("".join(sorted(name)))
    assert ascii_sum(name, 0) == ascii_sum(shuffled, 0)


@given(usernames, st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=5))
def test_ascii_sum_placement_range(name, moduli):
    placement = ascii_sum_placement(name, AsciiSumConfig(tuple(moduli)))
    assert placement.depth == min(len(name), len(moduli))
    for k, (bucket, modulus) in enumerate(placement.levels):
        assert modulus == moduli[k]
        assert 0 <= bucket < modulus


# --- counter mapping -------------------------------------------------------------

def test_counter_placement_overflow_member():
    assert counter_placement(1_000_001, MappingConfig(50_000, 20)) == (20, 0)


def test_counter_placement_first_member():
    assert counter_placement(1, MappingConfig(10_000, 20)) == (0, 0)


def test_counter_placement_bucket_boundary_member():
    assert counter_placement(1_049_999, MappingConfig(10_000, 20)) == (104, 4)


def test_mapping_has_one_level_of_server_loads():
    assert MappingConfig(10, 7).level_moduli == (7,)


def test_counter_placement_rejects_zero():
    with pytest.raises(ValueError):
        counter_placement(0, MappingConfig(10, 2))


@given(st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=8))
def test_counter_placement_shape(member_id, bucket_size, servers):
    bucket, server = counter_placement(member_id, MappingConfig(bucket_size, servers))
    assert bucket == (member_id - 1) // bucket_size
    assert server == bucket % servers
    # all IDs of one bucket share a server
    first_id = bucket * bucket_size + 1
    assert counter_placement(first_id, MappingConfig(bucket_size, servers))[1] == server


def _server_loads(n, bucket_size, servers):
    loads = Counter()
    for member_id in range(1, n + 1):
        _, server = counter_placement(member_id, MappingConfig(bucket_size, servers))
        loads[server] += 1
    return [loads.get(s, 0) for s in range(servers)]


@given(st.integers(min_value=2, max_value=20),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=400))
@settings(max_examples=50, deadline=None)
def test_counter_load_gap_never_exceeds_bucket_size(bucket_size, servers, n):
    loads = _server_loads(n, bucket_size, servers)
    assert max(loads) - min(loads) <= bucket_size


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_counter_load_gap_hits_maximum_at_wrap_boundaries(bucket_size, servers, k):
    # One member short of starting a new round-robin cycle: the first server
    # carries k+1 buckets with the last one member shy, the rest carry k.
    n = (servers * k + 1) * bucket_size - 1
    loads = _server_loads(n, bucket_size, servers)
    assert max(loads) - min(loads) == bucket_size - 1


# --- md5 -----------------------------------------------------------------------

def test_md5_placement_of_frank_reads_its_digest_bytes():
    # md5("frank\n") is d268c8fe...: hex pairs d2, 68, c8 are 210, 104, 200.
    got = md5_placement(Username("frank"), Md5Config((256, 256, 256)))
    assert got.levels == ((210, 256), (104, 256), (200, 256))


def test_md5_placement_frank_default():
    got = md5_placement(Username("frank"), Md5Config((64, 64, 128)))
    assert got.levels == ((18, 64), (40, 64), (72, 128))


def test_md5_placement_identity_modulus():
    got = md5_placement(Username("frank"), Md5Config((256,)))
    assert got.levels == ((210, 256),)


def test_md5_placement_single_hex_char_worth():
    got = md5_placement(Username("frank"), Md5Config((16,)))
    assert got.levels == ((2, 16),)


def test_md5_config_bounds():
    with pytest.raises(ValueError):
        Md5Config(())
    with pytest.raises(ValueError):
        Md5Config((1,))
    with pytest.raises(ValueError):
        Md5Config((257,))
    with pytest.raises(ValueError):
        Md5Config((64,) * 17)


@given(usernames, st.lists(st.integers(2, 256), min_size=1, max_size=16))
def test_md5_placement_is_the_hex_pair_mod_the_modulus(name, moduli):
    # The paper's rule: level k takes hex characters (2k, 2k+1) of the digest.
    digest = md5_digest(name)
    want = tuple((int(digest[2 * k:2 * k + 2], 16) % m, m) for k, m in enumerate(moduli))
    assert md5_placement(name, Md5Config(tuple(moduli))).levels == want


@given(usernames)
def test_md5_placement_deterministic_and_in_range(name):
    cfg = Md5Config((64, 64, 128))
    first = md5_placement(name, cfg)
    assert first == md5_placement(name, cfg)
    for (bucket, modulus), want in zip(first.levels, (64, 64, 128)):
        assert modulus == want
        assert 0 <= bucket < modulus
