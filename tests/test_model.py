"""Alphabet, validation, and placement plumbing."""

import pytest
from hypothesis import given, strategies as st

from shardbench import model
from shardbench.errors import EmptyName, InvalidCharacter, TooLong
from shardbench.model import (
    ALPHABET,
    MAX_USERNAME_LENGTH,
    Placement,
    Username,
    char_index,
    normalize_username,
)

usernames = st.text(alphabet=ALPHABET, min_size=1, max_size=MAX_USERNAME_LENGTH)


def test_alphabet_has_37_symbols_in_stated_order():
    assert len(ALPHABET) == 37
    assert ALPHABET == "0123456789abcdefghijklmnopqrstuvwxyz_"


def test_char_index_anchors():
    assert char_index("0") == 0
    assert char_index("9") == 9
    assert char_index("a") == 10
    assert char_index("f") == 15
    assert char_index("z") == 35
    assert char_index("_") == 36


def test_char_index_is_strictly_monotone_and_injective():
    indices = [char_index(c) for c in ALPHABET]
    assert indices == list(range(37))
    assert len(set(indices)) == 37


def test_char_index_round_trip():
    for c in ALPHABET:
        assert ALPHABET[char_index(c)] == c


def test_char_index_rejects_unknown():
    with pytest.raises(InvalidCharacter):
        char_index("!")


def test_normalize_folds_case():
    assert normalize_username("Frankie") == "frankie"
    assert isinstance(normalize_username("Frankie"), Username)


def test_normalize_passes_valid_names_through():
    assert normalize_username("bob") == "bob"


def test_normalize_trims_whitespace():
    assert normalize_username("  bob\n") == "bob"


def test_normalize_rejects_inner_space_with_position():
    with pytest.raises(InvalidCharacter) as excinfo:
        normalize_username("na me")
    assert excinfo.value.char == " "
    assert excinfo.value.position == 2


def test_normalize_rejects_rather_than_strips():
    with pytest.raises(InvalidCharacter):
        normalize_username("bob!")


def test_normalize_empty_and_whitespace_only():
    with pytest.raises(EmptyName):
        normalize_username("")
    with pytest.raises(EmptyName):
        normalize_username("   \t ")


def _fold_per_character(text: str) -> str:
    """The per-character A-Z fold normalize_username() used before its translate table."""
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in text)


# "É", "İ", the Kelvin sign and "ß" fold (or change length) under str.lower():
# an A-Z fold must leave every one of them as it is.
_NEAR_ASCII = "ÉİKß\u212aéAZaz@[`{"


@given(st.text(min_size=0, max_size=40) | st.text(alphabet=_NEAR_ASCII, max_size=40))
def test_the_fold_table_matches_the_per_character_fold(text):
    assert text.translate(model._ASCII_FOLD) == _fold_per_character(text)


@pytest.mark.parametrize("char", ["É", "İ", "\u212a", "ß"])
def test_normalize_rejects_a_non_ascii_capital_unfolded(char):
    assert model._ASCII_FOLD.get(ord(char)) is None
    with pytest.raises(InvalidCharacter) as excinfo:
        normalize_username("Ab" + char)
    assert (excinfo.value.char, excinfo.value.position) == (char, 2)


def test_username_length_cap():
    Username("a" * MAX_USERNAME_LENGTH)
    with pytest.raises(TooLong):
        Username("a" * (MAX_USERNAME_LENGTH + 1))


def test_username_rejects_uppercase():
    with pytest.raises(InvalidCharacter):
        Username("Bob")


@given(usernames)
def test_normalize_is_idempotent(name):
    once = normalize_username(name)
    assert normalize_username(once) == once


@given(st.text(min_size=1, max_size=80))
def test_normalize_never_emits_invalid_names(raw):
    try:
        name = normalize_username(raw)
    except (EmptyName, InvalidCharacter, TooLong):
        return
    assert 1 <= len(name) <= MAX_USERNAME_LENGTH
    assert all(c in ALPHABET for c in name)


def test_placement_validates_levels():
    Placement(((0, 1), (36, 37)))
    with pytest.raises(ValueError):
        Placement(((5, 5),))
    with pytest.raises(ValueError):
        Placement(((-1, 5),))
    with pytest.raises(ValueError):
        Placement(((0, 0),))


def test_placement_accessors():
    p = Placement(((3, 10), (7, 20)))
    assert p.depth == 2
    assert p.levels[0][0] == 3
    assert p.levels[1][1] == 20


def _walk(value):
    """Username's character walk, the check every name took before the regex fast path."""
    if not value:
        raise EmptyName("username is empty")
    if len(value) > MAX_USERNAME_LENGTH:
        raise TooLong(f"username has {len(value)} characters, max {MAX_USERNAME_LENGTH}")
    for position, char in enumerate(value):
        if char not in ALPHABET:
            raise InvalidCharacter(char, position)
    return value


def _outcome(check, value):
    try:
        return "ok", check(value)
    except (EmptyName, InvalidCharacter, TooLong) as exc:
        return type(exc), str(exc)


_FILL = "a" * 63  # a bad character at position 63 makes 64 in all


@pytest.mark.parametrize("value", [
    "",
    "a" * (MAX_USERNAME_LENGTH + 1),
    "!" + _FILL,
    "abc!" + "d" * 60,
    _FILL + "!",
    "Bob",
    "bob\n",
    "١",
    "user١٢",
    "a" * MAX_USERNAME_LENGTH,
    "user_0042",
])
def test_username_fast_path_agrees_with_the_walk(value):
    assert _outcome(Username, value) == _outcome(_walk, value)


@given(st.text(alphabet=ALPHABET + "AZ \n\t!١é", max_size=MAX_USERNAME_LENGTH + 2))
def test_username_accepts_and_rejects_exactly_as_the_walk(value):
    assert _outcome(Username, value) == _outcome(_walk, value)
