"""Username alphabet, validation, and the shared placement vocabulary."""

from __future__ import annotations

import re

from .errors import EmptyName, InvalidCharacter, TooLong

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz_"
MAX_USERNAME_LENGTH = 64

_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}
# Exactly the strings Username accepts; any other value takes the walk in
# Username.__new__, which finds the reason.
_VALID = re.compile(r"[0-9a-z_]{1,%d}" % MAX_USERNAME_LENGTH)


class Username(str):
    """A validated name: 1..=64 characters, each from the 37-char alphabet.

    Construction validates but does not normalize; use normalize_username()
    to fold case and trim whitespace first.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "Username":
        try:
            valid = _VALID.fullmatch(value)
        except TypeError:  # not a string: the walk treats it as it always has
            valid = None
        if valid is None:
            if not value:
                raise EmptyName("username is empty")
            if len(value) > MAX_USERNAME_LENGTH:
                raise TooLong(f"username has {len(value)} characters, max {MAX_USERNAME_LENGTH}")
            for position, char in enumerate(value):
                if char not in _CHAR_INDEX:
                    raise InvalidCharacter(char, position)
        return super().__new__(cls, value)


def normalize_username(raw: str) -> Username:
    """Trim surrounding whitespace, fold ASCII case, and validate.

    Out-of-alphabet characters are rejected rather than stripped; stripping
    would let distinct raw names collapse to the same Username.
    """
    trimmed = raw.strip()
    if not trimmed:
        raise EmptyName("name is empty after trimming whitespace")
    folded = "".join(
        chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in trimmed
    )
    return Username(folded)


def char_index(c: str) -> int:
    """Map an alphabet character to its index: '0'-'9' to 0-9, 'a'-'z' to 10-35, '_' to 36."""
    try:
        return _CHAR_INDEX[c]
    except KeyError:
        raise InvalidCharacter(c, 0) from None


class _Record:
    """An immutable value: fields are __slots__ set once by __init__, which pickling reruns.
    Equal (and hashed) by field values within one class; repr is `Name(field=value, ...)`."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Placement(_Record):
    """Per-level bucket assignments: one (bucket_index, modulus) pair per level."""

    __slots__ = ("levels",)

    def __init__(self, levels: tuple[tuple[int, int], ...]) -> None:
        for bucket, modulus in levels:
            if modulus < 1:
                raise ValueError(f"modulus {modulus} must be positive")
            if not 0 <= bucket < modulus:
                raise ValueError(f"bucket {bucket} outside 0..{modulus - 1}")
        object.__setattr__(self, "levels", levels)  # not _fill(): oracles build one per name

    @property
    def depth(self) -> int:
        return len(self.levels)
