"""The four placement algorithms: letter, ascii-sum, counter mapping, md5."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import NothingToSum
from .model import ALPHABET, Placement, Username, _Record, char_index

try:  # CPython's built-in MD5 skips OpenSSL's per-call set-up
    from _md5 import md5 as _md5
except ImportError:
    from hashlib import md5 as _md5

# A strategy's placement as the scan kernel computes it, from the bytes `b`
# of a name ending in the corpus reader's line terminator (see
# scan._build_loop). `prelude` runs once per name; `{end}` in it is the sum
# of the terminator's bytes, and `md5` is _md5, so a name is hashed with its
# terminator, as md5_digest() hashes it. Level k's term of the joint index
# reads `operand` with `{k}` filled in, and `{drop}` as " - b[0] - ... -
# b[k-1]". With a `table`, the term is a 256-entry lookup over the operand
# holding table(byte, m_k); without one, it is operand % m_k. Either way it
# is multiplied by the product of the deeper levels' moduli. A `truncates`
# rule places a name of n characters at no more than n levels, as the
# per-name placement does.
class IndexRule(NamedTuple):
    """How the scan kernel indexes a name's bytes for one strategy."""

    operand: str
    table: Callable[[int, int], int] | None = None
    prelude: str = ""
    truncates: bool = True


class LetterConfig(_Record):
    """Letter expansion: one directory level per leading character, up to six."""

    __slots__ = ("levels",)
    index_rule = IndexRule("b[{k}]", lambda byte, m: ALPHABET.find(chr(byte)))

    def __init__(self, levels: int = 6) -> None:
        if not 1 <= levels <= 6:
            raise ValueError(f"levels must be in 1..6, got {levels}")
        self._fill(levels)

    @property
    def level_moduli(self) -> tuple[int, ...]:
        return (37,) * self.levels


class AsciiSumConfig(_Record):
    """ASCII-sum modulo: level k sums bytes after dropping the first k characters."""

    __slots__ = ("level_moduli",)
    index_rule = IndexRule("(t{drop})", prelude="t = sum(b) - {end}")

    def __init__(self, level_moduli: tuple[int, ...] = (31, 33)) -> None:
        if not level_moduli:
            raise ValueError("level_moduli must not be empty")
        # Modulus 1 is degenerate (every name lands in bucket 0) but legal.
        for m in level_moduli:
            if m < 1:
                raise ValueError(f"modulus {m} must be positive")
        self._fill(tuple(level_moduli))


class MappingConfig(_Record):
    """Counter mapping: fixed-size buckets of sequential IDs, round-robin to servers."""

    __slots__ = ("bucket_size", "num_servers")

    def __init__(self, bucket_size: int, num_servers: int) -> None:
        if bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {bucket_size}")
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        self._fill(bucket_size, num_servers)


class Md5Config(_Record):
    """Multi-level MD5: level k consumes the hex pair at positions (2k, 2k+1)."""

    __slots__ = ("level_moduli",)
    index_rule = IndexRule("d[{k}]", lambda byte, m: byte % m,
                           prelude="d = md5(b).digest()", truncates=False)

    def __init__(self, level_moduli: tuple[int, ...] = (64, 64, 128)) -> None:
        if not level_moduli:
            raise ValueError("level_moduli must not be empty")
        if len(level_moduli) > 16:
            raise ValueError("a digest has 32 hex characters: at most 16 levels")
        # A hex pair spans 0..255, so a modulus above 256 can never fill.
        for m in level_moduli:
            if not 2 <= m <= 256:
                raise ValueError(f"modulus {m} outside 2..256")
        self._fill(tuple(level_moduli))


def letter_placement(u: Username, cfg: LetterConfig = LetterConfig()) -> Placement:
    """Bucket by successive characters; depth truncates to the name length."""
    depth = min(cfg.levels, len(u))
    return Placement(tuple((char_index(c), 37) for c in u[:depth]))


def ascii_sum(u: Username, drop: int = 0) -> int:
    """Sum the byte values of the characters at positions drop..len(u)."""
    if drop >= len(u):
        raise NothingToSum(f"drop {drop} leaves no characters of {len(u)}")
    return sum(u.encode("ascii")[drop:])


def ascii_sum_placement(u: Username, cfg: AsciiSumConfig = AsciiSumConfig()) -> Placement:
    """Level k buckets ascii_sum(u, k) mod level_moduli[k].

    Depth is min(len(u), len(level_moduli)) so every level sums at least
    one character; short names truncate rather than summing nothing.
    """
    depth = min(len(u), len(cfg.level_moduli))
    return Placement(
        tuple(
            (ascii_sum(u, k) % cfg.level_moduli[k], cfg.level_moduli[k])
            for k in range(depth)
        )
    )


def counter_placement(member_id: int, cfg: MappingConfig) -> tuple[int, int]:
    """Map a 1-based counter ID to (bucket, server).

    Bucket b holds IDs b*S+1 ..= (b+1)*S; consecutive buckets round-robin
    across servers, so within one bucket every ID shares a server.
    """
    if member_id < 1:
        raise ValueError(f"member_id must be >= 1, got {member_id}")
    bucket = (member_id - 1) // cfg.bucket_size
    return bucket, bucket % cfg.num_servers


def md5_digest(u: Username) -> str:
    """MD5 of the newline-terminated name, as 32 lowercase hex characters.

    The trailing newline matches `echo name | md5sum` output, the form the
    worked placement examples are pinned to; md5_hex() digests raw bytes.
    """
    return _md5(u.encode("ascii") + b"\n").hexdigest()


def md5_hex(data: bytes) -> str:
    """The digest core: MD5 of exactly the given bytes."""
    return _md5(data).hexdigest()


def md5_placement(u: Username, cfg: Md5Config = Md5Config()) -> Placement:
    """Bucket level k by digest byte k mod the level's modulus.

    Digest byte k is the hex pair at positions (2k, 2k+1) of md5_digest(u),
    read as one 0..255 integer.
    """
    digest = _md5(u.encode("ascii") + b"\n").digest()
    return Placement(tuple((digest[k] % m, m) for k, m in enumerate(cfg.level_moduli)))
