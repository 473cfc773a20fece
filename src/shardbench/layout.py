"""Storage paths from placements, and directory fan-out validation."""

from __future__ import annotations

import math
import os
from typing import Sequence

from .model import Username, _Record
from .strategies import LetterConfig, Md5Config, md5_placement

DEFAULT_FANOUT_LIMIT = 64_000


class StoragePath(_Record):
    """Root-relative directory chain ending in the username itself.

    Terminating every path with the full username is what makes placement
    one-to-one: two names can share every bucket yet never a leaf.
    """

    __slots__ = ("root", "segments", "leaf")

    def __init__(self, root: str, segments: tuple[str, ...], leaf: Username) -> None:
        self._fill(root, segments, leaf)

    def render(self) -> str:
        parts = [self.root.rstrip("/")] if self.root else [""]
        parts.extend(self.segments)
        parts.append(self.leaf)
        return "/".join(parts)

    def __str__(self) -> str:
        return self.render()


class FanoutReport(_Record):
    """Per-level child counts checked against a per-directory limit."""

    __slots__ = ("per_level_dirs", "dirs_under_one_top", "total_leaf_buckets", "limit", "ok")

    def __init__(self, per_level_dirs: tuple[int, ...], dirs_under_one_top: int,
                 total_leaf_buckets: int, limit: int, ok: bool) -> None:
        self._fill(per_level_dirs, dirs_under_one_top, total_leaf_buckets, limit, ok)


def letter_path(u: Username, root: str, max_depth: int = 6) -> StoragePath:
    """One directory per leading character, then the username as leaf."""
    depth = min(max_depth, len(u))
    return StoragePath(root, tuple(u[:depth]), u)


def md5_path(u: Username, cfg: Md5Config, root: str) -> StoragePath:
    """Bucket indices as decimal directory names, then the username as leaf."""
    placement = md5_placement(u, cfg)
    return StoragePath(root, tuple(str(b) for b, _ in placement.levels), u)


def _moduli_of(cfg) -> tuple[int, ...]:
    if isinstance(cfg, (LetterConfig, Md5Config)):
        return tuple(cfg.level_moduli)
    moduli = tuple(int(m) for m in cfg)
    if not moduli or any(m < 1 for m in moduli):
        raise ValueError("moduli must be a non-empty list of positive integers")
    return moduli


def fanout_report(cfg, limit: int = DEFAULT_FANOUT_LIMIT) -> FanoutReport:
    """Check every level's child count against the per-directory limit.

    Accepts a LetterConfig, an Md5Config, or a raw sequence of moduli (so
    hypothetical layouts beyond what the configs allow can still be vetted).
    The limit is per directory, not global, and must strictly exceed the
    child count: sitting exactly at the limit already fails.
    """
    moduli = _moduli_of(cfg)
    return FanoutReport(
        per_level_dirs=moduli,
        dirs_under_one_top=math.prod(moduli[1:]),
        total_leaf_buckets=math.prod(moduli),
        limit=limit,
        ok=all(m < limit for m in moduli),
    )


def materialize_tree(root: str, moduli: Sequence[int]) -> int:
    """Create the full bucket directory skeleton under root; returns dirs made.

    Callers are expected to gate on fanout_report().ok first; this only
    writes empty directories, never member data.
    """
    created = 0
    prefixes = [root]
    for m in moduli:
        next_prefixes = []
        for prefix in prefixes:
            for bucket in range(m):
                path = os.path.join(prefix, str(bucket))
                os.makedirs(path, exist_ok=True)
                created += 1
                next_prefixes.append(path)
        prefixes = next_prefixes
    return created
