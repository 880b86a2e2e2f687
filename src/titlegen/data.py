"""Corpus ingestion: quality filtering, snippet concatenation, and
chronological train/validation/test splitting.

Posts arrive as line-delimited records (see :mod:`titlegen.records`).
Filtering keeps a post only when it is not closed, has an accepted
answer, received at least two votes, and carries at least one code
snippet.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator, Sequence

import numpy as np

from .text import NEXT


@dataclass
class Post:
    id: int
    title: str
    code_snippets: list[str]
    created_at: datetime
    is_closed: bool
    has_accepted_answer: bool
    votes: int
    language: str


@dataclass(frozen=True)
class SplitSpec:
    """Per-language validation/test sizing.

    Languages with at least ``val_count + test_count`` filtered posts
    use the absolute counts; smaller languages fall back to
    ``floor(available * fraction)`` each for validation and test, or
    raise when ``fraction`` is None.
    """

    val_count: int = 5000
    test_count: int = 5000
    fraction: float | None = 0.10

    def __post_init__(self):
        if self.val_count < 0 or self.test_count < 0:
            raise ValueError("split counts must be nonnegative")
        if self.fraction is not None and not 0.0 < self.fraction < 0.5:
            raise ValueError(f"fraction must be in (0, 0.5), got {self.fraction}")

    def resolve(self, language: str, available: int) -> tuple[int, int]:
        """Validation and test counts for one language's pool size."""
        if available >= self.val_count + self.test_count:
            return self.val_count, self.test_count
        if self.fraction is not None:
            share = int(available * self.fraction)
            return share, share
        raise ValueError(
            f"language {language!r}: {available} posts cannot fill "
            f"validation={self.val_count} test={self.test_count}"
        )


def filter_posts(raw: Iterable[Post]) -> Iterator[Post]:
    """Keep posts passing all four quality conditions, order preserved."""
    for post in raw:
        if post.is_closed:
            continue
        if not post.has_accepted_answer:
            continue
        if post.votes < 2:
            continue
        if not post.code_snippets:
            continue
        yield post


def concat_snippets(snippets: Sequence[str]) -> str:
    """Join snippets with the next-snippet marker, whitespace intact."""
    if not snippets:
        raise ValueError("no code snippets to concatenate")
    return f" {NEXT} ".join(snippets)


def _language_rng(seed: int, language: str) -> np.random.Generator:
    # One stream per language so languages can be processed in any order;
    # the seed counts modulo 2**64, as the sampling stages take it.
    key = zlib.crc32(language.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=(key,)))


def chronological_split(
    posts: Sequence[Post], spec: SplitSpec, seed: int
) -> tuple[list[Post], list[Post], list[Post]]:
    """Oldest posts to train; newest randomly split into val and test.

    Within each language, posts are ordered by (created_at, id), the
    newest val+test posts are shuffled with a per-language stream of
    ``seed`` (any integer, taken modulo 2**64) and dealt to validation
    then test, and everything earlier goes to train. Languages are
    emitted in sorted name order. A language whose ``created_at`` values
    mix naive and UTC-offset times cannot be ordered, and raises
    ``ValueError``.
    """
    by_language: dict[str, list[Post]] = {}
    for post in posts:
        by_language.setdefault(post.language, []).append(post)
    train: list[Post] = []
    validation: list[Post] = []
    test: list[Post] = []
    for language in sorted(by_language):
        group = by_language[language]
        if len({p.created_at.utcoffset() is None for p in group}) > 1:
            raise ValueError(
                f"language {language!r}: created_at mixes times with and without a UTC offset"
            )
        group.sort(key=lambda p: (p.created_at, p.id))
        vc, tc = spec.resolve(language, len(group))
        cut = len(group) - (vc + tc)
        train.extend(group[:cut])
        recent = group[cut:]
        order = _language_rng(seed, language).permutation(len(recent))
        validation.extend(recent[i] for i in order[:vc])
        test.extend(recent[i] for i in order[vc : vc + tc])
    return train, validation, test
