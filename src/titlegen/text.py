"""Tokenization and vocabulary management.

Every other module works on token sequences produced here. Two kinds of
sequence circulate: surface token strings (metrics, ranking, retrieval)
and integer ids under a :class:`Vocabulary` (the generator side).
"""

from __future__ import annotations

from typing import Iterable, Sequence

START = "<s>"
END = "</s>"
PAD = "[PAD]"
NEXT = "[NEXT]"
UNK = "[UNK]"

#: Reserved markers in their fixed serialization order.
RESERVED = (START, END, PAD, NEXT, UNK)
_RESERVED_SET = frozenset(RESERVED)

START_ID, END_ID, PAD_ID, NEXT_ID, UNK_ID = range(len(RESERVED))

#: The most whitespace chunks the tokenizer memo holds before it starts
#: afresh. Code and titles repeat their chunks heavily: a benchmark train
#: split of ~200k chunks holds ~7.2k distinct ones, ~184 bytes an entry.
_CHUNKS_KEPT = 1 << 15

#: Raw whitespace chunk -> its tokens, shared by every call in a process.
_chunks: dict[str, tuple[str, ...]] = {}


def _split_chunk(chunk: str) -> tuple[str, ...]:
    if chunk in _RESERVED_SET:
        return (chunk,)
    tokens: list[str] = []
    run: list[str] = []
    for ch in chunk.lower():
        if ch.isalnum():
            run.append(ch)
        else:
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
    if run:
        tokens.append("".join(run))
    return tuple(tokens)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word and punctuation tokens.

    Whitespace separates chunks; inside a chunk, every character that is
    not alphanumeric becomes its own token. A chunk that exactly matches
    a reserved marker is kept as a single token, case intact, so markers
    survive round trips through ``detokenize``.

    Each distinct chunk is split once per process and its tokens kept in
    a bounded memo; every call returns a new list.
    """
    tokens: list[str] = []
    memo = _chunks
    for chunk in text.split():
        split = memo.get(chunk)
        if split is None:
            if len(memo) >= _CHUNKS_KEPT:
                memo.clear()
            split = memo[chunk] = _split_chunk(chunk)
        tokens += split
    return tokens


def detokenize(tokens: Iterable[str]) -> str:
    return " ".join(tokens)


def strip_markers(tokens: Iterable[str]) -> list[str]:
    """Drop reserved markers; padding must never affect scores or counts."""
    return [t for t in tokens if t not in _RESERVED_SET]


class Vocabulary:
    """Bijective token/id mapping with the five reserved markers first.

    Immutable once built: grow it only during a dedicated build pass
    (``encode(..., grow=True)`` or ``add``), then treat it as read-only.
    """

    def __init__(self, tokens: Sequence[str] | None = None):
        toks = list(tokens) if tokens is not None else list(RESERVED)
        if tuple(toks[: len(RESERVED)]) != RESERVED:
            raise ValueError(f"vocabulary must start with the reserved markers {RESERVED}")
        self._tokens: list[str] = toks
        self._index: dict[str, int] = {t: i for i, t in enumerate(toks)}
        if len(self._index) != len(toks):
            raise ValueError("vocabulary tokens must be distinct")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._tokens == other._tokens

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def id(self, token: str) -> int:
        """Id of ``token``, or the UNK id when unknown."""
        return self._index.get(token, UNK_ID)

    def add(self, token: str) -> int:
        """Add ``token`` if absent; return its id either way."""
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._tokens.append(token)
            self._index[token] = idx
        return idx

    def encode(self, tokens: Iterable[str], grow: bool = False) -> list[int]:
        """Map tokens to ids; unknown tokens become UNK unless ``grow``."""
        if grow:
            return [self.add(t) for t in tokens]
        return [self.id(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self._tokens[i] for i in ids]
