"""Autoregressive generator contract and a count-based n-gram model.

The decoding and ranking machinery only ever sees :class:`GeneratorModel`,
so any sequence model can be plugged in. The built-in :class:`NGramLM`
is an interpolated (Jelinek-Mercer style) count model: it trains in
milliseconds and is exactly reproducible, which is what the downstream
sampling and ranking experiments need.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Hashable, Sequence

import numpy as np

from .text import END_ID, NEXT_ID, PAD_ID, START_ID, Vocabulary

#: Uniform probability floor added to every vocabulary entry before
#: renormalization. Keeps END reachable from any state.
FLOOR = 1e-6


class GeneratorModel(ABC):
    """Contract every generator must satisfy.

    ``next_distribution`` returns a probability vector over the model's
    vocabulary: entries in [0, 1], sum 1 within 1e-9, and exactly 0
    for PAD and START (neither may ever be generated). Beam search's
    early stop relies on no entry exceeding 1.

    ``state`` names the model state a prefix reaches. For a fixed code,
    prefixes with equal states must get bit-identical distributions;
    sampling computes each state's nucleus once per pool under that key.
    """

    @property
    @abstractmethod
    def vocabulary(self) -> Vocabulary:
        raise NotImplementedError

    @abstractmethod
    def next_distribution(self, code: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        """Distribution over the next token given code and generated prefix.

        ``prefix`` must begin with START.
        """
        raise NotImplementedError

    def state(self, code: Sequence[int], prefix: Sequence[int]) -> Hashable:
        """Hashable key of the state ``prefix`` reaches under ``code``.

        The default, the prefix itself, suits any model whose output is a
        function of (code, prefix). A model that reads only part of the
        history should return a coarser key, so more prefixes share one.
        """
        return tuple(prefix)


class NGramLM(GeneratorModel):
    """Interpolated count n-gram model conditioned by prefix concatenation.

    ``levels[l]`` maps a length-``l`` context tuple to next-token counts,
    for l in 0..order-1. Prediction mixes the levels with ``weights``
    (uniform by default), adds the floor, zeroes PAD and START, and
    renormalizes. Levels whose context was never seen contribute nothing,
    so unseen histories back off toward the unigram mixture.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        levels: list[dict[tuple[int, ...], dict[int, int]]],
        weights: Sequence[float] | None = None,
    ):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if len(levels) != order:
            raise ValueError(f"expected {order} count levels, got {len(levels)}")
        if weights is None:
            weights = [1.0 / order] * order
        weights = [float(w) for w in weights]
        if len(weights) != order or any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative, one per order level")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        seen: set[int] = set()
        for l, table in enumerate(levels):
            for ctx, nexts in table.items():
                if len(ctx) != l:
                    raise ValueError(f"level {l} holds a context of length {len(ctx)}")
                seen.update(ctx)
                seen.update(nexts)
        if seen and (min(seen) < 0 or max(seen) >= len(vocab)):
            bad = min(seen) if min(seen) < 0 else max(seen)
            raise ValueError(f"token id {bad} is outside the vocabulary of {len(vocab)} tokens")
        self.order = order
        self._vocab = vocab
        self.levels = levels
        self.weights = weights
        self._rebuild_cache()

    # -- GeneratorModel --------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, code: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        out = self._base.copy()
        for ctx in self.state(code, prefix):
            entry = self._rows.get(ctx)
            if entry is None:
                entry = self._rows[ctx] = self._sparse_row(ctx)
            ids, vals = entry
            out[ids] += vals
        out[PAD_ID] = 0.0
        out[START_ID] = 0.0
        out /= out.sum()
        return out

    def state(self, code: Sequence[int], prefix: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The suffixes of ``code + [NEXT] + prefix`` the model has a level
        for, shortest first: exactly the rows the distribution adds.

        Every hit is listed, not only the longest: a hand-built model can
        hold a context without its shorter suffixes.
        """
        if not prefix or prefix[0] != START_ID:
            raise ValueError("prefix must begin with START")
        span = self.order - 1
        if len(prefix) >= span:
            tail = tuple(prefix[len(prefix) - span :])
        else:
            tail = (*code, NEXT_ID, *prefix)[-span:]
        return tuple(tail[-l:] for l in range(1, len(tail) + 1) if tail[-l:] in self.levels[l])

    # -- internals -------------------------------------------------------

    def _rebuild_cache(self) -> None:
        # base = floor + weighted level-0 (empty context) distribution;
        # higher levels are scattered on top per call, from sparse rows
        # built on a context's first lookup (one call reads only a few),
        # keyed by the context alone: its length is its level.
        base = np.full(len(self._vocab), FLOOR, dtype=np.float64)
        table0 = self.levels[0].get(())
        if table0:
            total = sum(table0.values())
            for tok, c in table0.items():
                base[tok] += self.weights[0] * c / total
        self._base = base
        self._rows: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def _sparse_row(self, ctx: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        l = len(ctx)
        table = self.levels[l][ctx]
        total = sum(table.values())
        ids = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        vals = np.array([self.weights[l] * c / total for c in table.values()], dtype=np.float64)
        return ids, vals

    # -- serialization ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a self-describing JSON model file (round-trips exactly)."""
        payload = {
            "format": "titlegen-ngram-lm",
            "order": self.order,
            "weights": self.weights,
            "vocabulary": list(self._vocab.tokens),
            "levels": [
                sorted(
                    (list(ctx), sorted(table.items()))
                    for ctx, table in level.items()
                )
                for level in self.levels
            ],
        }
        from .records import write_atomic  # records depends on this module

        text = json.dumps(payload, separators=(",", ":")) + "\n"
        write_atomic(path, lambda fh: fh.write(text))

    @classmethod
    def load(cls, path: str | Path) -> "NGramLM":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != "titlegen-ngram-lm":
            raise ValueError(f"not a model file: {path}")
        levels = [
            {tuple(ctx): {int(t): int(c) for t, c in table} for ctx, table in level}
            for level in payload["levels"]
        ]
        return cls(
            order=payload["order"],
            vocab=Vocabulary(payload["vocabulary"]),
            levels=levels,
            weights=payload["weights"],
        )


def train_ngram_lm(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    order: int,
    vocab: Vocabulary,
    weights: Sequence[float] | None = None,
) -> NGramLM:
    """Count-train an :class:`NGramLM` from (code ids, title ids) pairs.

    Each pair contributes the sequence ``code ++ [NEXT] ++ <s> ++ title
    ++ </s>``; only the title tokens and the closing END act as predicted
    positions, each observed under its preceding contexts of every length
    below ``order`` (contexts may reach back into the code region).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not pairs:
        raise ValueError("empty corpus")
    levels: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
    for code, title in pairs:
        seq = list(code) + [NEXT_ID, START_ID] + list(title) + [END_ID]
        first = len(code) + 2
        for p in range(first, len(seq)):
            tok = seq[p]
            for l in range(order):
                if l > p:
                    break
                ctx = tuple(seq[p - l : p])
                table = levels[l].setdefault(ctx, {})
                table[tok] = table.get(tok, 0) + 1
    return NGramLM(order=order, vocab=vocab, levels=levels, weights=weights)


def next_distribution(
    model: GeneratorModel, code: Sequence[int], prefix: Sequence[int]
) -> np.ndarray:
    """Functional spelling of :meth:`GeneratorModel.next_distribution`."""
    return model.next_distribution(code, prefix)
