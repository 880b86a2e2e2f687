"""Candidate selection: pick K high-quality, mutually diverse titles
from a pool of M sampled candidates.

The initial pick is the candidate most consistent with the pool's
consensus phrasing (highest mean global bigram frequency). Every later
pick greedily maximizes summed negative relevance to the already-chosen
set, i.e. maximal marginal distance.

Each pool is interned once into integer n-gram count arrays, and both
stages are array operations over them. Every count, dot product and
squared norm is an integer held exactly in float64, so the scores are
exact: they equal the per-pair definitions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .decode import CandidatePool
from .text import strip_markers

#: Two marginal-distance sums closer than this are treated as tied and
#: resolved by consistency score, then pool index. Absorbs float noise
#: in summed cosines so mathematically equal margins cannot split.
MARGIN_EPS = 1e-9


@dataclass(frozen=True)
class RankingConfig:
    k: int = 3
    dedup: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class RankedSelection:
    """Selected pool indices in pick order, with per-step diagnostics.

    ``marginals[i]`` is the summed negative relevance of pick ``i+1``
    to the picks before it.
    """

    indices: list[int]
    initial_consistency: float
    marginals: list[float] = field(default_factory=list)


def _candidates(pool: CandidatePool | Sequence[Sequence[str]]) -> Sequence[Sequence[str]]:
    cands = pool.candidates if isinstance(pool, CandidatePool) else pool
    if not cands:
        raise ValueError("empty candidate pool")
    return cands


class _Counts:
    """One n-gram order's counts over a pool's distinct candidates, as a
    CSR triple sorted by (row, gram): ``row``, ``col`` (gram id) and
    ``count``, with each row's ``total``, squared norm ``sq`` and
    ``norm``.

    Counts are integers held in float64, and so is every sum of their
    products taken here: each stays far below 2**53, so it is exact in
    any summation order.
    """

    def __init__(self, rows: np.ndarray, keys: np.ndarray, n: int):
        grams, col = np.unique(keys, return_inverse=True)
        self.size = len(grams)
        pairs, count = np.unique(rows * self.size + col, return_counts=True)
        # size is 0 when no row holds a gram of this order.
        self.row, self.col = np.divmod(pairs, max(self.size, 1))
        self.count = count.astype(np.float64)
        self.total = np.bincount(self.row, weights=self.count, minlength=n)
        self.sq = np.bincount(self.row, weights=self.count * self.count, minlength=n)
        self.norm = np.sqrt(self.sq)
        self.bounds = np.searchsorted(self.row, np.arange(n + 1))

    def cosines(self, q: int) -> np.ndarray:
        """Cosine of every row's bag with row ``q``'s, in [0, 1]; 0 where
        either bag is empty, exactly 1 where the bags are equal."""
        lo, hi = self.bounds[q], self.bounds[q + 1]
        pick = np.zeros(self.size)
        pick[self.col[lo:hi]] = self.count[lo:hi]
        dot = np.bincount(self.row, weights=self.count * pick[self.col], minlength=len(self.sq))
        denom = self.norm * self.norm[q]
        both = denom > 0.0
        cos = np.zeros(len(self.sq))
        np.divide(dot, denom, out=cos, where=both)
        # dot >= 0, so only the upper clip can bite.
        np.minimum(cos, 1.0, out=cos)
        # ||a - b||^2 = |a|^2 + |b|^2 - 2 a.b is 0 exactly when a == b.
        cos[both & (2.0 * dot == self.sq + self.sq[q])] = 1.0
        return cos


class _Pool:
    """A pool interned once into integer n-gram count arrays.

    Exact duplicates share one row: ``row[i]`` is candidate ``i``'s row,
    and ``multiplicity[r]`` counts the candidates on row ``r``. Each
    row's tokens, reserved markers stripped, become small ints; a bigram
    is the key ``prev * U + next`` over the pool's ``U`` distinct tokens.
    """

    def __init__(self, candidates: Sequence[Sequence[str]]):
        index: dict[tuple[str, ...], int] = {}
        self.row = np.array([index.setdefault(tuple(c), len(index)) for c in candidates])
        n = len(index)
        vocab: dict[str, int] = {}
        ids: list[int] = []
        lengths = []
        for cand in index:
            toks = strip_markers(cand)
            ids.extend([vocab.setdefault(t, len(vocab)) for t in toks])
            lengths.append(len(toks))
        tok = np.array(ids, dtype=np.int64)
        owner = np.repeat(np.arange(n), lengths)
        inner = owner[1:] == owner[:-1]
        self.unigrams = _Counts(owner, tok, n)
        self.bigrams = _Counts(owner[1:][inner], tok[:-1][inner] * len(vocab) + tok[1:][inner], n)
        self.multiplicity = np.bincount(self.row, minlength=n).astype(np.float64)

    def consistency(self) -> np.ndarray:
        """Each row's consistency: the mean global frequency of its own
        bigram occurrences.

        The global table aggregates bigram multisets across the whole pool,
        duplicates included: repeated phrasing is exactly the consensus
        signal being measured. Rows too short for bigrams fall back to the
        same construction over unigrams; empty rows score 0.
        """
        n = len(self.multiplicity)
        scores = np.zeros(n)
        # Bigrams go last, so they overwrite the unigram fallback.
        for grams in (self.unigrams, self.bigrams):
            pooled = grams.count * self.multiplicity[grams.row]
            table = np.bincount(grams.col, weights=pooled, minlength=grams.size)
            own = np.bincount(grams.row, weights=table[grams.col] * grams.count, minlength=n)
            np.divide(own, grams.total, out=scores, where=grams.total > 0.0)
        return scores

    def relevance(self, q: int) -> np.ndarray:
        """:func:`relevance` of every row to row ``q``."""
        unigram = self.unigrams.cosines(q)
        if self.bigrams.total[q] == 0.0:
            return unigram
        return np.where(self.bigrams.total > 0.0, self.bigrams.cosines(q), unigram)


def relevance(a: Sequence[str], b: Sequence[str]) -> float:
    """Cosine similarity of bag-of-bigram count vectors, in [0, 1].

    Falls back to unigram bags when either side has no bigrams; returns
    0 when a side is empty even then.
    """
    arrays = _Pool([a, b])
    return float(arrays.relevance(arrays.row[1])[arrays.row[0]])


def maximal_marginal_select(
    pool: CandidatePool | Sequence[Sequence[str]], config: RankingConfig
) -> RankedSelection:
    """Greedy diverse selection seeded by the consistency argmax.

    With ``dedup`` on, only the first occurrence of each exact duplicate
    stays eligible (consistency is still scored over the full pool).
    Returned indices point into the original pool. The pool is interned
    into count arrays once, for the consistency scores and every
    relevance.
    """
    arrays = _Pool(_candidates(pool))
    scores = arrays.consistency()[arrays.row]
    if config.dedup:
        remaining = np.zeros(len(scores), dtype=bool)
        remaining[np.unique(arrays.row, return_index=True)[1]] = True
    else:
        remaining = np.ones(len(scores), dtype=bool)

    def best_scored(eligible: np.ndarray) -> int:
        # argmax keeps the first, i.e. lowest-index, of tied scores.
        return int(eligible[np.argmax(scores[eligible])])

    pick = best_scored(np.flatnonzero(remaining))
    selected = [pick]
    # Running sum of -relevance(candidate, chosen), accumulated in pick
    # order so ties resolve identically however the pool is traversed.
    margins = np.zeros(len(scores))
    marginals: list[float] = []
    remaining[pick] = False
    while len(selected) < config.k and remaining.any():
        margins -= arrays.relevance(arrays.row[pick])[arrays.row]
        best = margins[remaining].max()
        pick = best_scored(np.flatnonzero(remaining & (margins >= best - MARGIN_EPS)))
        marginals.append(float(margins[pick]))
        selected.append(pick)
        remaining[pick] = False
    return RankedSelection(
        indices=selected, initial_consistency=float(scores[selected[0]]), marginals=marginals
    )


def mean_pairwise_relevance(titles: Sequence[Sequence[str]]) -> float:
    """Average relevance over unordered pairs; 0 for fewer than 2 items.

    The diversity diagnostic: lower means a more varied selection.
    """
    n = len(titles)
    if n < 2:
        return 0.0
    arrays = _Pool(titles)
    total = 0.0
    for i in range(n - 1):
        row = arrays.relevance(arrays.row[i])[arrays.row].tolist()
        for j in range(i + 1, n):
            total += row[j]
    return total / (n * (n - 1) / 2)
