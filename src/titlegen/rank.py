"""Candidate selection: pick K high-quality, mutually diverse titles
from a pool of M sampled candidates.

The initial pick is the candidate most consistent with the pool's
consensus phrasing (highest mean global bigram frequency). Every later
pick greedily maximizes summed negative relevance to the already-chosen
set, i.e. maximal marginal distance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .decode import CandidatePool
from .text import extract_ngrams

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


def _candidate_lists(pool: CandidatePool | Sequence[Sequence[str]]) -> list[list[str]]:
    cands = pool.candidates if isinstance(pool, CandidatePool) else pool
    return [list(c) for c in cands]


class _Bags(NamedTuple):
    """A candidate's bigram and unigram bags with their Euclidean norms."""

    bigrams: Counter
    bigram_norm: float
    unigrams: Counter
    unigram_norm: float


def _norm(bag: Counter) -> float:
    return math.sqrt(sum(c * c for c in bag.values()))


def _bags(tokens: Sequence[str]) -> _Bags:
    bigrams, unigrams = extract_ngrams(tokens, 2), extract_ngrams(tokens, 1)
    return _Bags(bigrams, _norm(bigrams), unigrams, _norm(unigrams))


def bigram_consistency_scores(pool: CandidatePool | Sequence[Sequence[str]]) -> list[float]:
    """Mean global frequency of each candidate's own bigram occurrences.

    The global table aggregates bigram multisets across the whole pool,
    duplicates included: repeated phrasing is exactly the consensus
    signal being measured. Candidates too short for bigrams fall back
    to the same construction over unigrams; empty candidates score 0.
    """
    candidates = _candidate_lists(pool)
    if not candidates:
        raise ValueError("empty candidate pool")
    return _consistency([_bags(c) for c in candidates])


def _consistency(bags: list[_Bags]) -> list[float]:
    """:func:`bigram_consistency_scores` of the candidates' bags."""
    global_bi: Counter = Counter()
    global_uni: Counter = Counter()
    for bag in bags:
        global_bi.update(bag.bigrams)
        global_uni.update(bag.unigrams)
    scores = []
    for bi, _, uni, _ in bags:
        own, table = (bi, global_bi) if bi else (uni, global_uni)
        total = sum(own.values())
        if total == 0:
            scores.append(0.0)
            continue
        scores.append(sum(table[g] * c for g, c in own.items()) / total)
    return scores


def relevance(a: Sequence[str], b: Sequence[str]) -> float:
    """Cosine similarity of bag-of-bigram count vectors, in [0, 1].

    Falls back to unigram bags when either side has no bigrams; returns
    0 when a side is empty even then.
    """
    return _relevance(_bags(a), _bags(b))


def _relevance(a: _Bags, b: _Bags) -> float:
    """:func:`relevance` of two candidates' precomputed bags."""
    if a.bigrams and b.bigrams:
        ca, na, cb, nb = a.bigrams, a.bigram_norm, b.bigrams, b.bigram_norm
    elif a.unigrams and b.unigrams:
        ca, na, cb, nb = a.unigrams, a.unigram_norm, b.unigrams, b.unigram_norm
    else:
        return 0.0
    if ca == cb:
        return 1.0
    dot = sum(c * cb[g] for g, c in ca.items())
    return min(1.0, max(0.0, dot / (na * nb)))


def maximal_marginal_select(
    pool: CandidatePool | Sequence[Sequence[str]], config: RankingConfig
) -> RankedSelection:
    """Greedy diverse selection seeded by the consistency argmax.

    With ``dedup`` on, only the first occurrence of each exact duplicate
    stays eligible (consistency is still scored over the full pool).
    Returned indices point into the original pool. Each candidate's bags
    are built once, for the consistency scores and every relevance.
    """
    candidates = _candidate_lists(pool)
    if not candidates:
        raise ValueError("empty candidate pool")
    bags = [_bags(c) for c in candidates]
    scores = _consistency(bags)
    if config.dedup:
        seen: set[tuple[str, ...]] = set()
        available = []
        for i, cand in enumerate(candidates):
            key = tuple(cand)
            if key not in seen:
                seen.add(key)
                available.append(i)
    else:
        available = list(range(len(candidates)))

    first = min(available, key=lambda i: (-scores[i], i))
    selected = [first]
    remaining = [i for i in available if i != first]
    # Running sum of -relevance(candidate, chosen), accumulated in pick
    # order so ties resolve identically however the pool is traversed.
    margins = {i: 0.0 for i in remaining}
    for i in remaining:
        margins[i] -= _relevance(bags[i], bags[first])
    marginals: list[float] = []
    while len(selected) < config.k and remaining:
        best = max(margins[i] for i in remaining)
        tied = [i for i in remaining if margins[i] >= best - MARGIN_EPS]
        pick = min(tied, key=lambda i: (-scores[i], i))
        marginals.append(margins[pick])
        selected.append(pick)
        remaining.remove(pick)
        del margins[pick]
        for i in remaining:
            margins[i] -= _relevance(bags[i], bags[pick])
    return RankedSelection(
        indices=selected, initial_consistency=scores[first], marginals=marginals
    )


def mean_pairwise_relevance(titles: Sequence[Sequence[str]]) -> float:
    """Average relevance over unordered pairs; 0 for fewer than 2 items.

    The diversity diagnostic: lower means a more varied selection.
    """
    n = len(titles)
    if n < 2:
        return 0.0
    bags = [_bags(t) for t in titles]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += _relevance(bags[i], bags[j])
    return total / (n * (n - 1) / 2)
