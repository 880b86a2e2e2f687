"""Automatic evaluation: smoothed sentence BLEU-4, ROUGE-1/2/L, and
best-of-K aggregation.

All scores live in [0, 100]. Reserved markers are stripped before any
counting, so padding never moves a score. Corpus numbers are arithmetic
means of per-example values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import _kernels
from .text import strip_markers


def _prep(candidate: Sequence[str], reference: Sequence[str]) -> tuple[list[str], list[str]]:
    cand = strip_markers(candidate)
    ref = strip_markers(reference)
    if not ref:
        raise ValueError("empty reference")
    return cand, ref


def _ngram_counts(tokens: list[str], n: int) -> dict[tuple[str, ...], int]:
    counts: dict[tuple[str, ...], int] = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleus4(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Smoothed sentence BLEU over 1..4-grams, scaled to [0, 100].

    p_1 is unsmoothed (no unigram match means 0); for n >= 2 both the
    clipped-match count and the total count get +1. The geometric mean
    of the four precisions is multiplied by the brevity penalty
    min(1, exp(1 - r/c)).
    """
    cand, ref = _prep(candidate, reference)
    if not cand:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = _ngram_counts(cand, n)
        ref_counts = _ngram_counts(ref, n)
        matches = sum(min(c, ref_counts.get(g, 0)) for g, c in cand_counts.items())
        total = sum(cand_counts.values())
        if n == 1:
            if matches == 0:
                return 0.0
            p = matches / total
        else:
            p = (matches + 1) / (total + 1)
        log_sum += math.log(p)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return 100.0 * bp * math.exp(log_sum / 4.0)


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> float:
    """Clipped n-gram co-occurrence F1, scaled to [0, 100]."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    cand, ref = _prep(candidate, reference)
    cand_counts = _ngram_counts(cand, n)
    ref_counts = _ngram_counts(ref, n)
    cand_total = sum(cand_counts.values())
    ref_total = sum(ref_counts.values())
    if cand_total == 0 or ref_total == 0:
        return 0.0
    overlap = sum(min(c, ref_counts.get(g, 0)) for g, c in cand_counts.items())
    precision = overlap / cand_total
    recall = overlap / ref_total
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Longest-common-subsequence F1, scaled to [0, 100]."""
    cand, ref = _prep(candidate, reference)
    if not cand:
        return 0.0
    ids: dict[str, int] = {}
    a = [ids.setdefault(t, len(ids)) for t in cand]
    b = [ids.setdefault(t, len(ids)) for t in ref]
    lcs = _kernels.lcs_length_kernel(a, b)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 100.0 * 2.0 * precision * recall / (precision + recall)


#: Metric selectors by report column name.
METRICS: dict[str, Callable[[Sequence[str], Sequence[str]], float]] = {
    "bleus4": bleus4,
    "rouge1": lambda c, r: rouge_n(c, r, 1),
    "rouge2": lambda c, r: rouge_n(c, r, 2),
    "rougeL": rouge_l,
}


def metric_at_k(
    candidates: Sequence[Sequence[str]],
    reference: Sequence[str],
    metric: Callable[[Sequence[str], Sequence[str]], float] | str,
) -> float:
    """Best score over the candidate list against one reference."""
    if not candidates:
        raise ValueError("empty candidate list")
    fn = METRICS[metric] if isinstance(metric, str) else metric
    return max(fn(c, reference) for c in candidates)


@dataclass
class MetricReport:
    """Per-example Metric@K scores plus their corpus means for one K."""

    k: int
    per_example: list[dict] = field(default_factory=list)
    means: dict[str, float] = field(default_factory=dict)


def build_report(
    rows: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
    k: int,
    ids: Sequence | None = None,
) -> MetricReport:
    """Score each (candidates, reference) row at K and aggregate.

    Only the first ``k`` candidates of each row compete; rows with fewer
    candidates use what they have.
    """
    return build_reports(rows, [k], ids)[0]


def build_reports(
    rows: Sequence[tuple[Sequence[Sequence[str]], Sequence[str]]],
    ks: Sequence[int],
    ids: Sequence | None = None,
) -> list[MetricReport]:
    """:func:`build_report` at each K of ``ks``, in order.

    Each candidate up to the largest K is scored once per metric; a K's
    score is the running best at its last candidate, the same value
    :func:`metric_at_k` takes over that prefix.
    """
    if not ks or min(ks) < 1:
        raise ValueError(f"k must be >= 1, got {list(ks)}")
    top = max(ks)
    reports = [MetricReport(k=k) for k in ks]
    sums = [{name: 0.0 for name in METRICS} for _ in ks]
    for pos, (candidates, reference) in enumerate(rows):
        cands = list(candidates)[:top]
        if not cands:
            raise ValueError("empty candidate list")
        best = {
            name: list(itertools.accumulate((fn(c, reference) for c in cands), max))
            for name, fn in METRICS.items()
        }
        for report, total in zip(reports, sums):
            entry: dict = {"id": ids[pos] if ids is not None else pos}
            for name in METRICS:
                score = best[name][min(report.k, len(cands)) - 1]
                entry[name] = score
                total[name] += score
            report.per_example.append(entry)
    for report, total in zip(reports, sums):
        n = len(report.per_example)
        report.means = {name: (total[name] / n if n else 0.0) for name in METRICS}
    return reports
