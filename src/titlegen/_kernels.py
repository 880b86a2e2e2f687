"""Numeric kernels for the per-step sampling transform and LCS length.

These sit in the innermost loops (one call per generated token per
candidate, and one DP per candidate pair in ROUGE-L). The temperature
and nucleus kernels are vectorized numpy, and the step draw bisects a
table of running sums built once per nucleus. Every sum they take is a
sequential ``np.cumsum`` in the order a per-element loop adds, so kept
sets, their masses and drawn tokens equal the plain loops' (kept as test
oracles) bit for bit.

The nucleus sorts only the entries a tail bound cannot rule out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

BACKEND = "numpy"

#: Slack when comparing cumulative mass against the nucleus threshold.
#: Guards against float ties: a prefix whose exact mass equals beta must
#: not be rejected because the running sum landed a few ulps below it.
_BETA_SLACK = 1e-12


def apply_temperature_kernel(probs: np.ndarray, temperature: float) -> np.ndarray:
    """p_i^(1/t) renormalized, computed in log space shifted by the max."""
    best = probs.max()
    if temperature == 1.0 or not best > 0.0:
        return probs.copy()
    positive = probs > 0.0
    scaled = np.exp((np.log(probs[positive]) - np.log(best)) / temperature)
    out = np.zeros(probs.shape[0], dtype=np.float64)
    # Sequential sum, not np.sum's pairwise one: the normalizer is the
    # running total over ascending index.
    out[positive] = scaled / np.cumsum(scaled)[-1]
    return out


def nucleus_cuts(p_sorted: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Running sums along the last axis of ``p_sorted``, probabilities in
    stable descending order (rows of a 2-D array may end in zeros), and
    per row the index of the first sum that reaches ``beta`` within
    slack, or the row length if none does."""
    csum = p_sorted.cumsum(axis=-1)
    if not p_sorted.shape[-1]:
        return csum, np.zeros(p_sorted.shape[:-1], dtype=np.int64)
    reach = csum >= beta - _BETA_SLACK
    return csum, np.where(reach.any(axis=-1), reach.argmax(axis=-1), p_sorted.shape[-1])


def nucleus_cut(
    ids: np.ndarray, p: np.ndarray, beta: float, complete: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """The nucleus among ``ids``, ascending, and ``p``, their probabilities.

    ``ids`` must hold every id whose probability is above some value, so
    that in stable descending order (ties by ascending id) they are the
    first entries of the whole vector's order, with the same running
    sums. The nucleus is the shortest such prefix whose running sum
    reaches ``beta`` (within slack). Returns its ids in ascending order
    and their probabilities divided by its mass. If the running sum falls
    short, every id when ``complete`` (``ids`` is the whole vocabulary),
    else None.
    """
    # ndarray methods, not numpy's wrappers: the inputs are often short.
    order = (-p).argsort(kind="stable")
    csum, cut = nucleus_cuts(p[order], beta)
    cut = int(cut)
    if cut == len(ids):
        if not complete:
            return None
        cut -= 1
    kept = order[: cut + 1]
    kept.sort()
    return ids[kept], p[kept] / csum[cut]


def nucleus_filter_kernel(probs: np.ndarray, beta: float) -> np.ndarray:
    """The nucleus of ``probs`` rescaled to mass 1, zero elsewhere."""
    ids, q = nucleus_kernel(probs, beta, 1.0)
    out = np.zeros(probs.shape[0], dtype=np.float64)
    out[ids] = q
    return out


def sample_token_kernel(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw over ascending token index; ``probs`` finite and
    nonnegative, ``u`` in [0, 1).

    Zero entries are never drawn. If rounding leaves the total at or
    below ``u``, the last positive index; -1 if no entry is positive.
    """
    # Adding a zero leaves a running sum bit-identical, so the running
    # sums of the positive entries are those of the whole vector, and the
    # first sum above u >= 0 ends on a positive entry. The ndarray
    # methods skip numpy's Python wrappers, once per decode step.
    j = int(probs.cumsum().searchsorted(u, side="right"))
    if j < probs.shape[0]:
        return j
    positive = np.flatnonzero(probs > 0.0)
    return int(positive[-1]) if positive.shape[0] else -1


def nucleus_kernel(
    probs: np.ndarray, beta: float, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """The temperature -> nucleus transform in compact form.

    Returns the kept ids in ascending order and their probabilities after
    temperature, divided by the nucleus mass. At ``beta >= 1`` every id
    is kept and nothing is divided. ``sample_step_kernel`` over the second
    array's running sums gives the index into the first.
    """
    if temperature != 1.0:
        probs = apply_temperature_kernel(probs, temperature)
    if beta >= 1.0:
        return np.arange(probs.shape[0]), probs
    n = probs.shape[0]
    # On a normalized input the entries below (1 - beta) / n hold less
    # than 1 - beta together, so the nucleus lies among the rest. Should
    # their mass fall short, the whole vocabulary is searched.
    ids = np.flatnonzero(probs >= (1.0 - beta) / n)
    found = nucleus_cut(ids, probs[ids], beta, ids.shape[0] == n)
    if found is None:
        found = nucleus_cut(np.arange(n), probs, beta, True)
    return found


def sample_step_kernel(cdf, u: float) -> int:
    """Inverse-CDF draw from a draw table: ``cdf`` holds the running sums
    ``q.cumsum()`` of finite nonnegative ``q`` (a list, ``array.array``
    or 1-D ndarray), ``u`` lies in [0, 1).

    Returns the first index whose running sum exceeds ``u``, which is
    ``searchsorted(cdf, u, side="right")``; that entry of ``q`` is
    positive. If rounding leaves the total at or below ``u``, the entry
    that brought the sum to its total: the last positive one, unless a
    later positive entry was too small to change the sum. -1 if the table
    has no mass. Outside that rounding case it equals
    ``sample_token_kernel(q, u)``.
    """
    j = bisect_right(cdf, u)
    if j < len(cdf):
        return j
    if not len(cdf) or not cdf[-1] > 0.0:
        return -1
    return bisect_left(cdf, cdf[-1])


def lcs_length_kernel(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common subsequence of two int sequences."""
    n = a.shape[0]
    m = b.shape[0]
    prev = np.zeros(m + 1, dtype=np.int64)
    curr = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        for j in range(m):
            if a[i] == b[j]:
                curr[j + 1] = prev[j] + 1
            elif prev[j + 1] >= curr[j]:
                curr[j + 1] = prev[j + 1]
            else:
                curr[j + 1] = curr[j]
        prev, curr = curr, prev
    return int(prev[m])
