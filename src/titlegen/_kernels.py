"""Numeric kernels for the per-step sampling transform and LCS length.

These sit in the innermost loops (one call per generated token per
candidate, and one LCS per candidate pair in ROUGE-L). The temperature
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


def nucleus_cut(grid: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nucleus of each row of ``grid``: nonnegative probabilities, a
    row's entries in ascending id order, any zero padding at its end.

    A row's nucleus is the shortest prefix of its stable (-p, id) order
    whose running sum reaches ``beta`` (within slack). That order only
    matters where the cut splits a run of equal values, since equal
    values in any order give the same running sums. So each row is
    sorted by value alone, and at the cut the lowest ids of the tied run
    are kept. Returns the mask of kept entries, each row's nucleus mass
    and whether the row reached ``beta``. A row that falls short keeps
    every entry, with its total as the mass.
    """
    rows, width = grid.shape
    if not width:
        return np.zeros(grid.shape, dtype=bool), np.zeros(rows), np.zeros(rows, dtype=bool)
    ranked = -np.sort(-grid, axis=1)
    csum = ranked.cumsum(axis=1)
    reach = csum >= beta - _BETA_SLACK
    reached = reach.any(axis=1)
    last = np.where(reached, reach.argmax(axis=1), width - 1)
    edge = ranked[np.arange(rows), last][:, None]
    kept = grid >= edge
    # Only rows whose edge value runs past the cut count their tied entries.
    over = np.flatnonzero(kept.sum(axis=1) > last + 1)
    if over.size:
        grid, edge = grid[over], edge[over]
        above, tied = grid > edge, grid == edge
        short = last[over, None] - above.sum(axis=1, keepdims=True)
        kept[over] = above | (tied & (tied.cumsum(axis=1) <= short + 1))
    return kept, csum[np.arange(rows), last], reached


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
    kept, mass, reached = nucleus_cut(probs[None, ids], beta)
    if not reached[0] and ids.shape[0] < n:
        ids = np.arange(n)
        kept, mass, _ = nucleus_cut(probs[None], beta)
    ids = ids[kept[0]]
    return ids, probs[ids] / mass[0]


def sample_step_kernel(cdf, u: float) -> int:
    """Inverse-CDF draw from a draw table: ``cdf`` holds the running sums
    ``q.cumsum()`` of finite nonnegative ``q`` with positive mass (a list,
    ``array.array`` or 1-D ndarray), ``u`` lies in [0, 1).
    ``decode.NucleusMemo`` refuses every other table.

    Returns the first index whose running sum exceeds ``u``, which is
    ``searchsorted(cdf, u, side="right")``; that entry of ``q`` is
    positive. If rounding leaves the total at or below ``u``, the entry
    that brought the sum to its total: the last positive one, unless a
    later positive entry was too small to change the sum.
    """
    j = bisect_right(cdf, u)
    if j < len(cdf):
        return j
    return bisect_left(cdf, cdf[-1])


def lcs_length_kernel(a, b) -> int:
    """Length of the longest common subsequence of two int sequences
    (lists or 1-D int arrays).

    Bit-parallel (Allison-Dix, Hyyro): bit j of ``v`` is clear where the
    DP row steps up at position j of ``b``, so the length is the count
    of clear bits among ``len(b)``. Exact integer arithmetic, any length.
    """
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()
