"""Decoding strategies: nucleus filtering, temperature, token sampling,
parallel multi-candidate generation, and a beam-search baseline.

Candidates are stored ragged and PAD-free; the END marker terminates a
row but is not stored. Padding to a rectangle is purely a presentation
concern and never happens here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .lm import GeneratorModel
from .text import END_ID, START_ID


@dataclass(frozen=True)
class SamplingConfig:
    top_p: float = 0.8
    temperature: float = 1.0
    num_samples: int = 200
    max_length: int = 48
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass
class CandidatePool:
    """M candidate token sequences sampled for one input.

    ``input`` and ``candidates`` hold surface token strings; candidates
    contain no reserved markers. ``meta`` carries optional record fields
    (id, reference, language) through the file pipeline.
    """

    input: list[str]
    candidates: list[list[str]]
    config: SamplingConfig
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for cand in self.candidates:
            if len(cand) > self.config.max_length:
                raise ValueError("candidate longer than max_length")


def _validate_dist(dist) -> np.ndarray:
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("distribution must be a nonempty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("distribution entries must be finite")
    if np.any(arr < 0.0):
        raise ValueError("distribution entries must be nonnegative")
    if not np.any(arr > 0.0):
        raise ValueError("distribution must have positive mass")
    return arr


def nucleus_filter(dist, beta: float) -> np.ndarray:
    """Keep the minimal top-probability set with mass >= beta, rescaled.

    Ties at the boundary are included by ascending token index. The
    survivors keep their relative order; everything else becomes 0. The
    nucleus is decoding's, ``_kernels.nucleus_kernel``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    arr = _validate_dist(dist)
    ids, q = _kernels.nucleus_kernel(arr, beta, 1.0)
    out = np.zeros_like(arr)
    out[ids] = q
    return out


def apply_temperature(dist, t: float) -> np.ndarray:
    """Exponent-rescale p_i^(1/t), renormalized; t=1 is the identity."""
    if not t > 0.0:
        raise ValueError(f"temperature must be positive, got {t}")
    return _kernels.apply_temperature_kernel(_validate_dist(dist), t)


def sample_token(dist, rng: np.random.Generator) -> int:
    """Draw one token index with probability dist[i]; advances ``rng``.

    This is decoding's draw, ``_kernels.sample_step_kernel`` over the
    running sums, so zero entries are never drawn. Should rounding leave
    the total at or below the uniform, it is the entry that brought the
    sum to its total: ``[0.5, 0.25, 1e-30]`` at u = 0.9 gives 1.
    """
    return _kernels.sample_step_kernel(_validate_dist(dist).cumsum(), rng.random())


def _row_uniforms(seed: int, rows: int, length: int) -> np.ndarray:
    """``rows`` rows of ``length`` values of one stream,
    ``default_rng(seed).random()``: row r holds values r·length …
    r·length + length − 1. So the first M rows do not depend on how many
    rows follow. The block is drawn in one call, which gives the values
    successive scalar draws give."""
    return np.random.default_rng(seed).random((rows, length))


#: The most nucleus ids one run's memo holds, as a multiple of the
#: vocabulary size; each id costs 16 bytes. On the benchmark's model
#: (V ~ 7.2k, top_p 0.8) a run's distinct states take 6 V ids over 4
#: posts, 29 V over 100 and 36 V over 400, levelling off as the model's
#: states run out, so there a run of any length fits. Near top_p 1 every
#: entry approaches V ids, and an unbounded memo would hold a
#: vocabulary-sized table per state.
_MEMO_IDS_PER_VOCAB = 64


class NucleusMemo:
    """Each model state's draw table under one (model, top_p, temperature).

    A table is the state's nucleus as ``model.step_nuclei`` gives it: the
    kept ids in ascending order (``array('q')``) and the running sums of
    their probabilities after temperature, divided by the nucleus mass
    (``array('d')``, ``q.cumsum()``), which ``_kernels.sample_step_kernel``
    bisects. Entries are keyed by ``model.step_states``: for ``NGramLM``
    a state's hit rows, found for all of a step's rows by array search;
    for any other model, by default, the code and the prefix. Equal keys
    give bit-identical distributions under any code, and the nucleus does
    not depend on the seed, so one memo serves every pool of a run. The
    memo holds at most ``capacity`` ids; past that, new states are
    computed and not stored.
    """

    def __init__(self, model: GeneratorModel, top_p: float, temperature: float):
        self.model = model
        self.top_p = top_p
        self.temperature = temperature
        self._entries: dict = {}
        self.cached_ids = 0
        self.capacity = _MEMO_IDS_PER_VOCAB * len(model.vocabulary)

    def check(self, model: GeneratorModel, config: SamplingConfig) -> None:
        """Raise ``ValueError`` unless the memo's entries hold for ``config``."""
        if model is not self.model:
            raise ValueError("nucleus memo belongs to another model")
        if (config.top_p, config.temperature) != (self.top_p, self.temperature):
            raise ValueError(
                f"nucleus memo holds top_p={self.top_p} temperature={self.temperature},"
                f" not top_p={config.top_p} temperature={config.temperature}"
            )

    def tables(
        self, codes: Sequence[Sequence[int]], pools: np.ndarray, prefixes: np.ndarray
    ) -> list[tuple[array, array]]:
        """The draw table of each row of a step: row ``i`` is ``prefixes[i]``
        under ``codes[pools[i]]`` (see ``GeneratorModel.step_states``). The
        states no entry holds are computed in one ``model.step_nuclei``
        call, in the order they first appear, and its tables are checked
        against its contract: each in O(1) (see ``_checked_table``), and
        all their ids at once, with one ``min`` and ``max``."""
        keys = self.model.step_states(codes, pools, prefixes)
        got = list(map(self._entries.get, keys))
        if None in got:
            absent = [i for i, table in enumerate(got) if table is None]
            misses = {}
            for i in absent:
                misses.setdefault(keys[i], i)
            at = np.fromiter(misses.values(), dtype=np.int64, count=len(misses))
            computed = self.model.step_nuclei(
                list(misses), codes, pools[at], prefixes[at], self.top_p, self.temperature
            )
            if len(computed) != len(misses):
                raise ValueError(
                    f"step_nuclei must return one (ids, probabilities) pair per state:"
                    f" asked for {len(misses)}, got {len(computed)}"
                )
            id_arrays = [ids.astype(np.int64, copy=False) for ids, _ in computed]
            tables = [
                _checked_table(array("q", ids.tobytes()), array("d", q.cumsum().tobytes()))
                for ids, (_, q) in zip(id_arrays, computed)
            ]
            every, size = np.concatenate(id_arrays), len(self.model.vocabulary)
            if every.min() < 0 or every.max() >= size:
                raise ValueError(f"step_nuclei ids must lie in the vocabulary of {size} tokens")
            fresh = dict(zip(misses, tables))
            for key, table in fresh.items():
                if self.cached_ids + len(table[0]) <= self.capacity:
                    self._entries[key] = table
                    self.cached_ids += len(table[0])
            for i in absent:
                got[i] = fresh[keys[i]]
        return got


def _checked_table(ids: array, cdf: array) -> tuple[array, array]:
    """``(ids, cdf)``, or a ``ValueError`` naming the rule of
    ``GeneratorModel.step_nuclei`` it breaks. Every check is O(1);
    ``NucleusMemo.tables`` bounds the ids of a step's tables together."""
    if not len(ids) == len(cdf) > 0:
        raise ValueError(
            f"step_nuclei must return as many probabilities as ids, at least one;"
            f" got {len(ids)} ids and {len(cdf)} probabilities"
        )
    if not cdf[-1] > 0.0:
        raise ValueError(f"step_nuclei probabilities must have positive mass, got {cdf[-1]!r}")
    return ids, cdf


def decode_pools(
    model: GeneratorModel,
    pools: Sequence[tuple[Sequence[int], SamplingConfig]],
    memo: NucleusMemo | None = None,
) -> list[CandidatePool]:
    """One candidate pool per (code, config) of ``pools``, their rows
    sampled together.

    A pool of ``num_samples`` rows applies temperature, then the nucleus
    filter, then one inverse-CDF draw per step, stopping each row at END
    or ``max_length``. It draws from one stream,
    ``default_rng(config.seed)``; row r's step j reads its value r·L + j,
    where L is ``max_length``, whether or not the row ran that far. So a
    row depends only on (code, seed, row index, ``max_length``): a pool
    is the same alone or beside others, and its first M rows are
    identical to a pool of exactly M at the same ``max_length``.

    Every row of every pool advances in lockstep, one step at a time,
    its tokens held in one int64 array. At each step the live rows' draw
    tables come from ``memo`` (see :class:`NucleusMemo`), which computes
    the states no entry holds in one ``model.step_nuclei`` call, and every
    live row draws by bisecting its table with its own next uniform, one
    ``_kernels.sample_step_kernel`` call each. The state contract makes
    every drawn token the same as computing the nucleus afresh at each
    step of each row in turn. The configs must share top_p and
    temperature. Pass one memo to every call of a run to share states
    across calls; it must have been made for ``model`` and those
    settings, or this raises ``ValueError``. Without one, the call uses a
    fresh memo.
    """
    if not pools:
        return []
    codes = [code for code, _ in pools]
    configs = [config for _, config in pools]
    if memo is None:
        memo = NucleusMemo(model, configs[0].top_p, configs[0].temperature)
    for config in configs:
        memo.check(model, config)
    sizes = [config.num_samples for config in configs]
    ends = np.cumsum(sizes).tolist()
    width = max(config.max_length for config in configs)
    # Row r of the group: its pool, its length cap, its uniforms.
    owner = np.repeat(np.arange(len(pools)), sizes)
    caps = np.repeat([config.max_length for config in configs], sizes)
    uniforms = np.empty((len(owner), width))
    for config, end in zip(configs, ends):
        block = _row_uniforms(config.seed, config.num_samples, config.max_length)
        uniforms[end - config.num_samples : end, : config.max_length] = block
    tokens = np.empty((len(owner), width + 1), dtype=np.int64)
    tokens[:, 0] = START_ID
    lengths = np.empty(len(owner), dtype=np.int64)
    live = np.arange(len(owner))
    for step in range(width):
        tables = memo.tables(codes, owner[live], tokens[live, : step + 1])
        drawn = [
            ids[_kernels.sample_step_kernel(cdf, u)]
            for (ids, cdf), u in zip(tables, uniforms[live, step].tolist())
        ]
        drawn = np.array(drawn, dtype=np.int64)
        tokens[live, step + 1] = drawn
        going = drawn != END_ID
        lengths[live] = step + going
        live = live[going & (caps[live] > step + 1)]
        if not live.size:
            break
    vocab = model.vocabulary
    rows = [vocab.decode(row[:n]) for row, n in zip(tokens[:, 1:].tolist(), lengths.tolist())]
    return [
        CandidatePool(vocab.decode(list(code)), rows[end - config.num_samples : end], config)
        for (code, config), end in zip(pools, ends)
    ]


def decode_candidates(
    model: GeneratorModel,
    code: Sequence[int],
    config: SamplingConfig,
    memo: NucleusMemo | None = None,
) -> CandidatePool:
    """Sample ``num_samples`` candidate rows independently: the one-pool
    call of :func:`decode_pools`, which describes the draws and ``memo``."""
    return decode_pools(model, [(code, config)], memo)[0]


def _best_expansions(scores: np.ndarray, parents: Sequence[tuple[int, ...]], count: int):
    """The ``count`` best (parent row, token, score) entries of ``scores``.

    Order is (-score, parent ids + (token,)); entries that are -inf or NaN
    (zero or invalid probability) are never chosen. All parents have the
    same length, so the id order is (lexicographic parent rank, token).

    Only the band at or above the ``count``-th score is sorted. One
    ``np.partition`` of all the scores finds that threshold; it puts NaN
    last, so any NaN among the top ``count`` slots is in the slice it
    returns. When the threshold is finite and that slice holds no NaN, the
    entries ``>=`` it are the band, and neither -inf nor NaN is in it.
    Otherwise (fewer than ``count`` finite entries, or a NaN near the top)
    the band is every entry above -inf.
    """
    flat = scores.ravel()
    cand = None
    if flat.size > count:
        top = np.partition(flat, flat.size - count)[flat.size - count :]
        if top[0] > -np.inf and not np.isnan(top).any():
            cand = np.flatnonzero(flat >= top[0])
    if cand is None:
        cand = np.flatnonzero(flat > -np.inf)
    rank = np.empty(len(parents), dtype=np.int64)
    rank[sorted(range(len(parents)), key=parents.__getitem__)] = np.arange(len(parents))
    rows, toks = np.divmod(cand, scores.shape[1])
    best = np.lexsort((toks, rank[rows], -flat[cand]))[:count]
    return [(int(r), int(t), float(flat[i])) for r, t, i in zip(rows[best], toks[best], cand[best])]


def beam_search(
    model: GeneratorModel,
    code: Sequence[int],
    beam_size: int,
    k: int,
    max_length: int = 48,
) -> list[list[int]]:
    """Top-k END-terminated (or length-capped) sequences by log-probability.

    No length normalization. Ties break by lexicographic token-id order.
    Returned sequences are surface token ids without START or END.

    The search stops before ``max_length`` once the k-th best finished
    score is strictly greater than the best live score. This is exact:
    every probability is at most 1, so a live beam's score can only fall
    as it grows, and neither it nor anything it finishes can beat the
    k-th finished sequence. On equal scores a later sequence could still
    win the id tie-break, hence the strict comparison.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if not 1 <= k <= beam_size:
        raise ValueError(f"k must be in [1, beam_size], got k={k} beam_size={beam_size}")
    live_ids: list[tuple[int, ...]] = [()]
    live_scores = np.zeros(1)
    finished: list[tuple[float, tuple[int, ...]]] = []
    while live_ids:
        scores = np.empty((len(live_ids), len(model.vocabulary)))
        with np.errstate(divide="ignore", invalid="ignore"):
            for row, ids in enumerate(live_ids):
                np.log(model.next_distribution(code, [START_ID, *ids]), out=scores[row])
        scores += live_scores[:, None]
        finished += [
            (float(s), ids)
            for s, ids in zip(scores[:, END_ID], live_ids)
            if s > -np.inf
        ]
        scores[:, END_ID] = -np.inf
        if len(live_ids[0]) + 1 >= max_length:
            # Capped rows are kept: ranking can still use them. Only the
            # best k of them can be returned, so only those are built.
            finished += [
                (s, live_ids[r] + (t,))
                for r, t, s in _best_expansions(scores, live_ids, k)
            ]
            live_ids = []
        else:
            best = _best_expansions(scores, live_ids, beam_size)
            live_ids = [live_ids[r] + (t,) for r, t, _ in best]
            live_scores = np.array([s for _, _, s in best])
        finished = sorted(finished, key=lambda e: (-e[0], e[1]))[:k]
        if live_ids and len(finished) == k and finished[-1][0] > live_scores[0]:
            break
    return [list(ids) for _, ids in finished]
