"""Decoding strategies: nucleus sampling of many candidate rows in
lockstep, and a beam-search baseline that steps its posts together.
``nucleus_filter`` exposes one nucleus on a probability vector.

Candidates are stored ragged and PAD-free; the END marker terminates a
row but is not stored. Padding to a rectangle is purely a presentation
concern and never happens here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .lm import GeneratorModel, _rises
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


def nucleus_filter(dist, beta: float) -> np.ndarray:
    """Keep the minimal top-probability set with mass >= beta, rescaled.

    Ties at the boundary are included by ascending token index. The
    survivors keep their relative order; everything else becomes 0. The
    nucleus is decoding's, ``_kernels.nucleus_kernel``.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    arr = np.asarray(dist, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("distribution must be a nonempty 1-D vector")
    if not np.isfinite(arr).all():
        raise ValueError("distribution entries must be finite")
    if np.any(arr < 0.0):
        raise ValueError("distribution entries must be nonnegative")
    if not np.any(arr > 0.0):
        raise ValueError("distribution must have positive mass")
    ids, q = _kernels.nucleus_kernel(arr, beta, 1.0)
    out = np.zeros_like(arr)
    out[ids] = q
    return out


def _row_uniforms(seed: int, rows: int, length: int) -> np.ndarray:
    """``rows`` rows of ``length`` values of one stream,
    ``default_rng(seed).random()``: row r holds values r·length …
    r·length + length − 1. So the first M rows do not depend on how many
    rows follow. The block is drawn in one call, which gives the values
    successive scalar draws give."""
    return np.random.default_rng(seed).random((rows, length))


#: The most ids one run's memo holds, as a multiple of the vocabulary
#: size. A nucleus id costs 16 bytes. On the benchmark's model (V ~ 7.2k,
#: top_p 0.8) a run's distinct states take 6 V ids over 4 posts, 29 V
#: over 100 and 36 V over 400, levelling off as the model's states run
#: out, so there a run of any length fits. Near top_p 1 every entry
#: approaches V ids, and an unbounded memo would hold a vocabulary-sized
#: table per state. A beam band counts its width + 1 ids.
_MEMO_IDS_PER_VOCAB = 64


class _StateMemo:
    """The entry of each model state under one (model, top_p, temperature),
    keyed by ``model.step_states``. Equal keys give bit-identical
    distributions under any code, and no entry depends on the seed, so one
    memo serves a whole run. A subclass's ``_from_nuclei`` turns one
    ``step_nuclei`` result into (entry, ids) pairs. The memo holds at most
    ``capacity`` ids; past that, new states are computed and not stored.
    ``looked_up`` counts the rows looked up, ``computed`` the states
    computed and ``cached_ids`` the ids stored."""

    def __init__(self, model: GeneratorModel, top_p: float, temperature: float):
        self.model = model
        self.top_p = top_p
        self.temperature = temperature
        self._entries: dict = {}
        self.looked_up = 0
        self.computed = 0
        self.cached_ids = 0
        self.capacity = _MEMO_IDS_PER_VOCAB * len(model.vocabulary)

    def _lookup(self, codes: Sequence[Sequence[int]], pools: np.ndarray, prefixes: np.ndarray):
        """The entry of each row of a step: row ``i`` is ``prefixes[i]``
        under ``codes[pools[i]]``. The states no entry holds are computed
        in one ``model.step_nuclei`` call, in the order they first appear."""
        keys = self.model.step_states(codes, pools, prefixes)
        self.looked_up += len(keys)
        got = list(map(self._entries.get, keys))
        if None in got:
            absent = [i for i, entry in enumerate(got) if entry is None]
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
            fresh = dict(zip(misses, self._from_nuclei(computed)))
            self.computed += len(misses)
            for key, (entry, ids) in fresh.items():
                if self.cached_ids + ids <= self.capacity:
                    self._entries[key] = entry
                    self.cached_ids += ids
            for i in absent:
                got[i] = fresh[keys[i]][0]
        return got


def _refuse_probabilities(q) -> None:
    """Raise the ``ValueError`` for ``step_nuclei`` probabilities ``q`` that
    are not all finite and nonnegative, or that have no mass."""
    q = np.asarray(q, dtype=np.float64)
    bad = q[~((q >= 0.0) & (q < np.inf))]
    if bad.size:
        raise ValueError(
            f"step_nuclei probabilities must be finite and nonnegative, got {float(bad[0])!r}"
        )
    raise ValueError(f"step_nuclei probabilities must have positive mass, got {float(q.sum())!r}")


def _joined(parts, dtype, casting: str, rule: str) -> np.ndarray:
    """One side of ``step_nuclei``'s pairs joined into one 1-D array of
    ``dtype``. Otherwise a ``ValueError``: ``rule`` and the dtype of the
    first part that breaks it, or, if every part casts, that the parts
    are not 1-D arrays."""
    try:
        joined = np.concatenate(parts, dtype=dtype, casting=casting)
    except (TypeError, ValueError):
        joined = None
    if joined is None or joined.ndim != 1:
        for part in map(np.asarray, parts):
            if not np.can_cast(part.dtype, dtype, casting):
                raise ValueError(f"step_nuclei {rule}, got {part.dtype}")
        raise ValueError("step_nuclei must return pairs of 1-D arrays")
    return joined


class NucleusMemo(_StateMemo):
    """Each model state's draw table: its nucleus as ``model.step_nuclei``
    gives it, the kept ids in ascending order (``array('q')``) and the
    running sums of their probabilities (``array('d')``, ``q.cumsum()``),
    which ``_kernels.sample_step_kernel`` bisects. A step's misses get
    their tables together, slices of one pair of arrays."""

    def check(self, model: GeneratorModel, config: SamplingConfig) -> None:
        """Raise ``ValueError`` unless the memo's entries hold for ``config``."""
        if model is not self.model:
            raise ValueError("nucleus memo belongs to another model")
        if (config.top_p, config.temperature) != (self.top_p, self.temperature):
            raise ValueError(
                f"nucleus memo holds top_p={self.top_p} temperature={self.temperature},"
                f" not top_p={config.top_p} temperature={config.temperature}"
            )

    def tables(self, codes, pools, prefixes) -> list[tuple[array, array]]:
        """The draw table of each row of a step (see ``_lookup``)."""
        return self._lookup(codes, pools, prefixes)

    def _from_nuclei(self, computed) -> list[tuple[tuple[array, array], int]]:
        """Each pair's table and its ids, or a ``ValueError`` naming the
        rule of ``GeneratorModel.step_nuclei`` it breaks. The whole batch
        is checked at once: its ids and probabilities are each joined into
        one array and checked there, every probability finite and
        nonnegative, and the ids of each pair strictly ascending, in one
        pass over the joined ids. Each table is its ids and its own
        ``q.cumsum()``, sliced from one ``array('q')`` and one
        ``array('d')`` of the batch."""
        ids, probs = zip(*computed)
        sizes = np.fromiter(map(len, ids), np.int64, len(ids))
        lengths = np.fromiter(map(len, probs), np.int64, len(probs))
        bad = np.flatnonzero((sizes != lengths) | (sizes < 1))
        if bad.size:
            raise ValueError(
                f"step_nuclei must return as many probabilities as ids, at least one;"
                f" got {sizes[bad[0]]} ids and {lengths[bad[0]]} probabilities"
            )
        ids = _joined(ids, np.int64, "same_kind", "ids must be integers")
        joined = _joined(probs, np.float64, "no", "probabilities must be float64")
        if not (joined.min() >= 0.0 and joined.max() < np.inf):
            _refuse_probabilities(joined)
        cdf = np.concatenate([q.cumsum() for q in probs])
        ends = sizes.cumsum()
        last = cdf[ends - 1]
        if not (last > 0.0).all():
            got = float(last[np.flatnonzero(~(last > 0.0))[0]])
            raise ValueError(f"step_nuclei probabilities must have positive mass, got {got!r}")
        size = len(self.model.vocabulary)
        if ids.min() < 0 or ids.max() >= size:
            raise ValueError(f"step_nuclei ids must lie in the vocabulary of {size} tokens")
        if not _rises(ids, ends - sizes):
            raise ValueError("step_nuclei ids must ascend strictly within each pair")
        ids, cdf = array("q", ids.tobytes()), array("d", cdf.tobytes())
        ends = ends.tolist()
        return [((ids[a:b], cdf[a:b]), b - a) for a, b in zip([0, *ends], ends)]


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
    temperature, or this raises ``ValueError``. Pass one memo to every
    call of a run to share states across calls; it must have been made
    for ``model`` and those settings, or this raises ``ValueError``.
    Without one, the call uses a fresh memo.
    """
    if not pools:
        return []
    codes = [code for code, _ in pools]
    configs = [config for _, config in pools]
    if len({(config.top_p, config.temperature) for config in configs}) > 1:
        raise ValueError("the pools of one decode_pools call must share top_p and temperature")
    if memo is None:
        memo = NucleusMemo(model, configs[0].top_p, configs[0].temperature)
    memo.check(model, configs[0])
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


def _log_distributions(computed, size: int) -> Iterator[np.ndarray]:
    """``np.log`` of each pair's probabilities from ``step_nuclei`` at top_p
    1 and temperature 1, which keep every id and divide nothing: the state's
    distribution, beam search's scores, read by position. So each pair's
    ids must be 0 to V - 1 in order, compared once per distinct array: pairs
    may share one. Each log is made as the caller asks and checked with one
    reduction: a NaN, negative or infinite probability makes the maximum of
    its log NaN or inf, and a pair without mass -inf."""
    if any(not len(ids) == len(q) == size for ids, q in computed):
        raise ValueError(f"step_nuclei at top_p 1 must return {size} ids and probabilities")
    vocabulary, distinct = np.arange(size), {id(ids): ids for ids, _ in computed}
    if any(not np.array_equal(ids, vocabulary) for ids in distinct.values()):
        raise ValueError(f"step_nuclei at top_p 1 must return the ids 0 to {size - 1} in order")
    for _, q in computed:
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.log(q)
        if not -np.inf < logp.max() < np.inf:
            _refuse_probabilities(q)
        yield logp


#: Columns of a band row: END's log-probability, then two (hi, lo) pairs
#: that a live score ``s`` must keep apart, ``s + hi > s + lo``, for the
#: band to hold the row's best expansions, then the band's values and ids.
_END, _BAND = 0, 5


def _band(logp: np.ndarray, width: int) -> bytes:
    """One state's band row (see :class:`BandMemo`), as the bytes of its
    float64 values, from the log of its distribution, which it overwrites.

    The band is the first ``width`` non-END entries in (-log p, id) order
    that are not -inf; ``t`` is its last value when it holds
    ``width`` of them. The first pair is (``t``, the largest such value
    under ``t``), so every entry outside the band under ``t`` loses to
    every band entry. Entries outside the band equal to ``t`` have larger
    ids than the band's entries at ``t``; the second pair, (the smallest
    band value above ``t``, ``t``), makes them lose to the band's larger
    values too. A pair with nothing to keep apart is (inf, -inf).
    """
    end = float(logp[END_ID])
    # Costs, -log p, exact negations: the band is the lowest, in (cost, id)
    # order. np.partition is faster at a low kth.
    cost = np.negative(logp, out=logp)
    cost[END_ID] = np.inf
    top = np.partition(cost, width)[: width + 1].tolist() if width < len(cost) else []
    # The band's last cost, t, and the next one.
    t, nxt = (max(top[:width]), top[width]) if top else (np.inf, np.inf)
    ids = np.flatnonzero(cost <= t) if t < np.inf else np.flatnonzero(cost < np.inf)
    if len(ids) > 1:
        ids = ids[np.lexsort((ids, cost[ids]))[:width]]
    values = (-cost[ids]).tolist()
    pairs = [np.inf, -np.inf, np.inf, -np.inf]
    if t < np.inf:
        pairs[:2] = -t, -nxt
        if nxt == t:
            pairs[1] = -cost[cost > t].min(initial=np.inf)
            pairs[2:] = min((v for v in values if v > -t), default=np.inf), -t
    pad = [-np.inf] * (width - len(values))
    return np.array([end, *pairs, *values, *pad, *ids.tolist(), *pad]).tobytes()


class BandMemo(_StateMemo):
    """Each model state's beam band under one (model, beam width): the
    bytes of one float64 row built from the ``np.log`` of the state's
    distribution, the very values a dense step would score. It holds the
    END log-probability, two pairs of values that tell whether a live
    score's expansions outside the band can reach its best, and the
    ``width`` best non-END log-probabilities and their ids in (-log p, id)
    order, padded with -inf (see :func:`_band`). ``width`` is
    ``beam_size``, or the vocabulary size if that is smaller. An entry
    counts ``width + 1`` ids, the band and END."""

    def __init__(self, model: GeneratorModel, beam_size: int):
        if beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {beam_size}")
        super().__init__(model, 1.0, 1.0)
        self.beam_size = beam_size
        self.width = min(beam_size, len(model.vocabulary))

    def check(self, model: GeneratorModel, beam_size: int) -> None:
        """Raise ``ValueError`` unless the memo's entries hold for the call."""
        if model is not self.model:
            raise ValueError("band memo belongs to another model")
        if beam_size != self.beam_size:
            raise ValueError(f"band memo holds beam_size={self.beam_size}, not {beam_size}")

    def bands(self, codes, pools, prefixes) -> np.ndarray:
        """The band row of each row of a step, stacked (see ``_lookup``)."""
        got = self._lookup(codes, pools, prefixes)
        return np.frombuffer(b"".join(got)).reshape(len(got), -1)

    def _from_nuclei(self, computed) -> list[tuple[bytes, int]]:
        logs = _log_distributions(computed, len(self.model.vocabulary))
        return [(_band(logp, self.width), self.width + 1) for logp in logs]


def beam_pools(
    model: GeneratorModel,
    codes: Sequence[Sequence[int]],
    beam_size: int,
    k: int,
    max_length: int = 48,
    memo: BandMemo | None = None,
) -> list[list[list[int]]]:
    """:func:`beam_search` of each code of ``codes``, the posts stepped
    together.

    Every post's live beams advance in lockstep, one token a step, and one
    ``model.step_states`` call keys all of a step's rows. ``memo`` (see
    :class:`BandMemo`) gives each key's band: its END log-probability and
    its ``beam_size`` best other entries, built once per run from its
    whole distribution, one ``step_nuclei`` call per step for the states
    no entry holds. A step then merges every post's entries in one sort,
    by (post, -score, parent rank, token), and keeps each post's best
    ``beam_size`` (``k`` at the length cap). A post's entries are its live
    rows' bands, at most beam² of them.

    That is exact because adding a live score ``s`` is monotone in
    floating point. Let ``t`` be the band's last value. If ``s + t > s +
    below``, where ``below`` is the largest value under ``t`` outside the
    band, every band entry strictly beats every entry under ``t``. Entries
    outside the band equal to ``t`` lose the id tie-break to the band's
    entries at ``t``, and lose to its larger values while ``s`` keeps the
    smallest of them strictly above ``s + t``. A band that holds every
    finite entry needs neither check. A row that fails one (sums made equal
    by rounding) brings its dense scores to the merge instead of its band:
    one ``step_nuclei`` call at top_p 1 for the step's failed rows, whose
    finite non-END entries are scored by the same float addition.

    Pass one memo to every call of a run to share states across calls; it
    must have been made for ``model`` and ``beam_size``, or this raises
    ``ValueError``. Without one, the call uses a fresh memo.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    if not 1 <= k <= beam_size:
        raise ValueError(f"k must be in [1, beam_size], got k={k} beam_size={beam_size}")
    if memo is None:
        memo = BandMemo(model, beam_size)
    memo.check(model, beam_size)
    width = memo.width
    finished: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in codes]
    # The live rows of every post, grouped by post, each group in
    # (-score, ids) order; ``rank`` orders a post's rows by their ids.
    post = np.arange(len(codes))
    rank = np.zeros(len(codes), dtype=np.int64)
    live = np.zeros(len(codes))
    tokens = np.full((len(codes), 1), START_ID, dtype=np.int64)
    while len(post):
        bands = memo.bands(codes, post, tokens)
        seqs = list(map(tuple, tokens[:, 1:].tolist()))
        owner = post.tolist()
        grew = set()
        for r, s in enumerate((live + bands[:, _END]).tolist()):
            if s > -np.inf:
                finished[owner[r]].append((s, seqs[r]))
                grew.add(owner[r])
        capped = tokens.shape[1] >= max_length
        count = k if capped else beam_size
        sums = live[:, None] + bands[:, 1 : _BAND + width]
        gaps, scores = sums[:, : _BAND - 1], sums[:, _BAND - 1 :].ravel()
        proven = (gaps[:, 0::2] > gaps[:, 1::2]).all(axis=1)
        # Every band entry of the step, a failed row's dense entries in
        # place of its band's, then each post's best ``count``.
        at = np.flatnonzero(scores > -np.inf)
        rows, scores = at // width, scores[at]
        toks = bands[:, _BAND + width :].ravel()[at].astype(np.int64)
        if not proven.all():
            keep = proven[rows]
            rows, toks, scores = rows[keep], toks[keep], scores[keep]
            failed = np.flatnonzero(~proven)
            states = model.step_states(codes, post[failed], tokens[failed])
            computed = model.step_nuclei(states, codes, post[failed], tokens[failed], 1.0, 1.0)
            logs = np.array(list(_log_distributions(computed, len(model.vocabulary))))
            dense = live[failed][:, None] + logs
            dense[:, END_ID] = -np.inf
            r, t = np.nonzero(dense > -np.inf)
            rows = np.concatenate((rows, failed[r]))
            toks = np.concatenate((toks, t))
            scores = np.concatenate((scores, dense[r, t]))
        order = np.lexsort((toks, rank[rows], -scores, post[rows]))
        owners = post[rows[order]]
        best = order[np.arange(len(order)) - owners.searchsorted(owners) < count]
        rows, toks, scores = rows[best], toks[best], scores[best]
        if capped:
            for r, t, s in zip(rows.tolist(), toks.tolist(), scores.tolist()):
                finished[owner[r]].append((s, seqs[r] + (t,)))
                grew.add(owner[r])
        for p in grew:
            finished[p] = sorted(finished[p], key=lambda e: (-e[0], e[1]))[:k]
        if capped:
            break
        # A post stops once its k-th finished score is strictly above its
        # best live one: see beam_search.
        owners = post[rows]
        firsts = np.flatnonzero(owners.searchsorted(owners) == np.arange(len(owners)))
        done = [
            p
            for p, s in zip(owners[firsts].tolist(), scores[firsts].tolist())
            if len(finished[p]) == k and finished[p][-1][0] > s
        ]
        child_rank = np.empty(len(rows), dtype=np.int64)
        child_rank[np.lexsort((toks, rank[rows], owners))] = np.arange(len(rows))
        post, rank, live = owners, child_rank, scores
        tokens = np.concatenate((tokens[rows], toks[:, None]), axis=1)
        if done:
            stop = np.zeros(len(codes), dtype=bool)
            stop[done] = True
            keep = ~stop[post]
            post, rank, live, tokens = post[keep], rank[keep], live[keep], tokens[keep]
    return [[list(ids) for _, ids in best] for best in finished]


def beam_search(
    model: GeneratorModel,
    code: Sequence[int],
    beam_size: int,
    k: int,
    max_length: int = 48,
) -> list[list[int]]:
    """Top-k END-terminated (or length-capped) sequences by log-probability.

    No length normalization. Ties break by lexicographic token-id order.
    Returned sequences are surface token ids without START or END. This
    is the one-post call of :func:`beam_pools`, which describes how the
    steps are computed.

    A step scores every live beam's expansions, keeps the best
    ``beam_size`` (``k`` of them at ``max_length``, where the capped rows
    finish) and adds each END expansion to the finished list. The search
    stops before ``max_length`` once the k-th best finished score is
    strictly greater than the best live score. This is exact: every
    probability is at most 1, so a live beam's score can only fall as it
    grows, and neither it nor anything it finishes can beat the k-th
    finished sequence. On equal scores a later sequence could still win
    the id tie-break, hence the strict comparison.
    """
    return beam_pools(model, [code], beam_size, k, max_length)[0]
