"""Autoregressive generator contract and a count-based n-gram model.

The decoding and ranking machinery only ever sees :class:`GeneratorModel`,
so any sequence model can be plugged in. The built-in :class:`NGramLM`
is an interpolated (Jelinek-Mercer style) count model: it trains in
milliseconds and is exactly reproducible, which is what the downstream
sampling and ranking experiments need.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
from abc import ABC, abstractmethod
from bisect import bisect_right
from pathlib import Path
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .text import END_ID, NEXT_ID, PAD_ID, START_ID, Vocabulary

#: Uniform probability floor added to every vocabulary entry before
#: renormalization. Keeps END reachable from any state.
FLOOR = 1e-6

#: Top floor + unigram ids ``NGramLM.step_nuclei`` first adds to a
#: state's hit ids; a miss widens it fourfold. On the benchmark's model at
#: top_p 0.8 a nucleus holds 19 ids on average and 174 at most.
_BORDER_FIRST = 64

#: Bytes of the (states x V) block ``NGramLM.step_nuclei`` takes at once;
#: larger batches run in chunks of as many states as fit. The block is
#: never filled: a cut writes and reads only its candidates' positions.
_BLOCK_BYTES = 2 << 20

#: Model file identity; a file of another version must be rebuilt.
FORMAT = "titlegen-ngram-lm"
VERSION = 3


class GeneratorModel(ABC):
    """Contract every generator must satisfy.

    ``next_distribution`` returns a probability vector over the model's
    vocabulary: entries in [0, 1], sum 1 within 1e-9, and exactly 0
    for PAD and START (neither may ever be generated). Beam search's
    early stop relies on no entry exceeding 1.

    Decoding reads a model only through two hooks, stepping many rows at
    once. ``step_states`` keys each row's state: equal keys must give
    bit-identical distributions, whatever the codes and prefixes they came
    from, so each state is computed once per run. ``step_nuclei`` computes
    the nuclei of the keys no memo entry holds: sampling's at its top_p
    and temperature, beam search's at top_p 1 and temperature 1, which is
    the whole distribution. Their defaults are exact for any model, one
    row at a time, and only the default ``step_nuclei`` calls
    ``next_distribution``; a model may override either hook with a faster
    exact path.
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

    def step_states(
        self, codes: Sequence[Sequence[int]], pools: np.ndarray, prefixes: np.ndarray
    ) -> list[Hashable]:
        """The state key of each row of a decoding step. Row ``i`` is the
        prefix ``prefixes[i]`` (a 2-D int64 array: every row of a step is
        START and as many ids) under the code ``codes[pools[i]]``.

        The default key, the code and the prefix themselves, suits any
        model whose output is a function of (code, prefix). A model that
        reads only part of them should return a coarser key, so more rows
        share one.
        """
        return [
            (tuple(codes[p]), tuple(prefix))
            for p, prefix in zip(pools.tolist(), prefixes.tolist())
        ]

    def step_nuclei(
        self,
        states: Sequence[Hashable],
        codes: Sequence[Sequence[int]],
        pools: np.ndarray,
        prefixes: np.ndarray,
        top_p: float,
        temperature: float,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The nucleus sampling draws from at each row of a step, as
        ``step_states`` reads the rows, whose keys are ``states``: the
        kept ids in ascending order and their probabilities after
        temperature, divided by the nucleus mass
        (``_kernels.nucleus_kernel``).

        The default checks each row's ``next_distribution`` vector against
        the contract and raises ``ValueError`` naming the rule it breaks.
        An override may compute the rows together, or from the keys alone,
        and must return arrays equal to the default's bit for bit.
        Sampling and beam search both refuse, with a ``ValueError``, a
        result that lacks a pair per state, or probabilities that are not
        all finite and nonnegative, or have no mass. Sampling also refuses
        a pair that is not 1-D arrays of integer ids and float64
        probabilities, as many of each, at least one, with ids in the
        vocabulary; beam search, one that is not a probability per
        vocabulary id.
        """
        size = len(self.vocabulary)
        return [
            _kernels.nucleus_kernel(
                _checked_distribution(self.next_distribution(codes[p], prefix), size),
                top_p,
                temperature,
            )
            for p, prefix in zip(pools.tolist(), prefixes.tolist())
        ]


def _checked_distribution(dist, size: int) -> np.ndarray:
    """``dist`` as a float64 vector, or a ``ValueError`` naming the rule
    of ``GeneratorModel.next_distribution`` it breaks."""
    try:
        arr = np.asarray(dist, dtype=np.float64)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (size,):
        raise ValueError(
            f"next_distribution must return a 1-D vector of {size} numbers, one per token"
        )
    total = arr.sum()
    # Two passes when the vector is valid: a NaN fails the first compare,
    # an inf the second.
    if not (arr.min() >= 0.0 and total < math.inf):
        if not np.isfinite(arr).all():
            raise ValueError("next_distribution entries must be finite")
        if arr.min() < 0.0:
            raise ValueError("next_distribution entries must be nonnegative")
    if arr[PAD_ID] != 0.0 or arr[START_ID] != 0.0:
        raise ValueError("next_distribution must give PAD and START probability 0")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"next_distribution must sum to 1 within 1e-9, got {float(total)!r}")
    return arr


class Level(NamedTuple):
    """One order level's counts in compressed sparse row form.

    Row ``r`` is the context ``contexts[r]`` (``l`` ids at level ``l``);
    rows are strictly ascending, compared id by id. The row saw the next
    ids ``next_ids[offsets[r]:offsets[r + 1]]``, strictly ascending, with
    the matching ``counts``, each at least 1.
    """

    contexts: np.ndarray  # (rows, l)
    offsets: np.ndarray  # (rows + 1,): 0, strictly increasing, entries
    next_ids: np.ndarray  # (entries,)
    counts: np.ndarray  # (entries,)


class _Stored(NamedTuple):
    """A model's arrays as its file holds them, in file order (see
    ``_layout``). Entries lie end to end, level after level; offsets and
    keys are each one run of all levels' arrays, in level order."""

    base: np.ndarray  # (V,) float64: the floor plus the weighted level-0 row
    next_ids: np.ndarray  # (entries,)
    values: np.ndarray  # (entries,) float64: weights[l] * count / row total
    counts: np.ndarray  # (entries,)
    offsets: np.ndarray  # each level's rows + 1 offsets into the entries
    keys: np.ndarray  # each level's context keys, up to the first past int64
    contexts: np.ndarray  # each further level's contexts, flattened


#: Each stored array's dtype on disk.
_DTYPES = dict(zip(_Stored._fields, ("<f8", "<i8", "<f8", "<i8", "<i8", "<i8", "<i8")))


class NGramLM(GeneratorModel):
    """Interpolated count n-gram model conditioned by prefix concatenation.

    Built from ``levels[l]``, a dict mapping each length-``l`` context
    tuple to next-token counts, for l in 0..order-1; ``model.levels``
    gives them back as read-only :class:`Level` arrays. Prediction
    mixes the levels with ``weights`` (uniform by default), adds the
    floor, zeroes PAD and START, and renormalizes. Levels whose context
    was never seen contribute nothing, so unseen histories back off
    toward the unigram mixture.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        levels: Sequence[dict[tuple[int, ...], dict[int, int]]],
        weights: Sequence[float] | None = None,
    ):
        self._build(order, vocab, [_level_from_dict(l, t) for l, t in enumerate(levels)], weights)

    @classmethod
    def _from_levels(
        cls,
        order: int,
        vocab: Vocabulary,
        levels: Sequence[Level],
        weights: Sequence[float] | None = None,
    ) -> "NGramLM":
        model = cls.__new__(cls)
        model._build(order, vocab, levels, weights)
        return model

    def _build(self, order, vocab, levels, weights) -> None:
        """Lay ``levels`` out as a model file holds them, check them, then
        compute every entry value ``weights[l] * count / row total``, one
        float operation after another, and the floor + level-0 row that
        ``save`` writes and ``load`` maps."""
        weights = _checked_settings(order, weights, len(levels))
        size = len(vocab)
        levels = [_checked_level(l, level, size) for l, level in enumerate(levels)]
        sizes = [[len(level.contexts), len(level.next_ids)] for level in levels]
        starts = itertools.accumulate((n for _, n in sizes), initial=0)
        keyed = _keyed_levels(len(levels), size)

        def joined(parts) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype=np.int64), *parts])

        stored = _Stored(
            base=np.full(size, FLOOR, dtype=np.float64),
            next_ids=joined(level.next_ids for level in levels),
            values=None,
            counts=joined(level.counts for level in levels),
            offsets=joined(level.offsets + start for level, start in zip(levels, starts)),
            keys=joined(_context_keys(level.contexts, size) for level in levels[:keyed]),
            contexts=joined(level.contexts.ravel() for level in levels[keyed:]),
        )
        long_keys = _checked_stored(stored, sizes, size)
        values, at = np.empty(len(stored.counts)), 0
        for l, (rows, n) in enumerate(sizes):
            offsets = stored.offsets[at : at + rows + 1]
            at += rows + 1
            start = offsets[0]
            counts, part = stored.counts[start : start + n], values[start : start + n]
            totals = np.add.reduceat(counts, offsets[:-1] - start)
            np.multiply(weights[l], counts, out=part)
            part /= np.repeat(totals, np.diff(offsets))
        n0 = sizes[0][1]
        stored.base[stored.next_ids[:n0]] += values[:n0]
        self._setup(order, vocab, weights, sizes, stored._replace(values=values), long_keys)

    def _setup(self, order, vocab, weights, sizes, stored, long_keys) -> None:
        """Check the entry values and the base row, then keep the arrays
        as a call reads them: ``_offset_arrays[l]`` holds level ``l``'s row
        offsets into the entries and ``_key_arrays[l]`` its context keys,
        each a view of the stored int64 array. The keys of a level where
        int64 could overflow (``V ** l >= 2 ** 63``) are ``long_keys``,
        object arrays of Python ints. The base row is kept as a copy with
        PAD and START at 0, beside its sum (see ``_distribution``). Nothing
        here is per entry or per row: ``levels`` is built on first use."""
        _check_values(stored, sizes, weights)
        at = list(itertools.accumulate((rows + 1 for rows, _ in sizes), initial=0))
        self._offset_arrays = [stored.offsets[a:b] for a, b in zip(at, at[1:])]
        keyed = _keyed_levels(order, len(vocab))
        at = list(itertools.accumulate((rows for rows, _ in sizes[:keyed]), initial=0))
        self._key_arrays = [*(stored.keys[a:b] for a, b in zip(at, at[1:])), *long_keys]
        self.order = order
        self._vocab = vocab
        self.weights = weights
        self._sizes = sizes
        self._stored = stored
        self._base = stored.base.copy()
        self._base[[PAD_ID, START_ID]] = 0.0
        self._base_total = float(self._base.sum())
        self._next_ids = stored.next_ids
        self._vals = stored.values
        self._levels: tuple[Level, ...] | None = None  # see levels
        self._border: tuple[np.ndarray, np.ndarray] | None = None  # see _border_order

    @property
    def levels(self) -> tuple[Level, ...]:
        """Each level's counts, read-only; contexts are read back from
        their keys. Built on first use: no call reads them."""
        if self._levels is None:
            size, keyed = len(self._vocab), _keyed_levels(self.order, len(self._vocab))
            levels, at = [], 0
            for l, offsets in enumerate(self._offset_arrays):
                start, end = int(offsets[0]), int(offsets[-1])
                rows = len(offsets) - 1
                if l < keyed:
                    contexts = np.empty((rows, l), dtype=np.int64)
                    keys = self._key_arrays[l].astype(np.int64)
                    for j in reversed(range(l)):
                        keys, contexts[:, j] = np.divmod(keys, size)
                else:
                    contexts = self._stored.contexts[at : at + rows * l].reshape(rows, l)
                    at += rows * l
                level = Level(
                    contexts,
                    offsets - start,
                    self._next_ids[start:end],
                    self._stored.counts[start:end],
                )
                for a in level:
                    a.flags.writeable = False
                levels.append(level)
            self._levels = tuple(levels)
        return self._levels

    # -- GeneratorModel --------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, code: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        """The distribution of the state ``step_states`` keys one row by."""
        if not len(prefix) or prefix[0] != START_ID:
            raise ValueError("prefix must begin with START")
        pools, prefixes = np.zeros(1, dtype=np.int64), np.array([prefix], dtype=np.int64)
        (key,) = self.step_states([code], pools, prefixes)
        return self._distribution(np.frombuffer(key, dtype=np.int64).tolist())

    def _distribution(self, rows: Sequence[int]) -> np.ndarray:
        """The distribution of the state whose hit row at level ``l`` is
        ``rows[l - 1]`` (-1: none): the floor + unigram row plus each hit
        row's values, shortest context first, PAD and START at 0, divided
        by the state's total. The total needs no vocabulary-wide sum: it is
        the floor + unigram row's sum with PAD and START at 0, taken once
        per model, plus each hit row's value sum, shortest context first.
        A row's sum is sequential in id order with its PAD and START
        entries left out. ``_block_nuclei`` adds the same floats in the
        same order."""
        out = self._base.copy()
        total = self._base_total
        for l, row in enumerate(rows, 1):
            if row >= 0:
                start, end = self._offset_arrays[l][row : row + 2].tolist()
                ids, vals = self._next_ids[start:end], self._vals[start:end]
                out[ids] += vals
                # Next ids ascend, so START (0) and PAD (2) can only lead a row.
                if ids[0] <= PAD_ID:
                    out[[PAD_ID, START_ID]] = 0.0
                    vals = np.where((ids == PAD_ID) | (ids == START_ID), 0.0, vals)
                total += vals.cumsum()[-1]
        out /= total
        return out

    def step_states(
        self, codes: Sequence[Sequence[int]], pools: np.ndarray, prefixes: np.ndarray
    ) -> list[bytes]:
        """Each row's hit rows (see ``_row_hits``), as the bytes of its
        int64 row. Equal hit rows are equal contexts, so equal keys give
        bit-identical distributions. Every level's hit counts, not only the
        longest: a hand-built model can hold a context without its shorter
        suffixes. A step's rows share their length, so the tails are one
        slice of ``prefixes``, joined to the codes' last ids while the
        prefixes are shorter than the tail."""
        span = self.order - 1
        if not span:
            return [b""] * len(prefixes)
        have = prefixes.shape[1]
        if have >= span:
            tails = prefixes[:, have - span :]
        else:
            # Each code's last ids and NEXT, ids outside the vocabulary as
            # -1, padded on the left with -1: no context holds -1.
            width, size = span - have, len(self._vocab)
            heads = np.full((len(codes), width), -1, dtype=np.int64)
            for p, code in enumerate(codes):
                ids = [t if 0 <= t < size else -1 for t in (*code[-width:], NEXT_ID)[-width:]]
                heads[p, width - len(ids) :] = ids
            tails = np.concatenate((heads[pools], prefixes), axis=1)
        hits = self._row_hits(tails)
        return hits.view(np.dtype((np.void, 8 * span))).ravel().tolist()

    def step_nuclei(
        self,
        states: Sequence[bytes],
        codes: Sequence[Sequence[int]],
        pools: np.ndarray,
        prefixes: np.ndarray,
        top_p: float,
        temperature: float,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The default's arrays, bit for bit, from the hit rows
        ``step_states`` keyed: no second lookup. At top_p 1 and temperature
        1 every pair shares one array of all ids. At temperature 1 and
        top_p below 1 they come from each state's hit ids and the floor +
        unigram order, with no fill, sum, divide, tail scan or partition
        over the vocabulary, and the states run together, a block of them
        at a time.

        Each total is ``next_distribution``'s (see ``_distribution``): one
        ``np.bincount`` over (state, level) slots takes every hit row's
        value sum, in id order, and each state adds its slots to the
        floor + unigram sum, shortest context first. An id no hit row holds
        keeps its floor + unigram value, so outside the hit ids and the
        first ``m`` ids of that order each id is at most the next one's
        value. The ids above it are then every id above it: in (-p, id)
        order they are a prefix of the dense stable order, ties included,
        with the same running sums. If those reach top_p, the nucleus is
        theirs; otherwise ``m`` widens, and at the vocabulary size the
        dense kernel runs on the state's ``_distribution``.
        """
        hits = np.frombuffer(b"".join(states), dtype=np.int64)
        hits = hits.reshape(len(states), self.order - 1)
        if top_p >= 1.0 and temperature == 1.0:
            ids = np.arange(len(self._vocab))
            return [(ids, self._distribution(rows)) for rows in hits.tolist()]
        if temperature != 1.0:
            return [
                _kernels.nucleus_kernel(self._distribution(rows), top_p, temperature)
                for rows in hits.tolist()
            ]
        rows = max(1, _BLOCK_BYTES // (8 * len(self._vocab)))
        found = []
        for at in range(0, len(hits), rows):
            found += self._block_nuclei(hits[at : at + rows], top_p)
        return found

    def _block_nuclei(self, hits, top_p) -> list[tuple[np.ndarray, np.ndarray]]:
        """``step_nuclei`` at temperature 1 for one block's worth of states.
        The (states x V) block is left unfilled: here only its hit
        positions get values, and ``_cut_block`` writes the border
        positions it reads."""
        states, span = hits.shape
        size = len(self._vocab)
        # Every hit row's entries, state by state, each state's rows
        # shortest context first: ``add.at`` and ``bincount`` add in array
        # order, so each entry gets its values, and each (state, level)
        # slot its sum, in ``next_distribution``'s order.
        starts = np.zeros((states, span), dtype=np.int64)
        lens = np.zeros((states, span), dtype=np.int64)
        for c in range(span):
            at = np.flatnonzero(hits[:, c] >= 0)
            offsets, rows = self._offset_arrays[c + 1], hits[at, c]
            starts[at, c] = offsets[rows]
            lens[at, c] = offsets[rows + 1] - starts[at, c]
        lens, starts = lens.ravel(), starts.ravel()
        slots = np.repeat(np.arange(states * span), lens)
        entries = np.repeat(starts - lens.cumsum() + lens, lens) + np.arange(len(slots))
        ids, values = self._next_ids[entries], self._vals[entries]
        dropped = (ids == PAD_ID) | (ids == START_ID)
        sums = np.bincount(slots, np.where(dropped, 0.0, values), states * span)
        totals = np.full(states, self._base_total)
        for c in range(span):
            totals += sums[c::span]
        block = np.empty((states, size))
        flat = block.reshape(-1)
        hit_keys = slots // span * size + ids
        flat[hit_keys] = self._base[ids]
        np.add.at(flat, hit_keys, values)
        hit_values = flat[hit_keys]
        hit_values[dropped] = 0.0
        found = [None] * states
        pending = np.arange(states)
        m = _BORDER_FIRST
        while pending.size and m < size:
            pending = self._cut_block(block, totals, pending, hit_keys, hit_values, m, top_p, found)
            m *= 4
        for s in pending.tolist():
            found[s] = _kernels.nucleus_kernel(self._distribution(hits[s].tolist()), top_p, 1.0)
        return found

    def _cut_block(self, block, totals, pending, hit_keys, hit_values, m, top_p, found):
        """Cut each pending state's nucleus among its hit ids and the first
        ``m`` border ids into ``found`` with ``_kernels.nucleus_cut``;
        returns the states whose running sum fell short. ``hit_keys`` are
        state * V + id, ``hit_values`` their values. The cut reads only
        the block positions it writes first."""
        size = block.shape[1]
        flat = block.reshape(-1)
        border, border_vals = self._border_order()
        if len(pending) < block.shape[0]:
            mine = np.isin(hit_keys // size, pending)
            hit_keys, hit_values = hit_keys[mine], hit_values[mine]
        # The floor + unigram values at the border ids, then the hit values
        # over them where the two meet.
        border_keys = pending[:, None] * size + border[:m]
        flat[border_keys] = border_vals[:m]
        flat[hit_keys] = hit_values
        keys = np.concatenate((hit_keys, border_keys.ravel()))
        tot = totals[keys // size]
        keys = keys[flat[keys] / tot > border_vals[m] / tot]
        # Each state's candidates once, ascending by state, then id.
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        # One row of probabilities per pending state, in id order, padded
        # with zeros.
        if not len(keys):
            return pending
        rows = np.searchsorted(pending, keys // size)
        counts = np.bincount(rows, minlength=len(pending))
        cols = np.arange(len(keys)) - (counts.cumsum() - counts)[rows]
        grid = np.zeros((len(pending), counts.max()))
        grid[rows, cols] = flat[keys]
        grid /= totals[pending][:, None]
        kept, mass, done = _kernels.nucleus_cut(grid, top_p)
        kept &= done[:, None]
        sizes = kept.sum(axis=1)
        q = grid[kept] / np.repeat(mass, sizes)
        ids = keys[kept[rows, cols]] % size
        ends = sizes.cumsum().tolist()
        for s in np.flatnonzero(done).tolist():
            start = ends[s - 1] if s else 0
            found[pending[s]] = (ids[start : ends[s]], q[start : ends[s]])
        return pending[~done]

    def _border_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Every id in stable descending order of its floor + unigram
        value with PAD and START at 0, and those values. Built on first use,
        so a model that never samples never sorts."""
        if self._border is None:
            ids = np.argsort(-self._base, kind="stable")
            self._border = (ids, self._base[ids])
        return self._border

    def _row_hits(self, tails: np.ndarray) -> np.ndarray:
        """Entry ``l - 1`` of each row: the row of level ``l`` whose context
        is the last ``l`` ids of that row of ``tails``, an (n, order - 1)
        int64 array, or -1. One ``searchsorted`` per level serves all rows.
        A row's key grows by one base-V digit per level, as Python ints
        from the first level whose keys pass int64, and an id outside the
        vocabulary ends its search: no context holds it."""
        n, span = tails.shape
        size = len(self._vocab)
        hits = np.full((n, span), -1, dtype=np.int64)
        key = np.zeros(n, dtype=np.int64)
        live = np.ones(n, dtype=bool)
        scale = 1
        for l in range(1, span + 1):
            keys = self._key_arrays[l]
            tok = tails[:, span - l]
            live &= (tok >= 0) & (tok < size)
            digit = np.where(live, tok, 0)
            if keys.dtype == object:
                key, digit = key.astype(object), digit.astype(object)
            key = key + digit * scale
            scale *= size
            if not len(keys):
                continue
            row = np.minimum(keys.searchsorted(key), len(keys) - 1)
            found = live & (keys[row] == key)
            hits[found, l - 1] = row[found]
        return hits

    # -- serialization ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the model file: one JSON header line (format, version,
        order, weights, vocabulary, each level's [rows, entries], and the
        arrays that follow as ``_layout`` lists them), padded with spaces
        so the arrays start on an 8-byte boundary, then the arrays, little
        endian. The bytes depend only on the model."""
        header = {
            "format": FORMAT,
            "version": VERSION,
            "order": self.order,
            "weights": self.weights,
            "vocabulary": list(self._vocab.tokens),
            "levels": self._sizes,
            "arrays": _layout(self._sizes, len(self._vocab)),
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":"))
        head += " " * (-(len(head) + 1) % 8) + "\n"
        from .records import write_atomic  # records depends on this module

        def write(fh) -> None:
            fh.write(head.encode("ascii"))
            for name, a in zip(_Stored._fields, self._stored):
                fh.write(a.astype(_DTYPES[name], copy=False).tobytes())

        write_atomic(path, write, binary=True)

    @classmethod
    def load(cls, path: str | Path) -> "NGramLM":
        """Read a file written by :meth:`save`. The file is mapped
        read-only, not copied; the model's arrays are read-only views of
        the mapping, checked with array operations, and nothing is
        computed per entry or per row. Any malformed content is a
        ``ValueError`` naming the file. A file replaced by rename, as
        ``save`` replaces one, leaves a loaded model as it was; truncating
        the file in place while a model of it is loaded is unsupported."""
        with open(path, "rb") as fh:
            # mmap refuses an empty file with an error of its own.
            if os.fstat(fh.fileno()).st_size == 0:
                raise ValueError(f"not a model file: {path}")
            raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        end = raw.find(b"\n")
        try:
            header = json.loads(raw[:end]) if end >= 0 else None
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise ValueError(f"not a model file: {path}")
        if header.get("version") != VERSION:
            raise ValueError(
                f"model {path} has format version {header.get('version')!r}, not {VERSION};"
                " rerun train-lm to rebuild it"
            )
        missing = {"order", "weights", "vocabulary", "levels", "arrays"} - header.keys()
        if missing:
            raise ValueError(f"model {path} lacks {sorted(missing)}")
        tokens, sizes = header["vocabulary"], header["levels"]
        if not (isinstance(tokens, list) and tokens and _all_str(tokens)):
            raise ValueError(f"model {path}: vocabulary must be a list of strings")
        if not isinstance(sizes, list) or not all(
            isinstance(s, list) and len(s) == 2 and all(_is_count(n) for n in s) for s in sizes
        ):
            raise ValueError(f"model {path}: levels must be [rows, entries] integer pairs >= 0")
        layout = _layout(sizes, len(tokens))
        if header["arrays"] != layout:
            raise ValueError(
                f"model {path}: the header's arrays do not fit its vocabulary and level sizes"
            )
        lengths = dict.fromkeys(_Stored._fields, 0)
        for name, _, n in layout:
            lengths[name.partition("[")[0]] += n
        expected = 8 * sum(lengths.values())
        if len(raw) - end - 1 != expected:
            raise ValueError(
                f"model {path}: the header's level sizes need {expected} bytes of arrays,"
                f" the file holds {len(raw) - end - 1}"
            )
        parts, at = [], end + 1
        for name, n in lengths.items():
            parts.append(np.frombuffer(raw, dtype=_DTYPES[name], count=n, offset=at))
            at += 8 * n
        stored = _Stored(*parts)
        model = cls.__new__(cls)
        try:
            weights = _checked_settings(header["order"], header["weights"], len(sizes))
            long_keys = _checked_stored(stored, sizes, len(tokens))
            model._setup(header["order"], Vocabulary(tokens), weights, sizes, stored, long_keys)
        except ValueError as exc:
            raise ValueError(f"model {path}: {exc}") from None
        return model


def _layout(sizes: Sequence[Sequence[int]], vocab_size: int) -> list[list]:
    """The arrays of a model file after its header, in file order, as
    [name, dtype, length]: the base row, the entries' next ids, values
    and counts, then each level's offsets, then each level's context keys
    or, from the first level where int64 could overflow on, its contexts
    flattened. Offsets and keys are written level after level, so each
    kind is one run of the file (see :class:`_Stored`)."""
    entries = sum(n for _, n in sizes)
    keyed = _keyed_levels(len(sizes), vocab_size)
    parts = [("base", vocab_size), ("next_ids", entries), ("values", entries), ("counts", entries)]
    parts += [(f"offsets[{l}]", rows + 1) for l, (rows, _) in enumerate(sizes)]
    parts += [(f"keys[{l}]", rows) for l, (rows, _) in enumerate(sizes[:keyed])]
    parts += [(f"contexts[{l}]", rows * l) for l, (rows, _) in enumerate(sizes) if l >= keyed]
    return [[name, _DTYPES[name.partition("[")[0]], n] for name, n in parts]


def _keyed_levels(order: int, vocab_size: int) -> int:
    """How many levels, from level 0 up, key their contexts in int64:
    those with ``vocab_size ** l < 2 ** 63``."""
    return next((l for l in range(order) if vocab_size**l >= 2**63), order)


def _all_str(items: list) -> bool:
    """Whether every item is a str. ``str.join`` checks them in C, several
    times faster than a test per item."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _checked_settings(order, weights, levels: int) -> list[float]:
    """The interpolation weights as floats, uniform if ``None``, or a
    ``ValueError`` if they or ``order`` do not fit ``levels`` levels."""
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    if levels != order:
        raise ValueError(f"expected {order} count levels, got {levels}")
    if weights is None:
        return [1.0 / order] * order
    if not isinstance(weights, (list, tuple)) or not all(
        isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
    ):
        raise ValueError(f"weights must be a list of numbers, got {weights!r}")
    bad = "weights must be finite and nonnegative, one per order level"
    try:
        weights = [float(w) for w in weights]
    except OverflowError:  # an int past the float range
        raise ValueError(bad) from None
    if len(weights) != order or not all(0.0 <= w < math.inf for w in weights):
        raise ValueError(bad)
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return weights


def _level_from_dict(l: int, table: dict[tuple[int, ...], dict[int, int]]) -> Level:
    rows = sorted(table.items())
    for ctx, _ in rows:
        if len(ctx) != l:
            raise ValueError(f"level {l} holds a context of length {len(ctx)}")
    nexts = [sorted(counts.items()) for _, counts in rows]
    entries = [pair for row in nexts for pair in row]
    return Level(
        contexts=np.array([ctx for ctx, _ in rows], dtype=np.int64).reshape(len(rows), l),
        offsets=np.cumsum([0, *map(len, nexts)], dtype=np.int64),
        next_ids=np.array([t for t, _ in entries], dtype=np.int64),
        counts=np.array([c for _, c in entries], dtype=np.int64),
    )


def _checked_level(l: int, level: Level, vocab_size: int) -> Level:
    """``level`` as int64 arrays whose shapes fit together and whose
    context ids lie in the vocabulary, so its context keys are defined,
    or a ``ValueError``. ``_checked_stored`` checks the other rules of
    :class:`Level` once the levels are laid out."""
    contexts, offsets, next_ids, counts = (np.asarray(a, dtype=np.int64) for a in level)
    rows, entries = len(contexts), len(next_ids)
    if contexts.shape != (rows, l) or offsets.shape != (rows + 1,) or counts.shape != (entries,):
        raise ValueError(f"level {l}: array shapes do not fit {rows} contexts of length {l}")
    _check_ids(contexts, vocab_size)
    return Level(contexts, offsets, next_ids, counts)


def _check_ids(ids: np.ndarray, vocab_size: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        bad = ids.min() if ids.min() < 0 else ids.max()
        raise ValueError(f"token id {bad} is outside the vocabulary of {vocab_size} tokens")


def _rises(a: np.ndarray, starts) -> bool:
    """Whether ``a`` increases strictly within each run that begins at
    an index of ``starts``: one pass over ``a``, however many runs."""
    rise = np.ones(len(a) + 1, dtype=bool)
    np.greater(a[1:], a[:-1], out=rise[1:-1])
    rise[starts] = True
    return bool(rise.all())


def _checked_stored(stored: _Stored, sizes, vocab_size: int) -> list[np.ndarray]:
    """Check a model's count arrays against the rules of :class:`Level`,
    each rule in one pass over all levels, with no sort; returns the
    context keys of the levels past int64, as object arrays of Python
    ints. A ``ValueError`` names the rule broken and, once a pass fails,
    the first level that breaks it."""
    rows = [r for r, _ in sizes]
    ends = list(itertools.accumulate(n for _, n in sizes))
    starts = [e - n for e, (_, n) in zip(ends, sizes)]
    # Level l's offsets are offsets[at[l]:at[l + 1]].
    at = list(itertools.accumulate((r + 1 for r in rows), initial=0))
    offsets = stored.offsets
    firsts, lasts = offsets[at[:-1]], offsets[np.subtract(at[1:], 1)]
    if (firsts != starts).any() or (lasts != ends).any() or not _rises(offsets, at):
        for l, (a, b) in enumerate(zip(at, at[1:])):
            if firsts[l] != starts[l] or lasts[l] != ends[l] or not _rises(offsets[a:b], 0):
                raise ValueError(
                    f"level {l}: offsets must start at {starts[l]}, increase strictly"
                    f" and end at {ends[l]}"
                )
    next_ids, counts = stored.next_ids, stored.counts
    _check_ids(next_ids, vocab_size)
    if counts.size and counts.min() < 1:
        i = int(counts.argmin())
        raise ValueError(f"level {bisect_right(ends, i)}: counts must be >= 1, got {counts[i]}")
    # A row's first entry may be below the previous row's last.
    if not _rises(next_ids, offsets):
        for l, (a, b) in enumerate(zip(at, at[1:])):
            if not _rises(next_ids[starts[l] : ends[l]], offsets[a:b] - starts[l]):
                raise ValueError(
                    f"level {l}: next ids must be strictly ascending within each context"
                )
    keyed = _keyed_levels(len(sizes), vocab_size)
    keys = stored.keys
    at = list(itertools.accumulate(rows[:keyed], initial=0))
    ascending = _rises(keys, at)
    for l, (a, b) in enumerate(zip(at, at[1:])):
        if a < b and not (
            keys[a] >= 0
            and keys[b - 1] < vocab_size**l
            and (ascending or _rises(keys[a:b], 0))
        ):
            raise ValueError(
                f"level {l}: context keys must be strictly ascending in [0, {vocab_size**l})"
            )
    long_keys, at = [], 0
    for l in range(keyed, len(sizes)):
        contexts = stored.contexts[at : at + rows[l] * l].reshape(rows[l], l)
        at += rows[l] * l
        _check_ids(contexts, vocab_size)
        level_keys = _context_keys(contexts, vocab_size)
        if (np.diff(level_keys) < 1).any():
            raise ValueError(f"level {l}: contexts must be strictly ascending")
        long_keys.append(level_keys)
    return long_keys


def _check_values(stored: _Stored, sizes, weights: Sequence[float]) -> None:
    """Raise ``ValueError`` unless every entry value lies in (0, 1], or
    is 0 on a level of weight 0, and the base row in (0, 1 + FLOOR]: what
    the computed ones satisfy, and enough for every distribution to hold
    ``GeneratorModel``'s contract."""
    start = 0
    for l, ((_, n), w) in enumerate(zip(sizes, weights)):
        part = stored.values[start : start + n]
        start += n
        if not n:
            continue
        # min and max are NaN if any value is, and then fail both tests.
        lo, hi = part.min(), part.max()
        if w and not (0.0 < lo and hi <= 1.0):
            raise ValueError(f"level {l}: values must be finite and in (0, 1]")
        if not w and not lo == hi == 0.0:
            raise ValueError(f"level {l}: values must be 0 on a level of weight 0")
    base = stored.base
    if not (0.0 < base.min() and base.max() <= 1.0 + FLOOR):
        raise ValueError(f"base row entries must be finite and in (0, {1.0 + FLOOR!r}]")


def _context_keys(contexts: np.ndarray, vocab_size: int) -> np.ndarray:
    """Each context's ids, all in ``0..vocab_size-1``, read as the digits
    of a base-``vocab_size`` number, the first most significant. Keys
    order as the contexts do, id by id. They are Python ints where int64
    could overflow."""
    l = contexts.shape[1]
    digits = contexts.astype(np.int64 if vocab_size**l < 2**63 else object, copy=False)
    keys = digits[:, 0] if l else np.zeros(len(contexts), dtype=np.int64)
    for j in range(1, l):
        keys = keys * vocab_size + digits[:, j]
    return keys


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

    Level ``l`` counts its (context, token) windows with one ``np.unique``
    over integer keys. A window's key is its first id times the number of
    distinct windows one level down, plus the rank of its last ``l`` ids
    there, so keys sort as the windows do, id by id, and stay below
    ``V`` times the number of positions.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not pairs:
        raise ValueError("empty corpus")
    # A context reaches back at most order - 1 ids from a title position,
    # so no code id before the last ``order`` is ever read.
    seqs = [[*code[-order:], NEXT_ID, START_ID, *title, END_ID] for code, title in pairs]
    flat = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64)
    if flat.min() < 0 or flat.max() >= len(vocab):
        bad = flat.min() if flat.min() < 0 else flat.max()
        raise ValueError(f"token id {bad} is outside the vocabulary of {len(vocab)} tokens")
    # Predicted positions: the title and END of each sequence, as indices
    # into ``flat`` and as positions within their own sequence.
    sizes = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    predicted = np.fromiter((len(title) + 1 for _, title in pairs), np.int64, len(pairs))
    ends = np.cumsum(sizes)
    where = np.arange(predicted.sum()) - np.repeat(np.cumsum(predicted) - ends, predicted)
    depth = where - np.repeat(ends - sizes, predicted)
    key, radix = flat[where], 0
    levels = []
    for l in range(order):
        if l:
            keep = depth >= l
            where, depth = where[keep], depth[keep]
            key = flat[where - l] * radix + key[keep]
        _, first, key, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        radix = len(first)
        # l context ids, then the token, per distinct window
        levels.append(_level_of_windows(flat[where[first, None] + np.arange(-l, 1)], counts))
    return NGramLM._from_levels(order, vocab, levels, weights)


def _level_of_windows(windows: np.ndarray, counts: np.ndarray) -> Level:
    """The level whose distinct (context, token) windows, sorted, are the
    rows of ``windows``, seen ``counts`` times."""
    l = windows.shape[1] - 1
    new = np.ones(len(windows), dtype=bool)
    new[1:] = (windows[1:, :l] != windows[:-1, :l]).any(axis=1)
    starts = np.flatnonzero(new)
    return Level(windows[starts, :l], np.append(starts, len(windows)), windows[:, l].copy(), counts)
