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
from array import array
from bisect import bisect_left
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

#: Bytes of the (states x V) block ``NGramLM.step_nuclei`` fills at once;
#: larger batches run in chunks of as many states as fit.
_BLOCK_BYTES = 2 << 20

#: Model file identity; a file of another version must be rebuilt.
FORMAT = "titlegen-ngram-lm"
VERSION = 2
_INT = np.dtype("<i8")


class GeneratorModel(ABC):
    """Contract every generator must satisfy.

    ``next_distribution`` returns a probability vector over the model's
    vocabulary: entries in [0, 1], sum 1 within 1e-9, and exactly 0
    for PAD and START (neither may ever be generated). Beam search's
    early stop relies on no entry exceeding 1.

    Sampling steps many rows at once and calls two hooks. ``step_states``
    keys each row's state: equal keys must give bit-identical
    distributions, whatever the codes and prefixes they came from.
    ``step_nuclei`` computes the nuclei of the keys no entry of
    ``decode.NucleusMemo`` holds, each once per run. Their defaults are
    exact for any model, one row at a time; a model may override either
    with a faster exact path.
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
        and must return arrays equal to the default's bit for bit;
        sampling refuses one whose result lacks a pair per state, or a
        pair of as many probabilities as ids, at least one, with positive
        mass and ids in the vocabulary.
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
        raise ValueError(f"next_distribution must sum to 1 within 1e-9, got {total!r}")
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


class NGramLM(GeneratorModel):
    """Interpolated count n-gram model conditioned by prefix concatenation.

    Built from ``levels[l]``, a dict mapping each length-``l`` context
    tuple to next-token counts, for l in 0..order-1; the model keeps them
    as read-only :class:`Level` arrays (``model.levels``). Prediction
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
        self._setup(order, vocab, [_level_from_dict(l, t) for l, t in enumerate(levels)], weights)

    @classmethod
    def _from_levels(
        cls,
        order: int,
        vocab: Vocabulary,
        levels: Sequence[Level],
        weights: Sequence[float] | None = None,
    ) -> "NGramLM":
        model = cls.__new__(cls)
        model._setup(order, vocab, levels, weights)
        return model

    def _setup(self, order, vocab, levels, weights) -> None:
        """Validate the arrays, then precompute what a call reads: the
        floor plus the weighted level-0 row, and every level's next ids
        and entry values ``weights[l] * count / row total``, one float
        operation after another, so distributions do not depend on how
        the counts were stored. The entries lie end to end, level after
        level, and ``_offsets[l]`` holds level ``l``'s row offsets into
        them. A context's row is found by bisecting its level's sorted
        keys (see ``_context_keys``).

        Offsets and keys are ``array('q')`` copies of the int64 arrays'
        bytes, so a load builds no Python object per row; an index into
        one gives a Python int, as a list would, and ``_offset_arrays``
        and ``_key_arrays`` are int64 views of the same bytes for the
        batched paths. Keys of a level where int64 could overflow
        (``V ** l >= 2 ** 63``) are Python ints and stay a list, with no
        view."""
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if len(levels) != order:
            raise ValueError(f"expected {order} count levels, got {len(levels)}")
        if weights is None:
            weights = [1.0 / order] * order
        if not isinstance(weights, (list, tuple)) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights
        ):
            raise ValueError(f"weights must be a list of numbers, got {weights!r}")
        weights = [float(w) for w in weights]
        if len(weights) != order or not all(0.0 <= w < math.inf for w in weights):
            raise ValueError("weights must be finite and nonnegative, one per order level")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        checked = [_checked_level(l, level, len(vocab)) for l, level in enumerate(levels)]
        levels = tuple(level for level, _ in checked)

        next_ids = np.concatenate([level.next_ids for level in levels])
        # Each level fills its slice of one array: no per-level copies to join.
        vals, offsets, start = np.empty(len(next_ids)), [], 0
        for l, level in enumerate(levels):
            part = vals[start : start + len(level.next_ids)]
            totals = np.add.reduceat(level.counts, level.offsets[:-1])
            np.multiply(weights[l], level.counts, out=part)
            part /= np.repeat(totals, np.diff(level.offsets))
            offsets.append(array("q", (level.offsets + start).tobytes()))
            start += len(level.next_ids)
        base = np.full(len(vocab), FLOOR, dtype=np.float64)
        base[levels[0].next_ids] += vals[: len(levels[0].next_ids)]
        self.order = order
        self._vocab = vocab
        self.levels = levels
        self.weights = weights
        self._base = base
        self._next_ids = next_ids
        self._vals = vals
        self._offsets = offsets
        # Ascending, in row order; Python ints only where int64 could overflow.
        self._keys = [
            keys.tolist() if keys.dtype == object else array("q", keys.tobytes())
            for _, keys in checked
        ]
        self._offset_arrays = [np.frombuffer(o, dtype=np.int64) for o in offsets]
        self._key_arrays = [
            np.frombuffer(k, dtype=np.int64) if isinstance(k, array) else None
            for k in self._keys
        ]
        self._border: tuple[np.ndarray, np.ndarray] | None = None  # see _border_order

    # -- GeneratorModel --------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, code: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        return self._distribution(self._walk(self._tail(code, prefix)))

    def _distribution(self, rows: Sequence[int]) -> np.ndarray:
        """The distribution of the state whose hit row at level ``l`` is
        ``rows[l - 1]`` (-1: none): the floor + unigram row plus each hit
        row's values, shortest context first; ``_block_nuclei`` adds them
        in the same order per entry."""
        out = self._base.copy()
        for l, row in enumerate(rows, 1):
            if row >= 0:
                offsets = self._offsets[l]
                start, end = offsets[row], offsets[row + 1]
                out[self._next_ids[start:end]] += self._vals[start:end]
        out[PAD_ID] = 0.0
        out[START_ID] = 0.0
        out /= out.sum()
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
        ``step_states`` keyed: no walk. At temperature 1 and top_p below 1
        they come from each state's hit ids and the floor + unigram order,
        with no divide, tail scan or partition over the vocabulary, and
        the states run together, a block of them at a time.

        Each total is ``next_distribution``'s: the same vector, the same
        sum. An id no hit row holds keeps its floor + unigram value, so
        outside the hit ids and the first ``m`` ids of that order each id
        is at most the next one's value. The ids above it are then every
        id above it: in (-p, id) order they are a prefix of the dense
        stable order, ties included, with the same running sums. If those
        reach top_p, the nucleus is theirs; otherwise ``m`` widens, and
        at the vocabulary size the dense kernel runs.
        """
        hits = np.frombuffer(b"".join(states), dtype=np.int64)
        hits = hits.reshape(len(states), self.order - 1)
        if temperature != 1.0 or top_p >= 1.0:
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
        """``step_nuclei`` at temperature 1 for one block's worth of states."""
        states, span = hits.shape
        size = len(self._vocab)
        block = np.empty((states, size))
        block[:] = self._base
        flat = block.reshape(-1)
        # Every hit row's entries, state by state, each state's rows
        # shortest context first: ``add.at`` adds in array order, so each
        # entry gets its values in ``next_distribution``'s order.
        starts = np.zeros((states, span), dtype=np.int64)
        lens = np.zeros((states, span), dtype=np.int64)
        for c in range(span):
            at = np.flatnonzero(hits[:, c] >= 0)
            offsets, rows = self._offset_arrays[c + 1], hits[at, c]
            starts[at, c] = offsets[rows]
            lens[at, c] = offsets[rows + 1] - starts[at, c]
        who = np.repeat(np.arange(states, dtype=np.int64) * size, span)
        lens, starts = lens.ravel(), starts.ravel()
        starts = starts - lens.cumsum() + lens
        entries = np.repeat(starts, lens) + np.arange(lens.sum())
        hit_keys = np.repeat(who, lens) + self._next_ids[entries]
        np.add.at(flat, hit_keys, self._vals[entries])
        block[:, PAD_ID] = 0.0
        block[:, START_ID] = 0.0
        totals = block.sum(axis=1)
        found = [None] * states
        pending = np.arange(states)
        m = _BORDER_FIRST
        while pending.size and m < size:
            pending = self._cut_block(block, totals, pending, hit_keys, m, top_p, found)
            m *= 4
        for s in pending:
            found[s] = _kernels.nucleus_kernel(block[s] / totals[s], top_p, 1.0)
        return found

    def _cut_block(self, block, totals, pending, hit_keys, m, top_p, found):
        """Cut each pending state's nucleus among its hit ids and the first
        ``m`` border ids into ``found`` with ``_kernels.nucleus_cut``;
        returns the states whose running sum fell short. ``hit_keys`` are
        state * V + id."""
        size = block.shape[1]
        flat = block.reshape(-1)
        border, border_vals = self._border_order()
        if len(pending) < block.shape[0]:
            hit_keys = hit_keys[np.isin(hit_keys // size, pending)]
        keys = np.concatenate((hit_keys, (pending[:, None] * size + border[:m]).ravel()))
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
            base = self._base.copy()
            base[PAD_ID] = 0.0
            base[START_ID] = 0.0
            ids = np.argsort(-base, kind="stable")
            self._border = (ids, base[ids])
        return self._border

    def _tail(self, code: Sequence[int], prefix: Sequence[int]) -> tuple:
        """The last ``order - 1`` ids of ``code + [NEXT] + prefix``, or all
        of them if there are fewer: the ids the distribution depends on."""
        if not prefix or prefix[0] != START_ID:
            raise ValueError("prefix must begin with START")
        span = self.order - 1
        if len(prefix) >= span:
            return tuple(prefix[len(prefix) - span :])
        return (*code[-span:], NEXT_ID, *prefix)[-span:]

    def _walk(self, tail: Sequence[int]) -> list[int]:
        """The hit row of each level, -1 where none: entry ``l - 1`` is the
        row of level ``l`` whose context is the last ``l`` ids of ``tail``.
        A level is searched with ``bisect_left`` on its keys, an
        ``array('q')`` or, past int64, a list of Python ints (see
        ``_setup``); both compare as ints."""
        size = len(self._vocab)
        rows = [-1] * (self.order - 1)
        key, scale = 0, 1
        for l in range(1, len(tail) + 1):
            tok = tail[-l]
            if not 0 <= tok < size:
                break  # no context holds it, so no longer suffix can match
            key += int(tok) * scale
            scale *= size
            keys = self._keys[l]
            row = bisect_left(keys, key)
            if row < len(keys) and keys[row] == key:
                rows[l - 1] = row
        return rows

    def _row_hits(self, tails: np.ndarray) -> np.ndarray:
        """``_walk`` of every row of ``tails``, an (n, order - 1) int64
        array, as an array of the same shape, with one ``searchsorted`` per
        level for all rows. A row's key grows by one digit per level, and
        an id outside the vocabulary ends its search, as in ``_walk``.
        From the first level whose keys pass int64 on, the rows still
        searching are walked one by one."""
        n, span = tails.shape
        size = len(self._vocab)
        hits = np.full((n, span), -1, dtype=np.int64)
        key = np.zeros(n, dtype=np.int64)
        live = np.ones(n, dtype=bool)
        scale = 1
        for l in range(1, span + 1):
            keys = self._key_arrays[l]
            if keys is None:
                for i in np.flatnonzero(live).tolist():
                    hits[i] = self._walk(tails[i].tolist())
                break
            tok = tails[:, span - l]
            live &= (tok >= 0) & (tok < size)
            key += np.where(live, tok, 0) * scale
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
        order, weights, vocabulary, and each level's [rows, entries]),
        padded with spaces so the arrays start on an 8-byte boundary,
        then each level's ``contexts``, ``offsets``, ``next_ids`` and
        ``counts`` as little-endian int64. The bytes depend only on the
        model."""
        header = {
            "format": FORMAT,
            "version": VERSION,
            "order": self.order,
            "weights": self.weights,
            "vocabulary": list(self._vocab.tokens),
            "levels": [[len(level.contexts), len(level.counts)] for level in self.levels],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":"))
        head += " " * (-(len(head) + 1) % 8) + "\n"
        from .records import write_atomic  # records depends on this module

        def write(fh) -> None:
            fh.write(head.encode("ascii"))
            for level in self.levels:
                for a in level:
                    fh.write(a.astype(_INT).tobytes())

        write_atomic(path, write, binary=True)

    @classmethod
    def load(cls, path: str | Path) -> "NGramLM":
        """Read a file written by :meth:`save`. The file is mapped
        read-only, not copied, and the level arrays are read-only views of
        the mapping, checked with array operations; any malformed content
        is a ``ValueError`` naming the file. A file replaced by rename, as
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
        missing = {"order", "weights", "vocabulary", "levels"} - header.keys()
        if missing:
            raise ValueError(f"model {path} lacks {sorted(missing)}")
        tokens, sizes = header["vocabulary"], header["levels"]
        if not (isinstance(tokens, list) and tokens and _all_str(tokens)):
            raise ValueError(f"model {path}: vocabulary must be a list of strings")
        if not isinstance(sizes, list) or not all(
            isinstance(s, list) and len(s) == 2 and all(_is_count(n) for n in s) for s in sizes
        ):
            raise ValueError(f"model {path}: levels must be [rows, entries] integer pairs >= 0")
        lengths = [(rows * l, rows + 1, n, n) for l, (rows, n) in enumerate(sizes)]
        expected = _INT.itemsize * sum(map(sum, lengths))
        if len(raw) - end - 1 != expected:
            raise ValueError(
                f"model {path}: the header's level sizes need {expected} bytes of arrays,"
                f" the file holds {len(raw) - end - 1}"
            )
        flat = np.frombuffer(raw, dtype=_INT, offset=end + 1)
        levels, at = [], 0
        for l, (rows, _) in enumerate(sizes):
            parts = []
            for n in lengths[l]:
                parts.append(flat[at : at + n])
                at += n
            parts[0] = parts[0].reshape(rows, l)
            levels.append(Level(*parts))
        try:
            return cls._from_levels(
                header["order"], Vocabulary(tokens), levels, header["weights"]
            )
        except ValueError as exc:
            raise ValueError(f"model {path}: {exc}") from None


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


def _checked_level(l: int, level: Level, vocab_size: int) -> tuple[Level, np.ndarray]:
    """``level`` as read-only int64 arrays, with its context keys, or a
    ``ValueError`` saying which rule of :class:`Level` it breaks."""
    contexts, offsets, next_ids, counts = (np.asarray(a, dtype=np.int64) for a in level)
    rows, entries = len(contexts), len(next_ids)
    if contexts.shape != (rows, l) or offsets.shape != (rows + 1,) or counts.shape != (entries,):
        raise ValueError(f"level {l}: array shapes do not fit {rows} contexts of length {l}")
    if offsets[0] != 0 or offsets[-1] != entries or (np.diff(offsets) < 1).any():
        raise ValueError(
            f"level {l}: offsets must start at 0, increase strictly and end at {entries}"
        )
    for ids in (contexts, next_ids):
        if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
            bad = ids.min() if ids.min() < 0 else ids.max()
            raise ValueError(f"token id {bad} is outside the vocabulary of {vocab_size} tokens")
    if entries and counts.min() < 1:
        raise ValueError(f"level {l}: counts must be >= 1, got {counts.min()}")
    keys = _context_keys(contexts, vocab_size)
    if (np.diff(keys) < 1).any():
        raise ValueError(f"level {l}: contexts must be strictly ascending")
    steps = np.diff(next_ids)
    steps[offsets[1:-1] - 1] = 1  # a new row may start anywhere
    if (steps < 1).any():
        raise ValueError(f"level {l}: next ids must be strictly ascending within each context")
    for a in (contexts, offsets, next_ids, counts):
        a.flags.writeable = False
    return Level(contexts, offsets, next_ids, counts), keys


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
