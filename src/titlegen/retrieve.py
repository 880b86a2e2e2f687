"""Okapi BM25 retrieval baseline over code tokens.

Documents are training posts indexed by their code content; a query is
a code token sequence and the payload returned is the matching posts'
titles, so retrieved titles can be evaluated exactly like generated
ones.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .records import write_atomic

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class BM25Index:
    """Inverted index with Lucene-style IDF and k1/b saturation.

    score(D, Q) = sum over q in Q of
        IDF(q) * f(q,D) * (k1+1) / (f(q,D) + k1*(1 - b + b*|D|/avgdl))
    with IDF(q) = ln(1 + (N - n_q + 0.5) / (n_q + 0.5)).

    ``postings`` maps each term to its ``(doc position, term frequency)``
    pairs, positions strictly ascending. The constructor checks that,
    flattens the pairs into position and frequency arrays, one slice per
    term, and precomputes every posting's score contribution, so a query
    is one weighted ``bincount``. The index keeps only the arrays; its
    ``postings`` attribute is a read-only view of them, built on first
    use.
    """

    def __init__(
        self,
        doc_ids: list[int],
        titles: list[str],
        doc_lens: list[int],
        postings: dict[str, list[tuple[int, int]]],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ):
        terms = list(postings)
        lengths = np.fromiter(map(len, map(postings.__getitem__, terms)), np.int64, len(terms))

        def column(i: int) -> np.ndarray:
            pairs = chain.from_iterable(map(postings.__getitem__, terms))
            try:
                return np.fromiter(map(itemgetter(i), pairs), np.int64, int(lengths.sum()))
            except OverflowError:
                raise ValueError("posting value out of range") from None

        self._init(doc_ids, titles, doc_lens, terms, lengths, column(0), column(1), k1, b)

    def _init(self, doc_ids, titles, doc_lens, terms, lengths, pos, f, k1, b) -> None:
        """Check and index flat postings: ``lengths[i]`` (position,
        frequency) pairs of ``terms[i]``, end to end in ``pos`` and ``f``.
        ``_spans[term]`` is the term's slice of the position, frequency
        and weight arrays."""
        if not doc_ids:
            raise ValueError("empty corpus")
        if not (len(doc_ids) == len(titles) == len(doc_lens)):
            raise ValueError("doc_ids, titles, doc_lens must align")
        if not (_is_number(k1) and k1 >= 0 and _is_number(b) and 0 <= b <= 1):
            raise ValueError(f"need numbers k1 >= 0 and 0 <= b <= 1, got k1={k1!r} b={b!r}")
        self.doc_ids = doc_ids
        self.titles = titles
        self.doc_lens = doc_lens
        self.k1 = k1
        self.b = b
        self.num_docs = n = len(doc_ids)
        self.avgdl = sum(doc_lens) / len(doc_lens)
        if pos.size and (pos.min() < 0 or pos.max() >= n):
            raise ValueError(f"posting position outside 0..{n - 1}")
        if pos.size and f.min() < 1:
            raise ValueError("posting term frequency below 1")
        # With positions in range, ascending (term, position) keys mean
        # ascending positions within each term.
        keys = np.repeat(np.arange(len(terms), dtype=np.int64), lengths)
        keys *= n
        keys += pos
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("posting positions must be strictly ascending within a term")
        del keys
        if not np.array_equal(np.bincount(pos, weights=f, minlength=n), doc_lens):
            raise ValueError("doc_lens must equal each document's summed term frequencies")
        # The scalar formula's operations in its order (in place, and
        # + and * commute exactly), so every weight, and every score
        # summed from them in query order, is bit-identical to it.
        norm = np.asarray(doc_lens, dtype=np.float64)[pos]
        norm *= b
        norm /= self.avgdl
        norm += 1.0 - b
        norm *= k1
        norm += f
        idf = [_idf(n, n_q) for n_q in lengths.tolist()]
        weights = np.repeat(np.array(idf, dtype=np.float64), lengths)
        weights *= f
        weights *= k1 + 1.0
        weights /= norm
        self._positions, self._freqs, self._weights = pos, f, weights
        offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()
        self._spans = dict(zip(terms, zip(offsets[:-1], offsets[1:])))
        self._postings = None
        # Rank of each document in (doc id, position) order: the tie-break.
        order = sorted(range(n), key=doc_ids.__getitem__)
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[order] = np.arange(n)

    @property
    def postings(self) -> Mapping[str, list[tuple[int, int]]]:
        """Each term's (doc position, term frequency) pairs, ascending."""
        if self._postings is None:
            pairs = list(zip(self._positions.tolist(), self._freqs.tolist()))
            self._postings = MappingProxyType(
                {term: pairs[lo:hi] for term, (lo, hi) in self._spans.items()}
            )
        return self._postings

    def doc_frequency(self, term: str) -> int:
        lo, hi = self._spans.get(term, (0, 0))
        return hi - lo

    def idf(self, term: str) -> float:
        return _idf(self.num_docs, self.doc_frequency(term))

    def save(self, path: str | Path) -> None:
        # From the arrays, not the ``postings`` view: no tuple per posting.
        pos, f = self._positions.tolist(), self._freqs.tolist()
        payload = {
            "format": "titlegen-bm25-index",
            "k1": self.k1,
            "b": self.b,
            "doc_ids": self.doc_ids,
            "titles": self.titles,
            "doc_lens": self.doc_lens,
            "postings": {
                term: list(map(list, zip(pos[lo:hi], f[lo:hi])))
                for term, (lo, hi) in self._spans.items()
            },
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        write_atomic(path, lambda fh: fh.write(text))

    @classmethod
    def load(cls, path: str | Path) -> "BM25Index":
        """Read a saved index; any malformed content is a ``ValueError``."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError:  # not UTF-8, or not JSON
            raise ValueError(f"not an index file: {path}") from None
        if not isinstance(payload, dict) or payload.get("format") != "titlegen-bm25-index":
            raise ValueError(f"not an index file: {path}")
        missing = {"k1", "b", "doc_ids", "titles", "doc_lens", "postings"} - payload.keys()
        if missing:
            raise ValueError(f"index {path} lacks {sorted(missing)}")
        doc_ids = _checked_list(payload["doc_ids"], _is_int, "doc_ids must be integers", path)
        titles = _checked_list(
            payload["titles"], lambda t: isinstance(t, str), "titles must be strings", path
        )
        doc_lens = _checked_list(
            payload["doc_lens"],
            lambda v: _is_int(v) and v >= 0,
            "doc_lens must be integers >= 0",
            path,
        )
        postings = payload["postings"]
        if not isinstance(postings, dict):
            raise ValueError(f"index {path}: postings must be an object")
        for term, plist in postings.items():
            _checked_list(
                plist,
                lambda p: isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and _is_int(p[1]),
                f"postings of {term!r} must be [position, frequency] integer pairs",
                path,
            )
        try:
            return cls(
                doc_ids=doc_ids,
                titles=titles,
                doc_lens=doc_lens,
                postings=postings,
                k1=payload["k1"],
                b=payload["b"],
            )
        except ValueError as exc:
            raise ValueError(f"index {path}: {exc}") from None


def _idf(num_docs: int, n_q: int) -> float:
    return math.log(1.0 + (num_docs - n_q + 0.5) / (n_q + 0.5))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float, not a bool, that is finite as a float."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _checked_list(value, ok, message: str, path) -> list:
    if not isinstance(value, list) or not all(map(ok, value)):
        raise ValueError(f"index {path}: {message}")
    return value


def build_index(
    docs: Iterable[tuple[int, Sequence[str], str]],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> BM25Index:
    """Index (id, code tokens, title) documents by their code tokens.

    ``docs`` may be any iterable, read once, so a stream of documents
    is indexed without holding them all. No documents: "empty corpus".
    """
    doc_ids: list[int] = []
    titles: list[str] = []
    doc_lens: list[int] = []
    tokens: list[str] = []
    for doc_id, doc_tokens, title in docs:
        doc_ids.append(doc_id)
        titles.append(title)
        doc_lens.append(len(doc_tokens))
        tokens += doc_tokens
    # Term ids in order of first appearance, the order a dict of
    # postings filled document by document has. One sort of the
    # (term, document) keys of every token groups the postings by term,
    # positions ascending, and counts each term frequency.
    terms = {term: i for i, term in enumerate(dict.fromkeys(tokens))}
    n = len(doc_ids)
    keys = np.fromiter(map(terms.__getitem__, tokens), np.int64, len(tokens))
    del tokens
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), doc_lens)
    keys, f = np.unique(keys, return_counts=True)
    term_ids, pos = np.divmod(keys, n)
    lengths = np.bincount(term_ids, minlength=len(terms))
    index = BM25Index.__new__(BM25Index)
    index._init(doc_ids, titles, doc_lens, list(terms), lengths, pos, f, k1, b)
    return index


def query(index: BM25Index, code: Sequence[str], k: int) -> list[tuple[str, float]]:
    """Top-k (title, score) by BM25, descending score.

    Query terms contribute per occurrence, added in query order. Ties
    break by ascending document id, then by position in the index; only
    positive-scoring documents are returned, so the list may be shorter
    than k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    spans = [slice(*span) for span in map(index._spans.get, code) if span is not None]
    if spans:
        # One weighted ``bincount`` adds the postings in the order given,
        # so each document's additions come in query-token order, the
        # scalar loop's order.
        scores = np.bincount(
            np.concatenate([index._positions[s] for s in spans]),
            np.concatenate([index._weights[s] for s in spans]),
            index.num_docs,
        )
    else:
        scores = np.zeros(index.num_docs)
    hits = np.flatnonzero(scores > 0.0)
    if hits.size > k:
        # Only hits at or above the k-th largest score can make the top
        # k; ties at that score stay for the tie-break.
        vals = scores[hits]
        cut = hits.size - k
        hits = hits[vals >= np.partition(vals, cut)[cut]]
    top = hits[np.lexsort((index._id_rank[hits], -scores[hits]))[:k]]
    return [(index.titles[pos], s) for pos, s in zip(top.tolist(), scores[top].tolist())]
