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
from typing import Iterable, Sequence

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
    pairs, positions strictly ascending. The constructor checks that and
    precomputes every posting's score contribution, so a query is one
    array addition per query token.
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
        if not doc_ids:
            raise ValueError("empty corpus")
        if not (len(doc_ids) == len(titles) == len(doc_lens)):
            raise ValueError("doc_ids, titles, doc_lens must align")
        if not (_is_number(k1) and k1 >= 0 and _is_number(b) and 0 <= b <= 1):
            raise ValueError(f"need numbers k1 >= 0 and 0 <= b <= 1, got k1={k1!r} b={b!r}")
        self.doc_ids = doc_ids
        self.titles = titles
        self.doc_lens = doc_lens
        self.postings = postings
        self.k1 = k1
        self.b = b
        self.num_docs = len(doc_ids)
        self.avgdl = sum(doc_lens) / len(doc_lens)
        self._build_arrays()

    def _build_arrays(self) -> None:
        """Flatten the postings into one position and one weight array;
        ``_spans[term]`` is the term's slice of both."""
        n = self.num_docs
        terms = list(self.postings)
        lengths = np.fromiter(map(len, map(self.postings.__getitem__, terms)), np.int64, len(terms))
        offsets = np.concatenate(([0], np.cumsum(lengths))).tolist()

        def column(i: int) -> np.ndarray:
            pairs = chain.from_iterable(map(self.postings.__getitem__, terms))
            try:
                return np.fromiter(map(itemgetter(i), pairs), np.int64, offsets[-1])
            except OverflowError:
                raise ValueError("posting value out of range") from None

        pos, f = column(0), column(1)
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
        if not np.array_equal(np.bincount(pos, weights=f, minlength=n), self.doc_lens):
            raise ValueError("doc_lens must equal each document's summed term frequencies")
        # The scalar formula's operations in its order (in place, and
        # + and * commute exactly), so every weight, and every score
        # summed from them in query order, is bit-identical to it.
        k1, b = self.k1, self.b
        norm = np.asarray(self.doc_lens, dtype=np.float64)[pos]
        norm *= b
        norm /= self.avgdl
        norm += 1.0 - b
        norm *= k1
        norm += f
        weights = np.repeat(np.fromiter(map(self.idf, terms), np.float64, len(terms)), lengths)
        weights *= f
        weights *= k1 + 1.0
        weights /= norm
        self._positions, self._weights = pos, weights
        self._spans = dict(zip(terms, zip(offsets[:-1], offsets[1:])))
        # Rank of each document in (doc id, position) order: the tie-break.
        order = sorted(range(n), key=self.doc_ids.__getitem__)
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[order] = np.arange(n)

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        n_q = self.doc_frequency(term)
        return math.log(1.0 + (self.num_docs - n_q + 0.5) / (n_q + 0.5))

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "titlegen-bm25-index",
            "k1": self.k1,
            "b": self.b,
            "doc_ids": self.doc_ids,
            "titles": self.titles,
            "doc_lens": self.doc_lens,
            "postings": {
                term: [[d, f] for d, f in plist]
                for term, plist in sorted(self.postings.items())
            },
        }
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
        write_atomic(path, lambda fh: fh.write(text))

    @classmethod
    def load(cls, path: str | Path) -> "BM25Index":
        """Read a saved index; any malformed content is a ``ValueError``."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
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
                postings={term: [(d, f) for d, f in plist] for term, plist in postings.items()},
                k1=payload["k1"],
                b=payload["b"],
            )
        except ValueError as exc:
            raise ValueError(f"index {path}: {exc}") from None


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
    postings: dict[str, list[tuple[int, int]]] = {}
    for pos, (doc_id, tokens, title) in enumerate(docs):
        doc_ids.append(doc_id)
        titles.append(title)
        doc_lens.append(len(tokens))
        tf: dict[str, int] = {}
        for t in tokens:
            tf[t] = tf.get(t, 0) + 1
        for term, f in tf.items():
            postings.setdefault(term, []).append((pos, f))
    return BM25Index(doc_ids, titles, doc_lens, postings, k1=k1, b=b)


def query(index: BM25Index, code: Sequence[str], k: int) -> list[tuple[str, float]]:
    """Top-k (title, score) by BM25, descending score.

    Query terms contribute per occurrence, added in query order. Ties
    break by ascending document id, then by position in the index; only
    positive-scoring documents are returned, so the list may be shorter
    than k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores = np.zeros(index.num_docs)
    for term in code:
        span = index._spans.get(term)
        if span is not None:
            lo, hi = span
            # Positions are distinct within a term, so no addition is lost.
            scores[index._positions[lo:hi]] += index._weights[lo:hi]
    hits = np.flatnonzero(scores > 0.0)
    if hits.size > k:
        # Only hits at or above the k-th largest score can make the top
        # k; ties at that score stay for the tie-break.
        vals = scores[hits]
        cut = hits.size - k
        hits = hits[vals >= np.partition(vals, cut)[cut]]
    top = hits[np.lexsort((index._id_rank[hits], -scores[hits]))[:k]]
    return [(index.titles[pos], s) for pos, s in zip(top.tolist(), scores[top].tolist())]
