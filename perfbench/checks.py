"""Output checks run on every round's artifacts.

Each check returns the ids of the posts whose output is wrong (or, for
a one-off stage such as ``prepare``, a list of problems), so a failure
counts exactly the posts it touches.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from titlegen import metrics, retrieve
from titlegen.cli import DEFAULTS
from titlegen.data import concat_snippets
from titlegen.records import pool_from_dict, read_jsonl, read_posts
from titlegen.text import END_ID, RESERVED, START_ID, tokenize

_RESERVED = frozenset(RESERVED)


def _rows(path: Path) -> list[dict]:
    return list(read_jsonl(path)) if path.is_file() else []


def check_pools(path: Path, ids: list, size: int, max_length: int) -> set:
    """Every pool has ``size`` candidates of at most ``max_length`` tokens,
    none a reserved marker, and pools come in input order."""
    bad = set(ids)
    rows = _rows(path)
    if [r.get("meta", {}).get("id") for r in rows] != ids:
        return bad
    for pid, row in zip(ids, rows):
        try:
            pool = pool_from_dict(row)
        except (KeyError, TypeError, ValueError):
            continue
        cands = pool.candidates
        if len(cands) != size:
            continue
        if any(len(c) > max_length or _RESERVED.intersection(c) for c in cands):
            continue
        if row.get("candidate_strings") != [" ".join(c) for c in cands]:
            continue
        bad.discard(pid)
    return bad


def check_selections(sel_path: Path, pool_path: Path, ids: list, k: int, strategy: str) -> set:
    """Indices are distinct and in range and each title is its candidate."""
    bad = set(ids)
    sels, pools = _rows(sel_path), _rows(pool_path)
    if len(sels) != len(ids) or len(pools) != len(ids):
        return bad
    for pid, sel, pool in zip(ids, sels, pools):
        idx = sel.get("indices")
        cands = pool.get("candidates", [])
        if sel.get("id") != pid or not isinstance(idx, list) or not 1 <= len(idx) <= k:
            continue
        if len(set(idx)) != len(idx) or not all(
            isinstance(i, int) and 0 <= i < len(cands) for i in idx
        ):
            continue
        if sel.get("titles") != [" ".join(cands[i]) for i in idx]:
            continue
        if strategy == "rns" and idx != list(range(min(k, len(cands)))):
            continue
        bad.discard(pid)
    return bad


def check_report(path: Path, ids: list, sweep: list[int]) -> set:
    """Per row: every score in [0, 100] and Metric@K non-decreasing in K."""
    bad = set(ids)
    if not path.is_file():
        return bad
    report = json.loads(path.read_text(encoding="utf-8"))
    tables = [report.get("per_example", {}).get(str(k), []) for k in sweep]
    if report.get("num_examples") != len(ids) or any(len(t) != len(ids) for t in tables):
        return bad
    for pos, pid in enumerate(ids):
        entries = [t[pos] for t in tables]
        if any(e.get("id") != pid for e in entries):
            continue
        ok = True
        for name in metrics.METRICS:
            values = [e[name] for e in entries]
            ok &= all(0.0 <= v <= 100.0 for v in values)
            ok &= all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        if ok:
            bad.discard(pid)
    return bad


def sequence_logprob(model, code: list[int], ids: list[int], max_length: int) -> float:
    """Score a title as beam search does: summed log-probabilities, plus
    END unless the title was cut at ``max_length``."""
    prefix = [START_ID]
    total = 0.0
    steps = ids if len(ids) >= max_length else ids + [END_ID]
    for tok in steps:
        dist = model.next_distribution(code, prefix)
        with np.errstate(divide="ignore"):
            total += float(np.log(dist[tok]))
        prefix.append(tok)
    return total


def check_beam_order(path: Path, model, ids: list, max_length: int) -> set:
    """Beam pools are in non-increasing log-probability, rescored here."""
    bad = set()
    vocab = model.vocabulary
    for pid, row in zip(ids, _rows(path)):
        code = vocab.encode(row["input"])
        scores = [
            sequence_logprob(model, code, vocab.encode(c), max_length)
            for c in row["candidates"]
        ]
        if any(b > a + 1e-9 * max(1.0, abs(a)) for a, b in zip(scores, scores[1:])):
            bad.add(pid)
    return bad


def check_manifest(path: Path, corpus: dict) -> list[str]:
    """``prepare`` read, skipped and kept exactly what the corpus holds."""
    if not path.is_file():
        return [f"missing {path.name}"]
    manifest = json.loads(path.read_text(encoding="utf-8"))
    expected = {
        "records_read": corpus["records_written"] - corpus["records_malformed"],
        "records_skipped": corpus["records_malformed"],
        "filtered_posts": corpus["posts_kept"],
    }
    return [
        f"manifest {key}={manifest.get(key)} expected {value}"
        for key, value in expected.items()
        if manifest.get(key) != value
    ]


def check_retrieved(path: Path, ids: list, k: int) -> set:
    """At most k hits per query, scores positive and non-increasing."""
    bad = set(ids)
    rows = _rows(path)
    if [r.get("id") for r in rows] != ids:
        return bad
    for pid, row in zip(ids, rows):
        titles, scores = row.get("titles", []), row.get("scores", [])
        if len(titles) != len(scores) or len(titles) > k:
            continue
        if any(s <= 0.0 for s in scores) or any(b > a for a, b in zip(scores, scores[1:])):
            continue
        bad.discard(pid)
    return bad


def _code_tokens(post) -> list[str]:
    return tokenize(concat_snippets(post.code_snippets))[: DEFAULTS["code_limit"]]


def check_bm25_exhaustive(train: Path, test: Path, retrieved: Path, k: int, queries: int) -> set:
    """On the first ``queries`` test posts, the index's top-k equals
    scoring every training document with the BM25 formula directly."""
    docs = [(p.id, p.title, _code_tokens(p)) for p in read_posts(train)]
    tfs = []
    df: dict[str, int] = {}
    for _, _, toks in docs:
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        tfs.append(tf)
        for t in tf:
            df[t] = df.get(t, 0) + 1
    n = len(docs)
    avgdl = sum(len(toks) for _, _, toks in docs) / n
    k1, b = retrieve.DEFAULT_K1, retrieve.DEFAULT_B
    rows = {r.get("id"): r for r in _rows(retrieved)}
    bad = set()
    for post in list(read_posts(test))[:queries]:
        query = _code_tokens(post)
        scored = []
        for (doc_id, title, toks), tf in zip(docs, tfs):
            s = 0.0
            for t in query:
                f = tf.get(t, 0)
                if f:
                    idf = math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
                    s += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * len(toks) / avgdl))
            if s > 0.0:
                scored.append((-s, doc_id, title))
        scored.sort()
        expected = [(t, -s) for s, _, t in scored[:k]]
        got = rows.get(post.id)
        if got is None or len(got["titles"]) != len(expected):
            bad.add(post.id)
            continue
        close = all(
            abs(gs - es) <= 1e-9 * max(1.0, abs(es))
            for gs, (_, es) in zip(got["scores"], expected)
        )
        # Titles must match except where a float tie could reorder them.
        tied = len(scored) > k and abs(scored[k - 1][0] - scored[k][0]) <= 1e-9
        if not close or (not tied and got["titles"] != [t for t, _ in expected]):
            bad.add(post.id)
    return bad
