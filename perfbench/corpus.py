"""Seeded synthetic corpus of raw code posts, built with array draws.

The corpus is shaped after what the pipeline's layers respond to:

* Titles are "how" + an opener word + a per-topic three-word phrase
  (one of three variants) mixed with words drawn from a Zipf-Mandelbrot
  law over 3.5k title words: 6 to 8 tokens, shared prefixes for the
  n-gram model to learn, and Zipf-like title word frequencies. The
  narrow length range keeps best-of-K scores comparable across seeds.
* Code mixes per-topic identifiers, Zipf-drawn identifiers, language
  keywords and punctuation, and ends with the topic token. An order-4
  model sees exactly one code token from the first title position (see
  the ``DEFAULTS["order"]`` comment in ``titlegen.cli``), so putting
  the topic token last is what lets titles condition on code.
* Fixed shares of closed, unanswered, low-vote and code-less posts, plus
  malformed lines (truncated JSON, non-object JSON, a record missing its
  title), make ``prepare``'s filter and skip paths do real work. Their
  exact counts are returned so the manifest can be checked against them.

The same seed gives the same bytes; every random draw comes from one
``numpy.random.Generator`` seeded with it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

LANGUAGES = ("java", "python")
LANGUAGE_SHARE = (0.4, 0.6)
KEYWORDS = {
    "java": ("public", "static", "void", "class", "new", "return", "int", "string"),
    "python": ("def", "return", "import", "self", "for", "in", "if", "none"),
}
PUNCT = ("(", ")", "=", ".", ",", ":", "[", "]", "{", "}", ";", "+")
#: Every title opens with "how" and one of these words. Diverse selection
#: scores a one-word candidate by unigram counts, so it tends to pick one
#: first; with a shared opener that word is "how", which the other picks
#: contain, and the picks' mean pairwise relevance stays above 0.
OPENERS = ("to", "do", "can", "is")
OPENER_SHARE = (0.55, 0.2, 0.15, 0.1)

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


TITLE_WORDS = 3500
CODE_WORDS = 6500
ZIPF_S = 1.1
#: Shares of posts that fail one filter each: closed, unanswered,
#: fewer than two votes, no code.
FILTERED_SHARES = (0.04, 0.04, 0.04, 0.03)
#: Malformed lines added, as a share of the posts.
MALFORMED_SHARE = 0.01


@dataclass(frozen=True)
class CorpusInfo:
    """What the generator knows about the file it wrote."""

    path: str
    records_written: int
    records_malformed: int
    posts_filtered_out: int
    posts_kept: int
    vocabulary: int
    kept_by_language: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _words(count: int, lead: str) -> list[str]:
    """``count`` distinct alphanumeric words of two or three syllables."""
    n = len(_SYLLABLES)
    out = []
    for i in range(count):
        word = _SYLLABLES[i % n] + _SYLLABLES[(i // n) % n]
        if i >= n * n:
            word += _SYLLABLES[(i // (n * n)) % n]
        out.append(lead + word)
    return out


def _zipf_sampler(rng: np.random.Generator, size: int, s: float):
    """Return draw(k) -> k indices in [0, size) under a shuffled Zipf law."""
    weights = 1.0 / (np.arange(size) + 2.7) ** s
    cdf = np.cumsum(weights)
    order = rng.permutation(size)

    def draw(k) -> np.ndarray:
        u = rng.random(k) * cdf[-1]
        return order[np.minimum(np.searchsorted(cdf, u, side="right"), size - 1)]

    return draw


def _split(values: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    return np.split(values, np.cumsum(lengths)[:-1])


def synthesize(posts: int, topics: int, seed: int, path: str | Path) -> CorpusInfo:
    """Write ``posts`` raw post records on ``topics`` topics, plus
    malformed lines, to ``path``."""
    rng = np.random.default_rng(seed)
    n = posts
    title_vocab = np.array(_words(TITLE_WORDS, ""), dtype=object)
    code_vocab = np.array(_words(CODE_WORDS, "q"), dtype=object)
    topic_tokens = np.array([f"kt{t}" for t in range(topics)], dtype=object)
    title_draw = _zipf_sampler(rng, TITLE_WORDS, ZIPF_S)
    code_draw = _zipf_sampler(rng, CODE_WORDS, ZIPF_S)

    # Per-topic three-word phrase variants (weights 10:7:4), identifiers
    # and language.
    phrase_words = title_draw(topics * 9).reshape(topics * 3, 3)
    variant_p = np.array([10.0, 7.0, 4.0]) / 21.0
    topic_idents = code_draw(topics * 12).reshape(topics, 12)
    topic_lang = rng.choice(len(LANGUAGES), size=topics, p=LANGUAGE_SHARE)
    topic_p = 1.0 / (np.arange(topics) + 5.0)
    topic_p /= topic_p.sum()

    topic = rng.choice(topics, size=n, p=topic_p)
    variant = rng.choice(3, size=n, p=variant_p)
    opener = rng.choice(len(OPENERS), size=n, p=OPENER_SHARE)
    lead_len = rng.integers(0, 2, size=n)
    tail_len = rng.integers(1, 3, size=n)
    leads = _split(title_draw(int(lead_len.sum())), lead_len)
    tails = _split(title_draw(int(tail_len.sum())), tail_len)

    # Quality flags: disjoint groups at fixed shares, the rest pass.
    counts = [int(round(s * n)) for s in FILTERED_SHARES]
    flag = np.zeros(n, dtype=np.int64)
    start = 0
    for kind, count in enumerate(counts, start=1):
        flag[start : start + count] = kind
        start += count
    flag = rng.permutation(flag)

    # Code: 1-2 snippets; token kinds 0 topic ident, 1 Zipf ident,
    # 2 keyword, 3 punctuation. The topic token is appended last.
    n_snip = np.where(flag == 4, 0, 1 + (rng.random(n) < 0.3))
    snip_post = np.repeat(np.arange(n), n_snip)
    snip_len = rng.integers(12, 41, size=snip_post.shape[0])
    tok_post = np.repeat(snip_post, snip_len)
    kind = rng.choice(4, size=tok_post.shape[0], p=(0.35, 0.35, 0.15, 0.15))
    lang_of_tok = topic_lang[topic[tok_post]]
    kw = np.array([KEYWORDS[lang] for lang in LANGUAGES], dtype=object)
    tokens = np.where(
        kind == 0,
        code_vocab[topic_idents[topic[tok_post], rng.integers(0, 12, tok_post.shape[0])]],
        np.where(
            kind == 1,
            code_vocab[code_draw(tok_post.shape[0])],
            np.where(
                kind == 2,
                kw[lang_of_tok, rng.integers(0, kw.shape[1], tok_post.shape[0])],
                np.array(PUNCT, dtype=object)[rng.integers(0, len(PUNCT), tok_post.shape[0])],
            ),
        ),
    )
    snippets = [" ".join(s) for s in _split(tokens, snip_len)]

    votes = np.where(flag == 3, rng.integers(0, 2, n), 2 + rng.geometric(0.3, n))
    gaps = rng.integers(60, 7200, size=n)
    base = datetime(2015, 1, 1)
    offsets = np.cumsum(gaps)

    rows = []
    snip_at = 0
    for i in range(n):
        t = topic[i]
        words = ["how", OPENERS[opener[i]], *title_vocab[leads[i]]]
        words += list(title_vocab[phrase_words[t * 3 + variant[i]]])
        words += list(title_vocab[tails[i]])
        k = int(n_snip[i])
        code = snippets[snip_at : snip_at + k]
        snip_at += k
        if code:
            code[-1] = f"{code[-1]} {topic_tokens[t]}"
        rows.append(
            {
                "id": i + 1,
                "title": " ".join(words),
                "code_snippets": code,
                "created_at": (base + timedelta(seconds=int(offsets[i]))).isoformat(),
                "is_closed": bool(flag[i] == 1),
                "has_accepted_answer": bool(flag[i] != 2),
                "votes": int(votes[i]),
                "language": LANGUAGES[topic_lang[t]],
            }
        )
    lines = [json.dumps(row, sort_keys=True) for row in rows]

    n_bad = int(round(MALFORMED_SHARE * n))
    bad_at = np.sort(rng.choice(n + n_bad, size=n_bad, replace=False))
    bad_kinds = ("truncated", "array", "missing")
    out: list[str] = []
    good = iter(lines)
    bad_set = set(bad_at.tolist())
    bad_seen = 0
    for pos in range(n + n_bad):
        if pos not in bad_set:
            out.append(next(good))
            continue
        kind_name = bad_kinds[bad_seen % len(bad_kinds)]
        bad_seen += 1
        if kind_name == "truncated":
            out.append(lines[pos % n][: len(lines[pos % n]) // 2])
        elif kind_name == "array":
            out.append(json.dumps([pos, "not a post"]))
        else:
            row = dict(rows[pos % n])
            del row["title"]
            out.append(json.dumps(row, sort_keys=True))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")

    kept = flag == 0
    kept_lang = topic_lang[topic[kept]]
    vocab = {"how", *OPENERS}
    vocab.update(title_vocab[np.concatenate([*leads, *tails, phrase_words.ravel()])])
    vocab.update(tokens.tolist())
    vocab.update(topic_tokens[np.unique(topic[n_snip > 0])].tolist())
    return CorpusInfo(
        path=str(path),
        records_written=n + n_bad,
        records_malformed=n_bad,
        posts_filtered_out=int((~kept).sum()),
        posts_kept=int(kept.sum()),
        vocabulary=len(vocab),
        kept_by_language={
            lang: int((kept_lang == j).sum()) for j, lang in enumerate(LANGUAGES)
        },
    )
