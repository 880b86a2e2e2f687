"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas with the
plainest possible data structures (dicts, loops, fsum), deliberately
avoiding the package's own code paths. Tests compare package output
against these.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter

import numpy as np

RESERVED = ("<s>", "</s>", "[PAD]", "[NEXT]", "[UNK]")
_RESERVED_SET = frozenset(RESERVED)

# -- tokenizer ---------------------------------------------------------------


def loop_tokenize(text: str) -> list[str]:
    """The tokenizer the chunk memo replaced: every chunk walked one
    character at a time on every call."""
    tokens: list[str] = []
    for chunk in text.split():
        if chunk in _RESERVED_SET:
            tokens.append(chunk)
            continue
        chunk = chunk.lower()
        run: list[str] = []
        for ch in chunk:
            if ch.isalnum():
                run.append(ch)
            else:
                if run:
                    tokens.append("".join(run))
                    run = []
                tokens.append(ch)
        if run:
            tokens.append("".join(run))
    return tokens


# -- n-gram helpers ----------------------------------------------------------


def strip(tokens):
    return [t for t in tokens if t not in RESERVED]


def ngrams(tokens, n):
    toks = strip(tokens)
    return Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))


# -- metrics -----------------------------------------------------------------

def bleu_oracle(candidate, reference) -> float:
    """Sentence BLEU-4: p1 raw, add-one smoothing on p2..p4, brevity
    penalty min(1, exp(1 - r/c)), geometric mean, scaled to [0, 100]."""
    cand, ref = strip(candidate), strip(reference)
    if not ref:
        raise ValueError("empty reference")
    if not cand:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cc, rc = ngrams(cand, n), ngrams(ref, n)
        match = sum(min(v, rc[g]) for g, v in cc.items())
        total = sum(cc.values())
        if n == 1:
            if match == 0:
                return 0.0
            precisions.append(match / total)
        else:
            precisions.append((match + 1) / (total + 1))
    geo = math.exp(math.fsum(math.log(p) for p in precisions) / 4.0)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(cand)))
    return 100.0 * bp * geo


def rouge_n_oracle(candidate, reference, n) -> float:
    cand, ref = strip(candidate), strip(reference)
    if not ref:
        raise ValueError("empty reference")
    cc, rc = ngrams(cand, n), ngrams(ref, n)
    ct, rt = sum(cc.values()), sum(rc.values())
    if ct == 0 or rt == 0:
        return 0.0
    overlap = sum(min(v, rc[g]) for g, v in cc.items())
    p, r = overlap / ct, overlap / rt
    return 0.0 if p + r == 0 else 100.0 * 2 * p * r / (p + r)


def lcs_table(a, b) -> int:
    """Full 2-D dynamic program, no row reuse."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    return dp[n][m]


def lcs_exhaustive(a, b) -> int:
    """Longest common subsequence by enumerating subsequences of a."""
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        if len(sub) <= best:
            continue
        it = iter(b)
        if all(tok in it for tok in sub):
            best = len(sub)
    return best


def rouge_l_oracle(candidate, reference) -> float:
    cand, ref = strip(candidate), strip(reference)
    if not ref:
        raise ValueError("empty reference")
    if not cand:
        return 0.0
    lcs = lcs_table(cand, ref)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return 100.0 * 2 * p * r / (p + r)


# Hand-constructed candidate/reference token pairs exercising the metric
# endpoints (exact match, no overlap) and the awkward middle: clipping,
# brevity penalty on both sides, reordering, markers, repeats.
HAND_PAIRS = [
    ("the cat sat on mat".split(), "the cat sat on the mat".split()),
    ("how to sort a list in python".split(), "how to sort a list in python".split()),
    ("alpha beta gamma delta".split(), "epsilon zeta eta theta".split()),
    ("python".split(), "how to use python".split()),
    (
        "why does my java code throw a null pointer exception".split(),
        "java null pointer exception".split(),
    ),
    (
        "java null pointer".split(),
        "why does my java code throw a null pointer exception".split(),
    ),
    ("the the the the".split(), "the cat".split()),
    (["how", "to", "fix", "c", "+", "+", "error", "?"], ["fix", "c", "+", "+", "compile", "error"]),
    ("on mat the cat sat".split(), "the cat sat on mat".split()),
    ("convert string to int".split(), "convert string to int in java".split()),
    ("a b c d e f".split(), "a b c x e f".split()),
    (["segfault"], ["segfault"]),
    (["segfault"], ["stackoverflow"]),
    (["how", "[PAD]", "to", "merge", "</s>"], ["how", "to", "merge", "two", "dicts"]),
    (
        "what is the difference between list and tuple in python".split(),
        "what is the difference between list and tuple".split(),
    ),
    ("sort list sort list".split(), "sort list".split()),
    ("python error fix".split(), "fix error python".split()),
    ("parse json in go".split(), "parse yaml with java".split()),
    ([], ["nonempty", "reference"]),
    (
        "how do i convert a string to a number in javascript".split(),
        "how to convert a string into a number in javascript".split(),
    ),
]


# -- nucleus -----------------------------------------------------------------

def nucleus_oracle(probs, beta) -> np.ndarray:
    """Minimal high-probability set by sorted walk, fsum cumulative."""
    probs = list(map(float, probs))
    if beta >= 1.0:
        return np.array(probs)
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], i))
    kept = []
    for i in order:
        kept.append(i)
        if math.fsum(probs[j] for j in kept) >= beta - 1e-12:
            break
    mass = math.fsum(probs[j] for j in kept)
    out = np.zeros(len(probs))
    for i in kept:
        out[i] = probs[i] / mass
    return out


# -- sampling kernels: the per-element loops the package once ran -----------
# The package's vectorized kernels must reproduce these bit for bit:
# same stable descending order, same sequential sums, same divisions.

BETA_SLACK = 1e-12


def loop_apply_temperature(probs, temperature) -> np.ndarray:
    out = probs.copy()
    if temperature == 1.0:
        return out
    best = 0.0
    for i in range(out.shape[0]):
        if out[i] > best:
            best = out[i]
    if best <= 0.0:
        return out
    logmax = np.log(best)
    total = 0.0
    for i in range(out.shape[0]):
        if out[i] > 0.0:
            out[i] = np.exp((np.log(out[i]) - logmax) / temperature)
            total += out[i]
        else:
            out[i] = 0.0
    for i in range(out.shape[0]):
        out[i] /= total
    return out


def loop_nucleus_filter(probs, beta) -> np.ndarray:
    n = probs.shape[0]
    if beta >= 1.0:
        return probs.copy()
    order = np.argsort(-probs, kind="mergesort")
    cut = n - 1
    csum = 0.0
    for r in range(n):
        csum += probs[order[r]]
        if csum >= beta - BETA_SLACK:
            cut = r
            break
    mass = 0.0
    for r in range(cut + 1):
        mass += probs[order[r]]
    out = np.zeros(n, dtype=np.float64)
    for r in range(cut + 1):
        i = order[r]
        out[i] = probs[i] / mass
    return out


def loop_sample_token(probs, u) -> int:
    acc = 0.0
    last = -1
    for i in range(probs.shape[0]):
        p = probs[i]
        if p > 0.0:
            acc += p
            last = i
            if acc > u:
                return i
    return last


def loop_sample_step(probs, beta, temperature, u) -> int:
    scaled = loop_apply_temperature(probs, temperature)
    return loop_sample_token(loop_nucleus_filter(scaled, beta), u)


# -- ranking -----------------------------------------------------------------

def consistency_oracle(candidates) -> list[float]:
    bags = [ngrams(c, 2) for c in candidates]
    uni = [ngrams(c, 1) for c in candidates]
    table_bi, table_uni = Counter(), Counter()
    for b in bags:
        table_bi.update(b)
    for u in uni:
        table_uni.update(u)
    out = []
    for b, u in zip(bags, uni):
        own, table = (b, table_bi) if b else (u, table_uni)
        n = sum(own.values())
        out.append(sum(table[g] * c for g, c in own.items()) / n if n else 0.0)
    return out


def relevance_oracle(a, b) -> float:
    ca, cb = ngrams(a, 2), ngrams(b, 2)
    if not ca or not cb:
        ca, cb = ngrams(a, 1), ngrams(b, 1)
        if not ca or not cb:
            return 0.0
    if ca == cb:
        return 1.0
    dot = sum(v * cb[g] for g, v in ca.items())
    norm = math.sqrt(sum(v * v for v in ca.values())) * math.sqrt(
        sum(v * v for v in cb.values())
    )
    return min(1.0, max(0.0, dot / norm))


def mmns_oracle(candidates, k, dedup=True, eps=1e-9):
    """Initial pick by consistency, then greedy max of summed negative
    relevance; ties within eps resolved by consistency then index."""
    scores = consistency_oracle(candidates)
    if dedup:
        seen, avail = set(), []
        for i, c in enumerate(candidates):
            key = tuple(c)
            if key not in seen:
                seen.add(key)
                avail.append(i)
    else:
        avail = list(range(len(candidates)))
    first = min(avail, key=lambda i: (-scores[i], i))
    chosen = [first]
    remaining = [i for i in avail if i != first]
    while len(chosen) < k and remaining:
        margins = {}
        for i in remaining:
            margins[i] = 0.0
            for s in chosen:
                margins[i] -= relevance_oracle(candidates[i], candidates[s])
        best = max(margins.values())
        tied = [i for i in remaining if margins[i] >= best - eps]
        pick = min(tied, key=lambda i: (-scores[i], i))
        chosen.append(pick)
        remaining.remove(pick)
    return chosen


# -- BM25 --------------------------------------------------------------------

def bm25_oracle(docs, query_tokens, k1=1.2, b=0.75):
    """Exhaustively score every document; (doc position, score) pairs
    for positive scores, sorted by score desc then doc id asc."""
    n = len(docs)
    avgdl = sum(len(toks) for _, toks, _ in docs) / n
    results = []
    for pos, (doc_id, toks, _title) in enumerate(docs):
        tf = Counter(toks)
        score = 0.0
        for q in query_tokens:
            f = tf[q]
            if f == 0:
                continue
            n_q = sum(1 for _, dt, _ in docs if q in dt)
            idf = math.log(1.0 + (n - n_q + 0.5) / (n_q + 0.5))
            score += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * len(toks) / avgdl))
        if score > 0.0:
            results.append((pos, score))
    results.sort(key=lambda r: (-r[1], docs[r[0]][0]))
    return results


def loop_postings(docs):
    """The postings of (id, tokens, title) documents as ``build_index``
    once collected them: one term-frequency dict per document, appended
    term by term to a dict of ``(position, frequency)`` lists."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for pos, (_, tokens, _) in enumerate(docs):
        tf: dict[str, int] = {}
        for t in tokens:
            tf[t] = tf.get(t, 0) + 1
        for term, f in tf.items():
            postings.setdefault(term, []).append((pos, f))
    return postings


def loop_query(index, code, k):
    """The scalar BM25 query the array query replaced: walks each query
    token's postings in query order, summing per-document scores in a
    dict. Reads only ``postings``, ``idf``, ``doc_lens``, ``k1``, ``b``
    and ``avgdl``, never the index's arrays."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores: dict[int, float] = {}
    for term in code:
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = index.idf(term)
        for pos, f in plist:
            norm = f + index.k1 * (1.0 - index.b + index.b * index.doc_lens[pos] / index.avgdl)
            scores[pos] = scores.get(pos, 0.0) + idf * f * (index.k1 + 1.0) / norm
    hits = [(pos, s) for pos, s in scores.items() if s > 0.0]
    hits.sort(key=lambda h: (-h[1], index.doc_ids[h[0]], h[0]))
    return [(index.titles[pos], s) for pos, s in hits[:k]]


# -- n-gram generator ----------------------------------------------------------

class DictNGramLM:
    """The dict-backed interpolated n-gram model the package once ran,
    kept as the reference. ``levels[l]`` maps each length-``l`` context
    tuple to a dict of next-token counts, trained by one dict update per
    (position, level). A distribution adds the floor, then the empty
    context's row token by token, then each hit context's row, shortest
    first, each value ``weights[l] * count / total``, and divides by its
    mass: the sum of the floor + empty-context row with PAD and START at
    0, plus each hit row's sum, shortest first, where a row's sum adds
    its values one by one in token order, PAD and START left out."""

    def __init__(self, order, vocab_size, levels, weights=None):
        self.order = order
        self.vocab_size = vocab_size
        self.levels = levels
        self.weights = list(weights) if weights is not None else [1.0 / order] * order

    @classmethod
    def train(cls, pairs, order, vocab_size):
        from titlegen.text import END_ID, NEXT_ID, START_ID

        levels = [{} for _ in range(order)]
        for code, title in pairs:
            seq = list(code) + [NEXT_ID, START_ID] + list(title) + [END_ID]
            for p in range(len(code) + 2, len(seq)):
                for l in range(order):
                    if l > p:
                        break
                    table = levels[l].setdefault(tuple(seq[p - l : p]), {})
                    table[seq[p]] = table.get(seq[p], 0) + 1
        return cls(order, vocab_size, levels)

    def state(self, code, prefix):
        from titlegen.text import NEXT_ID, START_ID

        if not prefix or prefix[0] != START_ID:
            raise ValueError("prefix must begin with START")
        full = (*code, NEXT_ID, *prefix)
        tail = full[max(0, len(full) - (self.order - 1)) :]
        return tuple(tail[-l:] for l in range(1, len(tail) + 1) if tail[-l:] in self.levels[l])

    def next_distribution(self, code, prefix):
        from titlegen.lm import FLOOR
        from titlegen.text import PAD_ID, START_ID

        out = np.full(self.vocab_size, FLOOR, dtype=np.float64)
        table0 = self.levels[0].get((), {})
        for tok, c in table0.items():
            out[tok] += self.weights[0] * c / sum(table0.values())
        base = out.copy()
        base[PAD_ID] = 0.0
        base[START_ID] = 0.0
        mass = base.sum()
        for ctx in self.state(code, prefix):
            table = self.levels[len(ctx)][ctx]
            total = sum(table.values())
            values = {tok: self.weights[len(ctx)] * c / total for tok, c in table.items()}
            ids = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
            out[ids] += np.fromiter(values.values(), dtype=np.float64, count=len(values))
            row = 0.0
            for tok in sorted(values):
                if tok not in (PAD_ID, START_ID):
                    row += values[tok]
            mass += row
        out[PAD_ID] = 0.0
        out[START_ID] = 0.0
        out /= mass
        return out


# -- path enumeration for decoding -------------------------------------------

def enumerate_paths(model, code, max_length):
    """All complete generation paths with their total log-probability.

    A path ends with END (not stored) or by hitting max_length. Log
    probabilities accumulate stepwise in generation order, matching the
    float arithmetic of a sequential decoder.
    """
    from titlegen.text import END_ID, START_ID

    paths = []

    def walk(prefix_ids, surface, logp):
        dist = model.next_distribution(code, prefix_ids)
        with np.errstate(divide="ignore"):
            logdist = np.log(dist)
        for tok in range(dist.shape[0]):
            if dist[tok] <= 0.0:
                continue
            nlp = logp + float(logdist[tok])
            if tok == END_ID:
                paths.append((nlp, tuple(surface)))
            elif len(surface) + 1 >= max_length:
                paths.append((nlp, tuple(surface) + (tok,)))
            else:
                walk(prefix_ids + [tok], surface + [tok], nlp)

    walk([START_ID], [], 0.0)
    return paths


def loop_beam_search(model, code, beam_size, k, max_length=48):
    """The tuple-based beam search the package once ran, kept as the
    reference: one (score, ids) tuple per (beam, token) pair, a full sort
    of the expansions every step, and no early stop before max_length."""
    from titlegen.text import END_ID, START_ID

    live = [(0.0, ())]
    finished = []
    while live:
        expansions = []
        for logp, ids in live:
            dist = model.next_distribution(code, [START_ID, *ids])
            with np.errstate(divide="ignore"):
                logdist = np.log(dist)
            for tok in range(dist.shape[0]):
                if dist[tok] <= 0.0:
                    continue
                cand = (logp + float(logdist[tok]), ids + (tok,))
                if tok == END_ID:
                    finished.append((cand[0], ids))
                elif len(cand[1]) >= max_length:
                    finished.append(cand)
                else:
                    expansions.append(cand)
        expansions.sort(key=lambda e: (-e[0], e[1]))
        live = expansions[:beam_size]
    finished.sort(key=lambda e: (-e[0], e[1]))
    return [list(ids) for _, ids in finished[:k]]


def loop_decode_candidates(model, code, config):
    """The per-row sampler the package once ran, kept as the reference:
    every step of every row calls ``next_distribution`` and the per-element
    sampling loops, with nothing shared between rows or steps."""
    from titlegen.decode import CandidatePool
    from titlegen.text import END_ID, START_ID

    vocab = model.vocabulary
    candidates = []
    # One stream per pool; each row takes the next max_length values of
    # it, one scalar draw at a time, however many steps the row runs.
    rng = np.random.default_rng(config.seed)
    for row in range(config.num_samples):
        draws = [rng.random() for _ in range(config.max_length)]
        prefix = [START_ID]
        out = []
        while len(out) < config.max_length:
            dist = model.next_distribution(code, prefix)
            tok = loop_sample_step(dist, config.top_p, config.temperature, draws[len(out)])
            if tok == END_ID:
                break
            out.append(tok)
            prefix.append(tok)
        candidates.append(vocab.decode(out))
    return CandidatePool(input=vocab.decode(list(code)), candidates=candidates, config=config)


def rollout_probability(model, code, title_ids, max_length):
    """Probability that sampling with beta=1, t=1 emits exactly title_ids."""
    from titlegen.text import END_ID, START_ID

    prob = 1.0
    prefix = list(title_ids) + ([END_ID] if len(title_ids) < max_length else [])
    state = [START_ID]
    for tok in prefix:
        dist = model.next_distribution(code, state)
        prob *= float(dist[tok])
        state.append(tok)
    return prob


# -- deterministic rng used by random-model fixtures --------------------------

def stable_rng(*parts) -> np.random.Generator:
    """Generator seeded from a crc32 over the textual parts."""
    key = zlib.crc32(repr(parts).encode("utf-8"))
    return np.random.default_rng(key)
