import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import titlegen as tg
from titlegen import records
from titlegen.cli import main as cli_main

from .conftest import raw_post
from .oracles import bm25_oracle, loop_postings, loop_query, stable_rng


def make_docs(rng, n, alphabet="abcdefgh", max_len=6):
    ids = [int(i) for i in rng.permutation(10 * n)[:n]]
    docs = []
    for pos in range(n):
        length = int(rng.integers(1, max_len + 1))
        toks = [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(length)]
        docs.append((ids[pos], toks, f"title {ids[pos]}"))
    return docs


def tied_docs(rng, n):
    """``make_docs`` plus copies of some documents under other ids, so
    equal scores occur and only the document id orders them."""
    docs = make_docs(rng, n, alphabet="abcdefghij", max_len=10)
    docs += [docs[int(i)] for i in rng.integers(0, n, size=int(rng.integers(0, n + 1)))]
    ids = rng.permutation(10 * len(docs))[: len(docs)]
    return [(int(i), toks, f"title {int(i)}") for i, (_, toks, _t) in zip(ids, docs)]


def random_query(rng):
    """1-8 tokens drawn with repeats, some not in any document."""
    return ["abcdefghijz"[int(rng.integers(0, 11))] for _ in range(int(rng.integers(1, 9)))]


def run_both(docs, query_tokens, k):
    index = tg.build_index(docs)
    got = tg.query(index, query_tokens, k)
    want = [(docs[pos][2], score) for pos, score in bm25_oracle(docs, query_tokens)[:k]]
    return got, want


class TestBuildIndex:
    def test_basic_statistics(self):
        docs = [(1, ["a", "b", "a"], "t1"), (2, ["b", "c"], "t2"), (3, ["d"], "t3")]
        index = tg.build_index(docs)
        assert index.num_docs == 3
        assert index.avgdl == pytest.approx(2.0)
        assert index.doc_frequency("a") == 1
        assert index.doc_frequency("b") == 2
        assert index.doc_frequency("zzz") == 0
        assert index.postings["a"] == [(0, 2)]

    def test_idf_closed_form(self):
        docs = [(1, ["a"], "t1"), (2, ["b"], "t2"), (3, ["c"], "t3")]
        index = tg.build_index(docs)
        assert index.idf("a") == pytest.approx(math.log(1 + (3 - 1 + 0.5) / 1.5))

    def test_idf_decreases_with_document_frequency(self):
        docs = [
            (1, ["rare", "mid", "common"], "t1"),
            (2, ["mid", "common"], "t2"),
            (3, ["common"], "t3"),
        ]
        index = tg.build_index(docs)
        assert index.idf("rare") > index.idf("mid") > index.idf("common")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            tg.build_index([])
        with pytest.raises(ValueError, match="empty corpus"):
            tg.build_index(doc for doc in [])

    def test_generator_builds_the_list_index(self):
        rng = stable_rng("bm25-stream")
        docs = [
            (int(i), [f"t{x}" for x in rng.integers(0, 30, int(rng.integers(1, 20)))], f"title {i}")
            for i in rng.permutation(60)
        ]
        want, got = tg.build_index(docs), tg.build_index(iter(docs))
        for attr in ("doc_ids", "titles", "doc_lens", "postings", "avgdl"):
            assert getattr(got, attr) == getattr(want, attr)
        for tokens in (docs[0][1], ["t1", "t2", "t2"], ["none"]):
            assert tg.query(got, tokens, 5) == tg.query(want, tokens, 5)


#: Corpora of 1-8 documents over a five-term alphabet: empty documents,
#: repeated terms and equal ids all occur.
CORPORA = st.lists(
    st.tuples(st.integers(0, 5), st.lists(st.sampled_from("abcde"), max_size=8)),
    min_size=1,
    max_size=8,
).map(lambda docs: [(i, toks, f"title {n}") for n, (i, toks) in enumerate(docs)])
QUERIES = st.lists(st.lists(st.sampled_from("abcdez"), min_size=1, max_size=6), max_size=4)
#: One document; empty documents beside others; repeated terms.
CORPUS_EXAMPLES = [
    [(7, ["a", "b", "a", "a"], "only")],
    [(1, [], "empty"), (2, ["c", "c"], "cc"), (3, [], "also empty")],
    [(4, ["b", "a", "b"], "bab"), (4, ["a", "a"], "aa"), (9, ["e"], "e")],
]


def postings_index(docs):
    """``BM25Index`` from the postings a per-document loop collects."""
    return tg.BM25Index(
        [d[0] for d in docs], [d[2] for d in docs], [len(d[1]) for d in docs], loop_postings(docs)
    )


def with_examples(test):
    for docs in CORPUS_EXAMPLES:
        test = example(docs=docs, queries=[["a"], ["c", "z", "c"], ["a", "b", "e", "a"]])(test)
    return test


class TestArrayBuild:
    """``build_index`` groups flat arrays; ``BM25Index`` flattens a dict
    of postings. Both must give the same index, compared with ``==``."""

    @with_examples
    @settings(max_examples=200, deadline=None)
    @given(docs=CORPORA, queries=QUERIES)
    def test_equals_postings_built_index(self, docs, queries):
        got, want = tg.build_index(docs), postings_index(docs)
        assert got._positions.tolist() == want._positions.tolist()
        assert got._weights.tolist() == want._weights.tolist()
        assert list(got._spans.items()) == list(want._spans.items())
        assert got.postings == want.postings == loop_postings(docs)
        for term in "abcdez":
            assert got.doc_frequency(term) == want.doc_frequency(term)
            assert got.idf(term) == want.idf(term)
        for q in queries:
            for k in (1, 3, len(docs) + 1):
                assert tg.query(got, q, k) == tg.query(want, q, k) == loop_query(want, q, k)

    def test_postings_is_read_only(self):
        index = tg.build_index([(1, ["a", "b", "a"], "t1")])
        with pytest.raises(TypeError):
            index.postings["c"] = [(0, 1)]
        with pytest.raises(AttributeError):
            index.postings = {}

    @with_examples
    @settings(max_examples=25, deadline=None)
    @given(docs=CORPORA, queries=QUERIES)
    def test_cli_index_roundtrip(self, docs, queries):
        # retrieve --train --index-out I, then retrieve --index I: the
        # same retrieved bytes, and I is a postings-built index's bytes.
        # Each post's code is its document's tokens, so the CLI indexes
        # ``docs`` itself.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            train, posts = tmp / "train.jsonl", tmp / "posts.jsonl"
            records.write_jsonl(
                train,
                (raw_post(i, title=t, code_snippets=[" ".join(toks)]) for i, toks, t in docs),
            )
            records.write_jsonl(
                posts, (raw_post(n, code_snippets=[" ".join(q)]) for n, q in enumerate(queries))
            )
            index_path, built, loaded = tmp / "I.json", tmp / "a.jsonl", tmp / "b.jsonl"
            common = ["retrieve", "--input", str(posts), "--k", "3"]
            assert cli_main(common + ["--train", str(train), "--index-out", str(index_path),
                                      "--out", str(built)]) == 0
            assert cli_main(common + ["--index", str(index_path), "--out", str(loaded)]) == 0
            assert loaded.read_bytes() == built.read_bytes()
            postings_index(docs).save(tmp / "J.json")
            assert index_path.read_bytes() == (tmp / "J.json").read_bytes()


class TestQuery:
    def test_exact_document_ranks_first(self):
        docs = [
            (1, ["def", "sort", "items"], "sorting"),
            (2, ["class", "node", "tree"], "trees"),
            (3, ["open", "file", "read"], "files"),
        ]
        index = tg.build_index(docs)
        hits = tg.query(index, ["class", "node", "tree"], k=3)
        assert hits[0][0] == "trees"
        assert all(hits[0][1] >= s for _, s in hits)

    def test_unindexed_terms_give_empty(self):
        index = tg.build_index([(1, ["a"], "t1")])
        assert tg.query(index, ["zzz"], k=5) == []

    def test_only_positive_scores_returned(self):
        docs = [(1, ["a", "b"], "t1"), (2, ["c", "d"], "t2")]
        index = tg.build_index(docs)
        hits = tg.query(index, ["a"], k=10)
        assert [t for t, _ in hits] == ["t1"]

    def test_ties_break_by_ascending_doc_id(self):
        docs = [
            (30, ["x", "y"], "t30"),
            (10, ["x", "y"], "t10"),
            (20, ["x", "y"], "t20"),
        ]
        index = tg.build_index(docs)
        hits = tg.query(index, ["x"], k=3)
        assert [t for t, _ in hits] == ["t10", "t20", "t30"]
        assert hits[0][1] == hits[1][1] == hits[2][1]

    def test_equal_ids_and_scores_keep_index_order(self):
        # Query order touches "second" first; the order must not depend on it.
        docs = [(5, ["y", "b"], "first"), (5, ["x", "a"], "second")]
        index = tg.build_index(docs)
        hits = tg.query(index, ["x", "y"], k=2)
        assert [t for t, _ in hits] == ["first", "second"]
        assert hits[0][1] == hits[1][1]

    def test_query_terms_contribute_per_occurrence(self):
        docs = [(1, ["x", "a"], "t1"), (2, ["b", "c"], "t2")]
        index = tg.build_index(docs)
        (_, single), = tg.query(index, ["x"], k=1)
        (_, double), = tg.query(index, ["x", "x"], k=1)
        assert double == 2 * single

    def test_higher_term_frequency_scores_higher(self):
        docs = [
            (1, ["x", "x", "a", "b"], "more"),
            (2, ["x", "c", "d", "e"], "less"),
        ]
        index = tg.build_index(docs)
        hits = tg.query(index, ["x"], k=2)
        assert [t for t, _ in hits] == ["more", "less"]

    def test_rejects_bad_k(self):
        index = tg.build_index([(1, ["a"], "t1")])
        with pytest.raises(ValueError, match="k must be >= 1"):
            tg.query(index, ["a"], k=0)

    def test_k_truncates(self):
        docs = [(i, ["x"], f"t{i}") for i in range(5)]
        index = tg.build_index(docs)
        assert len(tg.query(index, ["x"], k=2)) == 2
        assert len(tg.query(index, ["x"], k=50)) == 5

    def test_matches_exhaustive_oracle(self):
        rng = stable_rng("bm25-random")
        for _ in range(30):
            docs = make_docs(rng, n=int(rng.integers(2, 21)))
            n_q = int(rng.integers(1, 5))
            q = [
                "abcdefgh"[int(rng.integers(0, 8))] for _ in range(n_q)
            ]
            got, want = run_both(docs, q, k=int(rng.integers(1, 8)))
            assert [t for t, _ in got] == [t for t, _ in want]
            assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)

    def test_deterministic(self):
        rng = stable_rng("bm25-det")
        docs = make_docs(rng, n=12)
        index = tg.build_index(docs)
        assert tg.query(index, ["a", "b"], k=4) == tg.query(index, ["a", "b"], k=4)


class TestLoopEquivalence:
    """The array query against the scalar loop it replaced, with ``==``:
    same additions in the same order give bit-identical scores."""

    def test_random_corpora(self):
        rng = stable_rng("bm25-loop")
        ties = short = 0
        for _ in range(300):
            docs = tied_docs(rng, n=int(rng.integers(1, 30)))
            index = tg.build_index(docs)
            q = random_query(rng)
            k = int(rng.integers(1, len(docs) + 5))
            got = tg.query(index, q, k)
            assert got == loop_query(index, q, k)
            ties += any(a[1] == b[1] for a, b in zip(got, got[1:]))
            short += len(got) < k
        assert ties > 50 and short > 50  # both cases were exercised

    def test_ties_across_the_kth_score(self):
        # Copies of one document under shuffled ids tie at the k-th
        # score, more of them than the top k has room for.
        rng = stable_rng("bm25-kth-ties")
        spans = 0
        for _ in range(50):
            docs = make_docs(rng, n=int(rng.integers(1, 8)), alphabet="abcd")
            docs += [(0, ["a", "z"], "")] * int(rng.integers(2, 12))
            ids = rng.permutation(10 * len(docs))[: len(docs)]
            docs = [(int(i), toks, f"title {int(i)}") for i, (_, toks, _t) in zip(ids, docs)]
            index = tg.build_index(docs)
            for q in (["a"], ["a", "z"], ["z", "b", "a"]):
                every = loop_query(index, q, len(docs))
                for k in range(1, len(docs) + 1):
                    got = tg.query(index, q, k)
                    assert got == loop_query(index, q, k)
                    spans += len(every) > k and every[k - 1][1] == every[k][1]
        assert spans > 100

    def test_other_k1_and_b(self):
        rng = stable_rng("bm25-loop-params")
        for k1, b in ((0.0, 0.0), (0.0, 1.0), (2.0, 1.0), (0.5, 0.3), (1.2, 0)):
            docs = tied_docs(rng, n=20)
            index = tg.build_index(docs, k1=k1, b=b)
            for _ in range(20):
                q = random_query(rng)
                assert tg.query(index, q, 7) == loop_query(index, q, 7)

    def test_after_save_and_load(self, tmp_path):
        rng = stable_rng("bm25-loop-io")
        for trial in range(10):
            index = tg.build_index(tied_docs(rng, n=25))
            path = tmp_path / f"index{trial}.json"
            index.save(path)
            loaded = tg.BM25Index.load(path)
            for _ in range(20):
                q = random_query(rng)
                assert tg.query(loaded, q, 10) == loop_query(index, q, 10)


def _set(key, value):
    def mutate(payload):
        payload[key] = value
        return payload

    return mutate


def _postings(fn):
    def mutate(payload):
        fn(payload["postings"])
        return payload

    return mutate


#: (case id, edit of a valid index payload, expected error text). The
#: first five are a position past the end, position -1, a duplicated
#: posting, a non-object payload and a non-numeric k1.
BAD_INDEXES = [
    ("position_out_of_range", _postings(lambda p: p["b"][-1].__setitem__(0, 3)), "outside 0..2"),
    ("position_negative", _postings(lambda p: p["b"][0].__setitem__(0, -1)), "outside 0..2"),
    ("posting_duplicated", _postings(lambda p: p["a"].append(list(p["a"][0]))), "ascending"),
    ("payload_list", lambda payload: [payload], "not an index file"),
    ("k1_string", _set("k1", "x"), "k1='x'"),
    ("k1_infinite", _set("k1", float("inf")), "k1=inf"),
    ("k1_negative", _set("k1", -1.0), "k1=-1.0"),
    ("b_above_one", _set("b", 1.5), "b=1.5"),
    ("b_bool", _set("b", True), "b=True"),
    ("missing_key", lambda payload: {k: v for k, v in payload.items() if k != "titles"}, "lacks"),
    ("doc_id_string", _set("doc_ids", ["1", 2, 3]), "doc_ids must be integers"),
    ("title_number", _set("titles", ["t1", 2, "t3"]), "titles must be strings"),
    ("doc_len_negative", _set("doc_lens", [3, 2, -1]), "doc_lens must be integers >= 0"),
    ("doc_lens_mismatch", _set("doc_lens", [3, 2, 3]), "summed term frequencies"),
    ("doc_len_past_float", _set("doc_lens", [3, 10**400, 2]), "summed term frequencies"),
    ("lists_misaligned", _set("titles", ["t1", "t2"]), "must align"),
    ("postings_list", _set("postings", []), "postings must be an object"),
    ("posting_triple", _postings(lambda p: p["d"][0].append(1)), "integer pairs"),
    ("posting_float", _postings(lambda p: p["d"][0].__setitem__(1, 1.0)), "integer pairs"),
    ("posting_frequency_zero", _postings(lambda p: p["d"][0].__setitem__(1, 0)), "below 1"),
    ("posting_huge", _postings(lambda p: p["d"][0].__setitem__(1, 2**70)), "out of range"),
    ("positions_descending", _postings(lambda p: p["b"].reverse()), "ascending"),
]


def write_bad_index(path, mutate):
    """A valid three-document index file with ``mutate`` applied."""
    docs = [(1, ["a", "b", "a"], "t1"), (2, ["b", "c"], "t2"), (3, ["d", "b"], "t3")]
    tg.build_index(docs).save(path)
    payload = mutate(json.loads(path.read_text(encoding="utf-8")))
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestSerialization:
    def test_roundtrip_preserves_queries(self, tmp_path):
        rng = stable_rng("bm25-io")
        docs = make_docs(rng, n=15)
        index = tg.build_index(docs)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = tg.BM25Index.load(path)
        for q in (["a"], ["b", "c"], ["h", "h", "a"]):
            assert tg.query(loaded, q, k=5) == tg.query(index, q, k=5)

    def test_save_is_deterministic(self, tmp_path):
        docs = [(1, ["b", "a"], "t1"), (2, ["a"], "t2")]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tg.build_index(docs).save(a)
        tg.build_index(docs).save(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "mutate, message", [c[1:] for c in BAD_INDEXES], ids=[c[0] for c in BAD_INDEXES]
    )
    def test_rejects_malformed_index(self, tmp_path, mutate, message):
        path = tmp_path / "index.json"
        write_bad_index(path, mutate)
        with pytest.raises(ValueError, match=re.escape(message)):
            tg.BM25Index.load(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not an index file"):
            tg.BM25Index.load(path)
