"""Acceptance gate: ten end-to-end checks with pinned tolerances.

Each test prints one [PASS]/[FAIL] line on the real stdout so the
verdicts survive pytest's capture in the terminal log.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

import titlegen as tg
from titlegen import _kernels, records
from titlegen.cli import main as cli_main

from .conftest import (
    AUDIT_KEPT_IDS,
    NUM_TOPICS,
    DummyModel,
    audit_posts,
    topic_code,
    topic_title,
    write_raw_corpus,
)
from .oracles import (
    HAND_PAIRS,
    bleu_oracle,
    bm25_oracle,
    enumerate_paths,
    mmns_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
    stable_rng,
)
from .test_retrieve import make_docs


@pytest.fixture
def criterion(capfd):
    """Context manager printing exactly one verdict line per criterion,
    past pytest's output capture."""

    @contextmanager
    def _criterion(num: int, text: str):
        note = {}
        status = "FAIL"
        try:
            yield note
            status = "PASS"
        finally:
            suffix = f" ({note['detail']})" if "detail" in note else ""
            with capfd.disabled():
                print(f"[{status}] criterion {num}: {text}{suffix}", flush=True)

    return _criterion


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # Keeps one-off first-call costs out of the timed criteria, which
    # measure steady-state work.
    d = np.array([0.6, 0.4])
    _kernels.apply_temperature_kernel(d, 0.5)
    _kernels.sample_step_kernel(d.cumsum(), 0.3)
    _kernels.lcs_length_kernel(
        np.array([0, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64)
    )


@pytest.fixture(scope="module")
def toy_run(toy_model):
    """Shared toy-corpus evaluation: 100 inputs, M=200 pools, both
    selection strategies kept at depth 5 (3-prefixes are criterion 5)."""
    vocab = toy_model.vocabulary
    start = time.perf_counter()
    rows = []
    for pos in range(100):
        topic = pos % NUM_TOPICS
        code = vocab.encode(topic_code(topic))
        config = tg.SamplingConfig(
            top_p=0.8, temperature=0.5, num_samples=200, max_length=12, seed=5000 + pos
        )
        pool = tg.decode_candidates(toy_model, code, config)
        sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=5))
        rows.append(
            {
                "reference": topic_title(topic, "a"),
                "rns": pool.candidates[:5],
                "mmns": [pool.candidates[i] for i in sel.indices],
            }
        )
    return {"rows": rows, "elapsed": time.perf_counter() - start}


def test_criterion_1_nucleus_properties(criterion):
    with criterion(1, "nucleus filter properties, 1000 dists x 10 betas") as note:
        rng = stable_rng("acceptance-nucleus")
        betas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        cases = []
        for _ in range(1000):
            v = int(rng.integers(2, 51))
            probs = rng.random(v) + 1e-3
            if rng.integers(0, 2):
                probs[rng.random(v) < 0.3] = 0.0
                if probs.sum() == 0.0:
                    probs[0] = 1.0
            cases.append(probs / probs.sum())
        start = time.perf_counter()
        for probs in cases:
            for beta in betas:
                out = tg.nucleus_filter(probs, beta)
                support = out > 0.0
                assert abs(out.sum() - 1.0) <= 1e-9
                kept_mass = probs[support].sum()
                assert kept_mass >= beta - 1e-9
                weakest = probs[support].min()
                if beta < 1.0 and support.sum() > 1:
                    # dropping the weakest survivor must fall below beta
                    assert kept_mass - weakest < beta
                dropped = probs[~support]
                if dropped.size:
                    assert weakest >= dropped.max()
                np.testing.assert_allclose(
                    out[support], probs[support] / kept_mass, rtol=0.0, atol=1e-12
                )
        elapsed = time.perf_counter() - start
        note["detail"] = f"{elapsed:.2f} s"
        assert elapsed < 5.0


def test_criterion_2_sampling_fidelity(criterion):
    with criterion(2, "100k draws: chi-square p > 0.01, freqs within 0.01") as note:
        dist = np.array([0.30, 0.22, 0.16, 0.12, 0.08, 0.05, 0.04, 0.03])
        rng = np.random.default_rng(20210814)
        draws = 100_000
        counts = np.zeros(dist.shape[0], dtype=np.int64)
        cdf = dist.cumsum().tolist()
        for u in rng.random(draws).tolist():
            counts[_kernels.sample_step_kernel(cdf, u)] += 1
        freqs = counts / draws
        _, p_value = scipy.stats.chisquare(counts, dist * draws)
        worst = float(np.abs(freqs - dist).max())
        note["detail"] = f"p={p_value:.3f}, max |freq-p|={worst:.4f}"
        assert p_value > 0.01
        assert worst <= 0.01


def test_criterion_3_beam_equals_enumeration(criterion):
    with criterion(3, "beam top-|paths| equals exhaustive enumeration, 50 models") as note:
        for trial in range(50):
            model = DummyModel(vocab_size=5 + trial % 2, seed=300 + trial)
            max_length = 2 + trial % 3
            code = [3, 4]
            paths = enumerate_paths(model, code, max_length)
            paths.sort(key=lambda pr: (-pr[0], pr[1]))
            got = tg.beam_search(
                model, code, beam_size=len(paths), k=len(paths), max_length=max_length
            )
            assert got == [list(ids) for _, ids in paths]
        note["detail"] = "vocab <= 6, max length <= 4"


def test_criterion_4_mmns_oracle_equivalence(criterion):
    with criterion(4, "maximal marginal selection equals brute force, 200 pools") as note:
        rng = stable_rng("acceptance-mmns")
        alphabet = "abcd"
        for _ in range(200):
            pool = []
            for _ in range(int(rng.integers(1, 7))):
                length = int(rng.integers(0, 5))
                pool.append(
                    [alphabet[int(rng.integers(0, 4))] for _ in range(length)]
                )
            k = int(rng.integers(1, 4))
            dedup = bool(rng.integers(0, 2))
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=k, dedup=dedup))
            assert sel.indices == mmns_oracle(pool, k, dedup=dedup)
        note["detail"] = "M <= 6, k <= 3, exact index agreement"


def test_criterion_5_diversity_dominance(criterion, toy_run):
    with criterion(5, "toy corpus: MMNS diversity beats RNS, BLEUS-4@1 no worse") as note:
        rows = toy_run["rows"]
        assert len(rows) >= 100
        mmns_div = np.mean([tg.mean_pairwise_relevance(r["mmns"][:3]) for r in rows])
        rns_div = np.mean([tg.mean_pairwise_relevance(r["rns"][:3]) for r in rows])
        mmns_bleu = np.mean([tg.bleus4(r["mmns"][0], r["reference"]) for r in rows])
        rns_bleu = np.mean([tg.bleus4(r["rns"][0], r["reference"]) for r in rows])
        note["detail"] = (
            f"relevance {mmns_div:.3f} vs {rns_div:.3f}, "
            f"BLEUS-4@1 {mmns_bleu:.1f} vs {rns_bleu:.1f}, "
            f"{toy_run['elapsed']:.1f} s"
        )
        assert mmns_div < rns_div
        assert mmns_bleu >= rns_bleu
        assert toy_run["elapsed"] < 120.0


def test_criterion_6_metric_at_k_monotone(criterion, toy_run):
    with criterion(6, "Metric@1 <= Metric@3 <= Metric@5 on every toy input") as note:
        checked = 0
        for row in toy_run["rows"]:
            for strategy in ("rns", "mmns"):
                cands = row[strategy]
                for name in tg.METRICS:
                    at = [
                        tg.metric_at_k(cands[:k], row["reference"], name)
                        for k in (1, 3, 5)
                    ]
                    assert at[0] <= at[1] <= at[2]
                    checked += 1
        note["detail"] = f"{checked} (input, strategy, metric) triples"


def test_criterion_7_metric_oracles(criterion):
    with criterion(7, "BLEUS-4/ROUGE-1/2/L match formula oracles on 20 pairs") as note:
        oracles = {
            "bleus4": bleu_oracle,
            "rouge1": lambda c, r: rouge_n_oracle(c, r, 1),
            "rouge2": lambda c, r: rouge_n_oracle(c, r, 2),
            "rougeL": rouge_l_oracle,
        }
        assert len(HAND_PAIRS) == 20
        seen_full = seen_zero = False
        for cand, ref in HAND_PAIRS:
            for name, fn in tg.METRICS.items():
                got = fn(cand, ref)
                assert abs(got - oracles[name](cand, ref)) <= 1e-6, (name, cand)
                seen_full = seen_full or got == 100.0
                seen_zero = seen_zero or got == 0.0
        assert seen_full and seen_zero
        note["detail"] = "tolerance 1e-6, endpoints included"


def test_criterion_8_bm25_oracle(criterion):
    with criterion(8, "BM25 rankings equal exhaustive scoring, 100 docs x 50 queries") as note:
        rng = stable_rng("acceptance-bm25")
        docs = make_docs(rng, n=100)
        index = tg.build_index(docs)
        for _ in range(50):
            q = ["abcdefgh"[int(rng.integers(0, 8))] for _ in range(int(rng.integers(1, 5)))]
            got = tg.query(index, q, k=10)
            want = [(docs[pos][2], score) for pos, score in bm25_oracle(docs, q)[:10]]
            assert [t for t, _ in got] == [t for t, _ in want]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in want], rtol=0.0, atol=1e-12
            )
        note["detail"] = "titles and scores agree"


def test_criterion_9_pipeline_determinism(criterion, tmp_path, monkeypatch):
    with criterion(9, "two identical CLI runs produce byte-identical artifacts") as note:
        monkeypatch.delenv("TITLEGEN_SEED", raising=False)
        raw = tmp_path / "raw.jsonl"
        write_raw_corpus(raw)
        roots = []
        for name in ("run-a", "run-b"):
            base = tmp_path / name
            splits = base / "splits"
            steps = [
                ["prepare", "--input", raw, "--out-dir", splits,
                 "--val-count", 15, "--test-count", 15, "--seed", 3],
                ["train-lm", "--train", splits / "train.jsonl",
                 "--out", base / "model.json", "--seed", 3],
                ["generate", "--model", base / "model.json",
                 "--input", splits / "test.jsonl", "--out", base / "pools.jsonl",
                 "--limit", 10, "--num-samples", 30, "--max-length", 12,
                 "--temperature", "0.5", "--seed", 3],
                ["rank", "--pools", base / "pools.jsonl",
                 "--out", base / "selected.jsonl", "--seed", 3],
                ["evaluate", "--selections", base / "selected.jsonl",
                 "--out", base / "report.json", "--seed", 3],
            ]
            for argv in steps:
                assert cli_main([str(a) for a in argv]) == 0
            roots.append(base)
        rel_a = sorted(
            p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file()
        )
        rel_b = sorted(
            p.relative_to(roots[1]) for p in roots[1].rglob("*") if p.is_file()
        )
        assert rel_a == rel_b and rel_a
        for rel in rel_a:
            assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes(), rel
        note["detail"] = f"{len(rel_a)} artifacts compared"


def test_criterion_10_filter_and_split_fixture(criterion):
    with criterion(10, "12-post fixture filters and splits as expected") as note:
        posts = [records.post_from_dict(row) for row in audit_posts()]
        assert len(posts) == 12
        kept = list(tg.filter_posts(posts))
        assert [p.id for p in kept] == list(AUDIT_KEPT_IDS)
        dropped = {p.id for p in posts} - {p.id for p in kept}
        assert dropped == {2, 3, 4, 5, 6, 8, 10, 12}
        spec = tg.SplitSpec(val_count=1, test_count=1, fraction=0.2)
        train, val, test = tg.chronological_split(kept, spec, seed=0)
        assert sorted(p.id for p in train + val + test) == list(AUDIT_KEPT_IDS)
        for language in {p.language for p in kept}:
            in_train = [p.created_at for p in train if p.language == language]
            held = [p.created_at for p in val + test if p.language == language]
            if in_train and held:
                assert max(in_train) <= min(held)
        # the single-language java pool is too small for absolute counts
        # and falls back to the fraction (floor -> all train)
        assert {p.id for p in train} == {1, 9}
        assert {p.id for p in val} | {p.id for p in test} == {7, 11}
        note["detail"] = "kept {1,7,9,11}, dropped the rest"
