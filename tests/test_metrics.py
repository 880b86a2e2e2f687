import math

import pytest

import titlegen as tg

from .oracles import (
    HAND_PAIRS,
    bleu_oracle,
    rouge_l_oracle,
    rouge_n_oracle,
    stable_rng,
)

# Frozen by hand: p1 = 5/5, p2 = (3+1)/(4+1), p3 = (2+1)/(3+1),
# p4 = (1+1)/(2+1), BP = exp(1 - 6/5).
BLEU_CAT_EXAMPLE = 65.11126026643228


def random_tokens(rng, lo, hi, alphabet="abcdef"):
    length = int(rng.integers(lo, hi + 1))
    return [alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(length)]


class TestBleus4:
    def test_frozen_example(self):
        got = tg.bleus4("the cat sat on mat".split(), "the cat sat on the mat".split())
        assert got == pytest.approx(BLEU_CAT_EXAMPLE, abs=1e-12)

    def test_exact_match_is_100(self):
        toks = "how to sort a list".split()
        assert tg.bleus4(toks, toks) == pytest.approx(100.0)

    def test_no_unigram_overlap_is_0(self):
        assert tg.bleus4(["a", "b"], ["x", "y"]) == 0.0

    def test_empty_candidate_is_0(self):
        assert tg.bleus4([], ["a", "b"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            tg.bleus4(["a"], [])
        with pytest.raises(ValueError, match="empty reference"):
            tg.bleus4(["a"], ["[PAD]", "</s>"])

    def test_clipping_counts_each_reference_gram_once(self):
        # p1 = min(4, 1)/4; p2..p4 fully smoothed
        got = tg.bleus4(["the", "the", "the", "the"], ["the", "cat"])
        p1 = 1 / 4
        smoothed = (1 / 4) * (1 / 3) * (1 / 2)
        # candidate longer than reference, so BP caps at 1
        want = 100.0 * min(1.0, math.exp(1 - 2 / 4)) * (p1 * smoothed) ** 0.25
        assert got == pytest.approx(want, abs=1e-9)

    def test_long_candidate_pays_no_brevity_penalty(self):
        ref = ["a", "b", "c"]
        base = tg.bleus4(["a", "b", "c"], ref)
        padded = tg.bleus4(["a", "b", "c", "z", "z"], ref)
        # extra junk dilutes precision but BP stays capped at 1
        assert padded < base
        assert padded == pytest.approx(bleu_oracle(["a", "b", "c", "z", "z"], ref), abs=1e-9)

    def test_short_candidate_pays_brevity_penalty(self):
        score_full = tg.bleus4(["a", "b", "c", "d"], ["a", "b", "c", "d"])
        score_cut = tg.bleus4(["a", "b"], ["a", "b", "c", "d"])
        assert score_cut < score_full
        assert score_cut == pytest.approx(bleu_oracle(["a", "b"], ["a", "b", "c", "d"]), abs=1e-9)

    def test_matches_oracle_on_random_pairs(self):
        rng = stable_rng("bleu-random")
        for _ in range(200):
            cand = random_tokens(rng, 0, 8)
            ref = random_tokens(rng, 1, 8)
            assert tg.bleus4(cand, ref) == pytest.approx(bleu_oracle(cand, ref), abs=1e-9)


class TestRougeN:
    def test_unigram_closed_form(self):
        # overlap 2, precision 2/3, recall 1 -> F1 0.8
        assert tg.rouge_n(["a", "b", "c"], ["a", "b"], 1) == pytest.approx(80.0)

    def test_bigram_closed_form(self):
        # cand bigrams {ab, bc}, ref {ab}; overlap 1, p 1/2, r 1 -> 2/3
        assert tg.rouge_n(["a", "b", "c"], ["a", "b"], 2) == pytest.approx(100 * 2 / 3)

    def test_exact_match_is_100(self):
        toks = ["x", "y", "z"]
        assert tg.rouge_n(toks, toks, 1) == pytest.approx(100.0)
        assert tg.rouge_n(toks, toks, 2) == pytest.approx(100.0)

    def test_no_overlap_is_0(self):
        assert tg.rouge_n(["a"], ["b"], 1) == 0.0

    def test_zero_denominator_is_0(self):
        assert tg.rouge_n([], ["a", "b"], 1) == 0.0
        assert tg.rouge_n(["a"], ["b", "c"], 2) == 0.0  # candidate has no bigrams

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError, match="n must be 1 or 2"):
            tg.rouge_n(["a"], ["a"], 3)

    def test_matches_oracle_on_random_pairs(self):
        rng = stable_rng("rouge-n-random")
        for _ in range(200):
            cand = random_tokens(rng, 0, 8)
            ref = random_tokens(rng, 1, 8)
            for n in (1, 2):
                got = tg.rouge_n(cand, ref, n)
                assert got == pytest.approx(rouge_n_oracle(cand, ref, n), abs=1e-9)


class TestRougeL:
    def test_gap_subsequence_closed_form(self):
        # lcs("a x b", "a b") = 2: p 2/3, r 1 -> F1 0.8
        assert tg.rouge_l(["a", "x", "b"], ["a", "b"]) == pytest.approx(80.0)

    def test_order_matters(self):
        got = tg.rouge_l("on mat the cat sat".split(), "the cat sat on mat".split())
        # best common subsequence is "the cat sat" (length 3)
        assert got == pytest.approx(60.0)

    def test_exact_match_is_100(self):
        toks = ["p", "q", "r", "s"]
        assert tg.rouge_l(toks, toks) == pytest.approx(100.0)

    def test_no_common_token_is_0(self):
        assert tg.rouge_l(["a", "b"], ["x", "y"]) == 0.0

    def test_matches_oracle_on_random_pairs(self):
        rng = stable_rng("rouge-l-random")
        for _ in range(200):
            cand = random_tokens(rng, 0, 8)
            ref = random_tokens(rng, 1, 8)
            got = tg.rouge_l(cand, ref)
            assert got == pytest.approx(rouge_l_oracle(cand, ref), abs=1e-9)


class TestMarkersStripped:
    def test_padding_never_moves_a_score(self):
        cand = "convert string to int".split()
        ref = "convert string to int in java".split()
        noisy_cand = ["<s>", *cand, "</s>", "[PAD]", "[PAD]"]
        noisy_ref = [*ref, "[PAD]"]
        for name, fn in tg.METRICS.items():
            assert fn(noisy_cand, noisy_ref) == fn(cand, ref), name


class TestHandPairs:
    def test_twenty_pairs_match_oracles(self):
        oracles = {
            "bleus4": bleu_oracle,
            "rouge1": lambda c, r: rouge_n_oracle(c, r, 1),
            "rouge2": lambda c, r: rouge_n_oracle(c, r, 2),
            "rougeL": rouge_l_oracle,
        }
        assert len(HAND_PAIRS) == 20
        for cand, ref in HAND_PAIRS:
            for name, fn in tg.METRICS.items():
                got = fn(cand, ref)
                want = oracles[name](cand, ref)
                assert got == pytest.approx(want, abs=1e-6), (name, cand, ref)
                assert 0.0 <= got <= 100.0 + 1e-9

    def test_endpoints_present(self):
        scores = {
            name: [fn(c, r) for c, r in HAND_PAIRS] for name, fn in tg.METRICS.items()
        }
        for name in tg.METRICS:
            assert any(s == pytest.approx(100.0) for s in scores[name]), name
            assert any(s == 0.0 for s in scores[name]), name

    def test_frozen_bleu_value(self):
        cand, ref = HAND_PAIRS[0]
        assert tg.bleus4(cand, ref) == pytest.approx(BLEU_CAT_EXAMPLE, abs=1e-12)


class TestMetricAtK:
    def test_takes_best_candidate(self):
        ref = "a b c d".split()
        cands = [["x"], ["a", "b"], ["a", "b", "c", "d"]]
        for name, fn in tg.METRICS.items():
            want = max(fn(c, ref) for c in cands)
            assert tg.metric_at_k(cands, ref, name) == want

    def test_exact_candidate_hits_100(self):
        ref = "a b c d".split()
        cands = [["x", "y"], list(ref)]
        for name in tg.METRICS:
            assert tg.metric_at_k(cands, ref, name) == pytest.approx(100.0)

    def test_monotone_in_k(self):
        rng = stable_rng("at-k")
        ref = random_tokens(rng, 3, 6)
        cands = [random_tokens(rng, 1, 6) for _ in range(5)]
        for name in tg.METRICS:
            at = [tg.metric_at_k(cands[:k], ref, name) for k in (1, 3, 5)]
            assert at[0] <= at[1] <= at[2]

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="empty candidate list"):
            tg.metric_at_k([], ["a"], "bleus4")

    def test_accepts_callable(self):
        assert tg.metric_at_k([["a"]], ["a"], tg.rouge_l) == pytest.approx(100.0)


def per_k_report(rows, k, ids=None) -> tg.MetricReport:
    """One K's report with every candidate scored afresh by
    ``metric_at_k``, as reports were built before the sweep shared its
    scores."""
    report = tg.MetricReport(k=k)
    sums = {name: 0.0 for name in tg.METRICS}
    for pos, (candidates, reference) in enumerate(rows):
        entry = {"id": ids[pos] if ids is not None else pos}
        for name, fn in tg.METRICS.items():
            entry[name] = tg.metric_at_k(list(candidates)[:k], reference, fn)
            sums[name] += entry[name]
        report.per_example.append(entry)
    n = len(report.per_example)
    report.means = {name: (sums[name] / n if n else 0.0) for name in tg.METRICS}
    return report


def random_rows(rng, count):
    """(candidates, reference) rows; some rows hold fewer candidates than
    the largest K, and some candidates repeat or are empty."""
    rows = []
    for _ in range(count):
        cands = [random_tokens(rng, 0, 6, "abcd") for _ in range(int(rng.integers(1, 8)))]
        if len(cands) > 1 and rng.random() < 0.3:
            cands[-1] = list(cands[0])
        rows.append((cands, random_tokens(rng, 1, 6, "abcd")))
    return rows


class TestBuildReport:
    def test_sweep_equals_per_k_reports(self):
        rng = stable_rng("sweep-reports")
        for sweep in ([1, 3, 5], [2], [1, 2, 4, 8], [5, 3, 1], [3, 3]):
            rows = random_rows(rng, 30)
            ids = [f"q{i}" for i in range(len(rows))]
            got = tg.build_reports(rows, sweep, ids=ids)
            assert got == [per_k_report(rows, k, ids) for k in sweep]

    @pytest.mark.parametrize("sweep", [[], [1, 0], [-2]])
    def test_sweep_rejects_bad_k(self, sweep):
        with pytest.raises(ValueError, match="k must be >= 1"):
            tg.build_reports(random_rows(stable_rng("bad-k"), 2), sweep)

    def test_means_are_arithmetic(self):
        rows = [
            ([["a", "b"], ["x"]], ["a", "b"]),
            ([["q"], ["a", "b"]], ["a", "b", "c"]),
        ]
        report = tg.build_report(rows, k=2)
        assert report.k == 2
        assert len(report.per_example) == 2
        for name in tg.METRICS:
            scores = [row[name] for row in report.per_example]
            assert report.means[name] == pytest.approx(sum(scores) / len(scores))

    def test_only_first_k_compete(self):
        rows = [([["x"], ["a", "b"]], ["a", "b"])]
        at1 = tg.build_report(rows, k=1)
        at2 = tg.build_report(rows, k=2)
        assert at1.per_example[0]["rouge1"] == 0.0
        assert at2.per_example[0]["rouge1"] == pytest.approx(100.0)

    def test_ids_passed_through(self):
        rows = [([["a"]], ["a"])]
        report = tg.build_report(rows, k=1, ids=["q-17"])
        assert report.per_example[0]["id"] == "q-17"

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            tg.build_report([], k=0)

    def test_empty_rows_give_zero_means(self):
        report = tg.build_report([], k=3)
        assert report.per_example == []
        assert all(v == 0.0 for v in report.means.values())
