import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import titlegen as tg
from titlegen.rank import MARGIN_EPS

from .oracles import consistency_oracle, mmns_oracle, relevance_oracle, stable_rng


def random_pool(rng, m=None, alphabet="abcde", max_len=4):
    m = m if m is not None else int(rng.integers(1, 7))
    pool = []
    for _ in range(m):
        length = int(rng.integers(0, max_len + 1))
        pool.append([alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(length)])
    return pool


#: Pairs of candidates with equal n-gram bags in a different token
#: order: bigram bags of closed walks, and one-token unigram bags
#: around reserved markers.
SAME_BAGS = [
    (["a", "b", "a"], ["b", "a", "b"]),
    (["a", "b", "c", "a"], ["b", "c", "a", "b"]),
    (["a", "<s>"], ["[PAD]", "a"]),
]

#: Short candidates over a small alphabet with reserved markers: empty
#: and one-token candidates (the unigram fallback) come up often.
candidate_st = st.lists(st.sampled_from(["a", "b", "c", "<s>", "[PAD]"]), max_size=6)


@st.composite
def pool_st(draw):
    pool = draw(st.lists(candidate_st, min_size=1, max_size=8))
    for pair in draw(st.lists(st.sampled_from(SAME_BAGS), max_size=2)):
        pool.extend(list(c) for c in pair)
    for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=3)):
        pool.append(list(pool[i]))
    return draw(st.permutations(pool))


class TestExactAgainstOracles:
    """The count arrays against the per-pair loops in ``oracles``, with
    ``==``: every integer they sum is exact, and the divisions and the
    pick-order subtractions are the same operations."""

    @given(pool_st())
    @settings(max_examples=300, deadline=None)
    @example(pool=[[], []])
    @example(pool=[["a"], ["<s>"], ["a", "b"]])
    def test_consistency(self, pool):
        assert tg.bigram_consistency_scores(pool) == consistency_oracle(pool)

    @given(candidate_st, candidate_st)
    @settings(max_examples=300, deadline=None)
    @example(a=[], b=[])
    @example(a=["<s>"], b=["a"])
    @example(a=["a", "b", "c", "a"], b=["b", "c", "a", "b"])
    def test_relevance(self, a, b):
        assert tg.relevance(a, b) == relevance_oracle(a, b)

    @pytest.mark.parametrize("a, b", SAME_BAGS)
    def test_equal_bags_in_another_order_are_one(self, a, b):
        assert tg.relevance(a, b) == 1.0 == relevance_oracle(a, b)

    @given(pool_st())
    @settings(max_examples=150, deadline=None)
    def test_pairwise_mean(self, pool):
        n = len(pool)
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += relevance_oracle(pool[i], pool[j])
        want = total / (n * (n - 1) / 2) if n > 1 else 0.0
        assert tg.mean_pairwise_relevance(pool) == want

    @given(pool_st(), st.integers(1, 12), st.booleans())
    @settings(max_examples=300, deadline=None)
    @example(pool=[["a", "b"], ["a", "b"], ["b", "a", "b"]], k=5, dedup=True)
    @example(pool=[[], [], ["<s>"]], k=3, dedup=False)
    def test_selection(self, pool, k, dedup):
        sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=k, dedup=dedup))
        assert sel.indices == mmns_oracle(pool, k, dedup=dedup)
        eligible = len({tuple(c) for c in pool}) if dedup else len(pool)
        assert len(sel.indices) == min(k, eligible)
        assert sel.initial_consistency == consistency_oracle(pool)[sel.indices[0]]
        for step in range(1, len(sel.indices)):
            margin = 0.0
            for s in sel.indices[:step]:
                margin -= relevance_oracle(pool[sel.indices[step]], pool[s])
            assert sel.marginals[step - 1] == margin
        assert len(sel.marginals) == len(sel.indices) - 1


class TestConsistencyScores:
    def test_hand_example(self):
        pool = [["a", "b", "c"], ["a", "b", "d"], ["x", "y", "z"]]
        assert tg.bigram_consistency_scores(pool) == [1.5, 1.5, 1.0]

    def test_identical_candidates_score_equal(self):
        pool = [["a", "b"], ["a", "b"], ["a", "b"]]
        scores = tg.bigram_consistency_scores(pool)
        assert scores[0] == scores[1] == scores[2]

    def test_single_candidate_distinct_bigrams(self):
        assert tg.bigram_consistency_scores([["a", "b", "c"]]) == [1.0]

    def test_short_candidate_uses_unigram_fallback(self):
        pool = [["a"], ["a", "b"], ["a", "c"]]
        scores = tg.bigram_consistency_scores(pool)
        # global unigrams: a:3, b:1, c:1 -> ["a"] scores 3
        assert scores[0] == 3.0

    def test_empty_candidate_scores_zero(self):
        assert tg.bigram_consistency_scores([[], ["a", "b"]])[0] == 0.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            tg.bigram_consistency_scores([])

    def test_matches_oracle_on_random_pools(self):
        rng = stable_rng("consistency")
        for _ in range(100):
            pool = random_pool(rng)
            got = tg.bigram_consistency_scores(pool)
            want = consistency_oracle(pool)
            assert got == pytest.approx(want, abs=1e-12)


class TestRelevance:
    def test_identical_is_one(self):
        assert tg.relevance(["a", "b", "c"], ["a", "b", "c"]) == 1.0
        assert tg.relevance(["a"], ["a"]) == 1.0

    def test_disjoint_is_zero(self):
        assert tg.relevance(["a", "b"], ["x", "y"]) == 0.0

    def test_closed_form_half(self):
        assert tg.relevance(["a", "b", "c"], ["a", "b", "d"]) == pytest.approx(0.5)

    def test_unigram_fallback(self):
        # ["a"] has no bigrams: cosine over unigrams {a} vs {a,b}
        assert tg.relevance(["a"], ["a", "b"]) == pytest.approx(1 / math.sqrt(2))

    def test_empty_side_is_zero(self):
        assert tg.relevance([], ["a", "b"]) == 0.0
        assert tg.relevance([], []) == 0.0

    def test_symmetric_and_bounded(self):
        rng = stable_rng("relevance")
        for _ in range(200):
            a, b = random_pool(rng, m=2)
            r = tg.relevance(a, b)
            assert r == tg.relevance(b, a)
            assert 0.0 <= r <= 1.0
            assert r == pytest.approx(relevance_oracle(a, b), abs=1e-12)


class TestMaximalMarginalSelect:
    def test_duplicate_pool_dedups(self):
        pool = [["a", "b", "c"], ["a", "b", "c"], ["x", "y", "z"]]
        sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=2, dedup=True))
        assert sel.indices == [0, 2]

    def test_k1_is_consistency_argmax(self):
        rng = stable_rng("k1")
        for _ in range(50):
            pool = random_pool(rng)
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=1))
            scores = tg.bigram_consistency_scores(pool)
            best = max(range(len(pool)), key=lambda i: (scores[i], -i))
            assert sel.indices == [best]
            assert sel.initial_consistency == scores[best]
            assert sel.marginals == []

    def test_disjoint_pool_selects_by_consistency_order(self):
        # pairwise bigram-disjoint: every marginal ties at -0, so picks
        # follow consistency rank
        pool = [["a", "b", "a", "b"], ["c", "d"], ["e", "f", "e", "f", "e"]]
        sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3))
        scores = tg.bigram_consistency_scores(pool)
        want = sorted(range(3), key=lambda i: (-scores[i], i))
        assert sel.indices == want

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty candidate pool"):
            tg.maximal_marginal_select([], tg.RankingConfig(k=1))

    def test_matches_brute_force_oracle(self):
        rng = stable_rng("mmns-oracle")
        for trial in range(120):
            pool = random_pool(rng)
            k = int(rng.integers(1, 4))
            dedup = bool(rng.integers(0, 2))
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=k, dedup=dedup))
            assert sel.indices == mmns_oracle(pool, k, dedup=dedup)

    def test_greedy_step_optimality(self):
        rng = stable_rng("greedy-opt")
        for _ in range(40):
            pool = random_pool(rng, m=6)
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3, dedup=False))
            for step in range(1, len(sel.indices)):
                chosen_so_far = sel.indices[:step]
                margin_of = lambda i: -sum(
                    tg.relevance(pool[i], pool[s]) for s in chosen_so_far
                )
                recorded = sel.marginals[step - 1]
                assert recorded == pytest.approx(margin_of(sel.indices[step]), abs=1e-9)
                for other in range(len(pool)):
                    if other in chosen_so_far or other == sel.indices[step]:
                        continue
                    assert margin_of(other) <= recorded + MARGIN_EPS

    def test_marginals_are_pick_order_sums_of_oracle(self):
        # Bags and norms are built once per pool; the floats must still be
        # the oracle's, bit for bit, subtracted in pick order. Repeated
        # bigrams make counts above 1, where the order of the norm's
        # operations shows.
        rng = stable_rng("mmns-bits")
        for _ in range(80):
            pool = random_pool(rng, m=int(rng.integers(2, 9)), alphabet="abc", max_len=10)
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=4, dedup=False))
            for step in range(1, len(sel.indices)):
                margin = 0.0
                for s in sel.indices[:step]:
                    margin -= relevance_oracle(pool[sel.indices[step]], pool[s])
                assert sel.marginals[step - 1] == margin

    def test_permutation_invariant_with_distinct_scores(self):
        pool = [
            ["a", "b", "a", "b"],
            ["c", "d"],
            ["e", "f", "e", "f", "e"],
            ["g", "h", "g", "h", "g", "h"],
        ]
        base = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3))
        base_strings = {tuple(pool[i]) for i in base.indices}
        perm = [2, 0, 3, 1]
        shuffled = [pool[i] for i in perm]
        other = tg.maximal_marginal_select(shuffled, tg.RankingConfig(k=3))
        assert {tuple(shuffled[i]) for i in other.indices} == base_strings

    def test_no_duplicate_strings_with_dedup(self):
        rng = stable_rng("dedup")
        for _ in range(50):
            pool = random_pool(rng, alphabet="ab", max_len=2)
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3, dedup=True))
            strings = [tuple(pool[i]) for i in sel.indices]
            assert len(set(strings)) == len(strings)

    def test_selection_length_bounded_by_distinct(self):
        pool = [["a", "b"], ["a", "b"], ["a", "b"]]
        sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3, dedup=True))
        assert sel.indices == [0]

    def test_diversity_dominance_vs_random_subsets(self, toy_model):
        # MMNS average pairwise relevance should beat (or tie) a uniform
        # random k-subset of the same pool in at least 95% of draws.
        rng = stable_rng("dominance")
        wins = trials = 0
        for pos in range(6):
            code = toy_model.vocabulary.encode(["fn", "call", f"k{pos}"])
            cfg = tg.SamplingConfig(
                top_p=0.8, temperature=0.5, num_samples=60, max_length=12, seed=900 + pos
            )
            pool = tg.decode_candidates(toy_model, code, cfg)
            sel = tg.maximal_marginal_select(pool, tg.RankingConfig(k=3))
            r_mmns = tg.mean_pairwise_relevance([pool.candidates[i] for i in sel.indices])
            for _ in range(100):
                subset = rng.choice(len(pool.candidates), size=3, replace=False)
                r_rand = tg.mean_pairwise_relevance([pool.candidates[i] for i in subset])
                trials += 1
                wins += r_mmns <= r_rand
        assert wins / trials >= 0.95


class TestMeanPairwiseRelevance:
    def test_small_cases(self):
        assert tg.mean_pairwise_relevance([]) == 0.0
        assert tg.mean_pairwise_relevance([["a", "b"]]) == 0.0
        assert tg.mean_pairwise_relevance([["a", "b"], ["a", "b"]]) == 1.0

    def test_equals_pair_loop_of_oracle(self):
        rng = stable_rng("mpr-bits")
        for _ in range(60):
            titles = random_pool(rng, m=int(rng.integers(2, 7)), alphabet="abc", max_len=10)
            n = len(titles)
            total = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    total += relevance_oracle(titles[i], titles[j])
            assert tg.mean_pairwise_relevance(titles) == total / (n * (n - 1) / 2)

    def test_average_over_pairs(self):
        titles = [["a", "b"], ["a", "b"], ["x", "y"]]
        # pairs: (0,1)=1, (0,2)=0, (1,2)=0
        assert tg.mean_pairwise_relevance(titles) == pytest.approx(1 / 3)
