import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import titlegen as tg
from titlegen import cli, decode, lm, records
from titlegen.text import END_ID, PAD, PAD_ID, START, START_ID

from .conftest import DummyModel, build_toy_model, raw_post, topic_code
from .test_lm import (
    level_dicts,
    make_gapped_model,
    row_nuclei,
    row_state,
    step_state_contexts,
)
from .oracles import (
    DictNGramLM,
    enumerate_paths,
    loop_beam_search,
    loop_decode_candidates,
    loop_nucleus_filter,
    nucleus_oracle,
    rollout_probability,
    stable_rng,
)


def make_tiny_model(order=3):
    v = tg.Vocabulary()
    pairs = [(v.encode(["x"], grow=True), v.encode(["a", "b"], grow=True))]
    return tg.train_ngram_lm(pairs, order, v), v


class TableModel(tg.GeneratorModel):
    """Hand-written conditionals keyed by the generated prefix; every
    token not listed has probability exactly 0."""

    def __init__(self, table):
        self._vocab = tg.Vocabulary(list(tg.RESERVED) + ["a", "b", "c"])
        self._table = table

    @property
    def vocabulary(self):
        return self._vocab

    def next_distribution(self, code, prefix):
        out = np.zeros(len(self._vocab))
        names = tuple(self._vocab.decode(list(prefix[1:])))
        for tok, p in self._table[names].items():
            out[END_ID if tok == "END" else self._vocab.id(tok)] = p
        return out


class CallCounter(tg.GeneratorModel):
    """Counts ``next_distribution`` calls; keys states as the model does,
    and keeps the default ``step_nuclei``."""

    def __init__(self, model):
        self._model = model
        self.calls = 0

    @property
    def vocabulary(self):
        return self._model.vocabulary

    def next_distribution(self, code, prefix):
        self.calls += 1
        return self._model.next_distribution(code, prefix)

    def step_states(self, codes, pools, prefixes):
        return self._model.step_states(codes, pools, prefixes)


def decode_steps(pool):
    """Kernel draws a pool took: one per token, plus the END draw of
    every row that stopped short of max_length."""
    cap = pool.config.max_length
    return sum(len(c) + (len(c) < cap) for c in pool.candidates)


#: START -> a | c, each 0.5; both paths end with the same score, and the
#: longer one wins the id tie-break (a < c).
TIE_TABLE = {
    (): {"a": 0.5, "c": 0.5},
    ("a",): {"b": 1.0},
    ("c",): {"END": 1.0},
    ("a", "b"): {"END": 1.0},
}


class TestSamplingConfig:
    def test_defaults(self):
        cfg = tg.SamplingConfig()
        assert cfg.top_p == 0.8 and cfg.temperature == 1.0 and cfg.num_samples == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"temperature": 0.0},
            {"temperature": -1.0},
            {"num_samples": 0},
            {"max_length": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"temperature": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            tg.SamplingConfig(**kwargs)


class TestNucleusFilter:
    def test_boundary_inclusion(self):
        out = tg.nucleus_filter([0.5, 0.3, 0.2], 0.7)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0])

    def test_beta_one_is_identity(self):
        dist = np.array([0.4, 0.1, 0.5])
        np.testing.assert_array_equal(tg.nucleus_filter(dist, 1.0), dist)

    def test_top_token_alone(self):
        np.testing.assert_allclose(tg.nucleus_filter([0.9, 0.1], 0.5), [1.0, 0.0])

    def test_exact_boundary_mass_included(self):
        # cumulative 0.5 + 0.3 equals beta: the prefix must stop there
        out = tg.nucleus_filter([0.5, 0.3, 0.2], 0.8)
        assert out[2] == 0.0

    def test_tie_at_threshold_broken_by_ascending_index(self):
        out = tg.nucleus_filter([0.25, 0.25, 0.25, 0.25], 0.5)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.0, 0.0])

    def test_rejects_bad_beta(self):
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                tg.nucleus_filter([1.0], beta)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tg.nucleus_filter([bad, 0.5], 0.8)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="distribution must have positive mass"):
            tg.nucleus_filter(np.zeros(4), 0.8)

    def _check_properties(self, dist, beta):
        out = tg.nucleus_filter(dist, beta)
        support = np.nonzero(out)[0]
        assert abs(out.sum() - 1.0) <= 1e-9
        # minimality: dropping the weakest survivor dips below beta
        mass = dist[support].sum()
        assert mass >= beta - 1e-9
        if len(support) > 1:
            weakest = support[np.argmin(dist[support])]
            assert mass - dist[weakest] < beta + 1e-9
        # order preservation among survivors, as far as dividing by the
        # mass keeps it: rounding can merge inputs one ulp apart
        for i in support:
            for j in support:
                if dist[i] > dist[j]:
                    assert out[i] >= out[j]
                elif dist[i] == dist[j]:
                    assert out[i] == out[j]
        np.testing.assert_allclose(out, nucleus_oracle(dist, beta), atol=1e-12)

    def test_properties_on_random_distributions(self):
        rng = stable_rng("nucleus-props")
        for _ in range(200):
            size = int(rng.integers(1, 50))
            dist = rng.random(size) + 1e-9
            dist /= dist.sum()
            self._check_properties(dist, float(rng.uniform(0.05, 1.0)))

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100)
    # 0.21333333333333332 and 0.21333333333333335 both divide to
    # 0.35555555555555557.
    @example(raw=[1.0, 0.5, 0.5, 0.5, 0.8125, 0.9999999999999999, 0.375], beta=0.5)
    def test_properties_hypothesis(self, raw, beta):
        dist = np.array(raw) / np.sum(raw)
        self._check_properties(dist, beta)


class TestApplyTemperature:
    def test_identity_at_one(self):
        dist = np.array([0.7, 0.2, 0.1])
        np.testing.assert_array_equal(tg.apply_temperature(dist, 1.0), dist)

    def test_symmetric_unchanged(self):
        for t in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                tg.apply_temperature([0.5, 0.5], t), [0.5, 0.5], atol=1e-12
            )

    def test_closed_form_half(self):
        out = tg.apply_temperature([0.8, 0.2], 0.5)
        want = np.array([0.64, 0.04]) / 0.68
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_low_temperature_concentrates_on_argmax(self):
        out = tg.apply_temperature([0.6, 0.3, 0.1], 0.05)
        assert out[0] > 0.999

    def test_sums_to_one(self):
        rng = stable_rng("temp")
        for _ in range(50):
            dist = rng.random(12) + 1e-9
            dist /= dist.sum()
            for t in (0.25, 0.9, 3.0):
                assert abs(tg.apply_temperature(dist, t).sum() - 1.0) <= 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tg.apply_temperature([1.0], 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="temperature must be positive, got nan"):
            tg.apply_temperature([0.5, 0.3, 0.2], np.nan)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tg.apply_temperature([bad, 0.5, 0.5], 0.7)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="distribution must have positive mass"):
            tg.apply_temperature(np.zeros(4), 0.5)


class TestSampleToken:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert all(tg.sample_token([0.0, 1.0, 0.0], rng) == 1 for _ in range(20))

    def test_reproducible_stream(self):
        dist = [0.3, 0.3, 0.4]
        a = [tg.sample_token(dist, np.random.default_rng(9)) for _ in range(1)]
        b = [tg.sample_token(dist, np.random.default_rng(9)) for _ in range(1)]
        assert a == b
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        assert [tg.sample_token(dist, r1) for _ in range(50)] == [
            tg.sample_token(dist, r2) for _ in range(50)
        ]

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tg.sample_token([0.5, bad], np.random.default_rng(0))

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="distribution must have positive mass"):
            tg.sample_token(np.zeros(4), np.random.default_rng(0))

    def test_rounding_draws_the_entry_that_brought_the_sum_to_its_total(self):
        # The last entry is too small to move the running sum, so a draw
        # past the total falls back to the entry before it.
        class Uniform:
            def random(self):
                return 0.9

        assert tg.sample_token([0.5, 0.25, 1e-30], Uniform()) == 1

    def test_empirical_frequencies(self):
        dist = np.array([0.5, 0.2, 0.3])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        n = 30000
        for _ in range(n):
            counts[tg.sample_token(dist, rng)] += 1
        np.testing.assert_allclose(counts / n, dist, atol=0.02)


class TestDecodeCandidates:
    def test_same_seed_identical(self, toy_model):
        cfg = tg.SamplingConfig(num_samples=20, max_length=8, seed=77)
        code = toy_model.vocabulary.encode(["fn", "call", "k0"])
        a = tg.decode_candidates(toy_model, code, cfg)
        b = tg.decode_candidates(toy_model, code, cfg)
        assert a.candidates == b.candidates

    def test_row_prefix_property(self, toy_model):
        code = toy_model.vocabulary.encode(["fn", "call", "k1"])
        big = tg.decode_candidates(
            toy_model, code, tg.SamplingConfig(num_samples=200, max_length=8, seed=5)
        )
        small = tg.decode_candidates(
            toy_model, code, tg.SamplingConfig(num_samples=100, max_length=8, seed=5)
        )
        assert big.candidates[:100] == small.candidates

    def test_pool_invariants(self, toy_model):
        cfg = tg.SamplingConfig(num_samples=50, max_length=5, seed=3)
        code = toy_model.vocabulary.encode(["fn", "call", "k2"])
        pool = tg.decode_candidates(toy_model, code, cfg)
        assert len(pool.candidates) == cfg.num_samples
        for cand in pool.candidates:
            assert len(cand) <= cfg.max_length
            assert PAD not in cand and START not in cand and "</s>" not in cand

    def test_greedy_when_beta_collapses(self):
        model, v = make_tiny_model()
        cfg = tg.SamplingConfig(top_p=1e-9, temperature=1.0, num_samples=1, max_length=6, seed=11)
        pool = tg.decode_candidates(model, v.encode(["x"]), cfg)
        # argmax rollout computed directly from the model
        want, prefix = [], [START_ID]
        for _ in range(cfg.max_length):
            tok = int(np.argmax(model.next_distribution(v.encode(["x"]), prefix)))
            if tok == END_ID:
                break
            want.append(tok)
            prefix.append(tok)
        assert pool.candidates[0] == v.decode(want)

    def test_title_frequency_matches_rollout_probability(self):
        # Single training pair: the title's empirical frequency must sit
        # within +-0.05 of its exact path probability. Sample size set
        # so +-0.05 is two standard deviations.
        model, v = make_tiny_model()
        code = v.encode(["x"])
        p_title = rollout_probability(model, code, v.encode(["a", "b"]), max_length=4)
        paths = enumerate_paths(model, code, max_length=4)
        total = sum(np.exp(lp) for lp, _ in paths)
        assert total == pytest.approx(1.0, abs=1e-9)
        match = next(np.exp(lp) for lp, ids in paths if v.decode(list(ids)) == ["a", "b"])
        assert match == pytest.approx(p_title, abs=1e-12)
        cfg = tg.SamplingConfig(top_p=1.0, temperature=1.0, num_samples=400, max_length=4, seed=21)
        pool = tg.decode_candidates(model, code, cfg)
        freq = sum(c == ["a", "b"] for c in pool.candidates) / cfg.num_samples
        assert abs(freq - p_title) <= 0.05

    def test_step1_frequencies_chi_square(self):
        # beta=1, t=1: first-step empirical counts against the model's
        # step-1 distribution (END draw = empty candidate).
        model = DummyModel(vocab_size=8, seed=4)
        code = [5, 6]
        dist = model.next_distribution(code, [START_ID])
        cfg = tg.SamplingConfig(top_p=1.0, temperature=1.0, num_samples=20000, max_length=1, seed=17)
        pool = tg.decode_candidates(model, code, cfg)
        counts = np.zeros(len(dist))
        for cand in pool.candidates:
            tok = END_ID if not cand else model.vocabulary.id(cand[0])
            counts[tok] += 1
        keep = dist > 0
        result = stats.chisquare(counts[keep], dist[keep] * cfg.num_samples)
        assert result.pvalue > 0.01


#: Sampling configs for the memo-vs-oracle checks; temperature is never 1,
#: so a memo that cached the untempered nucleus would show.
SAMPLING_CONFIGS = st.builds(
    tg.SamplingConfig,
    top_p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    temperature=st.floats(min_value=0.25, max_value=4.0).filter(lambda t: t != 1.0),
    num_samples=st.integers(min_value=1, max_value=40),
    max_length=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestNucleusMemo:
    """``decode_candidates`` computes each model state's nucleus once per
    memo; pools must equal the memo-free per-step reference exactly."""

    @given(
        cfg=SAMPLING_CONFIGS,
        topic=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_on_toy_model(self, toy_model, cfg, topic):
        code = toy_model.vocabulary.encode(topic_code(topic))
        assert tg.decode_candidates(toy_model, code, cfg) == loop_decode_candidates(
            toy_model, code, cfg
        )

    @given(
        cfg=SAMPLING_CONFIGS,
        model_seed=st.integers(min_value=0, max_value=50),
        vocab_size=st.integers(min_value=6, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_on_random_models(self, cfg, model_seed, vocab_size):
        model = DummyModel(vocab_size=vocab_size, seed=model_seed)
        code = [5, vocab_size - 1]
        assert tg.decode_candidates(model, code, cfg) == loop_decode_candidates(model, code, cfg)

    @pytest.mark.parametrize("top_p", [0.8, 1.0])
    def test_matches_loop_oracle_at_pipeline_defaults(self, toy_model, top_p):
        code = toy_model.vocabulary.encode(topic_code(3))
        cfg = tg.SamplingConfig(top_p=top_p, num_samples=200, max_length=8, seed=9)
        assert tg.decode_candidates(toy_model, code, cfg) == loop_decode_candidates(
            toy_model, code, cfg
        )

    def test_one_model_call_per_distinct_state(self, toy_model):
        counter = CallCounter(toy_model)
        code = toy_model.vocabulary.encode(topic_code(4))
        cfg = tg.SamplingConfig(num_samples=200, max_length=8, seed=13)
        pool = tg.decode_candidates(counter, code, cfg)
        assert counter.calls == len(pool_states(toy_model, code, pool))
        assert counter.calls < decode_steps(pool)

    def test_cached_ids_never_exceed_cap(self):
        # At top_p 1 every entry holds the whole vocabulary, so the cap
        # admits only a few states and the rest are computed unstored.
        model = DummyModel(vocab_size=8000, seed=1)
        size = len(model.vocabulary)
        counter = CallCounter(model)
        memo = decode.NucleusMemo(counter, 1.0, 1.3)
        peak = 0
        tables = memo.tables

        def recording(*step):
            nonlocal peak
            entries = tables(*step)
            peak = max(peak, memo.cached_ids)
            return entries

        memo.tables = recording
        for seed, code in enumerate(([5, 6], [7], [5, 6])):
            cfg = tg.SamplingConfig(
                top_p=1.0, temperature=1.3, num_samples=30, max_length=3, seed=seed
            )
            pool = tg.decode_candidates(counter, code, cfg, memo)
            assert pool == loop_decode_candidates(model, code, cfg)
        assert memo.capacity == decode._MEMO_IDS_PER_VOCAB * size
        assert peak <= memo.capacity
        # The cap was reached: no further vocabulary-sized entry fits.
        assert memo.capacity - peak < size
        assert counter.calls > memo.capacity // size

    def test_default_key_keeps_codes_apart(self):
        # DummyModel's distributions depend on the code and it keeps the
        # default key, so equal prefixes under two codes are two states.
        model = DummyModel(vocab_size=7, seed=3)
        assert row_state(model, [5], [START_ID]) == ((5,), (START_ID,))
        counter = CallCounter(model)
        memo = decode.NucleusMemo(counter, 0.9, 0.8)
        cfg = tg.SamplingConfig(top_p=0.9, temperature=0.8, num_samples=30, max_length=3, seed=4)
        states = {}
        for code in ([5], [6]):
            pool = tg.decode_candidates(counter, code, cfg, memo)
            assert pool == loop_decode_candidates(model, code, cfg)
            states[code[0]] = pool_states(model, code, pool)
        assert not states[5] & states[6]
        assert counter.calls == len(states[5]) + len(states[6])
        assert set(memo._entries) == states[5] | states[6]

    def test_memo_refuses_other_settings(self, toy_model):
        code = toy_model.vocabulary.encode(topic_code(2))
        memo = decode.NucleusMemo(toy_model, 0.8, 1.0)
        for kwargs in ({"top_p": 0.9}, {"temperature": 0.7}):
            with pytest.raises(ValueError, match="nucleus memo holds top_p=0.8 temperature=1.0"):
                tg.decode_candidates(toy_model, code, tg.SamplingConfig(**kwargs), memo)
        with pytest.raises(ValueError, match="another model"):
            tg.decode_candidates(DummyModel(6, 0), [5], tg.SamplingConfig(), memo)
        # The seed is not part of the memo's settings.
        for seed in (1, 2):
            cfg = tg.SamplingConfig(num_samples=20, max_length=6, seed=seed)
            assert tg.decode_candidates(toy_model, code, cfg, memo) == loop_decode_candidates(
                toy_model, code, cfg
            )

    def test_batched_uniforms_equal_successive_draws(self):
        # The block against one generator's successive scalar draws, row
        # after row.
        cases = ((0, 1, 48), (9, 4, 7), (4100, 200, 48), (2**64 - 1, 3, 48), (3, 2, 0))
        for seed, rows, length in cases:
            block = decode._row_uniforms(seed, rows, length).tolist()
            rng = np.random.default_rng(seed)
            assert block == [[rng.random() for _ in range(length)] for _ in range(rows)]
            # The first rows do not depend on how many follow.
            assert decode._row_uniforms(seed, 1, length).tolist() == block[:1]


def lockstep_model(name, toy_model):
    """(model, code) for the lockstep checks: a trained n-gram model with
    and without code, the gapped one (a context without its shorter
    suffix) and a model that keeps the default state key."""
    if name == "ngram":
        return toy_model, toy_model.vocabulary.encode(topic_code(3))
    if name == "ngram_no_code":
        # Code, NEXT and START are shorter than the model's context: tails
        # grow before they slide.
        return toy_model, []
    if name == "gapped":
        model = make_gapped_model()
        return model, model.vocabulary.encode(["c", "a"])
    return DummyModel(vocab_size=9, seed=5), [5, 8]


LOCKSTEP_MODELS = ["ngram", "ngram_no_code", "gapped", "dummy"]


class TestLockstep:
    """``decode_candidates`` advances a pool's rows together and draws by
    bisecting cached tables; every pool must equal the per-row, per-step
    reference exactly."""

    @pytest.mark.parametrize("name", LOCKSTEP_MODELS)
    @pytest.mark.parametrize(
        "settings",
        [
            {"max_length": 1, "num_samples": 30},
            {"num_samples": 1, "max_length": 8},
            {"top_p": 1.0, "num_samples": 40, "max_length": 8},
            {"temperature": 0.7, "num_samples": 40, "max_length": 8},
            {"top_p": 0.9, "temperature": 1.6, "num_samples": 40, "max_length": 8},
        ],
        ids=["max_length_1", "one_row", "top_p_1", "cold", "hot_nucleus"],
    )
    def test_matches_loop_oracle(self, toy_model, name, settings):
        model, code = lockstep_model(name, toy_model)
        cfg = tg.SamplingConfig(**{"seed": 7, **settings})
        assert tg.decode_candidates(model, code, cfg) == loop_decode_candidates(model, code, cfg)

    @pytest.mark.parametrize("name", LOCKSTEP_MODELS)
    def test_rows_end_at_different_steps(self, toy_model, name):
        model, code = lockstep_model(name, toy_model)
        cfg = tg.SamplingConfig(top_p=0.99, temperature=2.0, num_samples=60, max_length=9, seed=3)
        pool = tg.decode_candidates(model, code, cfg)
        assert pool == loop_decode_candidates(model, code, cfg)
        lengths = {len(c) for c in pool.candidates}
        assert len(lengths) >= 3 and min(lengths) < cfg.max_length

    @pytest.mark.parametrize("name", LOCKSTEP_MODELS)
    def test_exhausted_cap(self, toy_model, name, monkeypatch):
        # At top_p 1 a table holds the whole vocabulary, so a cap of one
        # vocabulary's ids holds the first state only; every later state
        # is computed and used without being stored.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 1)
        model, code = lockstep_model(name, toy_model)
        memo = decode.NucleusMemo(model, 1.0, 1.0)
        for seed in range(3):
            cfg = tg.SamplingConfig(top_p=1.0, num_samples=30, max_length=5, seed=seed)
            pool = tg.decode_candidates(model, code, cfg, memo)
            assert pool == loop_decode_candidates(model, code, cfg)
        assert len(memo._entries) == 1
        assert memo.cached_ids == memo.capacity == len(model.vocabulary)

    def test_cached_ids_count_stored_ids(self, toy_model, monkeypatch):
        # A cap of one vocabulary's ids fills partway through the run; from
        # then on some states are computed but not stored, and only the
        # stored tables' ids count.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 1)
        memo = decode.NucleusMemo(toy_model, 0.95, 1.0)
        vocab = toy_model.vocabulary
        states = set()
        for topic in range(10):
            code = vocab.encode(topic_code(topic))
            cfg = tg.SamplingConfig(top_p=0.95, num_samples=40, max_length=8, seed=topic)
            pool = tg.decode_candidates(toy_model, code, cfg, memo)
            assert pool == loop_decode_candidates(toy_model, code, cfg)
            states |= pool_states(toy_model, code, pool)
        assert len(memo._entries) < len(states)
        held = sum(len(ids) for ids, _ in memo._entries.values())
        assert memo.cached_ids == held <= memo.capacity

    def test_one_search_per_level_per_step(self, toy_model, monkeypatch):
        # Over one grouped call of three pools, NGramLM finds each step's
        # states with one ``searchsorted`` per level over all its live
        # rows: no one-row walk or distribution and no second lookup for
        # the misses. The memo is keyed by hit rows, one entry per state.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        searches, step_rows = [], []

        class Counted(np.ndarray):
            def searchsorted(self, v, *args, **kwargs):
                searches.append(len(v))
                return np.asarray(self).searchsorted(v, *args, **kwargs)

        def refused(*args):
            raise AssertionError("a one-row lookup ran while sampling")

        memo = decode.NucleusMemo(toy_model, 0.8, 1.0)
        tables = memo.tables

        def recording(codes, pools, prefixes):
            step_rows.append(len(prefixes))
            return tables(codes, pools, prefixes)

        keys = [k if k is None else k.view(Counted) for k in toy_model._key_arrays]
        vocab, span = toy_model.vocabulary, toy_model.order - 1
        jobs = [
            (vocab.encode(topic_code(topic)), tg.SamplingConfig(num_samples=60, max_length=8, seed=s))
            for s, topic in enumerate((3, 7, 3))
        ]
        with monkeypatch.context() as m:
            m.setattr(toy_model, "_key_arrays", keys)
            m.setattr(lm, "bisect_left", refused)
            m.setattr(tg.NGramLM, "_walk", refused)
            m.setattr(tg.NGramLM, "next_distribution", refused)
            m.setattr(memo, "tables", recording)
            pools = decode.decode_pools(toy_model, jobs, memo)
        assert searches == [rows for rows in step_rows for _ in range(span)]
        assert step_rows[0] == 180 and len(step_rows) > 1
        oracle = DictNGramLM(toy_model.order, len(vocab), level_dicts(toy_model))
        states = {}
        for (code, cfg), pool in zip(jobs, pools):
            assert pool == loop_decode_candidates(toy_model, code, cfg)
            for cand in pool.candidates:
                ids = vocab.encode(cand)
                for n in range(len(ids) + (len(ids) < cfg.max_length)):
                    prefix = [START_ID, *ids[:n]]
                    # The key's hit rows hold the state's contexts.
                    ((contexts, key),) = step_state_contexts(toy_model, [(code, prefix)])
                    assert contexts == oracle.state(code, prefix)
                    states.setdefault(key, set()).add(contexts)
        # Equal keys are equal states and the other way round.
        assert all(len(s) == 1 for s in states.values())
        assert len({s for (s,) in states.values()}) == len(states)
        assert set(memo._entries) == set(states)


def pool_states(model, code, pool):
    """The model states a pool's rows visited: one per draw."""
    states = set()
    for cand in pool.candidates:
        ids = model.vocabulary.encode(cand)
        for n in range(len(ids) + (len(ids) < pool.config.max_length)):
            states.add(row_state(model, code, [START_ID, *ids[:n]]))
    return states


class TestRunMemo:
    """``cli._pools`` shares one memo across every pool of a run."""

    CONFIG = {"seed": 11, "top_p": 0.8, "temperature": 1.2, "num_samples": 60, "max_length": 8}

    def run_pools(self, model, posts):
        res = cli._Resolver(SimpleNamespace(**self.CONFIG))
        return list(cli._pools(res, model, posts, "sample"))

    @staticmethod
    def posts(topics):
        return [
            records.post_from_dict(raw_post(i, code_snippets=[" ".join(topic_code(t))]))
            for i, t in enumerate(topics)
        ]

    def test_pools_match_fresh_calls_and_loop_oracle(self, toy_model):
        posts = self.posts([3, 7, 3, 0, 9, 7])
        assert_pools_alone(toy_model, posts, self.run_pools(toy_model, posts), self.CONFIG)

    def test_one_model_call_per_distinct_state_of_the_run(self, toy_model, monkeypatch):
        # The toy vocabulary is small, so its nuclei are a large share of
        # it; lift the cap so that every state is stored.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        posts = self.posts([3, 7, 3, 0, 9, 7])
        counter = CallCounter(toy_model)
        pools = self.run_pools(counter, posts)
        vocab = toy_model.vocabulary
        states = set()
        per_pool = 0
        for post, pool in zip(posts, pools):
            code = vocab.encode(cli._code_tokens(post, 512))
            visited = pool_states(toy_model, code, pool)
            states |= visited
            per_pool += len(visited)
        assert counter.calls == len(states)
        # Pools of the same topic revisit each other's states.
        assert counter.calls < per_pool


    def test_sparse_nucleus_on_every_state_of_the_run(self, toy_model, monkeypatch):
        # At temperature 1 the memo takes NGramLM's own nuclei; count the
        # states it computes, and check each state's arrays against the
        # default and the loop oracle.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        calls, computed = [], {}
        step_nuclei = tg.NGramLM.step_nuclei

        def counted(model, states, codes, pools, prefixes, top_p, temperature):
            found = step_nuclei(model, states, codes, pools, prefixes, top_p, temperature)
            calls.extend(states)
            computed.update(zip(states, found))
            return found

        monkeypatch.setattr(tg.NGramLM, "step_nuclei", counted)
        config = {**self.CONFIG, "temperature": 1.0}
        res = cli._Resolver(SimpleNamespace(**config))
        posts = self.posts([3, 7, 3, 0, 9, 7])
        pools = list(cli._pools(res, toy_model, posts, "sample"))
        vocab = toy_model.vocabulary
        states = {}
        for post, pool in zip(posts, pools):
            code = vocab.encode(cli._code_tokens(post, 512))
            for cand in pool.candidates:
                ids = vocab.encode(cand)
                for n in range(len(ids) + (len(ids) < pool.config.max_length)):
                    prefix = [START_ID, *ids[:n]]
                    states.setdefault(row_state(toy_model, code, prefix), (code, prefix))
        assert len(calls) == len(set(calls)) == len(states)
        assert set(calls) == set(states)
        monkeypatch.setattr(tg.NGramLM, "step_nuclei", step_nuclei)
        for key, (code, prefix) in states.items():
            ids, q = computed[key]
            want_ids, want_q = row_nuclei(toy_model, code, prefix, 0.8, default=True)
            assert ids.tobytes() == want_ids.tobytes() and q.tobytes() == want_q.tobytes()
            dense = np.zeros(len(vocab))
            dense[ids] = q
            oracle = loop_nucleus_filter(toy_model.next_distribution(code, prefix), 0.8)
            np.testing.assert_array_equal(dense, oracle)


class RecordingModel(tg.GeneratorModel):
    """A model that keeps the default ``step_states`` and ``step_nuclei``,
    recording how many rows ``step_states`` keys and the (code, prefix)
    of each ``next_distribution`` call."""

    def __init__(self, model):
        self._model = model
        self.rows = 0
        self.reads = []

    @property
    def vocabulary(self):
        return self._model.vocabulary

    def next_distribution(self, code, prefix):
        self.reads.append((tuple(code), tuple(prefix)))
        return self._model.next_distribution(code, prefix)

    def step_states(self, codes, pools, prefixes):
        self.rows += len(prefixes)
        return super().step_states(codes, pools, prefixes)


class TestGroups:
    """``decode_pools`` steps several pools together; each pool must equal
    the pool decoded alone and the row-by-row reference exactly."""

    @staticmethod
    def jobs(model, code):
        # Two codes, and pools of unequal size and length cap.
        other = code[:-1] if code else [5]
        return [
            (code, tg.SamplingConfig(top_p=0.9, num_samples=30, max_length=6, seed=1)),
            (other, tg.SamplingConfig(top_p=0.9, num_samples=1, max_length=9, seed=2)),
            (code, tg.SamplingConfig(top_p=0.9, num_samples=45, max_length=1, seed=3)),
            (code, tg.SamplingConfig(top_p=0.9, num_samples=30, max_length=6, seed=1)),
        ]

    @pytest.mark.parametrize("name", LOCKSTEP_MODELS)
    @pytest.mark.parametrize("temperature", [1.0, 0.7])
    def test_group_equals_pools_alone(self, toy_model, name, temperature):
        model, code = lockstep_model(name, toy_model)
        jobs = [
            (c, dataclasses.replace(cfg, temperature=temperature))
            for c, cfg in self.jobs(model, code)
        ]
        pools = decode.decode_pools(model, jobs)
        assert len(pools) == len(jobs)
        for (c, cfg), pool in zip(jobs, pools):
            assert pool == tg.decode_candidates(model, c, cfg)
            assert pool == loop_decode_candidates(model, c, cfg)
        assert pools[0] == pools[3]
        assert decode.decode_pools(model, []) == []

    @pytest.mark.parametrize("order", [1, 2, 5])
    def test_other_orders(self, order):
        # Order 1 keys every row alike; order 5 reaches past the code.
        model, vocab = build_toy_model(order)
        jobs = self.jobs(model, vocab.encode(topic_code(3)))
        for (code, cfg), pool in zip(jobs, decode.decode_pools(model, jobs)):
            assert pool == loop_decode_candidates(model, code, cfg)

    def test_other_model_goes_through_state_and_nuclei(self, monkeypatch):
        # Every state is stored, so each is read once.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        model = RecordingModel(DummyModel(vocab_size=9, seed=5))
        jobs = self.jobs(model, [5, 8])
        pools = decode.decode_pools(model, jobs)
        states = set()
        for (code, cfg), pool in zip(jobs, pools):
            assert pool == loop_decode_candidates(model._model, code, cfg)
            states |= pool_states(model._model, code, pool)
        # One key per row and step; one ``next_distribution`` per state,
        # the default key, under either code.
        assert model.rows == sum(map(decode_steps, pools))
        assert len(model.reads) == len(set(model.reads)) == len(states)
        assert set(model.reads) == states
        assert {code for code, _ in model.reads} == {(5, 8), (5,)}

    def test_group_refuses_mixed_settings(self, toy_model):
        code = toy_model.vocabulary.encode(topic_code(2))
        jobs = [(code, tg.SamplingConfig(top_p=0.8)), (code, tg.SamplingConfig(top_p=0.9))]
        with pytest.raises(ValueError, match="nucleus memo holds top_p=0.8"):
            decode.decode_pools(toy_model, jobs)

    @pytest.mark.parametrize(
        "budget, groups",
        [(130, [2, 2, 2, 1]), (59, [1] * 7)],
        ids=["split_at_budget", "pool_past_budget"],
    )
    def test_cli_groups(self, toy_model, monkeypatch, budget, groups):
        monkeypatch.setattr(cli, "_GROUP_ROWS", budget)
        sizes = []
        decode_pools = decode.decode_pools

        def recording(model, jobs, memo=None):
            sizes.append(len(jobs))
            return decode_pools(model, jobs, memo)

        monkeypatch.setattr(decode, "decode_pools", recording)
        posts = TestRunMemo.posts([3, 7, 3, 0, 9, 7, 1])
        pools = TestRunMemo().run_pools(toy_model, posts)
        assert sizes == groups
        assert_pools_alone(toy_model, posts, pools, TestRunMemo.CONFIG)


def assert_pools_alone(model, posts, pools, config):
    """Each post's pool equals its pool decoded alone and the row-by-row
    reference, and carries its post's meta."""
    assert len(pools) == len(posts)
    vocab = model.vocabulary
    for post, pool in zip(posts, pools):
        code = vocab.encode(cli._code_tokens(post, 512))
        cfg = tg.SamplingConfig(
            top_p=config["top_p"], temperature=config["temperature"],
            num_samples=config["num_samples"], max_length=config["max_length"],
            seed=cli._pool_seed(config["seed"], post.id),
        )
        assert pool.config == cfg
        assert pool.meta == cli._post_meta(post)
        alone = tg.decode_candidates(model, code, cfg)
        assert (pool.input, pool.candidates) == (alone.input, alone.candidates)
        assert pool.candidates == loop_decode_candidates(model, code, cfg).candidates


#: What sampling and beam search may read of a model.
CONTRACT = {"vocabulary", "next_distribution", "step_states", "step_nuclei"}


class SurfaceProxy:
    """Forwards every attribute read to a model, recording its name."""

    def __init__(self, model):
        self._model = model
        self.touched = set()

    def __getattr__(self, name):
        self.touched.add(name)
        return getattr(self._model, name)


class TestContractSurface:
    """``GeneratorModel`` defines only what the stages call, and they call
    all of it: a hook without a caller, or a call outside the contract,
    fails here."""

    def test_generator_model_defines_the_contract(self):
        assert {name for name in vars(tg.GeneratorModel) if not name.startswith("_")} == CONTRACT

    @pytest.mark.parametrize("name", ["ngram", "dummy"])
    def test_stages_read_only_the_contract(self, toy_model, name):
        model, code = lockstep_model(name, toy_model)
        cfg = tg.SamplingConfig(num_samples=20, max_length=5, seed=3)
        res = cli._Resolver(SimpleNamespace(**TestRunMemo.CONFIG, beam_size=3))
        posts = TestRunMemo.posts([3, 7])
        runs = [
            lambda m: decode.decode_pools(m, [(code, cfg), (code[:1], cfg)]),
            lambda m: decode.beam_search(m, code, beam_size=3, k=2, max_length=5),
            lambda m: list(cli._pools(res, m, posts, "sample")),
            lambda m: list(cli._pools(res, m, posts, "beam")),
        ]
        touched = []
        for run in runs:
            proxy = SurfaceProxy(model)
            run(proxy)
            touched.append(proxy.touched)
        assert all(t <= CONTRACT for t in touched)
        assert set().union(*touched) == CONTRACT
        # Sampling keys and computes states through the two step hooks;
        # beam search reads distributions.
        assert {"step_states", "step_nuclei"} <= touched[0] & touched[2]
        assert "next_distribution" in touched[1] & touched[3]


class VectorModel(tg.GeneratorModel):
    """Returns one fixed value from ``next_distribution`` in every state,
    whatever it is; the vocabulary is the five markers and w0..w2."""

    def __init__(self, value):
        self._vocab = tg.Vocabulary(list(tg.RESERVED) + ["w0", "w1", "w2"])
        self._value = value

    @property
    def vocabulary(self):
        return self._vocab

    def next_distribution(self, code, prefix):
        return self._value


#: Index 0 is START, 1 END, 2 PAD; the rest may be drawn.
VALID_VECTOR = [0.0, 0.4, 0.0, 0.1, 0.1, 0.2, 0.1, 0.1]


class TestModelContractChecks:
    """Sampling refuses a ``next_distribution`` value that breaks the
    contract, naming the rule, instead of drawing from it."""

    @pytest.mark.parametrize(
        "value, rule",
        [
            ([0.0, 0.4, 0.0, 0.1, 0.1, 0.2, 0.2], "1-D vector of 8 numbers"),
            (np.full((8, 1), 0.125), "1-D vector of 8 numbers"),
            (["x"] * 8, "1-D vector of 8 numbers"),
            (None, "1-D vector of 8 numbers"),
        ],
        ids=["length_7", "two_dimensional", "strings", "none"],
    )
    def test_shape(self, value, rule):
        self.assert_refused(value, rule)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite(self, bad):
        value = np.array(VALID_VECTOR)
        value[5] = bad
        self.assert_refused(value, "entries must be finite")

    def test_nonnegative(self):
        value = np.array(VALID_VECTOR)
        value[5], value[6] = -0.1, 0.4
        self.assert_refused(value, "entries must be nonnegative")

    @pytest.mark.parametrize("marker", [START_ID, PAD_ID])
    def test_pad_and_start_zero(self, marker):
        value = np.array(VALID_VECTOR)
        value[marker], value[1] = 0.1, 0.3
        self.assert_refused(value, "PAD and START probability 0")

    @pytest.mark.parametrize(
        "value",
        [
            np.zeros(8),
            np.array([0.0, 0.4, 0.0, 0.1, 0.1, 5.0, 5.0, 5.0]),
            np.array(VALID_VECTOR) * (1 + 1e-8),
        ],
        ids=["all_zero", "unnormalized", "just_over"],
    )
    def test_sum_one(self, value):
        self.assert_refused(value, "sum to 1 within 1e-9")

    @pytest.mark.parametrize(
        "nuclei, rule",
        [
            (lambda n: [], r"one \(ids, probabilities\) pair per state"),
            (lambda n: [(np.array([], dtype=np.int64), np.array([]))] * n, "at least one"),
            (lambda n: [(np.array([3, 4]), np.array([1.0]))] * n, "as many probabilities as ids"),
            (lambda n: [(np.array([3]), np.array([0.0]))] * n, "positive mass"),
            (lambda n: [(np.array([-1, 3]), np.array([0.5, 0.5]))] * n, "vocabulary of 8 tokens"),
            (lambda n: [(np.array([3, 8]), np.array([0.5, 0.5]))] * n, "vocabulary of 8 tokens"),
            (lambda n: [(np.array([3, -1, 4]), np.full(3, 1 / 3))] * n, "vocabulary of 8 tokens"),
            (lambda n: [(np.array([3, 9, 4]), np.full(3, 1 / 3))] * n, "vocabulary of 8 tokens"),
        ],
        ids=[
            "too_few", "empty", "unequal", "no_mass", "negative_id", "id_past_vocab",
            "negative_id_inside", "id_past_vocab_inside",
        ],
    )
    def test_nuclei_override(self, nuclei, rule):
        # Unchecked, an empty nucleus draws index -1 and emits the last
        # token, too few tables end in a bare KeyError of a state, an id
        # of -1 inside a table emits the last token, and one past the
        # vocabulary ends in a bare IndexError.
        model = VectorModel(VALID_VECTOR)
        model.step_nuclei = lambda states, codes, pools, prefixes, p, t: nuclei(len(states))
        cfg = tg.SamplingConfig(num_samples=4, max_length=3)
        with pytest.raises(ValueError, match=rule):
            tg.decode_candidates(model, [5], cfg)

    def test_valid_vector_and_list_sample_alike(self):
        cfg = tg.SamplingConfig(num_samples=40, max_length=4, seed=3)
        pools = [
            tg.decode_candidates(VectorModel(value), [5], cfg)
            for value in (np.array(VALID_VECTOR), VALID_VECTOR)
        ]
        assert pools[0] == pools[1]
        assert pools[0] == loop_decode_candidates(VectorModel(np.array(VALID_VECTOR)), [5], cfg)

    @staticmethod
    def assert_refused(value, rule):
        for top_p, temperature in ((0.8, 1.0), (1.0, 1.0), (0.9, 0.7)):
            cfg = tg.SamplingConfig(
                top_p=top_p, temperature=temperature, num_samples=4, max_length=3
            )
            with pytest.raises(ValueError, match=rule):
                tg.decode_candidates(VectorModel(value), [5], cfg)


#: Few distinct scores, so ties are heavy, with the -inf and NaN that are
#: never chosen.
EXPANSION_SCORES = st.sampled_from([-np.inf, np.nan, -3.0, -2.0, -1.0, -0.5, 0.0])


class TestBestExpansions:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 4), width=st.integers(1, 6))
    def test_matches_sorted_oracle(self, data, rows, width):
        scores = np.array(
            data.draw(st.lists(EXPANSION_SCORES, min_size=rows * width, max_size=rows * width))
        ).reshape(rows, width)
        ids = st.tuples(st.integers(0, 2), st.integers(0, 2))
        parents = data.draw(st.lists(ids, min_size=rows, max_size=rows, unique=True))
        count = data.draw(st.integers(1, rows * width + 1))
        rank = {p: i for i, p in enumerate(sorted(parents))}
        finite = sorted(
            (-scores[r, t], rank[parents[r]], t, r)
            for r in range(rows)
            for t in range(width)
            if scores[r, t] > -np.inf
        )
        want = [(r, t, float(scores[r, t])) for _, _, t, r in finite[:count]]
        assert decode._best_expansions(scores, parents, count) == want


class TestBeamSearch:
    def test_k_must_not_exceed_beam(self, dummy_model):
        with pytest.raises(ValueError):
            tg.beam_search(dummy_model, [5], beam_size=3, k=4)

    def test_beam_one_is_greedy(self):
        model, v = make_tiny_model()
        code = v.encode(["x"])
        got = tg.beam_search(model, code, beam_size=1, k=1, max_length=6)
        want, prefix = [], [START_ID]
        for _ in range(6):
            tok = int(np.argmax(model.next_distribution(code, prefix)))
            if tok == END_ID:
                break
            want.append(tok)
            prefix.append(tok)
        assert got[0] == want

    def test_matches_enumeration_oracle(self):
        for seed in range(10):
            model = DummyModel(vocab_size=6, seed=seed)
            code = [5]
            paths = enumerate_paths(model, code, max_length=3)
            paths.sort(key=lambda p: (-p[0], p[1]))
            k = min(10, len(paths))
            got = tg.beam_search(model, code, beam_size=len(paths), k=k, max_length=3)
            assert got == [list(ids) for _, ids in paths[:k]]

    def test_distinct_results(self, toy_model):
        code = toy_model.vocabulary.encode(["fn", "call", "k3"])
        seqs = tg.beam_search(toy_model, code, beam_size=20, k=20, max_length=8)
        assert len({tuple(s) for s in seqs}) == len(seqs)
        assert len(seqs) == 20

    def test_deterministic(self, dummy_model):
        a = tg.beam_search(dummy_model, [5], beam_size=4, k=4, max_length=3)
        b = tg.beam_search(dummy_model, [5], beam_size=4, k=4, max_length=3)
        assert a == b

    def test_scores_descend(self, dummy_model):
        code = [5]
        seqs = tg.beam_search(dummy_model, code, beam_size=30, k=10, max_length=3)
        paths = {ids: lp for lp, ids in enumerate_paths(dummy_model, code, max_length=3)}
        scores = [paths[tuple(s)] for s in seqs]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("beam_size", [1, 3, 5, 20])
    @pytest.mark.parametrize("max_length", [1, 16, 48])
    def test_matches_loop_oracle_on_toy_model(self, toy_model, beam_size, max_length):
        # FLOOR keeps every token alive, so every step expands the full
        # vocabulary of every beam.
        # The oracle's top k is a prefix of its top beam_size.
        vocab = toy_model.vocabulary
        for topic in (0, 4, 9):
            code = vocab.encode(topic_code(topic))
            want = loop_beam_search(toy_model, code, beam_size, beam_size, max_length)
            for k in sorted({1, (beam_size + 1) // 2, beam_size}):
                assert tg.beam_search(toy_model, code, beam_size, k, max_length) == want[:k]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vocab_size=st.integers(5, 9),
        beam_size=st.integers(1, 6),
        k_share=st.floats(0.0, 1.0),
        max_length=st.integers(1, 4),
    )
    def test_matches_loop_oracle_on_random_models(
        self, seed, vocab_size, beam_size, k_share, max_length
    ):
        model = DummyModel(vocab_size=vocab_size, seed=seed)
        k = 1 + int(k_share * (beam_size - 1))
        got = tg.beam_search(model, [5, 6], beam_size, k, max_length)
        assert got == loop_beam_search(model, [5, 6], beam_size, k, max_length)

    def test_equal_scores_do_not_stop_the_search(self):
        # After step 2, "c" has finished with log 0.5 and the live "a b"
        # also scores log 0.5; stopping there would return "c".
        model = TableModel(TIE_TABLE)
        got = tg.beam_search(model, [], beam_size=2, k=1, max_length=48)
        assert model.vocabulary.decode(got[0]) == ["a", "b"]

    def test_ties_across_parents_break_by_ids(self):
        # Live beams after step 1 are "c" then "a" (by score). At step 2,
        # "a b", "a c" and "c b" all score log 0.25 + log 0.5 and one of
        # them takes the second slot: the lexicographically first, "a b",
        # not the child of the first live row.
        table = {
            (): {"c": 0.5, "a": 0.25, "b": 0.25},
            ("c",): {"a": 0.75, "b": 0.25},
            ("a",): {"b": 0.5, "c": 0.5},
            **{pair: {"END": 1.0} for pair in [("c", "a"), ("c", "b"), ("a", "b"), ("a", "c")]},
        }
        model = TableModel(table)
        got = tg.beam_search(model, [], beam_size=2, k=2, max_length=48)
        assert [model.vocabulary.decode(s) for s in got] == [["c", "a"], ["a", "b"]]
        assert got == loop_beam_search(model, [], beam_size=2, k=2, max_length=48)

    def test_early_stop_saves_model_calls(self, toy_model):
        code = toy_model.vocabulary.encode(topic_code(3))
        counter = CallCounter(toy_model)
        beam_size, max_length = 5, 48
        got = tg.beam_search(counter, code, beam_size, beam_size, max_length)
        assert counter.calls < 1 + beam_size * (max_length - 1)
        assert got == loop_beam_search(toy_model, code, beam_size, beam_size, max_length)

    def test_zero_probability_tokens_never_chosen(self):
        model = TableModel(TIE_TABLE)
        got = tg.beam_search(model, [], beam_size=5, k=5, max_length=48)
        assert [model.vocabulary.decode(s) for s in got] == [["a", "b"], ["c"]]
        # Capped at one token, only the two positive first tokens finish.
        got = tg.beam_search(model, [], beam_size=5, k=5, max_length=1)
        assert [model.vocabulary.decode(s) for s in got] == [["a"], ["c"]]
