import dataclasses
import re
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import titlegen as tg
from titlegen import _kernels, cli, decode, records
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


def record_keys(model):
    """Wrap ``model.step_states`` to record every key it returns."""
    keys = []
    step_states = model.step_states

    def recording(codes, pools, prefixes):
        found = step_states(codes, pools, prefixes)
        keys.extend(found)
        return found

    model.step_states = recording
    return keys


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
        # The message names the field and the value, NaN included.
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must .*, got {re.escape(str(value))}$"):
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
    """Temperature as sampling applies it: ``_kernels.apply_temperature_kernel``
    inside the default ``step_nuclei``, after the temperature and the
    model's distribution are checked."""

    def test_identity_at_one(self):
        dist = np.array([0.7, 0.2, 0.1])
        np.testing.assert_array_equal(_kernels.apply_temperature_kernel(dist, 1.0), dist)

    def test_symmetric_unchanged(self):
        for t in (0.3, 1.0, 2.5):
            np.testing.assert_allclose(
                _kernels.apply_temperature_kernel(np.array([0.5, 0.5]), t), [0.5, 0.5], atol=1e-12
            )

    def test_closed_form_half(self):
        out = _kernels.apply_temperature_kernel(np.array([0.8, 0.2]), 0.5)
        want = np.array([0.64, 0.04]) / 0.68
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_low_temperature_concentrates_on_argmax(self):
        out = _kernels.apply_temperature_kernel(np.array([0.6, 0.3, 0.1]), 0.05)
        assert out[0] > 0.999

    def test_sums_to_one(self):
        rng = stable_rng("temp")
        for _ in range(50):
            dist = rng.random(12) + 1e-9
            dist /= dist.sum()
            for t in (0.25, 0.9, 3.0):
                assert abs(_kernels.apply_temperature_kernel(dist, t).sum() - 1.0) <= 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="temperature must be positive, got 0.0"):
            tg.SamplingConfig(temperature=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="temperature must be positive, got nan"):
            tg.SamplingConfig(temperature=np.nan)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        value = np.array(VALID_VECTOR)
        value[5] = bad
        with pytest.raises(ValueError, match="^next_distribution entries must be finite$"):
            self.temper(value, 0.7)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError, match="must sum to 1 within 1e-9, got 0.0"):
            self.temper(np.zeros(8), 0.5)

    @staticmethod
    def temper(value, t):
        """The default ``step_nuclei`` of one state of ``VectorModel(value)``
        at temperature ``t``."""
        model = VectorModel(value)
        pools, prefixes = np.zeros(1, dtype=np.int64), np.array([[START_ID]])
        states = model.step_states([[5]], pools, prefixes)
        return model.step_nuclei(states, [[5]], pools, prefixes, 0.8, t)


class TestSampleToken:
    """The draw decoding makes: ``_kernels.sample_step_kernel`` over a draw
    table's running sums. ``NucleusMemo`` refuses a table it could not
    draw from."""

    @staticmethod
    def draw(dist, u):
        return _kernels.sample_step_kernel(np.array(dist).cumsum(), u)

    def test_degenerate(self):
        rng = np.random.default_rng(0)
        assert all(self.draw([0.0, 1.0, 0.0], rng.random()) == 1 for _ in range(20))

    def test_reproducible_stream(self):
        dist = [0.3, 0.3, 0.4]
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        assert [self.draw(dist, r1.random()) for _ in range(50)] == [
            self.draw(dist, r2.random()) for _ in range(50)
        ]

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite(self, bad):
        # Found in any pair of a batch, here the second.
        memo = decode.NucleusMemo(VectorModel(VALID_VECTOR), 0.8, 1.0)
        batch = [(np.array([3]), np.array([1.0])), (np.array([3, 4]), np.array([0.5, bad]))]
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {bad}$"):
            memo._from_nuclei(batch)

    def test_rejects_zero_mass(self):
        memo = decode.NucleusMemo(VectorModel(VALID_VECTOR), 0.8, 1.0)
        batch = [(np.array([3]), np.array([1.0])), (np.array([3, 4]), np.zeros(2))]
        with pytest.raises(ValueError, match="must have positive mass, got 0.0$"):
            memo._from_nuclei(batch)

    def test_rounding_draws_the_entry_that_brought_the_sum_to_its_total(self):
        # The last entry is too small to move the running sum, so a draw
        # past the total falls back to the entry before it.
        assert self.draw([0.5, 0.25, 1e-30], 0.9) == 1

    def test_empirical_frequencies(self):
        dist = np.array([0.5, 0.2, 0.3])
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        n = 30000
        for _ in range(n):
            counts[self.draw(dist, rng.random())] += 1
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

    def test_batch_tables_equal_each_nucleus_cumsum(self):
        # Nuclei of one to a few hundred ids in one batch: each table is
        # the pair's ids and ``q.cumsum()``, bit for bit.
        rng = stable_rng("batch-tables")
        memo = decode.NucleusMemo(DummyModel(vocab_size=400, seed=0), 0.8, 1.0)
        for sizes in ([1], [3, 1, 2], [1] * 30 + [400], [5, 17, 260, 2, 399, 40] * 7):
            computed = []
            for n in sizes:
                q = rng.random(n) ** 4
                computed.append((np.sort(rng.choice(400, n, replace=False)), q / q.sum()))
            built = memo._from_nuclei(computed)
            assert [n for _, n in built] == sizes
            for ((ids, cdf), _), (want_ids, q) in zip(built, computed):
                assert ids.typecode == "q" and cdf.typecode == "d"
                assert ids.tobytes() == want_ids.tobytes()
                assert cdf.tobytes() == q.cumsum().tobytes()

    @pytest.mark.parametrize(
        "change, rule",
        [
            (lambda ids, q: (ids + 0.9, q), "^step_nuclei ids must be integers, got float64$"),
            (
                lambda ids, q: (ids, q.astype(np.float32)),
                "^step_nuclei probabilities must be float64, got float32$",
            ),
        ],
        ids=["float_ids", "float32_probabilities"],
    )
    def test_refuses_arrays_of_another_dtype(self, toy_model, tmp_path, change, rule):
        # Truncated, ``ids + 0.9`` would sample the ids it shifted; float32
        # sums would end in numpy's own error about a buffer size.
        class Override(tg.NGramLM):
            def step_nuclei(self, *step):
                return [change(ids, q) for ids, q in super().step_nuclei(*step)]

        toy_model.save(tmp_path / "model.bin")
        model = Override.load(tmp_path / "model.bin")
        code = model.vocabulary.encode(topic_code(1))
        for top_p, temperature in ((0.8, 1.0), (1.0, 1.0), (0.9, 0.7), (0.8, 0.5)):
            cfg = tg.SamplingConfig(top_p=top_p, temperature=temperature, num_samples=4)
            with pytest.raises(ValueError, match=rule):
                tg.decode_candidates(model, code, cfg)

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
        # rows: no one-row lookup and no second lookup for the misses. The
        # memo is keyed by hit rows, one entry per state.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        memo = decode.NucleusMemo(toy_model, 0.8, 1.0)
        vocab = toy_model.vocabulary
        jobs = [
            (vocab.encode(topic_code(topic)), tg.SamplingConfig(num_samples=60, max_length=8, seed=s))
            for s, topic in enumerate((3, 7, 3))
        ]
        step_rows, pools = count_searches(
            toy_model, monkeypatch, memo, "tables", lambda: decode.decode_pools(toy_model, jobs, memo)
        )
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

    def test_beam_one_search_per_level_per_step(self, toy_model, monkeypatch):
        # Beam search reads the model as sampling does: every step's rows
        # keyed with one ``searchsorted`` per level, no one-row lookup.
        vocab = toy_model.vocabulary
        codes = [vocab.encode(topic_code(t)) for t in (3, 7, 3, 0)]
        memo = decode.BandMemo(toy_model, 5)
        step_rows, got = count_searches(
            toy_model, monkeypatch, memo, "bands",
            lambda: decode.beam_pools(toy_model, codes, 5, 3, 16, memo),
        )
        assert step_rows[0] == len(codes) and len(step_rows) > 1
        assert got == [loop_beam_search(toy_model, code, 5, 3, 16) for code in codes]


def count_searches(model, monkeypatch, memo, lookup, run):
    """Run ``run`` with ``model``'s level keys counting their searches and
    its one-row ``next_distribution`` refused; assert one search per level
    per row-keying step. Returns the rows of each step ``memo``'s ``lookup``
    method served, and what ``run`` returned."""
    searches, step_rows = [], []

    class Counted(np.ndarray):
        def searchsorted(self, v, *args, **kwargs):
            searches.append(len(v))
            return np.asarray(self).searchsorted(v, *args, **kwargs)

    def refused(*args):
        raise AssertionError("a one-row lookup ran while decoding")

    served = getattr(memo, lookup)

    def recording(codes, pools, prefixes):
        step_rows.append(len(prefixes))
        return served(codes, pools, prefixes)

    keys = [k.view(Counted) for k in model._key_arrays]
    with monkeypatch.context() as m:
        m.setattr(model, "_key_arrays", keys)
        m.setattr(tg.NGramLM, "next_distribution", refused)
        m.setattr(memo, lookup, recording)
        got = run()
    assert searches == [rows for rows in step_rows for _ in range(model.order - 1)]
    return step_rows, got


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
        # The error names the call's pools, not a memo the caller never
        # passed; with a memo of the first pool's settings it is the same.
        code = toy_model.vocabulary.encode(topic_code(2))
        rule = "^the pools of one decode_pools call must share top_p and temperature$"
        for other in (tg.SamplingConfig(top_p=0.9), tg.SamplingConfig(temperature=0.7)):
            jobs = [(code, tg.SamplingConfig()), (code, other)]
            with pytest.raises(ValueError, match=rule):
                decode.decode_pools(toy_model, jobs)
            with pytest.raises(ValueError, match=rule):
                decode.decode_pools(toy_model, jobs, decode.NucleusMemo(toy_model, 0.8, 1.0))

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


#: What a model must define.
CONTRACT = {"vocabulary", "next_distribution", "step_states", "step_nuclei"}

#: What sampling and beam search read of a model.
READS = {"vocabulary", "step_states", "step_nuclei"}


class SurfaceProxy:
    """Forwards every attribute read to a model, recording its name."""

    def __init__(self, model):
        self._model = model
        self.touched = set()

    def __getattr__(self, name):
        self.touched.add(name)
        return getattr(self._model, name)


def surface_runs(toy_model, name):
    """(model, runs) for the contract checks: each run decodes with the
    model it is given, sampling or beam search, alone or in a group, or
    through ``cli._pools``."""
    model, code = lockstep_model(name, toy_model)
    cfg = tg.SamplingConfig(num_samples=20, max_length=5, seed=3)
    res = cli._Resolver(SimpleNamespace(**TestRunMemo.CONFIG, beam_size=3))
    posts = TestRunMemo.posts([3, 7])
    return model, [
        lambda m: decode.decode_pools(m, [(code, cfg), (code[:1], cfg)]),
        lambda m: decode.beam_search(m, code, beam_size=3, k=2, max_length=5),
        lambda m: decode.beam_pools(m, [code, code[:1], code], 3, 2, 5),
        lambda m: list(cli._pools(res, m, posts, "sample")),
        lambda m: list(cli._pools(res, m, posts, "beam")),
    ]


class TestContractSurface:
    """``GeneratorModel`` defines only what a model must provide, and the
    stages read a model only through the two step hooks: a hook without a
    caller, or a read outside them, fails here."""

    def test_generator_model_defines_the_contract(self):
        assert {name for name in vars(tg.GeneratorModel) if not name.startswith("_")} == CONTRACT

    @pytest.mark.parametrize("name", ["ngram", "dummy"])
    def test_stages_read_only_the_contract(self, toy_model, name):
        # Sampling and beam search alike key states with ``step_states``
        # and compute them with ``step_nuclei``.
        model, runs = surface_runs(toy_model, name)
        for run in runs:
            proxy = SurfaceProxy(model)
            run(proxy)
            assert proxy.touched == READS

    @pytest.mark.parametrize("name", ["ngram", "dummy"])
    def test_next_distribution_only_through_the_default_hook(self, toy_model, name, monkeypatch):
        # NGramLM overrides both hooks, so no stage calls its
        # ``next_distribution``; a model that keeps the default
        # ``step_nuclei`` is called from there and nowhere else.
        model, runs = surface_runs(toy_model, name)
        default = tg.GeneratorModel.step_nuclei.__code__
        callers = []
        next_distribution = type(model).next_distribution

        def recording(self, code, prefix):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not default:
                frame = frame.f_back
            callers.append(frame is not None)
            return next_distribution(self, code, prefix)

        monkeypatch.setattr(type(model), "next_distribution", recording)
        for run in runs:
            run(model)
        if name == "ngram":
            assert callers == []
        else:
            assert callers and all(callers)


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

#: What sampling and beam search refuse in a ``step_nuclei`` result.
PAIR_PER_STATE = r"one \(ids, probabilities\) pair per state"
LENGTH = "at top_p 1 must return 8 ids and probabilities"
NOT_FINITE = "probabilities must be finite and nonnegative, got "
NEGATIVE = NOT_FINITE + "-0.25$"
NO_MASS = "must have positive mass, got 0.0$"
ASCEND = "^step_nuclei ids must ascend strictly within each pair$"
IN_ORDER = "^step_nuclei at top_p 1 must return the ids 0 to 7 in order$"


def vector_pairs(n, changes):
    """``n`` pairs of every id and ``VALID_VECTOR``, with ``changes``
    (index: probability) made: a whole distribution, as beam search asks."""
    q = np.array(VALID_VECTOR)
    q[list(changes)] = list(changes.values())
    return [(np.arange(8), q)] * n


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
        self.assert_refused(value, "^next_distribution entries must be finite$")

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
        total = re.escape(repr(float(value.sum())))
        self.assert_refused(value, f"^next_distribution must sum to 1 within 1e-9, got {total}$")

    @pytest.mark.parametrize(
        "nuclei, rule, beam_rule",
        [
            (lambda n, _: [], PAIR_PER_STATE, PAIR_PER_STATE),
            (lambda n, _: [(np.array([], dtype=np.int64), np.array([]))] * n, "at least one", LENGTH),
            (lambda n, _: [(np.array([3, 4]), np.array([1.0]))] * n, "as many probabilities as ids", LENGTH),
            (lambda n, _: [(np.array([3]), np.array([0.0]))] * n, "positive mass", LENGTH),
            (lambda n, _: [(np.array([-1, 3]), np.array([0.5, 0.5]))] * n, "vocabulary of 8 tokens", LENGTH),
            (lambda n, _: [(np.array([3, 8]), np.array([0.5, 0.5]))] * n, "vocabulary of 8 tokens", LENGTH),
            (lambda n, _: [(np.array([3, -1, 4]), np.full(3, 1 / 3))] * n, "vocabulary of 8 tokens", LENGTH),
            (lambda n, _: [(np.array([3, 9, 4]), np.full(3, 1 / 3))] * n, "vocabulary of 8 tokens", LENGTH),
            (lambda n, _: [(np.array([[3]]), np.array([[1.0]]))] * n, "pairs of 1-D arrays", LENGTH),
            (lambda n, _: vector_pairs(n, {5: np.nan}), NOT_FINITE + "nan$", NOT_FINITE + "nan$"),
            (lambda n, _: vector_pairs(n, {5: np.inf}), NOT_FINITE + "inf$", NOT_FINITE + "inf$"),
            (lambda n, _: vector_pairs(n, {5: -np.inf}), NOT_FINITE + "-inf$", NOT_FINITE + "-inf$"),
            (lambda n, _: vector_pairs(n, {5: -0.25, 6: 0.55}), NEGATIVE, NEGATIVE),
            (lambda n, _: vector_pairs(n, dict.fromkeys(range(8), 0.0)), NO_MASS, NO_MASS),
            (lambda n, default: [(i[::-1], q[::-1]) for i, q in default()], ASCEND, IN_ORDER),
        ],
        ids=[
            "too_few", "empty", "unequal", "no_mass", "negative_id", "id_past_vocab",
            "negative_id_inside", "id_past_vocab_inside", "two_dimensional",
            "nan", "inf", "minus_inf", "negative", "no_mass_vocabulary", "reversed",
        ],
    )
    def test_nuclei_override(self, nuclei, rule, beam_rule):
        # Unchecked, an empty nucleus draws index -1 and emits the last
        # token, too few tables end in a bare KeyError of a state, an id
        # of -1 inside a table emits the last token, and one past the
        # vocabulary ends in a bare IndexError. Beam search took NaN, inf,
        # a negative probability or a pair without mass and returned
        # titles; sampling took inf and negative probabilities. Both took
        # the default's pairs reversed, and beam search returned other
        # titles.
        model = VectorModel(VALID_VECTOR)
        default = tg.GeneratorModel.step_nuclei
        model.step_nuclei = lambda *step: nuclei(len(step[0]), lambda: default(model, *step))
        cfg = tg.SamplingConfig(num_samples=4, max_length=3)
        with pytest.raises(ValueError, match=rule):
            tg.decode_candidates(model, [5], cfg)
        with pytest.raises(ValueError, match=beam_rule):
            tg.beam_search(model, [5], 3, 2, 3)
        with pytest.raises(ValueError, match=beam_rule):
            decode.beam_pools(model, [[5], [6]], 3, 2, 3)

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
        for top_p, temperature in ((0.8, 1.0), (1.0, 1.0), (0.9, 0.7), (0.8, 0.5)):
            cfg = tg.SamplingConfig(
                top_p=top_p, temperature=temperature, num_samples=4, max_length=3
            )
            with pytest.raises(ValueError, match=rule):
                tg.decode_candidates(VectorModel(value), [5], cfg)
        # Beam search reads the same default hook, so it refuses alike.
        for beam_size, k in ((1, 1), (3, 2)):
            with pytest.raises(ValueError, match=rule):
                tg.beam_search(VectorModel(value), [5], beam_size, k, 3)


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
        keys = record_keys(counter)
        beam_size, max_length = 5, 48
        got = tg.beam_search(counter, code, beam_size, beam_size, max_length)
        assert counter.calls < 1 + beam_size * (max_length - 1)
        assert got == loop_beam_search(toy_model, code, beam_size, beam_size, max_length)
        # One ``next_distribution`` call per distinct state of the run.
        assert counter.calls == len(set(keys))

    def test_zero_probability_tokens_never_chosen(self):
        model = TableModel(TIE_TABLE)
        got = tg.beam_search(model, [], beam_size=5, k=5, max_length=48)
        assert [model.vocabulary.decode(s) for s in got] == [["a", "b"], ["c"]]
        # Capped at one token, only the two positive first tokens finish.
        got = tg.beam_search(model, [], beam_size=5, k=5, max_length=1)
        assert [model.vocabulary.decode(s) for s in got] == [["a"], ["c"]]


#: START -> c | a | b; two rounds of branching, then END everywhere, so
#: every beam width up to 5 meets ties across parents and early stops.
BRANCH_TABLE = {
    (): {"c": 0.5, "a": 0.25, "b": 0.25},
    ("a",): {"b": 0.5, "c": 0.5},
    ("b",): {"END": 0.5, "a": 0.5},
    ("c",): {"a": 0.75, "b": 0.25},
    ("a", "b"): {"c": 0.5, "END": 0.5},
    ("a", "b", "c"): {"END": 1.0},
    **{
        (x, y): {"END": 1.0}
        for x in "abc"
        for y in "abc"
        if (x, y) != ("a", "b")
    },
}


def beam_group(name, toy_model):
    """(model, codes) for the beam group checks: the toy n-gram model,
    whose posts of one topic share states, and two models that keep the
    default key (``TableModel`` ignores the code)."""
    if name == "ngram":
        vocab = toy_model.vocabulary
        return toy_model, [vocab.encode(topic_code(t)) for t in (3, 7, 3, 0)] + [[]]
    if name == "dummy":
        return DummyModel(vocab_size=9, seed=5), [[5, 8], [5], [5, 8], [7]]
    return TableModel(BRANCH_TABLE), [[], [5], []]


class TestBeamPools:
    """``beam_pools`` steps a group's posts together and expands each
    state once; every post's result must equal its search alone and the
    tuple-based reference."""

    @pytest.mark.parametrize("name", ["ngram", "dummy", "table"])
    @pytest.mark.parametrize(
        "beam_size, k, max_length",
        [(1, 1, 1), (2, 1, 2), (3, 2, 3), (3, 3, 16), (4, 4, 5), (5, 2, 8), (5, 5, 48)],
    )
    def test_group_equals_posts_alone_and_loop_oracle(
        self, toy_model, monkeypatch, name, beam_size, k, max_length
    ):
        model, codes = beam_group(name, toy_model)
        step_rows = []
        step_states = model.step_states

        def recording(group, pools, prefixes):
            step_rows.append(len(prefixes))
            return step_states(group, pools, prefixes)

        with monkeypatch.context() as m:
            m.setattr(model, "step_states", recording)
            got = decode.beam_pools(model, codes, beam_size, k, max_length)
        # The first step keys one row per post, all in one call.
        assert step_rows[0] == len(codes)
        assert len(got) == len(codes)
        for code, found in zip(codes, got):
            assert found == tg.beam_search(model, code, beam_size, k, max_length)
            assert found == loop_beam_search(model, code, beam_size, k, max_length)
        assert decode.beam_pools(model, [], beam_size, k, max_length) == []

    def test_posts_share_states(self, toy_model):
        # Two posts of one topic reach the same states: the group asks the
        # model for each state once, fewer calls than the posts alone.
        _, codes = beam_group("ngram", toy_model)
        grouped, alone = CallCounter(toy_model), CallCounter(toy_model)
        keys = record_keys(grouped)
        got = decode.beam_pools(grouped, codes, 5, 5, 48)
        assert got == [tg.beam_search(alone, code, 5, 5, 48) for code in codes]
        assert grouped.calls == len(set(keys)) < alone.calls

    def test_memo_across_calls(self, toy_model):
        # A run's memo carries states from one call to the next.
        _, codes = beam_group("ngram", toy_model)
        counter = CallCounter(toy_model)
        memo = decode.BandMemo(counter, 4)
        first = decode.beam_pools(counter, codes[:2], 4, 3, 48, memo)
        calls = counter.calls
        again = decode.beam_pools(counter, codes[2:3], 4, 3, 48, memo)
        assert counter.calls == calls  # topic 3 again: every state is held
        assert first + again == [loop_beam_search(toy_model, c, 4, 3, 48) for c in codes[:3]]

    def test_memo_refuses_other_settings(self, toy_model):
        code = toy_model.vocabulary.encode(topic_code(2))
        memo = decode.BandMemo(toy_model, 3)
        with pytest.raises(ValueError, match="band memo holds beam_size=3, not 4"):
            decode.beam_pools(toy_model, [code], 4, 2, 8, memo)
        with pytest.raises(ValueError, match="another model"):
            decode.beam_pools(DummyModel(6, 0), [[5]], 3, 2, 8, memo)
        with pytest.raises(ValueError, match="beam_size must be >= 1"):
            decode.BandMemo(toy_model, 0)

    @pytest.mark.parametrize("value", [VALID_VECTOR[:7], VALID_VECTOR + [0.0]])
    def test_refuses_a_vector_of_another_length(self, value):
        with pytest.raises(ValueError, match="1-D vector of 8 numbers"):
            decode.beam_pools(VectorModel(np.array(value)), [[5], [6]], 3, 2, 4)

    def test_refuses_a_model_that_breaks_the_contract(self):
        # An entry above 1 would let the early stop end the search too
        # soon: the empty title, finished at log 2, beats the live "a" at
        # log 0.5, though "a b" ends at log 8. Beam search refuses the
        # model with sampling's one-line error instead.
        table = {(): {"END": 2.0, "a": 0.5}, ("a",): {"b": 4.0}, ("a", "b"): {"END": 4.0}}
        model = TableModel(table)
        a, b = model.vocabulary.id("a"), model.vocabulary.id("b")
        assert loop_beam_search(model, [5], 1, 1, 8) == [[a, b]]
        with pytest.raises(ValueError) as sampled:
            tg.decode_candidates(model, [5], tg.SamplingConfig(num_samples=4, max_length=8))
        assert str(sampled.value) == "next_distribution must sum to 1 within 1e-9, got 2.5"
        for run in (
            lambda: tg.beam_search(model, [5], 1, 1, 8),
            lambda: decode.beam_pools(model, [[5], [6]], 3, 2, 8),
        ):
            with pytest.raises(ValueError) as beamed:
                run()
            assert str(beamed.value) == str(sampled.value)

    @pytest.mark.parametrize(
        "nuclei",
        [
            lambda n: [],
            lambda n: [(np.array([3, 4]), np.array([0.5, 0.5]))] * n,
            lambda n: [(np.arange(8), np.full(7, 1 / 7))] * n,
            lambda n: [(np.arange(7), np.full(8, 1 / 8))] * n,
        ],
        ids=["too_few", "a_nucleus", "short_probabilities", "short_ids"],
    )
    def test_refuses_nuclei_that_are_not_distributions(self, nuclei):
        # At top_p 1 a state's pair must hold every id; a pair of any other
        # length would build a band from the wrong scores.
        model = VectorModel(VALID_VECTOR)
        model.step_nuclei = lambda states, codes, pools, prefixes, p, t: nuclei(len(states))
        rule = "one .ids, probabilities. pair per state|must return 8 ids and probabilities"
        with pytest.raises(ValueError, match=rule):
            tg.beam_search(model, [5], 3, 2, 4)

    @pytest.mark.parametrize("max_length", [0, -3])
    def test_refuses_max_length_below_one(self, max_length):
        # Unchecked, a cap below 1 returned a one-token sequence.
        with pytest.raises(ValueError) as sampled:
            tg.SamplingConfig(max_length=max_length)
        with pytest.raises(ValueError) as beamed:
            tg.beam_search(DummyModel(9, 5), [5], 3, 2, max_length=max_length)
        assert str(beamed.value) == str(sampled.value) == f"max_length must be >= 1, got {max_length}"
        model = DummyModel(9, 5)
        with pytest.raises(ValueError, match="max_length must be >= 1"):
            decode.beam_pools(model, [[5], [6]], 3, 2, max_length, decode.BandMemo(model, 3))

    def test_band_width_stops_at_the_vocabulary(self):
        # A band can hold no more than the vocabulary, so a wider beam
        # stores rows of the vocabulary's width.
        model = DummyModel(vocab_size=7, seed=2)
        memo = decode.BandMemo(model, 40)
        assert memo.width == 7
        got = decode.beam_pools(model, [[5], [6]], 40, 40, 3, memo)
        assert got == [loop_beam_search(model, c, 40, 40, 3) for c in ([5], [6])]
        assert {len(row) for row in memo._entries.values()} == {8 * (decode._BAND + 2 * 7)}
        assert memo.cached_ids == 8 * len(memo._entries)

    @pytest.mark.parametrize("name", ["ngram", "dummy", "table"])
    def test_capacity_zero_keeps_results(self, toy_model, name, monkeypatch):
        model, codes = beam_group(name, toy_model)
        want = decode.beam_pools(model, codes, 4, 3, 16)
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 0)
        memo = decode.BandMemo(model, 4)
        assert memo.capacity == 0
        assert decode.beam_pools(model, codes, 4, 3, 16, memo) == want
        assert memo.cached_ids == 0 and not memo._entries

    def test_capacity_zero_keeps_pool_bytes(self, toy_model, monkeypatch):
        res = cli._Resolver(SimpleNamespace(**TestRunMemo.CONFIG, beam_size=4))
        posts = TestRunMemo.posts([3, 7, 3, 0, 9, 7])

        def pool_bytes():
            pools = cli._pools(res, toy_model, posts, "beam")
            return [records.dump_json(records.pool_to_dict(pool)) for pool in pools]

        want = pool_bytes()
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 0)
        assert pool_bytes() == want

    def test_stored_ids_never_exceed_capacity(self, toy_model, monkeypatch):
        # A cap of one vocabulary's ids holds a few dozen bands of width 5;
        # the run visits more states, so the cap fills and the rest are
        # computed and not stored.
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 1)
        counter = CallCounter(toy_model)
        memo = decode.BandMemo(counter, 5)
        peak = 0
        bands = memo.bands

        def recording(*step):
            nonlocal peak
            found = bands(*step)
            peak = max(peak, memo.cached_ids)
            return found

        memo.bands = recording
        vocab = toy_model.vocabulary
        codes = [vocab.encode(topic_code(t)) for t in range(10)]
        got = decode.beam_pools(counter, codes, 5, 5, 48, memo)
        assert got == [loop_beam_search(toy_model, code, 5, 5, 48) for code in codes]
        assert memo.capacity == len(vocab)
        assert memo.cached_ids == peak == 6 * len(memo._entries) <= memo.capacity
        assert memo.capacity - peak < 6
        assert counter.calls > len(memo._entries)


class UlpTieModel(tg.GeneratorModel):
    """Beam search walks ten "a"s to a live score near -20.8, where
    ``last`` gives the probabilities of the next step, then END. Values
    a few ulps apart there have log-probabilities less than half an ulp of
    the live score apart, so their sums tie and ids decide. Each step of
    the walk gives "a" 0.125 and the rest to seven fillers, 0.125 each,
    whose ids follow "a"'s: "a" wins every tie. Every step depends on the
    depth alone, so a path that leaves the walk scores as the walk does
    and loses its ties. With ``nan`` the first step holds NaN, which the
    contract forbids."""

    #: "x" is one ulp above "y": the sums tie and "y" wins, though a band
    #: of width 1 holds only "x", with "y" the largest value below it.
    ABOVE = {"END": 0.2, "y": 0.4, "x": float(np.nextafter(0.4, 1.0))}
    #: "y" and "x" tie exactly and "n" is one ulp above them: a band of
    #: width 2 holds "n" and "y", the tie goes on to "x" outside it, and
    #: the sums of all three tie, so "y" and "x" win.
    TIED = {"END": 0.1, "y": 0.3, "x": 0.3, "n": float(np.nextafter(0.3, 1.0))}
    FILLERS = [f"f{i}" for i in range(7)]

    def __init__(self, last=ABOVE, nan=False):
        self._vocab = tg.Vocabulary(list(tg.RESERVED) + ["a", "y", "x", "n"] + self.FILLERS)
        self._last = last
        self._nan = nan

    @property
    def vocabulary(self):
        return self._vocab

    def next_distribution(self, code, prefix):
        out = np.zeros(len(self._vocab))
        v = self._vocab.id
        depth = len(prefix) - 1
        if depth < 10:
            out[v("a")] = 0.125
            out[[v(f) for f in self.FILLERS]] = 0.125
            if self._nan and depth == 0:
                out[v("n")] = np.nan
        elif depth == 10:
            for tok, p in self._last.items():
                out[END_ID if tok == "END" else v(tok)] = p
        else:
            out[END_ID] = 1.0
        return out

    def live_sums(self, first, second):
        """The log-probabilities of tokens ``first`` and ``second`` after
        the walk, and the same with the walk's live score added."""
        walk = [START_ID] + [self._vocab.id("a")] * 10
        with np.errstate(divide="ignore"):
            logp = np.log(self.next_distribution([5], walk))
            live = 0.0
            for n in range(1, 11):
                live = live + np.log(self.next_distribution([5], walk[:n]))[self._vocab.id("a")]
        a, b = logp[self._vocab.id(first)], logp[self._vocab.id(second)]
        return (a, b), (live + a, live + b)


class TieModel(tg.GeneratorModel):
    """Conditionals from weights 0, 1 and 2 drawn per (code, prefix): equal
    probabilities within a state and equal scores across parents are
    common, and zero probabilities leave some tokens out."""

    def __init__(self, vocab_size, seed):
        extra = [f"w{i}" for i in range(vocab_size - len(tg.RESERVED))]
        self._vocab = tg.Vocabulary(list(tg.RESERVED) + extra)
        self._seed = seed

    @property
    def vocabulary(self):
        return self._vocab

    def next_distribution(self, code, prefix):
        rng = stable_rng("ties", self._seed, tuple(code), tuple(prefix))
        out = rng.integers(0, 3, len(self._vocab)).astype(np.float64)
        out[PAD_ID] = out[START_ID] = 0.0
        out[END_ID] += 1.0
        return out / out.sum()


def failing_bands(bands, every):
    """``BandMemo.bands`` with the check pairs of every ``every``-th row of
    a step, starting from the last of the first ``every``, set to (-inf,
    inf), which no live score keeps apart: those rows fail their proof."""

    def failing(memo, codes, pools, prefixes):
        rows = bands(memo, codes, pools, prefixes).copy()
        rows[every - 1 :: every, 1 : decode._BAND : 2] = -np.inf
        rows[every - 1 :: every, 2 : decode._BAND : 2] = np.inf
        return rows

    return failing


class TestBandProof:
    """A row whose band cannot be proven to hold its best expansions takes
    its dense scores: ties made by rounding are broken by ids, as the
    dense search breaks them."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        vocab_size=st.integers(5, 9),
        beam_size=st.integers(1, 5),
        k_share=st.floats(0.0, 1.0),
        max_length=st.integers(1, 4),
        every=st.integers(1, 3),
    )
    def test_failing_rows_equal_loop_oracle(
        self, seed, vocab_size, beam_size, k_share, max_length, every
    ):
        # At ``every`` 1 each step merges dense scores alone; above it,
        # failed rows' dense scores beside proven rows' bands, in one
        # post and across posts. Either way the dense search's results.
        model = TieModel(vocab_size, seed)
        k = 1 + int(k_share * (beam_size - 1))
        codes = [[5], [6], [5]]
        failing = failing_bands(decode.BandMemo.bands, every)
        with mock.patch.object(decode.BandMemo, "bands", failing):
            got = decode.beam_pools(model, codes, beam_size, k, max_length)
        assert got == [loop_beam_search(model, c, beam_size, k, max_length) for c in codes]

    def test_rounding_tie_takes_the_dense_scores(self):
        model = UlpTieModel()
        vocab = model.vocabulary
        # "x" is above "y" in log-probability, but not once the live
        # score is added.
        (x, y), (live_x, live_y) = model.live_sums("x", "y")
        assert x > y and live_x == live_y
        code = [5]
        want = loop_beam_search(model, code, 1, 1, 48)
        assert vocab.decode(want[0]) == ["a"] * 10 + ["y"]
        assert tg.beam_search(model, code, 1, 1, 48) == want
        # In a group of three posts, two of them under one code.
        counter = CallCounter(model)
        got = decode.beam_pools(counter, [code, code, [6]], 1, 1, 48)
        assert got == [want] * 3
        # One call per state (the default key holds the code), and one
        # more for each row that failed the proof: every post's last "a".
        walk = [START_ID] + [vocab.id("a")] * 10
        keys = set()
        for c in (code, [6]):
            keys |= {(tuple(c), tuple(walk[: n + 1])) for n in range(11)}
            keys.add((tuple(c), (*walk, vocab.id("y"))))
        assert counter.calls == len(keys) + 3

    def test_tie_past_the_band_takes_the_dense_scores(self, monkeypatch):
        # The band's value above the tie sums equal to it, so the tied
        # "x" outside the band beats "n" by id. Both live rows at depth 10,
        # the walk and the walk with a filler last, fail the proof.
        model = UlpTieModel(UlpTieModel.TIED)
        vocab = model.vocabulary
        (n, y), (live_n, live_y) = model.live_sums("n", "y")
        assert n > y and live_n == live_y
        want = loop_beam_search(model, [5], 2, 2, 48)
        assert [vocab.decode(s) for s in want] == [["a"] * 10 + [end] for end in "yx"]
        # The memo asks for each state once, so a call for states it has
        # asked for before is the dense scores of rows that failed.
        asked, failed = set(), []
        step_nuclei = model.step_nuclei

        def recording(states, codes, pools, prefixes, top_p, temperature):
            if asked.issuperset(states):
                failed.append(prefixes.tolist())
            asked.update(states)
            return step_nuclei(states, codes, pools, prefixes, top_p, temperature)

        monkeypatch.setattr(model, "step_nuclei", recording)
        assert tg.beam_search(model, [5], 2, 2, 48) == want
        walk = [START_ID] + [vocab.id("a")] * 10
        assert failed == [[walk, walk[:-1] + [vocab.id("f0")]]]
        assert decode.beam_pools(model, [[5], [6]], 2, 2, 48) == [want] * 2

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 9])
    def test_band_row(self, width):
        # Zero and END are never in the band. Equal values straddle the
        # band's edge at width 1 (0.3, ids 5 and 8) and 4 (0.05, ids 4 and
        # 10).
        dist = np.array([0.0, 0.1, 0.0, 0.0, 0.05, 0.3, 0.0, 0.2, 0.3, 0.0, 0.05])
        with np.errstate(divide="ignore"):
            logp = np.log(dist)
        row = np.frombuffer(decode._band(logp.copy(), width))
        entries = sorted(
            (-v, i) for i, v in enumerate(logp.tolist()) if i != END_ID and v > -np.inf
        )
        band = entries[:width]
        assert row[0] == logp[END_ID]
        values = row[decode._BAND : decode._BAND + width]
        ids = row[decode._BAND + width :]
        assert values[: len(band)].tolist() == [-v for v, _ in band]
        assert ids[: len(band)].tolist() == [i for _, i in band]
        assert (values[len(band) :] == -np.inf).all()
        pairs = row[1 : decode._BAND].tolist()
        if len(band) < width:
            assert pairs == [np.inf, -np.inf, np.inf, -np.inf]
            return
        t, outside = -band[-1][0], [-v for v, _ in entries[width:]]
        assert pairs[:2] == [t, max([v for v in outside if v < t], default=-np.inf)]
        if t in outside:
            assert pairs[2:] == [min([-v for v, _ in band if -v > t], default=np.inf), t]
        else:
            assert pairs[2:] == [np.inf, -np.inf]

    @pytest.mark.parametrize("beam_size, k", [(1, 1), (3, 1), (3, 3), (5, 2)])
    def test_nan_is_refused(self, beam_size, k):
        # NaN breaks the contract: beam search refuses it as sampling does,
        # whatever the width.
        rule = "^next_distribution entries must be finite$"
        with pytest.raises(ValueError, match=rule):
            tg.decode_candidates(UlpTieModel(nan=True), [5], tg.SamplingConfig(num_samples=4))
        with pytest.raises(ValueError, match=rule):
            tg.beam_search(UlpTieModel(nan=True), [5], beam_size, k, 48)
        with pytest.raises(ValueError, match=rule):
            decode.beam_pools(UlpTieModel(nan=True), [[5], [6]], beam_size, k, 48)
