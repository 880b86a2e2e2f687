import itertools
import json
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import titlegen as tg
from titlegen import decode, lm, records
from titlegen.text import END_ID, NEXT_ID, PAD_ID, START_ID

from .conftest import DummyModel, build_toy_model
from .oracles import DictNGramLM, stable_rng


def level_dicts(model):
    """The model's count arrays as the oracle's nested dicts."""
    levels = []
    for contexts, offsets, next_ids, counts in model.levels:
        table = {}
        for r, ctx in enumerate(contexts.tolist()):
            a, b = offsets[r], offsets[r + 1]
            table[tuple(ctx)] = dict(zip(next_ids[a:b].tolist(), counts[a:b].tolist()))
        levels.append(table)
    return levels


def assert_matches_oracle(model, oracle, probes):
    """Bit-equal distributions on every (code, prefix), and the contexts
    ``step_states`` keys it by equal to the oracle's state."""
    probes = list(probes)
    for (code, prefix), (contexts, _) in zip(probes, step_state_contexts(model, probes)):
        assert contexts == oracle.state(code, prefix)
        np.testing.assert_array_equal(
            model.next_distribution(code, prefix), oracle.next_distribution(code, prefix)
        )


def make_long_model():
    """An order-20 model and its training pairs. V ** 19 passes 2 ** 63,
    so the longest levels key their contexts with Python ints rather
    than int64."""
    rng = stable_rng("lm-long")
    v = make_vocab(list("abcdef"))
    assert len(v) ** 19 >= 2**63 > len(v) ** 18
    words = [v.id(t) for t in "abcdef"]
    pairs = [
        (rng.choice(words, size=20).tolist(), rng.choice(words, size=4).tolist())
        for _ in range(6)
    ]
    model = tg.train_ngram_lm(pairs, 20, v)
    assert len(model.levels[19].contexts) > 0
    return model, pairs


def make_vocab(tokens):
    v = tg.Vocabulary()
    v.encode(tokens, grow=True)
    return v


def random_pairs(rng, vocab, n_pairs):
    toks = [t for t in vocab.tokens if t not in tg.RESERVED]
    pairs = []
    for _ in range(n_pairs):
        code = [vocab.id(t) for t in rng.choice(toks, size=int(rng.integers(1, 4)))]
        title = [vocab.id(t) for t in rng.choice(toks, size=int(rng.integers(1, 5)))]
        pairs.append((code, title))
    return pairs


class TestTrain:
    def test_single_pair_order2_puts_max_mass_on_continuation(self):
        v = make_vocab(["x", "a", "b"])
        model = tg.train_ngram_lm([(v.encode(["x"]), v.encode(["a", "b"]))], 2, v)
        d = model.next_distribution(v.encode(["x"]), [START_ID, v.id("a")])
        assert int(np.argmax(d)) == v.id("b")

    def test_order1_is_prefix_independent(self):
        v = make_vocab(["x", "a", "b"])
        model = tg.train_ngram_lm([(v.encode(["x"]), v.encode(["a", "b"]))], 1, v)
        d1 = model.next_distribution(v.encode(["x"]), [START_ID])
        d2 = model.next_distribution(v.encode(["x"]), [START_ID, v.id("b"), v.id("a")])
        np.testing.assert_array_equal(d1, d2)
        # proportional to title-token unigram counts where counted
        assert d1[v.id("a")] == pytest.approx(d1[v.id("b")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            tg.train_ngram_lm([], 2, tg.Vocabulary())

    def test_order_validated(self):
        v = make_vocab(["a"])
        with pytest.raises(ValueError):
            tg.train_ngram_lm([(v.encode(["a"]), v.encode(["a"]))], 0, v)

    def test_stored_contexts_shorter_than_order(self):
        model, _ = build_toy_model(order=3)
        assert len(model.levels) == model.order
        for l, level in enumerate(model.levels):
            assert level.contexts.shape == (len(level.offsets) - 1, l)

    def test_counts_match_dict_oracle(self):
        rng = stable_rng("lm-counts")
        v = make_vocab(list("abcdef"))
        for trial in range(40):
            order = int(rng.integers(1, 5))
            pairs = random_pairs(rng, v, int(rng.integers(1, 8)))
            model = tg.train_ngram_lm(pairs, order, v)
            assert level_dicts(model) == DictNGramLM.train(pairs, order, len(v)).levels

    def test_levels_are_read_only(self, toy_model):
        for level in toy_model.levels:
            for array in level:
                assert not array.flags.writeable


class TestNextDistribution:
    def test_matches_dict_oracle_on_random_corpora(self, tmp_path):
        rng = stable_rng("lm-oracle")
        v = make_vocab(list("abcdef"))
        for trial in range(40):
            order = 1 + trial % 4
            pairs = random_pairs(rng, v, int(rng.integers(1, 6)))
            model = tg.train_ngram_lm(pairs, order, v)
            oracle = DictNGramLM.train(pairs, order, len(v))
            probes = []
            for code, title in pairs:
                probes += [(code, [START_ID, *title[:n]]) for n in range(len(title) + 2)]
            # Ids outside the vocabulary match no context; a key built from
            # them must not alias one that does.
            for high in (len(v), 3 * len(v)):
                for _ in range(20):
                    code = rng.integers(-2, high, size=int(rng.integers(0, 4))).tolist()
                    title = rng.integers(-2, high, size=int(rng.integers(0, 4))).tolist()
                    probes.append((code, [START_ID, *title]))
            assert_matches_oracle(model, oracle, probes)
            model.save(tmp_path / "model.bin")
            assert_matches_oracle(tg.NGramLM.load(tmp_path / "model.bin"), oracle, probes)

    def test_long_contexts_match_dict_oracle(self, tmp_path):
        model, pairs = make_long_model()
        oracle = DictNGramLM.train(pairs, 20, len(model.vocabulary))
        probes = [(code, [START_ID, *title[:n]]) for code, title in pairs for n in range(6)]
        assert_matches_oracle(model, oracle, probes)
        # A loaded model keys level 19 with Python ints and the levels below
        # with int64 arrays, as a trained one does.
        model.save(tmp_path / "model.bin")
        loaded = tg.NGramLM.load(tmp_path / "model.bin")
        assert_key_types(loaded)
        assert_matches_oracle(loaded, oracle, probes)

    def test_distribution_contract(self, toy_model):
        v = toy_model.vocabulary
        rng = stable_rng("lm-contract")
        for _ in range(50):
            code = list(rng.integers(5, len(v), size=3))
            prefix = [START_ID] + list(rng.integers(5, len(v), size=int(rng.integers(0, 4))))
            d = toy_model.next_distribution(code, prefix)
            assert abs(d.sum() - 1.0) <= 1e-9
            assert d.min() >= 0.0
            assert d[PAD_ID] == 0.0 and d[START_ID] == 0.0

    def test_unseen_context_backs_off(self):
        v = make_vocab(["x", "a", "b", "q"])
        model = tg.train_ngram_lm([(v.encode(["x"]), v.encode(["a", "b"]))], 3, v)
        d = model.next_distribution(v.encode(["q", "q"]), [START_ID, v.id("q")])
        assert abs(d.sum() - 1.0) <= 1e-9
        # unigram level still speaks: trained title tokens outweigh noise
        assert d[v.id("a")] > d[v.id("q")]

    def test_end_keeps_mass_after_terminal_context(self):
        v = make_vocab(["x", "a"])
        model = tg.train_ngram_lm([(v.encode(["x"]), v.encode(["a"]))], 2, v)
        d = model.next_distribution(v.encode(["x"]), [START_ID, v.id("a"), END_ID])
        assert d[END_ID] > 0.0

    def test_pure(self, toy_model):
        code = [5, 6, 7]
        a = toy_model.next_distribution(code, [START_ID])
        b = toy_model.next_distribution(code, [START_ID])
        np.testing.assert_array_equal(a, b)

    def test_prefix_must_start_with_start(self, toy_model):
        with pytest.raises(ValueError):
            toy_model.next_distribution([5], [6])
        with pytest.raises(ValueError):
            toy_model.next_distribution([5], [])


class TestMonotoneDataProperty:
    def test_duplicating_a_pair_never_lowers_its_title_probability(self):
        # Joint probability of the pair's title tokens (and END) in
        # their training contexts, before vs after adding a copy.
        rng = stable_rng("monotone")
        v = make_vocab(list("abcde"))

        def title_logprob(model, code, title):
            total = 0.0
            prefix = [START_ID]
            for tok in list(title) + [END_ID]:
                d = model.next_distribution(code, prefix)
                total += float(np.log(d[tok]))
                prefix.append(tok)
            return total

        for trial in range(60):
            order = int(rng.integers(1, 4))
            pairs = random_pairs(rng, v, int(rng.integers(2, 6)))
            target = pairs[int(rng.integers(0, len(pairs)))]
            before = title_logprob(tg.train_ngram_lm(pairs, order, v), *target)
            after = title_logprob(tg.train_ngram_lm(pairs + [target], order, v), *target)
            assert after >= before - 1e-12


class GeneratorContract:
    """Conformance suite; runs against any GeneratorModel."""

    def make_model(self) -> tg.GeneratorModel:
        raise NotImplementedError

    def contexts(self, model):
        v = model.vocabulary
        rng = stable_rng("contract", type(model).__name__)
        for _ in range(25):
            code = list(rng.integers(5, len(v), size=int(rng.integers(0, 4))))
            prefix = [START_ID] + list(
                rng.integers(5, len(v), size=int(rng.integers(0, 4)))
            )
            yield code, prefix

    def test_distributions_valid(self):
        model = self.make_model()
        for code, prefix in self.contexts(model):
            d = model.next_distribution(code, prefix)
            assert d.shape == (len(model.vocabulary),)
            assert abs(d.sum() - 1.0) <= 1e-9
            assert d.min() >= 0.0
            assert d[PAD_ID] == 0.0 and d[START_ID] == 0.0

    def test_deterministic(self):
        model = self.make_model()
        for code, prefix in self.contexts(model):
            np.testing.assert_array_equal(
                model.next_distribution(code, prefix),
                model.next_distribution(code, prefix),
            )

    def state_contexts(self, model):
        """Groups of prefixes under one code that end alike, so a model
        whose state forgets older history maps several to one state."""
        v = model.vocabulary
        rng = stable_rng("contract-state", type(model).__name__)
        for _ in range(6):
            code = list(rng.integers(5, len(v), size=int(rng.integers(0, 4))))
            tail = list(rng.integers(5, len(v), size=int(rng.integers(0, 3))))
            for _ in range(6):
                head = list(rng.integers(5, len(v), size=int(rng.integers(0, 4))))
                yield code, [START_ID] + head + tail

    def test_equal_states_give_equal_distributions(self):
        model = self.make_model()
        seen = {}
        for code, prefix in [*self.contexts(model), *self.state_contexts(model)]:
            key = row_state(model, code, prefix)
            dist = model.next_distribution(code, prefix)
            if key in seen:
                np.testing.assert_array_equal(dist, seen[key])
            else:
                seen[key] = dist


class TestNGramLMContract(GeneratorContract):
    def make_model(self):
        model, _ = build_toy_model()
        return model


class TestDummyModelContract(GeneratorContract):
    def make_model(self):
        return DummyModel(vocab_size=9, seed=3)


# The vocabulary is the five reserved markers, then a = 5, b = 6, c = 7.
GAPPED_LEVELS = [
    {(): {5: 2, 6: 1, 7: 1, END_ID: 1}},
    {(5,): {6: 3}, (7,): {END_ID: 2}, (START_ID,): {5: 1, 7: 1}},
    {(5, 6): {7: 5}, (7, 5): {6: 1, END_ID: 1}},
]


def make_gapped_model(weights=None):
    """Order 3, with the level-2 context (a, b) but not its level-1 suffix
    (b,). Training never makes such a model; its states must still hold."""
    v = make_vocab(["a", "b", "c"])
    assert [v.id(t) for t in "abc"] == [5, 6, 7]
    return tg.NGramLM(order=3, vocab=v, levels=GAPPED_LEVELS, weights=weights)


class TestGappedNGramLMContract(GeneratorContract):
    def make_model(self):
        return make_gapped_model()

    def contexts(self, model):
        # Every prefix of up to three title tokens over {a, b, c}.
        words = [model.vocabulary.id(t) for t in "abc"]
        for code in ([], words[:1], words[::-1]):
            for n in range(4):
                for rest in itertools.product(words, repeat=n):
                    yield code, [START_ID, *rest]

    def test_state_lists_every_hit_context(self):
        model = make_gapped_model()
        v = model.vocabulary
        a, b = v.id("a"), v.id("b")
        # (b,) is absent, so a key that stops at the first missing
        # suffix would give these two prefixes the same state.
        oracle = DictNGramLM(3, len(v), GAPPED_LEVELS)
        probes = [([], [START_ID, a, b]), ([], [START_ID, b, b])]
        ((ab, ab_key), (bb, bb_key)) = step_state_contexts(model, probes)
        assert (ab, bb) == (((a, b),), ()) == tuple(oracle.state(*probe) for probe in probes)
        assert ab_key != bb_key
        assert not np.array_equal(
            model.next_distribution([], [START_ID, a, b]),
            model.next_distribution([], [START_ID, b, b]),
        )

    def test_matches_dict_oracle(self, tmp_path):
        model = make_gapped_model()
        oracle = DictNGramLM(3, len(model.vocabulary), GAPPED_LEVELS)
        assert level_dicts(model) == GAPPED_LEVELS
        assert_matches_oracle(model, oracle, self.contexts(model))
        model.save(tmp_path / "model.bin")
        assert_matches_oracle(tg.NGramLM.load(tmp_path / "model.bin"), oracle, self.contexts(model))


class TestRowLookup:
    """``_row_hits`` finds each context's row for many tails at once, with
    one search per level, as the dict-backed reference finds it by lookup."""

    def test_gapped_levels(self):
        v = make_vocab(list("abcde"))
        assert [v.id(t) for t in "abcde"] == [5, 6, 7, 8, 9]
        levels = [
            {(): {5: 1, 9: 2}},
            {(6,): {5: 1}, (8,): {7: 2, 9: 1}},
            {(5, 7): {6: 1}, (7, 6): {END_ID: 3}, (8, 8): {5: 1}},
        ]
        model = tg.NGramLM(order=3, vocab=v, levels=levels)
        assert_rows_found(model, {1: [(0,), (7,), (9,)], 2: [(0, 0), (5, 8), (7, 7), (9, 9)]})

    def test_python_int_keys(self):
        model, _ = make_long_model()
        assert_key_types(model)
        high = len(model.vocabulary) - 1
        probes = {}
        for l in range(1, model.order):
            stored = model.levels[l].contexts.tolist()
            # The lowest and highest keys, and the successor of each stored
            # context's last id.
            probes[l] = [(0,) * l, (high,) * l]
            probes[l] += [(*c[:-1], c[-1] + 1) for c in stored if c[-1] < high]
        assert_rows_found(model, probes)


def assert_key_types(model):
    """Level 19 of ``make_long_model`` keys its contexts with Python ints
    in an object array, the levels below with int64 arrays."""
    long_keys = model._key_arrays[19]
    assert long_keys.dtype == object and len(long_keys)
    assert all(type(k) is int for k in long_keys.tolist())
    assert all(keys.dtype == np.int64 for keys in model._key_arrays[:19])


def assert_rows_found(model, probes):
    """Every stored context is found at its row. ``probes[l]`` are
    length-``l`` contexts: those the level lacks must be found nowhere,
    and among them, over all levels, must be one below a level's first
    context, one between two of its contexts and one above its last.
    Each context becomes a tail padded on the left with PAD, with -1 and
    with V, ids outside the vocabulary that end a search. All tails are
    searched in one ``_row_hits`` call; a row's hit at level ``l`` must be
    the sorted position of the tail's last ``l`` ids in ``DictNGramLM``'s
    level ``l``, and -1 where that level lacks them."""
    span = model.order - 1
    oracle = DictNGramLM(model.order, len(model.vocabulary), level_dicts(model))
    rows = [{ctx: row for row, ctx in enumerate(sorted(level))} for level in oracle.levels]
    below = between = above = 0
    tails = []
    for l in range(1, model.order):
        stored = sorted(oracle.levels[l])
        absent = set(probes[l]) - set(stored)
        for pad in (PAD_ID, -1, len(model.vocabulary)):
            tails += [(*[pad] * (span - l), *ctx) for ctx in (*stored, *sorted(absent))]
        below += sum(ctx < stored[0] for ctx in absent)
        between += sum(stored[0] < ctx < stored[-1] for ctx in absent)
        above += sum(ctx > stored[-1] for ctx in absent)
    assert below and between and above
    hits = model._row_hits(np.array(tails, dtype=np.int64)).tolist()
    for tail, got in zip(tails, hits):
        assert got == [rows[l].get(tail[span - l :], -1) for l in range(1, span + 1)]


def row_state(model, code, prefix):
    """``model.step_states`` of one (code, prefix) row."""
    pools, prefixes = np.zeros(1, dtype=np.int64), np.array([prefix], dtype=np.int64)
    (key,) = model.step_states([code], pools, prefixes)
    return key


def row_nuclei(model, code, prefix, top_p, temperature=1.0, default=False):
    """``model.step_nuclei`` of one (code, prefix) row, or with ``default``
    ``GeneratorModel.step_nuclei``'s, on the key ``step_states`` gives it."""
    pools, prefixes = np.zeros(1, dtype=np.int64), np.array([prefix], dtype=np.int64)
    states = model.step_states([code], pools, prefixes)
    step_nuclei = tg.GeneratorModel.step_nuclei if default else type(model).step_nuclei
    (pair,) = step_nuclei(model, states, [code], pools, prefixes, top_p, temperature)
    return pair


def step_state_contexts(model, probes):
    """The contexts of the hit rows ``step_states`` keys each (code,
    prefix) probe by, with the keys. The probes are grouped by prefix
    length, one group per call, as a decoding step groups its rows; a
    group's codes are listed once each. Each key is ``order - 1`` rows."""
    groups: dict = {}
    for i, (code, prefix) in enumerate(probes):
        groups.setdefault(len(prefix), []).append(i)
    out = [None] * len(probes)
    for at in groups.values():
        codes, pools = [], []
        for i in at:
            code = list(probes[i][0])
            if code not in codes:
                codes.append(code)
            pools.append(codes.index(code))
        prefixes = np.array([probes[i][1] for i in at], dtype=np.int64)
        keys = model.step_states(codes, np.array(pools), prefixes)
        assert len(keys) == len(at)
        for i, key in zip(at, keys):
            rows = np.frombuffer(key, dtype=np.int64).tolist()
            assert len(rows) == model.order - 1
            contexts = tuple(
                tuple(model.levels[l].contexts[row].tolist())
                for l, row in enumerate(rows, 1)
                if row >= 0
            )
            out[i] = (contexts, key)
    return out


def assert_step_states_match(model, oracle, probes):
    """``step_states`` agrees with the one-row walk and the oracle's
    ``state`` on every probe, and its keys are equal exactly where the
    states are."""
    states = {}
    for (code, prefix), (contexts, key) in zip(probes, step_state_contexts(model, probes)):
        assert contexts == oracle.state(code, prefix)
        states.setdefault(key, set()).add(contexts)
    assert all(len(s) == 1 for s in states.values())
    assert len({s for (s,) in states.values()}) == len(states)


class TestStepStates:
    """``NGramLM.step_states``, the array search sampling keys its memo by,
    against the one-row walk and the dict oracle."""

    def test_codes_shorter_than_the_context(self, toy_model):
        oracle = DictNGramLM(4, len(toy_model.vocabulary), level_dicts(toy_model))
        v = toy_model.vocabulary
        words = [v.id(t) for t in ("fn", "call", "k3", "t3a0", "t3a1", "t3b0")]
        probes = []
        for code in ([], words[2:3], words[1:3], words[:3], words[3:5]):
            for n in range(5):
                for rest in itertools.product(words[2:], repeat=min(n, 2)):
                    probes.append((code, [START_ID, *rest, *words[3 : 3 + n - len(rest)]]))
        assert {len(code) for code, _ in probes} == {0, 1, 2, 3}
        assert_step_states_match(toy_model, oracle, probes)

    def test_ids_outside_the_vocabulary(self, toy_model):
        oracle = DictNGramLM(4, len(toy_model.vocabulary), level_dicts(toy_model))
        v = toy_model.vocabulary
        size = len(v)
        k3, a0, a1 = v.id("k3"), v.id("t3a0"), v.id("t3a1")
        codes = ([-1, k3], [k3, size], [size + 5, k3, a0], [2**70, k3], [k3, -(2**70)], [k3])
        prefixes = (
            [START_ID],
            [START_ID, a0],
            [START_ID, a0, a1],
            [START_ID, -2],
            [START_ID, a0, size + 3],
            [START_ID, size, a0, a1],
            [START_ID, -5, a0, a1],
        )
        probes = [(code, prefix) for code in codes for prefix in prefixes]
        assert_step_states_match(toy_model, oracle, probes)
        # An id outside the vocabulary ends the search: only shorter
        # suffixes can hit.
        ((contexts, _),) = step_state_contexts(toy_model, [([k3], [START_ID, size, a0])])
        assert contexts == ((a0,),)
        # Read as a digit, (b, V + 5) would be the key of the stored (c, a).
        model = make_gapped_model()
        b, c, a = (model.vocabulary.id(t) for t in "bca")
        assert b * 8 + 8 + 5 == c * 8 + a
        probes = [([], [START_ID, b, 8 + 5]), ([c], [START_ID, a, -3]), ([], [START_ID, c, a])]
        oracle = DictNGramLM(3, len(model.vocabulary), GAPPED_LEVELS)
        assert_step_states_match(model, oracle, probes)
        assert [contexts for contexts, _ in step_state_contexts(model, probes)] == [(), (), ((a,), (c, a))]

    def test_context_without_its_shorter_suffix(self):
        model = make_gapped_model()
        oracle = DictNGramLM(3, len(model.vocabulary), GAPPED_LEVELS)
        probes = list(TestGappedNGramLMContract().contexts(model))
        assert_step_states_match(model, oracle, probes)
        a, b = model.vocabulary.id("a"), model.vocabulary.id("b")
        ((ab, _), (bb, _)) = step_state_contexts(model, [([], [START_ID, a, b]), ([], [START_ID, b, b])])
        assert (ab, bb) == (((a, b),), ())

    def test_levels_past_int64(self):
        model, pairs = make_long_model()
        assert_key_types(model)
        oracle = DictNGramLM.train(pairs, 20, len(model.vocabulary))
        probes = [(code, [START_ID, *title[:n]]) for code, title in pairs for n in range(5)]
        probes += [(code[:6], [START_ID]) for code, _ in pairs]
        assert_step_states_match(model, oracle, probes)
        # Some probes hit the Python-int level.
        hits = step_state_contexts(model, probes)
        assert any(len(contexts[-1]) == 19 for contexts, _ in hits if contexts)


def assert_nucleus_matches_default(model, code, prefix, top_p):
    """``model.step_nuclei`` at temperature 1 returns the default's
    arrays, bit for bit and with the same dtypes."""
    got = row_nuclei(model, code, prefix, top_p)
    want = row_nuclei(model, code, prefix, top_p, default=True)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


#: Context ids of hand-built models, and the ids their codes and
#: prefixes are drawn from, so that most states hit some context.
CONTEXT_IDS = [START_ID, NEXT_ID, 5, 6, 7]


@st.composite
def hand_built_models(draw):
    """Order, vocabulary size, levels and weights of an ``NGramLM`` that
    training could not make: any next id (PAD and START included), any
    context with or without its shorter suffixes, zero or tiny weights
    that tie hit ids with the floor, and wide vocabularies where most ids
    sit at the floor."""
    order = draw(st.integers(1, 3))
    size = draw(st.sampled_from([8, 12, 40, 70, 120]))
    levels = []
    for l in range(order):
        contexts = draw(
            st.lists(st.tuples(*[st.sampled_from(CONTEXT_IDS)] * l), max_size=4, unique=True)
        )
        levels.append(
            {
                ctx: draw(
                    st.dictionaries(
                        st.integers(0, size - 1), st.integers(1, 5), min_size=1, max_size=6
                    )
                )
                for ctx in contexts
            }
        )
    raw = draw(st.lists(st.sampled_from([0.0, 1e-30, 0.25, 1.0]), min_size=order, max_size=order))
    weights = [w / sum(raw) for w in raw] if sum(raw) > 0 else None
    return {"order": order, "size": size, "levels": levels, "weights": weights}


def build_hand_model(spec):
    words = [f"w{i}" for i in range(spec["size"] - len(tg.RESERVED))]
    vocab = tg.Vocabulary(list(tg.RESERVED) + words)
    return tg.NGramLM(spec["order"], vocab, spec["levels"], spec["weights"])


#: Order 2 over 20 ids: the unigram row holds only id 5, so id 1 (END)
#: leads the ids tied at the floor; the level-1 row under START adds 0.0
#: to id 7, so it ties with them too. A nucleus that needs one floor id
#: must take END: id 7, above the first border id's value only if ties
#: count, must not take its place.
FLOOR_TIE_SPEC = {
    "order": 2,
    "size": 20,
    "levels": [{(): {5: 1}}, {(START_ID,): {7: 1}}],
    "weights": [1.0, 0.0],
}


class TestSparseNucleus:
    """``NGramLM.step_nuclei`` of one state against the default (the dense
    distribution through ``_kernels.nucleus_kernel``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        spec=hand_built_models(),
        code=st.lists(st.sampled_from(CONTEXT_IDS), max_size=3),
        tail=st.lists(st.sampled_from(CONTEXT_IDS[2:]), max_size=3),
        top_p=st.one_of(
            st.sampled_from([0.5, 0.8, 0.99999, 1.0 - 1e-9, 1.0]), st.floats(0.01, 0.999999)
        ),
        first=st.sampled_from([1, 2, 3, lm._BORDER_FIRST]),
    )
    @example(spec=FLOOR_TIE_SPEC, code=[], tail=[], top_p=0.9999835, first=1)
    def test_equals_default_on_hand_built_models(self, spec, code, tail, top_p, first):
        model = build_hand_model(spec)
        # A first border width of a few ids makes small vocabularies
        # widen, and tie the cut with the border, as large ones do.
        with mock.patch.object(lm, "_BORDER_FIRST", first):
            assert_nucleus_matches_default(model, code, [START_ID, *tail], top_p)

    def test_floor_ties_take_the_lowest_id(self):
        model = build_hand_model(FLOOR_TIE_SPEC)
        with mock.patch.object(lm, "_BORDER_FIRST", 1):
            ids, _ = row_nuclei(model, [], [START_ID], 0.9999835)
        assert ids.tolist() == [END_ID, 5]

    def test_equals_default_on_gapped_model(self):
        model = make_gapped_model()
        for code, prefix in TestGappedNGramLMContract().contexts(model):
            for top_p in (0.3, 0.8, 0.99):
                with mock.patch.object(lm, "_BORDER_FIRST", 1):
                    assert_nucleus_matches_default(model, code, prefix, top_p)

    def test_equals_default_on_toy_model(self, toy_model):
        v = toy_model.vocabulary
        rng = stable_rng("sparse-nucleus")
        for _ in range(60):
            code = list(rng.integers(5, len(v), size=3))
            prefix = [START_ID] + list(rng.integers(5, len(v), size=int(rng.integers(0, 4))))
            for top_p in (0.2, 0.8, 0.95, 0.999999):
                assert_nucleus_matches_default(toy_model, code, prefix, top_p)

    @pytest.mark.parametrize("top_p, temperature", [(1.0, 1.0), (0.8, 0.7), (1.0, 1.3)])
    def test_other_settings_take_the_default(self, toy_model, top_p, temperature):
        code = toy_model.vocabulary.encode(["fn", "call", "k3"])
        with mock.patch.object(tg.NGramLM, "_border_order", side_effect=AssertionError):
            got = row_nuclei(toy_model, code, [START_ID], top_p, temperature)
        want = row_nuclei(toy_model, code, [START_ID], top_p, temperature, default=True)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def zipf_model(size=600, posts=900):
    """An order-4 model trained on titles of Zipf-drawn words: a few
    hundred ids, so nuclei near top_p 1 widen past the first border
    window and reach the dense kernel."""
    rng = stable_rng("zipf-model", size, posts)
    words = [f"w{i}" for i in range(size)]
    weights = 1.0 / np.arange(1, size + 1) ** 1.1
    vocab = tg.Vocabulary()
    pairs = []
    for _ in range(posts):
        code = rng.choice(words[:40], size=3).tolist()
        title = rng.choice(words, size=int(rng.integers(3, 9)), p=weights / weights.sum())
        pairs.append((vocab.encode(code, grow=True), vocab.encode(title.tolist(), grow=True)))
    return tg.train_ngram_lm(pairs, order=4, vocab=vocab)


class TestBatchedNuclei:
    """``NGramLM.step_nuclei`` on every state a sampling run computes: the
    default's arrays bit for bit, through widening, the dense kernel and
    batches split into blocks."""

    @pytest.mark.parametrize("top_p", [0.8, 0.95, 0.995])
    def test_every_miss_state_of_a_run(self, top_p, monkeypatch):
        model = zipf_model()
        size = len(model.vocabulary)
        assert size > 4 * lm._BORDER_FIRST
        # Blocks of 3 states, so most batches are split; every state is
        # stored, so each is computed once.
        monkeypatch.setattr(lm, "_BLOCK_BYTES", 3 * 8 * size)
        monkeypatch.setattr(decode, "_MEMO_IDS_PER_VOCAB", 10**6)
        computed, batches, widths, dense = [], [], [], []
        step_nuclei, cut_block = tg.NGramLM.step_nuclei, tg.NGramLM._cut_block
        kernel = lm._kernels.nucleus_kernel

        def recording_nuclei(self, states, codes, pools, prefixes, p, t):
            found = step_nuclei(self, states, codes, pools, prefixes, p, t)
            rows = zip(pools.tolist(), prefixes.tolist(), found)
            computed.extend((list(codes[pool]), prefix, arrays) for pool, prefix, arrays in rows)
            batches.append(len(states))
            return found

        def recording_cut(self, block, totals, pending, hit_keys, m, *rest):
            widths.append(m)
            return cut_block(self, block, totals, pending, hit_keys, m, *rest)

        def recording_kernel(probs, beta, temperature):
            dense.append(beta)
            return kernel(probs, beta, temperature)

        monkeypatch.setattr(tg.NGramLM, "step_nuclei", recording_nuclei)
        monkeypatch.setattr(tg.NGramLM, "_cut_block", recording_cut)
        monkeypatch.setattr(lm._kernels, "nucleus_kernel", recording_kernel)
        memo = decode.NucleusMemo(model, top_p, 1.0)
        for topic in range(4):
            code = model.vocabulary.encode([f"w{topic}", f"w{topic + 7}", f"w{topic + 20}"])
            cfg = tg.SamplingConfig(top_p=top_p, num_samples=60, max_length=10, seed=topic)
            tg.decode_candidates(model, code, cfg, memo)
        assert max(batches) > 3
        # Near top_p 1 the first window falls short, then the widest.
        assert (max(widths) > lm._BORDER_FIRST) == (top_p > 0.9)
        assert bool(dense) == (top_p > 0.99)
        monkeypatch.setattr(lm._kernels, "nucleus_kernel", kernel)
        monkeypatch.setattr(tg.NGramLM, "step_nuclei", step_nuclei)
        for code, prefix, arrays in computed:
            want = row_nuclei(model, code, prefix, top_p, default=True)
            for a, b in zip(arrays, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            # A one-row step gives the same arrays.
            got = row_nuclei(model, code, prefix, top_p)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert len(computed) == len(memo._entries) > 100


def split_model(data):
    """(header, arrays) of a model file's bytes: ``arrays`` maps the name
    of each array the header lists to a plain list of its values."""
    end = data.index(b"\n")
    header = json.loads(data[:end])
    arrays, at = {}, end + 1
    for name, dtype, n in header["arrays"]:
        arrays[name] = np.frombuffer(data, dtype=dtype, count=n, offset=at).tolist()
        at += 8 * n
    return header, arrays


def join_model(header, arrays, layout=None):
    """The bytes ``NGramLM.save`` lays out for ``split_model``'s parts; the
    arrays are written as ``layout`` lists them, by default the header."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    head += " " * (-(len(head) + 1) % 8) + "\n"
    layout = header["arrays"] if layout is None else layout
    body = [np.array(arrays[name], dtype=dtype).tobytes() for name, dtype, _ in layout]
    return head.encode("ascii") + b"".join(body)


def _edit(fn):
    """Apply ``fn`` to a file's (header, arrays); the arrays keep the
    layout the file had."""
    def mutate(data):
        header, arrays = split_model(data)
        layout = header["arrays"]
        fn(header, arrays)
        return join_model(header, arrays, layout)

    return mutate


def _header(**changes):
    return _edit(lambda header, arrays: header.update(changes))


def _resize(levels):
    """Give the header other level sizes, and the arrays they lay out."""
    def resize(header, arrays):
        header["levels"] = levels
        header["arrays"] = lm._layout(levels, len(header["vocabulary"]))

    return _edit(resize)


def _put(name, values):
    """Replace the array ``name`` with ``values``."""
    return _edit(lambda header, arrays: arrays.__setitem__(name, list(values)))


def _set(name, i, value):
    """Replace entry (or slice) ``i`` of the array ``name``."""
    return _edit(lambda header, arrays: arrays[name].__setitem__(i, value))


def _old_json_model(data):
    header, _ = split_model(data)
    del header["version"], header["arrays"]
    header["levels"] = [[[[], [[END_ID, 1]]]], [], []]
    return (json.dumps(header) + "\n").encode()


# Cases over the gapped model's file (V = 8, weights 1/3 each). Its entries
# are level 0's (next ids 1 5 6 7, counts 1 2 1 1), then level 1's (5 7 6 1,
# counts 1 1 3 2) and level 2's (7 1 6, counts 5 1 1). Offsets into them:
# 0 4 | 4 6 7 8 | 8 9 11. Context keys: 0 | 0 5 7 (<s>, a, c) | 46 61
# ((a b), (c a)).
KEYS = "context keys must be strictly ascending"
BAD_MODELS = [
    ("truncated", lambda data: data[:-8], "bytes of arrays"),
    ("truncated_in_header", lambda data: data[:40], "not a model file"),
    ("empty", lambda data: b"", "not a model file"),
    ("trailing_bytes", lambda data: data + bytes(8), "bytes of arrays"),
    ("sizes_disagree", _header(levels=[[1, 4], [3, 5], [2, 3]]), "arrays do not fit"),
    ("arrays_retyped", _edit(lambda h, a: h["arrays"][2].__setitem__(1, "<i8")), "do not fit"),
    ("arrays_missing", _edit(lambda h, a: h.pop("arrays")), "lacks ['arrays']"),
    # Same byte total, split otherwise: level 0's entries end at 3.
    ("sizes_shifted", _resize([[1, 3], [3, 4], [2, 4]]), "level 0: offsets must start at 0"),
    ("sizes_not_pairs", _header(levels=[1, 4]), "integer pairs"),
    ("size_negative", _header(levels=[[1, 4], [3, 4], [-2, 3]]), "integer pairs >= 0"),
    ("header_list", lambda data: b"[1, 2]" + data[data.index(b"\n") :], "not a model file"),
    ("header_not_json", lambda data: b"\xff" + data, "not a model file"),
    ("foreign_format", _header(format="titlegen-bm25-index"), "not a model file"),
    ("version_4", _header(version=4), "format version 4, not 3"),
    ("old_json_model", _old_json_model, "rerun train-lm"),
    ("missing_weights", _edit(lambda h, a: h.pop("weights")), "lacks ['weights']"),
    ("vocabulary_numbers", _header(vocabulary=list(range(8))), "list of strings"),
    ("vocabulary_unmarked", _header(vocabulary=list("abcdefgh")), "reserved markers"),
    ("next_id_past_end", _set("next_ids", 5, 8), "id 8 is outside the vocabulary of 8"),
    ("next_id_negative", _set("next_ids", 4, -1), "id -1 is outside the vocabulary"),
    ("context_id_past_end", _put("keys[2]", [46, 64]), f"level 2: {KEYS} in [0, 64)"),
    ("context_id_negative", _put("keys[1]", [-3, 5, 7]), f"level 1: {KEYS} in [0, 8)"),
    ("contexts_unsorted", _put("keys[1]", [5, 0, 7]), f"level 1: {KEYS}"),
    ("contexts_repeated", _put("keys[2]", [46, 46]), f"level 2: {KEYS}"),
    ("level_0_key", _put("keys[0]", [1]), f"level 0: {KEYS} in [0, 1)"),
    ("count_zero", _set("counts", 5, 0), "level 1: counts must be >= 1, got 0"),
    ("count_negative", _set("counts", 8, -5), "level 2: counts must be >= 1, got -5"),
    ("offsets_repeated", _put("offsets[1]", [4, 6, 6, 8]), "level 1: offsets must start at 4"),
    ("offsets_descending", _put("offsets[1]", [4, 7, 6, 8]), "increase strictly"),
    ("offsets_short_of_end", _put("offsets[1]", [4, 5, 6, 7]), "strictly and end at 8"),
    ("offsets_not_from_zero", _put("offsets[0]", [1, 4]), "level 0: offsets must start at 0"),
    ("offsets_not_from_level_start", _put("offsets[2]", [9, 10, 11]), "level 2: offsets must start at 8"),
    ("offsets_from_zero_past_level_0", _put("offsets[2]", [0, 9, 11]), "level 2: offsets must"),
    ("next_ids_unsorted", _set("next_ids", slice(4, 6), [7, 5]), "level 1: next ids must be"),
    ("next_ids_repeated", _set("next_ids", 10, 1), "level 2: next ids must be strictly ascending"),
    ("value_nan", _set("values", 6, math.nan), "level 1: values must be finite and in (0, 1]"),
    ("value_zero", _set("values", 9, 0.0), "level 2: values must be finite and in (0, 1]"),
    ("value_negative", _set("values", 0, -0.25), "level 0: values must be finite and in (0, 1]"),
    ("value_above_one", _set("values", 6, 1.5), "level 1: values must be finite and in (0, 1]"),
    ("value_infinite", _set("values", 6, math.inf), "level 1: values must be finite and in (0, 1]"),
    ("value_under_zero_weight", _header(weights=[0.5, 0.5, 0.0]), "level 2: values must be 0"),
    ("base_zero", _set("base", 2, 0.0), "base row entries must be finite and in (0, 1.000001]"),
    ("base_negative", _set("base", 5, -1e-6), "base row entries must be finite"),
    ("base_nan", _set("base", 7, math.nan), "base row entries must be finite"),
    ("base_above_one", _set("base", 5, 2.0), "base row entries must be finite"),
    ("order_zero", _header(order=0), "order must be an integer >= 1, got 0"),
    ("order_string", _header(order="3"), "order must be an integer >= 1, got '3'"),
    ("order_disagrees", _header(order=2), "expected 2 count levels, got 3"),
    ("weights_sum", _header(weights=[0.5, 0.5, 0.5]), "sum to 1"),
    ("weights_negative", _header(weights=[1.5, -0.5, 0.0]), "nonnegative"),
    ("weights_infinite", _header(weights=[math.inf, 0.0, 0.0]), "finite"),
    ("weights_past_float", _header(weights=[10**400, 0, 0]), "must be finite and nonnegative"),
    ("weights_short", _header(weights=[0.5, 0.5]), "one per order level"),
    ("weights_strings", _header(weights=["0.5", "0.25", "0.25"]), "list of numbers"),
    ("weights_object", _header(weights={"a": 1}), "list of numbers"),
]


def write_bad_model(path, mutate):
    """The gapped model's file with ``mutate`` applied to its bytes."""
    make_gapped_model().save(path)
    path.write_bytes(mutate(path.read_bytes()))


# The file ``NGramLM.save`` writes for the gapped model with weights
# (0.5, 0.25, 0.25): the header line, padded with spaces to 392 bytes,
# then the arrays it lists, little endian.
GOLDEN_HEADER = (
    b'{"arrays":[["base","<f8",8],["next_ids","<i8",11],["values","<f8",11],'
    b'["counts","<i8",11],["offsets[0]","<i8",2],["offsets[1]","<i8",4],'
    b'["offsets[2]","<i8",3],["keys[0]","<i8",1],["keys[1]","<i8",3],["keys[2]","<i8",2]],'
    b'"format":"titlegen-ngram-lm","levels":[[1,4],[3,4],[2,3]],"order":3,"version":3,'
    b'"vocabulary":["<s>","</s>","[PAD]","[NEXT]","[UNK]","a","b","c"],'
    b'"weights":[0.5,0.25,0.25]}\n'
)
GOLDEN_ARRAYS = [
    # base: the floor, plus 0.5 * count / 5 at </s> a b c
    1e-06, 0.100001, 1e-06, 1e-06, 1e-06, 0.200001, 0.100001, 0.100001,
    # next ids, level after level: </s> a b c | a c, b, </s> | c, </s> b
    1, 5, 6, 7, 5, 7, 6, 1, 7, 1, 6,
    # values: weight * count / row total
    0.1, 0.2, 0.1, 0.1, 0.125, 0.125, 0.25, 0.25, 0.25, 0.125, 0.125,
    # counts
    1, 2, 1, 1, 1, 1, 3, 2, 5, 1, 1,
    # offsets into the entries, per level
    0, 4, 4, 6, 7, 8, 8, 9, 11,
    # context keys, per level: (); <s>, a, c; (a b) = 5 * 8 + 6, (c a) = 7 * 8 + 5
    0, 0, 5, 7, 46, 61,
]

# The version 2 file of the same model: contexts, offsets, next ids and
# counts per level, as int64.
GOLDEN_V2 = (
    b'{"format":"titlegen-ngram-lm","levels":[[1,4],[3,4],[2,3]],"order":3,"version":2,'
    b'"vocabulary":["<s>","</s>","[PAD]","[NEXT]","[UNK]","a","b","c"],'
    b'"weights":[0.5,0.25,0.25]}   \n'
) + struct.pack(
    "<38q",
    0, 4, 1, 5, 6, 7, 1, 2, 1, 1,
    0, 5, 7, 0, 2, 3, 4, 5, 7, 6, 1, 1, 1, 3, 2,
    5, 6, 7, 5, 0, 1, 3, 7, 1, 6, 5, 1, 1,
)


def packed(values):
    """Floats as little-endian float64, ints as int64."""
    return b"".join(struct.pack("<d" if isinstance(v, float) else "<q", v) for v in values)


def assert_same_model_output(model, other, probes, beam_size=3):
    """Bit-identical ``next_distribution``, ``step_nuclei`` and beam bands
    from two models on every (code, prefix) probe."""
    for code, prefix in probes:
        assert model.next_distribution(code, prefix).tobytes() == (
            other.next_distribution(code, prefix).tobytes()
        )
        for top_p in (0.5, 0.9, 0.999):
            for a, b in zip(row_nuclei(model, code, prefix, top_p), row_nuclei(other, code, prefix, top_p)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    pools = np.zeros(1, dtype=np.int64)
    for code, prefix in probes:
        prefixes = np.array([prefix], dtype=np.int64)
        bands = [
            decode.BandMemo(m, beam_size).bands([code], pools, prefixes) for m in (model, other)
        ]
        assert bands[0].tobytes() == bands[1].tobytes()


class TestSerialization:
    def test_roundtrip_preserves_observable_distributions(self, tmp_path, toy_model):
        path = tmp_path / "model.bin"
        toy_model.save(path)
        loaded = tg.NGramLM.load(path)
        assert loaded.order == toy_model.order
        assert loaded.weights == toy_model.weights
        assert loaded.vocabulary == toy_model.vocabulary
        assert level_dicts(loaded) == level_dicts(toy_model)
        rng = stable_rng("roundtrip")
        for _ in range(20):
            code = list(rng.integers(5, len(toy_model.vocabulary), size=3))
            prefix = [START_ID] + list(rng.integers(5, len(toy_model.vocabulary), size=2))
            np.testing.assert_array_equal(
                toy_model.next_distribution(code, prefix),
                loaded.next_distribution(code, prefix),
            )

    def test_save_is_deterministic(self, tmp_path, toy_model):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        toy_model.save(a)
        toy_model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "model.bin"
        make_gapped_model(weights=(0.5, 0.25, 0.25)).save(path)
        assert len(GOLDEN_HEADER) % 8 == 0
        assert path.read_bytes() == GOLDEN_HEADER + packed(GOLDEN_ARRAYS)

    def test_refuses_version_2_file(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(GOLDEN_V2)
        with pytest.raises(ValueError) as info:
            tg.NGramLM.load(path)
        assert str(info.value) == (
            f"model {path} has format version 2, not 3; rerun train-lm to rebuild it"
        )

    def test_split_and_join_round_trip(self, tmp_path):
        path = tmp_path / "model.bin"
        make_gapped_model().save(path)
        assert join_model(*split_model(path.read_bytes())) == path.read_bytes()

    def test_reload_gives_identical_outputs(self, tmp_path, toy_model):
        rng = stable_rng("reload")
        size = len(toy_model.vocabulary)
        probes = [
            (rng.integers(5, size, size=3).tolist(),
             [START_ID, *rng.integers(5, size, size=int(rng.integers(0, 4))).tolist()])
            for _ in range(40)
        ]
        long_model, pairs = make_long_model()
        cases = [
            (toy_model, probes),
            (make_gapped_model(), list(TestGappedNGramLMContract().contexts(make_gapped_model()))),
            # A level of weight 0, whose values are all 0.
            (build_hand_model(FLOOR_TIE_SPEC), [([], [START_ID]), ([5], [START_ID, 7])]),
            (long_model, [(code, [START_ID, *title[:n]]) for code, title in pairs for n in range(5)]),
        ]
        for i, (model, probes) in enumerate(cases):
            path = tmp_path / f"model{i}.bin"
            model.save(path)
            loaded = tg.NGramLM.load(path)
            assert level_dicts(loaded) == level_dicts(model)
            assert_same_model_output(model, loaded, probes)

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdef"), max_size=4),
                st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=8,
        ),
        order=st.integers(1, 4),
    )
    def test_reload_of_trained_corpus(self, tmp_path_factory, pairs, order):
        v = make_vocab(list("abcdef"))
        pairs = [(v.encode(code), v.encode(title)) for code, title in pairs]
        model = tg.train_ngram_lm(pairs, order, v)
        path = tmp_path_factory.mktemp("reload") / "model.bin"
        model.save(path)
        probes = [(code, [START_ID, *title[:n]]) for code, title in pairs for n in range(len(title) + 2)]
        assert_same_model_output(model, tg.NGramLM.load(path), probes)

    def test_load_copies_nothing_per_entry(self, tmp_path):
        # Far more entries than tokens, and than context rows, so an array
        # of 8 bytes per entry stands out from the per-token work.
        rng = stable_rng("load-memory")
        v = make_vocab([f"w{i}" for i in range(40)])
        words = np.arange(5, len(v))
        pairs = [(rng.choice(words, 2).tolist(), rng.choice(words, 8).tolist()) for _ in range(3000)]
        model = tg.train_ngram_lm(pairs, 3, v)
        entries = sum(len(level.next_ids) for level in model.levels)
        rows = sum(len(level.contexts) for level in model.levels)
        assert entries > 200 * len(v) and entries > 8 * rows
        path = tmp_path / "model.bin"
        model.save(path)
        tracemalloc.start()
        try:
            tg.NGramLM.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * entries

    def test_failed_save_keeps_earlier_file(self, tmp_path, toy_model, monkeypatch):
        path = tmp_path / "model.bin"
        make_gapped_model().save(path)
        before = path.read_bytes()
        written = []

        class FullDisk:
            """A file that takes the first half of a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                written.append(self.fh.write(data[: len(data) // 2]))
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(records, "open", lambda *a, **k: FullDisk(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            toy_model.save(path)
        assert written[0] > 0 and path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    @pytest.mark.parametrize(
        "mutate, message", [c[1:] for c in BAD_MODELS], ids=[c[0] for c in BAD_MODELS]
    )
    def test_rejects_malformed_model(self, tmp_path, mutate, message):
        path = tmp_path / "model.bin"
        write_bad_model(path, mutate)
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            tg.NGramLM.load(path)
        assert str(path) in str(info.value) and "\n" not in str(info.value)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            tg.NGramLM.load(path)
