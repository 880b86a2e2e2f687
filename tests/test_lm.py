import itertools

import numpy as np
import pytest

import titlegen as tg
from titlegen.lm import FLOOR
from titlegen.text import END_ID, NEXT_ID, PAD_ID, START_ID

from .conftest import DummyModel, build_toy_model
from .oracles import stable_rng


# -- dict-based reference implementation --------------------------------------

def train_oracle(pairs, order):
    levels = [{} for _ in range(order)]
    for code, title in pairs:
        seq = list(code) + [NEXT_ID, START_ID] + list(title) + [END_ID]
        for p in range(len(code) + 2, len(seq)):
            for l in range(order):
                if l > p:
                    break
                ctx = tuple(seq[p - l : p])
                levels[l].setdefault(ctx, {}).setdefault(seq[p], 0)
                levels[l][ctx][seq[p]] += 1
    return levels


def dist_oracle(levels, order, vocab_size, code, prefix):
    w = 1.0 / order
    full = list(code) + [NEXT_ID] + list(prefix)
    out = {t: FLOOR for t in range(vocab_size)}
    for l in range(order):
        if l > len(full):
            continue
        ctx = tuple(full[len(full) - l :]) if l else ()
        table = levels[l].get(ctx)
        if table:
            total = sum(table.values())
            for t, c in table.items():
                out[t] += w * c / total
    out[PAD_ID] = 0.0
    out[START_ID] = 0.0
    s = sum(out.values())
    return np.array([out[t] / s for t in range(vocab_size)])


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
        for l, table in enumerate(model.levels):
            assert all(len(ctx) == l for ctx in table)
            assert all(len(ctx) < model.order for ctx in table)


class TestNextDistribution:
    def test_matches_dict_oracle_on_random_corpora(self):
        rng = stable_rng("lm-oracle")
        v = make_vocab(list("abcdef"))
        for trial in range(25):
            order = int(rng.integers(1, 5))
            pairs = random_pairs(rng, v, int(rng.integers(1, 6)))
            model = tg.train_ngram_lm(pairs, order, v)
            levels = train_oracle(pairs, order)
            code, title = pairs[0]
            for plen in range(len(title) + 1):
                prefix = [START_ID] + list(title[:plen])
                got = model.next_distribution(code, prefix)
                want = dist_oracle(levels, order, len(v), code, prefix)
                np.testing.assert_allclose(got, want, atol=1e-12)

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
            key = (tuple(code), model.state(code, prefix))
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


def make_gapped_model():
    """Order 3, with the level-2 context (a, b) but not its level-1 suffix
    (b,). Training never makes such a model; ``state`` must still hold."""
    v = make_vocab(["a", "b", "c"])
    a, b, c = v.id("a"), v.id("b"), v.id("c")
    levels = [
        {(): {a: 2, b: 1, c: 1, END_ID: 1}},
        {(a,): {b: 3}, (c,): {END_ID: 2}, (START_ID,): {a: 1, c: 1}},
        {(a, b): {c: 5}, (c, a): {b: 1, END_ID: 1}},
    ]
    return tg.NGramLM(order=3, vocab=v, levels=levels)


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
        assert model.state([], [START_ID, a, b]) == ((a, b),)
        assert model.state([], [START_ID, b, b]) == ()
        assert not np.array_equal(
            model.next_distribution([], [START_ID, a, b]),
            model.next_distribution([], [START_ID, b, b]),
        )

    def test_matches_dict_oracle(self):
        model = make_gapped_model()
        for code, prefix in self.contexts(model):
            want = dist_oracle(model.levels, 3, len(model.vocabulary), code, prefix)
            np.testing.assert_allclose(model.next_distribution(code, prefix), want, atol=1e-12)


class TestSerialization:
    def test_roundtrip_preserves_observable_distributions(self, tmp_path, toy_model):
        path = tmp_path / "model.json"
        toy_model.save(path)
        loaded = tg.NGramLM.load(path)
        assert loaded.order == toy_model.order
        assert loaded.weights == toy_model.weights
        assert loaded.vocabulary == toy_model.vocabulary
        rng = stable_rng("roundtrip")
        for _ in range(20):
            code = list(rng.integers(5, len(toy_model.vocabulary), size=3))
            prefix = [START_ID] + list(rng.integers(5, len(toy_model.vocabulary), size=2))
            np.testing.assert_array_equal(
                toy_model.next_distribution(code, prefix),
                loaded.next_distribution(code, prefix),
            )

    def test_save_is_deterministic(self, tmp_path, toy_model):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        toy_model.save(a)
        toy_model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            tg.NGramLM.load(path)
