import pytest
from hypothesis import given
from hypothesis import strategies as st

from titlegen import text
from titlegen.lm import NGramLM, train_ngram_lm

from .oracles import loop_tokenize

words = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=6),
    min_size=0,
    max_size=12,
)

# Case pairs whose lowering is not one-to-one (final sigma, dotted I),
# whitespace that only str.split knows ("\x1c", "\x85", no-break and
# ideographic spaces), "_", digits, CJK and a combining mark.
_ODD_CHARS = "aZςΣİ0٣_.(\u0301中文\x1c\x85\xa0\u3000\t"
_markers = st.sampled_from(text.RESERVED)
_pieces = st.one_of(
    st.text(alphabet=_ODD_CHARS, max_size=8),
    _markers,
    _markers.map(lambda m: "a" + m),
    _markers.map(lambda m: m + "ς"),
    _markers.map(str.lower),
    _markers.map(str.upper),
)


class TestTokenize:
    def test_basic_sentence(self):
        assert text.tokenize("What does yield do?") == ["what", "does", "yield", "do", "?"]

    def test_empty(self):
        assert text.tokenize("") == []

    def test_reserved_marker_preserved(self):
        assert text.tokenize("a [NEXT] b") == ["a", "[NEXT]", "b"]
        assert text.tokenize("<s> x </s>") == ["<s>", "x", "</s>"]

    def test_punctuation_split(self):
        assert text.tokenize("foo.bar(x)") == ["foo", ".", "bar", "(", "x", ")"]

    def test_lowercases(self):
        assert text.tokenize("KeyError") == ["keyerror"]

    def test_never_produces_markers_from_plain_text(self):
        # Brackets split, so the marker string cannot be assembled.
        assert "[PAD]" not in text.tokenize("a[PAD]b")

    @given(
        st.lists(_pieces, min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["", " ", "\x85"])), max_size=30),
    )
    def test_matches_loop_oracle(self, pool, picks):
        # Picks draw from a small pool, so chunks repeat within and
        # across calls, and "" glues markers to their neighbours.
        body = "".join(pool[i % len(pool)] + sep for i, sep in picks)
        assert text.tokenize(body) == loop_tokenize(body)
        assert text.tokenize(body) == loop_tokenize(body)

    def test_memo_cap_starts_afresh(self, monkeypatch):
        monkeypatch.setattr(text, "_CHUNKS_KEPT", 2)
        monkeypatch.setattr(text, "_chunks", {})
        body = "Foo.bar(x) [NEXT] İx foo ΣΑς a[NEXT] Foo.bar(x) [next] x ΣΑς"
        for _ in range(3):
            assert text.tokenize(body) == loop_tokenize(body)
            assert len(text._chunks) <= 2

    @pytest.mark.parametrize("body", ["Foo.bar", "Foo.bar x", "[NEXT]"])
    def test_returned_lists_are_fresh(self, body):
        want = loop_tokenize(body)
        for _ in range(2):
            got = text.tokenize(body)
            assert got == want
            got.append("y")
            got[0] = "zz"

    @given(words)
    def test_idempotent_on_normalized_text(self, toks):
        normalized = text.detokenize(text.tokenize(" ".join(toks)))
        assert text.tokenize(normalized) == text.detokenize(text.tokenize(normalized)).split()


class TestVocabulary:
    def test_reserved_first(self):
        v = text.Vocabulary()
        assert v.tokens[:5] == text.RESERVED
        assert v.id("<s>") == 0 and v.id("</s>") == 1 and v.id("[PAD]") == 2
        assert v.id("[NEXT]") == 3 and v.id("[UNK]") == 4

    def test_rejects_missing_reserved(self):
        with pytest.raises(ValueError):
            text.Vocabulary(["a", "b"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            text.Vocabulary(list(text.RESERVED) + ["a", "a"])

    def test_open_mode_grows(self):
        v = text.Vocabulary()
        ids = v.encode(["x", "y", "x"], grow=True)
        assert ids == [5, 6, 5]
        assert v.decode(ids) == ["x", "y", "x"]

    def test_closed_mode_maps_unknown_to_unk(self):
        v = text.Vocabulary()
        v.add("x")
        assert v.encode(["x", "zzz"]) == [5, text.UNK_ID]

    def test_bijection(self):
        v = text.Vocabulary()
        for t in ["alpha", "beta", "gamma"]:
            v.add(t)
        for i, tok in enumerate(v.tokens):
            assert v.id(tok) == i
            assert v.token(i) == tok

    def test_save_load_roundtrip(self, tmp_path):
        v = text.Vocabulary()
        v.encode(["how", "to", "?", "x1"], grow=True)
        loaded = model_file_vocabulary(v, tmp_path / "model.bin")
        assert loaded == v
        assert loaded.tokens[:5] == text.RESERVED
        assert loaded.id("how") == v.id("how")

    @pytest.mark.parametrize(
        "sep",
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    )
    def test_roundtrip_keeps_ids_of_tokens_splitlines_would_split(self, tmp_path, sep):
        v = text.Vocabulary()
        v.encode(["a", f"c{sep}d", sep, "z", ""], grow=True)
        loaded = model_file_vocabulary(v, tmp_path / "model.bin")
        assert loaded == v
        assert loaded.id("z") == v.id("z")


def model_file_vocabulary(vocab, path):
    """``vocab`` written and read back in the model file's header, its one
    on-disk form."""
    train_ngram_lm([([], [len(vocab) - 1])], order=2, vocab=vocab).save(path)
    return NGramLM.load(path).vocabulary


class TestStripMarkers:
    def test_strips_all_reserved(self):
        toks = ["<s>", "a", "[NEXT]", "b", "</s>", "[PAD]", "[UNK]"]
        assert text.strip_markers(toks) == ["a", "b"]

    def test_plain_tokens_untouched(self):
        assert text.strip_markers(["a", "b"]) == ["a", "b"]
