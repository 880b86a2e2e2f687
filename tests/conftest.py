"""Shared fixtures: toy corpora, a non-n-gram generator for contract
tests, and corpus file builders for the CLI tests."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import titlegen as tg
from titlegen.text import PAD_ID, START_ID

from .oracles import stable_rng

# Under CI a failing property test also prints the blob that
# ``@reproduce_failure`` replays. Every other setting is the active
# profile's, so nothing else about a CI run changes.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

NUM_TOPICS = 10
#: Variant sampling weights per topic: "a" is the majority phrasing.
VARIANTS = (("a", 10), ("b", 7), ("c", 4))


def topic_title(topic: int, variant: str) -> list[str]:
    return [f"t{topic}{variant}{j}" for j in range(6)]


def topic_code(topic: int) -> list[str]:
    # The key token sits last so an order-4 context window reaches it
    # from the first title position.
    return ["fn", "call", f"k{topic}"]


def build_toy_model(order: int = 4):
    """Train the shared toy generator; returns (model, vocab)."""
    vocab = tg.Vocabulary()
    pairs = []
    for topic in range(NUM_TOPICS):
        for variant, reps in VARIANTS:
            code = vocab.encode(topic_code(topic), grow=True)
            title = vocab.encode(topic_title(topic, variant), grow=True)
            pairs.extend((code, title) for _ in range(reps))
    return tg.train_ngram_lm(pairs, order=order, vocab=vocab), vocab


@pytest.fixture(scope="session")
def toy_model():
    model, _ = build_toy_model()
    return model


class DummyModel(tg.GeneratorModel):
    """Deterministic pseudo-random generator for contract and oracle
    tests; its conditionals are arbitrary, unlike an n-gram model's."""

    def __init__(self, vocab_size: int, seed: int):
        if vocab_size < len(tg.RESERVED):
            raise ValueError("vocab must fit the reserved markers")
        extra = [f"w{i}" for i in range(vocab_size - len(tg.RESERVED))]
        self._vocab = tg.Vocabulary(list(tg.RESERVED) + extra)
        self._seed = seed

    @property
    def vocabulary(self) -> tg.Vocabulary:
        return self._vocab

    def next_distribution(self, code, prefix) -> np.ndarray:
        rng = stable_rng("dummy", self._seed, tuple(code), tuple(prefix))
        out = rng.random(len(self._vocab)) + 0.05
        out[PAD_ID] = 0.0
        out[START_ID] = 0.0
        return out / out.sum()


@pytest.fixture
def dummy_model():
    return DummyModel(vocab_size=6, seed=0)


def raw_post(pid: int, **overrides) -> dict:
    row = {
        "id": pid,
        "title": f"how to fix thing {pid}",
        "code_snippets": [f"x = {pid}"],
        "created_at": f"2021-01-01T00:{pid // 60:02d}:{pid % 60:02d}",
        "is_closed": False,
        "has_accepted_answer": True,
        "votes": 3,
        "language": "python",
    }
    row.update(overrides)
    return row


#: Posts from :func:`audit_posts` that survive all four quality filters.
AUDIT_KEPT_IDS = (1, 7, 9, 11)


def audit_posts() -> list[dict]:
    """Twelve posts covering every filter condition and their combos."""
    return [
        raw_post(1, votes=2),
        raw_post(2, is_closed=True, votes=9),
        raw_post(3, has_accepted_answer=False, votes=9),
        raw_post(4, votes=1),
        raw_post(5, votes=0),
        raw_post(6, code_snippets=[]),
        raw_post(7, votes=5, code_snippets=["a = 1", "b = 2"]),
        raw_post(8, is_closed=True, votes=1),
        raw_post(9, language="java"),
        raw_post(10, has_accepted_answer=False, code_snippets=[]),
        raw_post(11, votes=2, code_snippets=["if x:\n    y()\n"]),
        raw_post(
            12,
            is_closed=True,
            has_accepted_answer=False,
            votes=0,
            code_snippets=[],
        ),
    ]


def write_raw_corpus(path: Path, num_languages: int = 2) -> list[dict]:
    """Toy-topic posts ready for the full CLI pipeline.

    All posts pass the quality filters; timestamps increase with id so
    the chronological split is exercised for real.
    """
    rows = []
    pid = 0
    for rounds in range(3):
        for topic in range(NUM_TOPICS):
            for variant, reps in VARIANTS:
                for _ in range(reps):
                    pid += 1
                    rows.append(
                        raw_post(
                            pid,
                            title=" ".join(topic_title(topic, variant)),
                            code_snippets=[" ".join(topic_code(topic))],
                            created_at=f"2021-{1 + rounds:02d}-{1 + pid % 27:02d}"
                            f"T{pid % 24:02d}:{pid % 60:02d}:00",
                            language=("python", "java")[topic % num_languages],
                        )
                    )
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return rows


@pytest.fixture
def raw_corpus(tmp_path):
    path = tmp_path / "raw.jsonl"
    write_raw_corpus(path)
    return path
