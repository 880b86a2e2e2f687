"""Workload definitions and the CLI stage chains shared by ``run.py``
(set-up, checks, report) and ``timed.py`` (the timed phase).

Each workload is one closed-loop client in one process: a round sends a
chunk of test posts through the real CLI stages, in process via
``titlegen.cli.main``, one stage after the other, and the next round
starts only when the previous one has finished.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sample_rank", "beam", "ingest_retrieve")

#: Seconds ``probe`` takes on a quiet 2-vCPU Xeon VM at 2.0 GHz. Timings
#: are rescaled by PROBE_REF_S / (probe time measured around them), so
#: only the ratio matters; the constant just keeps figures in seconds.
PROBE_REF_S = 0.1


def probe() -> float:
    """Time a fixed task made of the pipeline's kinds of work: tuple
    building and sorting, dict counting, numpy sorts over a
    vocabulary-sized vector, and JSON round trips.

    On a shared host the speed a single thread gets drifts by up to 2x
    within minutes; timing this probe around each measured interval and
    dividing it out removes most of that drift from the figures.
    """
    start = perf_counter()
    counts: dict[int, int] = {}
    items = [(float(i % 977) * 0.5, (i, i + 1)) for i in range(5000)]
    for _ in range(15):
        ranked = sorted(items, key=lambda e: (-e[0], e[1]))
        for _, (a, _) in ranked:
            counts[a % 501] = counts.get(a % 501, 0) + 1
    probs = np.random.default_rng(0).random(8000)
    for _ in range(30):
        np.argsort(-probs, kind="mergesort")
    for _ in range(15):
        json.loads(json.dumps(items[:1000]))
    return perf_counter() - start


def import_titlegen():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "titlegen" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no titlegen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import titlegen

    if Path(titlegen.__file__).resolve().parent != (SRC / "titlegen").resolve():
        raise SystemExit(f"perfbench: titlegen imported from {titlegen.__file__}, not {SRC}")
    return titlegen


@dataclass(frozen=True)
class Workload:
    """Every parameter a run of one workload depends on (besides the seed).

    ``chunk`` posts go through the stage chain per round; the first
    ``quality_rounds`` rounds always run and are the ones scored, so the
    quality figures and artifact digests do not depend on timing.
    """

    name: str
    corpus_posts: int
    corpus_topics: int
    val_count: int
    test_count: int
    chunk: int
    quality_rounds: int
    setup_reps: int
    num_samples: int = 200
    k: int = 3
    k_sweep: str = "1,3,5"
    top_p: float = 0.8
    temperature: float = 1.0
    max_length: int = 48
    beam_width: int = 0
    retrieve_k: int = 5

    def to_dict(self) -> dict:
        return asdict(self)


def workload(name: str, size: str) -> Workload:
    """The benchmark's fixed parameters; ``tiny`` is the self-test size."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    full = size == "full"
    common = dict(
        name=name,
        corpus_posts=6000 if full else 400,
        corpus_topics=150 if full else 20,
        val_count=50 if full else 5,
        test_count=100 if full else 5,
        setup_reps=5 if full else 1,
    )
    if name == "sample_rank":
        return Workload(
            chunk=4 if full else 2,
            quality_rounds=6 if full else 1,
            num_samples=200 if full else 20,
            **common,
        )
    if name == "beam":
        # Synthetic titles have at most 8 tokens and the top beams are
        # shorter still, so a 16-token cap returns the same beams as the
        # CLI default of 48 while letting a run score enough posts.
        return Workload(
            chunk=4 if full else 1,
            quality_rounds=6 if full else 1,
            beam_width=3,
            max_length=16,
            **common,
        )
    return Workload(chunk=0, quality_rounds=1, **common)


def _ingest(w: Workload, seed: int, raw: Path, out: Path):
    """``prepare`` then ``train-lm``, writing ``out/splits`` and ``out/model.json``."""
    return [
        ("prepare", ["prepare", "--input", str(raw), "--out-dir", str(out / "splits"),
                     "--val-count", str(w.val_count), "--test-count", str(w.test_count),
                     "--seed", str(seed)]),
        ("train_lm", ["train-lm", "--train", str(out / "splits" / "train.jsonl"),
                      "--out", str(out / "model.json")]),
    ]


def chain(w: Workload, seed: int, work: Path, round_dir: Path, chunk_file: Path | None):
    """(stage, argv) pairs of one round; stage names follow ``titlegen.cli``."""
    r = round_dir
    if w.name == "ingest_retrieve":
        return _ingest(w, seed, work / "raw.jsonl", r) + [
            ("retrieve", ["retrieve", "--input", str(r / "splits" / "test.jsonl"),
                          "--train", str(r / "splits" / "train.jsonl"),
                          "--out", str(r / "retrieved.jsonl"), "--k", str(w.retrieve_k)]),
            ("evaluate", ["evaluate", "--selections", str(r / "retrieved.jsonl"),
                          "--out", str(r / "report.json"), "--k-sweep", w.k_sweep]),
        ]
    generate = ["generate", "--model", str(work / "model.json"), "--input", str(chunk_file),
                "--out", str(r / "pools.jsonl"), "--max-length", str(w.max_length),
                "--seed", str(seed)]
    if w.name == "beam":
        generate += ["--strategy", "beam", "--beam-size", str(w.beam_width)]
        strategy = "rns"
    else:
        generate += ["--num-samples", str(w.num_samples), "--top-p", str(w.top_p),
                     "--temperature", str(w.temperature)]
        strategy = "mmns"
    return [
        ("generate", generate),
        ("rank", ["rank", "--pools", str(r / "pools.jsonl"), "--out", str(r / "selected.jsonl"),
                  "--k", str(w.k), "--strategy", strategy]),
        ("evaluate", ["evaluate", "--selections", str(r / "selected.jsonl"),
                      "--out", str(r / "report.json"), "--k-sweep", w.k_sweep]),
    ]


def setup_chain(w: Workload, seed: int, work: Path):
    """Stages that run before the timed phase (none for ingest_retrieve)."""
    if w.name == "ingest_retrieve":
        return []
    return _ingest(w, seed, work / "raw.jsonl", work)


def artifacts(w: Workload) -> dict[str, str]:
    """Files each round writes, by kind; digested and compared."""
    if w.name == "ingest_retrieve":
        return {"retrieved": "retrieved.jsonl", "report": "report.json",
                "manifest": "splits/manifest.json"}
    return {"pools": "pools.jsonl", "selections": "selected.jsonl", "report": "report.json"}
