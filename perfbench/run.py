#!/usr/bin/env python3
"""titlegen pipeline benchmark.

Usage:
    python3 perfbench/run.py --workload {sample_rank,beam,ingest_retrieve}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Workloads (one closed-loop client, one process, no threads):

* ``sample_rank``: generate with nucleus sampling (top_p 0.8, T 1.0,
  M 200) -> rank (mmns, K 3) -> evaluate (K 1,3,5), 4 test posts a
  round, the first 6 rounds scored. Exercises the sampling kernel and
  the model's reads; beam search and retrieval are bypassed.
* ``beam``: generate --strategy beam (width 3, max length 16) -> rank
  --strategy rns -> evaluate, 4 posts a round, the first 6 rounds
  scored. Exercises beam expansion; the sampling kernel is bypassed.
* ``ingest_retrieve``: prepare -> train-lm -> retrieve --train ->
  evaluate over the whole corpus a round, the first round scored.
  Exercises filtering, splitting, JSONL writing, model counting, index
  build and BM25 queries; decoding and ranking are bypassed.

Inputs come from a synthetic corpus made from ``--seed`` (see
``corpus.py``); the program sees only the generated files. Set-up
(corpus synthesis, and for the first two workloads ``prepare`` and
``train-lm``) runs five times and its median is ``setup_s``. The timed
phase runs in a child process (``timed.py``) whose peak RSS is
``peak_rss_mb``. Every round's outputs are checked; a post whose output
fails a check counts as failed.

``setup_s`` and ``posts_per_s`` are rescaled to a reference host speed:
a fixed probe task (``common.probe``) is timed before and after each
set-up and after each timed stage, and the figures are divided by the
probe's mean slowdown against ``common.PROBE_REF_S``. On a shared host
a thread's speed drifts by up to 2x within minutes; the raw figures are
in the run record as ``raw_setup_s`` and ``raw_posts_per_s``.

With ``--trace 0`` the result line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run (see
``tracing.py``), including the tracing overhead. The last stdout line
is the JSON result; the line before it is the full run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

import numpy as np

import common

DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "posts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rougeL_at_3": "score",
    "pairwise_relevance_at_3": "cosine",
}

PER_LAYER = {
    "kernels.sample_step.calls": "count",
    "kernels.sample_step.s": "s",
    "kernels.sample_step.bytes_per_call": "bytes",
    "decode.steps": "count",
    "decode.decode_candidates.self_s": "s",
    "decode.beam_search.self_s": "s",
    "decode.beam_search.lm_calls": "count",
    "decode.distinct_share": "share",
    "decode.capped_share": "share",
    "rank.maximal_marginal_select.s": "s",
    "rank.relevance.calls": "count",
    "rank.relevance.s": "s",
    "rank.short_pools": "count",
    "retrieve.query.calls": "count",
    "retrieve.query.s": "s",
    "retrieve.postings_scanned": "count",
    "retrieve.build_index.s": "s",
    "lm.next_distribution.calls": "count",
    "lm.next_distribution.s": "s",
    "lm.load.s": "s",
    "lm.train.s": "s",
    "metrics.build_report.s": "s",
    "kernels.lcs_length.calls": "count",
    "kernels.lcs_length.s": "s",
    "data.chronological_split.s": "s",
    "data.kept_share": "share",
    "records.skipped": "count",
    "records.read_jsonl.s": "s",
    "records.write_jsonl.s": "s",
    "text.tokenize.calls": "count",
    "text.tokenize.s": "s",
    "cli.prepare.s": "s",
    "cli.train_lm.s": "s",
    "cli.generate.s": "s",
    "cli.rank.s": "s",
    "cli.retrieve.s": "s",
    "cli.evaluate.s": "s",
    "trace.overhead_share": "share",
}

#: Layer expected to hold the most self time on each workload.
PREDICTED_DOMINANT = {
    "sample_rank": "kernels.sample_step",
    "beam": "decode.beam_search",
    "ingest_retrieve": "retrieve.query",
}

#: Bytes one fused sampling step moves over a V-entry float64 vector:
#: temperature copy (read + write), negation for the sort (read +
#: write), argsort (read values, write int64 order), zeroed output
#: (write), inverse-CDF scan (read) = 8 passes of 8 bytes.
SAMPLE_STEP_BYTES_PER_ENTRY = 64


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="titlegen pipeline benchmark")
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the self-test's small corpus")
    return p.parse_args(argv)


def sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Run:
    """One benchmark invocation: set-up, timed child, checks, report."""

    def __init__(self, args: argparse.Namespace, titlegen):
        self.args = args
        self.tg = titlegen
        self.w = common.workload(args.workload, args.size)
        self.work = common.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None

    # -- set-up --------------------------------------------------------------

    def call(self, stage: str, argv: list[str]) -> int:
        from titlegen import cli

        if self.tracer is None:
            return cli.main(argv)
        return self.tracer.span(f"cli.{stage}", cli.main, argv)

    def setup_once(self, rep_dir: Path) -> dict:
        import corpus

        t0 = perf_counter()
        rep_dir.mkdir(parents=True)
        info = corpus.synthesize(self.w.corpus_posts, self.w.corpus_topics, self.args.seed,
                                 rep_dir / "raw.jsonl")
        stages = []
        for stage, argv in common.setup_chain(self.w, self.args.seed, rep_dir):
            t = perf_counter()
            rc = self.call(stage, argv)
            stages.append([stage, rc, perf_counter() - t])
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                raise SystemExit(f"perfbench: set-up stage {stage} exited {rc}")
        chunks = self.write_chunks(rep_dir) if self.w.chunk else []
        return {"s": perf_counter() - t0, "corpus": info.to_dict(), "stages": stages,
                "chunks": chunks}

    def write_chunks(self, rep_dir: Path) -> list[dict]:
        lines = (rep_dir / "splits" / "test.jsonl").read_text(encoding="utf-8").splitlines()
        chunks = []
        for i in range(len(lines) // self.w.chunk):
            part = lines[i * self.w.chunk : (i + 1) * self.w.chunk]
            path = rep_dir / f"chunk{i}.jsonl"
            path.write_text("\n".join(part) + "\n", encoding="utf-8")
            chunks.append({"path": str(path), "ids": [json.loads(x)["id"] for x in part]})
        if not chunks:
            raise SystemExit("perfbench: test split smaller than one chunk")
        return chunks

    # -- timed phase -----------------------------------------------------------

    def run_timed(self, live: Path, chunks: list[dict]) -> dict:
        spec = {
            "workload": self.w.to_dict(),
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "work": str(live),
            "chunks": [c["path"] for c in chunks],
            "result": str(live / "result.json"),
        }
        spec_path = live / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = max(10.0, DEADLINE_S - (perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("timed.py")), str(spec_path)],
                stdout=sys.stderr, timeout=budget, check=False,
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: timed phase passed its {budget:.0f} s budget")
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: timed phase exited {proc.returncode}")
        return json.loads((live / "result.json").read_text(encoding="utf-8"))

    # -- checks ----------------------------------------------------------------

    def round_ids(self, i: int, round_dir: Path, chunks: list[dict], corpus: dict) -> list:
        if chunks:
            return chunks[i % len(chunks)]["ids"]
        test = round_dir / "splits" / "test.jsonl"
        if test.is_file():
            from titlegen.records import read_posts

            return [p.id for p in read_posts(test)]
        spec = self.tg.SplitSpec(val_count=self.w.val_count, test_count=self.w.test_count)
        n = sum(spec.resolve(lang, c)[1] for lang, c in corpus["kept_by_language"].items())
        return list(range(-n, 0))  # placeholders: the round's posts all failed

    def check_round(self, i: int, round_dir: Path, rnd: dict, chunks, corpus, model) -> int:
        """Count the round's operations; return its number of posts."""
        import checks

        w = self.w
        ids = self.round_ids(i, round_dir, chunks, corpus)
        completed = len(rnd["stages"]) == len(common.chain(w, 0, round_dir, round_dir, None))
        completed &= all(rc == 0 for _, rc, _ in rnd["stages"])
        bad: set = set()
        if w.name == "ingest_retrieve":
            one_off = [s for s in rnd["stages"] if s[0] in ("prepare", "train_lm")]
            self.attempted += 2
            self.failed += 2 - sum(1 for _, rc, _ in one_off if rc == 0)
            issues = checks.check_manifest(round_dir / "splits" / "manifest.json", corpus)
            if issues and one_off and one_off[0][1] == 0:
                self.failed += 1
            self.problems += [f"{round_dir.name}: {m}" for m in issues]
            if completed:
                retrieved = round_dir / "retrieved.jsonl"
                bad |= checks.check_retrieved(retrieved, ids, w.retrieve_k)
                bad |= checks.check_report(round_dir / "report.json", ids, self.sweep)
                if i == 0:
                    queries = 5 if self.args.size == "full" else 2
                    bad |= checks.check_bm25_exhaustive(
                        round_dir / "splits" / "train.jsonl", round_dir / "splits" / "test.jsonl",
                        retrieved, w.retrieve_k, queries)
        elif completed:
            pools = round_dir / "pools.jsonl"
            size = w.beam_width if w.name == "beam" else w.num_samples
            strategy = "rns" if w.name == "beam" else "mmns"
            bad |= checks.check_pools(pools, ids, size, w.max_length)
            bad |= checks.check_selections(round_dir / "selected.jsonl", pools, ids, w.k, strategy)
            bad |= checks.check_report(round_dir / "report.json", ids, self.sweep)
            if w.name == "beam":
                bad |= checks.check_beam_order(pools, model, ids, w.max_length)
        if not completed:
            bad = set(ids)
            self.problems.append(f"{round_dir.name}: stages {rnd['stages']}")
        elif bad:
            self.problems.append(f"{round_dir.name}: checks failed for posts {sorted(bad)}")
        self.attempted += len(ids)
        self.failed += len(bad)
        return len(ids)

    # -- figures ---------------------------------------------------------------

    def quality(self, live: Path, n_rounds: int) -> dict:
        from titlegen.rank import mean_pairwise_relevance
        from titlegen.records import read_jsonl
        from titlegen.text import tokenize

        sel_name = "retrieved.jsonl" if self.w.name == "ingest_retrieve" else "selected.jsonl"
        per = {"1": [], "3": []}
        relevance = []
        for i in range(n_rounds):
            rd = live / f"round{i}"
            if not (rd / "report.json").is_file():
                continue  # a failed round: its posts already count as failed
            report = json.loads((rd / "report.json").read_text(encoding="utf-8"))
            for k in per:
                per[k] += report["per_example"][k]
            for row in read_jsonl(rd / sel_name):
                relevance.append(mean_pairwise_relevance([tokenize(t) for t in row["titles"][:3]]))

        def mean(values):
            values = list(values)
            return statistics.fmean(values) if values else 0.0

        return {
            "bleus4_at_1": mean(e["bleus4"] for e in per["1"]),
            "bleus4_at_3": mean(e["bleus4"] for e in per["3"]),
            "rougeL_at_3": mean(e["rougeL"] for e in per["3"]),
            "pairwise_relevance_at_3": mean(relevance),
            "scored_posts": len(relevance),
        }

    def pool_stats(self, dirs: list[Path]) -> dict:
        from titlegen.records import read_jsonl

        steps = cands = distinct = capped = short = 0
        for rd in dirs:
            if not (rd / "pools.jsonl").is_file():
                continue
            for row in read_jsonl(rd / "pools.jsonl"):
                c = row["candidates"]
                cands += len(c)
                distinct += len({tuple(x) for x in c})
                capped += sum(len(x) >= self.w.max_length for x in c)
                # A sampled row takes one step per token, plus one that
                # draws END unless the row hit max_length.
                steps += sum(len(x) + (len(x) < self.w.max_length) for x in c)
            for row in read_jsonl(rd / "selected.jsonl"):
                short += len(row["indices"]) < self.w.k
        is_sampling = self.w.name == "sample_rank"
        return {
            "decode.steps": steps if is_sampling else 0,
            "decode.distinct_share": distinct / cands if cands else 0.0,
            "decode.capped_share": capped / cands if cands else 0.0,
            "rank.short_pools": short,
        }

    def per_layer(self, span_files: list[Path], traced_dirs: list[Path], overhead: float,
                  vocab_size: int, manifest: Path) -> tuple[dict, dict]:
        import tracing

        spans, counts = [], {}
        for path in span_files:
            payload = json.loads(path.read_text(encoding="utf-8"))
            base = len(spans)
            spans += [[n, s, e, p + base if p >= 0 else -1] for n, s, e, p in payload["spans"]]
            for key, v in payload["counts"].items():
                counts[key] = counts.get(key, 0) + v
        summary = tracing.summarize(spans)

        def get(name, field="s"):
            return summary.get(name, {}).get(field, 0)

        m = {}
        for layer in ("kernels.sample_step", "rank.relevance", "retrieve.query",
                      "lm.next_distribution", "kernels.lcs_length", "text.tokenize"):
            m[f"{layer}.calls"] = get(layer, "calls")
            m[f"{layer}.s"] = get(layer)
        for layer in ("rank.maximal_marginal_select", "retrieve.build_index", "lm.load",
                      "lm.train", "metrics.build_report", "data.chronological_split",
                      "records.read_jsonl", "records.write_jsonl", "cli.prepare",
                      "cli.train_lm", "cli.generate", "cli.rank", "cli.retrieve",
                      "cli.evaluate"):
            m[f"{layer}.s"] = get(layer)
        m["kernels.sample_step.bytes_per_call"] = (
            SAMPLE_STEP_BYTES_PER_ENTRY * vocab_size if m["kernels.sample_step.calls"] else 0
        )
        m["decode.decode_candidates.self_s"] = get("decode.decode_candidates", "self_s")
        m["decode.beam_search.self_s"] = get("decode.beam_search", "self_s")
        m["decode.beam_search.lm_calls"] = (
            summary.get("lm.next_distribution", {}).get("under", {}).get("decode.beam_search", 0)
        )
        m["retrieve.postings_scanned"] = counts.get("retrieve.postings_scanned", 0)
        m["records.skipped"] = counts.get("records.skipped", 0)
        mf = json.loads(manifest.read_text(encoding="utf-8"))
        m["data.kept_share"] = mf["filtered_posts"] / mf["records_read"]
        m.update(self.pool_stats(traced_dirs))
        m["trace.overhead_share"] = overhead
        if self.w.name == "sample_rank" and m["decode.steps"] != m["kernels.sample_step.calls"]:
            self.problems.append(
                f"decode.steps {m['decode.steps']} != sample_step calls "
                f"{m['kernels.sample_step.calls']}"
            )
        layers = {n: e["self_s"] for n, e in summary.items() if not n.startswith("cli.")}
        dominant = max(layers, key=layers.get)
        stage_total = sum(e["s"] for n, e in summary.items() if n.startswith("cli."))
        return m, {
            "dominant_layer": dominant,
            "dominant_self_share": layers[dominant] / stage_total if stage_total else 0.0,
            "predicted": PREDICTED_DOMINANT[self.w.name],
            "confirmed": dominant == PREDICTED_DOMINANT[self.w.name],
            "self_s_by_layer": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        }

    # -- main ------------------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        import tracing
        from titlegen.lm import NGramLM

        w, args = self.w, self.args
        self.sweep = [int(k) for k in w.k_sweep.split(",")]
        traced = bool(args.trace)
        reps = 1 if traced else w.setup_reps
        setups = []
        setup_probes = [common.probe()]
        for rep in range(reps):
            if traced:
                self.tracer = tracing.Tracer()
                tracing.install(self.tracer)
            try:
                setups.append(self.setup_once(self.work / f"setup{rep}"))
            finally:
                if self.tracer is not None:
                    self.tracer.restore()
            setup_probes.append(common.probe())
        live = self.work / f"setup{reps - 1}"
        corpus = setups[-1]["corpus"]
        chunks = setups[-1]["chunks"]
        if w.name != "ingest_retrieve":
            import checks

            issues = checks.check_manifest(live / "splits" / "manifest.json", corpus)
            self.failed += bool(issues)
            self.problems += [f"set-up: {m}" for m in issues]
        if self.tracer is not None:
            self.tracer.dump(live / "spans-setup.json")

        result = self.run_timed(live, chunks)
        rounds = result["rounds"]
        model_path = live / ("round0/model.json" if w.name == "ingest_retrieve" else "model.json")
        model = NGramLM.load(model_path) if model_path.is_file() else None

        posts = [self.check_round(i, live / f"round{i}", r, chunks, corpus, model)
                 for i, r in enumerate(rounds)]
        for i, r in enumerate(result["traced_rounds"]):
            self.check_round(i, live / f"traced{i}", r, chunks, corpus, model)

        kinds = common.artifacts(w)
        q_rounds = range(w.quality_rounds)
        digests = {kind: sha256_files([live / f"round{i}" / name for i in q_rounds])
                   for kind, name in kinds.items()}
        # Rounds over the same inputs must write the same bytes.
        same = [(f"round{i}", f"traced{i}") for i in range(len(result["traced_rounds"]))]
        if w.name == "ingest_retrieve":
            same += [("round0", f"round{i}") for i in range(1, len(rounds))]
        for first, again in same:
            for name in kinds.values():
                if sha256_files([live / first / name]) != sha256_files([live / again / name]):
                    self.problems.append(f"{again}/{name} differs from {first}/{name}")

        stage_s: dict[str, float] = {}
        for r in rounds:
            for stage, _, s in r["stages"]:
                stage_s[f"cli.{stage}.s"] = stage_s.get(f"cli.{stage}.s", 0.0) + s
        record = {
            "workload": w.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": {
                "backend": self.tg.BACKEND,
                "numba_importable": find_spec("numba") is not None,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
            },
            "params": {**w.to_dict(), "seed": args.seed, "size": args.size,
                       "vocabulary": len(model.vocabulary) if model else None,
                       "corpus_vocabulary": corpus["vocabulary"]},
            "corpus": corpus,
            "corpus_sha256": sha256_files([live / "raw.jsonl"]),
            "setup_reps_s": [s["s"] for s in setups],
            "setup_probes_s": setup_probes,
            "round_probes_s": result["probes"],
            "setup_stages": setups[-1]["stages"],
            "rounds": len(rounds),
            "round_posts": posts,
            "round_wall_s": [r["wall"] for r in rounds],
            "cli_stage_s": stage_s,
            "digests": digests,
            "quality": self.quality(live, w.quality_rounds),
        }
        if traced:
            untraced_s = sum(r["wall"] for r in rounds)
            traced_s = sum(r["wall"] for r in result["traced_rounds"])
            manifest = live / ("round0" if w.name == "ingest_retrieve" else "") / "splits" / "manifest.json"
            metrics, layers = self.per_layer(
                [live / "spans-setup.json", Path(result["spans"])],
                [live / f"traced{i}" for i in range(len(result["traced_rounds"]))],
                traced_s / untraced_s - 1.0,
                len(model.vocabulary) if model else 0,
                manifest,
            )
            record["layers"] = layers
            units = PER_LAYER
        else:
            q = record["quality"]
            raw_setup = statistics.median(record["setup_reps_s"])
            raw_rate = sum(posts) / sum(record["round_wall_s"])
            # Rescale to the reference host speed: divide out the probe's
            # slowdown, averaged over the probes taken around the interval.
            record["raw_setup_s"] = raw_setup
            record["raw_posts_per_s"] = raw_rate
            metrics = {
                "setup_s": raw_setup * common.PROBE_REF_S / statistics.fmean(setup_probes),
                "posts_per_s": raw_rate * statistics.fmean(result["probes"]) / common.PROBE_REF_S,
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                "rougeL_at_3": q["rougeL_at_3"],
                "pairwise_relevance_at_3": q["pairwise_relevance_at_3"],
            }
            units = END_TO_END
        record["attempted"] = self.attempted
        record["failed"] = self.failed
        record["failed_share"] = self.failed / self.attempted
        record["problems"] = self.problems
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
        return record, out


def print_report(record: dict, metrics: dict) -> None:
    env, p = record["env"], record["params"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("params: " + " ".join(f"{k}={v}" for k, v in p.items()))
    rows = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    q = record["quality"]
    if not record["trace"]:
        # Printed, but kept out of the result line: the raw timings drift
        # with the host's speed; BLEU over 24 sampled posts varies by about
        # a quarter from seed to seed; the last two read 0 on correct code
        # (the top beam is the empty title; nothing fails).
        rows += [("raw_setup_s", record["raw_setup_s"], "s", "(record only)"),
                 ("raw_posts_per_s", record["raw_posts_per_s"], "1/s", "(record only)"),
                 ("bleus4_at_3", q["bleus4_at_3"], "score", "(record only)"),
                 ("bleus4_at_1", q["bleus4_at_1"], "score", "(record only)"),
                 ("failed_share", record["failed_share"], "share", "(record only)")]
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    print(f"  quality scored over {q['scored_posts']} posts")
    if "layers" in record:
        lay = record["layers"]
        print(f"  dominant layer by self time: {lay['dominant_layer']} "
              f"({lay['dominant_self_share']:.1%} of stage time); predicted "
              f"{lay['predicted']}: {'confirmed' if lay['confirmed'] else 'NOT confirmed'}")
    print(f"  attempted={record['attempted']} failed={record['failed']}")
    print("  digests: " + " ".join(f"{k}={v[:12]}" for k, v in record["digests"].items()))
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    titlegen = common.import_titlegen()
    run = Run(args, titlegen)
    try:
        record, metrics = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    print_report(record, metrics)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = record["failed"] == 0 and not record["problems"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
