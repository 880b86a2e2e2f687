import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import titlegen as tg
from titlegen import cli, records
from titlegen.cli import main as cli_main
from titlegen.text import START_ID, tokenize

from .conftest import raw_post, write_raw_corpus
from .oracles import loop_query, stable_rng
from .test_lm import BAD_MODELS, join_model, make_gapped_model, split_model, write_bad_model
from .test_metrics import per_k_report, random_rows
from .test_retrieve import BAD_INDEXES, write_bad_index


def run(*argv):
    assert cli_main([str(a) for a in argv]) == 0


def fails(*argv):
    return cli_main([str(a) for a in argv]) == 1


def read_rows(path):
    return list(records.read_jsonl(path))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full prepare -> train-lm -> generate -> rank -> evaluate run."""
    mp = pytest.MonkeyPatch()
    mp.delenv("TITLEGEN_SEED", raising=False)
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.jsonl"
    write_raw_corpus(raw)
    splits = root / "splits"
    run(
        "prepare", "--input", raw, "--out-dir", splits,
        "--val-count", 15, "--test-count", 15,
    )
    model = root / "model.bin"
    run("train-lm", "--train", splits / "train.jsonl", "--out", model)
    pools = root / "pools.jsonl"
    run(
        "generate", "--model", model, "--input", splits / "test.jsonl",
        "--out", pools, "--limit", 8, "--num-samples", 30,
        "--max-length", 12, "--temperature", "0.5",
    )
    selections = root / "mmns.jsonl"
    run("rank", "--pools", pools, "--out", selections)
    report = root / "report.json"
    run("evaluate", "--selections", selections, "--out", report)
    yield SimpleNamespace(
        root=root, raw=raw, splits=splits, model=model,
        pools=pools, selections=selections, report=report,
    )
    mp.undo()


class TestPrepare:
    def test_manifest_matches_files(self, pipeline):
        manifest = json.loads((pipeline.splits / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["records_skipped"] == 0
        for name in ("train", "validation", "test"):
            rows = read_rows(pipeline.splits / f"{name}.jsonl")
            assert len(rows) == manifest["totals"][name]
            per_lang = sum(
                manifest["languages"][lang][name] for lang in manifest["languages"]
            )
            assert per_lang == len(rows)
        assert set(manifest["languages"]) == {"python", "java"}

    def test_split_sizes(self, pipeline):
        manifest = json.loads((pipeline.splits / "manifest.json").read_text())
        for lang in ("python", "java"):
            assert manifest["languages"][lang]["validation"] == 15
            assert manifest["languages"][lang]["test"] == 15

    def test_chronological_boundary(self, pipeline):
        train = list(records.read_posts(pipeline.splits / "train.jsonl"))
        held = list(records.read_posts(pipeline.splits / "validation.jsonl"))
        held += list(records.read_posts(pipeline.splits / "test.jsonl"))
        for lang in ("python", "java"):
            newest = max(p.created_at for p in train if p.language == lang)
            assert all(p.created_at >= newest for p in held if p.language == lang)

    def test_language_subdirs(self, pipeline):
        rows = read_rows(pipeline.splits / "python" / "test.jsonl")
        assert rows and all(r["language"] == "python" for r in rows)

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "again"
        run(
            "prepare", "--input", pipeline.raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        for rel in ("train.jsonl", "validation.jsonl", "test.jsonl", "manifest.json"):
            assert (out / rel).read_bytes() == (pipeline.splits / rel).read_bytes()

    def test_seed_counts_modulo_2_64(self, pipeline, tmp_path, monkeypatch):
        # As generate takes it: -1 (a flag) and 2**64 - 1 (the environment)
        # give the same splits, and the manifest records the seed as given.
        argv = ["prepare", "--input", pipeline.raw, "--val-count", 15, "--test-count", 15]
        run(*argv, "--out-dir", tmp_path / "minus", "--seed", -1)
        monkeypatch.setenv("TITLEGEN_SEED", str(2**64 - 1))
        run(*argv, "--out-dir", tmp_path / "top")
        minus, top = tmp_path / "minus", tmp_path / "top"
        files = sorted(path.relative_to(top) for path in top.rglob("*.jsonl"))
        assert len(files) == 9
        for rel in files:
            assert (minus / rel).read_bytes() == (top / rel).read_bytes()
        seeds = [json.loads((d / "manifest.json").read_text())["seed"] for d in (minus, top)]
        assert seeds == [-1, 2**64 - 1]
        # The seed still moves the split.
        assert (top / "test.jsonl").read_bytes() != (pipeline.splits / "test.jsonl").read_bytes()

    def test_language_files_are_the_split_lines_of_that_language(self, pipeline):
        manifest = json.loads((pipeline.splits / "manifest.json").read_text())
        for name in ("train", "validation", "test"):
            lines = (pipeline.splits / f"{name}.jsonl").read_bytes().splitlines(keepends=True)
            for lang in manifest["languages"]:
                want = [line for line in lines if json.loads(line)["language"] == lang]
                assert (pipeline.splits / lang / f"{name}.jsonl").read_bytes() == b"".join(want)

    def test_missing_input_fails_without_output(self, tmp_path):
        out = tmp_path / "nope"
        assert fails("prepare", "--input", tmp_path / "absent.jsonl", "--out-dir", out)
        assert not out.exists()

    def test_failed_rerun_leaves_no_manifest(self, pipeline, tmp_path, monkeypatch, capsys):
        # The manifest is written last, so one that exists marks a
        # complete set of splits; a rerun that fails part-way removes it.
        out = tmp_path / "splits"
        argv = ["prepare", "--input", pipeline.raw, "--out-dir", out,
                "--val-count", 15, "--test-count", 15]
        run(*argv)
        assert (out / "manifest.json").is_file()
        real_write = records.write_lines
        calls = []

        def write_lines(path, lines):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_write(path, lines)

        monkeypatch.setattr(records, "write_lines", write_lines)
        assert fails(*argv)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen prepare: error: disk full"
        assert len(calls) == 2 and not (out / "manifest.json").exists()

    def test_blank_titles_skipped(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        rows = write_raw_corpus(raw)
        with open(raw, "a", encoding="utf-8") as fh:
            for pid, title in ((9001, ""), (9002, " \t ")):
                post = raw_post(pid, title=title, created_at="2021-02-01T00:00:00")
                fh.write(json.dumps(post) + "\n")
        out = tmp_path / "splits"
        run(
            "prepare", "--input", raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records_read"] == len(rows)
        assert manifest["records_skipped"] == 2
        for name in ("train", "validation", "test"):
            assert all(r["title"].strip() for r in read_rows(out / f"{name}.jsonl"))

    @pytest.mark.parametrize(
        "language",
        ["", ".", "../up", "ABSOLUTE", None, "a\\b", "a\x00b"],
        ids=["empty", "dot", "parent", "absolute", "null", "backslash", "nul"],
    )
    def test_language_that_is_no_directory_name_skipped(self, tmp_path, language):
        # ``prepare`` writes each language's splits to a directory of its
        # name, so a language that is a path must not reach it.
        raw = tmp_path / "raw.jsonl"
        rows = write_raw_corpus(raw)
        if language == "ABSOLUTE":
            language = str(tmp_path / "elsewhere")
        with open(raw, "a", encoding="utf-8") as fh:
            for pid in (9001, 9002, 9003):
                post = raw_post(pid, language=language, created_at="2021-02-01T00:00:00")
                fh.write(json.dumps(post) + "\n")
        out = tmp_path / "work" / "splits"
        run(
            "prepare", "--input", raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["records_read"] == len(rows)
        assert manifest["records_skipped"] == 3
        assert set(manifest["languages"]) == {"python", "java"}
        for name in ("train", "validation", "test"):
            assert len(read_rows(out / f"{name}.jsonl")) == manifest["totals"][name]
            for lang, counts in manifest["languages"].items():
                assert len(read_rows(out / lang / f"{name}.jsonl")) == counts[name]
        written = [p for p in tmp_path.rglob("*") if not p.is_dir()]
        assert all(p == raw or out in p.parents for p in written)

    def test_mixed_utc_offsets_fail_without_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_raw_corpus(raw)
        with open(raw, "a", encoding="utf-8") as fh:
            post = raw_post(9001, created_at="2021-02-01T00:00:00+00:00", language="python")
            fh.write(json.dumps(post) + "\n")
        out = tmp_path / "splits"
        assert fails(
            "prepare", "--input", raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            "titlegen prepare: error: language 'python': created_at mixes times"
            " with and without a UTC offset"
        )
        assert not out.exists()
        # A language whose times all carry an offset splits beside naive
        # ones, and keeps its offsets.
        write_raw_corpus(raw)
        with open(raw, "a", encoding="utf-8") as fh:
            post = raw_post(9002, created_at="2021-02-01T00:00:00+02:00", language="rust")
            fh.write(json.dumps(post) + "\n")
        run(
            "prepare", "--input", raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        (rust,) = read_rows(out / "rust" / "train.jsonl")
        assert rust["created_at"] == "2021-02-01T00:00:00+02:00"

    @pytest.mark.parametrize(
        "language", ["train.jsonl", "validation.jsonl", "test.jsonl", "manifest.json"]
    )
    def test_language_named_like_an_output_fails_without_output(
        self, tmp_path, capsys, language
    ):
        raw = tmp_path / "raw.jsonl"
        posts = [raw_post(pid) for pid in range(1, 13)]
        posts += [raw_post(pid, language=language) for pid in range(13, 16)]
        raw.write_text("".join(json.dumps(p) + "\n" for p in posts), encoding="utf-8")
        out = tmp_path / "splits"
        assert fails(
            "prepare", "--input", raw, "--out-dir", out, "--val-count", 2, "--test-count", 2
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"titlegen prepare: error: language {language!r} has the name of one of"
            " prepare's own outputs"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("is_closed", "false"),
            ("votes", 2.9),
            ("votes", True),
            ("title", None),
            ("id", "203"),
        ],
        ids=["closed-string", "votes-float", "votes-bool", "title-null", "id-string"],
    )
    def test_field_of_wrong_type_skipped(self, tmp_path, field, value):
        # A field is read as the JSON type it must have, never coerced:
        # each bad post is skipped and counted, and the splits are those
        # of the corpus without it.
        raw = tmp_path / "raw.jsonl"
        rows = write_raw_corpus(raw)
        argv = ["--val-count", 15, "--test-count", 15]
        run("prepare", "--input", raw, "--out-dir", tmp_path / "clean", *argv)
        with open(raw, "a", encoding="utf-8") as fh:
            for pid in (9001, 9002, 9003):
                post = raw_post(pid, created_at="2021-02-01T00:00:00", **{field: value})
                fh.write(json.dumps(post) + "\n")
        out = tmp_path / "splits"
        run("prepare", "--input", raw, "--out-dir", out, *argv)
        manifest = json.loads((out / "manifest.json").read_text())
        clean = json.loads((tmp_path / "clean" / "manifest.json").read_text())
        assert manifest["records_read"] == len(rows)
        assert manifest["records_skipped"] == 3
        assert manifest["totals"] == clean["totals"]
        assert manifest["filtered_posts"] == len(rows)
        for name in ("train", "validation", "test"):
            assert len(read_rows(out / f"{name}.jsonl")) == manifest["totals"][name]


class TestTrainLm:
    def test_model_loads_and_generates(self, pipeline):
        from titlegen import NGramLM, SamplingConfig, decode_candidates

        model = NGramLM.load(pipeline.model)
        assert model.order == 4
        code = model.vocabulary.encode(["fn", "call", "k0"])
        pool = decode_candidates(model, code, SamplingConfig(num_samples=3, seed=1))
        assert len(pool.candidates) == 3

    def test_loaded_model_survives_retraining_over_its_file(self, pipeline, tmp_path):
        # The model maps its file; train-lm --out renames a new file over
        # it, which leaves the mapped one as it was.
        from titlegen import NGramLM

        path = tmp_path / "model.bin"
        path.write_bytes(pipeline.model.read_bytes())
        loaded = NGramLM.load(path)
        assert all(not a.flags.writeable and not a.flags.owndata for a in loaded._stored)
        vocab = loaded.vocabulary
        states = [
            (vocab.encode(["fn", "call", f"k{t}"]), [START_ID, *vocab.encode(title)])
            for t in range(3)
            for title in ([], [f"t{t}a0"], [f"t{t}b0", f"t{t}b1"])
        ]
        before = [loaded.next_distribution(code, prefix) for code, prefix in states]
        run("train-lm", "--train", pipeline.splits / "test.jsonl", "--out", path, "--order", 2)
        assert path.read_bytes() != pipeline.model.read_bytes()
        for (code, prefix), want in zip(states, before):
            got = loaded.next_distribution(code, prefix)
            assert got.tobytes() == want.tobytes()
        assert [a.tobytes() for lv in loaded.levels for a in lv] == [
            a.tobytes() for lv in NGramLM.load(pipeline.model).levels for a in lv
        ]

    def test_missing_train_fails(self, tmp_path):
        assert fails(
            "train-lm", "--train", tmp_path / "absent.jsonl", "--out", tmp_path / "m.json"
        )
        assert not (tmp_path / "m.json").exists()

    def test_negative_title_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "model.bin"
        assert fails(
            "train-lm", "--train", pipeline.splits / "train.jsonl", "--out", out,
            "--title-limit", -2,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen train-lm: error: --title-limit must be >= 0, got -2"
        assert not out.exists()


class TestGenerate:
    def test_pool_rows(self, pipeline):
        rows = read_rows(pipeline.pools)
        assert len(rows) == 8
        for row in rows:
            assert row["config"]["top_p"] == 0.8  # builtin default
            assert row["config"]["num_samples"] == 30
            # Derived from (run seed, post id), not from the input position.
            assert row["config"]["seed"] == cli._pool_seed(0, row["meta"]["id"])
            assert len(row["candidates"]) == 30
            assert all(len(c) <= 12 for c in row["candidates"])
            assert {"id", "reference", "language"} <= row["meta"].keys()

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "pools.jsonl"
        run(
            "generate", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out,
            "--limit", 8, "--num-samples", 30,
            "--max-length", 12, "--temperature", "0.5",
        )
        assert out.read_bytes() == pipeline.pools.read_bytes()

    def test_defaults_applied_when_flags_omitted(self, pipeline, tmp_path):
        out = tmp_path / "one.jsonl"
        run(
            "generate", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", 1,
        )
        (row,) = read_rows(out)
        assert row["config"]["num_samples"] == 200
        assert row["config"]["max_length"] == 48
        assert len(row["candidates"]) == 200

    def test_beam_strategy(self, pipeline, tmp_path):
        out = tmp_path / "beam.jsonl"
        run(
            "generate", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out,
            "--limit", 2, "--strategy", "beam", "--beam-size", 5,
            "--max-length", 12,
        )
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            strings = row["candidate_strings"]
            assert 1 <= len(strings) <= 5
            assert len(set(strings)) == len(strings)  # beams are distinct
            assert row["config"]["top_p"] == 1.0

    @pytest.mark.parametrize("strategy", ["sample", "beam"])
    def test_verbose_line_reports_the_memo(self, pipeline, tmp_path, caplog, strategy):
        # The counts go to the log line only: the pools keep their bytes.
        flags = {
            "sample": ("--num-samples", 30, "--temperature", "0.5"),
            "beam": ("--strategy", "beam", "--beam-size", 3),
        }[strategy]
        generate = (
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--limit", 8, "--max-length", 12, *flags,
        )
        quiet, verbose = tmp_path / "quiet.jsonl", tmp_path / "verbose.jsonl"
        run(*generate, "--out", quiet)
        caplog.clear()
        with caplog.at_level(logging.INFO):
            run("--verbose", *generate, "--out", verbose)
        assert verbose.read_bytes() == quiet.read_bytes()
        line, done = [r.getMessage() for r in caplog.records if r.name == "titlegen"]
        assert done == f"generate: 8 pools ({strategy})"
        found = re.fullmatch(
            rf"{strategy} memo: (\d+) rows looked up, (\d+) misses computed, (\d+) ids stored",
            line,
        )
        assert found, line
        looked_up, computed, stored = map(int, found.groups())
        assert 0 < computed < looked_up
        if strategy == "beam":
            # Every state is stored, each as its band of 3 and END.
            assert stored == 4 * computed
            return
        # A sampled row looks up one state a step: one per token, and one
        # more for the END it drew unless it stopped at the length cap.
        candidates = [c for row in read_rows(quiet) for c in row["candidates"]]
        assert looked_up == sum(len(c) + (len(c) < 12) for c in candidates)
        # Every state is stored, with at least one id.
        assert stored >= computed

    def test_missing_model_fails(self, pipeline, tmp_path):
        out = tmp_path / "x.jsonl"
        assert fails(
            "generate", "--model", tmp_path / "absent.json",
            "--input", pipeline.splits / "test.jsonl", "--out", out,
        )
        assert not out.exists()

    def test_negative_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", -1,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "--limit must be >= 0, got -1" in line
        assert not out.exists()

    def test_negative_code_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--limit", 1, "--num-samples", 2, "--code-limit", -3,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen generate: error: --code-limit must be >= 0, got -3"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--max-length", 10**12), ("--num-samples", 10**15)])
    def test_unallocatable_pool_fails_without_output(
        self, pipeline, tmp_path, capsys, flag, value
    ):
        # Each block is past any address space, so numpy refuses it at
        # once and nothing is allocated.
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--limit", 2, flag, value,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("titlegen generate: error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("budget", [1, 60, 90])
    def test_groups_and_limit_keep_pool_bytes(self, pipeline, tmp_path, monkeypatch, budget):
        # Posts one by one, in groups of two (the limit cuts the last
        # group short) and of three: the bytes of the fixture's run, which
        # samples its 8 posts as one group. Beam search at width 2 splits
        # its posts the same way, at a budget of 2, 4 and 6 rows.
        def generate(out, limit, *flags):
            run(
                "generate", "--model", pipeline.model,
                "--input", pipeline.splits / "test.jsonl", "--out", out,
                "--limit", limit, "--max-length", 12, *flags,
            )
            return out.read_bytes()

        beam = ("--strategy", "beam", "--beam-size", 2)
        lines = {
            "sample": pipeline.pools.read_bytes().splitlines(keepends=True),
            "beam": generate(tmp_path / "beam.jsonl", 8, *beam).splitlines(keepends=True),
        }
        flags = {"sample": ("--num-samples", 30, "--temperature", "0.5"), "beam": beam}
        per_group = max(1, budget // 30)
        for strategy, rows in (("sample", budget), ("beam", 2 * per_group)):
            monkeypatch.setattr(cli, "_GROUP_ROWS", rows)
            for limit in (8, 5):
                out = tmp_path / f"{strategy}{limit}.jsonl"
                got = generate(out, limit, *flags[strategy])
                assert got == b"".join(lines[strategy][:limit])

    @pytest.mark.parametrize("temperature", ["nan", "0", "-1"])
    def test_bad_temperature_fails_without_output(self, pipeline, tmp_path, capsys, temperature):
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--limit", 1, "--num-samples", 2, "--temperature", temperature,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("titlegen generate: error: temperature must be positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--limit", 0, "--temperature", "nan"], "temperature must be positive, got nan"),
            (
                ["--limit", 1, "--strategy", "beam", "--beam-size", 2, "--temperature", "nan"],
                "temperature must be positive, got nan",
            ),
            (
                ["--limit", 1, "--strategy", "beam", "--beam-size", 2, "--top-p", 7],
                "top_p must be in (0, 1], got 7.0",
            ),
            (
                ["--limit", 0, "--strategy", "beam", "--beam-size", 0],
                "beam_size must be >= 1, got 0",
            ),
        ],
        ids=["no_posts", "beam_nan_temperature", "beam_top_p", "no_posts_beam_size_zero"],
    )
    def test_bad_setting_fails_with_no_sampled_post(
        self, pipeline, tmp_path, capsys, flags, message
    ):
        # The settings are checked before the first post, not only when a
        # post is sampled.
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, *flags,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"titlegen generate: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", ["past_end", -1])
    def test_out_of_range_model_id_fails(self, pipeline, tmp_path, capsys, bad_id):
        # A next-token id outside the vocabulary under the START context,
        # which every sampled row reads at its first step.
        header, arrays = split_model(pipeline.model.read_bytes())
        size = len(header["vocabulary"])
        first = arrays["offsets[1]"][arrays["keys[1]"].index(START_ID)]
        arrays["next_ids"][first] = size if bad_id == "past_end" else bad_id
        model = tmp_path / "model.bin"
        model.write_bytes(join_model(header, arrays))
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--limit", 1, "--num-samples", 2,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "outside the vocabulary" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutate, message", [c[1:] for c in BAD_MODELS], ids=[c[0] for c in BAD_MODELS]
    )
    def test_bad_model_fails_without_output(self, pipeline, tmp_path, capsys, mutate, message):
        model = tmp_path / "model.bin"
        write_bad_model(model, mutate)
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--limit", 1, "--num-samples", 2,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("titlegen generate: error:") and message in line
        assert not out.exists()


class TestRank:
    def test_mmns_rows(self, pipeline):
        rows = read_rows(pipeline.selections)
        assert len(rows) == 8
        for row in rows:
            assert row["strategy"] == "mmns"
            assert 1 <= len(row["titles"]) <= 3
            assert len(row["indices"]) == len(row["titles"])
            assert "initial_consistency" in row["diagnostics"]
            assert {"id", "reference", "language"} <= row.keys()

    def test_titles_come_from_pool(self, pipeline):
        pools = {r["meta"]["id"]: r for r in read_rows(pipeline.pools)}
        for row in read_rows(pipeline.selections):
            pool = pools[row["id"]]
            for idx, title in zip(row["indices"], row["titles"]):
                assert pool["candidate_strings"][idx] == title

    def test_rns_takes_pool_prefix(self, pipeline, tmp_path):
        out = tmp_path / "rns.jsonl"
        run("rank", "--pools", pipeline.pools, "--out", out, "--strategy", "rns", "--k", 3)
        pools = read_rows(pipeline.pools)
        for pool, row in zip(pools, read_rows(out)):
            assert row["strategy"] == "rns"
            assert row["indices"] == [0, 1, 2]
            assert row["titles"] == pool["candidate_strings"][:3]

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "again.jsonl"
        run("rank", "--pools", pipeline.pools, "--out", out)
        assert out.read_bytes() == pipeline.selections.read_bytes()

    @pytest.mark.parametrize("strategy", ["rns", "mmns"])
    @pytest.mark.parametrize("empty", [False, True], ids=["pools", "empty_pools"])
    def test_k_below_one_fails_without_output(
        self, pipeline, tmp_path, capsys, strategy, empty
    ):
        pools = pipeline.pools
        if empty:
            pools = tmp_path / "empty.jsonl"
            pools.write_text("")
        out = tmp_path / "selected.jsonl"
        assert fails("rank", "--pools", pools, "--out", out, "--strategy", strategy, "--k", 0)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "k must be >= 1, got 0" in line
        assert not out.exists()

    def test_non_string_candidates_fail_without_output(self, pipeline, tmp_path, capsys):
        rows = read_rows(pipeline.pools)
        rows[1]["candidates"] = [[7, 8] for _ in rows[1]["candidates"]]
        pools = tmp_path / "pools.jsonl"
        records.write_jsonl(pools, rows)
        out = tmp_path / "selected.jsonl"
        assert fails("rank", "--pools", pools, "--out", out)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "candidate must be a list of token strings" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("config", [], "config must be an object"),
            ("top_p", "high", "config top_p must be a number"),
            ("temperature", None, "config temperature must be a number"),
            ("num_samples", 2.5, "config num_samples must be an integer"),
            ("max_length", "48", "config max_length must be an integer"),
            ("seed", True, "config seed must be an integer"),
            ("meta", ["id", 1], "meta must be an object"),
            ("temperature", float("nan"), "temperature must be positive, got nan"),
        ],
    )
    def test_malformed_pool_metadata_fails_without_output(
        self, pipeline, tmp_path, capsys, field, value, message
    ):
        rows = read_rows(pipeline.pools)
        if field in ("config", "meta"):
            rows[1][field] = value
        else:
            rows[1]["config"][field] = value
        pools = tmp_path / "pools.jsonl"
        records.write_jsonl(pools, rows)
        out = tmp_path / "selected.jsonl"
        assert fails("rank", "--pools", pools, "--out", out)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert message in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "has_id, strategy",
        [(True, "mmns"), (False, "mmns"), (True, "rns"), (False, "rns")],
        ids=["id", "line", "rns-id", "rns-line"],
    )
    def test_empty_pool_named_without_output(self, pipeline, tmp_path, capsys, has_id, strategy):
        rows = read_rows(pipeline.pools)
        rows[2]["candidates"] = []
        if not has_id:
            del rows[2]["meta"]["id"]
        pools = tmp_path / "pools.jsonl"
        lines = [json.dumps(row) for row in rows]
        # A blank line is skipped, so the empty pool is record 3 on line 4.
        pools.write_text("\n".join(lines[:1] + [""] + lines[1:]) + "\n", encoding="utf-8")
        out = tmp_path / "selected.jsonl"
        assert fails("rank", "--pools", pools, "--out", out, "--strategy", strategy)
        (line,) = capsys.readouterr().err.strip().splitlines()
        name = f"pool {rows[2]['meta']['id']}" if has_id else "pool on line 4"
        assert line == f"titlegen rank: error: {name}: empty candidate pool"
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no_config", "missing fields: ['config']"),
            ("no_input", "missing fields: ['input']"),
            ("no_config_seed", "missing config fields: ['seed']"),
            ("too_long", "candidate longer than max_length"),
            ("negative_seed", "seed must be a 64-bit unsigned integer, got -1"),
            ("meta_not_object", "meta must be an object"),
            ("newline_id", "empty candidate pool"),
        ],
    )
    def test_bad_pool_named_without_output(self, pipeline, tmp_path, capsys, case, message):
        rows = read_rows(pipeline.pools)
        row = rows[1]
        name = f"pool {row['meta']['id']}"
        if case == "no_config":
            del row["config"]
        elif case == "no_input":
            del row["input"]
        elif case == "no_config_seed":
            del row["config"]["seed"]
        elif case == "too_long":
            row["config"]["max_length"] = max(map(len, row["candidates"])) - 1
        elif case == "negative_seed":
            row["config"]["seed"] = -1
        elif case == "newline_id":
            # A string id is quoted, so its newline cannot split the line.
            row["meta"]["id"], row["candidates"] = "a\nb", []
            name = "pool 'a\\nb'"
        else:
            row["meta"] = [row["meta"]]
            name = "pool on line 2"
        pools = tmp_path / "pools.jsonl"
        records.write_jsonl(pools, rows)
        out = tmp_path / "selected.jsonl"
        assert fails("rank", "--pools", pools, "--out", out)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"titlegen rank: error: {name}: {message}"
        assert not out.exists()


#: Selection rows ``evaluate`` cannot score: each is skipped and counted.
UNSCORABLE = {
    "string_titles": {"titles": "how to parse json", "reference": "how to parse json"},
    "missing_titles": {"reference": "how to parse json"},
    "empty_titles": {"titles": [], "reference": "how to parse json"},
    "non_string_title": {"titles": ["how to", 3], "reference": "how to parse json"},
    "empty_reference": {"titles": ["how to parse json"], "reference": ""},
    "marker_reference": {"titles": ["how to parse json"], "reference": "</s>"},
    "numeric_reference": {"titles": ["how to parse json"], "reference": 5},
    "list_language": {
        "titles": ["how to parse json"], "reference": "how to parse json", "language": ["x"],
    },
    "numeric_language": {
        "titles": ["how to parse json"], "reference": "how to parse json", "language": 5,
    },
}


class TestEvaluate:
    def test_report_shape(self, pipeline):
        report = json.loads(pipeline.report.read_text())
        assert report["k_sweep"] == [1, 3, 5]
        assert report["num_examples"] == 8
        for k in ("1", "3", "5"):
            assert set(report["aggregate"][k]) == {"bleus4", "rouge1", "rouge2", "rougeL"}
            assert len(report["per_example"][k]) == 8

    def test_aggregate_monotone_in_k(self, pipeline):
        report = json.loads(pipeline.report.read_text())
        for name in ("bleus4", "rouge1", "rouge2", "rougeL"):
            values = [report["aggregate"][k][name] for k in ("1", "3", "5")]
            assert values[0] <= values[1] + 1e-9
            assert values[1] <= values[2] + 1e-9

    def test_group_by_language(self, pipeline, tmp_path):
        out = tmp_path / "by-lang.json"
        run(
            "evaluate", "--selections", pipeline.selections, "--out", out,
            "--group-by-language",
        )
        report = json.loads(out.read_text())
        assert set(report["by_language"]) <= {"python", "java"}
        for tables in report["by_language"].values():
            assert set(tables) == {"1", "3", "5"}

    def test_report_bytes_equal_per_k_reports(self, tmp_path):
        rng = stable_rng("evaluate-sweep")
        rows = []
        for i, (cands, ref) in enumerate(random_rows(rng, 40)):
            titles = [" ".join(c) or "x" for c in cands]
            language = ("python", "java", None)[i % 3]
            rows.append(
                {"id": i, "titles": titles, "reference": " ".join(ref), "language": language}
            )
        selections = tmp_path / "selections.jsonl"
        records.write_jsonl(selections, rows)
        out = tmp_path / "report.json"
        run(
            "evaluate", "--selections", selections, "--out", out,
            "--k-sweep", "1,3,5", "--group-by-language",
        )
        examples = [([tokenize(t) for t in r["titles"]], tokenize(r["reference"])) for r in rows]
        sweep = [1, 3, 5]
        per_k = {k: per_k_report(examples, k, [r["id"] for r in rows]) for k in sweep}
        by_language = {}
        for lang in ("java", "python", "unknown"):
            group = [ex for ex, r in zip(examples, rows) if (r["language"] or "unknown") == lang]
            by_language[lang] = {str(k): per_k_report(group, k).means for k in sweep}
        want = {
            "k_sweep": sweep,
            "num_examples": len(rows),
            "aggregate": {str(k): rep.means for k, rep in per_k.items()},
            "per_example": {str(k): rep.per_example for k, rep in per_k.items()},
            "by_language": by_language,
        }
        records.write_json(tmp_path / "want.json", want)
        assert out.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_references_joined_by_id(self, pipeline, tmp_path):
        stripped = tmp_path / "no-ref.jsonl"
        rows = read_rows(pipeline.selections)
        for row in rows:
            del row["reference"]
        records.write_jsonl(stripped, rows)
        out = tmp_path / "joined.json"
        run(
            "evaluate", "--selections", stripped, "--out", out,
            "--references", pipeline.splits / "test.jsonl",
        )
        assert json.loads(out.read_text()) == json.loads(pipeline.report.read_text())

    def test_missing_reference_fails(self, pipeline, tmp_path):
        bad = tmp_path / "bad.jsonl"
        records.write_jsonl(bad, [{"titles": ["a b"], "id": 123456}])
        out = tmp_path / "r.json"
        assert fails("evaluate", "--selections", bad, "--out", out)
        assert not out.exists()

    def test_unhashable_id_fails_with_one_line(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        records.write_jsonl(bad, [{"titles": ["a b"], "id": [1]}])
        out = tmp_path / "r.json"
        assert fails(
            "evaluate", "--selections", bad, "--out", out,
            "--references", pipeline.splits / "test.jsonl",
        )
        assert not out.exists()
        assert "error: no reference for selection id=[1]" in capsys.readouterr().err

    @pytest.mark.parametrize("row", UNSCORABLE.values(), ids=UNSCORABLE.keys())
    def test_unscorable_row_skipped(self, pipeline, tmp_path, caplog, row):
        rows = read_rows(pipeline.selections)
        mixed = tmp_path / "mixed.jsonl"
        records.write_jsonl(mixed, rows[:4] + [dict(row, id=900)] + rows[4:])
        out = tmp_path / "r.json"
        with caplog.at_level("WARNING", logger="titlegen"):
            run("evaluate", "--selections", mixed, "--out", out)
        assert json.loads(out.read_text()) == json.loads(pipeline.report.read_text())
        assert "skipped 1 selection records" in caplog.text
        # Per-language tables group rows by their language, so they must
        # see the bad row skipped too.
        clean, grouped = tmp_path / "clean.json", tmp_path / "grouped.json"
        for selections, report in ((pipeline.selections, clean), (mixed, grouped)):
            run("evaluate", "--selections", selections, "--out", report, "--group-by-language")
        assert json.loads(grouped.read_text()) == json.loads(clean.read_text())

    @pytest.mark.parametrize("row", UNSCORABLE.values(), ids=UNSCORABLE.keys())
    def test_no_scorable_row_fails_without_output(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.jsonl"
        records.write_jsonl(bad, [row])
        out = tmp_path / "r.json"
        assert fails("evaluate", "--selections", bad, "--out", out)
        assert not out.exists()
        assert "error: no selections to evaluate (1 skipped)" in capsys.readouterr().err

    def test_bad_sweep_fails(self, pipeline, tmp_path):
        assert fails(
            "evaluate", "--selections", pipeline.selections,
            "--out", tmp_path / "r.json", "--k-sweep", "0,3",
        )

    def test_sweep_sorted_and_deduped(self, pipeline, tmp_path):
        out = tmp_path / "r.json"
        run(
            "evaluate", "--selections", pipeline.selections, "--out", out,
            "--k-sweep", "5,1,5,3",
        )
        assert json.loads(out.read_text())["k_sweep"] == [1, 3, 5]


class TestRetrieve:
    def test_build_query_and_roundtrip(self, pipeline, tmp_path):
        out = tmp_path / "bm25.jsonl"
        index_path = tmp_path / "index.json"
        run(
            "retrieve", "--input", pipeline.splits / "test.jsonl",
            "--train", pipeline.splits / "train.jsonl",
            "--out", out, "--index-out", index_path, "--k", 3,
        )
        rows = read_rows(out)
        assert len(rows) == 30  # both languages' test posts
        for row in rows:
            assert row["strategy"] == "bm25"
            assert len(row["titles"]) == len(row["scores"]) <= 3
            assert row["scores"] == sorted(row["scores"], reverse=True)
        again = tmp_path / "bm25-again.jsonl"
        run(
            "retrieve", "--input", pipeline.splits / "test.jsonl",
            "--index", index_path, "--out", again, "--k", 3,
        )
        assert again.read_bytes() == out.read_bytes()

    def test_index_roundtrip_on_varied_code(self, tmp_path):
        # Random code over a 40-token alphabet gives scores that mostly
        # differ, unlike the pipeline corpus's three-token snippets.
        rng = stable_rng("cli-bm25-roundtrip")
        alphabet = [f"tok{i}" for i in range(40)]
        rows = [
            raw_post(
                pid,
                code_snippets=[" ".join(rng.choice(alphabet, size=int(rng.integers(1, 30))))],
            )
            for pid in range(1, 121)
        ]
        posts = tmp_path / "posts.jsonl"
        records.write_jsonl(posts, rows)
        index_path, built, loaded = (tmp_path / n for n in ("idx.json", "a.jsonl", "b.jsonl"))
        common = ("retrieve", "--input", posts, "--k", 7)
        run(*common, "--train", posts, "--index-out", index_path, "--out", built)
        run(*common, "--index", index_path, "--out", loaded)
        assert loaded.read_bytes() == built.read_bytes()
        index = tg.BM25Index.load(index_path)
        scores = set()
        for raw, row in zip(rows, read_rows(built)):
            code = tg.tokenize(tg.concat_snippets(raw["code_snippets"]))
            hits = loop_query(index, code, 7)
            assert row["titles"] == [t for t, _ in hits]
            assert row["scores"] == [s for _, s in hits]
            scores.update(row["scores"])
        assert len(scores) > 500

    @pytest.mark.parametrize("queries", [0, 1], ids=["empty_input", "one_post"])
    def test_k_below_one_fails_without_output(self, pipeline, tmp_path, capsys, queries):
        posts = tmp_path / "input.jsonl"
        records.write_jsonl(posts, read_rows(pipeline.splits / "test.jsonl")[:queries])
        out, index_path = tmp_path / "r.jsonl", tmp_path / "idx.json"
        assert fails(
            "retrieve", "--input", posts, "--train", pipeline.splits / "train.jsonl",
            "--out", out, "--index-out", index_path, "--k", 0,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "k must be >= 1, got 0" in line
        assert not out.exists() and not index_path.exists()

    @pytest.mark.parametrize(
        "mutate, message", [c[1:] for c in BAD_INDEXES], ids=[c[0] for c in BAD_INDEXES]
    )
    def test_bad_index_fails_without_output(self, pipeline, tmp_path, capsys, mutate, message):
        index_path = tmp_path / "index.json"
        write_bad_index(index_path, mutate)
        out = tmp_path / "bm25.jsonl"
        assert fails(
            "retrieve", "--input", pipeline.splits / "test.jsonl",
            "--index", index_path, "--out", out,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("titlegen retrieve: error:") and message in line
        assert not out.exists()

    def test_requires_train_or_index(self, pipeline, tmp_path):
        assert fails(
            "retrieve", "--input", pipeline.splits / "test.jsonl",
            "--out", tmp_path / "x.jsonl",
        )

    def test_negative_code_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out, index_path = tmp_path / "r.jsonl", tmp_path / "idx.json"
        assert fails(
            "retrieve", "--input", pipeline.splits / "test.jsonl",
            "--train", pipeline.splits / "train.jsonl", "--out", out,
            "--index-out", index_path, "--code-limit", -1,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen retrieve: error: --code-limit must be >= 0, got -1"
        assert not out.exists() and not index_path.exists()


class TestCompareStrategies:
    def test_report_shape(self, pipeline, tmp_path):
        out = tmp_path / "compare.json"
        run(
            "compare-strategies", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out,
            "--limit", 4, "--num-samples", 20, "--max-length", 12,
            "--temperature", "0.5", "--beam-size", 5, "--k-sweep", "1,3",
        )
        report = json.loads(out.read_text())
        assert report["k_sweep"] == [1, 3]
        assert report["num_inputs"] == 4
        for name in ("bleus4", "rouge1", "rouge2", "rougeL"):
            for strategy in ("bs", "rns", "mmns"):
                table = report["metrics"][name][strategy]
                assert set(table) == {"1", "3"}
                assert table["1"] <= table["3"] + 1e-9
        for strategy in ("bs", "rns", "mmns"):
            assert set(report["diversity"][strategy]) == {"1", "3"}
            assert report["diversity"][strategy]["1"] == 0.0  # single title

    def test_matches_staged_pipeline(self, pipeline, tmp_path):
        # The beam size is below the largest K, so the BS arm is short.
        decoding = (
            "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--limit", 5, "--num-samples", 20, "--max-length", 12,
            "--temperature", "0.5", "--beam-size", 2, "--seed", 3,
        )
        sweep = ("--k-sweep", "1,3")
        out = tmp_path / "compare.json"
        run("compare-strategies", *decoding, "--out", out, *sweep)
        report = json.loads(out.read_text())
        for arm, pool_strategy, rank_strategy in (
            ("bs", "beam", "rns"), ("rns", "sample", "rns"), ("mmns", "sample", "mmns"),
        ):
            pools, selected, staged = (tmp_path / f"{arm}.{ext}" for ext in ("p", "s", "r"))
            run("generate", *decoding, "--out", pools, "--strategy", pool_strategy)
            run("rank", "--pools", pools, "--out", selected, "--strategy", rank_strategy, "--k", 3)
            run("evaluate", "--selections", selected, "--out", staged, *sweep)
            aggregate = json.loads(staged.read_text())["aggregate"]
            for name in ("bleus4", "rouge1", "rouge2", "rougeL"):
                for k in ("1", "3"):
                    assert report["metrics"][name][arm][k] == aggregate[k][name], (arm, name, k)

    def test_groups_keep_report_bytes(self, pipeline, tmp_path, monkeypatch):
        decoding = (
            "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--limit", 5, "--num-samples", 20, "--max-length", 12,
            "--temperature", "0.5", "--beam-size", 2, "--k-sweep", "1,3",
        )
        # Sampled posts one group, groups of two, one by one; beam posts
        # (width 2) one group, then groups of three, two and one.
        reports = []
        for budget in (cli._GROUP_ROWS, 40, 6, 4, 1):
            monkeypatch.setattr(cli, "_GROUP_ROWS", budget)
            out = tmp_path / f"compare{budget}.json"
            run("compare-strategies", *decoding, "--out", out)
            reports.append(out.read_bytes())
        assert reports == [reports[0]] * 5

    def test_negative_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert fails(
            "compare-strategies", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", -1,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "--limit must be >= 0, got -1" in line
        assert not out.exists()

    def test_bad_setting_fails_before_any_post(self, pipeline, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert fails(
            "compare-strategies", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", 1,
            "--top-p", 7,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen compare-strategies: error: top_p must be in (0, 1], got 7.0"
        assert not out.exists()

    def test_zero_beam_size_fails_with_no_posts(self, pipeline, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert fails(
            "compare-strategies", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", 0,
            "--beam-size", 0,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen compare-strategies: error: beam_size must be >= 1, got 0"
        assert not out.exists()

    def test_negative_code_limit_fails_without_output(self, pipeline, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert fails(
            "compare-strategies", "--model", pipeline.model,
            "--input", pipeline.splits / "test.jsonl", "--out", out, "--limit", 1,
            "--code-limit", -1,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == "titlegen compare-strategies: error: --code-limit must be >= 0, got -1"
        assert not out.exists()


class TestMainReuse:
    """``main`` builds its parser once per process. Consecutive calls with
    other subcommands and flags give what fresh processes give."""

    def calls(self, pipeline, out_dir):
        generate = [
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--limit", 3, "--num-samples", 12, "--max-length", 8,
        ]
        rank = ["rank", "--pools", pipeline.pools, "--k", 5]
        return [
            ("no_dedup", [*rank, "--no-dedup", "--out", out_dir / "no_dedup.jsonl"]),
            ("dedup", [*rank, "--out", out_dir / "dedup.jsonl"]),
            ("verbose", ["--verbose", *generate, "--out", out_dir / "verbose.jsonl"]),
            ("quiet", [*generate, "--seed", 4, "--out", out_dir / "quiet.jsonl"]),
        ]

    def test_consecutive_calls_equal_fresh_processes(self, pipeline, tmp_path, caplog):
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        logged = {}
        for name, argv in self.calls(pipeline, here):
            caplog.clear()
            with caplog.at_level(logging.INFO):
                run(*argv)
            logged[name] = [
                f"{r.levelname} {r.name}: {r.getMessage()}"
                for r in caplog.records
                if r.name == "titlegen"
            ]
        env = {**os.environ, "PYTHONPATH": str(Path(tg.__file__).parents[1])}
        env.pop("TITLEGEN_SEED", None)
        for name, argv in self.calls(pipeline, fresh):
            proc = subprocess.run(
                [sys.executable, "-m", "titlegen", *map(str, argv)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines() == logged[name], name
            assert (here / f"{name}.jsonl").read_bytes() == (fresh / f"{name}.jsonl").read_bytes()
        memo, done = logged["verbose"]
        assert re.fullmatch(
            r"INFO titlegen: sample memo: \d+ rows looked up, \d+ misses computed, \d+ ids stored",
            memo,
        )
        assert done == "INFO titlegen: generate: 3 pools (sample)"
        assert logged["quiet"] == []
        assert (here / "no_dedup.jsonl").read_bytes() != (here / "dedup.jsonl").read_bytes()


#: ``--config`` values of the wrong type: each fails with one line.
CONFIG_TYPE_ERRORS = [
    ("k", [1], "--k must be an integer, got [1]"),
    ("k", {"a": 1}, "--k must be an integer, got {'a': 1}"),
    ("k", 2.7, "--k must be an integer, got 2.7"),
    ("k", True, "--k must be an integer, got True"),
    ("k", "2.0", "--k must be an integer, got '2.0'"),
    ("top_p", True, "--top-p must be a number, got True"),
    ("top_p", "high", "--top-p must be a number, got 'high'"),
    ("top_p", [0.5], "--top-p must be a number, got [0.5]"),
    ("k_sweep", [[1]], "--k-sweep must be an integer, got [1]"),
    ("k_sweep", [1.5], "--k-sweep must be an integer, got 1.5"),
    ("k_sweep", 3, "k sweep must be positive integers, got 3"),
]


class TestPrecedence:
    def test_config_file_supplies_defaults(self, pipeline, tmp_path):
        # Keys other stages read ("order", "val_count") are accepted too.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "order": 3, "val_count": 2}), encoding="utf-8")
        out = tmp_path / "k1.jsonl"
        run("rank", "--pools", pipeline.pools, "--out", out, "--config", cfg)
        assert all(len(r["titles"]) == 1 for r in read_rows(out))

    def test_cli_beats_config(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1}), encoding="utf-8")
        out = tmp_path / "k2.jsonl"
        run("rank", "--pools", pipeline.pools, "--out", out, "--config", cfg, "--k", 2)
        assert all(len(r["titles"]) == 2 for r in read_rows(out))

    def test_env_seed_used_when_unset(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("TITLEGEN_SEED", "99")
        out = tmp_path / "env"
        run(
            "prepare", "--input", pipeline.raw, "--out-dir", out,
            "--val-count", 15, "--test-count", 15,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_cli_seed_beats_env(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("TITLEGEN_SEED", "99")
        out = tmp_path / "cli"
        run(
            "prepare", "--input", pipeline.raw, "--out-dir", out, "--seed", 7,
            "--val-count", 15, "--test-count", 15,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    @pytest.mark.parametrize(
        "key, value, message",
        CONFIG_TYPE_ERRORS,
        ids=[f"{key}={value!r}" for key, value, _ in CONFIG_TYPE_ERRORS],
    )
    def test_config_value_of_wrong_type_fails(
        self, pipeline, tmp_path, capsys, key, value, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "out"
        if key == "k":
            argv = ("rank", "--pools", pipeline.pools)
        elif key == "top_p":
            argv = (
                "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl"
            )
        else:
            argv = ("evaluate", "--selections", pipeline.selections)
        assert fails(*argv, "--out", out, "--config", cfg)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert message in line
        assert not out.exists()

    def test_config_numeric_strings_accepted(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": "2", "top_p": "0.5"}), encoding="utf-8")
        out = tmp_path / "k2.jsonl"
        run("rank", "--pools", pipeline.pools, "--out", out, "--config", cfg)
        assert all(len(r["titles"]) == 2 for r in read_rows(out))
        pools = tmp_path / "pools.jsonl"
        run(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", pools, "--config", cfg, "--limit", 1, "--num-samples", 2,
        )
        assert read_rows(pools)[0]["config"]["top_p"] == 0.5

    def test_unknown_config_keys_fail(self, pipeline, tmp_path, capsys):
        # "top-p" is the flag's spelling, "num_sample" a misspelling, and
        # "limit" is read only from the command line.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top-p": 0.1, "limit": 1, "num_sample": 3}), encoding="utf-8")
        out = tmp_path / "pools.jsonl"
        assert fails(
            "generate", "--model", pipeline.model, "--input", pipeline.splits / "test.jsonl",
            "--out", out, "--config", cfg,
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert "unknown key(s) in config file" in line
        assert "limit, num_sample, top-p (known:" in line
        assert not out.exists()

    def test_missing_config_fails(self, pipeline, tmp_path):
        assert fails(
            "rank", "--pools", pipeline.pools, "--out", tmp_path / "x.jsonl",
            "--config", tmp_path / "absent.json",
        )


#: Files that are no file, not UTF-8 or not JSON, as (case id, bytes or
#: None for a directory).
UNREADABLE_FILES = [
    ("directory", None),
    ("not_json", b"{k: 1}"),
    ("truncated_json", b'{"k": '),
    ("not_utf8", b'{"k": "\xdc"}'),
]


@pytest.mark.parametrize(
    "content", [c for _, c in UNREADABLE_FILES], ids=[i for i, _ in UNREADABLE_FILES]
)
class TestUnreadableFiles:
    """A ``--config`` or ``retrieve --index`` path that is no file or holds
    no JSON fails with one line naming it, and nothing is written."""

    @staticmethod
    def make(tmp_path, content):
        path = tmp_path / "file.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        return path

    def test_config(self, pipeline, tmp_path, capsys, content):
        cfg = self.make(tmp_path, content)
        out = tmp_path / "x.jsonl"
        assert fails("rank", "--pools", pipeline.pools, "--out", out, "--config", cfg)
        (line,) = capsys.readouterr().err.strip().splitlines()
        problem = "config path is not a file" if content is None else "not a JSON config file"
        assert line == f"titlegen rank: error: {problem}: {cfg}"
        assert not out.exists()

    def test_index(self, pipeline, tmp_path, capsys, content):
        index = self.make(tmp_path, content)
        out = tmp_path / "x.jsonl"
        assert fails(
            "retrieve", "--input", pipeline.splits / "test.jsonl", "--index", index, "--out", out
        )
        (line,) = capsys.readouterr().err.strip().splitlines()
        problem = "input path is not a file" if content is None else "not an index file"
        assert line == f"titlegen retrieve: error: {problem}: {index}"
        assert not out.exists()


class TestInputNotUtf8:
    """A JSONL line that is not UTF-8 text is skipped and counted like any
    malformed record: one warning naming the file and line, and the output
    of the other lines, byte for byte."""

    @pytest.mark.parametrize("stage", ["generate", "rank", "evaluate"])
    def test_line_skipped(self, pipeline, tmp_path, caplog, stage):
        source, flag = {
            "generate": (pipeline.splits / "test.jsonl", "--input"),
            "rank": (pipeline.pools, "--pools"),
            "evaluate": (pipeline.selections, "--selections"),
        }[stage]
        lines = source.read_bytes().splitlines(keepends=True)[:3]
        clean, mixed = tmp_path / "clean.jsonl", tmp_path / "mixed.jsonl"
        clean.write_bytes(b"".join(lines))
        mixed.write_bytes(b"".join([lines[0], b'{"id": "\xdc"}\n', *lines[1:]]))
        argv = {
            "generate": ["--model", pipeline.model, "--num-samples", 4, "--max-length", 6],
            "rank": [],
            "evaluate": [],
        }[stage]
        outs = {}
        for name, path in (("clean", clean), ("mixed", mixed)):
            outs[name] = tmp_path / f"{name}.out"
            caplog.clear()
            with caplog.at_level("WARNING", logger="titlegen"):
                run(stage, flag, path, "--out", outs[name], *argv)
        assert outs["mixed"].read_bytes() == outs["clean"].read_bytes()
        skipped = f"{mixed}:2: skipping malformed record (line is not UTF-8 text)"
        summary = ["evaluate: skipped 1 selection records"] if stage == "evaluate" else []
        assert [r.getMessage() for r in caplog.records] == [skipped, *summary]


def output_stage_argv(pipeline, stage, flag, out, spare):
    """``stage``'s command line writing ``flag`` to ``out``; ``--out`` goes
    to ``spare`` when ``out`` is the index's."""
    splits = pipeline.splits
    decoding = [
        "--model", pipeline.model, "--input", splits / "test.jsonl",
        "--limit", 2, "--num-samples", 4, "--max-length", 6, "--beam-size", 2,
    ]
    argv = {
        "train-lm": ["train-lm", "--train", splits / "train.jsonl"],
        "generate": ["generate", *decoding],
        "rank": ["rank", "--pools", pipeline.pools],
        "retrieve": [
            "retrieve", "--input", splits / "test.jsonl", "--train", splits / "train.jsonl",
        ],
        "evaluate": ["evaluate", "--selections", pipeline.selections],
        "compare-strategies": ["compare-strategies", *decoding],
    }[stage]
    if flag == "--index-out":
        argv += ["--out", spare]
    return [*argv, flag, out]


OUTPUT_FLAGS = [
    ("train-lm", "--out"),
    ("generate", "--out"),
    ("rank", "--out"),
    ("retrieve", "--out"),
    ("retrieve", "--index-out"),
    ("evaluate", "--out"),
    ("compare-strategies", "--out"),
]


class TestOutputPaths:
    """An output path that cannot be written fails the stage with one line
    naming the flag and the path, before any input is read, and leaves no
    file behind."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("input read before the output path was checked")

        monkeypatch.setattr(records, "read_jsonl", refuse)
        monkeypatch.setattr(tg.NGramLM, "load", refuse)
        monkeypatch.setattr(tg.decode, "decode_candidates", refuse)

    @pytest.mark.parametrize(
        "stage, flag", OUTPUT_FLAGS, ids=[f"{s}{f}" for s, f in OUTPUT_FLAGS]
    )
    @pytest.mark.parametrize(
        "case", ["directory", "missing_parent", "parent_is_file", "not_writable"]
    )
    def test_unwritable_output_fails_before_any_work(
        self, pipeline, tmp_path, capsys, monkeypatch, no_work, stage, flag, case
    ):
        root = Path(os.path.realpath(tmp_path))
        if case == "directory":
            out = root / "adir"
            out.mkdir()
            message = f"{flag} {out} is a directory"
        elif case == "missing_parent":
            out = root / "absent" / "out.x"
            message = f"{flag} {out}: directory {root / 'absent'} does not exist"
        elif case == "parent_is_file":
            (root / "afile").write_text("x")
            out = root / "afile" / "out.x"
            message = f"{flag} {out}: {root / 'afile'} is not a directory"
        else:
            # Patched, since a process run as root may write anywhere.
            monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != root)
            out = root / "out.x"
            message = f"{flag} {out}: directory {root} is not writable"
        (root / "spare").mkdir()
        before = sorted(root.rglob("*"))
        assert fails(*output_stage_argv(pipeline, stage, flag, out, root / "spare" / "out.jsonl"))
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"titlegen {stage}: error: {message}"
        assert sorted(root.rglob("*")) == before

    def test_prepare_out_dir_that_is_a_file_fails(self, pipeline, tmp_path, capsys, no_work):
        out = tmp_path / "splits"
        out.write_text("x")
        assert fails("prepare", "--input", pipeline.raw, "--out-dir", out)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"titlegen prepare: error: --out-dir {out} is not a directory"
        assert out.read_text() == "x"

    def test_stdout_on_a_pipe_is_written_in_place(self, pipeline):
        # /dev/stdout on a pipe resolves to no openable path; it is
        # written through the link, not renamed over.
        env = {**os.environ, "PYTHONPATH": str(Path(tg.__file__).parents[1])}
        proc = subprocess.run(
            [
                sys.executable, "-m", "titlegen", "evaluate",
                "--selections", str(pipeline.selections), "--out", "/dev/stdout",
            ],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == pipeline.report.read_text(encoding="utf-8")


class TestInputPaths:
    @pytest.mark.parametrize("stage", ["generate", "rank", "evaluate"])
    def test_directory_input_is_not_a_file(self, pipeline, tmp_path, capsys, stage):
        adir = tmp_path / "adir"
        adir.mkdir()
        out = tmp_path / "out.jsonl"
        argv = {
            "generate": ["generate", "--model", pipeline.model, "--input", adir],
            "rank": ["rank", "--pools", adir],
            "evaluate": ["evaluate", "--selections", adir],
        }[stage]
        assert fails(*argv, "--out", out)
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == f"titlegen {stage}: error: input path is not a file: {adir}"
        assert not out.exists()


@st.composite
def corruptions(draw, size: int):
    """A truncation of a ``size``-byte file to fewer bytes, or one to
    four bytes of it XORed with nonzero masks."""
    if draw(st.booleans()):
        return ("truncate", draw(st.integers(0, size - 1)))
    at = st.integers(0, size - 1)
    return ("flip", draw(st.lists(st.tuples(at, st.integers(1, 255)), min_size=1, max_size=4)))


def corrupted(data: bytes, corruption) -> bytes:
    kind, how = corruption
    if kind == "truncate":
        return data[:how]
    out = bytearray(data)
    for at, mask in how:
        out[at] ^= mask
    return bytes(out)


class TestCorruptArtifacts:
    """Random byte flips and truncations of a tiny model file, read by
    ``generate``, and of a two-pool file, read by ``rank``. Each case exits
    0 with its output, or 1 with one line on stderr and no output file:
    never a traceback or a partial file."""

    @staticmethod
    def assert_clean_exit(argv, workdir, out):
        inputs = set(os.listdir(workdir))
        err = io.StringIO()
        handler = logging.StreamHandler(err)
        logging.getLogger("titlegen").addHandler(handler)
        try:
            with contextlib.redirect_stderr(err):
                code = cli_main([str(a) for a in argv])
        finally:
            logging.getLogger("titlegen").removeHandler(handler)
        made = set(os.listdir(workdir)) - inputs
        event(f"exit {code}")
        if code == 0:
            assert made == {out.name}
        else:
            (line,) = err.getvalue().splitlines()
            assert code == 1 and line.startswith(f"titlegen {argv[0]}: error: ")
            assert not made

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_model_file_through_generate(self, pipeline, data):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            model = workdir / "model.bin"
            make_gapped_model().save(model)
            raw = model.read_bytes()
            model.write_bytes(corrupted(raw, data.draw(corruptions(len(raw)))))
            out = workdir / "pools.jsonl"
            argv = [
                "generate", "--model", model, "--input", pipeline.splits / "test.jsonl",
                "--out", out, "--limit", 1, "--num-samples", 3, "--max-length", 4,
            ]
            self.assert_clean_exit(argv, workdir, out)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pools_file_through_rank(self, pipeline, data):
        raw = b"".join(pipeline.pools.read_bytes().splitlines(keepends=True)[:2])
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            pools = workdir / "pools.jsonl"
            pools.write_bytes(corrupted(raw, data.draw(corruptions(len(raw)))))
            out = workdir / "selected.jsonl"
            self.assert_clean_exit(["rank", "--pools", pools, "--out", out], workdir, out)


class TestPoolSeeds:
    """A pool depends on the run seed and the post's id, not on where the
    post stands in the input or how many posts are read."""

    @staticmethod
    def generate(pipeline, posts, out, *flags):
        run(
            "generate", "--model", pipeline.model, "--input", posts, "--out", out,
            "--num-samples", 12, "--max-length", 8, "--beam-size", 3, "--seed", 5, *flags,
        )
        return {row["meta"]["id"]: records.dump_json(row) for row in read_rows(out)}

    @pytest.mark.parametrize("strategy", ["sample", "beam"])
    def test_pool_ignores_position_and_limit(self, pipeline, tmp_path, strategy):
        lines = (pipeline.splits / "test.jsonl").read_text(encoding="utf-8").splitlines()[:6]
        first = tmp_path / "first.jsonl"
        first.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # The first post moves to position 3.
        moved = tmp_path / "moved.jsonl"
        moved.write_text("\n".join([*lines[1:4], lines[0], *lines[4:]]) + "\n", encoding="utf-8")
        strategy_flag = ("--strategy", strategy)
        a = self.generate(pipeline, first, tmp_path / "a.jsonl", *strategy_flag)
        b = self.generate(pipeline, moved, tmp_path / "b.jsonl", *strategy_flag)
        c = self.generate(pipeline, first, tmp_path / "c.jsonl", "--limit", 1, *strategy_flag)
        assert len(a) == 6 and a == b
        (pid,) = c
        assert c[pid] == a[pid] and pid == json.loads(lines[0])["id"]

    def test_sampled_pool_is_rebuilt_from_its_config(self, pipeline):
        model = tg.NGramLM.load(pipeline.model)
        posts = {p.id: p for p in records.read_posts(pipeline.splits / "test.jsonl")}
        for row in read_rows(pipeline.pools):
            pool = records.pool_from_dict(row)
            code = model.vocabulary.encode(cli._code_tokens(posts[row["meta"]["id"]], 512))
            assert tg.decode_candidates(model, code, pool.config).candidates == pool.candidates

    def test_seed_of_any_int_id(self):
        ids = [0, -1, 1, -2, 2, 2**63, 2**64 - 1, 2**64, -(2**64), 2**80, -(2**80)]
        seeds = [cli._pool_seed(7, pid) for pid in ids]
        assert all(0 <= s < 2**64 for s in seeds)
        assert len(set(seeds)) == len(ids)
        # Equal ids give equal seeds; the run seed counts modulo 2**64.
        assert seeds == [cli._pool_seed(7, pid) for pid in ids]
        assert [cli._pool_seed(7 - 2**64, pid) for pid in ids] == seeds
        assert cli._pool_seed(8, 0) != seeds[0]
        for seed in seeds:
            tg.SamplingConfig(seed=seed)


#: Runs the file pipeline in one process: argv is the raw corpus and the
#: output directory.
HASH_SEED_SCRIPT = """
import sys
from titlegen.cli import main
raw, out = sys.argv[1:]
s = out + "/splits"
for argv in (
    ["prepare", "--input", raw, "--out-dir", s, "--val-count", "15", "--test-count", "15"],
    ["train-lm", "--train", s + "/train.jsonl", "--out", out + "/model.bin"],
    ["generate", "--model", out + "/model.bin", "--input", s + "/test.jsonl",
     "--out", out + "/pools.jsonl", "--limit", "6", "--num-samples", "20", "--max-length", "10"],
    ["rank", "--pools", out + "/pools.jsonl", "--out", out + "/mmns.jsonl"],
    ["evaluate", "--selections", out + "/mmns.jsonl", "--out", out + "/report.json",
     "--group-by-language"],
    ["retrieve", "--input", s + "/test.jsonl", "--train", s + "/train.jsonl",
     "--out", out + "/bm25.jsonl", "--index-out", out + "/index.json"],
):
    assert main(argv) == 0, argv
"""


def test_artifacts_do_not_depend_on_hash_seed(tmp_path):
    raw = tmp_path / "raw.jsonl"
    write_raw_corpus(raw)
    env = {**os.environ, "PYTHONPATH": str(Path(tg.__file__).parents[1])}
    env.pop("TITLEGEN_SEED", None)
    roots = []
    for hash_seed in ("0", "1"):
        root = tmp_path / f"hash{hash_seed}"
        root.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(raw), str(root)],
            capture_output=True, text=True, env={**env, "PYTHONHASHSEED": hash_seed}, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        roots.append(root)
    files = [sorted(p.relative_to(r) for p in r.rglob("*") if p.is_file()) for r in roots]
    assert files[0] == files[1] and len(files[0]) >= 10
    for rel in files[0]:
        assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes(), rel
