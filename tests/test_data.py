import logging
import os
import stat
from datetime import datetime

import pytest

import titlegen as tg
from titlegen import records

from .conftest import AUDIT_KEPT_IDS, audit_posts, raw_post


def make_post(pid, **overrides):
    return records.post_from_dict(raw_post(pid, **overrides))


def posts_at(stamps_and_ids, language="python"):
    return [
        make_post(pid, created_at=stamp, language=language)
        for stamp, pid in stamps_and_ids
    ]


class TestFilterPosts:
    def test_audit_fixture_keeps_exactly_the_good_posts(self):
        posts = [records.post_from_dict(row) for row in audit_posts()]
        kept = list(tg.filter_posts(posts))
        assert [p.id for p in kept] == list(AUDIT_KEPT_IDS)

    def test_closed_posts_dropped(self):
        assert list(tg.filter_posts([make_post(1, is_closed=True)])) == []

    def test_unanswered_posts_dropped(self):
        assert list(tg.filter_posts([make_post(1, has_accepted_answer=False)])) == []

    def test_vote_threshold_is_two(self):
        assert list(tg.filter_posts([make_post(1, votes=1)])) == []
        assert [p.id for p in tg.filter_posts([make_post(1, votes=2)])] == [1]

    def test_snippetless_posts_dropped(self):
        assert list(tg.filter_posts([make_post(1, code_snippets=[])])) == []

    def test_order_and_identity_preserved(self):
        posts = [make_post(3), make_post(1), make_post(2)]
        kept = list(tg.filter_posts(posts))
        assert kept == posts
        assert kept[0] is posts[0]


class TestConcatSnippets:
    def test_single_snippet_unchanged(self):
        assert tg.concat_snippets(["x = 1"]) == "x = 1"

    def test_join_uses_next_marker(self):
        assert tg.concat_snippets(["a", "b"]) == "a [NEXT] b"
        assert tg.concat_snippets(["a", "b", "c"]) == "a [NEXT] b [NEXT] c"

    def test_whitespace_preserved(self):
        snippet = "if x:\n    y()\n"
        assert tg.concat_snippets([snippet, "z"]) == f"{snippet} [NEXT] z"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no code snippets"):
            tg.concat_snippets([])


class TestSplitSpec:
    def test_defaults(self):
        spec = tg.SplitSpec()
        assert spec.resolve("python", 100_000) == (5000, 5000)

    def test_small_language_falls_back_to_fraction(self):
        spec = tg.SplitSpec(val_count=50, test_count=50, fraction=0.2)
        assert spec.resolve("go", 10) == (2, 2)

    def test_fraction_floors(self):
        spec = tg.SplitSpec(val_count=50, test_count=50, fraction=0.1)
        assert spec.resolve("go", 19) == (1, 1)

    def test_no_fraction_raises_naming_language(self):
        spec = tg.SplitSpec(val_count=5, test_count=5, fraction=None)
        with pytest.raises(ValueError, match="'ruby'"):
            spec.resolve("ruby", 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            tg.SplitSpec(val_count=-1)
        with pytest.raises(ValueError):
            tg.SplitSpec(fraction=0.0)
        with pytest.raises(ValueError):
            tg.SplitSpec(fraction=0.5)
        tg.SplitSpec(fraction=0.49)  # boundary inside the open interval


class TestChronologicalSplit:
    def ten_posts(self):
        return [
            make_post(pid, created_at=f"2021-03-{pid:02d}T00:00:00")
            for pid in range(1, 11)
        ]

    def test_counts_and_chronology(self):
        spec = tg.SplitSpec(val_count=2, test_count=2)
        train, val, test = tg.chronological_split(self.ten_posts(), spec, seed=0)
        assert (len(train), len(val), len(test)) == (6, 2, 2)
        assert [p.id for p in train] == [1, 2, 3, 4, 5, 6]
        assert {p.id for p in val} | {p.id for p in test} == {7, 8, 9, 10}

    def test_boundary_invariant(self):
        spec = tg.SplitSpec(val_count=3, test_count=3)
        train, val, test = tg.chronological_split(self.ten_posts(), spec, seed=5)
        newest_train = max(p.created_at for p in train)
        for p in val + test:
            assert p.created_at >= newest_train

    def test_partition_is_disjoint_and_exhaustive(self):
        posts = self.ten_posts()
        spec = tg.SplitSpec(val_count=2, test_count=3)
        train, val, test = tg.chronological_split(posts, spec, seed=2)
        ids = [p.id for p in train] + [p.id for p in val] + [p.id for p in test]
        assert sorted(ids) == [p.id for p in posts]

    def test_same_seed_reproduces(self):
        spec = tg.SplitSpec(val_count=2, test_count=2)
        a = tg.chronological_split(self.ten_posts(), spec, seed=7)
        b = tg.chronological_split(self.ten_posts(), spec, seed=7)
        assert [[p.id for p in part] for part in a] == [[p.id for p in part] for part in b]

    def test_seed_counts_modulo_2_64(self):
        spec = tg.SplitSpec(val_count=2, test_count=2)

        def ids(seed):
            parts = tg.chronological_split(self.ten_posts(), spec, seed)
            return [[p.id for p in part] for part in parts]

        assert ids(-1) == ids(2**64 - 1)
        assert ids(2**64 + 7) == ids(7) == ids(-(2**64) + 7)

    def test_input_order_irrelevant(self):
        posts = self.ten_posts()
        spec = tg.SplitSpec(val_count=2, test_count=2)
        a = tg.chronological_split(posts, spec, seed=3)
        b = tg.chronological_split(list(reversed(posts)), spec, seed=3)
        assert [[p.id for p in part] for part in a] == [[p.id for p in part] for part in b]

    def test_equal_timestamps_ordered_by_id(self):
        stamp = "2021-06-01T12:00:00"
        posts = posts_at([(stamp, 5), (stamp, 3), ("2021-01-01T00:00:00", 9)])
        spec = tg.SplitSpec(val_count=1, test_count=1)
        train, val, test = tg.chronological_split(posts, spec, seed=0)
        # oldest stays in train; of the tied pair the smaller id is older
        assert [p.id for p in train] == [9]
        assert {p.id for p in val} | {p.id for p in test} == {3, 5}

    def test_languages_split_independently(self):
        posts = [
            make_post(pid, created_at=f"2021-03-{pid:02d}T00:00:00", language=lang)
            for pid, lang in zip(range(1, 9), ["python", "java"] * 4)
        ]
        spec = tg.SplitSpec(val_count=1, test_count=1)
        train, val, test = tg.chronological_split(posts, spec, seed=0)
        for language in ("python", "java"):
            group = [p for p in posts if p.language == language]
            newest_train = max(
                p.created_at for p in train if p.language == language
            )
            recent = {p.id for p in group if p.created_at > newest_train}
            held = {p.id for p in val + test if p.language == language}
            assert held == recent
            assert len(held) == 2

    def test_insufficient_posts_raise_with_language(self):
        posts = [make_post(1), make_post(2)]
        spec = tg.SplitSpec(val_count=2, test_count=2, fraction=None)
        with pytest.raises(ValueError, match="'python'"):
            tg.chronological_split(posts, spec, seed=0)


class TestRecords:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"b": 2, "a": 1}, {"x": [1, 2]}]
        assert records.write_jsonl(path, rows) == 2
        stats = records.ReadStats()
        assert list(records.read_jsonl(path, stats)) == rows
        assert (stats.read, stats.skipped) == (2, 0)

    def test_sorted_keys_give_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        records.write_jsonl(a, [{"b": 2, "a": 1}])
        records.write_jsonl(b, [{"a": 1, "b": 2}])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("existing", [True, False], ids=["overwrite", "new"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "rows.jsonl"
        if existing:
            records.write_jsonl(path, [{"old": 1}])
        before = path.read_bytes() if existing else None
        with pytest.raises(TypeError):
            records.write_jsonl(path, [{"new": 1}, {"new": object()}, {"new": 3}])
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["rows.jsonl"] if existing else [])

    def test_written_file_has_default_permissions(self, tmp_path):
        path, plain = tmp_path / "rows.jsonl", tmp_path / "plain.jsonl"
        records.write_jsonl(path, [{"a": 1}])
        with open(plain, "w", encoding="utf-8"):
            pass
        assert path.stat().st_mode == plain.stat().st_mode

    def test_write_through_symlink_keeps_link(self, tmp_path):
        target, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        records.write_jsonl(target, [{"old": 1}])
        link.symlink_to(target)
        records.write_jsonl(link, [{"new": 1}])
        assert link.is_symlink()
        assert list(records.read_jsonl(target)) == [{"new": 1}]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_write_to_pipe_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the pipe at once.
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            records.write_jsonl(fifo, [{"a": 1}])
            assert os.read(fd, 100) == b'{"a":1}\n'
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"ok": 1}\nnot json\n[1, 2]\n\n{"ok": 2}\n', encoding="utf-8")
        stats = records.ReadStats()
        rows = list(records.read_jsonl(path, stats))
        assert rows == [{"ok": 1}, {"ok": 2}]
        assert (stats.read, stats.skipped) == (2, 2)

    def test_lines_not_utf8_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(
            b'{"ok": "caf\xc3\xa9"}\n'  # valid UTF-8
            b'{"bad": "\xdc"}\n'  # a lone continuation byte inside a string
            b"\xff\xfe{}\n"
            b'{"ok": "\xf0\x9f\x99\x82"}\r\n'
            b'{"bad": "\xed\xa0\x80"}\n'  # an encoded surrogate
        )
        stats = records.ReadStats()
        with caplog.at_level(logging.WARNING, logger="titlegen"):
            rows = list(records.read_jsonl(path, stats))
        assert rows == [{"ok": "caf\u00e9"}, {"ok": "\U0001f642"}]
        assert (stats.read, stats.skipped) == (2, 3)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:{n}: skipping malformed record (line is not UTF-8 text)" for n in (2, 3, 5)
        ]

    def test_post_roundtrip(self):
        post = make_post(42, created_at="2021-05-06T07:08:09")
        again = records.post_from_dict(records.post_to_dict(post))
        assert again == post
        assert again.created_at == datetime(2021, 5, 6, 7, 8, 9)

    def test_bad_post_rows_counted(self, tmp_path):
        path = tmp_path / "posts.jsonl"
        rows = [raw_post(1), {"id": 2, "title": "missing the rest"}, raw_post(3)]
        records.write_jsonl(path, rows)
        stats = records.ReadStats()
        posts = list(records.read_posts(path, stats))
        assert [p.id for p in posts] == [1, 3]
        assert (stats.read, stats.skipped) == (2, 1)

    def test_pool_roundtrip(self):
        pool = tg.CandidatePool(
            input=["x", "=", "1"],
            candidates=[["how", "to"], ["fix", "it", "now"]],
            config=tg.SamplingConfig(top_p=0.9, num_samples=2, seed=11),
            meta={"id": 7, "language": "python"},
        )
        again = records.pool_from_dict(records.pool_to_dict(pool))
        assert again.input == pool.input
        assert again.candidates == pool.candidates
        assert again.config == pool.config
        assert again.meta == pool.meta

    def test_selection_passthrough(self):
        row = records.selection_to_dict(
            meta={"id": 3, "reference": "a title", "language": "java", "junk": 0},
            titles=["one", "two"],
            strategy="mmns",
            indices=[4, 9],
            diagnostics={"initial_consistency": 2.5},
        )
        assert row == {
            "titles": ["one", "two"],
            "strategy": "mmns",
            "id": 3,
            "reference": "a title",
            "language": "java",
            "indices": [4, 9],
            "diagnostics": {"initial_consistency": 2.5},
        }
