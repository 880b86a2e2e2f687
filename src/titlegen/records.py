"""Line-delimited record formats shared by the CLI stages.

Every interchange file is JSON-lines with sorted keys, so identical
inputs and seeds reproduce identical bytes. Malformed lines are counted
and skipped with a warning, never a crash. Every output file, here and
in the model and index savers, goes through ``write_atomic``: a failed
write leaves no partial file.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, TextIO

from .data import Post
from .decode import CandidatePool, SamplingConfig

log = logging.getLogger("titlegen")


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_atomic(path: str | Path, write: Callable[[IO], object], binary: bool = False):
    """Call ``write`` on a new file beside ``path`` (UTF-8 text, or bytes
    if ``binary``), then rename it over ``path``. If ``write`` raises,
    the file is removed and ``path`` is left as it was. Returns what
    ``write`` returned.

    A symlink's target is replaced, not the link. A path that exists
    but is no regular file (``/dev/stdout``, a pipe) cannot be renamed
    over, so it is written in place. That is asked of the path itself,
    through its links: ``/dev/stdout`` on a pipe resolves to no path
    that could be opened."""
    mode, encoding = ("b", None) if binary else ("", "utf-8")
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w" + mode, encoding=encoding) as fh:
            return write(fh)
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x" + mode, encoding=encoding) as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each string as one line; returns the number of lines."""

    def write(fh: TextIO) -> int:
        count = 0
        for line in lines:
            fh.write(line + "\n")
            count += 1
        return count

    return write_atomic(path, write)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    return write_lines(path, map(dump_json, rows))


def write_json(path: str | Path, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    write_atomic(path, lambda fh: fh.write(text))


@dataclass
class ReadStats:
    read: int = 0
    skipped: int = 0
    #: The line of the record most recently yielded, for error messages.
    line: int = 0


def read_jsonl(path: str | Path, stats: ReadStats | None = None) -> Iterator[dict]:
    """Yield one dict per well-formed line; count and skip the rest."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("record is not an object")
            except ValueError as exc:
                if stats is not None:
                    stats.skipped += 1
                log.warning("%s:%d: skipping malformed record (%s)", path, lineno, exc)
                continue
            if stats is not None:
                stats.read += 1
                stats.line = lineno
            yield row


# -- posts ----------------------------------------------------------------

_POST_FIELDS = {
    "id",
    "title",
    "code_snippets",
    "created_at",
    "is_closed",
    "has_accepted_answer",
    "votes",
    "language",
}


def post_to_dict(post: Post) -> dict:
    return {
        "id": post.id,
        "title": post.title,
        "code_snippets": list(post.code_snippets),
        "created_at": post.created_at.isoformat(),
        "is_closed": post.is_closed,
        "has_accepted_answer": post.has_accepted_answer,
        "votes": post.votes,
        "language": post.language,
    }


def post_from_dict(row: dict) -> Post:
    missing = _POST_FIELDS - row.keys()
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    snippets = row["code_snippets"]
    if not isinstance(snippets, list) or not all(isinstance(s, str) for s in snippets):
        raise ValueError("code_snippets must be a list of strings")
    # JSON types as they are, not coerced: the string "false" is no bool.
    for field in ("id", "votes"):
        if type(row[field]) is not int:
            raise ValueError(f"{field} must be an integer, got {row[field]!r}")
    for field in ("is_closed", "has_accepted_answer"):
        if type(row[field]) is not bool:
            raise ValueError(f"{field} must be true or false, got {row[field]!r}")
    title = row["title"]
    if not isinstance(title, str):
        raise ValueError(f"title must be a string, got {title!r}")
    if not title.strip():
        raise ValueError("title is blank")
    # ``prepare`` writes each language's splits to a directory of its name.
    language = row["language"]
    if (
        not isinstance(language, str)
        or language in ("", ".", "..")
        or "/" in language
        or "\\" in language
        or "\0" in language
    ):
        raise ValueError(f"language must be a directory name, got {language!r}")
    return Post(
        id=row["id"],
        title=title,
        code_snippets=list(snippets),
        created_at=datetime.fromisoformat(row["created_at"]),
        is_closed=row["is_closed"],
        has_accepted_answer=row["has_accepted_answer"],
        votes=row["votes"],
        language=language,
    )


def read_posts(path: str | Path, stats: ReadStats | None = None) -> Iterator[Post]:
    """Posts from a JSONL file; malformed rows are counted and skipped."""
    own = stats if stats is not None else ReadStats()
    for row in read_jsonl(path, own):
        try:
            yield post_from_dict(row)
        except (ValueError, TypeError) as exc:
            own.read -= 1
            own.skipped += 1
            log.warning("%s: skipping malformed post record (%s)", path, exc)


# -- candidate pools -------------------------------------------------------

def pool_to_dict(pool: CandidatePool) -> dict:
    cfg = pool.config
    return {
        "input": list(pool.input),
        "candidates": [list(c) for c in pool.candidates],
        "candidate_strings": [" ".join(c) for c in pool.candidates],
        "config": {
            "top_p": cfg.top_p,
            "temperature": cfg.temperature,
            "num_samples": cfg.num_samples,
            "max_length": cfg.max_length,
            "seed": cfg.seed,
        },
        "meta": dict(pool.meta),
    }


def _tokens(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{what} must be a list of token strings")
    return list(value)


def _number(cfg: dict, name: str, integer: bool = False):
    value = cfg[name]
    kind = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ValueError(f"config {name} must be {what}, got {value!r}")
    return value


def pool_from_dict(row: dict) -> CandidatePool:
    cfg = row["config"]
    if not isinstance(cfg, dict):
        raise ValueError("config must be an object")
    meta = row.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    candidates = row["candidates"]
    if not isinstance(candidates, list):
        raise ValueError("candidates must be a list")
    return CandidatePool(
        input=_tokens(row["input"], "input"),
        candidates=[_tokens(c, "candidate") for c in candidates],
        config=SamplingConfig(
            top_p=_number(cfg, "top_p"),
            temperature=_number(cfg, "temperature"),
            num_samples=_number(cfg, "num_samples", integer=True),
            max_length=_number(cfg, "max_length", integer=True),
            seed=_number(cfg, "seed", integer=True),
        ),
        meta=dict(meta),
    )


# -- selections -------------------------------------------------------------

def selection_to_dict(
    meta: dict,
    titles: list[str],
    strategy: str,
    indices: list[int] | None = None,
    diagnostics: dict | None = None,
) -> dict:
    row = {"titles": titles, "strategy": strategy}
    for key in ("id", "reference", "language"):
        if key in meta:
            row[key] = meta[key]
    if indices is not None:
        row["indices"] = indices
    if diagnostics is not None:
        row["diagnostics"] = diagnostics
    return row
