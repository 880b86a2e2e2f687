"""Command-line pipeline: prepare -> train-lm -> generate -> rank ->
evaluate, plus the retrieval baseline and the strategy comparison.

Stages communicate through files, so externally generated candidate
pools can enter at the ``rank`` step. Every subcommand is deterministic
given its flags and seed: rerunning with identical inputs reproduces
identical bytes.

Flag values resolve in order: command line, then ``--config`` JSON file,
then the TITLEGEN_SEED environment variable (seed only), then built-in
defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import data, decode, metrics, rank, records, retrieve
from .lm import NGramLM, train_ngram_lm
from .text import Vocabulary, strip_markers, tokenize

log = logging.getLogger("titlegen")

DEFAULTS = {
    "seed": 0,
    # Contexts only reach the code region when order >= 4 (the [NEXT] and
    # start markers occupy two slots), so 4 is the smallest order whose
    # titles actually condition on the input.
    "order": 4,
    "code_limit": 512,
    "title_limit": 48,
    "top_p": 0.8,
    "temperature": 1.0,
    "num_samples": 200,
    "max_length": 48,
    "beam_size": 20,
    "k": 3,
    "k_sweep": "1,3,5",
    "val_count": 5000,
    "test_count": 5000,
    "fraction": 0.1,
}


class _Resolver:
    """Applies the CLI > config file > environment > builtin precedence."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise FileNotFoundError(f"config file not found: {path}")
            if not path.is_file():
                raise ValueError(f"config path is not a file: {path}")
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
            except ValueError:  # not UTF-8, or not JSON
                raise ValueError(f"not a JSON config file: {path}") from None
            if not isinstance(loaded, dict):
                raise ValueError(f"config file must hold a JSON object: {path}")
            # Keys any stage reads are accepted, so one file serves every stage.
            unknown = sorted(loaded.keys() - DEFAULTS.keys())
            if unknown:
                raise ValueError(
                    f"unknown key(s) in config file {path}: {', '.join(unknown)}"
                    f" (known: {', '.join(sorted(DEFAULTS))})"
                )
            self.config = loaded

    def get(self, name: str, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name)
        if value is None and name == "seed":
            value = os.environ.get("TITLEGEN_SEED")
        if value is None:
            value = DEFAULTS[name]
        return _as_number(name, value, cast) if cast is not None else value


def _as_number(name: str, value, cast):
    """``value`` as ``cast`` (int or float). An int flag takes an integer
    or an integer string, a float flag any number or numeric string; a
    bool, a container or a float for an int flag is an error."""
    kinds = (int, str) if cast is int else (int, float, str)
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            return cast(value)
        except (ValueError, OverflowError):
            pass
    kind = "an integer" if cast is int else "a number"
    raise ValueError(f"--{name.replace('_', '-')} must be {kind}, got {value!r}")


def _token_limit(res: _Resolver, name: str) -> int:
    """``--code-limit`` or ``--title-limit``: an integer >= 0."""
    limit = res.get(name, int)
    if limit < 0:
        raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {limit}")
    return limit


def _require_files(*paths: str) -> None:
    for p in paths:
        if not os.path.exists(p):
            raise FileNotFoundError(f"input file not found: {p}")
        if not os.path.isfile(p):
            raise ValueError(f"input path is not a file: {p}")


def _require_writable(flag: str, path: str | None) -> None:
    """Refuse an output path that cannot be written, before any work: a
    directory, or a path whose directory is missing, is no directory or
    is not writable. A path that exists as no regular file
    (``/dev/stdout``, a pipe) is written in place, so it passes."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ValueError(f"{flag} {path} is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        return
    parent = Path(os.path.realpath(path)).parent
    if not parent.exists():
        raise ValueError(f"{flag} {path}: directory {parent} does not exist")
    if not parent.is_dir():
        raise ValueError(f"{flag} {path}: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(f"{flag} {path}: directory {parent} is not writable")


def _parse_sweep(raw) -> list[int]:
    parts = raw.replace(",", " ").split() if isinstance(raw, str) else raw
    values = [_as_number("k_sweep", p, int) for p in parts] if isinstance(parts, list) else []
    if not values or any(v < 1 for v in values):
        raise ValueError(f"k sweep must be positive integers, got {raw!r}")
    return sorted(set(values))


def _post_meta(post: data.Post) -> dict:
    return {"id": post.id, "reference": post.title, "language": post.language}


def _code_tokens(post: data.Post, limit: int) -> list[str]:
    return tokenize(data.concat_snippets(post.code_snippets))[:limit]


def _decode_inputs(args: argparse.Namespace) -> tuple[NGramLM, list[data.Post]]:
    """The model and the first ``--limit`` input posts."""
    _require_files(args.model, args.input)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    posts = list(records.read_posts(args.input))[: args.limit]
    return NGramLM.load(args.model), posts


def _pool_seed(seed: int, post_id: int) -> int:
    """The seed of a post's pool: the first 64-bit word of
    ``SeedSequence(seed % 2**64, spawn_key=(key,))``, where ``key`` maps
    the id one-to-one onto the integers >= 0 (0, -1, 1, -2, ... to 0, 1,
    2, 3, ...), so a negative id or one past 2**64 is a valid key. It
    depends on the run seed and the id alone. Equal ids give equal seeds:
    two posts with one id and one code get the same pool."""
    key = 2 * post_id if post_id >= 0 else -2 * post_id - 1
    entropy = np.random.SeedSequence(seed % 2**64, spawn_key=(key,))
    return int(entropy.generate_state(1, np.uint64)[0])


#: Sampled rows one ``decode.decode_pools`` call steps together: ``_pools``
#: groups consecutive posts while their rows fit (20 posts at M = 200); a
#: pool of more rows is sampled alone. Larger groups share more of each
#: step's work.
_GROUP_ROWS = 4096


def _pools(res: _Resolver, model: NGramLM, posts, strategy: str):
    """One candidate pool per post, lazily: sampled, or for "beam" the
    exact top ``beam_size`` beam search list, of which every shorter top
    list is a prefix. Each pool's ``config.seed`` is ``_pool_seed(run
    seed, post id)``, so a pool does not depend on the post's position,
    ``--limit`` or the other posts, and ``decode.decode_candidates`` with
    a sampled pool's config and the post's code rebuilds it. Sampled
    pools come from ``decode.decode_pools``, a group of consecutive posts
    (``_GROUP_ROWS``) per call, and share one nucleus memo for the whole
    run."""
    seed = res.get("seed", int)
    code_limit = _token_limit(res, "code_limit")
    beam_size = res.get("beam_size", int)
    # Checked by this call, before any pool is drawn, so a bad setting
    # fails the run whatever the strategy and however many posts there are.
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    sampling = decode.SamplingConfig(
        top_p=res.get("top_p", float),
        temperature=res.get("temperature", float),
        num_samples=res.get("num_samples", int),
        max_length=res.get("max_length", int),
        seed=seed % 2**64,
    )
    max_length = sampling.max_length
    vocab = model.vocabulary

    def code_of(post: data.Post) -> list[int]:
        return vocab.encode(_code_tokens(post, code_limit))

    def beam_pool(post: data.Post) -> decode.CandidatePool:
        code = code_of(post)
        pool_seed = _pool_seed(seed, post.id)
        seqs = decode.beam_search(
            model, code, beam_size=beam_size, k=beam_size, max_length=max_length
        )
        config = decode.SamplingConfig(
            top_p=1.0, num_samples=max(1, len(seqs)), max_length=max_length, seed=pool_seed
        )
        pool = decode.CandidatePool(vocab.decode(code), [vocab.decode(s) for s in seqs], config)
        pool.meta = _post_meta(post)
        return pool

    def sampled_pools():
        memo = decode.NucleusMemo(model, sampling.top_p, sampling.temperature)
        posts_left = iter(posts)
        per_group = max(1, _GROUP_ROWS // sampling.num_samples)
        while group := list(itertools.islice(posts_left, per_group)):
            jobs = [
                (code_of(post), dataclasses.replace(sampling, seed=_pool_seed(seed, post.id)))
                for post in group
            ]
            for post, pool in zip(group, decode.decode_pools(model, jobs, memo)):
                pool.meta = _post_meta(post)
                yield pool

    return map(beam_pool, posts) if strategy == "beam" else sampled_pools()


def _selector(strategy: str, k: int, dedup: bool = True):
    """``select(pool) -> (indices, diagnostics)``: the first k candidates
    for "rns", maximal marginal selection for "mmns"."""
    config = rank.RankingConfig(k=k, dedup=dedup)

    def select(pool: decode.CandidatePool):
        if strategy == "rns":
            return list(range(min(k, len(pool.candidates)))), None
        sel = rank.maximal_marginal_select(pool, config)
        return sel.indices, {
            "initial_consistency": sel.initial_consistency,
            "marginals": sel.marginals,
        }

    return select


# -- subcommands ------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    if os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise ValueError(f"--out-dir {args.out_dir} is not a directory")
    _require_files(args.input)
    seed = res.get("seed", int)
    spec = data.SplitSpec(
        val_count=res.get("val_count", int),
        test_count=res.get("test_count", int),
        fraction=res.get("fraction", float),
    )
    stats = records.ReadStats()
    posts = list(data.filter_posts(records.read_posts(args.input, stats)))
    if not posts:
        raise ValueError("no posts survive filtering")
    train, validation, test = data.chronological_split(posts, spec, seed)
    splits = {"train": train, "validation": validation, "test": test}
    # Each language's splits go to a directory of its name, beside these.
    outputs = {*(f"{name}.jsonl" for name in splits), "manifest.json"}
    languages = sorted({p.language for p in posts})
    for lang in languages:
        if lang in outputs:
            raise ValueError(f"language {lang!r} has the name of one of prepare's own outputs")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "seed": seed,
        "records_read": stats.read,
        "records_skipped": stats.skipped,
        "filtered_posts": len(posts),
        "languages": {},
    }
    # The manifest is written last: one that exists marks complete splits.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for lang in languages:
        (out_dir / lang).mkdir(exist_ok=True)
        manifest["languages"][lang] = {}
    # Each post is serialized once; its line goes to its split's file and
    # to its language's file of that split.
    for name, split in splits.items():
        lines = [records.dump_json(records.post_to_dict(post)) for post in split]
        records.write_lines(out_dir / f"{name}.jsonl", lines)
        for lang in languages:
            rows = [line for post, line in zip(split, lines) if post.language == lang]
            records.write_lines(out_dir / lang / f"{name}.jsonl", rows)
            manifest["languages"][lang][name] = len(rows)
    for counts in manifest["languages"].values():
        counts["filtered"] = sum(counts.values())
    manifest["totals"] = {name: len(split) for name, split in splits.items()}
    records.write_json(out_dir / "manifest.json", manifest)
    log.info("prepare: %d train / %d validation / %d test", len(train), len(validation), len(test))
    return 0


def cmd_train_lm(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    _require_files(args.train)
    order = res.get("order", int)
    code_limit = _token_limit(res, "code_limit")
    title_limit = _token_limit(res, "title_limit")
    vocab = Vocabulary()
    pairs = []
    for post in records.read_posts(args.train):
        code = vocab.encode(_code_tokens(post, code_limit), grow=True)
        title = vocab.encode(tokenize(post.title)[:title_limit], grow=True)
        pairs.append((code, title))
    model = train_ngram_lm(pairs, order=order, vocab=vocab)
    model.save(args.out)
    log.info("train-lm: order=%d vocab=%d pairs=%d", order, len(vocab), len(pairs))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    model, posts = _decode_inputs(args)
    pools = list(_pools(res, model, posts, args.strategy))
    records.write_jsonl(args.out, map(records.pool_to_dict, pools))
    log.info("generate: %d pools (%s)", len(pools), args.strategy)
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    _require_files(args.pools)
    k = res.get("k", int)
    select = _selector(args.strategy, k, dedup=not args.no_dedup)
    short = 0
    rows = []
    stats = records.ReadStats()
    for raw in records.read_jsonl(args.pools, stats):
        try:
            pool = records.pool_from_dict(raw)
            # Checked here, not by the selector, so every strategy refuses it.
            if not pool.candidates:
                raise ValueError("empty candidate pool")
            indices, diagnostics = select(pool)
        except ValueError as exc:
            meta = raw.get("meta")
            has_id = isinstance(meta, dict) and "id" in meta
            name = f"pool {meta['id']}" if has_id else f"pool on line {stats.line}"
            raise ValueError(f"{name}: {exc}") from None
        if len(indices) < k:
            short += 1
        titles = [" ".join(pool.candidates[i]) for i in indices]
        rows.append(
            records.selection_to_dict(
                pool.meta, titles, args.strategy, indices=indices, diagnostics=diagnostics
            )
        )
    if short:
        log.warning("rank: %d pools had fewer than k=%d distinct candidates", short, k)
    records.write_jsonl(args.out, rows)
    log.info("rank: %d selections (%s, k=%d)", len(rows), args.strategy, k)
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    _require_files(args.input)
    k = res.get("k", int)
    # Checked before anything is read or built, so no input can slip
    # past it or leave an index behind.
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    code_limit = _token_limit(res, "code_limit")
    if args.index:
        _require_files(args.index)
        index = retrieve.BM25Index.load(args.index)
    else:
        if not args.train:
            raise ValueError("either --index or --train is required")
        _require_files(args.train)
        index = retrieve.build_index(
            (post.id, _code_tokens(post, code_limit), post.title)
            for post in records.read_posts(args.train)
        )
    if args.index_out:
        index.save(args.index_out)
    rows = []
    for post in records.read_posts(args.input):
        hits = retrieve.query(index, _code_tokens(post, code_limit), k)
        row = records.selection_to_dict(_post_meta(post), [t for t, _ in hits], "bm25")
        row["scores"] = [s for _, s in hits]
        rows.append(row)
    records.write_jsonl(args.out, rows)
    log.info("retrieve: %d queries against %d docs", len(rows), index.num_docs)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    _require_files(args.selections)
    sweep = _parse_sweep(res.get("k_sweep"))
    references = {}
    if args.references:
        _require_files(args.references)
        references = {p.id: p.title for p in records.read_posts(args.references)}
    examples = []
    stats = records.ReadStats()
    for row in records.read_jsonl(args.selections, stats):
        ref = row.get("reference")
        if ref is None and not isinstance(row.get("id"), (list, dict)):
            ref = references.get(row.get("id"))
        if ref is None:
            raise ValueError(
                f"no reference for selection id={row.get('id')!r}; pass --references"
            )
        titles = row.get("titles")
        reference = tokenize(ref) if isinstance(ref, str) else []
        if not (isinstance(titles, list) and titles and all(isinstance(t, str) for t in titles)):
            problem = "titles must be a nonempty list of strings"
        elif not strip_markers(reference):
            problem = "reference is empty or not a string"
        elif not isinstance(row.get("language"), (str, type(None))):
            problem = "language is not a string"
        else:
            examples.append(
                {
                    "id": row.get("id"),
                    "language": row.get("language"),
                    "candidates": [tokenize(t) for t in titles],
                    "reference": reference,
                }
            )
            continue
        stats.read -= 1
        stats.skipped += 1
        log.warning("%s: skipping selection id=%r (%s)", args.selections, row.get("id"), problem)
    if stats.skipped:
        log.warning("evaluate: skipped %d selection records", stats.skipped)
    if not examples:
        raise ValueError(f"no selections to evaluate ({stats.skipped} skipped)")
    report: dict = {
        "k_sweep": sweep,
        "num_examples": len(examples),
        "aggregate": {},
        "per_example": {},
    }
    by_language: dict[str, list] = {}
    if args.group_by_language:
        for ex in examples:
            by_language.setdefault(ex["language"] or "unknown", []).append(ex)
        report["by_language"] = {}
    reps = metrics.build_reports(
        [(ex["candidates"], ex["reference"]) for ex in examples],
        sweep,
        ids=[ex["id"] for ex in examples],
    )
    for rep in reps:
        report["aggregate"][str(rep.k)] = rep.means
        report["per_example"][str(rep.k)] = rep.per_example
    if args.group_by_language:
        for lang, group in sorted(by_language.items()):
            lang_reps = metrics.build_reports(
                [(ex["candidates"], ex["reference"]) for ex in group], sweep
            )
            report["by_language"][lang] = {str(rep.k): rep.means for rep in lang_reps}
    records.write_json(args.out, report)
    log.info("evaluate: %d examples, k sweep %s", len(examples), sweep)
    return 0


def cmd_compare_strategies(args: argparse.Namespace) -> int:
    """The staged pipeline in memory: generate (sample and beam), rank
    (rns, mmns), evaluate. Only the selections are kept, not the pools."""
    res = _Resolver(args)
    model, posts = _decode_inputs(args)
    sampled, beams = _pools(res, model, posts, "sample"), _pools(res, model, posts, "beam")
    if not posts:
        raise ValueError("no input posts")
    sweep = _parse_sweep(res.get("k_sweep"))
    rns = _selector("rns", sweep[-1])
    mmns = _selector("mmns", sweep[-1])

    selections: dict[str, list[list[list[str]]]] = {"bs": [], "rns": [], "mmns": []}
    refs = [tokenize(post.title) for post in posts]
    for sample, beam in zip(sampled, beams):
        for arm, pool, select in (("bs", beam, rns), ("rns", sample, rns), ("mmns", sample, mmns)):
            indices, _ = select(pool)
            selections[arm].append([pool.candidates[i] for i in indices])

    report: dict = {
        "k_sweep": sweep,
        "num_inputs": len(posts),
        "num_samples": res.get("num_samples", int),
        "beam_size": res.get("beam_size", int),
        "seed": res.get("seed", int),
        "metrics": {name: {s: {} for s in selections} for name in metrics.METRICS},
        "diversity": {s: {} for s in selections},
    }
    for strategy, rows in selections.items():
        reps = metrics.build_reports(list(zip(rows, refs)), sweep)
        for k, rep in zip(sweep, reps):
            for name in metrics.METRICS:
                report["metrics"][name][strategy][str(k)] = rep.means[name]
            diversity = [rank.mean_pairwise_relevance(cands[:k]) for cands in rows]
            report["diversity"][strategy][str(k)] = sum(diversity) / len(diversity)
    records.write_json(args.out, report)
    log.info("compare-strategies: %d inputs, k sweep %s", len(posts), sweep)
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titlegen",
        description="Diverse multi-candidate title generation and selection pipeline.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file supplying flag defaults")
        p.add_argument("--seed", type=int, help="run seed (default: TITLEGEN_SEED or 0)")

    def decoding(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model file from train-lm")
        p.add_argument("--input", required=True, help="input posts JSONL")
        p.add_argument("--top-p", type=float, dest="top_p", help="nucleus threshold")
        p.add_argument("--temperature", type=float, help="softmax temperature")
        p.add_argument("--num-samples", type=int, dest="num_samples", help="candidates per input")
        p.add_argument("--max-length", type=int, dest="max_length", help="max title tokens")
        p.add_argument("--beam-size", type=int, dest="beam_size", help="beam search width")
        p.add_argument("--code-limit", type=int, help="max code tokens per post")
        p.add_argument("--limit", type=int, help="only process the first N inputs")

    p = sub.add_parser("prepare", help="filter raw posts and write chronological splits")
    common(p)
    p.add_argument("--input", required=True, help="raw posts JSONL")
    p.add_argument("--out-dir", required=True, help="directory for split files + manifest")
    p.add_argument("--val-count", type=int, help="validation posts per language")
    p.add_argument("--test-count", type=int, help="test posts per language")
    p.add_argument("--fraction", type=float, help="val/test fraction for small languages")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-lm", help="train the n-gram generator on a split")
    common(p)
    p.add_argument("--train", required=True, help="training posts JSONL")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--order", type=int, help="n-gram order")
    p.add_argument("--code-limit", type=int, help="max code tokens per post")
    p.add_argument("--title-limit", type=int, help="max title tokens per post")
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("generate", help="sample candidate pools for input posts")
    common(p)
    decoding(p)
    p.add_argument("--out", required=True, help="output pools JSONL")
    p.add_argument("--strategy", choices=("sample", "beam"), default="sample")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("rank", help="select K titles from each candidate pool")
    common(p)
    p.add_argument("--pools", required=True, help="pools JSONL from generate")
    p.add_argument("--out", required=True, help="output selections JSONL")
    p.add_argument("--k", type=int, help="titles to select per input")
    p.add_argument("--strategy", choices=("mmns", "rns"), default="mmns")
    p.add_argument("--no-dedup", action="store_true", help="keep exact duplicates eligible")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("retrieve", help="BM25 baseline: retrieve titles for input posts")
    common(p)
    p.add_argument("--input", required=True, help="query posts JSONL")
    p.add_argument("--out", required=True, help="output selections JSONL")
    p.add_argument("--train", help="training posts JSONL to index")
    p.add_argument("--index", help="load a saved index instead of building")
    p.add_argument("--index-out", help="save the built index here")
    p.add_argument("--k", type=int, help="titles to retrieve per query")
    p.add_argument("--code-limit", type=int, help="max code tokens per document/query")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("evaluate", help="score selections against references")
    common(p)
    p.add_argument("--selections", required=True, help="selections JSONL")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--k-sweep", dest="k_sweep", help="comma-separated K values, e.g. 1,3,5")
    p.add_argument("--references", help="posts JSONL to join references by id")
    p.add_argument(
        "--group-by-language", action="store_true", help="add per-language aggregate tables"
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare-strategies", help="run BS vs RNS vs MMNS over a K sweep on one input set"
    )
    common(p)
    decoding(p)
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--k-sweep", dest="k_sweep", help="comma-separated K values")
    p.set_defaults(func=cmd_compare_strategies)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves a parser unchanged, so
    # in-process callers need not pay for a build on every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The handler is set up by the first call; the level is each call's.
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        # Every output path is checked before the stage does any work.
        for name in ("out", "index_out"):
            _require_writable(f"--{name.replace('_', '-')}", getattr(args, name, None))
        return args.func(args)
    # A MemoryError is numpy refusing an array no host could hold, such as
    # the uniforms of --max-length 10**12: a bad value like any other.
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"titlegen {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
