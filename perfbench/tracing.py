"""Span tracing from outside the package.

``install`` replaces public names of ``titlegen`` at the place each one
is looked up (a module attribute or a class attribute) with wrappers
that record a span per call: name, start, end and the index of the
enclosing span. Generator functions get one span per ``next``. Spans
stay in memory until ``dump`` writes them at the end of the run.

No file of the package changes; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.read_stats: list = []  # every ReadStats the package created
        self._stack: list[int] = []
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(span)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(span)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, make=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__))
        elif make is not None:
            replacement = make(original)
        else:
            replacement = self.wrap(name, original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        counts = dict(self.counts)
        counts["records.skipped"] = sum(s.skipped for s in self.read_stats)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from titlegen import _kernels, cli, data, decode, metrics, rank, records, retrieve
    from titlegen.lm import NGramLM

    tracer.patch(_kernels, "sample_step_kernel", "kernels.sample_step")
    tracer.patch(_kernels, "lcs_length_kernel", "kernels.lcs_length")
    tracer.patch(NGramLM, "next_distribution", "lm.next_distribution")
    tracer.patch(NGramLM, "load", "lm.load")
    tracer.patch(decode, "decode_candidates", "decode.decode_candidates")
    tracer.patch(decode, "beam_search", "decode.beam_search")
    tracer.patch(rank, "maximal_marginal_select", "rank.maximal_marginal_select")
    tracer.patch(rank, "relevance", "rank.relevance")
    tracer.patch(retrieve, "build_index", "retrieve.build_index")
    tracer.patch(retrieve, "query", "retrieve.query", make=lambda fn: _traced_query(tracer, fn))
    tracer.patch(data, "chronological_split", "data.chronological_split")
    tracer.patch(metrics, "build_report", "metrics.build_report")
    tracer.patch(cli, "tokenize", "text.tokenize")
    tracer.patch(cli, "train_ngram_lm", "lm.train")
    for attr in ("dump_json", "write_jsonl", "write_json", "read_jsonl", "post_to_dict",
                 "post_from_dict", "read_posts", "pool_to_dict", "pool_from_dict",
                 "selection_to_dict"):
        tracer.patch(records, attr, f"records.{attr}")
    tracer.patch(records, "ReadStats", "", make=lambda cls: _counted_stats(tracer, cls))


def _traced_query(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(index, code, k):
        hits = tracer.span("retrieve.query", fn, index, code, k)
        # Postings the query walked: one list per query token occurrence.
        tracer.counts["retrieve.postings_scanned"] += sum(
            len(index.postings.get(term, ())) for term in code
        )
        return hits

    return traced


def _counted_stats(tracer: Tracer, cls):
    """A ReadStats subclass whose instances the tracer keeps, so the
    records each stage skipped can be summed at the end."""

    class CountedReadStats(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.read_stats.append(self)

    return CountedReadStats


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, and, for each
    parent name, how many child calls it made."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "under": {}})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        if parent >= 0:
            under = entry["under"]
            pname = spans[parent][0]
            under[pname] = under.get(pname, 0) + 1
    return out
