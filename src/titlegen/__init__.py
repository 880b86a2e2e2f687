"""Diverse multi-candidate title generation and selection.

Pipeline: ingest posts, train (or plug in) an autoregressive generator,
sample M nucleus-filtered candidates per input, select K diverse titles
by maximal marginal ranking, and evaluate with smoothed BLEU-4,
ROUGE-1/2/L, and best-of-K aggregation, alongside beam-search and BM25
baselines.
"""

from ._kernels import BACKEND
from .data import Post, SplitSpec, chronological_split, concat_snippets, filter_posts
from .decode import (
    CandidatePool,
    NucleusMemo,
    SamplingConfig,
    beam_search,
    decode_candidates,
    nucleus_filter,
)
from .lm import GeneratorModel, NGramLM, train_ngram_lm
from .metrics import (
    METRICS,
    MetricReport,
    bleus4,
    build_report,
    build_reports,
    metric_at_k,
    rouge_l,
    rouge_n,
)
from .rank import (
    RankedSelection,
    RankingConfig,
    maximal_marginal_select,
    mean_pairwise_relevance,
    relevance,
)
from .retrieve import BM25Index, build_index, query
from .text import (
    END,
    NEXT,
    PAD,
    RESERVED,
    START,
    UNK,
    Vocabulary,
    detokenize,
    strip_markers,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BM25Index",
    "CandidatePool",
    "END",
    "GeneratorModel",
    "METRICS",
    "MetricReport",
    "NEXT",
    "NGramLM",
    "NucleusMemo",
    "PAD",
    "Post",
    "RESERVED",
    "RankedSelection",
    "RankingConfig",
    "SamplingConfig",
    "SplitSpec",
    "START",
    "UNK",
    "Vocabulary",
    "__version__",
    "beam_search",
    "bleus4",
    "build_index",
    "build_report",
    "build_reports",
    "chronological_split",
    "concat_snippets",
    "decode_candidates",
    "detokenize",
    "filter_posts",
    "maximal_marginal_select",
    "mean_pairwise_relevance",
    "metric_at_k",
    "nucleus_filter",
    "query",
    "relevance",
    "rouge_l",
    "rouge_n",
    "strip_markers",
    "tokenize",
    "train_ngram_lm",
]
