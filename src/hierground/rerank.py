"""Trainable pair scorer over joint mention-event features.

The bi-encoder's dot product cannot model interactions between a
specific mention and candidate, so reranking scores pairs through a
small hidden layer over three hashed blocks: the mention window, the
event text, and an intersection block holding the minimum shared n-gram
counts.  Candidates above a probability threshold form the predicted
set; an empty set is replaced by the reserved NULL event.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Mention
from .encoder import (
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    FeatureVector,
    design_matrix,
    event_text,
    fnv1a64,
    span_window,
)
from .errors import (
    DimensionMismatch,
    EmptyRetrievals,
    InvalidConfig,
    ParseError,
    UnknownEvent,
    UnknownMention,
)
from .kb import Event
from .metrics import NULL_EVENT, EvalRecord, set_metrics
from .retrieval import RetrievalResult
from .seeding import substream_rng
from .training import sigmoid

BLOCK_BUCKETS = 4096
N_BLOCKS = 3
PAIR_DIM = N_BLOCKS * BLOCK_BUCKETS
DEFAULT_HIDDEN = 32
DEFAULT_GRID = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9)
NGRAM_SIZES = (3, 4, 5)


Block = tuple[np.ndarray, np.ndarray]


def _bucket_counts(text: str, buckets: int = BLOCK_BUCKETS) -> Block:
    """Ascending bucket ids of the text's n-grams and their counts."""
    counts: dict[int, float] = {}
    for n in NGRAM_SIZES:
        for start in range(len(text) - n + 1):
            bucket = fnv1a64(text[start : start + n].encode("utf-8")) % buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    keys = sorted(counts)
    return np.array(keys, dtype=np.int64), np.array([counts[k] for k in keys], dtype=float)


def _pair_fv(mention: Block, event: Block) -> FeatureVector:
    """Concatenate the three L2-normalized blocks into one sparse vector.

    The interaction block holds, for every bucket both texts hit, the
    smaller of the two counts.
    """
    (m_keys, m_counts), (e_keys, e_counts) = mention, event
    shared, m_at, e_at = np.intersect1d(
        m_keys, e_keys, assume_unique=True, return_indices=True
    )
    blocks = (mention, event, (shared, np.minimum(m_counts[m_at], e_counts[e_at])))
    return FeatureVector(
        indices=np.concatenate(
            [block * BLOCK_BUCKETS + keys for block, (keys, _) in enumerate(blocks)]
        ),
        values=np.concatenate([counts / np.linalg.norm(counts) for _, counts in blocks]),
        F=PAIR_DIM,
    )


def featurize_pair(
    mention: Mention,
    event: Event,
    mode: str = "multilingual",
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> FeatureVector:
    language = mention.language if mode == "multilingual" else "en"
    return _pair_fv(
        _bucket_counts(span_window(mention, max_context_chars)),
        _bucket_counts(event_text(event, language, max_cand_chars=max_cand_chars)),
    )


class PairFeaturizer:
    """Memoized pair featurization over a fixed corpus.

    Each mention window and each (event, language) text is hashed once;
    its bucket counts are kept on the instance as sorted arrays.
    """

    def __init__(
        self,
        events: list[Event],
        mode: str = "multilingual",
        max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    ):
        if mode not in ("multilingual", "crosslingual"):
            raise InvalidConfig(f"unknown language mode {mode!r}")
        self.events = {event.id: event for event in events}
        self.mode = mode
        self.max_context_chars = max_context_chars
        self.max_cand_chars = max_cand_chars
        self._mention: dict[str, Block] = {}
        self._event: dict[tuple[str, str], Block] = {}

    def pair_fv(self, mention: Mention, event_id: str) -> FeatureVector:
        if mention.id not in self._mention:
            self._mention[mention.id] = _bucket_counts(
                span_window(mention, self.max_context_chars)
            )
        language = mention.language if self.mode == "multilingual" else "en"
        key = (event_id, language)
        if key not in self._event:
            event = self.events.get(event_id)
            if event is None:
                raise UnknownEvent(event_id, f"candidate of mention {mention.id!r}")
            self._event[key] = _bucket_counts(
                event_text(event, language, max_cand_chars=self.max_cand_chars)
            )
        return _pair_fv(self._mention[mention.id], self._event[key])


@dataclass
class RerankerParams:
    """One tanh hidden layer: score = w . tanh(V'x + c) + b."""

    V: np.ndarray
    c: np.ndarray
    w: np.ndarray
    b: float

    def __post_init__(self):
        h = self.w.shape[0]
        if self.V.ndim != 2 or self.V.shape[1] != h or self.c.shape != (h,):
            raise DimensionMismatch("V must be P x h with c and w of length h")

    @property
    def P(self) -> int:
        return self.V.shape[0]

    @property
    def h(self) -> int:
        return self.w.shape[0]


@dataclass
class RerankConfig:
    k: int = 8
    grid: tuple[float, ...] = DEFAULT_GRID
    threshold: float | None = None
    epochs: int = 5
    learning_rate: float = 0.5
    batch_size: int = 64
    hidden: int = DEFAULT_HIDDEN
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.epochs < 1 or self.batch_size < 1 or self.hidden < 1:
            raise InvalidConfig("k, epochs, batch_size and hidden must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")
        if not self.grid or any(not 0.0 < g < 1.0 for g in self.grid):
            raise InvalidConfig("grid values must lie in (0, 1)")
        if self.threshold is not None and not 0.0 < self.threshold < 1.0:
            raise InvalidConfig("threshold must lie in (0, 1)")


def init_reranker(
    P: int = PAIR_DIM, hidden: int = DEFAULT_HIDDEN, seed: int = 0
) -> RerankerParams:
    rng = substream_rng(seed, "rerank_init")
    return RerankerParams(
        V=rng.uniform(-0.05, 0.05, size=(P, hidden)),
        c=np.zeros(hidden),
        w=rng.uniform(-0.05, 0.05, size=hidden),
        b=0.0,
    )


def score_pair(params: RerankerParams, fv: FeatureVector) -> float:
    if fv.F != params.P:
        raise DimensionMismatch(f"pair feature dim {fv.F} vs reranker {params.P}")
    z = fv.values @ params.V[fv.indices] + params.c
    return float(params.w @ np.tanh(z) + params.b)


def substitute_missing_golds(candidates: list[str], gold: frozenset[str]) -> list[str]:
    """Replace the lowest-scored negatives with the missing gold events.

    ``candidates`` must be score-descending; the result keeps length k,
    never evicts a gold candidate, and inserts missing golds (ascending
    id) from the bottom of the list upward.
    """
    if len(gold) > len(candidates):
        raise InvalidConfig(
            f"gold set of {len(gold)} exceeds candidate list of {len(candidates)}"
        )
    present = set(candidates)
    missing = sorted(gold - present)
    out = list(candidates)
    slot = len(out) - 1
    for event_id in missing:
        while out[slot] in gold:
            slot -= 1
        out[slot] = event_id
        slot -= 1
    return out


def _mention_of(mentions: dict[str, Mention], mention_id: str) -> Mention:
    try:
        return mentions[mention_id]
    except KeyError:
        raise UnknownMention(mention_id, "retrieval list") from None


def check_retrieval_ids(
    results: list[RetrievalResult],
    mentions: dict[str, Mention],
    events: dict[str, Event],
) -> None:
    """Raise UnknownMention or UnknownEvent for the first id not in the corpus."""
    for result in results:
        _mention_of(mentions, result.mention_id)
        for event_id in result.event_ids:
            if event_id not in events:
                raise UnknownEvent(event_id, f"candidate of mention {result.mention_id!r}")


def train_reranker(
    results: list[RetrievalResult],
    golds: dict[str, tuple[str, ...]],
    mentions: dict[str, Mention],
    featurizer: PairFeaturizer,
    config: RerankConfig,
) -> RerankerParams:
    """BCE training on the top-k candidates with missing golds substituted.

    Every (mention, candidate) pair is one example labeled by gold
    membership; examples are shuffled each epoch from a dedicated
    substream and consumed in minibatches by plain SGD.
    """
    if not results:
        raise EmptyRetrievals("reranker needs training retrievals")
    examples: list[tuple[FeatureVector, float]] = []
    for result in results:
        mention = _mention_of(mentions, result.mention_id)
        gold = frozenset(golds[result.mention_id])
        candidate_ids = substitute_missing_golds(result.event_ids[: config.k], gold)
        for event_id in candidate_ids:
            examples.append(
                (featurizer.pair_fv(mention, event_id), 1.0 if event_id in gold else 0.0)
            )

    params = init_reranker(PAIR_DIM, config.hidden, config.seed)
    rng = substream_rng(config.seed, "rerank_batch")
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), config.batch_size):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            _reranker_sgd_step(params, batch, config.learning_rate)
    return params


def _reranker_sgd_step(
    params: RerankerParams, batch: list[tuple[FeatureVector, float]], lr: float
) -> None:
    """One SGD step on the mean BCE of the batch.

    The batch's design matrix spans the union of its feature indices, so
    the forward pass and the gradient of V are two matrix products
    restricted to those rows of V.
    """
    n = len(batch)
    rows, X = design_matrix([fv for fv, _ in batch], params.P)
    labels = np.array([label for _, label in batch])
    V_rows = params.V[rows]
    A = np.tanh(X @ V_rows + params.c)
    G = (sigmoid(A @ params.w + params.b) - labels) / n
    DZ = G[:, None] * params.w * (1.0 - A * A)
    params.V[rows] = V_rows - lr * (X.T @ DZ)
    params.c -= lr * DZ.sum(axis=0)
    params.w -= lr * (G @ A)
    params.b -= lr * float(G.sum())


def score_candidates(
    params: RerankerParams,
    featurizer: PairFeaturizer,
    mention: Mention,
    result: RetrievalResult,
    k: int | None = None,
) -> list[tuple[str, float]]:
    """Candidates rescored and sorted descending, ties by ascending id."""
    if not result.candidates:
        raise EmptyRetrievals(f"mention {mention.id!r} has no candidates")
    ids = result.event_ids if k is None else result.event_ids[:k]
    scored = [
        (event_id, score_pair(params, featurizer.pair_fv(mention, event_id)))
        for event_id in ids
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def candidate_probs(scored: list[tuple[str, float]]) -> np.ndarray:
    """sigmoid of each score, in the order of ``scored``."""
    return sigmoid(np.array([score for _, score in scored]))


def kept_set(
    scored: list[tuple[str, float]], probs: np.ndarray, threshold: float
) -> frozenset[str]:
    """Scored candidates whose probability is >= threshold, or {NULL} when none."""
    kept = frozenset(event_id for (event_id, _), p in zip(scored, probs) if p >= threshold)
    return kept if kept else frozenset({NULL_EVENT})


def predict_set(
    params: RerankerParams,
    featurizer: PairFeaturizer,
    mention: Mention,
    result: RetrievalResult,
    threshold: float,
    k: int | None = None,
) -> frozenset[str]:
    """Candidates with sigmoid(score) >= threshold, or {NULL} when none."""
    scored = score_candidates(params, featurizer, mention, result, k)
    return kept_set(scored, candidate_probs(scored), threshold)


def select_threshold(
    params: RerankerParams,
    featurizer: PairFeaturizer,
    results: list[RetrievalResult],
    golds: dict[str, tuple[str, ...]],
    mentions: dict[str, Mention],
    grid: tuple[float, ...] = DEFAULT_GRID,
    k: int | None = None,
) -> float:
    """Grid value maximizing strict accuracy x macro F1 x micro F1 on dev.

    Each candidate is scored once; every grid value is then evaluated
    from the same rerank orders and probabilities.  Ties resolve toward
    the smaller threshold, which keeps recall when the product plateaus.
    """
    if not grid:
        raise InvalidConfig("threshold grid must be non-empty")
    scored_results = []
    for result in results:
        mention = _mention_of(mentions, result.mention_id)
        scored = score_candidates(params, featurizer, mention, result, k)
        scored_results.append(
            (result, scored, candidate_probs(scored), [e for e, _ in scored])
        )
    best_tau = None
    best_product = -1.0
    for tau in sorted(grid):
        m = set_metrics(
            [
                EvalRecord(
                    mention_id=result.mention_id,
                    gold=golds[result.mention_id],
                    ranking=result.event_ids,
                    predicted=kept_set(scored, probs, tau),
                    rerank_order=order,
                )
                for result, scored, probs, order in scored_results
            ]
        )
        product = m["strict_acc"] * m["macro_f1"] * m["micro_f1"]
        if product > best_product:
            best_product = product
            best_tau = tau
    return float(best_tau)


def write_predictions(
    predictions: list[tuple[str, frozenset[str]]], path: str | Path
) -> None:
    """predictions.jsonl: per mention, the predicted ids in sorted order."""
    with open(path, "w", encoding="utf-8") as fh:
        for mention_id, predicted in predictions:
            record = {"mention_id": mention_id, "predicted": sorted(predicted)}
            fh.write(json.dumps(record) + "\n")


def load_predictions(path: str | Path) -> dict[str, frozenset[str]]:
    predictions: dict[str, frozenset[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                predictions[obj["mention_id"]] = frozenset(obj["predicted"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
    return predictions


# ---------------------------------------------------------------------------
# Persistence: same container style as encoder checkpoints (JSON header
# line, then row-major '<f8' arrays in header order).


def save_reranker(
    path: str | Path, params: RerankerParams, threshold: float | None = None
) -> None:
    header = {
        "format_version": 1,
        "kind": "reranker",
        "P": params.P,
        "h": params.h,
        "arrays": [
            {"name": "V", "shape": [params.P, params.h]},
            {"name": "c", "shape": [params.h]},
            {"name": "w", "shape": [params.h]},
            {"name": "b", "shape": [1]},
        ],
        "threshold": threshold,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for arr in (params.V, params.c, params.w, np.array([params.b])):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_reranker(path: str | Path) -> tuple[RerankerParams, float | None]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format_version") != 1 or header.get("kind") != "reranker":
            raise ParseError(str(path), 1, "not a reranker checkpoint")
        arrays = {}
        for spec_entry in header["arrays"]:
            shape = tuple(spec_entry["shape"])
            count = int(np.prod(shape))
            data = fh.read(count * 8)
            if len(data) != count * 8:
                raise ParseError(str(path), 1, "checkpoint truncated")
            arrays[spec_entry["name"]] = (
                np.frombuffer(data, dtype="<f8").reshape(shape).copy()
            )
    params = RerankerParams(
        V=arrays["V"], c=arrays["c"], w=arrays["w"], b=float(arrays["b"][0])
    )
    return params, header.get("threshold")
