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
from collections.abc import Container
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Mention
from .encoder import (
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    DesignWorkspace,
    FeatureVector,
    TextFeaturizer,
    load_arrays,
    ngram_counts_many,
    save_arrays,
)
from .errors import (
    DimensionMismatch,
    EmptyRetrievals,
    InvalidConfig,
    NonFiniteScore,
    ParseError,
    TrainingDiverged,
    UnknownMention,
)
from .kb import Event, read_jsonl
from .metrics import NULL_EVENT, EvalRecord, set_metrics
from .retrieval import RetrievalResult, check_candidates
from .seeding import substream_rng
from .training import sigmoid

BLOCK_BUCKETS = 4096
N_BLOCKS = 3
PAIR_DIM = N_BLOCKS * BLOCK_BUCKETS
DEFAULT_HIDDEN = 32
DEFAULT_GRID = (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9)


Block = tuple[np.ndarray, np.ndarray]


def _block_counts(texts: list[str]) -> list[Block]:
    return ngram_counts_many(texts, BLOCK_BUCKETS)


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


class PairFeaturizer(TextFeaturizer):
    """Memoized pair featurization over a fixed corpus.

    Each mention window and each (event, language) text is hashed once
    into raw ``BLOCK_BUCKETS`` counts, kept as sorted arrays.  With
    ``keep_pairs`` each (mention id, event id) pair vector is also built
    once and kept, for a run that scores again the pairs it trained on;
    without it a one-pass scorer holds no pair vector it is done with.
    """

    def __init__(
        self,
        events: list[Event],
        mode: str = "multilingual",
        max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
        keep_pairs: bool = False,
    ):
        super().__init__(events, _block_counts, mode, max_context_chars, max_cand_chars)
        self._pairs: dict[tuple[str, str], FeatureVector] | None = {} if keep_pairs else None

    def pair_fv(self, mention: Mention, event_id: str) -> FeatureVector:
        key = (mention.id, event_id)
        if self._pairs is not None and key in self._pairs:
            return self._pairs[key]
        fv = _pair_fv(
            self.mention(mention),
            self.event(event_id, mention.language, _candidate_of(mention)),
        )
        if self._pairs is not None:
            self._pairs[key] = fv
        return fv


def _candidate_of(mention: Mention) -> str:
    return f"candidate of mention {mention.id!r}"


@dataclass
class RerankerParams:
    """One tanh hidden layer: score = w . tanh(V'x + c) + b."""

    V: np.ndarray
    c: np.ndarray
    w: np.ndarray
    b: float

    def __post_init__(self):
        if self.V.ndim != 2 or not self.w.shape == self.c.shape == (self.V.shape[1],):
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
        if not self.learning_rate > 0:  # NaN fails
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
    events: Container[str],
) -> None:
    """Raise UnknownMention or UnknownEvent for the first id not in the corpus."""
    for result in results:
        _mention_of(mentions, result.mention_id)
        check_candidates(result, events)


# overflow surfaces as non-finite logits, which raise TrainingDiverged
@np.errstate(over="ignore", invalid="ignore")
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
    substream and consumed in minibatches by plain SGD.  The first step
    whose logits are not finite raises ``TrainingDiverged``.
    """
    if not results:
        raise EmptyRetrievals("reranker needs training retrievals")
    result_mentions = [_mention_of(mentions, result.mention_id) for result in results]
    featurizer.mentions(result_mentions)
    examples: list[tuple[FeatureVector, float]] = []
    for result, mention in zip(results, result_mentions):
        gold = frozenset(golds[result.mention_id])
        candidate_ids = substitute_missing_golds(result.event_ids[: config.k], gold)
        featurizer.events(candidate_ids, mention.language, _candidate_of(mention))
        for event_id in candidate_ids:
            examples.append(
                (featurizer.pair_fv(mention, event_id), 1.0 if event_id in gold else 0.0)
            )

    params = init_reranker(PAIR_DIM, config.hidden, config.seed)
    workspace = SGDWorkspace([fv for fv, _ in examples], params, config.batch_size)
    rng = substream_rng(config.seed, "rerank_batch")
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            logits = _reranker_sgd_step(params, batch, config.learning_rate, workspace)
            if not np.isfinite(logits).all():
                value = float(logits[~np.isfinite(logits)][0])
                raise TrainingDiverged("reranker", epoch, step, value)
    return params


class SGDWorkspace(DesignWorkspace):
    """The buffers every SGD step of one reranker training run reuses.

    The design-matrix buffers span the P rows of V and a flat X sized for
    any batch, and ``V_rows`` and ``grad`` hold a batch's rows of V and
    their gradient, so a step allocates nothing the size of its rows.
    Building the workspace checks every example once: its dimension is
    P and its indices are strictly ascending, as the design kernel's fill
    by assignment needs.
    """

    def __init__(self, fvs: list[FeatureVector], params: RerankerParams, batch_size: int):
        sizes = []
        for fv in fvs:
            if fv.F != params.P:
                raise DimensionMismatch(f"pair feature dim {fv.F} vs reranker {params.P}")
            if np.any(fv.indices[1:] <= fv.indices[:-1]):
                raise DimensionMismatch("pair feature indices must be strictly ascending")
            sizes.append(fv.indices.size)
        # a batch touches at most the nonzeros of its batch_size largest examples
        max_rows = min(params.P, sum(sorted(sizes)[-batch_size:]))
        super().__init__(params.P, batch_size * max_rows)
        self.V_rows = np.empty((max_rows, params.h))
        self.grad = np.empty((max_rows, params.h))


def _reranker_sgd_step(
    params: RerankerParams,
    batch: list[tuple[FeatureVector, float]],
    lr: float,
    ws: SGDWorkspace,
) -> np.ndarray:
    """One SGD step on the mean BCE of the batch; returns its logits.

    The batch's design matrix spans the ascending rows of V its features
    touch, so the forward pass and the gradient of V are two matrix
    products restricted to those rows, computed in ``ws``.
    """
    n = len(batch)
    ws.reset()
    rows, _, X = ws.design(params.V, [fv for fv, _ in batch])
    r = rows.size
    labels = np.array([label for _, label in batch])
    # mode="clip" lets take write into out without a buffered copy
    V_rows = params.V.take(rows, axis=0, out=ws.V_rows[:r], mode="clip")
    A = np.tanh(X @ V_rows + params.c)
    logits = A @ params.w + params.b
    G = (sigmoid(logits) - labels) / n
    DZ = G[:, None] * params.w * (1.0 - A * A)
    grad = np.matmul(X.T, DZ, out=ws.grad[:r])
    grad *= lr
    params.V[rows] = np.subtract(V_rows, grad, out=V_rows)
    params.c -= lr * DZ.sum(axis=0)
    params.w -= lr * (G @ A)
    params.b -= lr * float(G.sum())
    return logits


def score_candidates(
    params: RerankerParams,
    featurizer: PairFeaturizer,
    mention: Mention,
    result: RetrievalResult,
    k: int | None = None,
) -> list[tuple[str, float]]:
    """Candidates rescored and sorted descending, ties by ascending id.

    A candidate listed more than once is scored once and kept as often as
    it is listed.
    """
    if not result.candidates:
        raise EmptyRetrievals(f"mention {mention.id!r} has no candidates")
    ids = result.event_ids if k is None else result.event_ids[:k]
    distinct = list(dict.fromkeys(ids))
    featurizer.events(distinct, mention.language, _candidate_of(mention))
    scores = {
        event_id: score_pair(params, featurizer.pair_fv(mention, event_id))
        for event_id in distinct
    }
    return sorted(
        ((event_id, scores[event_id]) for event_id in ids),
        key=lambda pair: (-pair[1], pair[0]),
    )


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
    result_mentions = [_mention_of(mentions, result.mention_id) for result in results]
    featurizer.mentions(result_mentions)
    scored_results = []
    for result, mention in zip(results, result_mentions):
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
    return {
        obj["mention_id"]: frozenset(obj["predicted"])
        for _, obj in read_jsonl(path, mention_id=str, predicted=list[str])
    }


# ---------------------------------------------------------------------------
# Persistence: the encoder's checkpoint container, kind "reranker".


def save_reranker(
    path: str | Path, params: RerankerParams, threshold: float | None = None
) -> None:
    arrays = {"V": params.V, "c": params.c, "w": params.w, "b": np.array([params.b])}
    save_arrays(path, "reranker", arrays, threshold=threshold)


def load_reranker(path: str | Path) -> tuple[RerankerParams, float | None]:
    arrays, meta = load_arrays(path, "reranker", ("V", "c", "w", "b"))
    try:
        # item() raises ValueError unless b holds exactly one value
        params = RerankerParams(V=arrays["V"], c=arrays["c"], w=arrays["w"], b=arrays["b"].item())
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(path), 1, str(exc)) from exc
    if not all(np.isfinite(a).all() for a in (params.V, params.c, params.w, params.b)):
        raise NonFiniteScore("reranker weights", str(path))
    return params, meta.get("threshold")
