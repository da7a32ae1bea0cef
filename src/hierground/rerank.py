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
import math
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Mention
from .encoder import (
    BLOCK_ROWS,
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    NGRAM_SIZES,
    DesignWorkspace,
    FeatureVector,
    TextFeaturizer,
    check_keys,
    load_arrays,
    ngram_count_runs,
    save_arrays,
)
from .errors import (
    DimensionMismatch,
    EmptyRetrievals,
    InvalidConfig,
    NonFiniteScore,
    ParseError,
    TrainingDiverged,
    UnknownEvent,
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


# the dtype V is trained, held and stored in: a reranker step is
# memory-bound, so float32 rows halve its bytes; c, w, b, the logits and
# the probabilities stay float64
V_DTYPE = np.dtype(np.float32)
# the dtype of every bucket id of a Block and of a pair vector: the
# smallest integer dtype that holds PAIR_DIM - 1
ID_DTYPE = np.min_scalar_type(PAIR_DIM - 1)


class Block(NamedTuple):
    """One text's n-gram buckets: the ascending ``keys`` in [0,
    ``BLOCK_BUCKETS``), their raw ``counts``, the L2-normalized ``values``
    and ``shifted``, the keys' indices in the event block.  Keys and
    shifted keys are ``ID_DTYPE``, the counts an unsigned integer dtype
    and the values ``V_DTYPE``."""

    keys: np.ndarray
    counts: np.ndarray
    values: np.ndarray
    shifted: np.ndarray


def _blocks(texts: list[str]) -> list[Block]:
    """Each text's ``Block``, as the kernel counted and normalized it.

    Each run of the kernel's is range-checked and cast once: the keys to
    ``ID_DTYPE``; the counts to the smallest unsigned dtype that holds
    ``len(NGRAM_SIZES)`` times the longest text's length, which bounds
    every count (a text of L characters has at most that many n-grams),
    so no window is too long for it; and the values to ``V_DTYPE``, the
    one rounding that scoring and the SGD design matrix would otherwise
    each make.  The texts' arrays are read-only slices of their run's.
    """
    count_dtype = np.min_scalar_type(len(NGRAM_SIZES) * max(map(len, texts), default=0))
    blocks = []
    for keys, counts, values, bounds in ngram_count_runs(texts, BLOCK_BUCKETS):
        check_keys(keys, BLOCK_BUCKETS)
        # keys in range and whole counts that count_dtype holds: only the
        # values' cast rounds
        keys, counts = keys.astype(ID_DTYPE), counts.astype(count_dtype)
        values, shifted = values.astype(V_DTYPE), keys + BLOCK_BUCKETS
        for array in (keys, counts, values, shifted):
            array.flags.writeable = False
        blocks += [
            Block(keys[lo:hi], counts[lo:hi], values[lo:hi], shifted[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return blocks


def _pair_run(mentions: list[Block], events: list[Block]) -> list[FeatureVector]:
    """The pair vector of each (``mentions[i]``, ``events[i]``), all built
    in one array pass.

    A vector concatenates three L2-normalized blocks: the mention's, the
    event's and the interaction block, which holds, for every bucket both
    texts hit, the smaller of the two counts.  Every key of the run becomes
    a (pair, bucket) code, int32 while the run's pairs fit, ascending
    within and across pairs, so one ``searchsorted`` of the mention codes
    in the event codes finds every shared bucket.  The interaction blocks
    are normalized in float64, as the float counts were: each pair's norm
    is the square root of a ``bincount`` of its squared counts, an exact
    integer and so bit-equal to ``sqrt(shared @ shared)``; they are rounded
    to ``V_DTYPE`` once.  One concatenation holds every vector, which is a
    read-only view of its slice.  Block keys lie in [0, ``BLOCK_BUCKETS``),
    so every index is in [0, ``PAIR_DIM``) and the vectors skip the
    per-vector range check; they keep the blocks' ``ID_DTYPE``: 6 bytes a
    nonzero.
    """
    n = len(mentions)
    code_dtype = np.int32 if n * BLOCK_BUCKETS <= np.iinfo(np.int32).max else np.int64
    first = np.arange(n, dtype=code_dtype) * BLOCK_BUCKETS
    m_keys = np.concatenate([m.keys for m in mentions])
    m_codes = np.repeat(first, [m.keys.size for m in mentions]) + m_keys
    e_codes = np.repeat(first, [e.keys.size for e in events]) + np.concatenate(
        [e.keys for e in events]
    )
    e_at = np.searchsorted(e_codes, m_codes)
    # the -1 after the last event code matches no mention code
    m_at = np.flatnonzero(np.append(e_codes, -1)[e_at] == m_codes)
    e_at = e_at[m_at]
    shared = np.minimum(
        np.concatenate([m.counts for m in mentions])[m_at],
        np.concatenate([e.counts for e in events])[e_at],
    ).astype(np.float64)
    pair = m_codes[m_at] // BLOCK_BUCKETS
    shared /= np.sqrt(np.bincount(pair, weights=shared * shared, minlength=n))[pair]
    s_keys, s_values = 2 * BLOCK_BUCKETS + m_keys[m_at], shared.astype(V_DTYPE)
    s_bounds = np.searchsorted(pair, np.arange(n + 1)).tolist()
    index_parts, value_parts, bounds = [], [], [0]
    for m, e, lo, hi in zip(mentions, events, s_bounds[:-1], s_bounds[1:]):
        index_parts += (m.keys, e.shifted, s_keys[lo:hi])
        value_parts += (m.values, e.values, s_values[lo:hi])
        bounds.append(bounds[-1] + m.keys.size + e.keys.size + hi - lo)
    indices, values = np.concatenate(index_parts), np.concatenate(value_parts)
    indices.flags.writeable = values.flags.writeable = False
    return [
        FeatureVector.prechecked(indices[lo:hi], values[lo:hi], PAIR_DIM)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


RUN_MENTIONS = 32  # mentions whose new pair vectors one _pair_run call builds


class PairFeaturizer(TextFeaturizer):
    """Memoized pair featurization over a fixed corpus.

    Each mention window and each (event, language) text is hashed once
    into a ``Block`` of ``BLOCK_BUCKETS`` buckets, normalized once.  Pair
    vectors are built a run of mentions at a time.  With ``keep_pairs``
    each (mention id, event id) pair vector is also built once and kept,
    for a run that scores again the pairs it trained on; without it a
    one-pass scorer holds one run's pair vectors at a time.
    """

    def __init__(
        self,
        events: list[Event],
        mode: str = "multilingual",
        max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
        keep_pairs: bool = False,
    ):
        super().__init__(events, _blocks, mode, max_context_chars, max_cand_chars)
        self._pairs: dict[tuple[str, str], FeatureVector] | None = {} if keep_pairs else None

    def pair_fvs(
        self, mentions: list[Mention], event_ids: Iterable[list[str]]
    ) -> Iterator[dict[str, FeatureVector]]:
        """Per mention, its pair vector with each of its ``event_ids``,
        keyed by event id.

        The mentions go ``RUN_MENTIONS`` at a time, each run's lists read
        from ``event_ids`` when it starts: the texts of the run's pairs not
        kept yet go to one ``featurize`` call, and those pairs, each built
        once, to one ``_pair_run`` call.  A caller that drops each dict once
        read holds at most two runs' vectors beside the kept ones: a run's
        vectors are views of its arrays, which its last dict keeps while
        the next run is built.
        """
        lists = iter(event_ids)
        for lo in range(0, len(mentions), RUN_MENTIONS):
            run = mentions[lo : lo + RUN_MENTIONS]
            ids = list(islice(lists, len(run)))
            pairs = {} if self._pairs is None else self._pairs
            new: dict[tuple[str, str], Mention] = {}
            for mention, listed in zip(run, ids):
                for event_id in listed:
                    key = (mention.id, event_id)
                    if key not in pairs and key not in new:
                        if event_id not in self.corpus:
                            raise UnknownEvent(event_id, f"candidate of mention {mention.id!r}")
                        new[key] = mention
            if new:
                m_blocks, e_blocks = self.featurize(
                    list(new.values()), [(e, m.language) for (_, e), m in new.items()]
                )
                pairs.update(zip(new, _pair_run(m_blocks, e_blocks)))
            for mention, listed in zip(run, ids):
                yield {event_id: pairs[mention.id, event_id] for event_id in listed}

    def pair_fv(self, mention: Mention, event_id: str) -> FeatureVector:
        """The pair vector of one (mention, event id): a one-pair run."""
        (pairs,) = self.pair_fvs([mention], [[event_id]])
        return pairs[event_id]


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
    V = np.empty((P, hidden), V_DTYPE)
    # the float64 draws, cast BLOCK_ROWS rows at a time: the stream of one
    # draw of all of V, without a float64 copy of V
    for start in range(0, P, BLOCK_ROWS):
        block = V[start : start + BLOCK_ROWS]
        block[...] = rng.uniform(-0.05, 0.05, size=block.shape)
    return RerankerParams(
        V=V, c=np.zeros(hidden), w=rng.uniform(-0.05, 0.05, size=hidden), b=0.0
    )


def score_pair(params: RerankerParams, fv: FeatureVector) -> float:
    """w . tanh(V'x + c) + b, with V'x in V's dtype, as ``encode`` computes;
    a non-finite pre-activation or score raises ``NonFiniteScore``
    (``score_candidates`` turns overflow warnings off)."""
    if fv.F != params.P:
        raise DimensionMismatch(f"pair feature dim {fv.F} vs reranker {params.P}")
    # values already in V's dtype are used as they are; take widens the
    # narrow ids once for its one gather
    z = fv.values.astype(params.V.dtype, copy=False) @ params.V.take(fv.indices, axis=0) + params.c
    score = float(params.w @ np.tanh(z) + params.b)
    if not (math.isfinite(score) and np.isfinite(z).all()):
        raise NonFiniteScore("reranker scores")
    return score


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
    gold_sets = [frozenset(golds[result.mention_id]) for result in results]
    candidate_lists = [
        substitute_missing_golds(result.event_ids[: config.k], gold)
        for result, gold in zip(results, gold_sets)
    ]
    examples: list[tuple[FeatureVector, float]] = []
    pair_dicts = featurizer.pair_fvs(result_mentions, candidate_lists)
    for candidate_ids, gold, pairs in zip(candidate_lists, gold_sets, pair_dicts):
        examples += [(pairs[e], 1.0 if e in gold else 0.0) for e in candidate_ids]

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
    Every buffer is in V's dtype.
    Building the workspace checks every example once: its dimension is
    P and its indices are strictly ascending, as the design kernel's fill
    by assignment needs; the order is checked over the concatenated
    indices of many examples at once.
    """

    def __init__(self, fvs: list[FeatureVector], params: RerankerParams, batch_size: int):
        for fv in fvs:
            if fv.F != params.P:
                raise DimensionMismatch(f"pair feature dim {fv.F} vs reranker {params.P}")
        sizes = [fv.indices.size for fv in fvs]
        # the indices of 256 examples at a time, so that the check's
        # temporaries stay small beside the examples
        for lo in range(0, len(fvs), 256):
            indices = np.concatenate([fv.indices for fv in fvs[lo : lo + 256]])
            # a step that does not rise, unless it crosses into the next example
            flat = indices[1:] <= indices[:-1]
            starts = np.cumsum(sizes[lo : lo + 255], dtype=np.intp)
            flat[starts[(starts > 0) & (starts < indices.size)] - 1] = False
            if flat.any():
                raise DimensionMismatch("pair feature indices must be strictly ascending")
        # a batch touches at most the nonzeros of its batch_size largest examples
        max_rows = min(params.P, sum(sorted(sizes)[-batch_size:]))
        super().__init__(params.P, batch_size * max_rows, params.V.dtype)
        self.V_rows = np.empty((max_rows, params.h), params.V.dtype)
        self.grad = np.empty((max_rows, params.h), params.V.dtype)


def _reranker_sgd_step(
    params: RerankerParams,
    batch: list[tuple[FeatureVector, float]],
    lr: float,
    ws: SGDWorkspace,
) -> np.ndarray:
    """One SGD step on the mean BCE of the batch; returns its logits.

    The batch's design matrix spans the ascending rows of V its features
    touch, so the forward pass and the gradient of V are two matrix
    products restricted to those rows, computed in ``ws`` in V's dtype;
    the float64 gradient of the pre-activations is cast down once for the
    second.  The rest of the step is float64.
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
    grad = np.matmul(X.T, DZ.astype(V_rows.dtype, copy=False), out=ws.grad[:r])
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
    pairs: dict[str, FeatureVector] | None = None,
) -> list[tuple[str, float]]:
    """Candidates rescored and sorted descending, ties by ascending id.

    A candidate listed more than once is scored once and kept as often as
    it is listed.  ``pairs`` holds the mention's pair vectors by event id,
    as ``PairFeaturizer.pair_fvs`` yields them; without it they are built
    here as a one-mention run.  Scores are computed with overflow warnings
    off: an overflow surfaces as ``score_pair``'s ``NonFiniteScore``.
    """
    if not result.candidates:
        raise EmptyRetrievals(f"mention {mention.id!r} has no candidates")
    ids = result.event_ids if k is None else result.event_ids[:k]
    if pairs is None:
        (pairs,) = featurizer.pair_fvs([mention], [ids])
    with np.errstate(over="ignore", invalid="ignore"):
        scores = {event_id: score_pair(params, pairs[event_id]) for event_id in dict.fromkeys(ids)}
    return sorted(
        ((event_id, scores[event_id]) for event_id in ids),
        key=lambda pair: (-pair[1], pair[0]),
    )


def kept_set(ids: list[str], probs: np.ndarray, threshold: float) -> frozenset[str]:
    """The ids whose probability is >= threshold, or {NULL} when none."""
    kept = frozenset(event_id for event_id, p in zip(ids, probs) if p >= threshold)
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
    return kept_set([e for e, _ in scored], sigmoid(np.array([s for _, s in scored])), threshold)


def rerank_records(
    params: RerankerParams,
    featurizer: PairFeaturizer,
    results: list[RetrievalResult],
    golds: dict[str, tuple[str, ...]],
    mentions: dict[str, Mention],
    thresholds: Iterable[float],
    k: int | None = None,
) -> Iterator[list[EvalRecord]]:
    """One ``EvalRecord`` list per threshold, in order.  Each result's
    candidates (its first ``k``) are scored once, before the first list,
    from pair vectors built a run of mentions at a time; each list is built
    when asked for, so a caller reading one at a time holds one."""
    result_mentions = [_mention_of(mentions, result.mention_id) for result in results]
    ids = (result.event_ids if k is None else result.event_ids[:k] for result in results)
    ranked = []
    pair_dicts = featurizer.pair_fvs(result_mentions, ids)
    for result, mention, pairs in zip(results, result_mentions, pair_dicts):
        scored = score_candidates(params, featurizer, mention, result, k, pairs)
        ranked.append((result, [e for e, _ in scored], sigmoid(np.array([s for _, s in scored]))))
    for tau in thresholds:
        yield [
            EvalRecord(
                mention_id=result.mention_id,
                gold=golds[result.mention_id],
                ranking=result.event_ids,
                predicted=kept_set(order, probs, tau),
                rerank_order=order,
            )
            for result, order, probs in ranked
        ]


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
    taus = sorted(grid)
    records = rerank_records(params, featurizer, results, golds, mentions, taus, k)
    products = [m["strict_acc"] * m["macro_f1"] * m["micro_f1"] for m in map(set_metrics, records)]
    return float(taus[products.index(max(products))])


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
# Persistence: the encoder's checkpoint container, kind "reranker".  V is
# stored in its dtype, c, w and b as '<f8'.

RERANKER_ARRAYS = {"V": V_DTYPE.newbyteorder("<").str, "c": "<f8", "w": "<f8", "b": "<f8"}


def save_reranker(
    path: str | Path, params: RerankerParams, threshold: float | None = None
) -> None:
    arrays = {"V": params.V, "c": params.c, "w": params.w, "b": np.array([params.b])}
    save_arrays(path, "reranker", arrays, threshold=threshold)


def load_reranker(path: str | Path) -> tuple[RerankerParams, float | None]:
    arrays, meta = load_arrays(path, "reranker", RERANKER_ARRAYS)
    try:
        # item() raises ValueError unless b holds exactly one value
        params = RerankerParams(V=arrays["V"], c=arrays["c"], w=arrays["w"], b=arrays["b"].item())
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(path), 1, str(exc)) from exc
    if not all(np.isfinite(a).all() for a in (params.V, params.c, params.w, params.b)):
        raise NonFiniteScore("reranker weights", str(path))
    return params, meta.get("threshold")
