"""Exact top-k retrieval of candidate events for each mention.

Candidates are encoded by the event tower into a pool x d matrix.  A
mention's score against a candidate is ``score_rows``, numpy's row
reduction of the elementwise product, whose bits depend only on the two
vectors.  ``retrieve_mentions`` selects with one BLAS product per block of
mentions and re-scores only a margin set canonically, so every result is
bit-equal to the one-mention oracle ``topk``.  Retrieval is exact (no
approximate index) and ties are broken by ascending event id, so runs are
byte-reproducible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Mention
from .encoder import (
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    encode,
    feature_rows,
    hash_texts,
    hashed,
    span_window,
)
from .errors import InvalidConfig, KTooLarge, NonFiniteScore, ParseError, UnknownEvent
from .kb import Event, read_jsonl, scored_ids

DEFAULT_K = 8


@dataclass
class RetrievalResult:
    """Ranked (event id, score) candidates for one mention."""

    mention_id: str
    candidates: list[tuple[str, float]]
    _event_ids: list[str] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def event_ids(self) -> list[str]:
        """The candidates' ids, listed on first use and then kept: callers
        read them several times per result, and many results never."""
        if self._event_ids is None:
            self._event_ids = [event_id for event_id, _ in self.candidates]
        return self._event_ids


class CandidateIndex:
    """Immutable encodings of the candidate pool, per label language.

    ``featurizer`` hashes each (event, resolved language) text once (by
    default a ``hashed(params.F)`` featurizer over ``events`` is made;
    passing one shares texts hashed before the towers were loaded).  One
    matrix is encoded by the event tower per resolved language on first
    use (a single English one in crosslingual mode).
    """

    def __init__(
        self,
        params: EncoderParams,
        events: list[Event],
        pool: list[str],
        mode: str = "multilingual",
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
        featurizer: TextFeaturizer | None = None,
    ):
        self.params = params
        self.featurizer = featurizer or TextFeaturizer(
            events, hashed(params.F), mode, max_cand_chars=max_cand_chars
        )
        for event_id in pool:
            if event_id not in self.featurizer.corpus:
                raise UnknownEvent(event_id, "candidate pool")
        self.ids: list[str] = sorted(set(pool))
        self._matrices: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self, language: str) -> np.ndarray:
        lang = self.featurizer.language(language)
        if lang not in self._matrices:
            fvs = self.featurizer.events(self.ids, lang)
            self._matrices[lang] = np.stack([encode(self.params, fv, "event") for fv in fvs])
        return self._matrices[lang]


def hash_inputs(
    events: list[Event],
    pool: list[str],
    mentions: list[Mention],
    F: int,
    mode: str = "multilingual",
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> tuple[TextFeaturizer, list[FeatureVector], dict[str, np.ndarray]]:
    """Everything retrieving ``mentions`` against ``pool`` hashes, before
    any tower is loaded: a featurizer holding the pool's texts in each
    resolved language of the mentions (for ``build_index``), the hashed
    mention windows (for ``retrieve_mentions``), and the rows of each tower
    that encoding them reads (for ``load_checkpoint``)."""
    featurizer = TextFeaturizer(events, hashed(F), mode, max_cand_chars=max_cand_chars)
    ids = sorted(set(pool))
    languages = dict.fromkeys(featurizer.language(m.language) for m in mentions)
    pool_fvs = [
        fv for lang in languages for fv in featurizer.events(ids, lang, "candidate pool")
    ]
    fvs = hash_texts([span_window(m, max_context_chars) for m in mentions], F)
    rows = {"mention": feature_rows(fvs, F), "event": feature_rows(pool_fvs, F)}
    return featurizer, fvs, rows


def build_index(
    params: EncoderParams,
    events: list[Event],
    pool: list[str],
    mode: str = "multilingual",
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    featurizer: TextFeaturizer | None = None,
) -> CandidateIndex:
    return CandidateIndex(params, events, pool, mode, max_cand_chars, featurizer)


def score_rows(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The retrieval score of ``vec`` against each row: ``(M[j] * q).sum()``.

    numpy's row reduction, not a BLAS product, so each score's bits depend
    only on the two vectors: a mention scores the same alone, among others,
    and against a gathered subset of the pool.
    """
    return (matrix * vec).sum(axis=1)


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    if k > n:
        raise KTooLarge(k, n)


def topk(
    index: CandidateIndex,
    mention_vec: np.ndarray,
    k: int,
    language: str = "en",
    mention_id: str = "",
) -> RetrievalResult:
    """Exact top-k by ``score_rows``; score ties resolve to ascending id.

    The one-mention oracle of ``retrieve_mentions``.
    """
    n = len(index.ids)
    _check_k(k, n)
    scores = score_rows(index.matrix(language), mention_vec)
    if k == n:
        subset = np.arange(n)
    else:
        # everything tied with the k-th score enters the re-sort so the
        # id tie-break is exact at the boundary
        part = np.argpartition(-scores, k - 1)[:k]
        subset = np.flatnonzero(scores >= scores[part].min())
    order = subset[np.lexsort((subset, -scores[subset]))][:k]
    return RetrievalResult(
        mention_id=mention_id,
        candidates=[(index.ids[i], float(scores[i])) for i in order],
    )


# mentions per score block; a block's scores on a 2,100-event pool take ~1 MB
BLOCK_MENTIONS = 64
_UNIT_ROUNDOFF = 2.0**-53
_TINY = np.finfo(float).smallest_subnormal


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteScore(what)


def _block_topk(
    matrix: np.ndarray, max_abs: float, block: np.ndarray, k: int, ids: list[str]
) -> list[list[tuple[str, float]]]:
    """``topk``'s candidates for each row ``q`` of ``block``, from one BLAS product.

    The BLAS score ``s`` and the canonical score ``c`` (``score_rows``) of a
    pair each lie within ``eps/2`` of the exact dot product, for
    ``eps = 4(d+2) u d max|q| max|M| + (d+2) tiny``: twice the rounding bound
    of a d-term dot product (``d max|q| max|M|`` bounds the sum of its
    absolute terms, ``max_abs`` being ``max|M|``), the last term covering
    underflow.  So ``|c - s| <= eps``, and a candidate in the canonical top
    k, ties included, has ``s >= c_k - eps >= s_k - 2 eps``, where ``c_k``
    and ``s_k`` are the k-th largest scores.  Only that margin set is
    re-scored canonically and sorted by (row, -score, id).
    """
    n, d = matrix.shape
    scores = block @ matrix.T
    _check_finite(scores, "mention-event scores")
    kth = np.partition(scores, n - k, axis=1)[:, n - k]
    # finite factors, so the product is finite or inf, never NaN
    scale = np.abs(block).max(axis=1) * max_abs
    eps = 4 * (d + 2) * d * _UNIT_ROUNDOFF * scale + (d + 2) * _TINY
    rows, cols = np.nonzero(scores >= (kth - 2 * eps)[:, None])
    exact = (matrix[cols] * block[rows]).sum(axis=1)
    _check_finite(exact, "mention-event scores")
    order = np.lexsort((cols, -exact, rows))
    # every row has at least k margin entries; rows are ascending in ``order``
    first = np.searchsorted(rows, np.arange(len(block)))
    take = order[first[:, None] + np.arange(k)]
    return [
        [(ids[j], score) for j, score in zip(row_cols, row_scores)]
        for row_cols, row_scores in zip(cols[take].tolist(), exact[take].tolist())
    ]


def retrieve_mentions(
    params: EncoderParams,
    index: CandidateIndex,
    mentions: list[Mention],
    k: int = DEFAULT_K,
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    fvs: list[FeatureVector] | None = None,
) -> list[RetrievalResult]:
    """Top-k candidates of each mention, bit-equal to ``topk`` on its own.

    All windows are hashed in one call, unless ``fvs`` already holds them.
    The mentions of each resolved language are then encoded one by one and
    stacked, and scored, in blocks of ``BLOCK_MENTIONS`` (``_block_topk``).  A
    non-finite encoding or score raises ``NonFiniteScore``.
    """
    if not mentions:
        return []
    _check_k(k, len(index))
    if fvs is None:
        fvs = hash_texts([span_window(m, max_context_chars) for m in mentions], params.F)
    by_language: dict[str, list[int]] = {}
    for i, mention in enumerate(mentions):
        by_language.setdefault(index.featurizer.language(mention.language), []).append(i)
    results: list = [None] * len(mentions)
    with np.errstate(over="ignore", invalid="ignore"):
        for language, positions in by_language.items():
            matrix = index.matrix(language)
            _check_finite(matrix, f"{language!r} pool encodings")
            max_abs = np.abs(matrix).max()
            for start in range(0, len(positions), BLOCK_MENTIONS):
                chunk = positions[start : start + BLOCK_MENTIONS]
                block = np.stack([encode(params, fvs[i], "mention") for i in chunk])
                _check_finite(block, "mention encodings")
                ranked = _block_topk(matrix, max_abs, block, k, index.ids)
                for i, candidates in zip(chunk, ranked):
                    results[i] = RetrievalResult(mentions[i].id, candidates)
    return results


def write_retrievals(results: list[RetrievalResult], path: str | Path) -> None:
    """One ``json.dumps(record)`` line per result, each formatted directly:
    ids through ``json.dumps``, scores through ``repr``.  A non-finite score
    raises ``NonFiniteScore`` before the file is opened."""
    for result in results:
        for event_id, score in result.candidates:
            if not math.isfinite(score):
                raise NonFiniteScore(f"score of {event_id!r} for mention {result.mention_id!r}")
    quoted: dict[str, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            candidates = []
            for event_id, score in result.candidates:
                name = quoted.get(event_id)
                if name is None:
                    name = quoted[event_id] = json.dumps(event_id)
                text = repr(score) if type(score) is float else json.dumps(score)
                candidates.append(f'{{"event": {name}, "score": {text}}}')
            fh.write(
                f'{{"mention_id": {json.dumps(result.mention_id)}, '
                f'"candidates": [{", ".join(candidates)}]}}\n'
            )


def load_retrievals(path: str | Path) -> list[RetrievalResult]:
    """One result per line; a repeated ``mention_id`` is a ParseError."""
    results: list[RetrievalResult] = []
    first_line: dict[str, int] = {}
    for line_no, obj in read_jsonl(path, mention_id=str, candidates=list):
        candidates = scored_ids(path, line_no, obj["candidates"], "event", "score")
        mention_id = obj["mention_id"]
        seen = first_line.setdefault(mention_id, line_no)
        if seen != line_no:
            raise ParseError(str(path), line_no, f"mention_id {mention_id!r} repeats line {seen}")
        results.append(RetrievalResult(mention_id, candidates))
    return results


def check_candidates(result: RetrievalResult, events: Container[str]) -> None:
    """Raise UnknownEvent for the first candidate not among ``events``."""
    for event_id, _ in result.candidates:
        if event_id not in events:
            raise UnknownEvent(event_id, f"candidate of mention {result.mention_id!r}")
