"""Exact top-k retrieval of candidate events for each mention.

Candidates are encoded by the event tower into a pool x d matrix and
scored against the mention embedding by dot product.  Retrieval is exact
(argpartition plus a threshold re-sort, no approximate index) and ties
are broken by ascending event id so runs are byte-reproducible.
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
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    encode,
    feature_rows,
    hash_texts,
    hashed,
    span_window,
)
from .errors import InvalidConfig, KTooLarge, ParseError, UnknownEvent
from .kb import Event

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


def topk(
    index: CandidateIndex,
    mention_vec: np.ndarray,
    k: int,
    language: str = "en",
    mention_id: str = "",
) -> RetrievalResult:
    """Exact top-k by dot product; score ties resolve to ascending id."""
    n = len(index.ids)
    if k < 1:
        raise InvalidConfig("k must be >= 1")
    if k > n:
        raise KTooLarge(k, n)
    scores = index.matrix(language) @ mention_vec
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


def retrieve_mentions(
    params: EncoderParams,
    index: CandidateIndex,
    mentions: list[Mention],
    k: int = DEFAULT_K,
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    fvs: list[FeatureVector] | None = None,
) -> list[RetrievalResult]:
    """Top-k candidates of each mention; all windows are hashed in one call,
    unless ``fvs`` already holds them."""
    if fvs is None:
        fvs = hash_texts([span_window(m, max_context_chars) for m in mentions], params.F)
    return [
        topk(index, encode(params, fv, "mention"), k, mention.language, mention.id)
        for mention, fv in zip(mentions, fvs)
    ]


def write_retrievals(results: list[RetrievalResult], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            record = {
                "mention_id": result.mention_id,
                "candidates": [
                    {"event": event_id, "score": score}
                    for event_id, score in result.candidates
                ],
            }
            fh.write(json.dumps(record) + "\n")


def load_retrievals(path: str | Path) -> list[RetrievalResult]:
    """One result per line; a repeated ``mention_id`` is a ParseError."""
    results: list[RetrievalResult] = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                result = RetrievalResult(
                    mention_id=obj["mention_id"],
                    candidates=[
                        (c["event"], float(c["score"])) for c in obj["candidates"]
                    ],
                )
                seen = first_line.setdefault(result.mention_id, line_no)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
            if seen != line_no:
                raise ParseError(
                    str(path),
                    line_no,
                    f"mention_id {result.mention_id!r} repeats line {seen}",
                )
            results.append(result)
    return results


def check_candidates(result: RetrievalResult, events: Container[str]) -> None:
    """Raise UnknownEvent for the first candidate not among ``events``."""
    for event_id, _ in result.candidates:
        if event_id not in events:
            raise UnknownEvent(event_id, f"candidate of mention {result.mention_id!r}")
