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

import functools
import json
import math
from collections.abc import Callable, Container, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder
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
    ngram_rows,
    span_window,
)
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    KTooLarge,
    NonFiniteScore,
    ParseError,
    UnknownEvent,
)
from .kb import Event, read_jsonl, scored_ids, scored_json, write_lines

DEFAULT_K = 8


@dataclass
class RetrievalResult:
    """Ranked (event id, score) candidates for one mention."""

    mention_id: str
    candidates: list[tuple[str, float]]

    @functools.cached_property
    def event_ids(self) -> list[str]:
        """The candidates' ids, listed on first use and then kept: callers
        read them several times per result, and many results never."""
        return [event_id for event_id, _ in self.candidates]


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
        self._max_abs: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self, language: str) -> np.ndarray:
        lang = self.featurizer.language(language)
        if lang not in self._matrices:
            fvs = self.featurizer.events(self.ids, lang)
            # an overflowing tower is retrieve_mentions' NonFiniteScore, not a warning
            with np.errstate(over="ignore", invalid="ignore"):
                self._matrices[lang] = np.stack([encode(self.params, fv, "event") for fv in fvs])
        return self._matrices[lang]

    def checked_matrix(self, language: str) -> tuple[np.ndarray, float]:
        """``matrix(language)``, checked finite, and its ``max|M|``, both
        kept from call to call: what ``retrieve_mentions`` scores against.
        A non-finite encoding raises ``NonFiniteScore``."""
        lang = self.featurizer.language(language)
        if lang not in self._max_abs:
            matrix = self.matrix(lang)
            _check_finite(matrix, f"{lang!r} pool encodings")
            self._max_abs[lang] = np.abs(matrix).max()
        return self._matrices[lang], self._max_abs[lang]


def score_rows(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The retrieval score of ``vec`` against each row: ``(M[j] * q).sum()``.

    numpy's row reduction, not a BLAS product, so each score's bits depend
    only on the two vectors: a mention scores the same alone, among others,
    and against a gathered subset of the pool.
    """
    return (matrix * vec).sum(axis=1)


def check_k(k: int, n: int) -> None:
    """Raise unless 1 <= k <= n, the pool size."""
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
    check_k(k, n)
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


def _kth_lower_bound(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``scores``, a value at most its k-th largest score.

    Each row's G = 64 contiguous column groups give one maximum each; the
    top k of those are k distinct scores of the row, so the k-th largest
    maximum is at most its k-th largest score.  That takes one max
    reduction and a partition of G columns, not of the n a row holds.  A
    pool under 2G columns, or k over G, partitions every score instead:
    the exact k-th score."""
    n, groups = scores.shape[1], 64
    if n < 2 * groups or k > groups:
        return np.partition(scores, n - k, axis=1)[:, n - k]
    maxima = np.maximum.reduceat(scores, np.arange(groups) * n // groups, axis=1)
    return np.partition(maxima, groups - k, axis=1)[:, groups - k]


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
    k, ties included, has ``s >= c_k - eps >= s_k - 2 eps >= b - 2 eps``,
    where ``c_k`` and ``s_k`` are the k-th largest scores and ``b`` is
    ``_kth_lower_bound``'s.  Only that margin set is re-scored canonically
    and sorted by (row, -score, id).
    """
    n, d = matrix.shape
    scores = block @ matrix.T
    _check_finite(scores, "mention-event scores")
    kth = _kth_lower_bound(scores, k)
    # finite factors, so the product is finite or inf, never NaN
    scale = np.abs(block).max(axis=1) * max_abs
    eps = 4 * (d + 2) * d * _UNIT_ROUNDOFF * scale + (d + 2) * _TINY
    # flat positions of a C-ordered mask are row-major, as np.nonzero's pairs
    rows, cols = np.divmod(np.flatnonzero(scores >= (kth - 2 * eps)[:, None]), n)
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

    Every mention's window is hashed in one ``hash_texts`` call, unless
    ``fvs`` already holds them (one a mention, else ``DimensionMismatch``),
    so all the hashed windows are held at once: a large set goes through
    ``retrieve_from_checkpoint``, which passes this one run of
    ``_CHUNK_TEXTS`` mentions at a time.  The mentions of each resolved
    language are encoded one by one and stacked, and scored, in blocks of
    ``BLOCK_MENTIONS`` (``_block_topk``).  A non-finite encoding or score
    raises ``NonFiniteScore``.
    """
    check_k(k, len(index))
    if fvs is None:
        fvs = hash_texts([span_window(m, max_context_chars) for m in mentions], params.F)
    elif len(fvs) != len(mentions):
        raise DimensionMismatch(f"{len(fvs)} hashed windows for {len(mentions)} mentions")
    by_language: dict[str, list[int]] = {}
    for i, mention in enumerate(mentions):
        by_language.setdefault(index.featurizer.language(mention.language), []).append(i)
    results: list = [None] * len(mentions)
    with np.errstate(over="ignore", invalid="ignore"):
        for language, positions in by_language.items():
            matrix, max_abs = index.checked_matrix(language)
            for start in range(0, len(positions), BLOCK_MENTIONS):
                chunk = positions[start : start + BLOCK_MENTIONS]
                block = np.stack([encode(params, fvs[i], "mention") for i in chunk])
                _check_finite(block, "mention encodings")
                ranked = _block_topk(matrix, max_abs, block, k, index.ids)
                for i, candidates in zip(chunk, ranked):
                    results[i] = RetrievalResult(mentions[i].id, candidates)
    return results


def retrieve_from_checkpoint(
    path: str | Path,
    events: list[Event],
    pool: list[str],
    mentions: list[Mention],
    k: int = DEFAULT_K,
    mode: str = "multilingual",
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> Iterator[RetrievalResult]:
    """``retrieve_mentions`` with the towers of the checkpoint at ``path``,
    loaded one at a time with only the rows their texts read, the other
    tower left unread: the pool is hashed and encoded, and its hashed texts
    and the event tower dropped, before the mention windows are marked
    (``ngram_rows``) and the mention tower loads.

    Both loads happen in this call; the results then come as they are
    made, one run of ``_CHUNK_TEXTS`` mentions at a time, so a caller that
    writes each as it comes (``write_retrievals``) never holds them all.
    ``NonFiniteScore`` names the checkpoint."""
    F = encoder.tower_shape(path)[0]
    ids = sorted(set(pool))
    check_k(k, len(ids))
    featurizer = TextFeaturizer(events, hashed(F), mode, max_context_chars, max_cand_chars)
    languages = dict.fromkeys(featurizer.language(m.language) for m in mentions)
    event_rows = feature_rows(
        [fv for lang in languages for fv in featurizer.events(ids, lang, "candidate pool")], F
    )
    index = CandidateIndex(
        encoder.load_checkpoint(path, {"event": event_rows, "mention": None})[0],
        events, pool, mode, max_cand_chars, featurizer,
    )
    for language in languages:
        index.matrix(language)
    featurizer.clear()
    index.params = None
    mention_rows = ngram_rows([span_window(m, max_context_chars) for m in mentions], F)
    params = encoder.load_checkpoint(path, {"mention": mention_rows, "event": None})[0]
    return _runs(str(path), params, index, mentions, k, max_context_chars)


def _runs(
    path: str,
    params: EncoderParams,
    index: CandidateIndex,
    mentions: list[Mention],
    k: int,
    max_context_chars: int,
) -> Iterator[RetrievalResult]:
    """``retrieve_mentions`` of each run of ``_CHUNK_TEXTS`` mentions in
    turn, one result at a time; ``NonFiniteScore`` names ``path``.  The one
    place mentions are cut into runs."""
    run = encoder._CHUNK_TEXTS
    try:
        for lo in range(0, len(mentions), run):
            yield from retrieve_mentions(
                params, index, mentions[lo : lo + run], k, max_context_chars
            )
    except NonFiniteScore as exc:
        raise NonFiniteScore(exc.what, path) from None


def write_retrievals(results: Iterable[RetrievalResult], path: str | Path) -> None:
    """One ``json.dumps(record)`` line per result, each formatted directly:
    ids through ``json.dumps``, scores through ``repr``.  Each result is
    checked and written as it comes, through ``kb.write_lines``: a
    non-finite score raises ``NonFiniteScore``, and it or any error
    ``results`` raises leaves any earlier file at ``path`` as it was."""
    quoted: dict[str, str] = {}

    def line(result: RetrievalResult) -> str:
        for event_id, score in result.candidates:
            if not math.isfinite(score):
                raise NonFiniteScore(f"score of {event_id!r} for mention {result.mention_id!r}")
        candidates = scored_json(result.candidates, "event", "score", quoted)
        return f'{{"mention_id": {json.dumps(result.mention_id)}, "candidates": {candidates}}}'

    write_lines(map(line, results), path)


def retrieval_lines(path: str | Path, read: Callable[..., list]) -> Iterator[tuple[str, list]]:
    """(mention id, ``read(path, line number, candidates, "event",
    "score")``) of each line of a retrievals file: ``kb.entry_ids`` reads
    the candidate ids and ``kb.scored_ids`` (id, score) pairs, each after
    checking every entry.  A repeated ``mention_id`` is a ParseError.  The
    one reader of the format, shared by ``load_retrievals`` and
    ``relext.build_mention_lists``."""
    first_line: dict[str, int] = {}
    for line_no, obj in read_jsonl(path, mention_id=str, candidates=list):
        candidates = read(path, line_no, obj["candidates"], "event", "score")
        mention_id = obj["mention_id"]
        seen = first_line.setdefault(mention_id, line_no)
        if seen != line_no:
            raise ParseError(str(path), line_no, f"mention_id {mention_id!r} repeats line {seen}")
        yield mention_id, candidates


def load_retrievals(path: str | Path) -> list[RetrievalResult]:
    """One result per line of ``retrieval_lines``."""
    return [
        RetrievalResult(mention_id, pairs)
        for mention_id, pairs in retrieval_lines(path, scored_ids)
    ]


def check_candidates(result: RetrievalResult, events: Container[str]) -> None:
    """Raise UnknownEvent for the first candidate not among ``events``."""
    for event_id, _ in result.candidates:
        if event_id not in events:
            raise UnknownEvent(event_id, f"candidate of mention {result.mention_id!r}")
