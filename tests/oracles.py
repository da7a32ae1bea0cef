"""Scalar references for the library's batched code.

Nothing in ``hierground`` calls these: each is the one-text, one-pair or
one-score form that a batched kernel replaced, or the multi-pass form of a
one-pass reader or writer, kept so the tests can compare the new code
against it.  ``whole_towers`` wraps hand-made arrays
as the towers ``EncoderParams`` holds, and ``narrow_block`` and
``narrow_fv`` cast a float64 reference once to the reranker's widths.
"""

import json
import sys

import numpy as np

from hierground.dataset import Mention
from hierground.encoder import (
    DEFAULT_F,
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    TOWERS,
    EncoderParams,
    FeatureVector,
    Tower,
    event_text,
    hash_text,
    ngram_count_runs,
    span_window,
)
from hierground.errors import DimensionMismatch, ParseError
from hierground.kb import FALLBACK_LANGUAGE, Event, read_jsonl, scored_json
from hierground.metrics import NULL_EVENT, EvalRecord
from hierground.rerank import (
    BLOCK_BUCKETS,
    ID_DTYPE,
    PAIR_DIM,
    V_DTYPE,
    Block,
    PairFeaturizer,
    score_candidates,
)
from hierground.retrieval import RetrievalResult, check_candidates
from hierground.training import ComplExHead, _complex_cells, _project
from hierground.training import sigmoid as library_sigmoid

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF


def whole_towers(W_mention: np.ndarray, W_event: np.ndarray) -> EncoderParams:
    """Towers that hold every row of these F x d arrays, the arrays
    themselves as their values."""
    towers = zip(TOWERS, (W_mention, W_event))
    return EncoderParams(*(Tower(len(W), np.arange(len(W)), W, (0, name)) for name, W in towers))


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed constants, no per-process salting.

    The scalar reference for ``encoder.ngram_count_runs``, which hashes
    whole lists of n-grams bit-equal to it.
    """
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def ngram_counts_many(
    texts: list[str], buckets: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per text, its keys, counts and values: read-only slices of its run's
    arrays in ``encoder.ngram_count_runs``, the view the kernel tests read."""
    return [
        (keys[lo:hi], counts[lo:hi], values[lo:hi])
        for keys, counts, values, bounds in ngram_count_runs(texts, buckets)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def ngram_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ngram_counts_many`` of one text: its keys, counts and values."""
    return ngram_counts_many([text], buckets)[0]


def normalized(counts: np.ndarray) -> np.ndarray:
    """One text's counts over their own ``np.linalg.norm``: the per-text
    normalization the kernel's per-run one replaced (the zero vector stays
    empty)."""
    return counts / np.linalg.norm(counts)


def block(keys: np.ndarray, counts: np.ndarray) -> Block:
    """One text's ``rerank.Block`` from its ascending (keys, counts)."""
    return Block(keys, counts, normalized(counts), keys + BLOCK_BUCKETS)


def narrow_block(block: Block) -> Block:
    """A float64 oracle block cast once to the library's widths:
    ``ID_DTYPE`` keys, counts in the smallest unsigned dtype that holds
    them, ``V_DTYPE`` values."""
    keys, counts, values, shifted = block
    top = int(counts.max()) if counts.size else 0
    return Block(
        keys.astype(ID_DTYPE), counts.astype(np.min_scalar_type(top)),
        values.astype(V_DTYPE), shifted.astype(ID_DTYPE),
    )


def narrow_fv(fv: FeatureVector) -> FeatureVector:
    """A float64 oracle pair vector cast once to the library's widths."""
    return FeatureVector(fv.indices.astype(ID_DTYPE), fv.values.astype(V_DTYPE), fv.F)


def hash_texts(texts: list[str], F: int) -> list[FeatureVector]:
    """Each text counted alone and normalized on its own: the per-text
    reference for ``encoder.hash_texts``."""
    counted = [ngram_counts(text, F)[:2] for text in texts]
    return [FeatureVector(keys, normalized(counts), F) for keys, counts in counted]


def blocks(texts: list[str]) -> list[Block]:
    """Each text's block, counted alone and normalized on its own: the
    per-text reference for ``rerank._blocks``."""
    return [block(*ngram_counts(text, BLOCK_BUCKETS)[:2]) for text in texts]


def featurize_mention(
    mention: Mention,
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    F: int = DEFAULT_F,
) -> FeatureVector:
    return hash_text(span_window(mention, max_context_chars), F)


def featurize_event(
    event: Event,
    language: str,
    fallback: str = FALLBACK_LANGUAGE,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    F: int = DEFAULT_F,
) -> FeatureVector:
    """Hash the event's title + description in the requested language.

    Multilingual callers pass the mention's language; crosslingual
    callers always pass the fallback (English).  MissingLabel propagates
    when neither language is present.
    """
    return hash_text(event_text(event, language, fallback, max_cand_chars), F)


def design_matrix(
    fvs: list[FeatureVector], F: int, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending feature rows a batch touches and its dense local matrix.

    ``X[i, j]`` is feature ``rows[j]`` of ``fvs[i]``, in ``dtype``, the
    dtype of the ``W`` it multiplies: ``X @ W[rows]`` encodes the batch,
    and ``X.T @ G`` maps the gradient ``G`` of its encodings to the
    gradient of ``W[rows]``.  The sorting reference for
    ``encoder.DesignWorkspace.design``.
    """
    for fv in fvs:
        if fv.F != F:
            raise DimensionMismatch(f"feature space {fv.F} vs tower rows {F}")
    rows, cols = np.unique(
        np.concatenate([fv.indices for fv in fvs]), return_inverse=True
    )
    n = len(fvs)
    example = np.repeat(np.arange(n), [fv.indices.size for fv in fvs])
    # bincount sums an index repeated within one vector, as encode does
    X = np.bincount(
        example * rows.size + cols,
        weights=np.concatenate([fv.values for fv in fvs]),
        minlength=n * rows.size,
    ).reshape(n, rows.size)
    return rows, X.astype(dtype, copy=False)


def pair_score(m_vec: np.ndarray, e_vec: np.ndarray) -> float:
    if m_vec.shape != e_vec.shape:
        raise DimensionMismatch(f"embedding shapes {m_vec.shape} vs {e_vec.shape}")
    return float(np.dot(m_vec, e_vec))


def featurize_pair(
    mention: Mention,
    event: Event,
    mode: str = "multilingual",
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> FeatureVector:
    return PairFeaturizer([event], mode, max_context_chars, max_cand_chars).pair_fv(mention, event.id)


def pair_fv(
    mention: tuple[np.ndarray, np.ndarray], event: tuple[np.ndarray, np.ndarray]
) -> FeatureVector:
    """The three L2-normalized blocks of a pair from each text's ascending
    (keys, counts), normalized per pair and intersected by ``intersect1d``:
    the reference for ``block_pair_fv`` and ``rerank._pair_run``."""
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


def block_pair_fv(mention: Block, event: Block) -> FeatureVector:
    """One pair's vector from its two narrow blocks, built alone: each
    mention key looked up in the event keys with one ``searchsorted``, the
    interaction block normalized by ``sqrt(shared @ shared)`` in float64 and
    the values concatenated into ``V_DTYPE``.  The per-pair reference for
    ``rerank._pair_run``."""
    if event.keys.size:
        e_at = np.searchsorted(event.keys, mention.keys)
        m_at = np.flatnonzero(event.keys.take(e_at, mode="clip") == mention.keys)
        e_at = e_at[m_at]
    else:
        m_at = e_at = np.empty(0, dtype=np.intp)
    shared = np.minimum(mention.counts[m_at], event.counts[e_at]).astype(np.float64)
    return FeatureVector.prechecked(
        np.concatenate([mention.keys, event.shifted, 2 * BLOCK_BUCKETS + mention.keys[m_at]]),
        np.concatenate(
            [mention.values, event.values, shared / np.sqrt(shared @ shared)], dtype=V_DTYPE
        ),
        PAIR_DIM,
    )


def complex_score_matrix(
    head: ComplExHead, parent_vecs: np.ndarray, child_vecs: np.ndarray
) -> np.ndarray:
    """S[i, j] = s(parent_i, child_j) for row-stacked encodings."""
    return _complex_cells(*_project(head, parent_vecs), *_project(head, child_vecs), head.r)


def complex_score(head: ComplExHead, e_p_vec: np.ndarray, e_c_vec: np.ndarray) -> float:
    """s(e_p, e_c) = Im(e_p).(Re(e_c) * r) - Re(e_p).(Im(e_c) * r).

    The symmetric part of the underlying trilinear product cancels, so
    swapping arguments flips the sign exactly.
    """
    if e_p_vec.shape != (head.d,) or e_c_vec.shape != (head.d,):
        raise DimensionMismatch(f"event encodings must be {head.d}-dim")
    return float(complex_score_matrix(head, e_p_vec[None, :], e_c_vec[None, :])[0, 0])


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function by sign, through boolean gathers and scatters:
    the reference for ``training.sigmoid``."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def candidate_probs(scored: list[tuple[str, float]]) -> np.ndarray:
    """sigmoid of each score, in the order of ``scored``."""
    return library_sigmoid(np.array([score for _, score in scored]))


def kept_set(
    scored: list[tuple[str, float]], probs: np.ndarray, threshold: float
) -> frozenset[str]:
    """Scored candidates whose probability is >= threshold, or {NULL} when none."""
    kept = frozenset(event_id for (event_id, _), p in zip(scored, probs) if p >= threshold)
    return kept if kept else frozenset({NULL_EVENT})


def rerank_records(
    params, featurizer, results, golds, mentions, threshold: float, k=None
) -> list[EvalRecord]:
    """``rerank.rerank_records``' list at one threshold, built one record
    at a time: ``score_candidates``, ``candidate_probs``, ``kept_set`` over
    the (id, score) pairs, then the record."""
    records = []
    for result in results:
        scored = score_candidates(params, featurizer, mentions[result.mention_id], result, k)
        records.append(
            EvalRecord(
                mention_id=result.mention_id,
                gold=golds[result.mention_id],
                ranking=result.event_ids,
                predicted=kept_set(scored, candidate_probs(scored), threshold),
                rerank_order=[event_id for event_id, _ in scored],
            )
        )
    return records


def scored_ids(path, line_no: int, entries: list, name: str, score: str) -> list[tuple[str, float]]:
    """(id, float score) of each ``{name: string, score: finite number}``
    entry, any other entry a ParseError: the entry check ``kb.entry_ids``
    replaced."""
    numbers, top = (float, int), sys.float_info.max
    pairs = [
        (ident, float(value))
        for entry in entries
        if type(entry) is dict
        for ident, value in [(entry.get(name), entry.get(score))]
        if type(ident) is str and type(value) in numbers and -top <= value <= top
    ]
    if len(pairs) < len(entries):
        raise ParseError(
            str(path), line_no, f'each entry must be {{"{name}": string, "{score}": finite number}}'
        )
    return pairs


def load_retrievals(path) -> list[RetrievalResult]:
    """Every line as a result of (id, float) pairs, before any id check."""
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


def mention_lists(path, pool: list[str], k: int) -> np.ndarray:
    """``relext.build_mention_lists`` as three passes: load every result,
    check every candidate against the pool, then fill the matrix a row at
    a time."""
    results = load_retrievals(path)
    known = set(pool)
    for result in results:
        check_candidates(result, known)
    position = {event_id: i for i, event_id in enumerate(sorted(pool))}
    lists = np.full((len(results), k), -1, dtype=np.int64)
    for row, result in zip(lists, results):
        events = [position[e] for e in dict.fromkeys(result.event_ids[:k])]
        row[: len(events)] = events
    return lists


def write_parents(rankings: dict[str, list[tuple[str, float]]], path, max_ranking: int) -> None:
    """The parents file through ``kb.scored_json``, one f-string per entry:
    the reference for ``relext.write_parents``."""
    quoted: dict[str, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for event_id in sorted(rankings):
            ranking = scored_json(rankings[event_id][:max_ranking], "parent", "h", quoted)
            fh.write(f'{{"event": {json.dumps(event_id)}, "ranking": {ranking}}}\n')
