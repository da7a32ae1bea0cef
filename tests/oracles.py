"""Scalar references for the library's batched code.

Nothing in ``hierground`` calls these: each is the one-text, one-pair or
one-score form that a batched kernel replaced, kept so the tests can
compare the kernel against it.
"""

import numpy as np

from hierground.dataset import Mention
from hierground.encoder import (
    DEFAULT_F,
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    FeatureVector,
    event_text,
    hash_text,
    ngram_counts_many,
    span_window,
)
from hierground.errors import DimensionMismatch
from hierground.kb import FALLBACK_LANGUAGE, Event
from hierground.rerank import PairFeaturizer
from hierground.training import ComplExHead, _complex_cells, _project

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed constants, no per-process salting.

    The scalar reference for ``encoder.ngram_counts_many``, which hashes
    whole lists of n-grams bit-equal to it.
    """
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def ngram_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """``ngram_counts_many`` of one text."""
    return ngram_counts_many([text], buckets)[0]


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


def design_matrix(fvs: list[FeatureVector], F: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending feature rows a batch touches and its dense local matrix.

    ``X[i, j]`` is feature ``rows[j]`` of ``fvs[i]``: ``X @ W[rows]``
    encodes the batch, and ``X.T @ G`` maps the gradient ``G`` of its
    encodings to the gradient of ``W[rows]``.  The sorting reference for
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
    return rows, X


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
