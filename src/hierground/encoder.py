"""Feature hashing, the two-tower linear encoder, and checkpoint files.

Text is featurized into L2-normalized sparse vectors by hashing character
3-5-grams with FNV-1a (a fixed published hash, so features are stable
across runs and platforms).  Mention and event towers are independent
F x d matrices; encoding is a sparse-dense product and similarity is the
plain dot product of the two embeddings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .dataset import Mention
from .errors import DimensionMismatch, InvalidConfig, UnknownEvent
from .kb import FALLBACK_LANGUAGE, Event
from .seeding import substream_rng

DEFAULT_F = 2**18
DEFAULT_D = 32
DEFAULT_MAX_CONTEXT_CHARS = 128
DEFAULT_MAX_CAND_CHARS = 128
NGRAM_SIZES = (3, 4, 5)
LANGUAGE_MODES = ("multilingual", "crosslingual")

# private-use codepoints wrap the span so marker-adjacent n-grams are
# distinct features; real text never contains them
SPAN_OPEN = ""
SPAN_CLOSE = ""

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

WARNING_COUNTS = {"empty_feature_vector": 0}


def reset_warning_counts() -> None:
    for key in WARNING_COUNTS:
        WARNING_COUNTS[key] = 0


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed constants, no per-process salting."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass
class FeatureVector:
    """Sparse L2-normalized bag of hashed n-grams over a space of size F."""

    indices: np.ndarray
    values: np.ndarray
    F: int

    def __post_init__(self):
        if self.indices.shape != self.values.shape:
            raise DimensionMismatch("indices and values must align")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.F
        ):
            raise DimensionMismatch(f"feature index outside [0, {self.F})")

    @property
    def is_zero(self) -> bool:
        return self.indices.size == 0

    def densify(self) -> np.ndarray:
        dense = np.zeros(self.F)
        dense[self.indices] = self.values
        return dense


def ngram_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending bucket ids in [0, buckets) of the text's character 3-5-grams
    and their float counts."""
    counts: dict[int, float] = {}
    for n in NGRAM_SIZES:
        for start in range(len(text) - n + 1):
            bucket = fnv1a64(text[start : start + n].encode("utf-8")) % buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    keys = sorted(counts)
    return np.array(keys, dtype=np.int64), np.array([counts[k] for k in keys], dtype=float)


def hash_text(text: str, F: int) -> FeatureVector:
    """Count character 3-5-grams, hash each into [0, F), L2-normalize.

    Texts too short for any n-gram produce the zero vector and bump the
    empty-feature-vector warning counter.
    """
    indices, counts = ngram_counts(text, F)
    if not indices.size:
        WARNING_COUNTS["empty_feature_vector"] += 1
        return FeatureVector(indices=indices, values=counts, F=F)
    return FeatureVector(indices=indices, values=counts / np.linalg.norm(counts), F=F)


def hashed(F: int) -> Callable[[str], FeatureVector]:
    """The bi-encoder's text features: ``hash_text`` over F.

    The module attribute is looked up at each call, so a wrapper installed
    on ``encoder.hash_text`` sees every bi-encoder hash.
    """
    return lambda text: hash_text(text, F)


def span_window(mention: Mention, max_context_chars: int) -> str:
    """The span-marked context window, centered on the span.

    The span is wrapped in the reserved markers first, then a window of
    at most ``max_context_chars`` characters is cut around it.  When the
    window cannot hold the whole marked span, it is anchored at the span
    start so the span stays in-window as far as it fits.
    """
    s, e = mention.span_start, mention.span_end
    marked = (
        mention.context[:s]
        + SPAN_OPEN
        + mention.context[s:e]
        + SPAN_CLOSE
        + mention.context[e:]
    )
    if max_context_chars <= 0:
        return ""
    if len(marked) <= max_context_chars:
        return marked
    span_lo, span_hi = s, e + 2
    if span_hi - span_lo >= max_context_chars:
        return marked[span_lo : span_lo + max_context_chars]
    lo = span_lo - (max_context_chars - (span_hi - span_lo)) // 2
    lo = max(0, min(lo, len(marked) - max_context_chars))
    return marked[lo : lo + max_context_chars]


def featurize_mention(
    mention: Mention,
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    F: int = DEFAULT_F,
) -> FeatureVector:
    return hash_text(span_window(mention, max_context_chars), F)


def event_text(
    event: Event,
    language: str,
    fallback: str = FALLBACK_LANGUAGE,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> str:
    label = event.label_for(language, fallback)
    text = label.title if not label.description else f"{label.title} {label.description}"
    return text[:max_cand_chars]


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


class TextFeaturizer:
    """Memoized features of mention windows and event texts over a corpus.

    ``features`` maps a text to what the caller stores per text: training's
    ``hashed(F)`` vectors, the retrieval index's event-tower encodings, or
    the reranker's raw bucket counts.
    An event is featurized in the mention's language in multilingual mode
    and always in the fallback language (English) in crosslingual mode;
    each mention id and each (event id, resolved language) is featurized
    once, and a repeated lookup returns the same object.
    """

    def __init__(
        self,
        events: list[Event],
        features: Callable[[str], Any],
        mode: str = "multilingual",
        max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    ):
        if mode not in LANGUAGE_MODES:
            raise InvalidConfig(f"language mode must be one of {LANGUAGE_MODES}, got {mode!r}")
        self.events = {event.id: event for event in events}
        self.features = features
        self.mode = mode
        self.max_context_chars = max_context_chars
        self.max_cand_chars = max_cand_chars
        self._mention: dict[str, Any] = {}
        self._event: dict[tuple[str, str], Any] = {}

    def language(self, mention_language: str) -> str:
        """The label language events are featurized in for such a mention."""
        return mention_language if self.mode == "multilingual" else FALLBACK_LANGUAGE

    def mention(self, mention: Mention) -> Any:
        if mention.id not in self._mention:
            self._mention[mention.id] = self.features(
                span_window(mention, self.max_context_chars)
            )
        return self._mention[mention.id]

    def event(self, event_id: str, mention_language: str, context: str = "") -> Any:
        """Features of the event's text for a mention in ``mention_language``;
        ``context`` says where an unknown ``event_id`` came from."""
        key = (event_id, self.language(mention_language))
        if key not in self._event:
            event = self.events.get(event_id)
            if event is None:
                raise UnknownEvent(event_id, context)
            self._event[key] = self.features(
                event_text(event, key[1], max_cand_chars=self.max_cand_chars)
            )
        return self._event[key]


@dataclass
class EncoderParams:
    """Two independent linear towers over the hashed feature space."""

    W_mention: np.ndarray
    W_event: np.ndarray

    def __post_init__(self):
        if self.W_mention.shape != self.W_event.shape:
            raise DimensionMismatch("tower shapes must match")
        if self.W_mention.ndim != 2:
            raise DimensionMismatch("towers must be F x d matrices")

    @property
    def F(self) -> int:
        return self.W_mention.shape[0]

    @property
    def d(self) -> int:
        return self.W_mention.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.W_mention.copy(), self.W_event.copy())


def init_encoder(F: int = DEFAULT_F, d: int = DEFAULT_D, seed: int = 0) -> EncoderParams:
    """Seeded uniform(-0.05, 0.05) towers via the "init" substream."""
    if F < 1 or d < 1:
        raise InvalidConfig("F and d must be positive")
    rng = substream_rng(seed, "init")
    return EncoderParams(
        W_mention=rng.uniform(-0.05, 0.05, size=(F, d)),
        W_event=rng.uniform(-0.05, 0.05, size=(F, d)),
    )


def encode(params: EncoderParams, fv: FeatureVector, tower: str) -> np.ndarray:
    """fv' W_tower: the d-dim embedding of a featurized text."""
    if tower == "mention":
        W = params.W_mention
    elif tower == "event":
        W = params.W_event
    else:
        raise InvalidConfig(f"unknown tower {tower!r}")
    if fv.F != params.F:
        raise DimensionMismatch(f"feature space {fv.F} vs tower rows {params.F}")
    if fv.is_zero:
        return np.zeros(params.d)
    return fv.values @ W[fv.indices]


def design_matrix(fvs: list[FeatureVector], F: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending feature rows a batch touches and its dense local matrix.

    ``X[i, j]`` is feature ``rows[j]`` of ``fvs[i]``: ``X @ W[rows]``
    encodes the batch, and ``X.T @ G`` maps the gradient ``G`` of its
    encodings to the gradient of ``W[rows]``.
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


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then row-major '<f8' arrays in header
# order (the two towers first, then any extra heads).


def save_checkpoint(
    path: str | Path,
    params: EncoderParams,
    extra_heads: dict[str, np.ndarray] | None = None,
) -> None:
    extra_heads = extra_heads or {}
    header = {
        "format_version": 1,
        "F": params.F,
        "d": params.d,
        "towers": ["mention", "event"],
        "extra_heads": [
            {"name": name, "shape": list(extra_heads[name].shape)}
            for name in extra_heads
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(params.W_mention, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.W_event, dtype="<f8").tobytes())
        for name in extra_heads:
            fh.write(np.ascontiguousarray(extra_heads[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format_version") != 1:
            raise InvalidConfig(
                f"unsupported checkpoint format {header.get('format_version')!r}"
            )
        # encoder headers carry no "kind"; the reranker's says "reranker"
        kind = header.get("kind", "encoder")
        if kind != "encoder" or not {"F", "d", "towers"} <= header.keys():
            raise InvalidConfig(f"{path} is a {kind} checkpoint, not an encoder one")
        F, d = int(header["F"]), int(header["d"])

        def read_array(shape: tuple[int, ...]) -> np.ndarray:
            count = int(np.prod(shape))
            data = fh.read(count * 8)
            if len(data) != count * 8:
                raise InvalidConfig("checkpoint truncated")
            return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

        towers = {name: read_array((F, d)) for name in header["towers"]}
        extra = {
            spec["name"]: read_array(tuple(spec["shape"]))
            for spec in header.get("extra_heads", [])
        }
    return EncoderParams(W_mention=towers["mention"], W_event=towers["event"]), extra
