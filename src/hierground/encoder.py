"""Feature hashing, the two-tower linear encoder, and checkpoint files.

Text is featurized into L2-normalized sparse vectors by hashing character
3-5-grams with FNV-1a (a fixed published hash, so features are stable
across runs and platforms).  Mention and event towers are independent
F x d matrices; encoding is a sparse-dense product and similarity is the
plain dot product of the two embeddings.  A stage may hold only the rows
its texts hash to (``Tower``); such a tower is written to, or read from,
a checkpoint one block of rows at a time.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .dataset import Mention
from .errors import DimensionMismatch, InvalidConfig, ParseError, UnknownEvent
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
_CHUNK_TEXTS = 256

WARNING_COUNTS = {"empty_feature_vector": 0}


def reset_warning_counts() -> None:
    for key in WARNING_COUNTS:
        WARNING_COUNTS[key] = 0


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash; fixed constants, no per-process salting.

    The scalar reference for ``ngram_counts_many``, which hashes whole
    lists of n-grams bit-equal to it; the library itself never calls it.
    """
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


def _utf8_bytes(cp: np.ndarray) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The UTF-8 encoding of each code point: the lead bytes, and for each
    k = 1..3 the positions of the code points that have a k-th
    continuation byte together with those bytes."""
    width = 1 + (cp >= 0x80) + (cp >= 0x800) + (cp >= 0x10000).astype(np.int64)
    lead = cp >> 6 * (width - 1) | np.array([0, 0, 0xC0, 0xE0, 0xF0])[width]
    continuation = []
    for k in range(1, 4):
        at = np.flatnonzero(width > k)
        byte = cp[at] >> 6 * (width[at] - 1 - k) & 0x3F | 0x80
        continuation.append((at, byte.astype(np.uint64)))
    return lead.astype(np.uint64), continuation


def ngram_counts_many(
    texts: list[str], buckets: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per text, the ascending bucket ids in [0, buckets) of its character
    3-5-grams and their float counts.

    Bit-equal to bucketing ``fnv1a64`` of each n-gram's UTF-8 bytes, but
    every n-gram of a run of texts is hashed in whole-array steps: the
    state of the n-gram starting at each character advances one character
    at a time, its lead byte for all starts at once and its continuation
    bytes only where the character has them.  Runs of ``_CHUNK_TEXTS``
    texts bound the scratch arrays.  Text that does not encode as UTF-8 (a
    lone surrogate) raises ``UnicodeEncodeError``.
    """
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for lo in range(0, len(texts), _CHUNK_TEXTS):
        out += _ngram_counts_chunk(texts[lo : lo + _CHUNK_TEXTS], buckets)
    return out


def _ngram_counts_chunk(
    texts: list[str], buckets: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    cp = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4").astype(np.int64)
    size = cp.size
    lengths = np.array([len(text) for text in texts])
    text_of = np.repeat(np.arange(len(texts)), lengths)
    # characters left in its text from each start, this one included
    left = np.cumsum(lengths)[text_of] - np.arange(size)
    lead, continuation = _utf8_bytes(cp)
    lead = np.concatenate([lead, np.zeros(max(NGRAM_SIZES), np.uint64)])
    prime, width = np.uint64(_FNV_PRIME), np.uint64(buckets)

    h = np.full(size, _FNV_OFFSET, dtype=np.uint64)
    keys = []
    for j in range(max(NGRAM_SIZES)):
        h ^= lead[j : j + size]
        h *= prime
        for at, byte in continuation:
            start = at - j
            keep = start >= 0
            start = start[keep]
            h[start] = (h[start] ^ byte[keep]) * prime
        n = j + 1
        if n in NGRAM_SIZES:
            valid = left >= n
            keys.append(text_of[valid] * buckets + (h[valid] % width).astype(np.int64))
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    owner = cells // buckets
    bounds = np.searchsorted(owner, np.arange(len(texts) + 1))
    bucket, counts = cells - owner * buckets, counts.astype(float)
    return [(bucket[lo:hi], counts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def ngram_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """``ngram_counts_many`` of one text."""
    return ngram_counts_many([text], buckets)[0]


def hash_texts(texts: list[str], F: int) -> list[FeatureVector]:
    """Count each text's character 3-5-grams, hash each into [0, F),
    L2-normalize.

    Texts too short for any n-gram produce the zero vector and bump the
    empty-feature-vector warning counter once each.
    """
    vectors = []
    for indices, counts in ngram_counts_many(texts, F):
        if indices.size:
            counts = counts / np.linalg.norm(counts)
        else:
            WARNING_COUNTS["empty_feature_vector"] += 1
        vectors.append(FeatureVector(indices=indices, values=counts, F=F))
    return vectors


def hash_text(text: str, F: int) -> FeatureVector:
    """``hash_texts`` of one text."""
    return hash_texts([text], F)[0]


def hashed(F: int) -> Callable[[list[str]], list[FeatureVector]]:
    """The bi-encoder's text features: ``hash_texts`` over F.

    Featurizers hash whole lists of texts through this, so a wrapper
    installed on ``encoder.hash_text`` sees only one-text calls, none of
    the batched ones.
    """
    if F < 1:
        raise InvalidConfig("F must be positive")
    return lambda texts: hash_texts(texts, F)


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

    ``features`` maps a list of texts to what the caller stores per text:
    training's ``hashed(F)`` vectors, the retrieval index's event-tower
    encodings, or the reranker's raw bucket counts.  Each lookup hands all
    of its misses to one ``features`` call.
    An event is featurized in the mention's language in multilingual mode
    and always in the fallback language (English) in crosslingual mode;
    each mention id and each (event id, resolved language) is featurized
    once, and a repeated lookup returns the same object.
    """

    def __init__(
        self,
        events: list[Event],
        features: Callable[[list[str]], list[Any]],
        mode: str = "multilingual",
        max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
        max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    ):
        if mode not in LANGUAGE_MODES:
            raise InvalidConfig(f"language mode must be one of {LANGUAGE_MODES}, got {mode!r}")
        self.corpus = {event.id: event for event in events}
        self.features = features
        self.mode = mode
        self.max_context_chars = max_context_chars
        self.max_cand_chars = max_cand_chars
        self._mention: dict[str, Any] = {}
        self._event: dict[tuple[str, str], Any] = {}

    def language(self, mention_language: str) -> str:
        """The label language events are featurized in for such a mention."""
        return mention_language if self.mode == "multilingual" else FALLBACK_LANGUAGE

    def featurize(
        self,
        mentions: list[Mention],
        events: list[tuple[str, str]] = (),
        context: str = "",
    ) -> tuple[list[Any], list[Any]]:
        """Features of ``mentions`` and of ``events``, (event id, mention
        language) pairs; every text not memoized yet goes to one
        ``features`` call.  ``context`` says where an unknown event id came
        from."""
        texts: dict[Any, str] = {}
        for m in mentions:
            if m.id not in self._mention:
                texts[m.id] = span_window(m, self.max_context_chars)
        n_mentions = len(texts)
        keys = [(event_id, self.language(language)) for event_id, language in events]
        for key in keys:
            if key not in self._event and key not in texts:
                event = self.corpus.get(key[0])
                if event is None:
                    raise UnknownEvent(key[0], context)
                texts[key] = event_text(event, key[1], max_cand_chars=self.max_cand_chars)
        if texts:
            features = self.features(list(texts.values()))
            keys_in_order = list(texts)
            self._mention.update(zip(keys_in_order[:n_mentions], features[:n_mentions]))
            self._event.update(zip(keys_in_order[n_mentions:], features[n_mentions:]))
        return [self._mention[m.id] for m in mentions], [self._event[key] for key in keys]

    def mentions(self, mentions: list[Mention]) -> list[Any]:
        return self.featurize(mentions)[0]

    def events(
        self, event_ids: list[str], mention_language: str, context: str = ""
    ) -> list[Any]:
        """Features of the events' texts for a mention in ``mention_language``;
        ``context`` says where an unknown event id came from."""
        pairs = [(event_id, mention_language) for event_id in event_ids]
        return self.featurize([], pairs, context)[1]

    def mention(self, mention: Mention) -> Any:
        return self.mentions([mention])[0]

    def event(self, event_id: str, mention_language: str, context: str = "") -> Any:
        return self.events([event_id], mention_language, context)[0]


BLOCK_ROWS = 4096  # tower rows per block when a tower is drawn, written or read whole


def _gather(blocks, rows: np.ndarray, d: int) -> np.ndarray:
    """The rows ``rows`` (ascending) of a d-column matrix that arrives as
    (first row, block of rows) pairs."""
    out = np.empty((rows.size, d))
    for lo, block in blocks:
        a, b = np.searchsorted(rows, (lo, lo + len(block)))
        block.take(rows[a:b] - lo, axis=0, out=out[a:b])
    return out


def _init_blocks(F: int, d: int, seed: int, tower: int):
    """Tower ``tower`` (0 mention, 1 event) of ``init_encoder(F, d, seed)``,
    ``BLOCK_ROWS`` rows at a time.  Each value is one 64-bit draw of the
    "init" stream, so the event tower starts F x d draws in."""
    rng = substream_rng(seed, "init")
    rng.bit_generator.advance(tower * F * d)
    for lo in range(0, F, BLOCK_ROWS):
        yield lo, rng.uniform(-0.05, 0.05, size=(min(BLOCK_ROWS, F - lo), d))


def feature_rows(fvs: list[FeatureVector], F: int) -> np.ndarray:
    """The ascending rows of an F-row tower that any of ``fvs`` reads."""
    held = np.zeros(F, dtype=bool)
    for fv in fvs:
        held[fv.indices] = True
    return np.flatnonzero(held)


class Tower:
    """The rows ``rows`` (ascending global ids) of an F x d tower, as ``values``.

    It is indexed by arrays of global row ids, as a full F x d array is, so
    ``encode`` and the losses run on either; a row it does not hold raises
    ``DimensionMismatch`` rather than being read.  A tower drawn by
    ``init_rows`` keeps ``init``, (seed, tower index), which regenerates
    the rows it does not hold, so it can still be written whole.
    """

    ndim = 2

    def __init__(
        self, F: int, rows: np.ndarray, values: np.ndarray, init: tuple[int, int] | None = None
    ):
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise DimensionMismatch("a tower holds one row of values per row id")
        if rows.size and (rows[0] < 0 or rows[-1] >= F or np.any(rows[1:] <= rows[:-1])):
            raise DimensionMismatch(f"tower rows must be distinct, ascending and in [0, {F})")
        self.rows, self.values, self.init = rows, values, init
        # global row id -> its row in ``values``; a row not held maps one
        # past the end, so numpy's bounds check rejects it (never a -1)
        self.slot = np.full(F, rows.size, dtype=np.intp)
        self.slot[rows] = np.arange(rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        return self.slot.size, self.values.shape[1]

    def _not_held(self, rows: np.ndarray) -> DimensionMismatch:
        rows = np.asarray(rows).reshape(-1)
        missing = rows[~np.isin(rows, self.rows)]
        return DimensionMismatch(
            f"tower row {int(missing[0])} is not held; densify() the encoder "
            "to encode texts it was not built for"
        )

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        try:
            # take gathers rows about twice as fast as fancy indexing
            return self.values.take(self.slot.take(rows), axis=0)
        except IndexError:
            raise self._not_held(rows) from None

    def __setitem__(self, rows: np.ndarray, value: np.ndarray) -> None:
        try:
            self.values[self.slot[rows]] = value
        except IndexError:
            raise self._not_held(rows) from None

    def copy(self) -> "Tower":
        return Tower(self.shape[0], self.rows.copy(), self.values.copy(), self.init)

    def blocks(self):
        """The whole tower, ``BLOCK_ROWS`` rows at a time: its initial
        values with the held rows written over them."""
        F, d = self.shape
        if self.init is None:
            raise DimensionMismatch(
                f"a tower read in part ({self.rows.size} of {F} rows) cannot be written whole"
            )
        for lo, block in _init_blocks(F, d, *self.init):
            a, b = np.searchsorted(self.rows, (lo, lo + len(block)))
            block[self.rows[a:b] - lo] = self.values[a:b]
            yield lo, block

    def dense(self) -> np.ndarray:
        """The whole tower as an F x d array."""
        F, d = self.shape
        return _gather(self.blocks(), np.arange(F), d)


@dataclass
class EncoderParams:
    """Two independent linear towers over the hashed feature space, each a
    full F x d array or a ``Tower`` holding some of its rows."""

    W_mention: np.ndarray | Tower
    W_event: np.ndarray | Tower

    def __post_init__(self):
        if self.W_mention.shape != self.W_event.shape:
            raise DimensionMismatch("tower shapes must match")
        if self.W_mention.ndim != 2 or 0 in self.W_mention.shape:
            raise DimensionMismatch("towers must be F x d matrices with F, d >= 1")

    @property
    def F(self) -> int:
        return self.W_mention.shape[0]

    @property
    def d(self) -> int:
        return self.W_mention.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.W_mention.copy(), self.W_event.copy())

    def densify(self) -> "EncoderParams":
        """These towers as full F x d arrays."""
        return EncoderParams(
            *(W.dense() if isinstance(W, Tower) else W for W in (self.W_mention, self.W_event))
        )


def init_encoder(F: int = DEFAULT_F, d: int = DEFAULT_D, seed: int = 0) -> EncoderParams:
    """Seeded uniform(-0.05, 0.05) towers via the "init" substream."""
    if F < 1 or d < 1:
        raise InvalidConfig("F and d must be positive")
    rng = substream_rng(seed, "init")
    return EncoderParams(
        W_mention=rng.uniform(-0.05, 0.05, size=(F, d)),
        W_event=rng.uniform(-0.05, 0.05, size=(F, d)),
    )


def init_rows(
    F: int, d: int, seed: int, mention_rows: np.ndarray, event_rows: np.ndarray
) -> EncoderParams:
    """The rows ``mention_rows`` and ``event_rows`` of the towers of
    ``init_encoder(F, d, seed)``, drawn ``BLOCK_ROWS`` rows at a time so
    that neither tower is ever held whole."""
    if F < 1 or d < 1:
        raise InvalidConfig("F and d must be positive")
    return EncoderParams(
        *(
            Tower(F, rows, _gather(_init_blocks(F, d, seed, tower), rows, d), (seed, tower))
            for tower, rows in enumerate((mention_rows, event_rows))
        )
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
# Checkpoints: one sorted JSON header line {"format_version", "kind",
# "arrays": [{"name", "shape"}, ...], **meta}, then every array as row-major
# '<f8' in header order.  The encoder and the reranker share this container.

CHECKPOINT_VERSION = 2
TOWERS = ("mention", "event")


def _blocks(array: np.ndarray | Tower):
    return array.blocks() if isinstance(array, Tower) else [(0, array)]


def save_arrays(
    path: str | Path, kind: str, arrays: dict[str, np.ndarray | Tower], **meta
) -> None:
    """Write the container to a sibling temporary file, then move it onto
    ``path``: a write that fails leaves any earlier file there as it was.
    A ``Tower`` is written block by block, never held whole."""
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "arrays": [{"name": name, "shape": list(np.shape(a))} for name, a in arrays.items()],
        **meta,
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for array in arrays.values():
                for _, block in _blocks(array):
                    # the array's own buffer: no bytes copy of the block
                    fh.write(np.ascontiguousarray(block, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(fh, path: str | Path, kind: str, names: tuple[str, ...]):
    """The array shapes and the header of a ``kind`` container open at its
    start, checked down to the size rule; ``fh`` is left at the arrays."""

    def reject(reason: str) -> ParseError:
        return ParseError(str(path), 1, reason)

    try:
        header = json.loads(fh.readline())
    except ValueError as exc:
        raise reject(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise reject("checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise reject(f"unsupported checkpoint format {header.get('format_version')!r}")
    if header.get("kind") != kind:
        raise reject(f"checkpoint kind is {header.get('kind')!r}, not {kind!r}")
    specs = header.get("arrays")
    if not isinstance(specs, list) or not all(
        isinstance(spec, dict) and isinstance(spec.get("name"), str) for spec in specs
    ):
        raise reject("arrays must be a list of {name, shape} objects")
    shapes = {spec["name"]: spec.get("shape") for spec in specs}
    if len(shapes) != len(specs) or not set(names) <= shapes.keys():
        raise reject(f"arrays need distinct names, {list(names)} among them")
    for shape in shapes.values():
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise reject(f"array shape {shape!r} is not a list of non-negative integers")
    threshold = header.get("threshold")
    if not (threshold is None or isinstance(threshold, float) and 0 < threshold < 1):
        raise reject(f"threshold {threshold!r} is neither null nor a number in (0, 1)")
    size = 8 * sum(math.prod(shape) for shape in shapes.values())
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    if body != size:
        problem = "truncated" if body < size else "followed by trailing bytes"
        raise reject(f"checkpoint {problem}: its arrays need {size} bytes, {body} follow")
    return shapes, header


def _file_blocks(fh, F: int, d: int):
    """An F x d array read from ``fh`` ``BLOCK_ROWS`` rows at a time, into
    one reused buffer."""
    buffer = np.empty((BLOCK_ROWS, d), dtype="<f8")
    for lo in range(0, F, BLOCK_ROWS):
        block = buffer[: min(BLOCK_ROWS, F - lo)]
        fh.readinto(block)
        yield lo, block


def _read_arrays(fh, shapes: dict[str, list[int]], rows: dict[str, np.ndarray]):
    """The arrays after a checked header: whole, or for an F x d array
    named in ``rows`` only those rows."""
    arrays = {}
    for name, shape in shapes.items():
        if name in rows:
            arrays[name] = _gather(_file_blocks(fh, *shape), rows[name], shape[1])
        else:
            array = np.empty(math.prod(shape), dtype="<f8")
            fh.readinto(array.view(np.uint8))
            arrays[name] = array.reshape(shape)
    return arrays


def load_arrays(
    path: str | Path, kind: str, names: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """The arrays of a ``kind`` checkpoint that holds at least ``names``,
    each read straight into its own writeable memory, and the header's meta.

    A malformed header, or a file whose bytes after the header are not
    exactly 8 per declared element (truncated, trailing bytes, or shapes
    too large for the file), raises ``ParseError`` before any array is
    allocated.
    """
    with open(path, "rb") as fh:
        shapes, header = _read_header(fh, path, kind, names)
        arrays = _read_arrays(fh, shapes, {})
    meta = {k: v for k, v in header.items() if k not in ("format_version", "kind", "arrays")}
    return arrays, meta


def save_checkpoint(
    path: str | Path,
    params: EncoderParams,
    extra_heads: dict[str, np.ndarray] | None = None,
) -> None:
    arrays = {"mention": params.W_mention, "event": params.W_event, **(extra_heads or {})}
    save_arrays(path, "encoder", arrays)


def _tower_shape(path: str | Path, shapes: dict[str, list[int]]) -> tuple[int, int]:
    mention, event = (shapes[name] for name in TOWERS)
    if mention != event or len(mention) != 2 or 0 in mention:
        reason = f"towers must be two F x d matrices with F, d >= 1, not {mention} and {event}"
        raise ParseError(str(path), 1, reason)
    return mention[0], mention[1]


def tower_shape(path: str | Path) -> tuple[int, int]:
    """The (F, d) of an encoder checkpoint's towers, read from its header;
    a malformed file raises ``ParseError``, as ``load_checkpoint`` does."""
    with open(path, "rb") as fh:
        return _tower_shape(path, _read_header(fh, path, "encoder", TOWERS)[0])


def load_checkpoint(
    path: str | Path, rows: dict[str, np.ndarray] | None = None
) -> tuple[EncoderParams, dict[str, np.ndarray]]:
    """The towers and the extra heads, by name, of an encoder checkpoint.

    ``rows`` maps a tower name ("mention", "event") to the ascending rows
    to hold of it: that tower streams past one block-sized buffer and
    comes back as a ``Tower`` of those rows alone.  A malformed file
    raises ``ParseError`` before any array is read.
    """
    rows = rows or {}
    if not rows.keys() <= set(TOWERS):
        raise InvalidConfig(f"rows can only be chosen of the towers {TOWERS}")
    with open(path, "rb") as fh:
        shapes, _ = _read_header(fh, path, "encoder", TOWERS)
        F, _ = _tower_shape(path, shapes)
        arrays = _read_arrays(fh, shapes, rows)
    towers = [
        Tower(F, rows[name], arrays.pop(name)) if name in rows else arrays.pop(name)
        for name in TOWERS
    ]
    return EncoderParams(*towers), arrays
