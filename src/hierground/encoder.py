"""Feature hashing, the two-tower linear encoder, and checkpoint files.

Text is featurized into L2-normalized sparse vectors by hashing character
3-5-grams with FNV-1a (a fixed published hash, so features are stable
across runs and platforms).  Mention and event towers are independent
float32 F x d matrices; encoding is a sparse-dense product and similarity
is the plain dot product of the two float64 embeddings.  A tower's initial values are a
counter hash of (seed, tower, row, column), so a stage may hold only the
rows its texts hash to (``Tower``), and a checkpoint stores only the rows
a tower holds: every other row is regenerated from the seed.
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
from .seeding import substream_seed

DEFAULT_F = 2**18
DEFAULT_D = 32
DEFAULT_MAX_CONTEXT_CHARS = 128
DEFAULT_MAX_CAND_CHARS = 128
NGRAM_SIZES = (3, 4, 5)
LANGUAGE_MODES = ("multilingual", "crosslingual")
TOWERS = ("mention", "event")
# the largest towers a checkpoint may declare: a file no longer holds every
# row, so its size does not bound them
MAX_F = 2**24
MAX_D = 2**10
# the dtype towers are trained, held and stored in: a training step is
# memory-bound, so float32 rows halve its bytes; encodings, scores and the
# loss stay float64
TOWER_DTYPE = np.dtype(np.float32)

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

    Bit-equal to bucketing the FNV-1a 64-bit hash of each n-gram's UTF-8
    bytes (the scalar ``fnv1a64`` in ``tests/oracles.py``), but
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
    if not 1 <= F <= MAX_F:
        raise InvalidConfig(f"F must be positive and at most {MAX_F}")
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


def event_text(
    event: Event,
    language: str,
    fallback: str = FALLBACK_LANGUAGE,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
) -> str:
    label = event.label_for(language, fallback)
    text = label.title if not label.description else f"{label.title} {label.description}"
    return text[:max_cand_chars]


class TextFeaturizer:
    """Memoized features of mention windows and event texts over a corpus.

    ``features`` maps a list of texts to what the caller stores per text:
    ``hashed(F)`` vectors for training and for the retrieval index, which
    encodes them in ``CandidateIndex.matrix``, or the reranker's raw bucket
    counts.  Each lookup hands all of its misses to one ``features`` call.
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


BLOCK_ROWS = 2048  # tower rows per block when initial values are filled or a file is read

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


def init_fill(seed: int, tower: str, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the initial values of rows ``rows`` of ``tower`` ("mention" or
    "event") into ``out``, a rows.size x d float array (the towers'
    ``TOWER_DTYPE``, or float64), and return it.

    Every value is uniform(-0.05, 0.05) and a pure function of (seed,
    tower, row, column), so any set of rows costs O(rows): hash j of row r
    is output r * ceil(d/2) + j of a SplitMix64 generator seeded with
    ``substream_seed(seed, "init:<tower>")``, and its low and high 32 bits
    give columns 2j and 2j + 1 (a counter-based generator in the style of
    Salmon et al. 2011).  Rows are hashed ``BLOCK_ROWS`` at a time in two
    reused buffers, so no temporary is the size of ``out``.
    """
    d = out.shape[1]
    h = (d + 1) // 2
    # state of output n = key + (n + 1) * gamma, mod 2^64
    first = np.uint64((substream_seed(seed, f"init:{tower}") + _GAMMA) & _MASK64)
    counters = np.arange(h, dtype=np.uint64)
    z = np.empty((min(BLOCK_ROWS, rows.size), h), dtype=np.uint64)
    shifted = np.empty_like(z)
    for lo in range(0, rows.size, BLOCK_ROWS):
        block = rows[lo : lo + BLOCK_ROWS]
        zb, tb = z[: block.size], shifted[: block.size]
        np.multiply(block[:, None].astype(np.uint64), np.uint64(h), out=zb)
        zb += counters
        zb *= np.uint64(_GAMMA)
        zb += first
        for shift, prime in _MIX:
            zb ^= np.right_shift(zb, shift, out=tb)
            zb *= prime
        zb ^= np.right_shift(zb, 31, out=tb)
        # '<u8' is a no-op here and a byte swap on big-endian hosts, so the
        # '<u4' view reads each hash's low half first everywhere
        halves = zb.astype("<u8", copy=False).view("<u4")[:, :d]
        np.multiply(halves, 0.1 / 2**32, out=out[lo : lo + block.size])
        out[lo : lo + block.size] -= 0.05
    return out


def feature_rows(fvs: list[FeatureVector], F: int) -> np.ndarray:
    """The ascending rows of an F-row tower that any of ``fvs`` reads."""
    held = np.zeros(F, dtype=bool)
    for fv in fvs:
        held[fv.indices] = True
    return np.flatnonzero(held)


def _check_rows(F: int, rows: np.ndarray) -> None:
    if rows.size and (rows[0] < 0 or rows[-1] >= F or np.any(rows[1:] <= rows[:-1])):
        raise DimensionMismatch(f"tower rows must be distinct, ascending and in [0, {F})")


class Tower:
    """An F x d tower that holds the rows ``rows`` (ascending global ids)
    as ``values``; every other row keeps its initial value,
    ``init_fill(*init, ...)`` with ``init`` = (seed, tower name).

    It is indexed by arrays of global row ids, as a full F x d array is, so
    ``encode`` and the losses run on either; a row it does not hold raises
    ``DimensionMismatch`` rather than being read.
    """

    ndim = 2

    def __init__(self, F: int, rows: np.ndarray, values: np.ndarray, init: tuple[int, str]):
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise DimensionMismatch("a tower holds one row of values per row id")
        _check_rows(F, rows)
        self.rows, self.values, self.init = rows, values, init
        # global row id -> its row in ``values``; a row not held maps one
        # past the end, so numpy's bounds check rejects it (never a -1)
        self.slot = np.full(F, rows.size, dtype=np.intp)
        self.slot[rows] = np.arange(rows.size)

    @property
    def shape(self) -> tuple[int, int]:
        return self.slot.size, self.values.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

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

    def dense(self) -> np.ndarray:
        """The whole tower as an F x d array."""
        F, d = self.shape
        out = init_fill(*self.init, np.arange(F), np.empty((F, d), self.dtype))
        out[self.rows] = self.values
        return out


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


def _check_shape(F: int, d: int) -> None:
    if not (1 <= F <= MAX_F and 1 <= d <= MAX_D):
        raise InvalidConfig(f"F and d must be positive, F at most {MAX_F} and d at most {MAX_D}")


def init_encoder(F: int = DEFAULT_F, d: int = DEFAULT_D, seed: int = 0) -> EncoderParams:
    """Seeded uniform(-0.05, 0.05) towers: ``init_fill`` of every row, in
    ``TOWER_DTYPE``."""
    _check_shape(F, d)
    rows = np.arange(F)
    return EncoderParams(
        *(init_fill(seed, tower, rows, np.empty((F, d), TOWER_DTYPE)) for tower in TOWERS)
    )


def init_rows(
    F: int, d: int, seed: int, mention_rows: np.ndarray, event_rows: np.ndarray
) -> EncoderParams:
    """The rows ``mention_rows`` and ``event_rows`` of the towers of
    ``init_encoder(F, d, seed)``, as ``Tower``s that never hold either
    tower whole."""
    _check_shape(F, d)
    return EncoderParams(
        *(
            Tower(
                F, rows, init_fill(seed, tower, rows, np.empty((rows.size, d), TOWER_DTYPE)),
                (seed, tower),
            )
            for tower, rows in zip(TOWERS, (mention_rows, event_rows))
        )
    )


def encode(params: EncoderParams, fv: FeatureVector, tower: str) -> np.ndarray:
    """fv' W_tower: the float64 d-dim embedding of a featurized text,
    computed in the tower's dtype (a mixed-dtype product costs more than
    casting the few feature values down)."""
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
    return (fv.values.astype(W.dtype) @ W[fv.indices]).astype(np.float64, copy=False)


def held_values(W: np.ndarray | Tower) -> np.ndarray:
    """What held-row ids index: a ``Tower``'s values, or a full F x d array,
    which holds every row at its own id."""
    return W.values if isinstance(W, Tower) else W


class DesignWorkspace:
    """The reused buffers of ``design``, the one design-matrix kernel.

    ``mark`` and ``column`` span the held rows of the largest tower seen.
    ``buffer`` holds, flat, every design matrix built since the last
    ``reset``, so a loss that needs two (the linking loss) gets two views
    of one buffer, in the dtype of the values the designs multiply.  Each
    grows when a tower or a batch needs more.
    """

    def __init__(self, held: int = 0, size: int = 0):
        self.mark = np.zeros(held, dtype=bool)
        self.column = np.empty(held, dtype=np.intp)
        self.buffer = np.empty(size)
        self.used = 0

    def reset(self) -> None:
        self.used = 0

    def design(
        self, W: np.ndarray | Tower, fvs: list[FeatureVector]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, held, X)`` of a batch over the tower ``W``: the ascending
        global rows it touches, the same rows as ids into
        ``held_values(W)``, and ``X[i, j]``, feature ``rows[j]`` of
        ``fvs[i]``.  ``X @ held_values(W)[held]`` encodes the batch, and
        ``X.T @ G`` maps the gradient ``G`` of its encodings to those rows.

        Nothing is sorted: the indices go through the tower's slot table to
        held-row ids, which are marked, read back ascending and numbered
        through ``column``; X, a zeroed part of ``buffer``, is filled by
        assignment, so each vector's indices must be distinct (``hash_texts``
        and the reranker's pair features make them ascending), and each
        vector's dimension must be ``W``'s F; the callers check both.  A row
        ``W`` does not hold raises ``DimensionMismatch`` naming it.
        """
        indices = np.concatenate([fv.indices for fv in fvs])
        tower = isinstance(W, Tower)
        n_held, local = (W.rows.size, W.slot.take(indices)) if tower else (len(W), indices)
        if self.mark.size < n_held:
            self.mark = np.zeros(n_held, dtype=bool)
            self.column = np.empty(n_held, dtype=np.intp)
        # a row not held has slot ``n_held``, one past the end of this view
        mark = self.mark[:n_held]
        try:
            mark[local] = True
        except IndexError:
            mark.fill(False)
            raise W._not_held(indices) from None
        held = np.flatnonzero(mark)
        mark[held] = False
        n, r = len(fvs), held.size
        self.column[held] = np.arange(r)
        end = self.used + n * r
        dtype = held_values(W).dtype
        if end > self.buffer.size or dtype != self.buffer.dtype:
            # the designs built since reset keep the old buffer alive
            self.buffer = np.empty(max(end, 2 * self.buffer.size), dtype)
        flat = self.buffer[self.used : end]
        self.used = end
        flat.fill(0.0)
        starts = np.repeat(np.arange(n) * r, [fv.indices.size for fv in fvs])
        flat[starts + self.column[local]] = np.concatenate([fv.values for fv in fvs])
        return W.rows.take(held) if tower else held, held, flat.reshape(n, r)


# ---------------------------------------------------------------------------
# Checkpoints: one sorted JSON header line {"format_version", "kind",
# "arrays": [{"name", "shape", "dtype"}, ...], **meta}, then every array
# row-major in its dtype ('<f8', '<f4' or '<i8') in header order.  The
# encoder and the reranker share this container.

CHECKPOINT_VERSION = 4
DTYPES = ("<f8", "<f4", "<i8")  # the size rule reads each one's itemsize
# each tower is stored as its ascending row ids and their values
TOWER_ARRAYS = {
    f"{tower}.{part}": dtype
    for tower in TOWERS
    for part, dtype in (("rows", "<i8"), ("values", TOWER_DTYPE.newbyteorder("<").str))
}


def _stored_dtype(array: np.ndarray) -> str:
    """The little-endian file dtype of an array of this dtype."""
    if array.dtype.kind in "iu":
        return "<i8"
    return "<f4" if array.dtype == np.float32 else "<f8"


def save_arrays(path: str | Path, kind: str, arrays: dict[str, np.ndarray], **meta) -> None:
    """Write the container to a sibling temporary file, then move it onto
    ``path``: a write that fails leaves any earlier file there as it was.
    Each array is stored in its own dtype: an integer one as '<i8', a
    float32 one as '<f4' and any other as '<f8'."""
    dtypes = {name: _stored_dtype(a) for name, a in arrays.items()}
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "arrays": [
            {"name": name, "shape": list(a.shape), "dtype": dtypes[name]}
            for name, a in arrays.items()
        ],
        **meta,
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for name, array in arrays.items():
                # the array's own buffer when it already has the dtype
                fh.write(np.ascontiguousarray(array, dtype=dtypes[name]))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(fh, path: str | Path, kind: str, dtypes: dict[str, str]):
    """The array specs, name -> (shape, dtype, file offset), and the header
    of a ``kind`` container open at its start, checked down to the size
    rule; ``dtypes`` names the arrays it must hold and their dtypes."""

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
        raise reject("arrays must be a list of {name, shape, dtype} objects")
    names = {spec["name"]: spec for spec in specs}
    if len(names) != len(specs) or not dtypes.keys() <= names.keys():
        raise reject(f"arrays need distinct names, {list(dtypes)} among them")
    for spec in specs:
        shape, dtype = spec.get("shape"), spec.get("dtype")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise reject(f"array shape {shape!r} is not a list of non-negative integers")
        if dtype not in DTYPES or dtype != dtypes.get(spec["name"], dtype):
            want = dtypes.get(spec["name"], f"one of {DTYPES}")
            raise reject(f"array {spec['name']!r} has dtype {dtype!r}, not {want}")
    threshold = header.get("threshold")
    if not (threshold is None or isinstance(threshold, float) and 0 < threshold < 1):
        raise reject(f"threshold {threshold!r} is neither null nor a number in (0, 1)")
    sizes = [np.dtype(spec["dtype"]).itemsize * math.prod(spec["shape"]) for spec in specs]
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    if body != sum(sizes):
        problem = "truncated" if body < sum(sizes) else "followed by trailing bytes"
        raise reject(f"checkpoint {problem}: its arrays need {sum(sizes)} bytes, {body} follow")
    offsets = fh.tell() + np.cumsum([0, *sizes[:-1]])
    return {
        spec["name"]: (spec["shape"], spec["dtype"], int(offset))
        for spec, offset in zip(specs, offsets)
    }, header


def _read_array(fh, spec: tuple[list[int], str, int]) -> np.ndarray:
    shape, dtype, offset = spec
    array = np.empty(shape, dtype=dtype)
    fh.seek(offset)
    fh.readinto(array)
    return array


def load_arrays(
    path: str | Path, kind: str, names: tuple[str, ...]
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """The arrays of a ``kind`` checkpoint that holds at least ``names``,
    all of them '<f8', each read straight into its own writeable memory,
    and the header's meta.

    A malformed header, or a file whose bytes after the header are not
    exactly its arrays' elements times their itemsizes (truncated,
    trailing bytes, or shapes too large for the file), raises
    ``ParseError`` before any array is allocated.
    """
    with open(path, "rb") as fh:
        specs, header = _read_header(fh, path, kind, dict.fromkeys(names, "<f8"))
        arrays = {name: _read_array(fh, spec) for name, spec in specs.items()}
    meta = {k: v for k, v in header.items() if k not in ("format_version", "kind", "arrays")}
    return arrays, meta


def save_checkpoint(
    path: str | Path,
    params: EncoderParams,
    extra_heads: dict[str, np.ndarray] | None = None,
) -> None:
    """Write both towers and the extra heads as an "encoder" container.

    Each tower is stored as ascending row ids and their values, and the
    header holds F and the init seed that regenerates every row a tower
    does not store: the seed of the first ``Tower``, else 0.  A ``Tower``
    of that seed stores the rows it holds; any other tower stores all F
    rows.  Tower values are stored as '<f4' and the heads as they are,
    so loading gives back every value of ``TOWER_DTYPE`` towers that was
    saved.
    """
    towers = dict(zip(TOWERS, (params.W_mention, params.W_event)))
    seeds = [W.init[0] for W in towers.values() if isinstance(W, Tower)]
    seed = seeds[0] if seeds else 0
    arrays = {}
    for name, W in towers.items():
        if isinstance(W, Tower) and W.init == (seed, name):
            rows, values = W.rows, W.values
        else:
            rows, values = np.arange(params.F), W.dense() if isinstance(W, Tower) else W
        arrays[f"{name}.rows"] = rows
        arrays[f"{name}.values"] = values.astype(TOWER_ARRAYS[f"{name}.values"], copy=False)
    save_arrays(path, "encoder", {**arrays, **(extra_heads or {})}, F=params.F, init_seed=seed)


def _read_encoder(fh, path: str | Path):
    """F, d, the init seed, each tower's stored row ids and the array specs
    of an encoder checkpoint open at its start, all checked before any
    array is allocated."""

    def reject(reason: str) -> ParseError:
        return ParseError(str(path), 1, reason)

    specs, header = _read_header(fh, path, "encoder", TOWER_ARRAYS)
    F, seed = header.get("F"), header.get("init_seed")
    if type(F) is not int or not 1 <= F <= MAX_F:
        raise reject(f"tower row count F = {F!r} is not an integer in [1, {MAX_F}]")
    if type(seed) is not int:
        raise reject(f"init_seed {seed!r} is not an integer")
    m_rows, m_values, e_rows, e_values = (specs[name][0] for name in TOWER_ARRAYS)
    d = m_values[-1] if len(m_values) == 2 else 0
    for rows, values in ((m_rows, m_values), (e_rows, e_values)):
        if len(rows) != 1 or values != [rows[0], d] or not 1 <= d <= MAX_D:
            raise reject(
                f"towers need row ids [n] and values [n, d], one d in [1, {MAX_D}], "
                f"not {m_rows} {m_values} and {e_rows} {e_values}"
            )
    stored = {}
    for tower in TOWERS:
        (n,), _, offset = specs[f"{tower}.rows"]
        fh.seek(offset)
        ids = np.frombuffer(fh.read(8 * n), dtype="<i8")
        try:
            _check_rows(F, ids)
        except DimensionMismatch as exc:
            raise reject(f"{tower} {exc}") from None
        stored[tower] = ids
    return F, d, seed, stored, specs


def tower_shape(path: str | Path) -> tuple[int, int]:
    """The (F, d) of an encoder checkpoint's towers; a malformed file
    raises ``ParseError``, as ``load_checkpoint`` does."""
    with open(path, "rb") as fh:
        return _read_encoder(fh, path)[:2]


def _read_rows_into(fh, spec: tuple[list[int], str, int], out: np.ndarray, at: np.ndarray):
    """A tower's stored values, read ``BLOCK_ROWS`` rows at a time in
    their file dtype into ``out[at]``."""
    (n, d), dtype, offset = spec
    buffer = np.empty((min(BLOCK_ROWS, n), d), dtype=dtype)
    fh.seek(offset)
    for lo in range(0, n, BLOCK_ROWS):
        block = buffer[: min(BLOCK_ROWS, n - lo)]
        fh.readinto(block)
        out[at[lo : lo + len(block)]] = block


def load_checkpoint(
    path: str | Path, rows: dict[str, np.ndarray] | None = None
) -> tuple[EncoderParams, dict[str, np.ndarray]]:
    """The towers and the extra heads, by name, of an encoder checkpoint.

    ``rows`` maps a tower name ("mention", "event") to the ascending rows
    to hold of it: that tower comes back as a ``Tower`` of those rows and
    of every row the file stores, and any other tower as a full F x d
    array, both in ``TOWER_DTYPE``.  ``init_fill`` of the header's init
    seed writes each held row into the tower's array, and the stored rows
    are then read over theirs, so the rows the file lacks take no memory
    beyond that array.  A malformed file raises ``ParseError`` before any
    array is allocated.
    """
    rows = rows or {}
    if not rows.keys() <= set(TOWERS):
        raise InvalidConfig(f"rows can only be chosen of the towers {TOWERS}")
    with open(path, "rb") as fh:
        F, d, seed, stored, specs = _read_encoder(fh, path)
        for name in rows:
            _check_rows(F, rows[name])
        towers = []
        for name in TOWERS:
            if name in rows:
                # the union through a mask: np.union1d's sort costs more
                mask = np.zeros(F, dtype=bool)
                mask[rows[name]] = mask[stored[name]] = True
                held = np.flatnonzero(mask)
            else:
                held = np.arange(F)
            values = init_fill(seed, name, held, np.empty((held.size, d), TOWER_DTYPE))
            _read_rows_into(fh, specs[f"{name}.values"], values, held.searchsorted(stored[name]))
            towers.append(Tower(F, held, values, (seed, name)) if name in rows else values)
        heads = {
            name: _read_array(fh, spec) for name, spec in specs.items() if name not in TOWER_ARRAYS
        }
    return EncoderParams(*towers), heads
