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

import contextlib
import functools
import json
import math
import os
from collections.abc import Iterator
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
    """Sparse L2-normalized bag of hashed n-grams over a space of size F.

    ``hash_texts`` gives int64 indices and float64 values; the reranker's
    pair vectors hold theirs at their true width, indices in the smallest
    integer dtype that holds F - 1 and values in the dtype of the V they
    multiply.  Consumers widen the indices where they index with them.
    """

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

    @classmethod
    def prechecked(cls, indices: np.ndarray, values: np.ndarray, F: int) -> "FeatureVector":
        """A vector whose aligned ``indices`` the caller has checked lie in
        [0, F): the per-vector checks are skipped."""
        fv = object.__new__(cls)
        fv.indices, fv.values, fv.F = indices, values, F
        return fv

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


def ngram_count_runs(
    texts: list[str], buckets: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]]:
    """Per run of ``_CHUNK_TEXTS`` texts, the ascending bucket ids in
    [0, buckets) of each text's character 3-5-grams, their float counts
    and the counts L2-normalized, as three read-only arrays of the run's,
    and each text's bounds in them.

    Bit-equal to bucketing the FNV-1a 64-bit hash of each n-gram's UTF-8
    bytes (the scalar ``fnv1a64`` in ``tests/oracles.py``), but every
    n-gram of a run of texts is hashed in whole-array steps: the state of
    the n-gram starting at each character advances one character at a
    time, its lead byte for all starts at once and its continuation bytes
    only where the character has them.  Runs bound the scratch arrays, and
    each run's counts are normalized in one division, bit-equal to
    normalizing each text alone.  A caller converts whole runs and slices
    its texts out of them; the slices share buffers, so a write into one
    raises rather than reaching its neighbours.  Text that does not encode
    as UTF-8 (a lone surrogate) raises ``UnicodeEncodeError``.
    """
    runs = [
        _ngram_counts_chunk(texts[lo : lo + _CHUNK_TEXTS], buckets)
        for lo in range(0, len(texts), _CHUNK_TEXTS)
    ]
    # Normalize once every run is counted, in place, after copying the
    # counts out: the values keep the place counting gave the counts, among
    # the keys, and the copies, which hash_texts drops, lie together above
    # them.  In a relext-wide benchmark pass (2-core host) this order put
    # peak RSS at about 116 MB, against 124 MB for dividing inside each run
    # and 120 MB for the per-text normalization it replaced.
    out = []
    for keys, values, bounds, norms in runs:
        counts = values.copy()
        np.divide(values, np.repeat(norms, np.diff(bounds)), out=values)
        for array in (keys, counts, values):
            array.flags.writeable = False
        # slicing at Python ints costs less than at numpy ones
        out.append((keys, counts, values, bounds.tolist()))
    return out


def _ngram_hashes(
    texts: list[str], buckets: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The text of each character of a run of texts and, per n-gram size,
    which characters start an n-gram of that size in their text and the
    bucket id in [0, buckets) of each such n-gram, by FNV-1a over its UTF-8
    bytes."""
    cp = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<u4").astype(np.int64)
    size = cp.size
    lengths = np.array([len(text) for text in texts])
    text_of = np.repeat(np.arange(len(texts)), lengths)
    # characters left in its text from each start, this one included
    left = np.cumsum(lengths)[text_of] - np.arange(size)
    lead, continuation = _utf8_bytes(cp)
    lead = np.concatenate([lead, np.zeros(max(NGRAM_SIZES), np.uint64)])
    prime = np.uint64(_FNV_PRIME)
    # h mod buckets: a power of two keeps the low bits, which costs less
    # than a 64-bit division
    if buckets & (buckets - 1):
        reduce, modulus = np.remainder, np.uint64(buckets)
    else:
        reduce, modulus = np.bitwise_and, np.uint64(buckets - 1)

    h = np.full(size, _FNV_OFFSET, dtype=np.uint64)
    grams = []
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
            starts = left >= n
            grams.append((starts, reduce(h[starts], modulus).astype(np.int64)))
    return text_of, grams


def ngram_rows(texts: list[str], buckets: int) -> np.ndarray:
    """The ascending bucket ids that any n-gram of ``texts`` hashes to:
    ``feature_rows`` of their ``hash_texts``, marked a run of
    ``_CHUNK_TEXTS`` texts at a time, with nothing counted or normalized."""
    held = np.zeros(buckets, dtype=bool)
    for lo in range(0, len(texts), _CHUNK_TEXTS):
        for _, ids in _ngram_hashes(texts[lo : lo + _CHUNK_TEXTS], buckets)[1]:
            held[ids] = True
    return np.flatnonzero(held)


def _ngram_counts_chunk(
    texts: list[str], buckets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ascending (text, bucket) cells of a run of texts as the bucket
    ids and float counts of each, each text's bounds in them, and each
    text's L2 norm of its counts."""
    text_of, grams = _ngram_hashes(texts, buckets)
    keys = [text_of[starts] * buckets + ids for starts, ids in grams]
    del grams
    cells, counts = np.unique(np.concatenate(keys), return_counts=True)
    owner = cells // buckets
    bounds = np.searchsorted(owner, np.arange(len(texts) + 1))
    bucket, counts = cells - owner * buckets, counts.astype(float)
    # The counts are integers, so each square and each partial sum of a text
    # is an exact float64 integer while it stays below 2^53: a text of L
    # characters has at most 3L n-grams, whose squared counts sum to at most
    # (3L)^2, under 2^53 for any text shorter than 2^26.5 / 3 (about 2^25)
    # characters.  The sum is then the same in any order, and sqrt and the
    # division round correctly, so each text's values are bit-equal to
    # counts / np.linalg.norm(counts).
    sizes = np.diff(bounds)
    norms = np.zeros(len(texts))
    if counts.size:
        # only the nonempty texts' starts: reduceat reads one cell at a start
        # that repeats the next one, so an empty text would take a square
        norms[sizes > 0] = np.sqrt(np.add.reduceat(counts * counts, bounds[:-1][sizes > 0]))
    return bucket, counts, bounds, norms


def check_keys(keys: np.ndarray, buckets: int) -> None:
    """Raise ``DimensionMismatch`` unless every key lies in [0, buckets)."""
    if keys.size and (keys.min() < 0 or keys.max() >= buckets):
        raise DimensionMismatch(f"feature index outside [0, {buckets})")


def hash_texts(texts: list[str], F: int) -> list[FeatureVector]:
    """Count each text's character 3-5-grams, hash each into [0, F),
    L2-normalize.

    Each of the kernel's runs is range-checked once, so its vectors, slices
    of the run's arrays, skip the per-vector check.  Texts too short for
    any n-gram produce the zero vector and bump the empty-feature-vector
    warning counter once each.
    """
    vectors = []
    for keys, _, values, bounds in ngram_count_runs(texts, F):
        check_keys(keys, F)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                WARNING_COUNTS["empty_feature_vector"] += 1
            vectors.append(FeatureVector.prechecked(keys[lo:hi], values[lo:hi], F))
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
            if m.id not in self._mention and m.id not in texts:
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

    def clear(self) -> None:
        """Forget every memoized text's features; a later lookup featurizes
        its texts again."""
        self._mention.clear()
        self._event.clear()


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
    if fvs:
        held[np.concatenate([fv.indices for fv in fvs])] = True
    return np.flatnonzero(held)


def _check_rows(F: int, rows: np.ndarray) -> None:
    if rows.size and (rows[0] < 0 or rows[-1] >= F or np.any(rows[1:] <= rows[:-1])):
        raise DimensionMismatch(f"tower rows must be distinct, ascending and in [0, {F})")


class Tower:
    """An F x d tower that holds the rows ``rows`` (ascending global ids)
    as ``values``; every other row keeps its initial value,
    ``init_fill(*init, ...)`` with ``init`` = (seed, tower name).  A whole
    tower holds ``arange(F)``.  A tower a checkpoint load left unread
    holds no row and has ``init`` None: its rows are unknown, so it can be
    neither densified nor saved.

    It is indexed by arrays of global row ids; a row it does not hold
    raises ``DimensionMismatch`` rather than being read.
    """

    def __init__(
        self, F: int, rows: np.ndarray, values: np.ndarray, init: tuple[int, str] | None
    ):
        if values.ndim != 2 or values.shape[0] != rows.size:
            raise DimensionMismatch("a tower holds one row of values per row id")
        _check_rows(F, rows)
        self.F, self.rows, self.values, self.init = F, rows, values, init

    @functools.cached_property
    def slot(self) -> np.ndarray:
        """Global row id -> its row in ``values``, built on first use (a
        tower only saved or dropped never needs the F-entry table).  A row
        not held maps one past the end, so numpy's bounds check rejects it
        (never a -1)."""
        slot = np.full(self.F, self.rows.size, dtype=np.intp)
        slot[self.rows] = np.arange(self.rows.size)
        return slot

    @property
    def shape(self) -> tuple[int, int]:
        return self.F, self.values.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def _not_held(self, rows: np.ndarray) -> DimensionMismatch:
        if self.init is None:
            return DimensionMismatch("the tower was left unread; load it to encode with it")
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

    def dense(self) -> "Tower":
        """This tower holding every row."""
        if self.init is None:
            raise DimensionMismatch("a tower left unread has no rows to densify or save")
        F, d = self.shape
        rows = np.arange(F)
        values = init_fill(*self.init, rows, np.empty((F, d), self.dtype))
        values[self.rows] = self.values
        return Tower(F, rows, values, self.init)


@dataclass
class EncoderParams:
    """Two independent linear towers over the hashed feature space, each a
    ``Tower`` holding some or all of its rows."""

    W_mention: Tower
    W_event: Tower

    def __post_init__(self):
        for W in (self.W_mention, self.W_event):
            if not isinstance(W, Tower):
                raise TypeError(f"a tower must be a Tower, not {type(W).__name__}")
        if self.W_mention.shape != self.W_event.shape:
            raise DimensionMismatch("tower shapes must match")
        if 0 in self.W_mention.shape:
            raise DimensionMismatch("towers must be F x d matrices with F, d >= 1")

    @property
    def F(self) -> int:
        return self.W_mention.shape[0]

    @property
    def d(self) -> int:
        return self.W_mention.shape[1]

    def densify(self) -> "EncoderParams":
        """These towers holding every row."""
        return EncoderParams(self.W_mention.dense(), self.W_event.dense())


def _check_shape(F: int, d: int) -> None:
    if not (1 <= F <= MAX_F and 1 <= d <= MAX_D):
        raise InvalidConfig(f"F and d must be positive, F at most {MAX_F} and d at most {MAX_D}")


def _tower_rows(
    F: int, rows: dict[str, np.ndarray | None] | None
) -> dict[str, np.ndarray | None]:
    """Per tower name, the checked rows ``rows`` chooses of it (None as it
    is), or every row of a tower it does not name."""
    rows = rows or {}
    if not rows.keys() <= set(TOWERS):
        raise InvalidConfig(f"rows can only be chosen of the towers {TOWERS}")
    for chosen in rows.values():
        if chosen is not None:
            _check_rows(F, chosen)
    return {name: rows[name] if name in rows else np.arange(F) for name in TOWERS}


def init_encoder(
    F: int = DEFAULT_F,
    d: int = DEFAULT_D,
    seed: int = 0,
    rows: dict[str, np.ndarray] | None = None,
) -> EncoderParams:
    """Seeded uniform(-0.05, 0.05) towers in ``TOWER_DTYPE``: ``rows``
    maps a tower name ("mention", "event") to the ascending rows to hold
    of it, as in ``load_checkpoint``, and ``init_fill`` writes each held
    row; a tower ``rows`` does not name is held whole."""
    _check_shape(F, d)
    towers = []
    for name, held in _tower_rows(F, rows).items():
        if held is None:
            raise InvalidConfig("only a checkpoint load leaves a tower unread")
        values = init_fill(seed, name, held, np.empty((held.size, d), TOWER_DTYPE))
        towers.append(Tower(F, held, values, (seed, name)))
    return EncoderParams(*towers)


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


class DesignWorkspace:
    """The reused buffers of ``design``, the one design-matrix kernel.

    ``mark`` and ``column`` span the held rows of the largest tower seen.
    ``buffer`` holds, flat, every design matrix built since the last
    ``reset``, so a loss that needs two (the linking loss) gets two views
    of one buffer, in the dtype of the values the designs multiply (``dtype``
    until a design multiplies others).  Each grows when a tower or a batch
    needs more.
    """

    def __init__(self, held: int = 0, size: int = 0, dtype: np.dtype = np.float64):
        self.mark = np.zeros(held, dtype=bool)
        self.column = np.empty(held, dtype=np.intp)
        self.buffer = np.empty(size, dtype)
        self.used = 0

    def reset(self) -> None:
        self.used = 0

    def design(
        self, W: Tower | np.ndarray, fvs: list[FeatureVector]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, held, X)`` of a batch over ``W``, a ``Tower`` or the
        reranker's P x h array V, which holds every row at its own id: the
        ascending global rows the batch touches, the same rows as ids into
        ``W.values`` (V itself), and ``X[i, j]``, feature ``rows[j]`` of
        ``fvs[i]``.  ``X @ W.values[held]`` encodes the batch, and
        ``X.T @ G`` maps the gradient ``G`` of its encodings to those rows.

        Nothing is sorted: the indices go through the tower's slot table to
        held-row ids, which are marked, read back ascending and numbered
        through ``column``; X, a zeroed part of ``buffer``, is filled by
        assignment, so each vector's indices must be distinct (``hash_texts``
        and the reranker's pair features make them ascending), and each
        vector's dimension must be ``W``'s F; the callers check both.  A row
        ``W`` does not hold raises ``DimensionMismatch`` naming it.  Narrow
        indices are widened to ``intp`` once per batch, in the one
        concatenation.
        """
        indices = np.concatenate([fv.indices for fv in fvs], dtype=np.intp)
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
        dtype = W.dtype
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


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """A sibling temporary path to write ``path``'s new contents to: it is
    moved onto ``path`` when the block ends and removed when the block
    raises, so a write that fails leaves any earlier file at ``path`` as it
    was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path: str | Path, kind: str, arrays: dict[str, np.ndarray], **meta) -> None:
    """Write the container to ``path`` through ``replacing``.  Each array
    is stored in its own dtype: an integer one as '<i8', a float32 one as
    '<f4' and any other as '<f8'."""
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
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name, array in arrays.items():
            # the array's own buffer when it already has the dtype
            fh.write(np.ascontiguousarray(array, dtype=dtypes[name]))


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
    path: str | Path, kind: str, dtypes: dict[str, str]
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """The arrays of a ``kind`` checkpoint that holds at least the names of
    ``dtypes``, each in its file dtype there ('<f8', '<f4' or '<i8'), each
    read straight into its own writeable memory, and the header's meta.

    A malformed header, or a file whose bytes after the header are not
    exactly its arrays' elements times their itemsizes (truncated,
    trailing bytes, or shapes too large for the file), raises
    ``ParseError`` before any array is allocated.
    """
    with open(path, "rb") as fh:
        specs, header = _read_header(fh, path, kind, dtypes)
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
    does not store: the mention tower's.  A tower of that seed stores the
    rows it holds, any other all F rows.  Tower values are stored as '<f4'
    and the heads as they are, so loading gives back every value of
    ``TOWER_DTYPE`` towers that was saved.
    """
    towers = (params.W_mention, params.W_event)
    if any(W.init is None for W in towers):
        raise DimensionMismatch("a tower left unread has no rows to densify or save")
    seed = params.W_mention.init[0]
    arrays = {}
    for name, W in zip(TOWERS, towers):
        if W.init != (seed, name):
            W = W.dense()
        arrays[f"{name}.rows"] = W.rows
        arrays[f"{name}.values"] = W.values.astype(TOWER_ARRAYS[f"{name}.values"], copy=False)
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


def _fill_rows_into(seed: int, tower: str, rows: np.ndarray, out: np.ndarray, at: np.ndarray):
    """The initial values of ``rows[at]``, filled ``BLOCK_ROWS`` rows at a
    time into ``out[at]``."""
    buffer = np.empty((min(BLOCK_ROWS, at.size), out.shape[1]), dtype=out.dtype)
    for lo in range(0, at.size, BLOCK_ROWS):
        block = at[lo : lo + BLOCK_ROWS]
        out[block] = init_fill(seed, tower, rows[block], buffer[: block.size])


def load_checkpoint(
    path: str | Path, rows: dict[str, np.ndarray | None] | None = None
) -> tuple[EncoderParams, dict[str, np.ndarray]]:
    """The towers and the extra heads, by name, of an encoder checkpoint.

    ``rows`` maps a tower name ("mention", "event") to the ascending rows
    to hold of it: that tower comes back as a ``Tower`` of those rows and
    of every row the file stores, and any other tower whole, both in
    ``TOWER_DTYPE``.  ``init_fill`` of the header's init seed writes each
    held row the file lacks into the tower's array, and the stored rows are
    read into theirs, so those rows take no memory beyond that array.  A
    tower mapped to None is left unread: it holds no row (``Tower``), and
    none of its stored values is allocated or read.
    A malformed file raises ``ParseError`` before any array is allocated.
    """
    with open(path, "rb") as fh:
        F, d, seed, stored, specs = _read_encoder(fh, path)
        towers = []
        for name, chosen in _tower_rows(F, rows).items():
            if chosen is None:
                unread = np.empty((0, d), TOWER_DTYPE)
                towers.append(Tower(F, np.zeros(0, dtype=np.int64), unread, None))
                continue
            # the union through a mask: np.union1d's sort costs more
            mask = np.zeros(F, dtype=bool)
            mask[chosen] = mask[stored[name]] = True
            held = np.flatnonzero(mask)
            at = held.searchsorted(stored[name])
            fresh = np.ones(held.size, dtype=bool)
            fresh[at] = False
            values = np.empty((held.size, d), TOWER_DTYPE)
            _fill_rows_into(seed, name, held, values, np.flatnonzero(fresh))
            _read_rows_into(fh, specs[f"{name}.values"], values, at)
            towers.append(Tower(F, held, values, (seed, name)))
        heads = {
            name: _read_array(fh, spec) for name, spec in specs.items() if name not in TOWER_ARRAYS
        }
    return EncoderParams(*towers), heads
