"""Feature hashing, span windows, linear towers, checkpoint format."""

import contextlib
import functools
import hashlib
import json
import os

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    design_matrix,
    featurize_event,
    featurize_mention,
    fnv1a64,
    ngram_counts_many,
    pair_score,
    whole_towers,
)

from hierground import encoder, rerank, retrieval, training
from hierground.dataset import GroundingInstance, Mention
from hierground.encoder import (
    DEFAULT_F,
    NGRAM_SIZES,
    SPAN_CLOSE,
    SPAN_OPEN,
    WARNING_COUNTS,
    DesignWorkspace,
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    Tower,
    encode,
    event_text,
    hash_text,
    hash_texts,
    hashed,
    init_encoder,
    load_arrays,
    load_checkpoint,
    reset_warning_counts,
    save_arrays,
    save_checkpoint,
    span_window,
    tower_shape,
)
from hierground.errors import (
    DimensionMismatch,
    InvalidConfig,
    MissingLabel,
    ParseError,
    UnknownEvent,
)
from hierground.kb import Event, Label
from hierground.seeding import substream_seed


def tower_arrays(m_rows, m_values, e_rows, e_values) -> dict:
    """The arrays of an encoder checkpoint's two towers, values as float32."""
    return {
        "mention.rows": m_rows, "mention.values": m_values.astype(np.float32),
        "event.rows": e_rows, "event.values": e_values.astype(np.float32),
    }


def make_mention(context: str, start: int, end: int) -> Mention:
    return Mention(
        id="M1", language="en", context=context, span_start=start, span_end=end,
        anchor_event="E0",
    )


def ngram_counts(text: str) -> dict:
    counts: dict[str, int] = {}
    for n in NGRAM_SIZES:
        for i in range(len(text) - n + 1):
            g = text[i : i + n]
            counts[g] = counts.get(g, 0) + 1
    return counts


class TestHash:
    def test_published_fnv1a_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_matches_independent_fold(self):
        def oracle(data: bytes) -> int:
            return functools.reduce(
                lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64,
                data,
                0xCBF29CE484222325,
            )

        for text in ("abc", "zdarzenie", "x" * 40, "mention of a battle"):
            assert fnv1a64(text.encode()) == oracle(text.encode())

    def test_stable_across_calls(self):
        assert fnv1a64(b"stable") == fnv1a64(b"stable")


def scalar_ngram_counts(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-text dict loop over ``fnv1a64`` that the kernel replaced."""
    counts: dict[int, float] = {}
    for n in NGRAM_SIZES:
        for start in range(len(text) - n + 1):
            bucket = fnv1a64(text[start : start + n].encode("utf-8")) % buckets
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    keys = sorted(counts)
    return np.array(keys, dtype=np.int64), np.array([counts[k] for k in keys], dtype=float)


# 1-, 2-, 3- and 4-byte UTF-8 code points, the span markers among the 3-byte ones
KERNEL_ALPHABET = "ab c" + "éßж" + "中€" + SPAN_OPEN + SPAN_CLOSE + "😀𝄞"
kernel_texts = st.lists(st.text(alphabet=KERNEL_ALPHABET, max_size=12), max_size=10)


class TestNgramKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, buckets=st.sampled_from([2**18, 4096, 7, 1]))
    @example(texts=[], buckets=7)
    @example(texts=["", "a", "ab"], buckets=2**18)
    @example(texts=["abc", "", f"{SPAN_OPEN}x{SPAN_CLOSE}", "😀😀😀😀"], buckets=4096)
    def test_bit_equal_to_scalar_fnv(self, texts, buckets):
        got = ngram_counts_many(texts, buckets)
        assert len(got) == len(texts)
        for text, (keys, counts, _) in zip(texts, got):
            want_keys, want_counts = scalar_ngram_counts(text, buckets)
            assert keys.dtype == want_keys.dtype and counts.dtype == want_counts.dtype
            assert keys.tobytes() == want_keys.tobytes()
            assert counts.tobytes() == want_counts.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, chunk=st.integers(1, 4))
    def test_chunking_does_not_change_counts(self, texts, chunk):
        whole = ngram_counts_many(texts, 4096)
        saved = encoder._CHUNK_TEXTS
        encoder._CHUNK_TEXTS = chunk
        try:
            chunked = ngram_counts_many(texts, 4096)
        finally:
            encoder._CHUNK_TEXTS = saved
        assert [(k.tobytes(), c.tobytes()) for k, c, _ in chunked] == [
            (k.tobytes(), c.tobytes()) for k, c, _ in whole
        ]

    def test_hash_texts_match_hash_text(self):
        texts = ["flood relief", "", "zdarzenie rzeczne", "ab", "中文事件描述"]
        for fv, text in zip(hash_texts(texts, 1024), texts):
            want = hash_text(text, 1024)
            assert fv.indices.tobytes() == want.indices.tobytes()
            assert fv.values.tobytes() == want.values.tobytes()

    def test_warning_counter_rises_once_per_empty_text(self):
        reset_warning_counts()
        hash_texts(["", "ab", "abc", "x", "abcd", ""], 64)
        assert WARNING_COUNTS["empty_feature_vector"] == 4
        hash_texts([], 64)
        assert WARNING_COUNTS["empty_feature_vector"] == 4

    def test_unencodable_text_raises_instead_of_hashing(self):
        with pytest.raises(UnicodeEncodeError):
            ngram_counts_many(["a fine text", "lone \ud800 surrogate"], 7)


@contextlib.contextmanager
def chunk_texts(n: int):
    """Run the kernel over runs of ``n`` texts."""
    saved = encoder._CHUNK_TEXTS
    encoder._CHUNK_TEXTS = n
    try:
        yield
    finally:
        encoder._CHUNK_TEXTS = saved


kernel_F = st.sampled_from([1, 7, 4096, 2**18])


class TestKernelNormalization:
    """The kernel normalizes a whole run of texts at once; each text must
    come out bit-equal to normalizing it alone."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, F=kernel_F, chunk=st.integers(1, 4))
    @example(texts=[], F=7, chunk=1)
    @example(texts=["", "a", "ab", "abc", ""], F=1, chunk=2)
    @example(texts=["中€😀𝄞", "ab c", "éßж" * 4, SPAN_OPEN + "x" + SPAN_CLOSE], F=2**18, chunk=4)
    @example(texts=["ab" * 3000, "abcde" * 700, "x"], F=7, chunk=3)
    def test_values_bit_equal_to_per_text_norm(self, texts, F, chunk):
        with chunk_texts(chunk):
            got = ngram_counts_many(texts, F)
        assert len(got) == len(texts)
        for keys, counts, values in got:
            want = oracles.normalized(counts)
            assert values.dtype == want.dtype == np.float64
            assert keys.shape == counts.shape == values.shape
            assert values.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, F=kernel_F, chunk=st.integers(1, 4))
    @example(texts=["", "ab", "flood relief", "中文事件描述"], F=4096, chunk=1)
    def test_hash_texts_and_blocks_equal_per_text_builders(self, texts, F, chunk):
        with chunk_texts(chunk):
            vectors = hash_texts(texts, F)
            blocks = rerank._blocks(texts)
        for got, want in zip(vectors, oracles.hash_texts(texts, F), strict=True):
            assert got.F == want.F
            assert got.indices.dtype == want.indices.dtype
            assert got.indices.tobytes() == want.indices.tobytes()
            assert got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()
        count_dtype = np.min_scalar_type(len(NGRAM_SIZES) * max(map(len, texts), default=0))
        for got, want in zip(blocks, oracles.blocks(texts), strict=True):
            # exact counts, then every field bit-equal to the float64 block cast once
            assert got.counts.dtype == count_dtype and np.array_equal(got.counts, want.counts)
            for a, b in zip(got, oracles.narrow_block(want), strict=True):
                assert a.dtype.kind == b.dtype.kind and a.tobytes() == b.astype(a.dtype).tobytes()
            assert got.keys.dtype == got.shifted.dtype == rerank.ID_DTYPE
            assert got.values.dtype == rerank.V_DTYPE

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, chunk=st.integers(1, 4))
    @example(texts=["", "ab", "abc", "x", "abcd", ""], chunk=1)
    def test_warning_count_unchanged_by_chunking(self, texts, chunk):
        reset_warning_counts()
        hash_texts(texts, 64)
        whole = WARNING_COUNTS["empty_feature_vector"]
        reset_warning_counts()
        with chunk_texts(chunk):
            hash_texts(texts, 64)
        assert WARNING_COUNTS["empty_feature_vector"] == whole
        assert whole == sum(len(text) < min(NGRAM_SIZES) for text in texts)

    def test_hashed_arrays_are_read_only(self):
        texts = ["flood relief", "river plain", "ab"]
        vectors = hash_texts(texts, 64)
        before = [fv.values.copy() for fv in vectors]
        for fv in vectors:
            for array in (fv.indices, fv.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0
                with pytest.raises(ValueError, match="read-only"):
                    array *= 2
        assert all(np.array_equal(fv.values, b) for fv, b in zip(vectors, before))
        for block in rerank._blocks(texts):
            for array in (block.keys, block.counts, block.values):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0

    def test_out_of_range_keys_are_refused_in_any_run(self, monkeypatch):
        def last_shifted(kernel):
            def counting(texts, buckets):
                *head, (keys, *rest) = kernel(texts, buckets)
                return [*head, (keys + buckets, *rest)]

            return counting

        texts = ["flood relief", "river plain", "abc"]
        monkeypatch.setattr(encoder, "ngram_count_runs", last_shifted(encoder.ngram_count_runs))
        # the reranker's blocks read the kernel's runs, one text a run here
        monkeypatch.setattr(rerank, "ngram_count_runs", last_shifted(rerank.ngram_count_runs))
        with chunk_texts(1):
            with pytest.raises(DimensionMismatch, match="outside"):
                hash_texts(texts, 64)
            with pytest.raises(DimensionMismatch, match="outside"):
                rerank._blocks(texts)

    def test_public_constructor_still_checks(self):
        for indices in ([0, 64], [-1, 3]):
            with pytest.raises(DimensionMismatch, match="outside"):
                FeatureVector(np.array(indices), np.array([0.6, 0.8]), F=64)
        with pytest.raises(DimensionMismatch, match="align"):
            FeatureVector(np.array([1, 2]), np.array([1.0]), F=64)


class TestFeatureRows:
    def test_equal_to_marking_each_vector(self):
        texts = ["flood relief", "", "river plain", "ab", "flood plain"]
        vectors = hash_texts(texts, 256)
        for fvs in (vectors, vectors[1:2], []):
            held = np.zeros(256, dtype=bool)
            for fv in fvs:
                held[fv.indices] = True
            got = encoder.feature_rows(fvs, 256)
            assert got.dtype == np.intp
            assert got.tobytes() == np.flatnonzero(held).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(texts=kernel_texts, F=kernel_F, chunk=st.integers(1, 4))
    @example(texts=[], F=7, chunk=1)
    @example(texts=["", "ab", "flood relief", "中文事件描述", "ab"], F=4096, chunk=2)
    def test_ngram_rows_mark_what_hashing_reads(self, texts, F, chunk):
        want = encoder.feature_rows(hash_texts(texts, F), F)
        reset_warning_counts()
        with chunk_texts(chunk):
            got = encoder.ngram_rows(texts, F)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # nothing is counted, so no empty text is warned about
        assert WARNING_COUNTS["empty_feature_vector"] == 0


class TestHashText:
    def test_three_char_text_is_single_feature(self):
        fv = hash_text("abc", F=DEFAULT_F)
        assert fv.indices.tolist() == [fnv1a64(b"abc") % DEFAULT_F]
        assert fv.values.tolist() == [1.0]

    def test_l2_normalized(self):
        fv = hash_text("the battle of the river crossing", F=DEFAULT_F)
        assert np.isclose(np.linalg.norm(fv.values), 1.0, atol=1e-12)

    def test_counts_before_normalization(self):
        # "aaaa" has 3-grams {aaa x2}, 4-grams {aaaa x1}: two features 2:1
        fv = hash_text("aaaa", F=DEFAULT_F)
        idx3 = fnv1a64(b"aaa") % DEFAULT_F
        weights = dict(zip(fv.indices.tolist(), fv.values.tolist()))
        assert np.isclose(weights[idx3], 2 / np.sqrt(5))

    def test_too_short_text_is_zero_vector(self):
        reset_warning_counts()
        fv = hash_text("ab", F=DEFAULT_F)
        assert fv.is_zero
        assert WARNING_COUNTS["empty_feature_vector"] == 1

    def test_indices_sorted_and_in_range(self):
        fv = hash_text("some longer example text", F=1024)
        assert (np.diff(fv.indices) > 0).all()
        assert fv.indices.min() >= 0 and fv.indices.max() < 1024

    def test_deterministic(self):
        a = hash_text("an event mention", F=DEFAULT_F)
        b = hash_text("an event mention", F=DEFAULT_F)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


class TestSpanWindow:
    def test_markers_wrap_span(self):
        m = make_mention("before span after", 7, 11)
        window = span_window(m, 128)
        assert window == f"before {SPAN_OPEN}span{SPAN_CLOSE} after"

    def test_window_centered_when_context_long(self):
        context = "x" * 200 + " span " + "y" * 200
        m = make_mention(context, 201, 205)
        window = span_window(m, 40)
        assert len(window) == 40
        assert SPAN_OPEN in window and SPAN_CLOSE in window
        assert "span" in window

    def test_span_kept_when_near_edge(self):
        context = "span " + "z" * 300
        m = make_mention(context, 0, 4)
        window = span_window(m, 30)
        assert window.startswith(SPAN_OPEN + "span" + SPAN_CLOSE)
        assert len(window) == 30

    def test_zero_budget_gives_empty(self):
        m = make_mention("abc def", 0, 3)
        assert span_window(m, 0) == ""

    def test_huge_span_anchored_at_start(self):
        context = "abcdefghij" * 10
        m = make_mention(context, 5, 95)
        window = span_window(m, 20)
        assert len(window) == 20
        assert window[0] == SPAN_OPEN


class TestFeaturizeMention:
    def test_identical_mentions_identical_vectors(self):
        a = featurize_mention(make_mention("context with span here", 13, 17))
        b = featurize_mention(make_mention("context with span here", 13, 17))
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_span_position_changes_only_marker_adjacent_ngrams(self):
        # inserting markers at the span boundaries leaves every context
        # n-gram intact except the ones straddling an insertion point;
        # everything else added must contain a marker character
        context = "alpha beta gamma"

        def marker_free_oracle(cuts: set) -> dict:
            counts: dict[str, int] = {}
            for n in NGRAM_SIZES:
                for i in range(len(context) - n + 1):
                    if not any(i < c < i + n for c in cuts):
                        gram = context[i : i + n]
                        counts[gram] = counts.get(gram, 0) + 1
            return counts

        for start, end in ((0, 5), (6, 10), (11, 16)):
            window = span_window(make_mention(context, start, end), 128)
            got = {
                g: c
                for g, c in ngram_counts(window).items()
                if SPAN_OPEN not in g and SPAN_CLOSE not in g
            }
            assert got == marker_free_oracle({start, end})

        w1 = span_window(make_mention(context, 0, 5), 128)
        w2 = span_window(make_mention(context, 6, 10), 128)
        assert ngram_counts(w1) != ngram_counts(w2)

    def test_truncated_to_zero_budget_is_zero_vector(self):
        reset_warning_counts()
        fv = featurize_mention(make_mention("tiny", 0, 4), max_context_chars=0)
        assert fv.is_zero
        assert WARNING_COUNTS["empty_feature_vector"] == 1


class TestFeaturizeEvent:
    def setup_method(self):
        self.event = Event(
            id="E1",
            labels={
                "en": Label(title="flood", description="river event"),
                "pl": Label(title="powodz", description="zdarzenie rzeczne"),
            },
        )

    def test_title_only_is_title_ngrams(self):
        event = Event(id="E2", labels={"en": Label(title="abc", description="")})
        fv = featurize_event(event, "en")
        assert fv.indices.tolist() == [fnv1a64(b"abc") % DEFAULT_F]

    def test_title_and_description_joined(self):
        assert event_text(self.event, "en") == "flood river event"

    def test_languages_differ(self):
        a = featurize_event(self.event, "en")
        b = featurize_event(self.event, "pl")
        assert not (
            np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
        )

    def test_fallback_to_english(self):
        a = featurize_event(self.event, "uk")
        b = featurize_event(self.event, "en")
        assert np.array_equal(a.indices, b.indices)

    def test_missing_label_raises(self):
        event = Event(id="E3", labels={"pl": Label(title="tylko polski")})
        with pytest.raises(MissingLabel):
            featurize_event(event, "uk")

    def test_truncation_to_cand_budget(self):
        event = Event(id="E4", labels={"en": Label(title="t" * 300, description="")})
        assert event_text(event, "en", max_cand_chars=128) == "t" * 128


class TestEncode:
    def test_zero_vector_encodes_to_zero(self):
        params = init_encoder(F=64, d=8, seed=0)
        fv = FeatureVector(np.empty(0, dtype=np.int64), np.empty(0), F=64)
        assert np.array_equal(encode(params, fv, "mention"), np.zeros(8))

    def test_identity_towers_densify(self):
        eye = np.eye(6)
        params = whole_towers(W_mention=eye.copy(), W_event=eye.copy())
        fv = FeatureVector(np.array([1, 4]), np.array([0.6, 0.8]), F=6)
        assert np.allclose(encode(params, fv, "event"), fv.densify())

    def test_linear_in_features(self):
        params = init_encoder(F=32, d=4, seed=1)
        u = hash_text("first text", F=32)
        v = hash_text("other words", F=32)
        combined = u.densify() + 2.0 * v.densify()
        idx = np.flatnonzero(combined)
        fv = FeatureVector(idx, combined[idx], F=32)
        want = encode(params, u, "mention") + 2.0 * encode(params, v, "mention")
        assert np.allclose(encode(params, fv, "mention"), want, atol=1e-12)

    def test_feature_space_mismatch(self):
        params = init_encoder(F=32, d=4, seed=0)
        fv = hash_text("words", F=64)
        with pytest.raises(DimensionMismatch):
            encode(params, fv, "mention")

    def test_unknown_tower(self):
        params = init_encoder(F=32, d=4, seed=0)
        with pytest.raises(InvalidConfig):
            encode(params, hash_text("words", F=32), "both")


class TestPairScore:
    def test_hand_value(self):
        assert pair_score(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_orthogonal(self):
        assert pair_score(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert pair_score(a, b) == pair_score(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair_score(np.zeros(3), np.zeros(4))


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_encoder(F=128, d=8, seed=5)
        b = init_encoder(F=128, d=8, seed=5)
        assert np.array_equal(a.W_mention.values, b.W_mention.values)
        assert np.array_equal(a.W_event.values, b.W_event.values)

    def test_seeds_and_towers_differ(self):
        a = init_encoder(F=128, d=8, seed=5)
        c = init_encoder(F=128, d=8, seed=6)
        assert not np.array_equal(a.W_mention.values, c.W_mention.values)
        assert not np.array_equal(a.W_mention.values, a.W_event.values)

    def test_range(self):
        a = init_encoder(F=256, d=16, seed=0)
        assert np.abs(a.W_mention.values).max() < 0.05
        assert np.abs(a.W_event.values).max() < 0.05


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        params = init_encoder(F=64, d=4, seed=2)
        extras = {
            "complex.W_re": np.arange(16.0).reshape(4, 4),
            "complex.r": np.linspace(-1, 1, 4),
        }
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(p1, params, extras)
        loaded, loaded_extras = load_checkpoint(p1)
        save_checkpoint(p2, loaded, loaded_extras)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(loaded.W_mention.values, params.W_mention.values)
        assert np.array_equal(loaded_extras["complex.r"], extras["complex.r"])

    def test_header_is_json_line(self, tmp_path):
        params = init_encoder(F=16, d=2, seed=0)
        path = tmp_path / "c.bin"
        save_checkpoint(path, params)
        line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(line)
        assert line == json.dumps(header, sort_keys=True).encode("utf-8")
        assert header == {
            "F": 16,
            "arrays": [
                {"name": "mention.rows", "shape": [16], "dtype": "<i8"},
                {"name": "mention.values", "shape": [16, 2], "dtype": "<f4"},
                {"name": "event.rows", "shape": [16], "dtype": "<i8"},
                {"name": "event.values", "shape": [16, 2], "dtype": "<f4"},
            ],
            "format_version": 4,
            "init_seed": 0,
            "kind": "encoder",
        }

    def test_truncated_file_rejected(self, tmp_path):
        params = init_encoder(F=16, d=2, seed=0)
        path = tmp_path / "c.bin"
        save_checkpoint(path, params)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(ParseError):
            load_checkpoint(clipped)

    def test_truncated_extra_head_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, init_encoder(F=16, d=2, seed=0), {"r": np.arange(4.0)})
        loaded, extras = load_checkpoint(path)
        assert loaded.W_event.values.flags.writeable and extras["r"].flags.writeable
        assert extras["r"].tobytes() == np.arange(4.0).tobytes()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(clipped)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        for version in (3, 5):
            path.write_bytes(
                b'{"arrays": [], "format_version": %d, "kind": "encoder"}\n' % version
            )
            with pytest.raises(ParseError, match=f"format {version}"):
                load_checkpoint(path)

    def test_meta_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        save_arrays(path, "toy", {"x": np.arange(6.0).reshape(2, 3)}, threshold=0.25)
        arrays, meta = load_arrays(path, "toy", {"x": "<f8"})
        assert meta == {"threshold": 0.25}
        assert arrays["x"].tobytes() == np.arange(6.0).tobytes()
        assert arrays["x"].shape == (2, 3) and arrays["x"].flags.writeable

    def test_kind_must_match(self, tmp_path):
        path = tmp_path / "a.bin"
        towers = tower_arrays(np.arange(4), np.ones((4, 2)), np.arange(4), np.ones((4, 2)))
        save_arrays(path, "reranker", towers, F=4, init_seed=0)
        with pytest.raises(ParseError, match="kind is 'reranker'"):
            load_checkpoint(path)

    def test_required_array_missing(self, tmp_path):
        path = tmp_path / "a.bin"
        arrays = {"mention.rows": np.arange(4), "mention.values": np.ones((4, 2))}
        save_arrays(path, "encoder", arrays, F=4, init_seed=0)
        with pytest.raises(ParseError, match="event"):
            load_checkpoint(path)

    def test_repeated_array_name(self, tmp_path):
        path = tmp_path / "a.bin"
        header = {
            "arrays": [
                {"name": "x", "shape": [1], "dtype": "<f8"},
                {"name": "x", "shape": [1], "dtype": "<f8"},
            ],
            "format_version": 4,
            "kind": "toy",
        }
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(16))
        with pytest.raises(ParseError, match="distinct"):
            load_arrays(path, "toy", {"x": "<f8"})

    @pytest.mark.parametrize(
        "mention, event", [((4, 2), (2, 4)), ((0, 2), (0, 2)), ((4, 0), (4, 0)), ((8,), (8,))]
    )
    def test_tower_shapes_rejected(self, tmp_path, mention, event):
        # F is the mention tower's row count, so the zero-row case has F = 0,
        # which would reach the n-gram kernel as a modulus of 0
        path = tmp_path / "a.bin"
        rows = [np.arange(shape[0]) for shape in (mention, event)]
        arrays = tower_arrays(rows[0], np.ones(mention), rows[1], np.ones(event))
        save_arrays(path, "encoder", arrays, F=mention[0], init_seed=0)
        for load in (load_checkpoint, tower_shape):
            # the path holds the test's name, so match the reason itself
            with pytest.raises(ParseError, match="towers need|tower row count"):
                load(path)

    @pytest.mark.parametrize("F, d", [(2**24 + 1, 2), (8, 2**10 + 1)])
    def test_tower_limits_rejected(self, tmp_path, F, d):
        # towers that store no row: no file size bounds F or d
        path = tmp_path / "a.bin"
        arrays = tower_arrays(np.arange(0), np.ones((0, d)), np.arange(0), np.ones((0, d)))
        save_arrays(path, "encoder", arrays, F=F, init_seed=0)
        for load in (load_checkpoint, tower_shape):
            # the path holds the test's name, so match the reason itself
            with pytest.raises(ParseError, match="towers need|tower row count"):
                load(path)

    @pytest.mark.parametrize("cut", [-1, 1])
    def test_size_rule_runs_before_any_allocation(self, tmp_path, monkeypatch, cut):
        path = tmp_path / "c.bin"
        save_checkpoint(path, init_encoder(F=16, d=2, seed=0))
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        allocations = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: allocations.append(a) or empty(*a, **k))
        with pytest.raises(ParseError, match="truncated" if cut < 0 else "trailing"):
            load_checkpoint(path)
        assert allocations == []


class TestLanguageRule:
    """Training, retrieval and the reranker resolve an event's language alike."""

    F = 64
    EVENT = Event(
        id="E1",
        labels={
            "en": Label(title="flood summit", description="river basin talks"),
            "de": Label(title="hochwassergipfel", description="gespraeche am fluss"),
        },
    )
    EN_ONLY = Event(id="E2", labels={"en": Label(title="storm season", description="")})

    # (mode, mention language, event, resolved language, label language)
    CASES = [
        ("multilingual", "de", EVENT, "de", "de"),
        ("multilingual", "fr", EN_ONLY, "fr", "en"),
        ("crosslingual", "de", EVENT, "en", "en"),
        ("crosslingual", "fr", EN_ONLY, "en", "en"),
    ]

    @pytest.mark.parametrize(
        "mode, language, event, resolved, label_language",
        CASES,
        ids=[f"{mode}-{language}" for mode, language, *_ in CASES],
    )
    def test_one_rule_for_all_featurizers(
        self, mode, language, event, resolved, label_language
    ):
        events = [self.EVENT, self.EN_ONLY]
        mention = Mention(
            id="M1", language=language, context="flood talks begin", span_start=0,
            span_end=5, anchor_event=event.id,
        )
        text = event_text(event, label_language)
        assert text == event_text(event, resolved)
        want = featurize_event(event, label_language, F=self.F)

        featurizer = TextFeaturizer(events, hashed(self.F), mode)
        _, _, pool_ids, pool_fvs = training.build_linking_batch(
            [GroundingInstance(mention=mention, gold=(event.id,))], featurizer
        )
        assert pool_ids == [event.id]
        assert list(featurizer._event) == [(event.id, resolved)]
        assert np.array_equal(pool_fvs[0].indices, want.indices)
        assert pool_fvs[0].values.tobytes() == want.values.tobytes()

        params = init_encoder(F=self.F, d=4, seed=0)
        index = retrieval.CandidateIndex(params, events, [event.id], mode)
        row = index.matrix(language)[0]
        assert list(index._matrices) == [resolved]
        assert row.tobytes() == encode(params, want, "event").tobytes()

        pairs = rerank.PairFeaturizer(events, mode)
        fv = pairs.pair_fv(mention, event.id)
        assert list(pairs._event) == [(event.id, resolved)]
        in_block = (fv.indices >= rerank.BLOCK_BUCKETS) & (
            fv.indices < 2 * rerank.BLOCK_BUCKETS
        )
        keys, counts, _ = oracles.ngram_counts(text, rerank.BLOCK_BUCKETS)
        assert np.array_equal(fv.indices[in_block] - rerank.BLOCK_BUCKETS, keys)
        want_values = (counts / np.linalg.norm(counts)).astype(rerank.V_DTYPE)
        assert fv.values[in_block].tobytes() == want_values.tobytes()

    def test_unknown_mode_rejected_everywhere(self):
        events = [self.EVENT]
        with pytest.raises(InvalidConfig):
            TextFeaturizer(events, hashed(self.F), "bilingual")
        with pytest.raises(InvalidConfig):
            retrieval.CandidateIndex(
                init_encoder(F=self.F, d=4, seed=0), events, ["E1"], "bilingual"
            )
        with pytest.raises(InvalidConfig):
            rerank.PairFeaturizer(events, "bilingual")

    @pytest.mark.parametrize("context, cand", [(0, 256), (-3, 256), (128, 0), (128, -1)])
    def test_window_below_one_rejected_everywhere(self, context, cand):
        # an empty or end-cut window would hash every text to the same
        # (or a clipped) vector and train or score on nothing
        events = [self.EVENT]
        message = "max_context_chars and max_cand_chars must be >= 1"
        with pytest.raises(InvalidConfig, match=message):
            TextFeaturizer(events, hashed(self.F), "multilingual", context, cand)
        with pytest.raises(InvalidConfig, match=message):
            rerank.PairFeaturizer(events, "multilingual", context, cand)
        if context > 0:  # the index featurizes events only
            with pytest.raises(InvalidConfig, match=message):
                retrieval.CandidateIndex(
                    init_encoder(F=self.F, d=4, seed=0), events, ["E1"], max_cand_chars=cand
                )

    def test_unknown_event_is_typed(self):
        featurizer = TextFeaturizer([self.EVENT], hashed(self.F))
        with pytest.raises(UnknownEvent) as err:
            featurizer.events(["QNOPE"], "en")[0]
        assert err.value.event_id == "QNOPE"

    def test_cache_hit_returns_the_same_object(self):
        featurizer = TextFeaturizer([self.EVENT], hashed(self.F), "crosslingual")
        assert featurizer.events(["E1"], "de")[0] is featurizer.events(["E1"], "fr")[0]


@st.composite
def tower_cases(draw):
    """A small tower shape, a seed, a block size that splits it unevenly,
    and a random ascending row subset for each tower."""
    F = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    rows = [
        np.array(sorted(draw(st.sets(st.integers(0, F - 1)))), dtype=np.int64)
        for _ in range(2)
    ]
    return F, d, draw(st.integers(0, 2**32)), draw(st.integers(1, 9)), rows


@contextlib.contextmanager
def blocks_of(rows: int):
    """Towers filled and read ``rows`` rows at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "BLOCK_ROWS", rows)
        yield


MASK64 = 2**64 - 1


def splitmix64(state: int, n: int) -> list[int]:
    """The first n outputs of SplitMix64 seeded with ``state``: the
    published scalar algorithm, the oracle of ``init_fill``."""
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def trained(F, d, seed, m_rows, e_rows, rng) -> EncoderParams:
    """Row-subset ``init_encoder`` towers whose held rows all took new values."""
    params = init_encoder(F, d, seed, {"mention": m_rows, "event": e_rows})
    for tower in (params.W_mention, params.W_event):
        tower[tower.rows] = rng.normal(size=tower.values.shape)
    return params


class TestCounterInit:
    """Each initial value is a pure function of (seed, tower, row, column)."""

    def test_splitmix64_reference_vectors(self):
        assert splitmix64(1234567, 5) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=tower_cases(), tower=st.sampled_from(encoder.TOWERS))
    def test_fill_equals_scalar_oracle(self, case, tower):
        F, d, seed, block, (rows, _) = case
        with blocks_of(block):
            got = encoder.init_fill(seed, tower, rows, np.empty((rows.size, d)))
        h = (d + 1) // 2
        key = substream_seed(seed, f"init:{tower}")
        for i, row in enumerate(rows.tolist()):
            # hash j of row r is output r * h + j of the tower's stream
            hashes = splitmix64(key, (row + 1) * h)[row * h :]
            halves = [half for z in hashes for half in (z & 0xFFFFFFFF, z >> 32)]
            want = [u * (0.1 / 2**32) - 0.05 for u in halves[:d]]
            assert got[i].tolist() == want


class TestRowSubsets:
    """Towers held in part equal the full towers at the rows they hold."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=tower_cases())
    def test_row_subset_init_equals_whole_init(self, case):
        F, d, seed, block, (m_rows, e_rows) = case
        with blocks_of(block):
            params = init_encoder(F, d, seed, {"mention": m_rows, "event": e_rows})
        full = init_encoder(F, d, seed)
        assert params.W_mention.values.tobytes() == full.W_mention[m_rows].tobytes()
        assert params.W_event.values.tobytes() == full.W_event[e_rows].tobytes()
        assert params.F == F and params.d == d
        dense = params.densify()
        assert dense.W_mention.values.tobytes() == full.W_mention.values.tobytes()
        assert dense.W_event.values.tobytes() == full.W_event.values.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=tower_cases(), data=st.data())
    def test_row_subset_load_equals_full_load(self, case, data, tmp_path_factory):
        F, d, seed, block, (m_rows, e_rows) = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        params = trained(F, d, seed, m_rows, e_rows, rng)
        dense = params.densify()
        path = tmp_path_factory.mktemp("ckpt") / "c.bin"
        save_checkpoint(path, params, {"r": np.arange(3.0)})
        # rows to load: any subset, held by the saved towers or not
        want = [
            np.array(sorted(data.draw(st.sets(st.integers(0, F - 1)))), dtype=np.int64)
            for _ in range(2)
        ]
        with blocks_of(block):
            part, heads = load_checkpoint(path, dict(zip(encoder.TOWERS, want)))
            full, full_heads = load_checkpoint(path)
        for tower, rows, saved, W in zip(
            (part.W_mention, part.W_event), want, (params.W_mention, params.W_event),
            (dense.W_mention, dense.W_event),
        ):
            assert tower[rows].tobytes() == W[rows].tobytes()
            # a loaded tower holds every row the file stores
            assert tower.rows.tolist() == sorted(set(rows.tolist()) | set(saved.rows.tolist()))
            assert tower.values.tobytes() == W[tower.rows].tobytes()
        assert full.W_mention.values.tobytes() == dense.W_mention.values.tobytes()
        assert full.W_event.values.tobytes() == dense.W_event.values.tobytes()
        assert heads.keys() == full_heads.keys() == {"r"}
        assert heads["r"].tobytes() == np.arange(3.0).tobytes()
        assert tower_shape(path) == (F, d)
        with blocks_of(block):
            mention_only, _ = load_checkpoint(path, {"mention": want[0]})
        assert mention_only.W_event.values.tobytes() == dense.W_event.values.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=tower_cases(), data=st.data())
    def test_streamed_save_equals_full_save(self, case, data, tmp_path_factory):
        F, d, seed, block, (m_rows, e_rows) = case
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        params = trained(F, d, seed, m_rows, e_rows, rng)
        full = init_encoder(F, d, seed)
        full.W_mention[m_rows] = params.W_mention.values
        full.W_event[e_rows] = params.W_event.values
        heads = {"complex.r": rng.normal(size=d)}
        out = tmp_path_factory.mktemp("save")
        save_checkpoint(out / "part.bin", params, heads)
        save_checkpoint(out / "full.bin", full, heads)
        # the part file stores the held rows alone, the full file every row
        assert (out / "part.bin").stat().st_size < (out / "full.bin").stat().st_size or (
            m_rows.size == e_rows.size == F
        )
        with blocks_of(block):
            (a, a_heads), (b, b_heads) = map(load_checkpoint, (out / "part.bin", out / "full.bin"))
            dense = params.densify()
        for W in (a, b, dense):
            assert W.W_mention.values.tobytes() == full.W_mention.values.tobytes()
            assert W.W_event.values.tobytes() == full.W_event.values.tobytes()
        assert a_heads["complex.r"].tobytes() == b_heads["complex.r"].tobytes()

    def test_absent_row_raises(self):
        # row 1 is not held; a slot of -1 would silently read row 4
        tower = Tower(6, np.array([0, 2, 4]), np.arange(6.0).reshape(3, 2), (0, "mention"))
        assert tower[np.array([4, 0])].tolist() == [[4.0, 5.0], [0.0, 1.0]]
        for rows, missing in (([1], 1), ([0, 1], 1), ([5], 5), ([2, 3, 4], 3)):
            with pytest.raises(DimensionMismatch, match=f"row {missing} is not held"):
                tower[np.array(rows)]
            with pytest.raises(DimensionMismatch, match="not held"):
                tower[np.array(rows)] = 0.0
        assert tower.values.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        with pytest.raises(DimensionMismatch):
            encode(EncoderParams(tower, tower.copy()), hash_text("unseen text", 6), "mention")

    def test_params_refuse_plain_arrays(self):
        tower = init_encoder(8, 2, seed=0).W_mention
        for towers in ((tower.values, tower), (tower, tower.values)):
            with pytest.raises(TypeError, match="must be a Tower, not ndarray"):
                EncoderParams(*towers)

    def test_bad_row_sets_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, init_encoder(8, 2, seed=0))
        for rows in ([3, 1], [2, 2], [-1, 0], [0, 8]):
            with pytest.raises(DimensionMismatch, match="ascending"):
                load_checkpoint(path, {"mention": np.array(rows)})
            with pytest.raises(DimensionMismatch, match="ascending"):
                init_encoder(8, 2, 0, {"mention": np.array(rows), "event": np.array([0])})
        with pytest.raises(InvalidConfig, match="towers"):
            load_checkpoint(path, {"complex.r": np.array([0])})

    def test_part_read_tower_saves_losslessly(self, tmp_path):
        path = tmp_path / "c.bin"
        rng = np.random.default_rng(0)
        params = trained(8, 2, 3, np.array([0, 6]), np.array([2, 5]), rng)
        save_checkpoint(path, params)
        part, _ = load_checkpoint(path, {"event": np.array([1, 5])})
        assert part.W_event.rows.tolist() == [1, 2, 5]
        save_checkpoint(tmp_path / "d.bin", part)
        again, _ = load_checkpoint(tmp_path / "d.bin")
        dense = params.densify()
        assert again.W_mention.values.tobytes() == dense.W_mention.values.tobytes()
        assert again.W_event.values.tobytes() == dense.W_event.values.tobytes()
        assert part.densify().W_event.values.tobytes() == dense.W_event.values.tobytes()

    def test_unread_tower_reads_nothing_and_refuses_use(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        params = trained(8, 2, 3, np.array([0, 6]), np.array([2, 5]), np.random.default_rng(0))
        save_checkpoint(path, params)
        reads = []
        read_rows = encoder._read_rows_into

        def reading(fh, spec, *args):
            reads.append(spec)
            return read_rows(fh, spec, *args)

        monkeypatch.setattr(encoder, "_read_rows_into", reading)
        part, _ = load_checkpoint(path, {"mention": None, "event": np.array([1])})
        # the event tower's stored values are read, the mention tower's never
        assert [shape for shape, _, _ in reads] == [[2, 2]]
        unread = part.W_mention
        assert unread.shape == (8, 2) and unread.rows.size == unread.values.size == 0
        assert unread.init is None
        held = params.densify().W_event[np.array([1, 2, 5])]
        assert part.W_event.values.tobytes() == held.tobytes()
        with pytest.raises(DimensionMismatch, match="left unread"):
            encode(part, hash_text("flood relief", 8), "mention")
        for use in (part.densify, lambda: save_checkpoint(tmp_path / "d.bin", part)):
            with pytest.raises(DimensionMismatch, match="left unread"):
                use()
        assert not (tmp_path / "d.bin").exists()
        with pytest.raises(InvalidConfig, match="unread"):
            init_encoder(8, 2, 0, {"mention": None})

    def test_seed_comes_from_the_file(self, tmp_path):
        # the file's init seed regenerates the rows it lacks, whatever
        # seed any caller uses
        path = tmp_path / "c.bin"
        params = init_encoder(16, 3, 77, {"mention": np.array([4]), "event": np.array([9])})
        save_checkpoint(path, params)
        part, _ = load_checkpoint(path, {"mention": np.arange(16), "event": np.array([0])})
        assert part.W_mention.values.tobytes() == init_encoder(16, 3, 77).W_mention.values.tobytes()
        assert part.W_event.init == (77, "event")

    def test_row_subset_file_bytes_are_pinned(self, tmp_path):
        # initial values come from integer hashing stored as float32, with
        # no BLAS, so these digests hold on every host
        rows = {"mention": np.array([1, 4, 9]), "event": np.array([0, 63])}
        params = init_encoder(64, 4, 77, rows)
        params.W_mention[np.array([4])] = np.array([[0.5, -0.25, 0.125, 1.0]])
        save_checkpoint(tmp_path / "a.bin", params, {"complex.r": np.array([1.0, -2.0, 0.5, 0.0])})
        part, heads = load_checkpoint(
            tmp_path / "a.bin", {"mention": np.array([2, 4]), "event": np.array([5])}
        )
        save_checkpoint(tmp_path / "b.bin", part, heads)
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("a.bin", "b.bin")
        ]
        assert digests == [
            "6d6876806899475754275fd7ee361798b8402c6157139923baef1617276f7b1a",
            "ca030279c8a9c230a62236bab2114190a5f1fd7ad7970a2434566b0d4de060a5",
        ]


def malformed_encoder_file(path, change) -> None:
    """A valid two-tower checkpoint, its header and arrays passed through
    ``change(header, arrays)`` and written as they come back."""
    arrays = tower_arrays(np.array([1, 4, 6]), np.ones((3, 2)), np.array([0, 7]), np.ones((2, 2)))
    header = {
        "F": 8, "format_version": 4, "init_seed": 5, "kind": "encoder",
        "arrays": [
            {"name": n, "shape": list(a.shape), "dtype": "<i8" if n.endswith("rows") else "<f4"}
            for n, a in arrays.items()
        ],
    }
    change(header, arrays)
    body = b"".join(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).tobytes()
                    for a in arrays.values())
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def values_as_f8(version: int):
    """The tower values stored as '<f8' under format ``version``, as format 3
    stored them; the size rule holds."""

    def change(header, arrays):
        header["format_version"] = version
        for spec in header["arrays"]:
            if spec["name"].endswith("values"):
                spec["dtype"] = "<f8"
                arrays[spec["name"]] = arrays[spec["name"]].astype(np.float64)

    return change


def ids(tower: str, values: list[int]):
    def change(header, arrays):
        arrays[f"{tower}.rows"] = np.array(values)
        spec = next(s for s in header["arrays"] if s["name"] == f"{tower}.rows")
        spec["shape"] = [len(values)]

    return change


def spec_of(name: str, **update):
    def change(header, arrays):
        spec = next(s for s in header["arrays"] if s["name"] == name)
        for key, value in update.items():
            if value is None:
                spec.pop(key)
            else:
                spec[key] = value

    return change


MALFORMED_V3 = {
    "ids-not-ascending": ids("mention", [4, 1, 6]),
    "ids-repeated": ids("mention", [1, 1, 6]),
    "id-negative": ids("event", [-1, 7]),
    "id-at-F": ids("event", [0, 8]),
    "fewer-ids-than-values": ids("mention", [1, 4]),
    "more-ids-than-values": ids("event", [0, 3, 7]),
    "unknown-dtype": spec_of("event.values", dtype="<c16"),
    "missing-dtype": spec_of("mention.values", dtype=None),
    "ids-as-floats": spec_of("mention.rows", dtype="<f8"),
    "missing-init-seed": lambda header, arrays: header.pop("init_seed"),
    "bool-init-seed": lambda header, arrays: header.update(init_seed=True),
    "format-2": lambda header, arrays: header.update(format_version=2),
    "format-3": values_as_f8(3),
    "values-as-f8": values_as_f8(4),
}


@st.composite
def design_cases(draw):
    """The reranker's full array V or a Tower holding the rows some batches touch
    (and a few more), and those batches: each slot is one of a few base
    vectors, the same object again or an equal copy; a base may be empty,
    and sometimes every base is."""
    F = draw(st.integers(1, 60))
    d = draw(st.integers(1, 4))
    all_empty = draw(st.booleans()) and draw(st.booleans())
    bases = []
    for _ in range(draw(st.integers(1, 6))):
        # distinct indices in any order, as the kernel requires
        indices = draw(st.lists(st.integers(0, F - 1), unique=True, max_size=0 if all_empty else 9))
        values = draw(st.lists(
            st.floats(-1.0, 1.0).filter(bool), min_size=len(indices), max_size=len(indices)
        ))
        bases.append(FeatureVector(np.array(indices, dtype=np.int64), np.array(values), F))
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        batch = []
        for _ in range(draw(st.integers(1, 7))):
            base = bases[draw(st.integers(0, len(bases) - 1))]
            if draw(st.booleans()):
                base = FeatureVector(base.indices.copy(), base.values.copy(), F)
            batch.append(base)
        batches.append(batch)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a tower's dtype, or the reranker's float64
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        W = rng.uniform(-1.0, 1.0, size=(F, d)).astype(dtype)
    else:
        used = {int(i) for fv in bases for i in fv.indices}
        held = np.array(sorted(used | draw(st.sets(st.integers(0, F - 1)))), dtype=np.int64)
        values = rng.uniform(-1.0, 1.0, size=(held.size, d)).astype(dtype)
        W = Tower(F, held, values, (0, "event"))
    resets = [draw(st.booleans()) for _ in batches]
    return W, batches, resets


class TestDesignKernel:
    """``DesignWorkspace.design`` against the sorting ``design_matrix``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=design_cases())
    def test_bit_equal_to_design_matrix(self, case):
        W, batches, resets = case
        ws = DesignWorkspace()
        live = []  # designs built since the last reset, and what they must hold
        for batch, reset in zip(batches, resets):
            if reset:
                ws.reset()
                live = []
            rows, held, X = ws.design(W, batch)
            want_rows, want_X = design_matrix(batch, W.shape[0], W.dtype)
            assert rows.tolist() == want_rows.tolist()
            assert X.shape == want_X.shape and X.dtype == W.dtype
            values = W.values if isinstance(W, Tower) else W
            assert values.take(held, axis=0).tobytes() == W[want_rows].tobytes()
            live.append((X, want_X))
            # a later design, growing the buffer or not, leaves earlier ones be
            assert all(got.tobytes() == want.tobytes() for got, want in live)
            assert not ws.mark.any()

    def test_row_not_held_is_named(self):
        tower = Tower(8, np.array([1, 3, 6]), np.zeros((3, 2)), (0, "event"))
        ws = DesignWorkspace()
        fv = FeatureVector(np.array([3, 5, 1]), np.array([0.6, 0.0, 0.8]), 8)
        with pytest.raises(DimensionMismatch, match="row 5 is not held"):
            ws.design(tower, [fv])
        assert not ws.mark.any()
        rows, held, X = ws.design(tower, [FeatureVector(np.array([6, 1]), np.array([0.6, 0.8]), 8)])
        assert (rows.tolist(), held.tolist(), X.tolist()) == ([1, 6], [0, 2], [[0.8, 0.6]])


class TestMalformedV3:
    """Each malformed row-subset file (format 3 added row ids, format 4
    '<f4' tower values) is a ParseError naming it, raised before any array
    is allocated, from both readers."""

    def test_valid_base_file_loads(self, tmp_path):
        path = tmp_path / "c.bin"
        malformed_encoder_file(path, lambda header, arrays: None)
        part, _ = load_checkpoint(path, {"mention": np.array([2])})
        assert part.W_mention.rows.tolist() == [1, 2, 4, 6]
        assert tower_shape(path) == (8, 2)

    @pytest.mark.parametrize("row", list(MALFORMED_V3))
    def test_rejected(self, tmp_path, monkeypatch, row):
        path = tmp_path / "c.bin"
        malformed_encoder_file(path, MALFORMED_V3[row])
        allocations = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: allocations.append(a) or empty(*a, **k))
        for load in (lambda: load_checkpoint(path, {"mention": np.array([2])}),
                     lambda: tower_shape(path)):
            with pytest.raises(ParseError) as err:
                load()
            assert err.value.path == str(path)
        assert allocations == []


class TestAtomicSave:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(path, init_encoder(8, 2, seed=0))
        before = path.read_bytes()
        # the towers are written, then a head that is not numeric raises
        with pytest.raises(ValueError):
            save_checkpoint(path, init_encoder(8, 2, seed=1), {"r": np.array(["x"])})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.bin"]

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.bin"
        calls = []
        contiguous = np.ascontiguousarray

        def failing(array, dtype):
            calls.append(array)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return contiguous(array, dtype=dtype)

        monkeypatch.setattr(np, "ascontiguousarray", failing)
        with pytest.raises(KeyboardInterrupt):
            save_arrays(path, "toy", {"x": np.ones(3), "y": np.ones(2)})
        assert os.listdir(tmp_path) == []

    def test_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, "toy", {"x": np.ones(3)})
        save_arrays(path, "toy", {"x": np.zeros(2)})
        assert load_arrays(path, "toy", {"x": "<f8"})[0]["x"].tolist() == [0.0, 0.0]
        assert os.listdir(tmp_path) == ["c.bin"]
