"""Candidate index, exact top-k with id tie-break, retrieval files."""

import dataclasses
import json
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import fnv1a64, whole_towers

from hierground import encoder, retrieval
from hierground.dataset import Mention
from hierground.encoder import (
    NGRAM_SIZES,
    WARNING_COUNTS,
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    Tower,
    encode,
    event_text,
    hashed,
    init_encoder,
    load_checkpoint,
    reset_warning_counts,
    save_checkpoint,
    span_window,
)
from hierground.errors import (
    DimensionMismatch,
    InvalidConfig,
    KTooLarge,
    NonFiniteScore,
    ParseError,
    UnknownEvent,
)
from hierground.kb import FALLBACK_LANGUAGE, Event, Label
from hierground.retrieval import (
    CandidateIndex,
    RetrievalResult,
    load_retrievals,
    retrieve_from_checkpoint,
    retrieve_mentions,
    score_rows,
    topk,
    write_retrievals,
)


def brute_force_order(ids: list[str], scores: np.ndarray, k: int) -> list[str]:
    """Reference selection: sort by descending score, then ascending id."""
    ranked = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [ids[i] for i in ranked[:k]]


def plain_events(ids: list[str]) -> list[Event]:
    return [Event(i, {"en": Label(f"title {i}")}) for i in ids]


def injected_index(embeddings: np.ndarray, ids: list[str] | None = None) -> CandidateIndex:
    """Index whose English matrix is replaced by hand-picked rows.

    Bypasses featurization so score ties can be constructed exactly.
    """
    n, d = embeddings.shape
    ids = ids if ids is not None else [f"E{i:02d}" for i in range(n)]
    params = whole_towers(W_mention=np.zeros((8, d)), W_event=np.zeros((8, d)))
    index = CandidateIndex(params, plain_events(ids), ids)
    index._matrices["en"] = embeddings.astype(float)
    return index


class TestCandidateIndex:
    def test_pool_sorted_and_deduplicated(self):
        params = init_encoder(64, 4, seed=0)
        index = CandidateIndex(params, plain_events(["A", "B", "C"]), ["B", "A", "B"])
        assert index.ids == ["A", "B"]
        assert len(index) == 2

    def test_unknown_pool_event(self):
        params = init_encoder(64, 4, seed=0)
        with pytest.raises(UnknownEvent):
            CandidateIndex(params, plain_events(["A"]), ["A", "MISSING"])

    def test_unknown_mode(self):
        params = init_encoder(64, 4, seed=0)
        with pytest.raises(InvalidConfig):
            CandidateIndex(params, plain_events(["A"]), ["A"], mode="monolingual")

    def test_multilingual_matrices_are_lazy(self):
        params = init_encoder(64, 4, seed=0)
        index = CandidateIndex(params, plain_events(["A"]), ["A"])
        assert index._matrices == {}
        index.matrix("en")
        assert set(index._matrices) == {"en"}

    def test_crosslingual_always_uses_english(self):
        params = init_encoder(64, 4, seed=0)
        events = [
            Event(
                "A",
                {"en": Label("summit", "talks"), "de": Label("gipfel", "gespraeche")},
            )
        ]
        index = CandidateIndex(params, events, ["A"], mode="crosslingual")
        assert index.matrix("de") is index.matrix("en")

    def test_multilingual_languages_differ(self):
        params = init_encoder(64, 4, seed=0)
        events = [
            Event(
                "A",
                {"en": Label("summit", "talks"), "de": Label("gipfel", "gespraeche")},
            )
        ]
        index = CandidateIndex(params, events, ["A"])
        assert not np.array_equal(index.matrix("de"), index.matrix("en"))

    def test_missing_language_falls_back_to_english(self):
        params = init_encoder(64, 4, seed=0)
        index = CandidateIndex(params, plain_events(["A"]), ["A"])
        assert np.array_equal(index.matrix("fr"), index.matrix("en"))


class TestTopK:
    def test_hand_ranking(self):
        index = injected_index(np.array([[1.0], [3.0], [2.0]]), ["A", "B", "C"])
        result = topk(index, np.array([1.0]), k=2)
        assert result.candidates == [("B", 3.0), ("C", 2.0)]

    def test_all_tied_resolves_to_ascending_id(self):
        index = injected_index(np.ones((4, 1)), ["D", "B", "C", "A"])
        result = topk(index, np.array([2.0]), k=3)
        assert result.event_ids == ["A", "B", "C"]

    def test_tie_at_the_boundary(self):
        # three events tie for second place; the id order decides which
        # one fills the last slot
        index = injected_index(
            np.array([[5.0], [3.0], [3.0], [3.0]]), ["A", "D", "B", "C"]
        )
        result = topk(index, np.array([1.0]), k=2)
        assert result.event_ids == ["A", "B"]

    def test_k_equal_to_pool_returns_everything(self):
        index = injected_index(np.array([[1.0], [3.0], [2.0]]), ["A", "B", "C"])
        result = topk(index, np.array([1.0]), k=3)
        assert result.event_ids == ["B", "C", "A"]

    def test_k_too_large(self):
        index = injected_index(np.ones((2, 1)), ["A", "B"])
        with pytest.raises(KTooLarge) as err:
            topk(index, np.array([1.0]), k=3)
        assert err.value.k == 3
        assert err.value.pool_size == 2

    def test_k_below_one(self):
        index = injected_index(np.ones((2, 1)), ["A", "B"])
        with pytest.raises(InvalidConfig):
            topk(index, np.array([1.0]), k=0)

    def test_matches_brute_force_with_ties(self):
        # integer embeddings and queries force frequent exact ties
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(5, 21))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            embeddings = rng.integers(-2, 3, size=(n, d)).astype(float)
            vec = rng.integers(-2, 3, size=d).astype(float)
            index = injected_index(embeddings)
            scores = embeddings @ vec
            want = brute_force_order(index.ids, scores, k)
            got = topk(index, vec, k)
            assert got.event_ids == want

    def test_scores_are_reported(self):
        index = injected_index(np.array([[1.5], [-0.5]]), ["A", "B"])
        result = topk(index, np.array([2.0]), k=2, mention_id="M9")
        assert result.mention_id == "M9"
        assert result.candidates == [("A", 3.0), ("B", -1.0)]


def query_mention(mid: str, text: str, language: str = "en") -> Mention:
    return Mention(
        id=mid,
        language=language,
        context=text,
        span_start=0,
        span_end=len(text.split()[0]),
        anchor_event="E0",
    )


class TestRetrieveMentions:
    def test_identical_text_ranks_first(self):
        # with shared towers the dot product concentrates on n-gram
        # overlap, so a mention quoting one title should retrieve it
        params = init_encoder(4096, 64, seed=0)
        params = EncoderParams(
            W_mention=params.W_mention, W_event=params.W_mention.copy()
        )
        events = [
            Event("E0", {"en": Label("qqqqq wwwww")}),
            Event("E1", {"en": Label("zzzzz xxxxx")}),
            Event("E2", {"en": Label("kkkkk jjjjj")}),
        ]
        index = CandidateIndex(params, events, ["E0", "E1", "E2"])
        results = retrieve_mentions(
            params, index, [query_mention("M1", "zzzzz xxxxx")], k=1
        )
        assert results[0].event_ids == ["E1"]

    def test_deterministic(self):
        params = init_encoder(1024, 16, seed=1)
        events = plain_events(["A", "B", "C", "D"])
        index = CandidateIndex(params, events, ["A", "B", "C", "D"])
        mentions = [query_mention("M1", "title A happened"), query_mention("M2", "other")]
        first = retrieve_mentions(params, index, mentions, k=3)
        second = retrieve_mentions(params, index, mentions, k=3)
        assert [r.candidates for r in first] == [r.candidates for r in second]

    def test_every_mention_gets_k_candidates(self):
        params = init_encoder(1024, 16, seed=1)
        events = plain_events(["A", "B", "C", "D"])
        index = CandidateIndex(params, events, ["A", "B", "C", "D"])
        mentions = [query_mention(f"M{i}", f"context {i}") for i in range(5)]
        results = retrieve_mentions(params, index, mentions, k=3)
        assert len(results) == 5
        for mention, result in zip(mentions, results):
            assert result.mention_id == mention.id
            assert len(result.candidates) == 3
            assert set(result.event_ids) <= {"A", "B", "C", "D"}


def scalar_hash_text(text: str, F: int) -> FeatureVector:
    """The per-text hashing that retrieval did before texts were batched."""
    counts: dict[int, float] = {}
    for n in NGRAM_SIZES:
        for start in range(len(text) - n + 1):
            bucket = fnv1a64(text[start : start + n].encode("utf-8")) % F
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    keys = sorted(counts)
    values = np.array([counts[key] for key in keys], dtype=float)
    if keys:
        values = values / np.linalg.norm(values)
    return FeatureVector(np.array(keys, dtype=np.int64), values, F)


def oracle_matrix(params, events, ids, language, mode, max_cand_chars):
    """One scalar hash and one event-tower encoding per pool event."""
    by_id = {event.id: event for event in events}
    resolved = language if mode == "multilingual" else FALLBACK_LANGUAGE
    return np.stack(
        [
            encode(
                params,
                scalar_hash_text(
                    event_text(by_id[i], resolved, max_cand_chars=max_cand_chars), params.F
                ),
                "event",
            )
            for i in ids
        ]
    )


def multilingual_corpus():
    events = [
        Event("E1", {"en": Label("flood relief", "river basin aid"),
                     "de": Label("hochwasserhilfe", "flussgebiet strasse"),
                     "pl": Label("pomoc powodziowa", "dorzecze rzeki żółw")}),
        Event("E2", {"en": Label("summit talks", "leaders meet"),
                     "fr": Label("sommet", "les dirigeants se réunissent")}),
        Event("E3", {"en": Label("storm season 😀", "")}),
        Event("E4", {"en": Label("ab")}),
        Event("E5", {"en": Label("election night", "ballots counted"),
                     "de": Label("wahlabend", "stimmen gezählt")}),
    ]
    mentions = [
        Mention("M1", "en", "relief for the flooded river basin", 4, 9, "E1"),
        Mention("M2", "de", "die hochwasserhilfe läuft", 4, 19, "E1"),
        Mention("M3", "fr", "le sommet des dirigeants", 3, 9, "E2"),
        Mention("M4", "de", "am wahlabend wurden stimmen gezählt", 3, 12, "E5"),
        Mention("M5", "en", "storm 😀 season opens", 0, 5, "E3"),
        Mention("M6", "fr", "réunion au sommet", 0, 7, "E2"),
    ]
    return events, mentions


class TestBatchedHashing:
    """Retrieval hashes whole lists, bit-equal to the per-text path."""

    @pytest.mark.parametrize("mode", ["multilingual", "crosslingual"])
    @pytest.mark.parametrize("max_chars", [128, 6])
    def test_matches_per_text_oracle(self, mode, max_chars):
        events, mentions = multilingual_corpus()
        params = init_encoder(512, 8, seed=3)
        pool = ["E5", "E1", "E3", "E2", "E4", "E1"]
        index = CandidateIndex(params, events, pool, mode, max_chars)
        results = retrieve_mentions(params, index, mentions, k=3, max_context_chars=max_chars)

        oracle_index = CandidateIndex(params, events, pool, mode, max_chars)
        for language in ("en", "de", "fr", "pl"):
            want = oracle_matrix(params, events, index.ids, language, mode, max_chars)
            assert index.matrix(language).tobytes() == want.tobytes()
            oracle_index._matrices[index.featurizer.language(language)] = want
        want_results = [
            topk(
                oracle_index,
                encode(params, scalar_hash_text(span_window(m, max_chars), params.F), "mention"),
                3,
                m.language,
                m.id,
            )
            for m in mentions
        ]
        assert results == want_results

    @pytest.mark.parametrize(
        "mode, languages", [("multilingual", 3), ("crosslingual", 1)]
    )
    def test_one_kernel_call_per_language(self, mode, languages, monkeypatch):
        events, mentions = multilingual_corpus()
        calls = []
        kernel = encoder.ngram_count_runs

        def counting(texts, buckets):
            calls.append(len(texts))
            return kernel(texts, buckets)

        monkeypatch.setattr(encoder, "ngram_count_runs", counting)
        params = init_encoder(512, 8, seed=3)
        index = CandidateIndex(params, events, [e.id for e in events], mode)
        retrieve_mentions(params, index, mentions, k=2)
        retrieve_mentions(params, index, mentions, k=2)
        # the mention windows once per call, the pool once per language
        assert sorted(calls) == sorted([len(mentions)] * 2 + [len(events)] * languages)

    @pytest.mark.parametrize("n_fvs, n_mentions", [(2, 6), (6, 3)], ids=["fewer", "more"])
    def test_hashed_windows_must_match_the_mentions(self, n_fvs, n_mentions):
        events, mentions = multilingual_corpus()
        params = init_encoder(512, 8, seed=3)
        index = CandidateIndex(params, events, [e.id for e in events])
        fvs = encoder.hash_texts([span_window(m, 128) for m in mentions[:n_fvs]], params.F)
        with pytest.raises(DimensionMismatch):
            retrieve_mentions(params, index, mentions[:n_mentions], 2, fvs=fvs)


class TestRowSubsetRetrieval:
    """Towers loaded in part retrieve exactly what the whole towers do."""

    @pytest.mark.parametrize("max_chars", [128, 6])
    @pytest.mark.parametrize("mode", ["multilingual", "crosslingual"])
    def test_matches_full_towers(self, mode, max_chars, tmp_path, monkeypatch):
        events, mentions = multilingual_corpus()
        pool = ["E5", "E1", "E3", "E2", "E4"]
        F = 4096
        path = tmp_path / "c.bin"
        # a file that stores some rows of each tower and regenerates the rest
        saved = init_encoder(F, 8, 3, {"mention": np.arange(0, F, 3), "event": np.arange(0, F, 5)})
        rng = np.random.default_rng(0)
        for tower in (saved.W_mention, saved.W_event):
            tower[tower.rows] = rng.normal(scale=0.05, size=tower.values.shape)
        save_checkpoint(path, saved)
        full = load_checkpoint(path)[0]
        index = CandidateIndex(full, events, pool, mode, max_chars)
        want = retrieve_mentions(full, index, mentions, 3, max_chars)

        loaded = []
        monkeypatch.setattr(
            encoder, "load_checkpoint", lambda *a: loaded.append(load_checkpoint(*a)) or loaded[-1]
        )
        got = retrieve_from_checkpoint(path, events, pool, mentions, 3, mode, max_chars, max_chars)
        assert list(got) == want
        (event_part, _), (mention_part, _) = loaded
        # each load left the tower it does not encode with unread
        for unread in (event_part.W_mention, mention_part.W_event):
            assert unread.rows.size == unread.values.size == 0 and unread.init is None
        params = EncoderParams(mention_part.W_mention, event_part.W_event)
        assert isinstance(params.W_mention, Tower) and params.W_mention.rows.size < F
        fvs = encoder.hash_texts([span_window(m, max_chars) for m in mentions], F)
        index = CandidateIndex(params, events, pool, mode, max_chars)
        assert retrieve_mentions(params, index, mentions, 3, fvs=fvs) == want

    def test_pool_texts_are_hashed_once(self, monkeypatch, tmp_path):
        events, mentions = multilingual_corpus()
        save_checkpoint(tmp_path / "c.bin", init_encoder(512, 8, seed=3))
        calls = []
        kernel = encoder.ngram_count_runs

        def counting(texts, buckets):
            calls.append(len(texts))
            return kernel(texts, buckets)

        monkeypatch.setattr(encoder, "ngram_count_runs", counting)
        pool = [e.id for e in events]
        list(retrieve_from_checkpoint(tmp_path / "c.bin", events, pool, mentions, k=2))
        # the mentions' three resolved languages, then the windows, each once
        assert calls == [len(events)] * 3 + [len(mentions)]

    def test_unknown_pool_event(self, tmp_path):
        events, mentions = multilingual_corpus()
        save_checkpoint(tmp_path / "c.bin", init_encoder(64, 8, seed=3))
        with pytest.raises(UnknownEvent, match="candidate pool"):
            retrieve_from_checkpoint(tmp_path / "c.bin", events, ["E1", "MISSING"], mentions, 1)


class TestRuns:
    """``retrieve_from_checkpoint`` hashes, encodes and scores a run of
    ``_CHUNK_TEXTS`` mentions at a time, one ``retrieve_mentions`` call each."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        picks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["en", "de", "fr", "pl"])),
                       max_size=12),
        chunk=st.integers(1, 4),
        max_chars=st.sampled_from([2, 6, 128]),
        mode=st.sampled_from(["multilingual", "crosslingual"]),
        k=st.integers(1, 5),
    )
    @example(picks=[(0, "en"), (1, "de"), (2, "en"), (3, "de"), (4, "en")], chunk=2,
             max_chars=128, mode="multilingual", k=5)
    def test_bit_equal_to_one_shot_oracle(
        self, tmp_path_factory, picks, chunk, max_chars, mode, k
    ):
        # runs that split a language group, and windows too short to hash
        events, corpus_mentions = multilingual_corpus()
        mentions = [
            dataclasses.replace(corpus_mentions[i], id=f"Q{j}", language=language)
            for j, (i, language) in enumerate(picks)
        ]
        params = init_encoder(512, 8, seed=3)
        path = tmp_path_factory.mktemp("runs") / "c.bin"
        save_checkpoint(path, params)
        pool = [e.id for e in events]
        index = CandidateIndex(params, events, pool, mode, max_chars)
        fvs = oracles.hash_texts([span_window(m, max_chars) for m in mentions], 512)
        want = [
            topk(index, encode(params, fv, "mention"), k, m.language, m.id)
            for m, fv in zip(mentions, fvs)
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "_CHUNK_TEXTS", chunk)
            got = list(
                retrieve_from_checkpoint(path, events, pool, mentions, k, mode, max_chars, max_chars)
            )
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("chunk", [1, 2, 4, 256])
    def test_one_retrieve_mentions_call_per_run(self, chunk, monkeypatch, tmp_path):
        events, mentions = multilingual_corpus()
        save_checkpoint(tmp_path / "c.bin", init_encoder(512, 8, seed=3))
        runs = []

        def recording(params, index, run, *args):
            runs.append([m.id for m in run])
            return retrieve_mentions(params, index, run, *args)

        monkeypatch.setattr(retrieval, "retrieve_mentions", recording)
        monkeypatch.setattr(encoder, "_CHUNK_TEXTS", chunk)
        pool = [e.id for e in events]
        got = list(retrieve_from_checkpoint(tmp_path / "c.bin", events, pool, mentions, 2))
        # the runs in order, each of at most _CHUNK_TEXTS mentions
        ids = [m.id for m in mentions]
        assert [m for run in runs for m in run] == [r.mention_id for r in got] == ids
        assert [len(run) for run in runs] == [
            len(ids[lo : lo + chunk]) for lo in range(0, len(ids), chunk)
        ]

    @pytest.mark.parametrize("chunk", [1, 4, 256])
    def test_empty_windows_warn_once_each(self, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(encoder, "_CHUNK_TEXTS", chunk)
        events, mentions = multilingual_corpus()
        pool = [e.id for e in events]
        save_checkpoint(tmp_path / "c.bin", init_encoder(512, 8, seed=3))
        featurizer = TextFeaturizer(events, hashed(512))
        empty_pool = sum(
            fv.is_zero for language in ("en", "de", "fr") for fv in featurizer.events(pool, language)
        )
        # the warnings and the mention rows asked for at each tower load
        # (None: the tower is left unread)
        loads = []

        def loading(path, rows):
            mention_rows = None if rows["mention"] is None else rows["mention"].size
            loads.append((WARNING_COUNTS["empty_feature_vector"], mention_rows))
            return load_checkpoint(path, rows)

        monkeypatch.setattr(encoder, "load_checkpoint", loading)
        reset_warning_counts()
        # windows of two characters hold no n-gram
        list(retrieve_from_checkpoint(
            tmp_path / "c.bin", events, pool, mentions, 2, max_context_chars=2
        ))
        assert empty_pool > 0 and loads == [(empty_pool, None), (empty_pool, 0)]
        assert WARNING_COUNTS["empty_feature_vector"] == empty_pool + len(mentions)


class TestRetrievalFiles:
    def test_event_ids_follow_candidates(self, tmp_path):
        results = [
            RetrievalResult("M1", [("B", 2.0), ("A", 2.0), ("C", -1.0)]),
            RetrievalResult("M2", []),
        ]
        path = tmp_path / "retrievals.jsonl"
        write_retrievals(results, path)
        for result in [*results, *load_retrievals(path)]:
            assert result.event_ids == [event_id for event_id, _ in result.candidates]
            # listed once per result: every read returns that one list
            assert result.event_ids is result.event_ids
        assert load_retrievals(path) == results

    def test_round_trip(self, tmp_path):
        results = [
            RetrievalResult("M1", [("A", 1.5), ("B", -0.25)]),
            RetrievalResult("M2", [("C", 0.0)]),
        ]
        path = tmp_path / "retrievals.jsonl"
        write_retrievals(results, path)
        loaded = load_retrievals(path)
        assert [(r.mention_id, r.candidates) for r in loaded] == [
            (r.mention_id, r.candidates) for r in results
        ]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "retrievals.jsonl"
        path.write_text(
            '{"mention_id": "M1", "candidates": []}\n\n', encoding="utf-8"
        )
        assert len(load_retrievals(path)) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "retrievals.jsonl"
        path.write_text(
            '{"mention_id": "M1", "candidates": []}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            load_retrievals(path)
        assert err.value.line == 2

    def test_non_numeric_score_reports_position(self, tmp_path):
        path = tmp_path / "retrievals.jsonl"
        path.write_text(
            '{"mention_id": "M1", "candidates": []}\n'
            '{"mention_id": "M2", "candidates": [{"event": "E1", "score": "x"}]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_retrievals(path)
        assert (err.value.path, err.value.line) == (str(path), 2)

    def test_missing_key_is_parse_error(self, tmp_path):
        path = tmp_path / "retrievals.jsonl"
        path.write_text('{"candidates": []}\n', encoding="utf-8")
        with pytest.raises(ParseError):
            load_retrievals(path)


LANGUAGES = ("en", "de", "fr")


def exact_case(pools: dict[str, np.ndarray], queries: np.ndarray, languages, mode):
    """Towers, an index and mentions whose encodings are the given arrays.

    Mention ``i`` is the one-hot feature ``i`` of a mention tower whose rows
    are ``queries`` (``1.0 * x`` is exact); an all-zero query gets an empty
    feature vector instead.  The index's matrix of each language in
    ``pools`` replaces the encoded one.
    """
    n_q, d = queries.shape
    W = np.vstack([queries, np.zeros((1, d))]).astype(float)
    params = whole_towers(W_mention=W, W_event=np.zeros_like(W))
    F = n_q + 1
    fvs = [
        FeatureVector(np.zeros(0, np.int64), np.zeros(0), F) if not row.any()
        else FeatureVector(np.array([i]), np.array([1.0]), F)
        for i, row in enumerate(queries)
    ]
    n = len(next(iter(pools.values())))
    ids = [f"E{i:02d}" for i in range(n)]
    index = CandidateIndex(params, plain_events(ids), ids, mode)
    for language, matrix in pools.items():
        index._matrices[language] = matrix.astype(float)
    mentions = [query_mention(f"M{i}", "text", languages[i]) for i in range(n_q)]
    return params, index, mentions, fvs


def bits(results: list[RetrievalResult]):
    """Results with every score as its exact bits (``-0.0 != 0.0``)."""
    return [(r.mention_id, [(e, float.hex(s)) for e, s in r.candidates]) for r in results]


def assert_matches_oracle(params, index, mentions, fvs, k):
    """The block kernel is bit-equal to ``topk`` per mention, alone or
    among all of them, for any block size."""
    want = [
        topk(index, encode(params, fv, "mention"), k, m.language, m.id)
        for m, fv in zip(mentions, fvs)
    ]
    got = retrieve_mentions(params, index, mentions, k, fvs=fvs)
    assert bits(got) == bits(want)
    for i, (mention, fv) in enumerate(zip(mentions, fvs)):
        assert bits(retrieve_mentions(params, index, [mention], k, fvs=[fv])) == bits([want[i]])
    with pytest.MonkeyPatch.context() as patch:
        for rows in (1, 3, 64):
            patch.setattr(retrieval, "BLOCK_MENTIONS", rows)
            assert bits(retrieve_mentions(params, index, mentions, k, fvs=fvs)) == bits(want)


@st.composite
def pick_k(draw, n: int) -> int:
    return draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))


@st.composite
def integer_cases(draw):
    """Small integer embeddings: exact ties and all-zero queries are common."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    mode = draw(st.sampled_from(["multilingual", "crosslingual"]))
    n_q = draw(st.integers(0, 10))
    languages = draw(st.lists(st.sampled_from(LANGUAGES), min_size=n_q, max_size=n_q))
    resolved = LANGUAGES if mode == "multilingual" else ("en",)
    cells = st.integers(-2, 2)
    pools = {lang: draw(hnp.arrays(np.int64, (n, d), elements=cells)) for lang in resolved}
    queries = draw(hnp.arrays(np.int64, (n_q, d), elements=cells))
    return pools, queries, languages, mode, draw(pick_k(n))


@st.composite
def near_tie_cases(draw):
    """Pool rows that differ only in the last coordinate, by a few ulps, so
    canonical scores tie or sit 1 ulp apart while BLAS may order them
    otherwise; or plain random floats, whose BLAS bits differ from the
    canonical ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    n_q = draw(st.integers(1, 8))
    if draw(st.booleans()):
        base = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4)
        pool = np.tile(base, (n, 1))
        steps = rng.integers(-2, 3, size=n)
        for j, step in enumerate(steps):
            for _ in range(abs(step)):
                pool[j, -1] = np.nextafter(pool[j, -1], np.inf * step)
        queries = np.tile(rng.standard_normal(d), (n_q, 1))
        queries[:, -1] = draw(st.sampled_from([1.0, 0.5, 3.0, rng.standard_normal()]))
    else:
        pool = rng.standard_normal((n, d))
        queries = rng.standard_normal((n_q, d))
    return {"en": pool}, queries, ["en"] * n_q, "multilingual", draw(pick_k(n))


class TestBlockKernel:
    """``retrieve_mentions`` against the one-mention oracle ``topk``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(integer_cases())
    def test_integer_ties(self, case):
        pools, queries, languages, mode, k = case
        assert_matches_oracle(*exact_case(pools, queries, languages, mode), k)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(near_tie_cases())
    def test_near_ties_and_float_scores(self, case):
        pools, queries, languages, mode, k = case
        assert_matches_oracle(*exact_case(pools, queries, languages, mode), k)

    def test_one_ulp_apart(self):
        # scores x, x + 1 ulp, x: the larger one wins, the tie goes to the lower id
        x = 0.1
        up = np.nextafter(x, 1.0)
        pools = {"en": np.array([[x], [up], [x], [up]])}
        case = exact_case(pools, np.array([[1.0], [-1.0]]), ["en", "en"], "multilingual")
        results = retrieve_mentions(*case[:3], 3, fvs=case[3])
        assert results[0].candidates == [("E01", up), ("E03", up), ("E00", x)]
        assert results[1].candidates == [("E00", -x), ("E02", -x), ("E01", -up)]
        assert_matches_oracle(*case, 3)

    def test_block_of_more_than_64(self):
        rng = np.random.default_rng(5)
        pools = {lang: rng.integers(-3, 4, size=(30, 6)) for lang in LANGUAGES}
        queries = rng.integers(-3, 4, size=(150, 6))
        languages = [LANGUAGES[i % 3] for i in range(150)]
        for mode in ("multilingual", "crosslingual"):
            assert_matches_oracle(*exact_case(pools, queries, languages, mode), 7)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_group_bound_near_two_groups_per_row(self, data):
        # two groups a row at n = 2G: both the bound's path and the full
        # partition's (n < 2G, or k > G), with ties in every row
        groups = 64  # the kernel's column groups per row
        n = data.draw(st.integers(2 * groups - 2, 2 * groups + 2))
        d, n_q = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 5))
        cells = st.integers(-2, 2)
        pool = data.draw(hnp.arrays(np.int64, (n, d), elements=cells))
        queries = data.draw(hnp.arrays(np.int64, (n_q, d), elements=cells))
        k = data.draw(st.one_of(st.sampled_from([1, groups - 1, groups, groups + 1, n]),
                                st.integers(1, n)))
        case = exact_case({"en": pool}, queries, ["en"] * n_q, "multilingual")
        assert_matches_oracle(*case, k)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 300)),
                      elements=st.floats(-1e3, 1e3)), st.data())
    def test_group_bound_is_at_most_the_kth_score(self, scores, data):
        k = data.draw(st.integers(1, scores.shape[1]))
        kth = np.sort(scores, axis=1)[:, -k]
        bound = retrieval._kth_lower_bound(scores, k)
        assert np.all(bound <= kth)
        if scores.shape[1] < 2 * 64 or k > 64:
            assert bound.tobytes() == kth.tobytes()

    def test_empty_mention_list(self):
        params, index, _, _ = exact_case({"en": np.ones((3, 2))}, np.ones((1, 2)), ["en"],
                                         "multilingual")
        assert retrieve_mentions(params, index, [], 2, fvs=[]) == []

    def test_k_out_of_range(self):
        case = exact_case({"en": np.ones((3, 2))}, np.ones((2, 2)), ["en", "en"],
                          "multilingual")
        with pytest.raises(KTooLarge):
            retrieve_mentions(*case[:3], 4, fvs=case[3])
        with pytest.raises(InvalidConfig):
            retrieve_mentions(*case[:3], 0, fvs=case[3])

    def test_scores_are_the_canonical_row_reduction(self):
        rng = np.random.default_rng(11)
        matrix, vec = rng.standard_normal((50, 32)), rng.standard_normal(32)
        want = [float.hex(float((matrix[j] * vec).sum())) for j in range(50)]
        assert [float.hex(float(s)) for s in score_rows(matrix, vec)] == want
        assert [float.hex(float(s)) for s in score_rows(matrix[::7], vec)] == want[::7]

    @pytest.mark.parametrize(
        "pool_value, query_value, what",
        [(1.0, np.nan, "mention encodings"), (np.inf, 1.0, "'en' pool encodings"),
         (1e300, 1e300, "mention-event scores")],
    )
    def test_non_finite_raises(self, pool_value, query_value, what):
        case = exact_case({"en": np.full((3, 2), pool_value)}, np.full((2, 2), query_value),
                          ["en", "en"], "multilingual")
        with pytest.raises(NonFiniteScore) as err:
            retrieve_mentions(*case[:3], 2, fvs=case[3])
        assert err.value.what == what


def old_lines(results: list[RetrievalResult]) -> str:
    """What ``write_retrievals`` wrote before it formatted lines itself."""
    return "".join(
        json.dumps({
            "mention_id": r.mention_id,
            "candidates": [{"event": e, "score": s} for e, s in r.candidates],
        }) + "\n"
        for r in results
    )


awkward_ids = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                                      "\U0001F600", "\u00e9", "a"])),
)
finite_scores = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
)


class TestWriter:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(awkward_ids, st.lists(st.tuples(awkward_ids, finite_scores), max_size=5)),
            max_size=6,
            unique_by=lambda item: item[0],
        )
    )
    @example([("M\u2028\"", [("E\\1", -0.0), ("\U0001F600", 5e-324), ("E2", 1e308)])])
    def test_byte_equal_to_json_dumps_and_round_trips(self, tmp_path_factory, records):
        results = [RetrievalResult(m, list(c)) for m, c in records]
        path = tmp_path_factory.mktemp("w") / "r.jsonl"
        write_retrievals(results, path)
        assert path.read_bytes() == old_lines(results).encode("utf-8")
        assert bits(load_retrievals(path)) == bits(results)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_writes_nothing(self, tmp_path, score):
        path = tmp_path / "r.jsonl"
        with pytest.raises(NonFiniteScore):
            write_retrievals([RetrievalResult("M1", [("A", 1.0), ("B", score)])], path)
        assert not path.exists()
