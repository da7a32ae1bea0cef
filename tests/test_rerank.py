"""Pair features, substitution rule, thresholded set prediction, training."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import design_matrix, featurize_pair, fnv1a64, ngram_counts

import hierground
from hierground import rerank
from hierground.cli import main
from hierground.dataset import Mention
from hierground.encoder import (
    BLOCK_ROWS,
    NGRAM_SIZES,
    FeatureVector,
    event_text,
    hash_text,
    save_arrays,
    span_window,
)
from hierground.errors import (
    DimensionMismatch,
    EmptyRetrievals,
    InvalidConfig,
    NonFiniteScore,
    ParseError,
    TrainingDiverged,
    UnknownEvent,
    UnknownMention,
)
from hierground.kb import Event, Label
from hierground.metrics import NULL_EVENT, EvalRecord, set_metrics
from hierground.rerank import (
    BLOCK_BUCKETS,
    DEFAULT_GRID,
    DEFAULT_HIDDEN,
    ID_DTYPE,
    PAIR_DIM,
    V_DTYPE,
    PairFeaturizer,
    RerankConfig,
    RerankerParams,
    SGDWorkspace,
    _pair_run,
    _reranker_sgd_step,
    init_reranker,
    load_predictions,
    load_reranker,
    predict_set,
    rerank_records,
    save_reranker,
    write_predictions,
    score_candidates,
    score_pair,
    select_threshold,
    substitute_missing_golds,
    train_reranker,
)
from hierground.retrieval import RetrievalResult
from hierground.seeding import substream_rng
from hierground.training import sigmoid


def make_mention(context: str, mid: str = "M1", language: str = "en") -> Mention:
    end = len(context.split()[0]) if context.split() else 1
    return Mention(
        id=mid,
        language=language,
        context=context,
        span_start=0,
        span_end=end,
        anchor_event="E0",
    )


def bucket_oracle(text: str) -> dict[int, float]:
    counts: dict[int, float] = {}
    for n in NGRAM_SIZES:
        for i in range(len(text) - n + 1):
            b = fnv1a64(text[i : i + n].encode("utf-8")) % BLOCK_BUCKETS
            counts[b] = counts.get(b, 0.0) + 1.0
    return counts


def blocks_of(fv) -> dict[int, dict[int, float]]:
    out: dict[int, dict[int, float]] = {}
    for index, value in zip(fv.indices, fv.values):
        out.setdefault(int(index) // BLOCK_BUCKETS, {})[
            int(index) % BLOCK_BUCKETS
        ] = float(value)
    return out


class TestPairFeatures:
    def test_blocks_are_l2_normalized(self):
        mention = make_mention("flood relief on the river plain")
        event = Event("E1", {"en": Label("flood relief", "aid after the flood")})
        fv = featurize_pair(mention, event)
        assert fv.F == PAIR_DIM
        for block, counts in blocks_of(fv).items():
            assert np.linalg.norm(list(counts.values())) == pytest.approx(1.0)

    def test_interaction_block_is_min_of_counts(self):
        mention = make_mention("flood relief on the river plain")
        event = Event("E1", {"en": Label("flood relief", "aid after the flood")})
        fv = featurize_pair(mention, event)
        m_counts = bucket_oracle(span_window(mention, 200))
        e_counts = bucket_oracle("flood relief aid after the flood")
        inter = {
            b: min(c, e_counts[b]) for b, c in m_counts.items() if b in e_counts
        }
        vals = np.array([inter[b] for b in sorted(inter)])
        vals = vals / np.linalg.norm(vals)
        got = blocks_of(fv)[2]
        assert sorted(got) == sorted(inter)
        assert np.allclose([got[b] for b in sorted(got)], vals)

    def test_disjoint_texts_have_empty_interaction(self):
        mention = make_mention("aaaaa bbbbb")
        event = Event("E1", {"en": Label("zzzzz yyyyy")})
        fv = featurize_pair(mention, event)
        assert 2 not in blocks_of(fv)
        assert set(blocks_of(fv)) == {0, 1}

    def test_crosslingual_ignores_mention_language(self):
        event = Event(
            "E1", {"en": Label("summit", "talks"), "de": Label("gipfel", "reden")}
        )
        m_de = make_mention("summit begins", language="de")
        m_en = make_mention("summit begins", language="en")
        cross = featurize_pair(m_de, event, mode="crosslingual")
        multi = featurize_pair(m_en, event, mode="multilingual")
        assert np.array_equal(cross.indices, multi.indices)
        assert np.allclose(cross.values, multi.values)

    def test_featurizer_matches_direct_call(self):
        event = Event(
            "E1", {"en": Label("summit", "talks"), "de": Label("gipfel", "reden")}
        )
        featurizer = PairFeaturizer([event])
        mention = make_mention("gipfel beginnt", language="de")
        cached = featurizer.pair_fv(mention, "E1")
        direct = featurize_pair(mention, event)
        assert np.array_equal(cached.indices, direct.indices)
        assert np.allclose(cached.values, direct.values)

    def test_featurizer_rejects_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            PairFeaturizer([], mode="bilingual")


class TestScorePair:
    def test_zero_hidden_input_reduces_to_bias(self):
        params = RerankerParams(
            V=np.zeros((PAIR_DIM, 2)), c=np.zeros(2), w=np.ones(2), b=0.5
        )
        mention = make_mention("flood relief work")
        event = Event("E1", {"en": Label("flood relief")})
        assert score_pair(params, featurize_pair(mention, event)) == 0.5

    def test_hand_value_single_unit(self):
        from hierground.encoder import FeatureVector

        fv = FeatureVector(
            indices=np.array([7], dtype=np.int64),
            values=np.array([1.0]),
            F=PAIR_DIM,
        )
        V = np.zeros((PAIR_DIM, 1))
        V[7, 0] = 0.3
        params = RerankerParams(V=V, c=np.array([0.2]), w=np.array([2.0]), b=-0.1)
        want = 2.0 * np.tanh(0.5) - 0.1
        assert score_pair(params, fv) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        from hierground.encoder import FeatureVector

        params = init_reranker(P=64, hidden=2, seed=0)
        fv = FeatureVector(
            indices=np.array([0], dtype=np.int64), values=np.array([1.0]), F=32
        )
        with pytest.raises(DimensionMismatch):
            score_pair(params, fv)


def substitution_oracle(candidates: list[str], gold: frozenset[str]) -> list[str]:
    """Reference: missing golds fill non-gold slots from the bottom up."""
    out = list(candidates)
    missing = sorted(gold - set(candidates))
    nongold = [i for i, c in enumerate(candidates) if c not in gold]
    for event_id, pos in zip(missing, reversed(nongold)):
        out[pos] = event_id
    return out


class TestSubstituteMissingGolds:
    def test_no_missing_golds_is_identity(self):
        cands = ["A", "B", "C", "D"]
        assert substitute_missing_golds(cands, frozenset({"A", "C"})) == cands

    def test_single_missing_replaces_last(self):
        got = substitute_missing_golds(["A", "B", "C", "D"], frozenset({"A", "X"}))
        assert got == ["A", "B", "C", "X"]

    def test_gold_at_bottom_is_never_evicted(self):
        got = substitute_missing_golds(["B", "C", "A"], frozenset({"A", "X"}))
        assert got == ["B", "X", "A"]

    def test_two_missing_fill_upward_in_id_order(self):
        got = substitute_missing_golds(
            ["A", "B", "C", "D"], frozenset({"A", "X", "Y"})
        )
        assert got == ["A", "B", "Y", "X"]

    def test_fully_disjoint_gold(self):
        got = substitute_missing_golds(["A", "B"], frozenset({"X", "Y"}))
        assert got == ["Y", "X"]

    def test_gold_larger_than_list(self):
        with pytest.raises(InvalidConfig):
            substitute_missing_golds(["A"], frozenset({"X", "Y"}))

    def test_matches_oracle_on_random_cases(self):
        rng = np.random.default_rng(23)
        universe = [f"E{i:02d}" for i in range(30)]
        for trial in range(200):
            k = int(rng.integers(1, 9))
            cands = list(rng.choice(universe, size=k, replace=False))
            n_gold = int(rng.integers(1, k + 1))
            gold = frozenset(rng.choice(universe, size=n_gold, replace=False))
            got = substitute_missing_golds(cands, gold)
            assert got == substitution_oracle(cands, gold)
            assert len(got) == k
            assert gold <= set(got)
            survivors = [c for c in cands if c in got]
            assert survivors == [c for c in got if c in cands]


def interaction_params(weight: float = 10.0, bias: float = -5.0) -> RerankerParams:
    """Score rises with any shared n-grams and sits at ``bias`` without."""
    V = np.zeros((PAIR_DIM, 1))
    V[2 * BLOCK_BUCKETS :, 0] = 1.0
    return RerankerParams(V=V, c=np.zeros(1), w=np.array([weight]), b=bias)


def overlap_corpus():
    events = [
        Event("G1", {"en": Label("flood relief effort", "river basin aid")}),
        Event("N1", {"en": Label("zzzzz qqqqq", "kkkkk jjjjj")}),
        Event("N2", {"en": Label("xxxxx uuuuu", "ppppp oooo1")}),
    ]
    mention = make_mention("flood relief effort started in the river basin")
    result = RetrievalResult("M1", [("N1", 0.9), ("G1", 0.5), ("N2", 0.1)])
    return events, mention, result


class TestPredictSet:
    def test_constant_score_keeps_all_or_none(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = RerankerParams(
            V=np.zeros((PAIR_DIM, 1)), c=np.zeros(1), w=np.zeros(1), b=0.0
        )
        kept = predict_set(params, featurizer, mention, result, threshold=0.5)
        assert kept == frozenset({"N1", "G1", "N2"})
        null = predict_set(params, featurizer, mention, result, threshold=0.7)
        assert null == frozenset({NULL_EVENT})

    def test_interaction_scorer_keeps_only_overlap(self):
        # stray hash collisions give negatives some interaction mass too,
        # so the separating threshold is computed from the actual scores
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = interaction_params()
        probs = {
            e: float(sigmoid(np.array([score_pair(params, featurizer.pair_fv(mention, e))]))[0])
            for e in result.event_ids
        }
        assert probs["G1"] > max(probs["N1"], probs["N2"])
        tau = (probs["G1"] + max(probs["N1"], probs["N2"])) / 2.0
        kept = predict_set(params, featurizer, mention, result, threshold=tau)
        assert kept == frozenset({"G1"})

    def test_threshold_sets_shrink_monotonically(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = init_reranker(PAIR_DIM, hidden=4, seed=1)
        previous = None
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
            kept = predict_set(params, featurizer, mention, result, tau)
            if kept == frozenset({NULL_EVENT}):
                kept = frozenset()
            if previous is not None:
                assert kept <= previous
            previous = kept

    def test_k_truncates_retrieval_order(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = interaction_params()
        probs = {
            e: float(sigmoid(np.array([score_pair(params, featurizer.pair_fv(mention, e))]))[0])
            for e in result.event_ids
        }
        tau = (probs["G1"] + max(probs["N1"], probs["N2"])) / 2.0
        full = predict_set(params, featurizer, mention, result, threshold=tau)
        assert full == frozenset({"G1"})
        # k=1 restricts scoring to N1, the top retrieval candidate, and
        # its probability sits below the threshold
        truncated = predict_set(params, featurizer, mention, result, threshold=tau, k=1)
        assert truncated == frozenset({NULL_EVENT})

    def test_empty_candidates_raise(self):
        events, mention, _ = overlap_corpus()
        featurizer = PairFeaturizer(events)
        with pytest.raises(EmptyRetrievals):
            predict_set(
                interaction_params(),
                featurizer,
                mention,
                RetrievalResult("M1", []),
                threshold=0.5,
            )


class TestScoreCandidates:
    def test_sorted_descending_with_id_ties(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = RerankerParams(
            V=np.zeros((PAIR_DIM, 1)), c=np.zeros(1), w=np.zeros(1), b=1.0
        )
        scored = score_candidates(params, featurizer, mention, result)
        assert [e for e, _ in scored] == ["G1", "N1", "N2"]
        assert all(s == 1.0 for _, s in scored)

    def test_overlap_orders_gold_first(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        scored = score_candidates(interaction_params(), featurizer, mention, result)
        assert scored[0][0] == "G1"
        assert scored[0][1] > scored[1][1]


class TestRepeatedCandidates:
    """Lists that repeat an event id, as root-padded gold chains do."""

    RESULT = RetrievalResult(
        "M1", [("N1", 0.9), ("G1", 0.8), ("G1", 0.7), ("N2", 0.6), ("G1", 0.5), ("N1", 0.1)]
    )

    @pytest.mark.parametrize("k", [None, 3, 5])
    def test_each_distinct_id_scored_once(self, k, monkeypatch):
        events, mention, _ = overlap_corpus()
        params = init_reranker(PAIR_DIM, hidden=4, seed=2)
        featurizer = PairFeaturizer(events)
        ids = self.RESULT.event_ids if k is None else self.RESULT.event_ids[:k]
        # the per-listing loop scoring replaced
        want = sorted(
            [(e, score_pair(params, featurizer.pair_fv(mention, e))) for e in ids],
            key=lambda pair: (-pair[1], pair[0]),
        )
        calls = []
        original = rerank.score_pair

        def counting(params, fv):
            calls.append(fv)
            return original(params, fv)

        monkeypatch.setattr(rerank, "score_pair", counting)
        got = score_candidates(params, featurizer, mention, self.RESULT, k)
        assert len(calls) == len(set(ids))
        assert got == want
        assert len(got) == len(ids)

    def test_candidate_texts_hashed_in_one_call(self, monkeypatch):
        events, mention, _ = overlap_corpus()
        calls = []
        kernel = rerank.ngram_count_runs

        def counting(texts, buckets):
            calls.append(list(texts))
            return kernel(texts, buckets)

        monkeypatch.setattr(rerank, "ngram_count_runs", counting)
        featurizer = PairFeaturizer(events)
        featurizer.mentions([mention])
        score_candidates(init_reranker(PAIR_DIM, hidden=2), featurizer, mention, self.RESULT)
        score_candidates(init_reranker(PAIR_DIM, hidden=2), featurizer, mention, self.RESULT)
        assert [len(texts) for texts in calls] == [1, 3]


class TestSelectThreshold:
    def test_separating_threshold_wins(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = interaction_params()
        probs = {
            e: float(sigmoid(np.array([score_pair(params, featurizer.pair_fv(mention, e))]))[0])
            for e in result.event_ids
        }
        keep_all = min(probs.values()) / 2.0
        separating = (probs["G1"] + max(probs["N1"], probs["N2"])) / 2.0
        golds = {"M1": ("G1",)}
        mentions = {"M1": mention}
        tau = select_threshold(
            params,
            featurizer,
            [result],
            golds,
            mentions,
            grid=(keep_all, separating),
        )
        assert tau == separating

    def test_tie_resolves_to_smaller(self):
        # constant score 0 puts sigmoid at 0.5: every grid value either
        # keeps everything or predicts NULL, and with a foreign gold the
        # product is zero everywhere
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        params = RerankerParams(
            V=np.zeros((PAIR_DIM, 1)), c=np.zeros(1), w=np.zeros(1), b=0.0
        )
        golds = {"M1": ("ABSENT",)}
        tau = select_threshold(
            params, featurizer, [result], golds, {"M1": mention}, grid=(0.9, 0.2)
        )
        assert tau == 0.2

    def test_empty_grid_rejected(self):
        events, mention, result = overlap_corpus()
        featurizer = PairFeaturizer(events)
        with pytest.raises(InvalidConfig):
            select_threshold(
                interaction_params(),
                featurizer,
                [result],
                {"M1": ("G1",)},
                {"M1": mention},
                grid=(),
            )


class TestRerankConfig:
    def test_defaults_valid(self):
        config = RerankConfig()
        assert config.k == 8

    def test_grid_bounds(self):
        with pytest.raises(InvalidConfig):
            RerankConfig(grid=(0.5, 1.0))

    def test_threshold_bounds(self):
        with pytest.raises(InvalidConfig):
            RerankConfig(threshold=0.0)

    def test_positive_rate(self):
        with pytest.raises(InvalidConfig):
            RerankConfig(learning_rate=-1.0)
        with pytest.raises(InvalidConfig):
            RerankConfig(learning_rate=float("nan"))


def training_fixture(n: int = 12):
    """Mentions quoting their gold event's title among disjoint negatives."""
    words = [
        "alpha", "bravo", "candle", "dulcet", "ember", "fjord",
        "gallop", "hollow", "ingot", "jungle", "kelvin", "lumen",
    ]
    events = []
    mentions = {}
    golds = {}
    results = []
    for i in range(n):
        gold_id = f"G{i:02d}"
        neg_id = f"N{i:02d}"
        word = words[i % len(words)]
        events.append(Event(gold_id, {"en": Label(f"{word} {word}term")}))
        events.append(Event(neg_id, {"en": Label("zz9zz qq8qq")}))
        mention = make_mention(f"{word} {word}term happened", mid=f"M{i:02d}")
        mentions[mention.id] = mention
        golds[mention.id] = (gold_id,)
        results.append(RetrievalResult(mention.id, [(neg_id, 0.9), (gold_id, 0.5)]))
    return events, mentions, golds, results


class TestInitReranker:
    @pytest.mark.parametrize(
        "P, hidden", [(PAIR_DIM, DEFAULT_HIDDEN), (96, 4), (2 * BLOCK_ROWS + 3, 3), (0, 2)]
    )
    def test_one_draw_cast_to_float32(self, P, hidden):
        # V is filled a block at a time from the stream one float64 draw reads
        params = init_reranker(P, hidden, seed=7)
        rng = substream_rng(7, "rerank_init")
        V = rng.uniform(-0.05, 0.05, size=(P, hidden))
        assert params.V.dtype == np.float32
        assert params.V.tobytes() == V.astype(np.float32).tobytes()
        assert params.w.tobytes() == rng.uniform(-0.05, 0.05, size=hidden).tobytes()
        assert params.c.dtype == params.w.dtype == np.float64


class TestTrainReranker:
    def test_requires_retrievals(self):
        events, mentions, golds, results = training_fixture()
        featurizer = PairFeaturizer(events)
        config = RerankConfig(epochs=1)
        with pytest.raises(EmptyRetrievals):
            train_reranker([], golds, mentions, featurizer, config)

    def test_deterministic(self):
        events, mentions, golds, results = training_fixture()
        config = RerankConfig(k=2, epochs=2, seed=3)
        params_a = train_reranker(
            results, golds, mentions, PairFeaturizer(events), config
        )
        params_b = train_reranker(
            results, golds, mentions, PairFeaturizer(events), config
        )
        assert np.array_equal(params_a.V, params_b.V)
        assert np.array_equal(params_a.c, params_b.c)
        assert np.array_equal(params_a.w, params_b.w)
        assert params_a.b == params_b.b

    def test_moves_away_from_init(self):
        events, mentions, golds, results = training_fixture()
        config = RerankConfig(k=2, epochs=1, seed=0)
        params = train_reranker(
            results, golds, mentions, PairFeaturizer(events), config
        )
        init = init_reranker(PAIR_DIM, config.hidden, config.seed)
        assert not np.array_equal(params.V, init.V)

    def test_learns_to_prefer_gold(self):
        events, mentions, golds, results = training_fixture()
        featurizer = PairFeaturizer(events)
        config = RerankConfig(k=2, epochs=5, seed=0)
        params = train_reranker(results, golds, mentions, featurizer, config)
        correct = 0
        for result in results:
            mention = mentions[result.mention_id]
            scored = score_candidates(params, featurizer, mention, result)
            if scored[0][0] == golds[result.mention_id][0]:
                correct += 1
        assert correct >= 10


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        params = init_reranker(P=96, hidden=4, seed=7)
        path = tmp_path / "reranker.bin"
        save_reranker(path, params, threshold=0.4)
        loaded, threshold = load_reranker(path)
        assert threshold == 0.4
        # V is stored as '<f4', as the encoder's towers are; c, w and b stay '<f8'
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        dtypes = {spec["name"]: spec["dtype"] for spec in header["arrays"]}
        assert dtypes == {"V": "<f4", "c": "<f8", "w": "<f8", "b": "<f8"}
        assert params.V.dtype == loaded.V.dtype == np.float32
        assert loaded.c.dtype == loaded.w.dtype == np.float64
        assert loaded.V.tobytes() == params.V.tobytes()
        assert np.array_equal(loaded.c, params.c)
        assert np.array_equal(loaded.w, params.w)
        assert loaded.b == params.b

    def test_threshold_none_preserved(self, tmp_path):
        params = init_reranker(P=96, hidden=4, seed=7)
        path = tmp_path / "reranker.bin"
        save_reranker(path, params)
        _, threshold = load_reranker(path)
        assert threshold is None

    def test_resave_is_byte_identical(self, tmp_path):
        params = init_reranker(P=96, hidden=4, seed=7)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_reranker(a, params, threshold=0.3)
        save_reranker(b, params, threshold=0.3)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format_version": 1, "kind": "encoder"}\n')
        with pytest.raises(ParseError):
            load_reranker(path)

    @pytest.mark.parametrize(
        "name, value",
        [("b", np.zeros(2)), ("b", np.zeros(0)), ("w", np.zeros(())), ("c", np.zeros(3))],
    )
    def test_inconsistent_shapes_rejected(self, tmp_path, name, value):
        params = init_reranker(P=96, hidden=4, seed=7)
        path = tmp_path / "reranker.bin"
        arrays = {"V": params.V, "c": params.c, "w": params.w, "b": np.array([params.b])}
        save_arrays(path, "reranker", {**arrays, name: value}, threshold=None)
        with pytest.raises(ParseError):
            load_reranker(path)

    @pytest.mark.parametrize("name, dtype", [("V", np.float64), ("c", np.float32)])
    def test_stored_dtype_must_match(self, tmp_path, name, dtype):
        params = init_reranker(P=96, hidden=4, seed=7)
        arrays = {"V": params.V, "c": params.c, "w": params.w, "b": np.array([params.b])}
        arrays[name] = arrays[name].astype(dtype)
        path = tmp_path / "reranker.bin"
        save_arrays(path, "reranker", arrays, threshold=0.5)
        with pytest.raises(ParseError, match=f"array '{name}' has dtype"):
            load_reranker(path)

    def test_truncated_rejected(self, tmp_path):
        params = init_reranker(P=96, hidden=4, seed=7)
        path = tmp_path / "reranker.bin"
        save_reranker(path, params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ParseError):
            load_reranker(path)

    @pytest.mark.parametrize("name", ["V", "c", "w", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, name, value):
        params = init_reranker(P=96, hidden=4, seed=7)
        arrays = {"V": params.V, "c": params.c, "w": params.w, "b": np.array([params.b])}
        arrays[name] = arrays[name].copy()
        arrays[name].flat[-1] = value
        path = tmp_path / "reranker.bin"
        save_arrays(path, "reranker", arrays, threshold=0.5)
        with pytest.raises(NonFiniteScore) as err:
            load_reranker(path)
        assert err.value.what == "reranker weights"
        assert err.value.checkpoint == str(path)


class TestPredictionsFile:
    def test_round_trip(self, tmp_path):
        predictions = [
            ("M1", frozenset({"B", "A"})),
            ("M2", frozenset({NULL_EVENT})),
        ]
        path = tmp_path / "predictions.jsonl"
        write_predictions(predictions, path)
        assert load_predictions(path) == {
            "M1": frozenset({"A", "B"}),
            "M2": frozenset({NULL_EVENT}),
        }

    def test_ids_written_sorted(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        write_predictions([("M1", frozenset({"Z", "A", "K"}))], path)
        line = path.read_text("utf-8").splitlines()[0]
        assert '"predicted": ["A", "K", "Z"]' in line

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "predictions.jsonl"
        path.write_text('{"mention_id": "M1"}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert err.value.line == 1


# ---------------------------------------------------------------------------
# Scalar oracles: the dict, per-example and per-threshold versions the
# array, batched and score-once code replaced.


def pair_fv_oracle(
    mention_counts: dict[int, float], event_counts: dict[int, float]
) -> FeatureVector:
    interaction = {
        b: min(c, event_counts[b]) for b, c in mention_counts.items() if b in event_counts
    }
    indices: list[int] = []
    values: list[float] = []
    for block, counts in enumerate((mention_counts, event_counts, interaction)):
        if not counts:
            continue
        keys = sorted(counts)
        vals = np.array([counts[k] for k in keys])
        vals = vals / np.linalg.norm(vals)
        indices.extend(block * BLOCK_BUCKETS + k for k in keys)
        values.extend(vals.tolist())
    return FeatureVector(
        indices=np.array(indices, dtype=np.int64), values=np.array(values), F=PAIR_DIM
    )


def sgd_step_oracle(params: RerankerParams, batch, lr: float, workspace=None) -> np.ndarray:
    """Per-example SGD step; returns the logits.  ``workspace`` is unused."""
    n = len(batch)
    dV_indices, dV_contribs = [], []
    dc = np.zeros(params.h)
    dw = np.zeros(params.h)
    db = 0.0
    scores = []
    for fv, label in batch:
        a = np.tanh(fv.values @ params.V[fv.indices] + params.c)
        score = float(params.w @ a + params.b)
        scores.append(score)
        g = (float(sigmoid(np.array([score]))[0]) - label) / n
        dz = g * params.w * (1.0 - a * a)
        dw += g * a
        db += g
        dc += dz
        dV_indices.append(fv.indices)
        dV_contribs.append(np.outer(fv.values, dz))
    rows, inverse = np.unique(np.concatenate(dV_indices), return_inverse=True)
    grad = np.zeros((rows.size, params.h))
    np.add.at(grad, inverse, np.concatenate(dV_contribs))
    params.V[rows] -= lr * grad
    params.c -= lr * dc
    params.w -= lr * dw
    params.b -= lr * db
    return np.array(scores)


def design_matrix_step_oracle(params: RerankerParams, batch, lr: float) -> np.ndarray:
    """The batched step before its workspace: a fresh design matrix, gather
    and update per step, with X and the gradient of V in V's dtype; returns
    the logits."""
    n = len(batch)
    rows, X = design_matrix([fv for fv, _ in batch], params.P, params.V.dtype)
    labels = np.array([label for _, label in batch])
    V_rows = params.V[rows]
    A = np.tanh(X @ V_rows + params.c)
    logits = A @ params.w + params.b
    G = (sigmoid(logits) - labels) / n
    DZ = G[:, None] * params.w * (1.0 - A * A)
    params.V[rows] = V_rows - lr * (X.T @ DZ.astype(V_rows.dtype, copy=False))
    params.c -= lr * DZ.sum(axis=0)
    params.w -= lr * (G @ A)
    params.b -= lr * float(G.sum())
    return logits


def select_threshold_oracle(params, featurizer, results, golds, mentions, grid, k=None):
    best_tau, best_product = None, -1.0
    for tau in sorted(grid):
        records = []
        for result in results:
            mention = mentions[result.mention_id]
            order = [e for e, _ in score_candidates(params, featurizer, mention, result, k)]
            records.append(
                EvalRecord(
                    mention_id=result.mention_id,
                    gold=golds[result.mention_id],
                    ranking=result.event_ids,
                    predicted=predict_set(params, featurizer, mention, result, tau, k),
                    rerank_order=order,
                )
            )
        m = set_metrics(records)
        product = m["strict_acc"] * m["macro_f1"] * m["micro_f1"]
        if product > best_product:
            best_product, best_tau = product, tau
    return float(best_tau)


def assert_params_close(got: RerankerParams, want: RerankerParams, tol: float = 1e-12):
    assert np.max(np.abs(got.V - want.V)) <= tol
    assert np.max(np.abs(got.c - want.c)) <= tol
    assert np.max(np.abs(got.w - want.w)) <= tol
    assert abs(got.b - want.b) <= tol


def copy_params(params: RerankerParams) -> RerankerParams:
    return RerankerParams(params.V.copy(), params.c.copy(), params.w.copy(), params.b)


# small alphabets make shared n-grams common, and the two-letter one makes
# a shared n-gram occur a different number of times in the two texts
pair_texts = st.one_of(
    st.text(alphabet="ab", max_size=30), st.text(alphabet="abcde éß中", max_size=24)
)


# bucket -> count maps; the small range makes shared buckets common
bucket_counts = st.dictionaries(
    st.one_of(st.integers(0, 15), st.integers(0, BLOCK_BUCKETS - 1)),
    st.integers(1, 40),
    max_size=30,
)


def block_arrays(counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending int64 keys and their float counts, as ``ngram_counts`` gives."""
    keys = np.array(sorted(counts), dtype=np.int64)
    return keys, np.array([float(counts[k]) for k in keys.tolist()])


class TestArrayPairFeatures:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mention_text=pair_texts, event_text=pair_texts)
    @example(mention_text="", event_text="")
    @example(mention_text="ab", event_text="abcab")
    @example(mention_text="abcab", event_text="ab")
    @example(mention_text="aaaaaa", event_text="aaab")
    def test_bit_equal_to_dict_version(self, mention_text, event_text):
        keys, counts, _ = ngram_counts(mention_text, BLOCK_BUCKETS)
        oracle_counts = bucket_oracle(mention_text)
        assert keys.tolist() == sorted(oracle_counts)
        assert counts.tolist() == [oracle_counts[k] for k in sorted(oracle_counts)]

        m_block, e_block = (
            oracles.narrow_block(oracles.block(*ngram_counts(text, BLOCK_BUCKETS)[:2]))
            for text in (mention_text, event_text)
        )
        (got,) = _pair_run([m_block], [e_block])
        want = pair_fv_oracle(bucket_oracle(mention_text), bucket_oracle(event_text))
        assert got.indices.dtype == ID_DTYPE and got.values.dtype == V_DTYPE
        assert np.array_equal(got.indices, want.indices)
        assert got.values.tobytes() == oracles.narrow_fv(want).values.tobytes()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mention=bucket_counts, event=bucket_counts)
    @example(mention={}, event={})
    @example(mention={}, event={3: 1})
    @example(mention={3: 1}, event={})
    @example(mention={1: 2, 5: 1}, event={2: 1, 4: 3})  # no shared bucket
    @example(mention={BLOCK_BUCKETS - 1: 1}, event={0: 2})  # past the last event key
    @example(mention={0: 1, 7: 2, 9: 4}, event={0: 3, 7: 1, 9: 4})
    def test_bit_equal_to_intersect1d_oracle(self, mention, event):
        m, e = block_arrays(mention), block_arrays(event)
        (got,) = _pair_run(*([oracles.narrow_block(oracles.block(*b))] for b in (m, e)))
        want = oracles.pair_fv(m, e)
        assert got.indices.dtype == ID_DTYPE and got.values.dtype == V_DTYPE
        assert np.array_equal(got.indices, want.indices)
        assert got.indices.tobytes() == oracles.narrow_fv(want).indices.tobytes()
        assert got.values.tobytes() == oracles.narrow_fv(want).values.tobytes()

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(unit=st.sampled_from(["a", "ab", "flood ", "洪水"]), reps=st.integers(1, 30_000))
    @example(unit="a", reps=70_000)  # "aaa" alone counts past 2^16 - 1
    def test_counts_never_wrap_in_a_long_window(self, unit, reps):
        """However long the window, the narrow block's counts are the exact
        counts, and the pair vector is the float64 oracle's cast once."""
        max_chars = 10**9
        mention = make_mention(unit * reps)
        event = Event("E1", {"en": Label("flood relief", unit * 3)})
        featurizer = PairFeaturizer([event], max_context_chars=max_chars)
        fv = featurizer.pair_fv(mention, "E1")
        (m_block,), (e_block,) = featurizer.featurize([mention], [("E1", "en")])
        m = ngram_counts(span_window(mention, max_chars), BLOCK_BUCKETS)[:2]
        e = ngram_counts(event_text(event, "en"), BLOCK_BUCKETS)[:2]
        for block, (keys, counts) in ((m_block, m), (e_block, e)):
            assert np.array_equal(block.keys, keys)
            assert block.counts.dtype.kind == "u" and np.array_equal(block.counts, counts)
        want = oracles.narrow_fv(oracles.pair_fv(m, e))
        assert fv.indices.tobytes() == want.indices.tobytes()
        assert fv.values.tobytes() == want.values.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=pair_texts, F=st.sampled_from([2**18, BLOCK_BUCKETS, 7]))
    @example(text="", F=7)
    @example(text="ab", F=2**18)
    @example(text="abc", F=BLOCK_BUCKETS)
    def test_hash_text_is_normalized_ngram_counts(self, text, F):
        keys, counts, _ = ngram_counts(text, F)
        fv = hash_text(text, F)
        assert fv.indices.dtype == keys.dtype == np.int64
        assert np.array_equal(fv.indices, keys)
        want = counts / np.linalg.norm(counts) if keys.size else counts
        assert fv.values.tobytes() == want.tobytes()


def assert_same_vector(got: FeatureVector, want: FeatureVector) -> None:
    assert got.F == want.F == PAIR_DIM
    for name in ("indices", "values"):
        got_array, want_array = getattr(got, name), getattr(want, name)
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes()


# E1 has a German label, and E3 an empty text and so an empty block
RUN_EVENTS = [
    Event("E0", {"en": Label("ab", "abcab")}),
    Event("E1", {"en": Label("aaaab", ""), "de": Label("bbba", "éß中")}),
    Event("E2", {"en": Label("zzzz", "qqqq")}),
    Event("E3", {"en": Label("", "")}),
]


class TestPairRuns:
    """The run kernel against the per-pair oracle ``block_pair_fv``, by
    dtype and bytes, on every pair of a run."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(st.tuples(bucket_counts, bucket_counts), min_size=1, max_size=70))
    @example(pairs=[({}, {})])
    @example(pairs=[({}, {3: 1}), ({3: 1}, {}), ({1: 2, 5: 1}, {2: 1, 4: 3})])
    @example(pairs=[({BLOCK_BUCKETS - 1: 1}, {0: 2}), ({0: 2}, {BLOCK_BUCKETS - 1: 1})])
    def test_blocks_bit_equal_to_per_pair_oracle(self, pairs):
        m_blocks, e_blocks = (
            [oracles.narrow_block(oracles.block(*block_arrays(counts))) for counts in side]
            for side in zip(*pairs)
        )
        got = _pair_run(m_blocks, e_blocks)
        assert len(got) == len(pairs)
        for fv, m, e in zip(got, m_blocks, e_blocks):
            assert_same_vector(fv, oracles.block_pair_fv(m, e))

    # up to 70 mentions: one-pair runs and runs across the RUN_MENTIONS cut
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        listed=st.lists(
            st.tuples(pair_texts, st.lists(st.sampled_from(["E0", "E1", "E2", "E3"]), max_size=6)),
            min_size=1, max_size=70,
        ),
        keep=st.booleans(),
    )
    @example(listed=[("a" * 70_000, ["E0", "E1", "E0"])], keep=False)  # "aaa" past 2^16 - 1
    @example(listed=[("ab", ["E0", "E3", "E1", "E1"])] * 33, keep=True)
    def test_featurizer_runs_bit_equal_to_per_pair_oracle(self, listed, keep):
        mentions = [
            make_mention(text + " x", f"M{i:02d}", ("en", "de")[i % 2])
            for i, (text, _) in enumerate(listed)
        ]
        ids = [event_ids for _, event_ids in listed]
        featurizer = PairFeaturizer(RUN_EVENTS, max_context_chars=10**9, keep_pairs=keep)
        got = list(featurizer.pair_fvs(mentions, ids))
        assert [sorted(pairs) for pairs in got] == [sorted(set(i)) for i in ids]
        alone = PairFeaturizer(RUN_EVENTS, max_context_chars=10**9)
        for mention, pairs in zip(mentions, got):
            for event_id, fv in pairs.items():
                (m,), (e,) = alone.featurize([mention], [(event_id, mention.language)])
                assert_same_vector(fv, oracles.block_pair_fv(m, e))


def sgd_batch(seed: int, size: int):
    """Real pair features, so examples share the rows of their blocks."""
    events, mentions, _, results = training_fixture()
    featurizer = PairFeaturizer(events)
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(size):
        result = results[int(rng.integers(len(results)))]
        event_id = result.event_ids[int(rng.integers(2))]
        fv = featurizer.pair_fv(mentions[result.mention_id], event_id)
        batch.append((fv, float(rng.integers(2))))
    return batch


def workspace_for(batch, params: RerankerParams, batch_size: int | None = None) -> SGDWorkspace:
    return SGDWorkspace([fv for fv, _ in batch], params, batch_size or len(batch))


def steep_params(seed: int, hidden: int) -> RerankerParams:
    params = init_reranker(PAIR_DIM, hidden=hidden, seed=seed)
    params.V *= 20.0  # push tanh away from its linear region
    params.w = np.random.default_rng(seed).normal(size=hidden)
    return params


@pytest.fixture
def float64_V(monkeypatch):
    """V held in float64, the dtype of the per-example oracle."""
    monkeypatch.setattr(rerank, "V_DTYPE", np.dtype(np.float64))


@pytest.mark.usefixtures("float64_V")
class TestBatchedSGD:
    @pytest.mark.parametrize("size", [1, 4, 16, 37])
    def test_one_step_matches_per_example_oracle(self, size):
        batch = sgd_batch(seed=size, size=size)
        params = steep_params(size, hidden=8)
        want = copy_params(params)
        _reranker_sgd_step(params, batch, 0.7, workspace_for(batch, params))
        sgd_step_oracle(want, batch, lr=0.7)
        assert_params_close(params, want)

    @pytest.mark.parametrize("batch_size", [4, 8, 16])
    def test_full_training_matches_per_example_oracle(self, batch_size, monkeypatch):
        events, mentions, golds, results = training_fixture()
        config = RerankConfig(k=2, epochs=5, batch_size=batch_size, learning_rate=1.0)
        got = train_reranker(results, golds, mentions, PairFeaturizer(events), config)
        monkeypatch.setattr(rerank, "_reranker_sgd_step", sgd_step_oracle)
        want = train_reranker(results, golds, mentions, PairFeaturizer(events), config)
        assert_params_close(got, want)


def params_bytes(params: RerankerParams) -> tuple[bytes, ...]:
    return (params.V.tobytes(), params.c.tobytes(), params.w.tobytes(),
            np.float64(params.b).tobytes())


class TestWorkspaceStep:
    """The workspace step against the design-matrix step it replaced; a
    float64 V runs every product in float64, as the step did before V was
    float32."""

    @pytest.mark.parametrize("hidden", [8, DEFAULT_HIDDEN])
    def test_bit_equal_over_steps_sharing_one_workspace(self, hidden):
        self.check_steps(hidden, np.float32)

    @pytest.mark.parametrize("hidden", [8, DEFAULT_HIDDEN])
    def test_float64_V_bit_equal_over_steps(self, hidden, float64_V):
        self.check_steps(hidden, np.float64)

    @staticmethod
    def check_steps(hidden: int, dtype) -> None:
        sizes = [1, 4, 16, 37, 37, 5]  # the last batch is a short final batch
        examples = sgd_batch(seed=hidden, size=sum(sizes))
        params = steep_params(hidden, hidden)
        assert params.V.dtype == dtype
        want = copy_params(params)
        workspace = workspace_for(examples, params, batch_size=max(sizes))
        buffers = (workspace.buffer, workspace.V_rows, workspace.grad)
        assert {buffer.dtype for buffer in buffers} == {np.dtype(dtype)}
        start = 0
        for size in sizes:
            batch = examples[start : start + size]
            start += size
            got_logits = _reranker_sgd_step(params, batch, 0.7, workspace)
            want_logits = design_matrix_step_oracle(want, batch, 0.7)
            assert got_logits.tobytes() == want_logits.tobytes()
            assert params_bytes(params) == params_bytes(want)
        assert not workspace.mark.any()
        # sized in V's dtype from the start, the buffers never reallocate
        after = (workspace.buffer, workspace.V_rows, workspace.grad)
        assert all(a is b for a, b in zip(buffers, after))

    def test_full_training_bit_equal_to_design_matrix_step(self, monkeypatch):
        self.check_training(monkeypatch, np.float32)

    def test_float64_V_full_training_bit_equal(self, monkeypatch, float64_V):
        self.check_training(monkeypatch, np.float64)

    @staticmethod
    def check_training(monkeypatch, dtype) -> None:
        events, mentions, golds, results = training_fixture()
        config = RerankConfig(k=2, epochs=3, batch_size=5, learning_rate=1.0)
        got = train_reranker(results, golds, mentions, PairFeaturizer(events), config)
        assert got.V.dtype == dtype
        assert got.c.dtype == got.w.dtype == np.float64
        monkeypatch.setattr(
            rerank, "_reranker_sgd_step",
            lambda params, batch, lr, workspace: design_matrix_step_oracle(params, batch, lr),
        )
        want = train_reranker(results, golds, mentions, PairFeaturizer(events), config)
        assert params_bytes(got) == params_bytes(want)

    def test_warm_step_allocates_less_than_one_gather(self):
        batch = sgd_batch(seed=3, size=16)
        params = steep_params(3, DEFAULT_HIDDEN)
        workspace = workspace_for(batch, params)
        _reranker_sgd_step(params, batch, 0.1, workspace)  # warm
        rows = np.unique(np.concatenate([fv.indices for fv, _ in batch]))
        gather_bytes = params.V[rows].nbytes
        tracemalloc.start()
        try:
            _reranker_sgd_step(params, batch, 0.1, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gather_bytes, (peak, gather_bytes)

    @pytest.mark.parametrize(
        "indices, F",
        [([5, 3], PAIR_DIM), ([3, 3], PAIR_DIM), ([3, 5], PAIR_DIM - 1)],
        ids=["descending", "repeated", "wrong-dimension"],
    )
    def test_example_rejected(self, indices, F):
        good = FeatureVector(np.array([1, 2]), np.array([0.6, 0.8]), PAIR_DIM)
        bad = FeatureVector(np.array(indices), np.array([0.6, 0.8]), F)
        with pytest.raises(DimensionMismatch):
            SGDWorkspace([good, bad], init_reranker(PAIR_DIM, hidden=2), batch_size=1)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=6))
    @example([[5, 9], [], [1, 2], [], [0]])  # steps down only between examples
    @example([[], [4, 4]])
    @example([[7], [], [3, 2], []])
    @example([[2, 3]] * 300 + [[]])  # steps down into each example, past 256
    @example([[1]] * 256 + [[], [4, 4]])
    def test_one_pass_order_check_matches_per_example_check(self, index_lists):
        """The check over all examples' indices at once rejects exactly
        the sets with an example that is not strictly ascending."""
        fvs = [
            FeatureVector(np.array(ids, dtype=ID_DTYPE), np.ones(len(ids), V_DTYPE), PAIR_DIM)
            for ids in index_lists
        ]
        params = init_reranker(PAIR_DIM, hidden=2)
        if all(np.all(np.diff(ids) > 0) for ids in index_lists):
            SGDWorkspace(fvs, params, batch_size=2)
        else:
            with pytest.raises(DimensionMismatch):
                SGDWorkspace(fvs, params, batch_size=2)


class TestRerankerDivergence:
    def test_diverging_training_raises_without_warnings(self):
        events, mentions, golds, results = training_fixture()
        config = RerankConfig(k=2, epochs=2, learning_rate=1e308, batch_size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDiverged) as err:
                train_reranker(results, golds, mentions, PairFeaturizer(events), config)
        assert err.value.loss == "reranker"
        assert 0 <= err.value.epoch < config.epochs


def calibration_corpus(seed: int):
    """Retrieval lists of 3 candidates with one- or two-event gold sets."""
    events, mentions, _, _ = training_fixture()
    ids = [event.id for event in events]
    rng = np.random.default_rng(seed)
    results, golds = [], {}
    for mention_id in mentions:
        picked = list(rng.choice(ids, size=3, replace=False))
        results.append(RetrievalResult(mention_id, [(e, 1.0) for e in picked]))
        golds[mention_id] = tuple(picked[: int(rng.integers(1, 3))])
    return events, mentions, golds, results


class TestScoreOnceCalibration:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_threshold_as_rescoring_loop(self, seed):
        events, mentions, golds, results = calibration_corpus(seed)
        featurizer = PairFeaturizer(events)
        params = init_reranker(PAIR_DIM, hidden=4, seed=seed)
        params.V *= 40.0
        params.w = np.random.default_rng(seed).normal(size=4)
        rng = np.random.default_rng(100 + seed)
        grid = tuple(float(g) for g in rng.uniform(0.01, 0.99, size=5))
        # the default grid adds products that tie across grid values
        for candidate_grid in (grid, DEFAULT_GRID, grid + DEFAULT_GRID):
            for k in (None, 2):
                got = select_threshold(
                    params, featurizer, results, golds, mentions, candidate_grid, k
                )
                want = select_threshold_oracle(
                    params, featurizer, results, golds, mentions, candidate_grid, k
                )
                assert got == want

    def test_constant_scores_tie_everywhere(self):
        events, mentions, golds, results = calibration_corpus(0)
        featurizer = PairFeaturizer(events)
        params = RerankerParams(
            V=np.zeros((PAIR_DIM, 1)), c=np.zeros(1), w=np.zeros(1), b=0.0
        )
        got = select_threshold(params, featurizer, results, golds, mentions)
        want = select_threshold_oracle(
            params, featurizer, results, golds, mentions, DEFAULT_GRID
        )
        assert got == want == min(DEFAULT_GRID)

    @pytest.mark.parametrize("grid", [(0.5,), DEFAULT_GRID, tuple(np.linspace(0.05, 0.95, 19))])
    @pytest.mark.parametrize("k", [None, 2])
    def test_each_pair_scored_once(self, grid, k, monkeypatch):
        events, mentions, golds, results = calibration_corpus(1)
        calls = []
        original = rerank.score_pair

        def counting(params, fv):
            calls.append(fv)
            return original(params, fv)

        monkeypatch.setattr(rerank, "score_pair", counting)
        select_threshold(
            init_reranker(PAIR_DIM, hidden=4, seed=0),
            PairFeaturizer(events),
            results,
            golds,
            mentions,
            grid,
            k,
        )
        assert len(calls) == sum(len(r.event_ids[:k]) for r in results)


class TestKeptPairs:
    """A featurizer that keeps pairs builds each pair vector once across
    training and calibration, and changes no bit of either."""

    @pytest.mark.parametrize("seed", range(4))
    def test_one_build_per_pair_and_bit_equal_results(self, seed, monkeypatch):
        events, mentions, golds, results = calibration_corpus(seed)
        config = RerankConfig(k=3, epochs=2, batch_size=4, seed=seed)
        builds = []
        original = rerank._pair_run
        # the pairs each run kernel call builds
        monkeypatch.setattr(rerank, "_pair_run", lambda m, e: builds.extend(m) or original(m, e))
        runs = []
        for keep in (False, True):
            builds.clear()
            featurizer = PairFeaturizer(events, keep_pairs=keep)
            params = train_reranker(results, golds, mentions, featurizer, config)
            tau = select_threshold(params, featurizer, results, golds, mentions, DEFAULT_GRID)
            runs.append((params_bytes(params), tau, len(builds)))
        (plain, plain_tau, plain_builds), (kept, kept_tau, kept_builds) = runs
        assert kept == plain and kept_tau == plain_tau
        pairs = sum(len(set(r.event_ids)) for r in results)
        assert (plain_builds, kept_builds) == (2 * pairs, pairs)


class TestRerankRecords:
    """``rerank_records`` against the per-record chain it replaced."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), seed=st.integers(0, 3))
    def test_equal_to_per_record_chain(self, data, seed):
        events, mentions, golds, _ = training_fixture(4)
        ids = [event.id for event in events]
        # lists that repeat ids, as root-padded gold chains do
        lists = data.draw(st.lists(
            st.lists(st.sampled_from(ids), min_size=1, max_size=6), min_size=1, max_size=4
        ))
        results = [
            RetrievalResult(mention_id, [(e, 1.0 - i / 8) for i, e in enumerate(picked)])
            for mention_id, picked in zip(mentions, lists)
        ]
        k = data.draw(st.none() | st.integers(1, max(map(len, lists))))
        params = init_reranker(PAIR_DIM, hidden=4, seed=seed)
        params.V *= 40.0
        params.w = np.random.default_rng(seed).normal(size=4)
        featurizer = PairFeaturizer(events)
        # the grid, then each candidate's exact probability
        thresholds = list(DEFAULT_GRID) + [
            float(p)
            for result in results
            for p in oracles.candidate_probs(
                score_candidates(params, featurizer, mentions[result.mention_id], result, k)
            )
        ]
        want = [
            oracles.rerank_records(params, featurizer, results, golds, mentions, tau, k)
            for tau in thresholds
        ]
        got = rerank_records(params, PairFeaturizer(events), results, golds, mentions, thresholds, k)
        assert [[vars(r) for r in records] for records in got] == [
            [vars(r) for r in records] for records in want
        ]


class TestUnknownIds:
    def test_unknown_event_is_typed(self):
        events, mention, _ = overlap_corpus()
        with pytest.raises(UnknownEvent) as err:
            PairFeaturizer(events).pair_fv(mention, "QNOPE")
        assert err.value.event_id == "QNOPE"

    def test_unknown_mention_is_typed(self):
        events, mentions, golds, results = training_fixture()
        results = results + [RetrievalResult("NOPE", results[0].candidates)]
        with pytest.raises(UnknownMention):
            train_reranker(
                results, golds, mentions, PairFeaturizer(events), RerankConfig(k=2)
            )
        with pytest.raises(UnknownMention):
            select_threshold(
                init_reranker(PAIR_DIM, hidden=2),
                PairFeaturizer(events),
                results,
                golds,
                mentions,
            )


# ---------------------------------------------------------------------------
# The command line's contract for rerank-train and evaluate.


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter, so anything numpy or warnings print is seen."""
    src = str(Path(hierground.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-m", "hierground.cli", *argv],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A small synthetic pipeline up to a reranker with threshold 0.5."""
    out = tmp_path_factory.mktemp("rerank_cli")
    o = ["--output-dir", str(out), "--seed", "0"]
    corpus = [f"--{name}={out / name}.jsonl" for name in ("events", "relations", "mentions")]
    (out / "config.json").write_text(json.dumps({"rerank": {"threshold": 0.5}}), "utf-8")
    steps = [
        ["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "100"],
        ["split", *o, corpus[0], corpus[1]],
        ["train", *o, *corpus, f"--splits={out / 'splits.json'}", "--epochs", "1",
         "--F", "4096"],
        ["retrieve", *o, corpus[0], corpus[2], f"--checkpoint={out / 'checkpoint.bin'}",
         "--split", "all", "--out", "retrievals.jsonl"],
        ["rerank-train", *o, *corpus, f"--train-retrievals={out / 'retrievals.jsonl'}",
         "--rerank-epochs", "1", "--config", str(out / "config.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return out, corpus


def refill_reranker(src: Path, dst: Path, values: dict[str, float]) -> None:
    """Copy the reranker file ``src`` to ``dst`` with every element of each
    array named in ``values`` set to its value, in the array's file dtype."""
    line, body = src.read_bytes().split(b"\n", 1)
    chunks = []
    for spec in json.loads(line)["arrays"]:
        dtype = np.dtype(spec["dtype"])
        size = dtype.itemsize * int(np.prod(spec["shape"]))
        chunk, body = body[:size], body[size:]
        if spec["name"] in values:
            chunk = np.full(spec["shape"], values[spec["name"]], dtype).tobytes()
        chunks.append(chunk)
    assert body == b""
    dst.write_bytes(line + b"\n" + b"".join(chunks))


def only_record(proc: subprocess.CompletedProcess) -> dict:
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


class TestRerankCLIContract:
    def test_diverging_rerank_train_writes_no_reranker(self, cli_corpus, tmp_path):
        out, corpus = cli_corpus
        proc = run_cli(
            "rerank-train", "--output-dir", str(tmp_path), "--seed", "0", *corpus,
            f"--train-retrievals={out / 'retrievals.jsonl'}",
            "--rerank-learning-rate", "1e308", "--rerank-epochs", "2",
            "--config", str(out / "config.json"),
        )
        assert proc.returncode == 1
        record = only_record(proc)  # no RuntimeWarning either
        assert record["error"] == "TrainingDiverged"
        assert record["context"]["loss"] == "reranker"
        assert set(record["context"]) == {"loss", "epoch", "step"}
        assert not (tmp_path / "reranker.bin").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_evaluate_rejects_non_finite_reranker(self, cli_corpus, tmp_path, capsys, value):
        out, corpus = cli_corpus
        bad = tmp_path / "bad.bin"
        refill_reranker(out / "reranker.bin", bad, dict.fromkeys("Vcwb", value))
        rc = main(["evaluate", "--output-dir", str(tmp_path), "--seed", "0", *corpus,
                   f"--retrievals={out / 'retrievals.jsonl'}", "--reranker", str(bad)])
        assert rc == 1
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        record = json.loads(lines[0])
        assert record["error"] == "NonFiniteScore"
        assert record["context"] == {"checkpoint": str(bad), "what": "reranker weights"}
        assert str(bad) in record["message"]
        assert not (tmp_path / "predictions.jsonl").exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "values",
        [{"c": 1.0, "w": 1e308, "b": 1e308}, {"V": 3e38}, {"V": -3e38}],
        ids=["huge-w-b", "huge-V", "huge-negative-V"],
    )
    def test_evaluate_rejects_overflowing_scores(self, cli_corpus, tmp_path, values):
        # finite weights whose products overflow: the float64 score (c = 1
        # holds every tanh near 0.76, so w . tanh exceeds the float range on
        # this barely trained V), or the float32 pre-activation V'x
        out, corpus = cli_corpus
        bad = tmp_path / "huge.bin"
        refill_reranker(out / "reranker.bin", bad, values)
        proc = run_cli(
            "evaluate", "--output-dir", str(tmp_path), "--seed", "0", *corpus,
            f"--retrievals={out / 'retrievals.jsonl'}", "--reranker", str(bad),
        )
        assert proc.returncode == 1
        record = only_record(proc)  # no RuntimeWarning either
        assert record["error"] == "NonFiniteScore"
        assert record["context"] == {"checkpoint": str(bad), "what": "reranker scores"}
        assert not (tmp_path / "predictions.jsonl").exists()
        assert not (tmp_path / "report.json").exists()

    def test_default_evaluate_writes_empty_stderr(self, cli_corpus, tmp_path):
        out, corpus = cli_corpus
        proc = run_cli(
            "evaluate", "--output-dir", str(tmp_path), "--seed", "0", *corpus,
            f"--retrievals={out / 'retrievals.jsonl'}",
            "--reranker", str(out / "reranker.bin"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert report["config"]["ks"] == [4, 8]
