"""Hierarchy score, both losses with hand values, SGD loop, grad checks."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import complex_score, complex_score_matrix, design_matrix, featurize_event

from hierground import encoder, training
from hierground.dataset import (
    GroundingInstance,
    Mention,
    SyntheticConfig,
    expand_gold,
    generate_synthetic,
)
from hierground.encoder import (
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    Tower,
    encode,
    hashed,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from hierground.errors import (
    DimensionMismatch,
    EmptyTrainSplit,
    InvalidConfig,
    NoHierarchyEdges,
    TrainingDiverged,
)
from hierground.kb import Event, Label, RelationEdge, RelationProperty, build_forest
from hierground.training import (
    STRATEGIES,
    ComplExHead,
    EpochLog,
    HierarchyLossResult,
    LinkingLossResult,
    SparseGrad,
    TrainConfig,
    TrainLog,
    _bce,
    _project,
    _random_fv,
    build_linking_batch,
    gradient_check,
    hierarchy_loss,
    hierarchy_pairs,
    init_head,
    linking_loss,
    sigmoid,
    train,
    write_training_log,
)

LN2 = math.log(2.0)


def softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def basis_fv(index: int, F: int) -> FeatureVector:
    """Feature vector with a single unit coordinate."""
    return FeatureVector(
        indices=np.array([index], dtype=np.int64),
        values=np.array([1.0]),
        F=F,
    )


def head_from(W_re, W_im, b_re, b_im, r) -> ComplExHead:
    return ComplExHead(
        W_re=np.array(W_re, dtype=float),
        W_im=np.array(W_im, dtype=float),
        b_re=np.array(b_re, dtype=float),
        b_im=np.array(b_im, dtype=float),
        r=np.array(r, dtype=float),
    )


class TestComplexScore:
    def test_hand_example(self):
        # d=1 with unit weights and biases (1, 2) shifts the projections
        # to Re=1, Im=2 for e_c=0 and Re=3, Im=4 for e_p=2, giving
        # 4*1 - 3*2 = -2
        head = head_from([[1.0]], [[1.0]], [1.0], [2.0], [1.0])
        e_c = np.array([0.0])
        e_p = np.array([2.0])
        assert complex_score(head, e_p, e_c) == pytest.approx(-2.0, abs=1e-12)

    def test_swapped_arguments_flip_sign(self):
        head = head_from([[1.0]], [[1.0]], [1.0], [2.0], [1.0])
        e_c = np.array([0.0])
        e_p = np.array([2.0])
        assert complex_score(head, e_c, e_p) == pytest.approx(2.0, abs=1e-12)

    def test_zero_inputs_zero_biases(self):
        head = head_from([[0.7]], [[-0.3]], [0.0], [0.0], [0.9])
        zero = np.zeros(1)
        assert complex_score(head, zero, zero) == 0.0

    def test_dimension_mismatch(self):
        head = init_head(d=3, seed=0)
        with pytest.raises(DimensionMismatch):
            complex_score(head, np.zeros(2), np.zeros(3))

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(7)
        head = init_head(d=4, seed=1)
        parents = rng.normal(size=(3, 4))
        children = rng.normal(size=(5, 4))
        S = complex_score_matrix(head, parents, children)
        for i in range(3):
            for j in range(5):
                assert S[i, j] == pytest.approx(
                    complex_score(head, parents[i], children[j]), abs=1e-12
                )

    def test_antisymmetry_over_random_draws(self):
        rng = np.random.default_rng(13)
        for trial in range(1000):
            d = int(rng.integers(1, 5))
            head = ComplExHead(
                W_re=rng.normal(size=(d, d)),
                W_im=rng.normal(size=(d, d)),
                b_re=rng.normal(size=d),
                b_im=rng.normal(size=d),
                r=rng.normal(size=d),
            )
            a = rng.normal(size=d)
            b = rng.normal(size=d)
            s_ab = complex_score(head, a, b)
            s_ba = complex_score(head, b, a)
            assert abs(s_ab + s_ba) <= 1e-9 * max(1.0, abs(s_ab))


class TestLinkingLoss:
    def test_single_pair_score_zero_is_ln2(self):
        params = EncoderParams(W_mention=np.zeros((4, 2)), W_event=np.zeros((4, 2)))
        result = linking_loss(
            params,
            [basis_fv(0, 4)],
            [frozenset({"E1"})],
            ["E1"],
            [basis_fv(1, 4)],
        )
        assert result.loss == pytest.approx(LN2, abs=1e-12)
        assert result.degenerate

    def test_separated_scores_vanish(self):
        # gold scores +20 and negatives -20 leave only saturated tails
        params = EncoderParams(
            W_mention=np.array([[1.0], [0.0], [0.0], [0.0]]),
            W_event=np.array([[0.0], [20.0], [-20.0], [0.0]]),
        )
        result = linking_loss(
            params,
            [basis_fv(0, 4)],
            [frozenset({"E1"})],
            ["E1", "E2"],
            [basis_fv(1, 4), basis_fv(2, 4)],
        )
        assert result.loss < 1e-8
        assert not result.degenerate

    def test_two_by_two_hand_value(self):
        # identity mention rows and event rows (0,-1), (1,2) give the
        # score matrix [[0, 1], [-1, 2]] with labels on the diagonal
        params = EncoderParams(
            W_mention=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
            W_event=np.array([[0.0, 0.0], [0.0, 0.0], [0.0, -1.0], [1.0, 2.0]]),
        )
        result = linking_loss(
            params,
            [basis_fv(0, 4), basis_fv(1, 4)],
            [frozenset({"E1"}), frozenset({"E2"})],
            ["E1", "E2"],
            [basis_fv(2, 4), basis_fv(3, 4)],
        )
        expected = (LN2 + softplus(1.0) + softplus(-1.0) + softplus(-2.0)) / 4.0
        assert result.loss == pytest.approx(expected, abs=1e-12)
        assert result.loss == pytest.approx(0.6116496416598409, abs=1e-12)

    def test_mean_is_over_all_cells(self):
        # appending an all-zero third event adds two ln 2 cells and the
        # denominator grows from 4 to 6
        params = EncoderParams(
            W_mention=np.array(
                [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
            ),
            W_event=np.array(
                [[0.0, 0.0], [0.0, 0.0], [0.0, -1.0], [1.0, 2.0], [0.0, 0.0]]
            ),
        )
        result = linking_loss(
            params,
            [basis_fv(0, 5), basis_fv(1, 5)],
            [frozenset({"E1"}), frozenset({"E2"})],
            ["E1", "E2", "E3"],
            [basis_fv(2, 5), basis_fv(3, 5), basis_fv(4, 5)],
        )
        four_cells = LN2 + softplus(1.0) + softplus(-1.0) + softplus(-2.0)
        assert result.loss == pytest.approx((four_cells + 2 * LN2) / 6.0, abs=1e-12)

    def test_other_mentions_gold_is_negative(self):
        # mention 0 scores +20 against its own gold and against mention
        # 1's gold; the cross cell is a negative, so it dominates the loss
        params = EncoderParams(
            W_mention=np.array([[1.0], [1.0], [0.0], [0.0]]),
            W_event=np.array([[0.0], [0.0], [20.0], [20.0]]),
        )
        result = linking_loss(
            params,
            [basis_fv(0, 4), basis_fv(1, 4)],
            [frozenset({"E1"}), frozenset({"E2"})],
            ["E1", "E2"],
            [basis_fv(2, 4), basis_fv(3, 4)],
        )
        expected = (2 * softplus(-20.0) + 2 * softplus(20.0)) / 4.0
        assert result.loss == pytest.approx(expected, rel=1e-12)

    def test_empty_batch_raises(self):
        params = EncoderParams(W_mention=np.zeros((4, 2)), W_event=np.zeros((4, 2)))
        with pytest.raises(EmptyTrainSplit):
            linking_loss(params, [], [], ["E1"], [basis_fv(0, 4)])

    def test_misaligned_lists_raise(self):
        params = EncoderParams(W_mention=np.zeros((4, 2)), W_event=np.zeros((4, 2)))
        with pytest.raises(DimensionMismatch):
            linking_loss(
                params,
                [basis_fv(0, 4)],
                [frozenset({"E1"}), frozenset({"E2"})],
                ["E1"],
                [basis_fv(1, 4)],
            )

    def test_degenerate_all_positive(self):
        params = EncoderParams(W_mention=np.zeros((4, 2)), W_event=np.zeros((4, 2)))
        result = linking_loss(
            params,
            [basis_fv(0, 4), basis_fv(1, 4)],
            [frozenset({"E1"}), frozenset({"E1"})],
            ["E1"],
            [basis_fv(2, 4)],
        )
        assert result.degenerate
        assert np.isfinite(result.loss)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            params = EncoderParams(
                W_mention=rng.normal(size=(8, 3)), W_event=rng.normal(size=(8, 3))
            )
            result = linking_loss(
                params,
                [basis_fv(int(rng.integers(8)), 8) for _ in range(3)],
                [frozenset({"E0"}), frozenset({"E1"}), frozenset({"E0", "E1"})],
                ["E0", "E1"],
                [basis_fv(int(rng.integers(8)), 8) for _ in range(2)],
            )
            assert result.loss >= 0.0

    def test_gradients_match_finite_differences(self):
        assert gradient_check("linking", F=16, d=3, seed=0) <= 1e-4


class TestHierarchyLoss:
    def test_single_pair_score_zero_is_ln2(self):
        params = EncoderParams(W_mention=np.zeros((4, 1)), W_event=np.zeros((4, 1)))
        head = head_from([[1.0]], [[1.0]], [0.0], [0.0], [1.0])
        result = hierarchy_loss(
            params, head, ["P0"], [basis_fv(0, 4)], [basis_fv(1, 4)]
        )
        assert result.loss == pytest.approx(LN2, abs=1e-12)
        assert result.degenerate

    def test_normalized_by_pairs_not_cells(self):
        # four pairs of zero scores produce sixteen ln 2 cells; dividing
        # by the pair count gives 4 ln 2, not ln 2
        params = EncoderParams(W_mention=np.zeros((8, 1)), W_event=np.zeros((8, 1)))
        head = head_from([[1.0]], [[1.0]], [0.0], [0.0], [1.0])
        result = hierarchy_loss(
            params,
            head,
            ["P0", "P0", "P1", "P1"],
            [basis_fv(i, 8) for i in range(4)],
            [basis_fv(4 + i, 8) for i in range(4)],
        )
        assert result.loss == pytest.approx(4 * LN2, abs=1e-12)

    def test_two_pairs_distinct_parents_hand_value(self):
        # Re(e) = e and Im(e) = 1 make the score c - p; parents 0, 1 and
        # children 2, -1 give the matrix [[2, -1], [1, -2]] with identity
        # labels
        params = EncoderParams(
            W_mention=np.zeros((4, 1)),
            W_event=np.array([[0.0], [1.0], [2.0], [-1.0]]),
        )
        head = head_from([[1.0]], [[0.0]], [0.0], [1.0], [1.0])
        result = hierarchy_loss(
            params,
            head,
            ["P0", "P1"],
            [basis_fv(0, 4), basis_fv(1, 4)],
            [basis_fv(2, 4), basis_fv(3, 4)],
        )
        expected = (
            softplus(-2.0) + softplus(-1.0) + softplus(1.0) + softplus(2.0)
        ) / 2.0
        assert result.loss == pytest.approx(expected, abs=1e-12)
        assert result.loss == pytest.approx(1.9401896985611949, abs=1e-12)
        assert not result.degenerate

    def test_shared_parent_makes_cross_cells_positive(self):
        # both pairs name parent P0, so each child is a positive for the
        # other pair's row as well
        params = EncoderParams(
            W_mention=np.zeros((4, 1)),
            W_event=np.array([[0.0], [0.0], [2.0], [-1.0]]),
        )
        head = head_from([[1.0]], [[0.0]], [0.0], [1.0], [1.0])
        result = hierarchy_loss(
            params,
            head,
            ["P0", "P0"],
            [basis_fv(0, 4), basis_fv(1, 4)],
            [basis_fv(2, 4), basis_fv(3, 4)],
        )
        expected = softplus(-2.0) + softplus(1.0)
        assert result.loss == pytest.approx(expected, abs=1e-12)
        assert result.degenerate

    def test_separated_scores_vanish(self):
        # a rotation head scores 2 * cross(p, c); the chosen embeddings
        # put +20 on positive cells and -20 on negatives
        params = EncoderParams(
            W_mention=np.zeros((4, 2)),
            W_event=np.array([[1.0, 0.0], [0.0, -1.0], [-10.0, 10.0], [10.0, -10.0]]),
        )
        head = head_from(
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.0, -1.0], [1.0, 0.0]],
            [0.0, 0.0],
            [0.0, 0.0],
            [1.0, 1.0],
        )
        result = hierarchy_loss(
            params,
            head,
            ["P0", "P1"],
            [basis_fv(0, 4), basis_fv(1, 4)],
            [basis_fv(2, 4), basis_fv(3, 4)],
        )
        assert result.loss < 1e-8

    def test_empty_batch_raises(self):
        params = EncoderParams(W_mention=np.zeros((4, 1)), W_event=np.zeros((4, 1)))
        head = head_from([[1.0]], [[1.0]], [0.0], [0.0], [1.0])
        with pytest.raises(NoHierarchyEdges):
            hierarchy_loss(params, head, [], [], [])

    def test_misaligned_lists_raise(self):
        params = EncoderParams(W_mention=np.zeros((4, 1)), W_event=np.zeros((4, 1)))
        head = head_from([[1.0]], [[1.0]], [0.0], [0.0], [1.0])
        with pytest.raises(DimensionMismatch):
            hierarchy_loss(params, head, ["P0"], [basis_fv(0, 4)], [])

    def test_head_gradients_cover_all_arrays(self):
        params = EncoderParams(W_mention=np.zeros((4, 2)), W_event=np.ones((4, 2)))
        head = init_head(d=2, seed=5)
        result = hierarchy_loss(
            params, head, ["P0"], [basis_fv(0, 4)], [basis_fv(1, 4)]
        )
        assert set(result.grad_head) == {"W_re", "W_im", "b_re", "b_im", "r"}
        for name, grad in result.grad_head.items():
            assert grad.shape == getattr(head, name).shape

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            params = EncoderParams(
                W_mention=rng.normal(size=(8, 3)), W_event=rng.normal(size=(8, 3))
            )
            head = ComplExHead(
                W_re=rng.normal(size=(3, 3)),
                W_im=rng.normal(size=(3, 3)),
                b_re=rng.normal(size=3),
                b_im=rng.normal(size=3),
                r=rng.normal(size=3),
            )
            result = hierarchy_loss(
                params,
                head,
                ["P0", "P1", "P0"],
                [basis_fv(int(rng.integers(8)), 8) for _ in range(3)],
                [basis_fv(int(rng.integers(8)), 8) for _ in range(3)],
            )
            assert result.loss >= 0.0

    def test_gradients_match_finite_differences(self):
        assert gradient_check("hierarchy", F=16, d=3, seed=0) <= 1e-4

    def test_mention_tower_gradient_is_structurally_zero(self):
        # gradient_check probes W_mention against an all-zero analytic
        # gradient, so a nonzero numeric derivative would fail it; assert
        # the same fact directly on the result type
        params = EncoderParams(W_mention=np.ones((4, 2)), W_event=np.ones((4, 2)))
        head = init_head(d=2, seed=3)
        result = hierarchy_loss(
            params, head, ["P0"], [basis_fv(0, 4)], [basis_fv(1, 4)]
        )
        assert not hasattr(result, "grad_mention")


class TestGradientCheck:
    def test_unknown_loss_rejected(self):
        with pytest.raises(InvalidConfig):
            gradient_check("contrastive")

    def test_small_probe_is_finite(self):
        # one mention against one event exercises the smallest batch the
        # loop can produce
        err = gradient_check("linking", F=4, d=1, n_mentions=1, seed=2)
        assert np.isfinite(err)
        assert err <= 1e-4

    def test_hierarchy_small_probe(self):
        err = gradient_check("hierarchy", F=4, d=1, n_pairs=1, seed=2)
        assert np.isfinite(err)
        assert err <= 1e-4


def tiny_kb():
    """Two small trees with multilingual labels."""
    events = [
        Event("E1", {"en": Label("flood summit", "river basin talks")}),
        Event("E2", {"en": Label("flood relief", "aid after the flood")}),
        Event(
            "E3",
            {
                "en": Label("storm season", "a season of storms"),
                "de": Label("sturmsaison", "eine saison der stuerme"),
            },
        ),
        Event("E4", {"en": Label("storm landfall", "the storm reaches land")}),
        Event("E5", {"en": Label("storm cleanup", "debris removal work")}),
    ]
    edges = [
        RelationEdge("E1", RelationProperty.HAS_PART, "E2"),
        RelationEdge("E4", RelationProperty.PART_OF, "E3"),
        RelationEdge("E5", RelationProperty.PART_OF, "E3"),
    ]
    forest = build_forest(events, edges)
    return events, edges, forest


def mention_of(mid: str, anchor: str, text: str, language: str = "en") -> Mention:
    return Mention(
        id=mid,
        language=language,
        context=text,
        span_start=0,
        span_end=min(5, len(text)),
        anchor_event=anchor,
    )


class TestBuildLinkingBatch:
    def test_pool_deduplicates_by_event_id(self):
        events, edges, forest = tiny_kb()
        featurizer = TextFeaturizer(events, hashed(64), "multilingual", 200, 128)
        mentions = [
            mention_of("M1", "E2", "relief crews arrive"),
            mention_of("M2", "E2", "more relief crews"),
            mention_of("M3", "E1", "summit convenes"),
        ]
        instances = expand_gold(forest, mentions)
        mention_fvs, gold_sets, pool_ids, pool_fvs = build_linking_batch(
            instances, featurizer
        )
        assert pool_ids == ["E2", "E1"]
        assert len(pool_fvs) == 2
        assert gold_sets == [
            frozenset({"E2", "E1"}),
            frozenset({"E2", "E1"}),
            frozenset({"E1"}),
        ]

    def test_first_contributor_language_wins(self):
        events, edges, forest = tiny_kb()
        featurizer = TextFeaturizer(events, hashed(64), "multilingual", 200, 128)
        mentions = [
            mention_of("M1", "E3", "sturm naht bald", language="de"),
            mention_of("M2", "E3", "storm approaching now"),
        ]
        instances = expand_gold(forest, mentions)
        _, _, pool_ids, pool_fvs = build_linking_batch(instances, featurizer)
        assert pool_ids == ["E3"]
        by_id = {e.id: e for e in events}
        want = featurize_event(by_id["E3"], "de", max_cand_chars=128, F=64)
        assert np.array_equal(pool_fvs[0].indices, want.indices)
        assert np.allclose(pool_fvs[0].values, want.values)


    @pytest.mark.parametrize(
        "mode, sizes", [("multilingual", [3, 2, 3]), ("crosslingual", [3, 5])]
    )
    def test_misses_featurized_in_one_call_per_language(self, mode, sizes):
        events, edges, forest = tiny_kb()
        calls = []

        def counting(texts):
            calls.append(list(texts))
            return hashed(64)(texts)

        featurizer = TextFeaturizer(events, counting, mode, 200, 128)
        mentions = [
            mention_of("M1", "E4", "sturm erreicht land", language="de"),
            mention_of("M2", "E2", "relief crews arrive"),
            mention_of("M3", "E5", "cleanup begins"),
        ]
        instances = expand_gold(forest, mentions)
        first = build_linking_batch(instances, featurizer)
        # the mentions, then the pool's misses: E4 and E3 in the first
        # mention's German, E2, E1 and E5 in English
        assert [len(texts) for texts in calls] == sizes
        again = build_linking_batch(instances, featurizer)
        assert len(calls) == len(sizes)
        assert first[2] == again[2] == ["E4", "E3", "E2", "E1", "E5"]
        assert all(a is b for a, b in zip(first[3], again[3]))


class TestHierarchyPairs:
    def test_pairs_sorted_by_child(self):
        events, edges, forest = tiny_kb()
        assert hierarchy_pairs(forest) == [
            ("E1", "E2"),
            ("E3", "E4"),
            ("E3", "E5"),
        ]

    def test_restriction_drops_crossing_edges(self):
        events, edges, forest = tiny_kb()
        assert hierarchy_pairs(forest, {"E3", "E4"}) == [("E3", "E4")]
        assert hierarchy_pairs(forest, {"E2", "E4"}) == []


def small_corpus(seed: int = 0):
    config = SyntheticConfig(
        n_trees=4,
        height=2,
        branching=2,
        mentions_per_event=2,
        vocab=120,
        seed=seed,
    )
    events, edges, mentions = generate_synthetic(config)
    forest = build_forest(events, edges)
    instances = expand_gold(forest, mentions)
    return events, forest, instances


def train_small(config: TrainConfig, instances=None):
    events, forest, all_instances = small_corpus()
    return train(
        instances if instances is not None else all_instances,
        events,
        forest,
        config,
        F=512,
        d=8,
    )


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.strategy == "BASELINE"
        assert config.epochs == 10

    def test_unknown_strategy(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(strategy="JOINT")

    def test_nonpositive_rate(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=0.0)

    def test_negative_weight(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(hier_loss_weight=-0.1)

    @pytest.mark.parametrize("setting", ["learning_rate", "hier_loss_weight"])
    def test_nan_rejected(self, setting):
        with pytest.raises(InvalidConfig, match=setting):
            TrainConfig(strategy="HP", **{setting: float("nan")})

    def test_pretrain_beyond_epochs(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=2, pretrain_epochs=3)


class TestTrain:
    def test_baseline_leaves_head_at_init(self):
        events, forest, instances = small_corpus()
        config = TrainConfig(strategy="BASELINE", epochs=1, seed=0)
        params, head, log = train(
            instances[:1], events, forest, config, F=512, d=8
        )
        init = init_head(8, seed=0)
        for name, array in head.arrays().items():
            assert np.array_equal(array, init.arrays()[name])

    def test_hp_pretraining_freezes_mention_tower(self):
        config = TrainConfig(
            strategy="HP", epochs=1, pretrain_epochs=1, seed=0
        )
        params, head, log = train_small(config)
        params = params.densify()
        init = init_encoder(512, 8, seed=0)
        assert np.array_equal(params.W_mention, init.W_mention)
        assert not np.array_equal(params.W_event, init.W_event)

    def test_pretrain_epochs_log_both_losses(self):
        config = TrainConfig(
            strategy="HP", epochs=2, pretrain_epochs=1, seed=0
        )
        params, head, log = train_small(config)
        assert log.epochs[0].hierarchy_loss is not None
        assert log.epochs[0].linking_loss > 0.0
        assert log.epochs[1].hierarchy_loss is None

    def test_hjl_reduces_combined_loss(self):
        config = TrainConfig(strategy="HJL", epochs=6, seed=0)
        params, head, log = train_small(config)
        w = config.hier_loss_weight
        first = log.epochs[0].linking_loss + w * log.epochs[0].hierarchy_loss
        last = log.epochs[-1].linking_loss + w * log.epochs[-1].hierarchy_loss
        assert last < first

    def test_deterministic_across_runs(self):
        config = TrainConfig(strategy="HP_HJL", epochs=2, seed=4)
        params_a, head_a, log_a = train_small(config)
        params_b, head_b, log_b = train_small(config)
        params_a, params_b = params_a.densify(), params_b.densify()
        assert np.array_equal(params_a.W_mention, params_b.W_mention)
        assert np.array_equal(params_a.W_event, params_b.W_event)
        for name in head_a.arrays():
            assert np.array_equal(head_a.arrays()[name], head_b.arrays()[name])
        assert log_a.to_records() == log_b.to_records()

    def test_hp_without_pretraining_equals_baseline(self):
        hp = train_small(TrainConfig(strategy="HP", pretrain_epochs=0, epochs=3))
        base = train_small(TrainConfig(strategy="BASELINE", epochs=3))
        hp_params, base_params = hp[0].densify(), base[0].densify()
        assert np.array_equal(hp_params.W_mention, base_params.W_mention)
        assert np.array_equal(hp_params.W_event, base_params.W_event)

    def test_hjl_zero_weight_matches_baseline_losses(self):
        hjl = train_small(
            TrainConfig(strategy="HJL", hier_loss_weight=0.0, epochs=3)
        )
        base = train_small(TrainConfig(strategy="BASELINE", epochs=3))
        for e_h, e_b in zip(hjl[2].epochs, base[2].epochs):
            for s_h, s_b in zip(e_h.step_linking_losses, e_b.step_linking_losses):
                assert abs(s_h - s_b) <= 1e-12

    @pytest.mark.parametrize("F, d", [(0, 8), (512, 0)])
    def test_empty_towers_rejected(self, F, d, recwarn):
        # F is checked before any text is hashed into F buckets
        events, forest, instances = small_corpus()
        with pytest.raises(InvalidConfig, match="positive"):
            train(instances, events, forest, TrainConfig(), F=F, d=d)
        assert not recwarn.list

    def test_empty_split_raises(self):
        events, forest, instances = small_corpus()
        with pytest.raises(EmptyTrainSplit):
            train([], events, forest, TrainConfig(), F=512, d=8)

    def test_hierarchy_strategy_needs_edges(self):
        events = [Event("E1", {"en": Label("lone event")})]
        forest = build_forest(events, [])
        mention = mention_of("M1", "E1", "event happens")
        instances = expand_gold(forest, [mention])
        with pytest.raises(NoHierarchyEdges):
            train(
                instances,
                events,
                forest,
                TrainConfig(strategy="HJL"),
                F=64,
                d=4,
            )

    def test_restricted_pairs_respect_split(self):
        events, forest, instances = small_corpus()
        roots = set(forest.tree_roots())
        with pytest.raises(NoHierarchyEdges):
            train(
                instances,
                events,
                forest,
                TrainConfig(strategy="HP"),
                F=512,
                d=8,
                hier_events=roots,
            )

    def test_smaller_batches_mean_more_steps(self):
        events, forest, instances = small_corpus()
        coarse = train(
            instances, events, forest, TrainConfig(epochs=1, batch_size=64),
            F=512, d=8,
        )
        fine = train(
            instances, events, forest, TrainConfig(epochs=1, batch_size=8),
            F=512, d=8,
        )
        assert len(fine[2].epochs[0].step_linking_losses) > len(
            coarse[2].epochs[0].step_linking_losses
        )

    def test_linking_loss_descends(self):
        config = TrainConfig(strategy="BASELINE", epochs=8, seed=0)
        params, head, log = train_small(config)
        assert log.epochs[-1].linking_loss < log.epochs[0].linking_loss


# ---------------------------------------------------------------------------
# Scalar oracles: both losses as they were before the design-matrix kernel,
# encoding one FeatureVector at a time and scattering per-input outer
# products.  The kernel sums in another order, so losses and gradient
# values are compared to 1e-12 and gradient rows exactly.


def scatter_rows_oracle(fvs, row_grads, d):
    indices = np.concatenate([fv.indices for fv in fvs])
    if indices.size == 0:
        return SparseGrad(rows=np.empty(0, dtype=np.int64), grad=np.empty((0, d)))
    contribs = np.concatenate(
        [np.outer(fv.values, row_grads[i]) for i, fv in enumerate(fvs)]
    )
    rows, inverse = np.unique(indices, return_inverse=True)
    grad = np.zeros((rows.size, d))
    np.add.at(grad, inverse, contribs)
    return SparseGrad(rows=rows, grad=grad)


def linking_loss_oracle(
    params, mention_fvs, gold_sets, pool_ids, pool_fvs, workspace=None, backward=True
):
    M = np.stack([encode(params, fv, "mention") for fv in mention_fvs])
    E = np.stack([encode(params, fv, "event") for fv in pool_fvs])
    S = M @ E.T
    Y = np.array(
        [[1.0 if eid in gold else 0.0 for eid in pool_ids] for gold in gold_sets]
    )
    n_cells = S.size
    loss = float(_bce(S, Y).sum() / n_cells)
    G = (sigmoid(S) - Y) / n_cells
    return LinkingLossResult(
        loss,
        scatter_rows_oracle(mention_fvs, G @ E, params.d),
        scatter_rows_oracle(pool_fvs, G.T @ M, params.d),
        bool(Y.min() == Y.max()),
    )


def hierarchy_loss_oracle(params, head, parent_ids, parent_fvs, child_fvs, workspace=None):
    n = len(parent_fvs)
    E_p = np.stack([encode(params, fv, "event") for fv in parent_fvs])
    E_c = np.stack([encode(params, fv, "event") for fv in child_fvs])
    re_p, im_p = _project(head, E_p)
    re_c, im_c = _project(head, E_c)
    r = head.r
    S = (im_p * r) @ re_c.T - (re_p * r) @ im_c.T
    pid = np.array(parent_ids)
    Y = (pid[None, :] == pid[:, None]).astype(float)
    loss = float(_bce(S, Y).sum() / n)
    G = (sigmoid(S) - Y) / n
    d_im_p = G @ (re_c * r)
    d_re_p = -(G @ (im_c * r))
    d_re_c = G.T @ (im_p * r)
    d_im_c = -(G.T @ (re_p * r))
    d_r = ((G @ re_c) * im_p).sum(axis=0) - ((G @ im_c) * re_p).sum(axis=0)
    grad_head = {
        "W_re": d_re_p.T @ E_p + d_re_c.T @ E_c,
        "W_im": d_im_p.T @ E_p + d_im_c.T @ E_c,
        "b_re": d_re_p.sum(axis=0) + d_re_c.sum(axis=0),
        "b_im": d_im_p.sum(axis=0) + d_im_c.sum(axis=0),
        "r": d_r,
    }
    dE_p = d_re_p @ head.W_re + d_im_p @ head.W_im
    dE_c = d_re_c @ head.W_re + d_im_c @ head.W_im
    grad_event = scatter_rows_oracle(
        list(parent_fvs) + list(child_fvs), np.concatenate([dE_p, dE_c]), params.d
    )
    return HierarchyLossResult(loss, grad_event, grad_head, bool(Y.min() == Y.max()))


def assert_grads_match(new: SparseGrad, old: SparseGrad) -> None:
    assert np.array_equal(new.rows, old.rows)
    assert new.grad.shape == old.grad.shape
    np.testing.assert_allclose(new.grad, old.grad, rtol=0, atol=1e-12)


@st.composite
def fv_batches(draw, n_slots: int):
    """Towers, a head and ``n_slots`` feature vectors drawn from a few bases.

    Slots repeat a base object or hold an equal but distinct copy of it;
    bases may be empty, and sometimes every base is.
    """
    F = draw(st.integers(4, 40))
    d = draw(st.integers(1, 4))
    all_empty = draw(st.booleans()) and draw(st.booleans())
    bases = []
    for _ in range(draw(st.integers(1, 5))):
        indices = draw(
            st.lists(st.integers(0, F - 1), unique=True, max_size=0 if all_empty else 8)
        )
        values = np.array(
            draw(st.lists(st.floats(0.1, 1.0), min_size=len(indices), max_size=len(indices)))
        )
        if values.size:
            values /= np.linalg.norm(values)
        bases.append(FeatureVector(np.array(indices, dtype=np.int64), values, F))
    fvs = []
    for _ in range(n_slots):
        base = bases[draw(st.integers(0, len(bases) - 1))]
        if draw(st.booleans()):
            base = FeatureVector(base.indices.copy(), base.values.copy(), F)
        fvs.append(base)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = EncoderParams(
        W_mention=rng.uniform(-1.0, 1.0, size=(F, d)),
        W_event=rng.uniform(-1.0, 1.0, size=(F, d)),
    )
    head = ComplExHead(*(rng.uniform(-1.0, 1.0, size=s) for s in [(d, d)] * 2 + [d] * 3))
    return params, head, fvs


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_linking_loss(self, data):
        n_mentions = data.draw(st.integers(1, 6))
        n_pool = data.draw(st.integers(1, 6))
        params, _, fvs = data.draw(fv_batches(n_mentions + n_pool))
        pool_ids = [f"E{i}" for i in range(n_pool)]
        gold_sets = [
            frozenset(data.draw(st.lists(st.sampled_from(pool_ids), max_size=3)))
            for _ in range(n_mentions)
        ]
        args = (params, fvs[:n_mentions], gold_sets, pool_ids, fvs[n_mentions:])
        new, old = linking_loss(*args), linking_loss_oracle(*args)
        assert new.loss == pytest.approx(old.loss, rel=0, abs=1e-12)
        assert new.degenerate == old.degenerate
        assert_grads_match(new.grad_mention, old.grad_mention)
        assert_grads_match(new.grad_event, old.grad_event)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_hierarchy_loss(self, data):
        n = data.draw(st.integers(1, 8))
        params, head, fvs = data.draw(fv_batches(2 * n))
        parent_ids = data.draw(
            st.lists(st.sampled_from(["P0", "P1", "P2"]), min_size=n, max_size=n)
        )
        args = (params, head, parent_ids, fvs[:n], fvs[n:])
        new, old = hierarchy_loss(*args), hierarchy_loss_oracle(*args)
        assert new.loss == pytest.approx(old.loss, rel=0, abs=1e-12)
        assert new.degenerate == old.degenerate
        assert_grads_match(new.grad_event, old.grad_event)
        for name, grad in old.grad_head.items():
            np.testing.assert_allclose(new.grad_head[name], grad, rtol=0, atol=1e-12)

    def test_hierarchy_repeated_pair_objects(self):
        # the training loop hands the same cached object to every slot
        # that draws its pair
        F, d = 32, 3
        rng = np.random.default_rng(5)
        params = EncoderParams(
            W_mention=rng.uniform(-1, 1, size=(F, d)),
            W_event=rng.uniform(-1, 1, size=(F, d)),
        )
        head = ComplExHead(*(rng.uniform(-1, 1, size=s) for s in [(d, d)] * 2 + [d] * 3))
        parents = [_random_fv(rng, F, 4) for _ in range(2)]
        children = [_random_fv(rng, F, 4) for _ in range(3)]
        picks = [0, 1, 1, 2, 0, 2, 2, 1]
        args = (
            params,
            head,
            [f"P{min(p, 1)}" for p in picks],
            [parents[min(p, 1)] for p in picks],
            [children[p] for p in picks],
        )
        new, old = hierarchy_loss(*args), hierarchy_loss_oracle(*args)
        assert new.loss == pytest.approx(old.loss, rel=0, abs=1e-12)
        assert_grads_match(new.grad_event, old.grad_event)

    @pytest.mark.parametrize("strategy", ["BASELINE", "HP", "HJL", "HP_HJL"])
    def test_train_matches_oracle_module(self, strategy, monkeypatch):
        config = TrainConfig(strategy=strategy, epochs=3, pretrain_epochs=1, seed=2)
        params, head, log = train_small(config)
        monkeypatch.setattr(training, "linking_loss", linking_loss_oracle)
        monkeypatch.setattr(training, "hierarchy_loss", hierarchy_loss_oracle)
        o_params, o_head, o_log = train_small(config)
        params, o_params = params.densify(), o_params.densify()
        np.testing.assert_allclose(params.W_mention, o_params.W_mention, rtol=0, atol=1e-12)
        np.testing.assert_allclose(params.W_event, o_params.W_event, rtol=0, atol=1e-12)
        for name, array in o_head.arrays().items():
            np.testing.assert_allclose(head.arrays()[name], array, rtol=0, atol=1e-12)
        for new, old in zip(log.epochs, o_log.epochs):
            np.testing.assert_allclose(
                new.step_linking_losses, old.step_linking_losses, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                new.step_hierarchy_losses, old.step_hierarchy_losses, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("n_instances", [None, 3])
    @pytest.mark.parametrize("mode", ["multilingual", "crosslingual"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_row_sparse_towers_match_full_towers(
        self, strategy, mode, n_instances, tmp_path, monkeypatch
    ):
        # the full-tower oracle is the same loop on both towers drawn whole;
        # with 3 mentions most hierarchy-pair events are no mention's gold
        events, forest, instances = small_corpus()
        instances = instances[:n_instances]
        config = TrainConfig(strategy=strategy, epochs=3, pretrain_epochs=1, seed=3)
        F = 2**14
        for name in ("rows", "full"):
            if name == "full":
                monkeypatch.setattr(
                    training, "init_rows", lambda F, d, seed, *rows: init_encoder(F, d, seed)
                )
            params, head, log = train(instances, events, forest, config, mode, F=F, d=8)
            if name == "rows":
                assert isinstance(params.W_mention, Tower)
                assert 0 < params.W_mention.rows.size < F and 0 < params.W_event.rows.size < F
            heads = {f"complex.{key}": array for key, array in head.arrays().items()}
            save_checkpoint(tmp_path / f"{name}.bin", params, heads)
            write_training_log(log, tmp_path / f"{name}.jsonl")
        # the row-sparse file stores the held rows, the full one every row;
        # both load as the same towers and heads, bit for bit
        (rows, rows_heads), (full, full_heads) = (
            load_checkpoint(tmp_path / f"{name}.bin") for name in ("rows", "full")
        )
        assert rows.W_mention.tobytes() == full.W_mention.tobytes()
        assert rows.W_event.tobytes() == full.W_event.tobytes()
        assert rows_heads.keys() == full_heads.keys()
        assert all(rows_heads[k].tobytes() == full_heads[k].tobytes() for k in rows_heads)
        assert (tmp_path / "rows.bin").stat().st_size < (tmp_path / "full.bin").stat().st_size
        assert (tmp_path / "rows.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_full_training_bit_equal_to_design_matrix_step(self, strategy, tmp_path, monkeypatch):
        # the step this kernel replaced: a sorted design matrix and the
        # linking backward pass in pretraining epochs too
        def sorted_design(self, W, fvs):
            rows, X = design_matrix(fvs, W.shape[0])
            return rows, W.slot[rows] if isinstance(W, Tower) else rows, X

        def full_backward(*args, backward=True, **kwargs):
            return linking_loss(*args, **kwargs)

        config = TrainConfig(strategy=strategy, epochs=4, pretrain_epochs=2, seed=5)
        for name in ("kernel", "oracle"):
            if name == "oracle":
                monkeypatch.setattr(encoder.DesignWorkspace, "design", sorted_design)
                monkeypatch.setattr(training, "linking_loss", full_backward)
            params, head, log = train_small(config)
            heads = {f"complex.{key}": array for key, array in head.arrays().items()}
            save_checkpoint(tmp_path / f"{name}.bin", params, heads)
            write_training_log(log, tmp_path / f"{name}.jsonl")
        for suffix in ("bin", "jsonl"):
            assert (tmp_path / f"kernel.{suffix}").read_bytes() == (
                tmp_path / f"oracle.{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("loss", ["linking", "hierarchy"])
    def test_feature_space_mismatch(self, loss):
        # an empty vector from the wrong space is rejected too
        params = EncoderParams(W_mention=np.zeros((12, 2)), W_event=np.zeros((12, 2)))
        good = basis_fv(0, 12)
        bad = FeatureVector(np.empty(0, dtype=np.int64), np.empty(0), F=16)
        with pytest.raises(DimensionMismatch):
            if loss == "linking":
                linking_loss(params, [good], [frozenset({"E0"})], ["E0", "E1"], [good, bad])
            else:
                head = init_head(2, seed=0)
                hierarchy_loss(params, head, ["P0", "P0"], [good, good], [good, bad])


@functools.cache
def trained_checkpoint(directory: str):
    """A row-sparse ``train`` run's towers, its head's r, and the file they are saved to."""
    events, forest, instances = small_corpus()
    config = TrainConfig(strategy="HP_HJL", epochs=2, pretrain_epochs=1, seed=11)
    params, head, _ = train(instances, events, forest, config, F=2**12, d=6)
    path = Path(directory) / "c.bin"
    save_checkpoint(path, params, {"complex.r": head.r})
    return params, head.r, path


class TestTrainSaveLoad:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_row_subset_load_equals_the_trained_towers(self, data, tmp_path_factory):
        params, r, path = trained_checkpoint(str(tmp_path_factory.getbasetemp()))
        dense, F = params.densify(), params.F
        rows = {
            tower: np.array(sorted(data.draw(st.sets(st.integers(0, F - 1), max_size=300))),
                            dtype=np.int64)
            for tower in ("mention", "event")
        }
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "BLOCK_ROWS", data.draw(st.integers(1, 64)))
            part, heads = load_checkpoint(path, rows)
        for tower, held, whole, name in (
            (part.W_mention, params.W_mention, dense.W_mention, "mention"),
            (part.W_event, params.W_event, dense.W_event, "event"),
        ):
            # the held rows as trained, every other row as initialized
            assert tower[rows[name]].tobytes() == whole[rows[name]].tobytes()
            assert tower[held.rows].tobytes() == held.values.tobytes()
        assert heads["complex.r"].tobytes() == r.tobytes()


class TestTrainingLogCounters:
    def test_degenerate_batches_are_counted(self):
        # one mention whose pool is exactly its gold chain labels every
        # linking cell positive; a single hierarchy edge labels every
        # hierarchy cell positive
        events, forest, instances = small_corpus()
        inst = next(i for i in instances if i.mention.anchor_event in forest.parent)
        child = inst.mention.anchor_event
        edge = {child, forest.parent[child]}
        config = TrainConfig(strategy="HP_HJL", epochs=3, pretrain_epochs=1, seed=0)
        _, _, log = train([inst], events, forest, config, F=512, d=8, hier_events=edge)
        records = log.to_records()
        assert [r["degenerate_linking_batches"] for r in records] == [1, 1, 1]
        assert [r["degenerate_hierarchy_batches"] for r in records] == [1, 1, 1]

    def test_no_hierarchy_step_logs_null(self):
        _, _, log = train_small(TrainConfig(strategy="HP", epochs=2, pretrain_epochs=1))
        first, second = log.to_records()
        assert isinstance(first["degenerate_hierarchy_batches"], int)
        assert second["degenerate_hierarchy_batches"] is None

    @pytest.mark.parametrize(
        "strategy, weight, loss",
        # at unit weight the hierarchy steps blow up the head and the event
        # tower together, and the hierarchy score, a product of both,
        # overflows before the linking score does
        [("BASELINE", 0.01, "linking"), ("HP", 1.0, "hierarchy")],
    )
    def test_diverging_run_raises(self, strategy, weight, loss):
        config = TrainConfig(
            strategy=strategy, learning_rate=1e200, hier_loss_weight=weight, epochs=2
        )
        with pytest.raises(TrainingDiverged) as info:
            train_small(config)
        assert (info.value.loss, info.value.epoch, info.value.step) == (loss, 0, 1)

    def test_log_rejects_non_finite_values(self, tmp_path):
        log = TrainLog([EpochLog(epoch=0, linking_loss=float("nan"), hierarchy_loss=None)])
        with pytest.raises(ValueError):
            write_training_log(log, tmp_path / "training_log.jsonl")
