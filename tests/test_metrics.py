"""Recall family, set metrics with hand values, parent-ranking recall."""

import json

import numpy as np
import pytest

from hierground.errors import EmptyRecords
from hierground.kb import Event, Label, RelationEdge, RelationProperty, build_forest, write_json
from hierground.metrics import (
    MIN_STRICT_K,
    NULL_EVENT,
    EvalRecord,
    recall_at_k,
    recall_at_k_fraction,
    recall_at_min,
    relext_recall_at_ks,
    set_metrics,
    write_recall_tsv,
)


def record(
    mid: str,
    gold: tuple[str, ...],
    ranking: list[str],
    predicted: frozenset[str] | None = None,
    rerank_order: list[str] | None = None,
) -> EvalRecord:
    return EvalRecord(
        mention_id=mid,
        gold=gold,
        ranking=ranking,
        predicted=predicted,
        rerank_order=rerank_order,
    )


class TestRecallAtK:
    def test_partial_containment_counts_zero(self):
        records = [record("M1", ("A", "B"), ["A", "C", "D", "E"])]
        assert recall_at_k(records, 4) == 0.0

    def test_atomic_only_needs_just_the_anchor(self):
        records = [record("M1", ("A", "B"), ["A", "C", "D", "E"])]
        assert recall_at_k(records, 4, atomic_only=True) == 1.0

    def test_full_containment(self):
        records = [
            record("M1", ("A", "B"), ["B", "A", "C", "D"]),
            record("M2", ("C",), ["C", "A", "B", "D"]),
        ]
        assert recall_at_k(records, 4) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(5)
        pool = [f"E{i}" for i in range(10)]
        records = []
        for i in range(20):
            ranking = list(rng.permutation(pool))
            gold = tuple(rng.choice(pool, size=int(rng.integers(1, 5)), replace=False))
            records.append(record(f"M{i}", gold, ranking))
        values = [recall_at_k(records, k) for k in range(4, 11)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_small_k_strict_warns(self):
        records = [record("M1", ("A",), ["A"])]
        with pytest.warns(UserWarning):
            recall_at_k(records, MIN_STRICT_K - 1)

    def test_small_k_atomic_does_not_warn(self):
        records = [record("M1", ("A",), ["A"])]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert recall_at_k(records, 1, atomic_only=True) == 1.0

    def test_invalid_k(self):
        records = [record("M1", ("A",), ["A"])]
        with pytest.raises(ValueError):
            recall_at_k(records, 0)

    def test_empty_records(self):
        with pytest.raises(EmptyRecords):
            recall_at_k([], 4)


class TestRecallAtMin:
    def test_hand_example(self):
        records = [
            record("M1", ("A", "B"), ["A", "C"]),
            record("M2", ("C",), ["C"]),
        ]
        assert recall_at_min(records) == 0.5

    def test_single_gold_equals_recall_at_one(self):
        records = [
            record("M1", ("A",), ["A", "B"]),
            record("M2", ("B",), ["A", "B"]),
            record("M3", ("C",), ["C", "A"]),
        ]
        with pytest.warns(UserWarning):
            at_one = recall_at_k(records, 1)
        assert recall_at_min(records) == at_one

    def test_perfect_retriever(self):
        records = [
            record("M1", ("A", "B"), ["B", "A", "C"]),
            record("M2", ("C", "D", "E"), ["E", "C", "D"]),
        ]
        assert recall_at_min(records) == 1.0


class TestRecallAtKFraction:
    def test_two_of_three(self):
        records = [record("M1", ("A", "B", "C"), ["A", "C", "D", "E"])]
        assert recall_at_k_fraction(records, 4) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_gold_retrieved(self):
        records = [record("M1", ("A", "B"), ["C", "D", "E", "F"])]
        assert recall_at_k_fraction(records, 4) == 0.0

    def test_dominates_strict_recall(self):
        rng = np.random.default_rng(9)
        pool = [f"E{i}" for i in range(10)]
        records = []
        for i in range(30):
            ranking = list(rng.permutation(pool))
            gold = tuple(rng.choice(pool, size=int(rng.integers(1, 5)), replace=False))
            records.append(record(f"M{i}", gold, ranking))
        for k in range(4, 11):
            assert recall_at_k_fraction(records, k) >= recall_at_k(records, k)


def brute_force_set_metrics(records: list[EvalRecord]) -> dict[str, float]:
    """The aggregate definitions written out one quantity at a time."""
    n = len(records)
    strict = sum(1.0 for r in records if r.predicted == r.gold_set) / n
    map_ = sum(
        len(r.gold_set & r.predicted) / len(r.predicted) for r in records
    ) / n
    mar = sum(len(r.gold_set & r.predicted) / len(r.gold_set) for r in records) / n
    inter = sum(len(r.gold_set & r.predicted) for r in records)
    pred = sum(len(r.predicted) for r in records)
    gold = sum(len(r.gold_set) for r in records)
    mip = inter / pred
    mir = inter / gold
    macro = 0.0 if map_ + mar == 0 else 2 * map_ * mar / (map_ + mar)
    micro = 0.0 if mip + mir == 0 else 2 * mip * mir / (mip + mir)
    top_min = (
        sum(
            1.0
            for r in records
            if frozenset(
                (r.rerank_order if r.rerank_order is not None else r.ranking)[
                    : len(r.gold_set)
                ]
            )
            == r.gold_set
        )
        / n
    )
    return {
        "strict_acc": strict,
        "strict_acc_top_min": top_min,
        "MaP": map_,
        "MaR": mar,
        "macro_f1": macro,
        "MiP": mip,
        "MiR": mir,
        "micro_f1": micro,
    }


class TestSetMetrics:
    def test_hand_example(self):
        records = [
            record("M1", ("A", "B"), ["A", "B"], predicted=frozenset({"A"})),
            record("M2", ("C",), ["C"], predicted=frozenset({"C", "D"})),
        ]
        m = set_metrics(records)
        assert m["strict_acc"] == 0.0
        assert m["MaP"] == pytest.approx(0.75, abs=1e-15)
        assert m["MaR"] == pytest.approx(0.75, abs=1e-15)
        assert m["macro_f1"] == pytest.approx(0.75, abs=1e-15)
        assert m["MiP"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert m["MiR"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert m["micro_f1"] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_perfect_predictions(self):
        records = [
            record("M1", ("A", "B"), ["A", "B"], predicted=frozenset({"A", "B"})),
            record("M2", ("C",), ["C"], predicted=frozenset({"C"})),
        ]
        m = set_metrics(records)
        for name, value in m.items():
            assert value == 1.0, name

    def test_all_null_predictions(self):
        records = [
            record("M1", ("A",), ["B"], predicted=frozenset({NULL_EVENT})),
            record("M2", ("C",), ["D"], predicted=frozenset({NULL_EVENT})),
        ]
        m = set_metrics(records)
        assert m["strict_acc"] == 0.0
        assert m["macro_f1"] == 0.0
        assert m["micro_f1"] == 0.0

    def test_top_min_uses_rerank_order(self):
        records = [
            record(
                "M1",
                ("A", "B"),
                ["C", "D", "A", "B"],
                predicted=frozenset({"C"}),
                rerank_order=["B", "A", "C", "D"],
            )
        ]
        m = set_metrics(records)
        assert m["strict_acc"] == 0.0
        assert m["strict_acc_top_min"] == 1.0

    def test_top_min_falls_back_to_ranking(self):
        records = [
            record("M1", ("A",), ["A", "B"], predicted=frozenset({"B"})),
        ]
        assert set_metrics(records)["strict_acc_top_min"] == 1.0

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(31)
        pool = [f"E{i}" for i in range(10)]
        for trial in range(50):
            n = int(rng.integers(1, 21))
            records = []
            for i in range(n):
                ranking = list(rng.permutation(pool))
                gold = tuple(
                    rng.choice(pool, size=int(rng.integers(1, 5)), replace=False)
                )
                pred_size = int(rng.integers(1, 5))
                predicted = frozenset(
                    rng.choice(pool + [NULL_EVENT], size=pred_size, replace=False)
                )
                rerank = list(rng.permutation(pool)) if rng.integers(2) else None
                records.append(record(f"M{i}", gold, ranking, predicted, rerank))
            got = set_metrics(records)
            want = brute_force_set_metrics(records)
            for name in want:
                assert abs(got[name] - want[name]) <= 1e-12, name

    def test_micro_equals_macro_for_uniform_sizes(self):
        rng = np.random.default_rng(41)
        pool = [f"E{i}" for i in range(8)]
        records = []
        for i in range(12):
            gold = tuple(rng.choice(pool, size=2, replace=False))
            predicted = frozenset(rng.choice(pool, size=2, replace=False))
            records.append(record(f"M{i}", gold, list(pool), predicted))
        m = set_metrics(records)
        assert m["macro_f1"] == pytest.approx(m["micro_f1"], abs=1e-12)

    def test_missing_prediction_rejected(self):
        records = [record("M1", ("A",), ["A"])]
        with pytest.raises(EmptyRecords):
            set_metrics(records)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            record("M1", (), ["A"])


def parent_forest():
    events = [
        Event(e, {"en": Label(f"event {e}")}) for e in ["P", "C1", "C2", "C3", "C4"]
    ]
    edges = [
        RelationEdge("C1", RelationProperty.PART_OF, "P"),
        RelationEdge("C2", RelationProperty.PART_OF, "P"),
        RelationEdge("C3", RelationProperty.PART_OF, "P"),
        RelationEdge("C4", RelationProperty.PART_OF, "P"),
    ]
    return build_forest(events, edges)


class TestRelextRecallAtK:
    def test_hand_example(self):
        forest = parent_forest()
        filler = [f"X{i}" for i in range(8)]
        rankings = {
            "C1": ["P"] + filler,
            "C2": [filler[0], "P"] + filler[1:],
            "C3": filler + ["P"],
        }
        assert relext_recall_at_ks(rankings, forest, [4])[0] == 0.5

    def test_all_parents_first(self):
        forest = parent_forest()
        rankings = {c: ["P", "X"] for c in ["C1", "C2", "C3", "C4"]}
        assert relext_recall_at_ks(rankings, forest, [1])[0] == 1.0

    def test_large_k_with_all_linked(self):
        forest = parent_forest()
        rankings = {c: ["X1", "X2", "P"] for c in ["C1", "C2", "C3", "C4"]}
        assert relext_recall_at_ks(rankings, forest, [99])[0] == 1.0

    def test_event_filter_keeps_non_roots_only(self):
        forest = parent_forest()
        rankings = {"C1": ["P"], "C2": ["X"]}
        got = relext_recall_at_ks(rankings, forest, [1], events=["C1", "C2", "P"])[0]
        assert got == 0.5

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            relext_recall_at_ks({}, parent_forest(), [0])[0]

    def test_no_events_to_evaluate(self):
        events = [Event("A", {"en": Label("alone")})]
        forest = build_forest(events, [])
        with pytest.raises(EmptyRecords):
            relext_recall_at_ks({}, forest, [4])[0]


class TestReportFiles:
    def test_report_round_trip(self, tmp_path):
        report = {"recall_at_min": 0.5, "config": {"k": 8}}
        path = tmp_path / "report.json"
        write_json(report, path)
        assert json.loads(path.read_text("utf-8")) == report

    def test_report_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json({"z": 1.0, "a": 2.0}, a)
        write_json({"a": 2.0, "z": 1.0}, b)
        assert a.read_bytes() == b.read_bytes()

    def test_recall_tsv(self, tmp_path):
        path = tmp_path / "recall.tsv"
        write_recall_tsv([(1, 0.25), (8, 1.0)], path)
        lines = path.read_text("utf-8").splitlines()
        assert lines == ["k\trecall", "1\t0.25", "8\t1.0"]
