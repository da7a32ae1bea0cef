"""Evaluation measures for retrieval, set prediction, and parent ranking.

Gold sets are ancestor chains stored anchor-first, so the "most atomic"
event of a record is its first gold entry.  Set metrics follow the
aggregate-then-combine reading: macro F1 is the harmonic mean of the
averaged precision and recall, not the average of per-mention F1s.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyRecords
from .kb import HierarchyForest

NULL_EVENT = "NULL"
MIN_STRICT_K = 4


@dataclass
class EvalRecord:
    """One mention's gold chain, retrieval ranking and optional prediction.

    ``ranking`` is the retrieval order (used by the recall family);
    ``rerank_order`` is the reranker-sorted candidate list used by the
    top-min accuracy, defaulting to ``ranking`` when absent.
    """

    mention_id: str
    gold: tuple[str, ...]
    ranking: list[str]
    predicted: frozenset[str] | None = None
    rerank_order: list[str] | None = None

    def __post_init__(self):
        if not self.gold:
            raise ValueError(f"record {self.mention_id!r} has an empty gold set")

    @property
    def gold_set(self) -> frozenset[str]:
        return frozenset(self.gold)

    @property
    def atomic_event(self) -> str:
        return self.gold[0]


def _require(records: list[EvalRecord]) -> None:
    if not records:
        raise EmptyRecords("no evaluation records")


def recall_at_k(records: list[EvalRecord], k: int, atomic_only: bool = False) -> float:
    """Fraction of mentions whose gold events all sit in the top-k.

    Atomic mode only requires the anchor (the most atomic gold event),
    an upper bound for the strict variant.  Strict Recall@k below k=4 is
    ill-posed when chains can hold 4 events, so it warns.
    """
    _require(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not atomic_only and k < MIN_STRICT_K:
        warnings.warn(
            f"strict Recall@{k} cannot contain a full chain of {MIN_STRICT_K} events",
            stacklevel=2,
        )
    hits = 0
    for record in records:
        top = set(record.ranking[:k])
        if atomic_only:
            hits += record.atomic_event in top
        else:
            hits += record.gold_set <= top
    return hits / len(records)


def recall_at_min(records: list[EvalRecord]) -> float:
    """Strict containment in the top-x where x is the gold-set size."""
    _require(records)
    hits = 0
    for record in records:
        x = len(record.gold_set)
        hits += record.gold_set <= set(record.ranking[:x])
    return hits / len(records)


def recall_at_k_fraction(records: list[EvalRecord], k: int) -> float:
    """Mean fraction of each mention's gold events found in the top-k."""
    _require(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0.0
    for record in records:
        top = set(record.ranking[:k])
        total += len(record.gold_set & top) / len(record.gold_set)
    return total / len(records)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def set_metrics(records: list[EvalRecord]) -> dict[str, float]:
    """Exact-match accuracy plus macro and micro precision/recall/F1.

    The NULL placeholder never appears in gold sets, so predicting it
    contributes a pure false positive.  The top-min accuracy rebuilds
    each prediction as the |gold| best reranked candidates.
    """
    _require(records)
    n = len(records)
    strict = 0
    strict_top_min = 0
    map_sum = 0.0
    mar_sum = 0.0
    inter_total = 0
    pred_total = 0
    gold_total = 0
    for record in records:
        if record.predicted is None:
            raise EmptyRecords(f"record {record.mention_id!r} has no prediction")
        gold = record.gold_set
        pred = record.predicted
        inter = len(gold & pred)
        strict += gold == pred
        map_sum += inter / len(pred) if pred else 0.0
        mar_sum += inter / len(gold)
        inter_total += inter
        pred_total += len(pred)
        gold_total += len(gold)
        order = record.rerank_order if record.rerank_order is not None else record.ranking
        strict_top_min += frozenset(order[: len(gold)]) == gold
    map_ = map_sum / n
    mar = mar_sum / n
    mip = inter_total / pred_total if pred_total else 0.0
    mir = inter_total / gold_total if gold_total else 0.0
    return {
        "strict_acc": strict / n,
        "strict_acc_top_min": strict_top_min / n,
        "MaP": map_,
        "MaR": mar,
        "macro_f1": _f1(map_, mar),
        "MiP": mip,
        "MiR": mir,
        "micro_f1": _f1(mip, mir),
    }


def relext_recall_at_ks(
    rankings: dict[str, list[str]],
    forest: HierarchyForest,
    ks: Sequence[int],
    events: list[str] | None = None,
) -> list[float]:
    """Fraction of non-root hierarchy events whose parent is in their top-k,
    at each k of ``ks``, from one pass that finds each evaluated parent's
    position in its child's ranking.

    ``rankings`` maps a child event to its ranked parent candidates;
    events absent from it (no linked mentions, so the overlap score is
    undefined) count as misses at every k.
    """
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    if events is None:
        events = sorted(forest.parent)
    else:
        events = [e for e in events if e in forest.parent]
    if not events:
        raise EmptyRecords("no non-root hierarchy events to evaluate")
    top = max(ks)
    ranks = []
    for child in events:
        ranking = (rankings.get(child) or [])[:top]
        parent = forest.parent[child]
        ranks.append(ranking.index(parent) if parent in ranking else top)
    ranks.sort()
    return [bisect_left(ranks, k) / len(events) for k in ks]


def write_report(report: dict, path: str | Path) -> None:
    """report.json: flat metric map plus whatever config echo is passed."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_recall_tsv(rows: list[tuple[int, float]], path: str | Path) -> None:
    """(k, recall) rows for plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k\trecall\n")
        for k, recall in rows:
            fh.write(f"{k}\t{recall}\n")
