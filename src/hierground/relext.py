"""Zero-shot parent discovery from retrieval overlap.

If a child event is a part of its parent, every mention linked to the
child should also be linked to the parent, so the fraction of a child's
mentions shared with a candidate measures how plausible the candidate is
as an ancestor.  Rankings over the full pool are built from the top-k
retrieval lists alone; no trained relation model is involved.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, UndefinedScore
from .kb import read_jsonl, scored_ids
from .retrieval import RetrievalResult

DEFAULT_LIST_K = 4
DEFAULT_MAX_RANKING = 16


def build_mention_lists(
    results: list[RetrievalResult], pool: list[str], k: int = DEFAULT_LIST_K
) -> np.ndarray:
    """The mention lists as an n x ``k`` int64 matrix of pool positions.

    Row i holds the positions in ``sorted(pool)`` of the distinct pool
    events among the first ``k`` candidates of ``results[i]``, in list
    order, padded with -1; root-padded lists repeat ids, and a mention
    counts once per event.  M_e is the set of rows that hold e.
    """
    if k < 1:
        raise InvalidConfig(f"mention list length must be >= 1, got {k}")
    position = {event_id: i for i, event_id in enumerate(sorted(pool))}
    lists = np.full((len(results), k), -1, dtype=np.int64)
    for row, result in zip(lists, results):
        events = [position[e] for e in dict.fromkeys(result.event_ids[:k]) if e in position]
        row[: len(events)] = events
    return lists


def rank_parents(
    lists: np.ndarray, event_id: str, pool: list[str]
) -> list[tuple[str, float]]:
    """Every other pool event scored, descending, ties by ascending id.

    The definition h(e, c) = |M_e & M_c| / |M_e|, one row mask per
    candidate, that ``rank_all_parents`` must agree with.  Raises
    UndefinedScore when the event is outside the pool or unlinked.
    """
    ids = sorted(pool)
    if event_id not in ids:
        raise UndefinedScore(event_id)
    m_e = (lists == ids.index(event_id)).any(axis=1)
    if not m_e.any():
        raise UndefinedScore(event_id)
    scored = [
        (candidate, float((m_e & (lists == c).any(axis=1)).sum() / m_e.sum()))
        for c, candidate in enumerate(ids)
        if candidate != event_id
    ]
    return sorted(scored, key=lambda pair: (-pair[1], pair[0]))


def rank_all_parents(
    lists: np.ndarray, pool: list[str], m: int = DEFAULT_MAX_RANKING
) -> tuple[dict[str, list[tuple[str, float]]], list[str]]:
    """The first ``m`` entries of ``rank_parents`` for every linked pool event.

    ``lists`` is ``build_mention_lists`` over the same pool.  Each row's
    outer product gives one event * P + candidate key per pair sharing the
    mention; one ``np.unique`` counts them and one ``lexsort`` by (event,
    -count, id) orders each event's candidates.  A ranking shorter than
    ``m`` is padded with the smallest-id zero-score pool events while the
    pool lasts.  ``pool`` holds distinct ids in any order; unlinked ids
    are returned apart, in pool order.
    """
    if m < 1:
        raise InvalidConfig(f"ranking length must be >= 1, got {m}")
    ids = sorted(pool)
    a, b = lists[:, :, None], lists[:, None, :]
    pairs = (a * len(ids) + b)[(a >= 0) & (b >= 0) & (a != b)]
    keys, counts = np.unique(pairs, return_counts=True)
    denom = np.bincount(lists[lists >= 0], minlength=len(ids))
    event, candidate = np.divmod(keys, len(ids))
    order = np.lexsort((candidate, -counts, event))
    event, candidate, h = event[order], candidate[order], (counts / denom[event])[order]
    top = np.arange(event.size) - np.searchsorted(event, event) < m
    linked = {ids[e] for e in np.flatnonzero(denom).tolist()}
    rankings: dict[str, list[tuple[str, float]]] = {e: [] for e in pool if e in linked}
    for e, c, score in zip(event[top].tolist(), candidate[top].tolist(), h[top].tolist()):
        rankings[ids[e]].append((ids[c], score))
    for event_id, ranking in rankings.items():
        taken = {c for c, _ in ranking} | {event_id}
        ranking += islice(((c, 0.0) for c in ids if c not in taken), m - len(ranking))
    return rankings, [e for e in pool if e not in linked]


def write_parents(
    rankings: dict[str, list[tuple[str, float]]],
    path: str | Path,
    max_ranking: int = DEFAULT_MAX_RANKING,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event_id in sorted(rankings):
            record = {
                "event": event_id,
                "ranking": [
                    {"parent": parent, "h": h}
                    for parent, h in rankings[event_id][:max_ranking]
                ],
            }
            fh.write(json.dumps(record) + "\n")


def load_parents(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    rankings: dict[str, list[tuple[str, float]]] = {}
    for line_no, obj in read_jsonl(path, event=str, ranking=list):
        rankings[obj["event"]] = scored_ids(path, line_no, obj["ranking"], "parent", "h")
    return rankings
