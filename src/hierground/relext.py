"""Zero-shot parent discovery from retrieval overlap.

If a child event is a part of its parent, every mention linked to the
child should also be linked to the parent, so the fraction of a child's
mentions shared with a candidate measures how plausible the candidate is
as an ancestor.  Rankings over the full pool are built from the top-k
retrieval lists alone; no trained relation model is involved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, UndefinedScore
from .kb import read_jsonl, scored_ids
from .retrieval import RetrievalResult

DEFAULT_LIST_K = 4
DEFAULT_MAX_RANKING = 16


@dataclass
class MentionLists:
    """M_e: the mentions whose top-k retrieval contains each event."""

    mentions_of: dict[str, set[str]] = field(default_factory=dict)
    events_of: dict[str, set[str]] = field(default_factory=dict)
    k: int = DEFAULT_LIST_K


def build_mention_lists(
    results: list[RetrievalResult], k: int = DEFAULT_LIST_K
) -> MentionLists:
    """Invert the truncated-to-k retrieval lists into per-event sets."""
    lists = MentionLists(k=k)
    for result in results:
        events = set(result.event_ids[:k])
        lists.events_of[result.mention_id] = events
        for event_id in events:
            lists.mentions_of.setdefault(event_id, set()).add(result.mention_id)
    return lists


def rank_parents(
    lists: MentionLists, event_id: str, pool: list[str]
) -> list[tuple[str, float]]:
    """Every other pool event scored, descending, ties by ascending id.

    Computed by co-occurrence counting over the event's mentions, which
    touches only candidates that share a mention; the rest score zero.
    Raises UndefinedScore when the event has no linked mentions.
    """
    m_e = lists.mentions_of.get(event_id)
    if not m_e:
        raise UndefinedScore(event_id)
    shared: dict[str, int] = {}
    for mention_id in m_e:
        for other in lists.events_of.get(mention_id, ()):
            shared[other] = shared.get(other, 0) + 1
    denom = len(m_e)
    scored = [
        (candidate, shared.get(candidate, 0) / denom)
        for candidate in pool
        if candidate != event_id
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def rank_all_parents(
    lists: MentionLists, pool: list[str], m: int = DEFAULT_MAX_RANKING
) -> tuple[dict[str, list[tuple[str, float]]], list[str]]:
    """The first ``m`` entries of ``rank_parents`` for every linked pool event.

    One co-occurrence pass over all events: every (event, candidate) pair
    that shares a mention is counted with one ``np.unique``, and one
    ``lexsort`` by (event, -count, id) orders each event's candidates.
    ``h`` is the same ``count / len(M_e)`` float.  A ranking shorter than
    ``m`` is padded with the smallest-id zero-score pool events while the
    pool lasts.  ``pool`` holds distinct ids in any order; unlinked ids are
    returned apart, in pool order.
    """
    if m < 1:
        raise InvalidConfig(f"ranking length must be >= 1, got {m}")
    ids = sorted(pool)
    rank = {event_id: i for i, event_id in enumerate(ids)}
    in_pool = {
        mention_id: [rank[e] for e in events if e in rank]
        for mention_id, events in lists.events_of.items()
    }
    linked = [e for e in pool if lists.mentions_of.get(e)]
    denom = np.zeros(len(ids))
    # one event * P + candidate key per (mention of the event, candidate)
    pair_keys: list[int] = []
    for event_id in linked:
        e = rank[event_id]
        m_e = lists.mentions_of[event_id]
        denom[e] = len(m_e)
        pair_keys.extend(
            e * len(ids) + c
            for mention_id in m_e
            for c in in_pool.get(mention_id, ())
            if c != e
        )
    keys, counts = np.unique(np.asarray(pair_keys, dtype=np.int64), return_counts=True)
    event, candidate = np.divmod(keys, len(ids))
    order = np.lexsort((candidate, -counts, event))
    event, candidate, counts = event[order], candidate[order], counts[order]
    position = np.arange(event.size) - np.searchsorted(event, event)
    top = position < m
    listed: dict[int, list[tuple[str, float]]] = {}
    for e, c, h in zip(
        event[top].tolist(),
        candidate[top].tolist(),
        (counts[top] / denom[event[top]]).tolist(),
    ):
        listed.setdefault(e, []).append((ids[c], h))

    rankings: dict[str, list[tuple[str, float]]] = {}
    for event_id in linked:
        ranking = listed.get(rank[event_id], [])
        if len(ranking) < m:
            taken = {c for c, _ in ranking} | {event_id}
            for c in ids:
                if len(ranking) == m:
                    break
                if c not in taken:
                    ranking.append((c, 0.0))
        rankings[event_id] = ranking
    unlinked = [e for e in pool if not lists.mentions_of.get(e)]
    return rankings, unlinked


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
