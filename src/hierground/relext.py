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

from .errors import ParseError, UndefinedScore
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


def h_score(lists: MentionLists, e_i: str, e_j: str) -> float:
    """|M_i intersect M_j| / |M_i|: how much of e_i the candidate covers."""
    m_i = lists.mentions_of.get(e_i)
    if not m_i:
        raise UndefinedScore(e_i)
    m_j = lists.mentions_of.get(e_j, set())
    return len(m_i & m_j) / len(m_i)


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
    lists: MentionLists, pool: list[str]
) -> tuple[dict[str, list[tuple[str, float]]], list[str]]:
    """Rankings for every linked pool event; unlinked ids returned apart."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    unlinked: list[str] = []
    for event_id in pool:
        try:
            rankings[event_id] = rank_parents(lists, event_id, pool)
        except UndefinedScore:
            unlinked.append(event_id)
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
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                rankings[obj["event"]] = [
                    (entry["parent"], float(entry["h"])) for entry in obj["ranking"]
                ]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ParseError(str(path), line_no, str(exc)) from exc
    return rankings
