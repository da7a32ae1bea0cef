"""Zero-shot parent discovery from retrieval overlap.

If a child event is a part of its parent, every mention linked to the
child should also be linked to the parent, so the fraction of a child's
mentions shared with a candidate measures how plausible the candidate is
as an ancestor.  Rankings over the full pool are built from the top-k
retrieval lists alone; no trained relation model is involved.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, UndefinedScore, UnknownEvent
from .kb import entry_ids, read_jsonl, scored_ids
from .retrieval import retrieval_lines

DEFAULT_LIST_K = 4
DEFAULT_MAX_RANKING = 16


def build_mention_lists(
    path: str | Path, pool: list[str], k: int = DEFAULT_LIST_K
) -> np.ndarray:
    """A retrievals file's mention lists as an n x ``k`` int64 matrix of
    pool positions.

    Row i holds the positions in ``sorted(pool)`` of the distinct events
    among the first ``k`` candidates of line i, in list order, padded with
    -1; root-padded lists repeat ids, and a mention counts once per event.
    M_e is the set of rows that hold e.  Each line is read once, by
    ``retrieval_lines``.  A candidate outside the pool, at any position, is
    UnknownEvent: the first one in the file, raised after the last line, so
    that a ParseError anywhere comes first.
    """
    if k < 1:
        raise InvalidConfig(f"mention list length must be >= 1, got {k}")
    position = {event_id: i for i, event_id in enumerate(sorted(pool))}
    flat: list[int] = []
    padding = [-1] * k
    unknown = None
    for mention_id, ids in retrieval_lines(path, entry_ids):
        if unknown is not None:
            continue
        try:
            row = [position[event_id] for event_id in ids]
        except KeyError as exc:
            unknown = UnknownEvent(exc.args[0], f"candidate of mention {mention_id!r}")
            continue
        row = list(dict.fromkeys(row[:k]))
        flat += row
        flat += padding[len(row) :]
    if unknown is not None:
        raise unknown
    return np.array(flat, dtype=np.int64).reshape(-1, k)


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
    mention; one ``np.unique`` counts them and one stable ``argsort`` by
    (event, -count) orders each event's candidates.  A ranking shorter
    than ``m`` is padded with the smallest-id zero-score pool events while
    the pool lasts.  ``pool`` holds distinct ids in any order; unlinked ids
    are returned apart, in pool order.
    """
    if m < 1:
        raise InvalidConfig(f"ranking length must be >= 1, got {m}")
    ids = sorted(pool)
    P = len(ids)
    a, b = lists[:, :, None], lists[:, None, :]
    pairs = (a * P + b)[(a >= 0) & (b >= 0) & (a != b)]
    denom = np.bincount(lists[lists >= 0], minlength=P)
    linked = np.flatnonzero(denom)
    # the padding: each linked event's first m + 1 ids but itself, counted
    # once less, so that at count 0 they follow its co-occurring candidates
    # by id; an event with r < m of those finds m - r zeros among them
    width = min(m + 1, P)
    near = (linked[:, None] * P + np.arange(width)).ravel()
    near = near[near // P != near % P]
    keys, counts = np.unique(np.concatenate([pairs, near]), return_counts=True)
    event, candidate = np.divmod(keys, P)
    counts -= (candidate < width) & (candidate != event)
    # keys ascend, so a stable sort by (event, -count) leaves ties by id
    order = np.argsort(event * (counts.max(initial=0) + 1) - counts, kind="stable")
    event, candidate, h = event[order], candidate[order], (counts / denom[event])[order]
    top = np.arange(event.size) - np.searchsorted(event, event) < m
    event, candidate, h = event[top], candidate[top], h[top]
    entries = list(zip([ids[c] for c in candidate.tolist()], h.tolist()))
    ends = np.cumsum(np.bincount(event, minlength=P)[linked]).tolist()
    ranked = {ids[e]: entries[i:j] for e, i, j in zip(linked.tolist(), [0, *ends], ends)}
    rankings = {e: ranked[e] for e in pool if e in ranked}
    return rankings, [e for e in pool if e not in ranked]


def write_parents(
    rankings: dict[str, list[tuple[str, float]]],
    path: str | Path,
    max_ranking: int = DEFAULT_MAX_RANKING,
) -> None:
    """One ``json.dumps(record)`` line per event in id order, formatted
    directly: an entry is its parent's quoted prefix, made once per id, and
    ``repr`` of its float h, made once per value (apart for a zero, whose
    sign ``==`` does not see)."""
    prefix = cache(lambda parent: f'{{"parent": {json.dumps(parent)}, "h": ')
    number = cache(lambda h: f"{h!r}}}")
    with open(path, "w", encoding="utf-8") as fh:
        for event_id in sorted(rankings):
            entries = ", ".join([
                prefix(parent) + (number(h) if h else f"{h!r}}}")
                for parent, h in rankings[event_id][:max_ranking]
            ])
            fh.write(f'{{"event": {json.dumps(event_id)}, "ranking": [{entries}]}}\n')


def load_parents(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    rankings: dict[str, list[tuple[str, float]]] = {}
    for line_no, obj in read_jsonl(path, event=str, ranking=list):
        rankings[obj["event"]] = scored_ids(path, line_no, obj["ranking"], "parent", "h")
    return rankings
