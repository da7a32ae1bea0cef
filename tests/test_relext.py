"""Mention list inversion, overlap scores, parent rankings, parents file."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierground.errors import InvalidConfig, ParseError, UndefinedScore
from hierground.relext import (
    DEFAULT_LIST_K,
    DEFAULT_MAX_RANKING,
    build_mention_lists,
    load_parents,
    rank_all_parents,
    rank_parents,
    write_parents,
)
from hierground.retrieval import RetrievalResult


def mentions_of(assignments: dict[str, set[str]], event_id: str) -> set[str]:
    return {mention_id for mention_id, events in assignments.items() if event_id in events}


def h_score(assignments: dict[str, set[str]], e_i: str, e_j: str) -> float:
    """Oracle: |M_i intersect M_j| / |M_i|, how much of e_i the candidate covers."""
    m_i = mentions_of(assignments, e_i)
    if not m_i:
        raise UndefinedScore(e_i)
    return len(m_i & mentions_of(assignments, e_j)) / len(m_i)


def result_of(mid: str, ids: list[str]) -> RetrievalResult:
    return RetrievalResult(mid, [(event_id, 0.0) for event_id in ids])


def lists_from(assignments: dict[str, set[str]], pool: list[str]) -> np.ndarray:
    """The mention-list matrix of mention -> events sets over ``pool``."""
    results = [result_of(mid, sorted(events)) for mid, events in assignments.items()]
    k = max([1] + [len(events) for events in assignments.values()])
    return build_mention_lists(results, pool, k)


class TestBuildMentionLists:
    def test_single_mention_links_all_top_k(self):
        lists = build_mention_lists(
            [result_of("m", ["A", "B", "C", "D"])], ["D", "C", "B", "A"], k=4
        )
        assert lists.dtype == np.int64
        assert lists.tolist() == [[0, 1, 2, 3]]

    def test_truncates_to_k(self):
        lists = build_mention_lists(
            [result_of("m", ["A", "B", "C", "D"])], ["A", "B", "C", "D"], k=2
        )
        assert lists.tolist() == [[0, 1]]

    def test_never_retrieved_event_is_absent(self):
        lists = build_mention_lists([result_of("m", ["A"])], ["A", "Z"], k=4)
        assert lists.tolist() == [[0, -1, -1, -1]]

    def test_shared_candidate_collects_both_mentions(self):
        pool = ["A", "B", "C"]
        lists = build_mention_lists(
            [result_of("m1", ["A", "B"]), result_of("m2", ["A", "C"])], pool, k=2
        )
        assert lists.tolist() == [[0, 1], [0, 2]]
        # M_A holds both mentions (rows), M_B only the first
        assert (lists == 0).any(axis=1).tolist() == [True, True]
        assert (lists == 1).any(axis=1).tolist() == [True, False]

    def test_default_k_is_four(self):
        assert DEFAULT_LIST_K == 4
        pool = ["A", "B", "C", "D", "E"]
        lists = build_mention_lists([result_of("m", pool)], pool)
        assert lists.tolist() == [[0, 1, 2, 3]]

    def test_repeats_count_once_in_list_order(self):
        # a root-padded oracle list: the root fills the tail
        lists = build_mention_lists(
            [result_of("m", ["C", "A", "R", "R", "R"])], ["A", "C", "R"], k=5
        )
        assert lists.tolist() == [[1, 0, 2, -1, -1]]

    def test_ids_outside_the_pool_are_dropped(self):
        lists = build_mention_lists(
            [result_of("m", ["X", "B", "Y", "A"])], ["A", "B"], k=3
        )
        assert lists.tolist() == [[1, -1, -1]]

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_non_positive_length(self, k):
        with pytest.raises(InvalidConfig):
            build_mention_lists([result_of("m", ["A", "B"])], ["A", "B"], k)


class TestHScore:
    def test_subset_scores_one(self):
        assert h_score({"m1": {"A", "B"}, "m2": {"A", "B"}, "m3": {"B"}}, "A", "B") == 1.0

    def test_disjoint_scores_zero(self):
        assert h_score({"m1": {"A"}, "m2": {"B"}}, "A", "B") == 0.0

    def test_half_overlap(self):
        assignments = {
            "m1": {"A", "B"},
            "m2": {"A", "B"},
            "m3": {"A"},
            "m4": {"A"},
        }
        assert h_score(assignments, "A", "B") == 0.5

    def test_self_score_is_one(self):
        assert h_score({"m1": {"A"}}, "A", "A") == 1.0

    def test_asymmetric(self):
        assignments = {"m1": {"A", "B"}, "m2": {"B"}}
        assert h_score(assignments, "A", "B") == 1.0
        assert h_score(assignments, "B", "A") == 0.5

    def test_unlinked_event_is_undefined(self):
        with pytest.raises(UndefinedScore) as err:
            h_score({"m1": {"A"}}, "Z", "A")
        assert err.value.event_id == "Z"


class TestRankParents:
    def test_descending_by_score(self):
        pool = ["E", "P", "Q", "R"]
        lists = lists_from(
            {
                "m1": {"E", "P"},
                "m2": {"E", "P"},
                "m3": {"E", "Q"},
                "m4": {"E"},
            },
            pool,
        )
        ranked = rank_parents(lists, "E", pool)
        assert ranked == [("P", 0.5), ("Q", 0.25), ("R", 0.0)]

    def test_scores_match_h_score(self):
        assignments = {
            "m1": {"A", "B", "C"},
            "m2": {"A", "C"},
            "m3": {"B", "C", "D"},
            "m4": {"A", "D"},
        }
        pool = ["A", "B", "C", "D", "Z"]
        lists = lists_from(assignments, pool)
        for event_id in ["A", "B", "C", "D"]:
            for candidate, score in rank_parents(lists, event_id, pool):
                assert score == h_score(assignments, event_id, candidate)

    def test_excludes_self(self):
        lists = lists_from({"m1": {"A", "B"}}, ["A", "B"])
        ranked = rank_parents(lists, "A", ["A", "B"])
        assert [c for c, _ in ranked] == ["B"]

    def test_ties_resolve_to_ascending_id(self):
        pool = ["E", "Z", "B", "A"]
        lists = lists_from({"m1": {"E", "Z", "B"}, "m2": {"E", "Z", "B"}}, pool)
        ranked = rank_parents(lists, "E", pool)
        assert ranked == [("B", 1.0), ("Z", 1.0), ("A", 0.0)]

    def test_unlinked_event_raises(self):
        lists = lists_from({"m1": {"A"}}, ["A", "Q"])
        with pytest.raises(UndefinedScore):
            rank_parents(lists, "Q", ["A", "Q"])

    def test_event_outside_pool_raises(self):
        lists = lists_from({"m1": {"A", "B"}}, ["A", "B"])
        with pytest.raises(UndefinedScore) as err:
            rank_parents(lists, "Q", ["A", "B"])
        assert err.value.event_id == "Q"

    def test_relabeling_mentions_preserves_ranking(self):
        base = {
            "m1": {"E", "P"},
            "m2": {"E", "P"},
            "m3": {"E", "Q"},
        }
        relabeled = {f"other-{k}": v for k, v in base.items()}
        pool = ["E", "P", "Q"]
        assert rank_parents(lists_from(base, pool), "E", pool) == rank_parents(
            lists_from(relabeled, pool), "E", pool
        )

    def test_perfect_linker_scores_parent_one(self):
        # mentions linked to exactly their gold chain: every ancestor of
        # the anchor shares all of the child's mentions
        chains = {
            "L1": ("L1", "Mid", "Root"),
            "Mid": ("Mid", "Root"),
            "Root": ("Root",),
        }
        assignments = {}
        for i, (anchor, chain) in enumerate(chains.items()):
            for j in range(2):
                assignments[f"m{i}{j}"] = set(chain)
        assert h_score(assignments, "L1", "Mid") == 1.0
        assert h_score(assignments, "Mid", "Root") == 1.0
        pool = ["L1", "Mid", "Root", "X"]
        ranked = rank_parents(lists_from(assignments, pool), "L1", pool)
        assert ranked[0] == ("Mid", 1.0)


# pool ids, plus two events that mention lists may name outside any pool
EVENT_IDS = [f"E{i}" for i in range(10)]
OUTSIDE_IDS = ["X0", "X1"]


@st.composite
def relext_cases(draw):
    """(candidate lists, pool in drawn order, k, m) over a small id space.

    Lists are ordered, repeat ids, name ids outside the pool and may run
    past ``k``, as retrieval files may.
    """
    pool = draw(st.lists(st.sampled_from(EVENT_IDS), min_size=1, max_size=8, unique=True))
    names = st.sampled_from(sorted(pool) + OUTSIDE_IDS)
    candidates = draw(st.lists(st.lists(names, max_size=7), max_size=9))
    return candidates, pool, draw(st.integers(1, 6)), draw(st.integers(1, 12))


class TestRankAllParents:
    def test_splits_linked_and_unlinked(self):
        lists = lists_from({"m1": {"A", "B"}}, ["A", "B", "C"])
        rankings, unlinked = rank_all_parents(lists, ["A", "B", "C"])
        assert set(rankings) == {"A", "B"}
        assert unlinked == ["C"]
        assert rankings["A"] == [("B", 1.0), ("C", 0.0)]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=relext_cases())
    # three candidates tie at h = 1.0 across the m = 2 boundary
    @example(case=([["E0", "E3", "E2", "E1"]], ["E0", "E3", "E2", "E1", "E4"], 4, 2))
    # a tie at h = 0.5 straddles m = 2, behind a candidate at 1.0
    @example(case=([["E0", "E5", "E7"], ["E0", "E5", "E6"]], ["E7", "E6", "E5", "E0"], 3, 2))
    # no co-occurring candidate: the ranking is all padding
    @example(case=([["E2"]], ["E2", "E1", "E0"], 1, 1))
    # m >= P, an unlinked event and a mention naming an event outside the pool
    @example(case=([["E1", "X0"], ["E1", "E4"]], ["E4", "E1", "E9"], 2, 10))
    # no mentions at all: every event is unlinked
    @example(case=([], ["E3", "E1"], 4, 1))
    # a root-padded list whose repeats fill the k cut: E2 is left unlinked
    @example(case=([["E1", "E1", "E1", "E2"]], ["E2", "E1"], 3, 1))
    def test_is_prefix_of_full_ranking(self, case):
        candidates, pool, k, m = case
        lists = build_mention_lists(
            [result_of(f"m{j}", ids) for j, ids in enumerate(candidates)], pool, k
        )
        assignments = {f"m{j}": set(ids[:k]) for j, ids in enumerate(candidates)}
        rankings, unlinked = rank_all_parents(lists, pool, m)
        expected_unlinked = []
        for event_id in pool:
            try:
                full = rank_parents(lists, event_id, pool)
            except UndefinedScore:
                expected_unlinked.append(event_id)
                continue
            assert rankings[event_id] == full[:m]
            assert [h for _, h in full] == [h_score(assignments, event_id, c) for c, _ in full]
        assert unlinked == expected_unlinked
        assert unlinked == [e for e in pool if not mentions_of(assignments, e)]
        assert len(rankings) + len(unlinked) == len(pool)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_non_positive_length(self, m):
        with pytest.raises(InvalidConfig):
            rank_all_parents(lists_from({"m1": {"A", "B"}}, ["A", "B"]), ["A", "B"], m)


class TestParentsFile:
    def test_round_trip(self, tmp_path):
        rankings = {
            "A": [("B", 1.0), ("C", 0.5)],
            "B": [("A", 0.25)],
        }
        path = tmp_path / "parents.jsonl"
        write_parents(rankings, path)
        assert load_parents(path) == rankings

    def test_truncates_to_max_ranking(self, tmp_path):
        ranking = [(f"E{i:02d}", 1.0 - i / 100.0) for i in range(20)]
        path = tmp_path / "parents.jsonl"
        write_parents({"A": ranking}, path, max_ranking=DEFAULT_MAX_RANKING)
        loaded = load_parents(path)
        assert len(loaded["A"]) == 16
        assert loaded["A"] == ranking[:16]

    def test_write_is_sorted_by_event(self, tmp_path):
        path = tmp_path / "parents.jsonl"
        write_parents({"B": [("A", 1.0)], "A": [("B", 1.0)]}, path)
        lines = path.read_text("utf-8").splitlines()
        assert lines[0].startswith('{"event": "A"')

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "parents.jsonl"
        path.write_text('{"event": "A", "ranking": []}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_parents(path)
        assert err.value.line == 2

    def test_non_numeric_h_reports_position(self, tmp_path):
        path = tmp_path / "parents.jsonl"
        path.write_text(
            '{"event": "A", "ranking": []}\n'
            '{"event": "B", "ranking": [{"parent": "A", "h": "x"}]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_parents(path)
        assert (err.value.path, err.value.line) == (str(path), 2)
