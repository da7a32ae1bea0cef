"""Mention list inversion, overlap scores, parent rankings, parents file."""

import pytest

from hierground.errors import ParseError, UndefinedScore
from hierground.relext import (
    DEFAULT_LIST_K,
    DEFAULT_MAX_RANKING,
    MentionLists,
    build_mention_lists,
    h_score,
    load_parents,
    rank_all_parents,
    rank_parents,
    write_parents,
)
from hierground.retrieval import RetrievalResult


def result_of(mid: str, ids: list[str]) -> RetrievalResult:
    return RetrievalResult(mid, [(event_id, 0.0) for event_id in ids])


def lists_from(assignments: dict[str, set[str]]) -> MentionLists:
    """Build MentionLists directly from mention -> events sets."""
    lists = MentionLists()
    for mention_id, events in assignments.items():
        lists.events_of[mention_id] = set(events)
        for event_id in events:
            lists.mentions_of.setdefault(event_id, set()).add(mention_id)
    return lists


class TestBuildMentionLists:
    def test_single_mention_links_all_top_k(self):
        lists = build_mention_lists([result_of("m", ["A", "B", "C", "D"])], k=4)
        for event_id in ["A", "B", "C", "D"]:
            assert lists.mentions_of[event_id] == {"m"}

    def test_truncates_to_k(self):
        lists = build_mention_lists([result_of("m", ["A", "B", "C", "D"])], k=2)
        assert set(lists.mentions_of) == {"A", "B"}
        assert lists.events_of["m"] == {"A", "B"}

    def test_never_retrieved_event_is_absent(self):
        lists = build_mention_lists([result_of("m", ["A"])], k=4)
        assert "Z" not in lists.mentions_of
        assert sorted(lists.mentions_of) == ["A"]

    def test_shared_candidate_collects_both_mentions(self):
        lists = build_mention_lists(
            [result_of("m1", ["A", "B"]), result_of("m2", ["A", "C"])], k=2
        )
        assert lists.mentions_of["A"] == {"m1", "m2"}
        assert lists.mentions_of["B"] == {"m1"}

    def test_default_k_is_four(self):
        assert DEFAULT_LIST_K == 4
        lists = build_mention_lists([result_of("m", ["A", "B", "C", "D", "E"])])
        assert "E" not in lists.mentions_of


class TestHScore:
    def test_subset_scores_one(self):
        lists = lists_from({"m1": {"A", "B"}, "m2": {"A", "B"}, "m3": {"B"}})
        assert h_score(lists, "A", "B") == 1.0

    def test_disjoint_scores_zero(self):
        lists = lists_from({"m1": {"A"}, "m2": {"B"}})
        assert h_score(lists, "A", "B") == 0.0

    def test_half_overlap(self):
        lists = lists_from(
            {
                "m1": {"A", "B"},
                "m2": {"A", "B"},
                "m3": {"A"},
                "m4": {"A"},
            }
        )
        assert h_score(lists, "A", "B") == 0.5

    def test_self_score_is_one(self):
        lists = lists_from({"m1": {"A"}})
        assert h_score(lists, "A", "A") == 1.0

    def test_asymmetric(self):
        lists = lists_from({"m1": {"A", "B"}, "m2": {"B"}})
        assert h_score(lists, "A", "B") == 1.0
        assert h_score(lists, "B", "A") == 0.5

    def test_unlinked_event_is_undefined(self):
        lists = lists_from({"m1": {"A"}})
        with pytest.raises(UndefinedScore) as err:
            h_score(lists, "Z", "A")
        assert err.value.event_id == "Z"


class TestRankParents:
    def test_descending_by_score(self):
        lists = lists_from(
            {
                "m1": {"E", "P"},
                "m2": {"E", "P"},
                "m3": {"E", "Q"},
                "m4": {"E"},
            }
        )
        ranked = rank_parents(lists, "E", ["E", "P", "Q", "R"])
        assert ranked == [("P", 0.5), ("Q", 0.25), ("R", 0.0)]

    def test_scores_match_h_score(self):
        lists = lists_from(
            {
                "m1": {"A", "B", "C"},
                "m2": {"A", "C"},
                "m3": {"B", "C", "D"},
                "m4": {"A", "D"},
            }
        )
        pool = ["A", "B", "C", "D", "Z"]
        for event_id in ["A", "B", "C", "D"]:
            for candidate, score in rank_parents(lists, event_id, pool):
                assert score == h_score(lists, event_id, candidate)

    def test_excludes_self(self):
        lists = lists_from({"m1": {"A", "B"}})
        ranked = rank_parents(lists, "A", ["A", "B"])
        assert [c for c, _ in ranked] == ["B"]

    def test_ties_resolve_to_ascending_id(self):
        lists = lists_from({"m1": {"E", "Z", "B"}, "m2": {"E", "Z", "B"}})
        ranked = rank_parents(lists, "E", ["E", "Z", "B", "A"])
        assert ranked == [("B", 1.0), ("Z", 1.0), ("A", 0.0)]

    def test_unlinked_event_raises(self):
        lists = lists_from({"m1": {"A"}})
        with pytest.raises(UndefinedScore):
            rank_parents(lists, "Q", ["A", "Q"])

    def test_relabeling_mentions_preserves_ranking(self):
        base = {
            "m1": {"E", "P"},
            "m2": {"E", "P"},
            "m3": {"E", "Q"},
        }
        relabeled = {f"other-{k}": v for k, v in base.items()}
        pool = ["E", "P", "Q"]
        assert rank_parents(lists_from(base), "E", pool) == rank_parents(
            lists_from(relabeled), "E", pool
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
        lists = lists_from(assignments)
        assert h_score(lists, "L1", "Mid") == 1.0
        assert h_score(lists, "Mid", "Root") == 1.0
        ranked = rank_parents(lists, "L1", ["L1", "Mid", "Root", "X"])
        assert ranked[0] == ("Mid", 1.0)


class TestRankAllParents:
    def test_splits_linked_and_unlinked(self):
        lists = lists_from({"m1": {"A", "B"}})
        rankings, unlinked = rank_all_parents(lists, ["A", "B", "C"])
        assert set(rankings) == {"A", "B"}
        assert unlinked == ["C"]
        assert rankings["A"] == [("B", 1.0), ("C", 0.0)]


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
