"""Mention list inversion, overlap scores, parent rankings, parents file."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierground.errors import InvalidConfig, ParseError, UndefinedScore
from hierground.relext import (
    DEFAULT_LIST_K,
    DEFAULT_MAX_RANKING,
    MentionLists,
    build_mention_lists,
    load_parents,
    rank_all_parents,
    rank_parents,
    write_parents,
)
from hierground.retrieval import RetrievalResult


def h_score(lists: MentionLists, e_i: str, e_j: str) -> float:
    """Oracle: |M_i intersect M_j| / |M_i|, how much of e_i the candidate covers."""
    m_i = lists.mentions_of.get(e_i)
    if not m_i:
        raise UndefinedScore(e_i)
    m_j = lists.mentions_of.get(e_j, set())
    return len(m_i & m_j) / len(m_i)


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


# pool ids, plus two events that mention lists may name outside any pool
EVENT_IDS = [f"E{i}" for i in range(10)]
OUTSIDE_IDS = ["X0", "X1"]


@st.composite
def relext_cases(draw):
    """(mention -> events, pool in drawn order, m) over a small id space."""
    pool = draw(st.lists(st.sampled_from(EVENT_IDS), min_size=1, max_size=8, unique=True))
    names = st.sampled_from(sorted(pool) + OUTSIDE_IDS)
    n_mentions = draw(st.integers(0, 9))
    assignments = {
        f"m{j}": draw(st.sets(names, max_size=4)) for j in range(n_mentions)
    }
    return assignments, pool, draw(st.integers(1, 10))


class TestRankAllParents:
    def test_splits_linked_and_unlinked(self):
        lists = lists_from({"m1": {"A", "B"}})
        rankings, unlinked = rank_all_parents(lists, ["A", "B", "C"])
        assert set(rankings) == {"A", "B"}
        assert unlinked == ["C"]
        assert rankings["A"] == [("B", 1.0), ("C", 0.0)]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=relext_cases())
    # three candidates tie at h = 1.0 across the m = 2 boundary
    @example(case=({"m1": {"E0", "E3", "E2", "E1"}}, ["E0", "E3", "E2", "E1", "E4"], 2))
    # a tie at h = 0.5 straddles m = 2, behind a candidate at 1.0
    @example(case=({"m1": {"E0", "E5", "E7"}, "m2": {"E0", "E5", "E6"}},
                   ["E7", "E6", "E5", "E0"], 2))
    # no co-occurring candidate: the ranking is all padding
    @example(case=({"m1": {"E2"}}, ["E2", "E1", "E0"], 1))
    # m >= P, an unlinked event and a mention naming an event outside the pool
    @example(case=({"m1": {"E1", "X0"}, "m2": {"E1", "E4"}}, ["E4", "E1", "E9"], 10))
    # no mentions at all: every event is unlinked
    @example(case=({}, ["E3", "E1"], 1))
    def test_is_prefix_of_full_ranking(self, case):
        assignments, pool, m = case
        lists = lists_from(assignments)
        rankings, unlinked = rank_all_parents(lists, pool, m)
        expected_unlinked = []
        for event_id in pool:
            try:
                full = rank_parents(lists, event_id, pool)
            except UndefinedScore:
                expected_unlinked.append(event_id)
                continue
            assert rankings[event_id] == full[:m]
        assert unlinked == expected_unlinked
        assert len(rankings) + len(unlinked) == len(pool)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_non_positive_length(self, m):
        with pytest.raises(InvalidConfig):
            rank_all_parents(lists_from({"m1": {"A", "B"}}), ["A", "B"], m)


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
