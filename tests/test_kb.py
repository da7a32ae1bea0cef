"""Forest construction, edge normalization, and KB serialization."""

import itertools

import pytest

from hierground.errors import (
    CycleDetected,
    HeightExceeded,
    MissingLabel,
    MultipleParents,
    ParseError,
    UnknownEvent,
)
from hierground.kb import (
    Event,
    HierarchyForest,
    Label,
    RelationEdge,
    RelationProperty,
    ancestor_chain,
    build_forest,
    load_events,
    load_forest,
    load_relations,
    save_forest,
    write_events,
    write_relations,
)


def ev(event_id: str) -> Event:
    return Event(id=event_id, labels={"en": Label(title=event_id)})


def part_of(child: str, parent: str) -> RelationEdge:
    return RelationEdge(subject=child, property=RelationProperty.PART_OF, object=parent)


def has_part(parent: str, child: str) -> RelationEdge:
    return RelationEdge(subject=parent, property=RelationProperty.HAS_PART, object=child)


class TestBuildForest:
    def test_part_of_chain(self):
        events = [ev("Q602744"), ev("Q8641370"), ev("Q216184")]
        edges = [part_of("Q8641370", "Q216184"), part_of("Q602744", "Q8641370")]
        forest = build_forest(events, edges)
        assert ancestor_chain(forest, "Q602744") == ["Q602744", "Q8641370", "Q216184"]
        assert forest.parent == {"Q602744": "Q8641370", "Q8641370": "Q216184"}
        assert "Q216184" in forest.roots
        assert forest.tree_roots() == ["Q216184"]
        assert all(e.in_hierarchy for e in events)

    def test_root_chain_is_itself(self):
        events = [ev("A"), ev("B")]
        forest = build_forest(events, [part_of("A", "B")])
        assert ancestor_chain(forest, "B") == ["B"]

    def test_singleton_chain_is_itself(self):
        forest = build_forest([ev("S")], [])
        assert ancestor_chain(forest, "S") == ["S"]

    def test_empty_edge_list_gives_singletons(self):
        events = [ev("A"), ev("B")]
        forest = build_forest(events, [])
        assert forest.parent == {}
        assert forest.roots == {"A", "B"}
        assert forest.tree_roots() == []
        assert not any(e.in_hierarchy for e in events)

    def test_both_encodings_deduplicate_to_one_edge(self):
        events = [ev("A"), ev("B")]
        forest = build_forest(events, [part_of("A", "B"), has_part("B", "A")])
        assert forest.parent == {"A": "B"}
        assert forest.children == {"B": ["A"]}

    def test_duplicate_edges_are_ignored(self):
        events = [ev("A"), ev("B")]
        forest = build_forest(events, [part_of("A", "B")] * 3)
        assert forest.parent == {"A": "B"}

    def test_temporal_edges_are_not_hierarchy(self):
        events = [ev("A"), ev("B")]
        edges = [
            RelationEdge(subject="A", property=RelationProperty.FOLLOWS, object="B"),
            RelationEdge(subject="B", property=RelationProperty.FOLLOWED_BY, object="A"),
        ]
        forest = build_forest(events, edges)
        assert forest.parent == {}
        assert not any(e.in_hierarchy for e in events)

    def test_order_insensitive(self):
        events = [ev(x) for x in "ABCDEFG"]
        edges = [
            part_of("B", "A"),
            has_part("A", "C"),
            part_of("D", "B"),
            part_of("E", "B"),
            has_part("C", "F"),
            part_of("G", "C"),
        ]
        baseline = build_forest(events, edges)
        for perm in itertools.permutations(edges):
            forest = build_forest(events, list(perm))
            assert forest.parent == baseline.parent
            assert forest.children == baseline.children
            assert forest.roots == baseline.roots

    def test_children_sorted_by_id(self):
        events = [ev(x) for x in ("P", "z", "a", "m")]
        forest = build_forest(
            events, [part_of("z", "P"), part_of("a", "P"), part_of("m", "P")]
        )
        assert forest.children["P"] == ["a", "m", "z"]

    def test_multiple_parents_rejected(self):
        events = [ev("A"), ev("B"), ev("C")]
        with pytest.raises(MultipleParents) as info:
            build_forest(events, [part_of("A", "B"), part_of("A", "C")])
        assert info.value.child == "A"
        assert set(info.value.parents) == {"B", "C"}

    def test_cycle_rejected(self):
        events = [ev("A"), ev("B"), ev("C")]
        edges = [part_of("A", "B"), part_of("B", "C"), part_of("C", "A")]
        with pytest.raises(CycleDetected) as info:
            build_forest(events, edges)
        assert set(info.value.cycle) >= {"A", "B", "C"}

    def test_two_cycle_rejected(self):
        events = [ev("A"), ev("B")]
        with pytest.raises(CycleDetected):
            build_forest(events, [part_of("A", "B"), part_of("B", "A")])

    def test_height_cap(self):
        events = [ev(x) for x in "ABCDE"]
        chain4 = [part_of("A", "B"), part_of("B", "C"), part_of("C", "D")]
        forest = build_forest(events, chain4)
        assert len(ancestor_chain(forest, "A")) == 4

        chain5 = chain4 + [part_of("D", "E")]
        with pytest.raises(HeightExceeded):
            build_forest(events, chain5)
        forest = build_forest(events, chain5, max_height=4)
        assert len(ancestor_chain(forest, "A")) == 5

    def test_unknown_edge_endpoint(self):
        with pytest.raises(UnknownEvent):
            build_forest([ev("A")], [part_of("A", "NOPE")])

    def test_self_edge_rejected_at_construction(self):
        with pytest.raises(ValueError):
            part_of("A", "A")

    def test_duplicate_event_ids_rejected(self):
        with pytest.raises(ValueError):
            build_forest([ev("A"), ev("A")], [])


class TestChainProperties:
    def test_parent_chain_is_tail_of_child_chain(self):
        events = [ev(x) for x in "ABCDEFG"]
        edges = [
            part_of("B", "A"),
            part_of("C", "A"),
            part_of("D", "B"),
            part_of("E", "B"),
            part_of("F", "C"),
            part_of("G", "F"),
        ]
        forest = build_forest(events, edges)
        for node, parent in forest.parent.items():
            assert ancestor_chain(forest, parent) == ancestor_chain(forest, node)[1:]

    def test_depth_counts_edges(self):
        events = [ev(x) for x in "ABC"]
        forest = build_forest(events, [part_of("A", "B"), part_of("B", "C")])
        assert forest.depth("A") == 2
        assert forest.depth("B") == 1
        assert forest.depth("C") == 0

    def test_unknown_id_rejected(self):
        forest = build_forest([ev("A")], [])
        with pytest.raises(UnknownEvent):
            ancestor_chain(forest, "missing")


class TestLabels:
    def test_fallback_to_english(self):
        event = Event(id="E", labels={"en": Label(title="t", description="d")})
        assert event.label_for("pl").title == "t"

    def test_exact_language_preferred(self):
        event = Event(
            id="E",
            labels={"en": Label(title="t"), "pl": Label(title="tytul")},
        )
        assert event.label_for("pl").title == "tytul"

    def test_missing_label_raises(self):
        event = Event(id="E", labels={"pl": Label(title="tytul")})
        with pytest.raises(MissingLabel):
            event.label_for("uk")

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            Event(id="E", labels={})


class TestSerialization:
    def test_forest_round_trip(self, tmp_path):
        events = [ev(x) for x in "ABCDES"]
        edges = [
            part_of("A", "B"),
            part_of("B", "C"),
            part_of("D", "C"),
            part_of("E", "D"),
        ]
        forest = build_forest(events, edges)
        path = tmp_path / "forest.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        assert loaded.parent == forest.parent
        assert loaded.children == forest.children
        assert loaded.roots == forest.roots
        assert loaded.nodes == forest.nodes
        assert loaded.max_height == forest.max_height

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"nodes": [], "max_height": 3}',
            '{"parent": {"A": 1}, "nodes": ["A"], "max_height": 3}',
            '{"parent": {}, "nodes": "AB", "max_height": 3}',
            '{"parent": {}, "nodes": [], "max_height": "3"}',
            "not json",
        ],
    )
    def test_malformed_forest_is_parse_error(self, tmp_path, text):
        path = tmp_path / "forest.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_forest(path)
        assert err.value.path == str(path)

    def test_events_round_trip(self, tmp_path):
        events = [
            Event(id="E1", labels={"en": Label("one", "first"), "pl": Label("jeden")}),
            Event(id="E2", labels={"uk": Label("dva", "")}),
        ]
        path = tmp_path / "events.jsonl"
        write_events(events, path)
        loaded = load_events(path)
        assert [e.id for e in loaded] == ["E1", "E2"]
        assert loaded[0].labels["pl"].title == "jeden"
        assert loaded[1].labels["uk"].description == ""

    def test_relations_round_trip(self, tmp_path):
        edges = [
            part_of("A", "B"),
            has_part("B", "C"),
            RelationEdge(subject="A", property=RelationProperty.FOLLOWS, object="C"),
        ]
        path = tmp_path / "relations.jsonl"
        write_relations(edges, path)
        assert load_relations(path) == edges

    def test_property_codes_are_wikidata_style(self, tmp_path):
        path = tmp_path / "relations.jsonl"
        write_relations([part_of("A", "B")], path)
        assert '"P361"' in path.read_text(encoding="utf-8")
        for code, prop in (
            ("P527", RelationProperty.HAS_PART),
            ("P361", RelationProperty.PART_OF),
            ("P155", RelationProperty.FOLLOWS),
            ("P156", RelationProperty.FOLLOWED_BY),
        ):
            assert RelationProperty(code) is prop

    def test_bad_json_line_reports_path_and_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"id": "A", "labels": {"en": {"title": "t"}}}\n{oops\n')
        with pytest.raises(ParseError) as info:
            load_events(path)
        assert info.value.line == 2

    def test_duplicate_ids_in_file_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        line = '{"id": "A", "labels": {"en": {"title": "t", "description": ""}}}\n'
        path.write_text(line + line)
        with pytest.raises(ParseError):
            load_events(path)

    def test_round_trip_preserves_forest_after_rebuild(self, tmp_path):
        events = [ev(x) for x in "ABCD"]
        edges = [part_of("B", "A"), has_part("A", "C"), part_of("D", "C")]
        write_events(events, tmp_path / "e.jsonl")
        write_relations(edges, tmp_path / "r.jsonl")
        again = build_forest(
            load_events(tmp_path / "e.jsonl"), load_relations(tmp_path / "r.jsonl")
        )
        assert again.parent == build_forest(events, edges).parent


class TestForestDict:
    def test_dict_round_trip(self):
        events = [ev(x) for x in "ABC"]
        forest = build_forest(events, [part_of("A", "B"), part_of("C", "B")])
        again = HierarchyForest.from_dict(forest.to_dict())
        assert again.parent == forest.parent
        assert again.children == forest.children
        assert again.roots == forest.roots
