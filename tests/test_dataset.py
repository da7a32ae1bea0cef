"""Gold expansion, zero-shot splits, pools, stats, synthetic corpora."""

import collections
import json

import numpy as np
import pytest

from hierground.dataset import (
    Mention,
    SPLIT_NAMES,
    SyntheticConfig,
    candidate_pool,
    corpus_stats,
    expand_gold,
    generate_synthetic,
    integer_quotas,
    load_mentions,
    load_splits,
    save_splits,
    select_split,
    split_components,
    write_mentions,
)
from hierground.errors import InvalidConfig, ParseError, UnknownEvent
from hierground.kb import (
    Event,
    Label,
    RelationEdge,
    RelationProperty,
    build_forest,
)


def ev(event_id: str) -> Event:
    return Event(id=event_id, labels={"en": Label(title=event_id)})


def part_of(child: str, parent: str) -> RelationEdge:
    return RelationEdge(subject=child, property=RelationProperty.PART_OF, object=parent)


def follows(a: str, b: str) -> RelationEdge:
    return RelationEdge(subject=a, property=RelationProperty.FOLLOWS, object=b)


def mention(anchor: str, mid: str = "M0001") -> Mention:
    return Mention(
        id=mid,
        language="en",
        context=f"about {anchor} here",
        span_start=6,
        span_end=6 + len(anchor),
        anchor_event=anchor,
    )


def bfs_components(ids, edges):
    """Independent component oracle: breadth-first search over all edges."""
    adj = collections.defaultdict(set)
    for e in edges:
        adj[e.subject].add(e.object)
        adj[e.object].add(e.subject)
    remaining = set(ids)
    parts = []
    while remaining:
        start = remaining.pop()
        seen = {start}
        queue = collections.deque([start])
        while queue:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    remaining.discard(nxt)
                    queue.append(nxt)
        parts.append(frozenset(seen))
    return set(parts)


class TestMention:
    def test_surface_is_the_span(self):
        m = mention("Q1")
        assert m.surface == "Q1"

    def test_span_must_be_inside_context(self):
        with pytest.raises(ValueError):
            Mention(
                id="M", language="en", context="short", span_start=2, span_end=9,
                anchor_event="Q1",
            )

    def test_span_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Mention(
                id="M", language="en", context="short", span_start=3, span_end=3,
                anchor_event="Q1",
            )

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Mention(
                id="M", language="en", context="short", span_start=-1, span_end=2,
                anchor_event="Q1",
            )


class TestExpandGold:
    def setup_method(self):
        self.events = [ev("Q602744"), ev("Q8641370"), ev("Q216184"), ev("S")]
        edges = [part_of("Q8641370", "Q216184"), part_of("Q602744", "Q8641370")]
        self.forest = build_forest(self.events, edges)

    def test_mid_chain_anchor(self):
        (inst,) = expand_gold(self.forest, [mention("Q8641370")])
        assert inst.gold_set == {"Q8641370", "Q216184"}

    def test_leaf_anchor_gets_whole_chain(self):
        (inst,) = expand_gold(self.forest, [mention("Q602744")])
        assert inst.gold_set == {"Q602744", "Q8641370", "Q216184"}
        assert inst.gold == ("Q602744", "Q8641370", "Q216184")

    def test_root_anchor(self):
        (inst,) = expand_gold(self.forest, [mention("Q216184")])
        assert inst.gold_set == {"Q216184"}

    def test_singleton_anchor(self):
        (inst,) = expand_gold(self.forest, [mention("S")])
        assert inst.gold_set == {"S"}

    def test_anchor_is_first(self):
        for anchor in ("Q602744", "Q8641370", "Q216184", "S"):
            (inst,) = expand_gold(self.forest, [mention(anchor)])
            assert inst.gold[0] == anchor
            assert inst.atomic_event == anchor

    def test_unknown_anchor(self):
        with pytest.raises(UnknownEvent):
            expand_gold(self.forest, [mention("missing")])

    def test_gold_size_is_depth_plus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            ids = [f"E{i:02d}" for i in range(n)]
            edges = []
            for i, node in enumerate(ids[1:], start=1):
                parent = ids[int(rng.integers(0, i))]
                depth = 0
                probe = parent
                chain_ok = True
                parents = {c.subject: c.object for c in edges}
                while probe in parents:
                    probe = parents[probe]
                    depth += 1
                    if depth >= 3:
                        chain_ok = False
                        break
                if chain_ok:
                    edges.append(part_of(node, parent))
            forest = build_forest([ev(i) for i in ids], edges)
            insts = expand_gold(forest, [mention(i, f"M{i}") for i in ids])
            for inst in insts:
                assert len(inst.gold) == forest.depth(inst.mention.anchor_event) + 1

    def test_ancestors_always_in_gold(self):
        insts = expand_gold(
            self.forest, [mention("Q602744"), mention("Q8641370", "M0002")]
        )
        parents = self.forest.parent
        for inst in insts:
            walk = inst.mention.anchor_event
            while walk in parents:
                walk = parents[walk]
                assert walk in inst.gold_set


class TestIntegerQuotas:
    def test_ten_events_eight_one_one(self):
        assert integer_quotas(10, (0.8, 0.1, 0.1)) == (8, 1, 1)

    def test_largest_remainder(self):
        assert integer_quotas(7, (0.5, 0.25, 0.25)) == (3, 2, 2)

    def test_remainder_tie_breaks_toward_first(self):
        assert integer_quotas(1, (0.5, 0.25, 0.25)) == (1, 0, 0)
        assert integer_quotas(2, (1 / 3, 1 / 3, 1 / 3)) == (1, 1, 0)

    def test_always_sums_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = rng.random(3) + 1e-6
            ratios = tuple(raw / raw.sum())
            total = int(rng.integers(0, 500))
            quotas = integer_quotas(total, ratios)
            assert sum(quotas) == total
            assert all(q >= int(np.floor(total * r)) for q, r in zip(quotas, ratios))

    def test_bad_ratios_rejected(self):
        with pytest.raises(InvalidConfig):
            integer_quotas(10, (0.8, 0.1, 0.2))
        with pytest.raises(InvalidConfig):
            integer_quotas(10, (1.1, -0.05, -0.05))

    @pytest.mark.parametrize("ratios", [
        (float("nan"), 0.5, 0.5), (0.8, float("nan"), 0.1), (float("inf"), 0.0, 0.0),
    ])
    def test_non_finite_ratios_rejected(self, ratios):
        with pytest.raises(InvalidConfig, match="ratios"):
            integer_quotas(10, ratios)


class TestSplitComponents:
    def test_ten_singletons_split_8_1_1(self):
        events = [ev(f"E{i}") for i in range(10)]
        assignment = split_components(events, [], (0.8, 0.1, 0.1), seed=0)
        counts = {
            s: len(assignment.events_in_split(s)) for s in SPLIT_NAMES
        }
        assert counts == {"train": 8, "dev": 1, "test": 1}

    def test_component_members_share_split(self):
        events = [ev(f"E{i}") for i in range(12)]
        edges = [
            part_of("E1", "E0"),
            part_of("E2", "E0"),
            follows("E0", "E3"),
            part_of("E4", "E3"),
            part_of("E6", "E5"),
            follows("E7", "E8"),
        ]
        assignment = split_components(events, edges, (0.5, 0.25, 0.25), seed=3)
        for edge in edges:
            assert assignment.split_for_event(edge.subject) == (
                assignment.split_for_event(edge.object)
            )

    def test_all_four_properties_join_components(self):
        events = [ev(x) for x in "ABCDE"]
        edges = [
            RelationEdge(subject="A", property=RelationProperty.HAS_PART, object="B"),
            RelationEdge(subject="C", property=RelationProperty.PART_OF, object="B"),
            RelationEdge(subject="C", property=RelationProperty.FOLLOWS, object="D"),
            RelationEdge(subject="E", property=RelationProperty.FOLLOWED_BY, object="D"),
        ]
        assignment = split_components(events, edges, (0.8, 0.1, 0.1), seed=0)
        assert len({assignment.component_of[x] for x in "ABCDE"}) == 1

    def test_components_match_bfs_oracle(self):
        rng = np.random.default_rng(11)
        props = list(RelationProperty)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            ids = [f"E{i:02d}" for i in range(n)]
            events = [ev(i) for i in ids]
            edges = []
            for _ in range(int(rng.integers(0, n))):
                a, b = rng.choice(n, size=2, replace=False)
                prop = props[int(rng.integers(0, 4))]
                edges.append(
                    RelationEdge(subject=ids[a], property=prop, object=ids[b])
                )
            assignment = split_components(events, edges, (0.6, 0.2, 0.2), seed=5)
            mine = collections.defaultdict(set)
            for event_id, comp in assignment.component_of.items():
                mine[comp].add(event_id)
            assert {frozenset(g) for g in mine.values()} == bfs_components(ids, edges)
            for edge in edges:
                assert assignment.split_for_event(edge.subject) == (
                    assignment.split_for_event(edge.object)
                )

    def test_component_id_is_min_member(self):
        events = [ev(x) for x in ("E9", "E1", "E5")]
        assignment = split_components(
            events, [part_of("E9", "E5")], (0.8, 0.1, 0.1), seed=0
        )
        assert assignment.component_of["E9"] == "E5"
        assert assignment.component_of["E5"] == "E5"
        assert assignment.component_of["E1"] == "E1"

    def test_deterministic_per_seed(self):
        events = [ev(f"E{i}") for i in range(30)]
        a = split_components(events, [], (0.8, 0.1, 0.1), seed=42)
        b = split_components(events, [], (0.8, 0.1, 0.1), seed=42)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_assignment(self):
        events = [ev(f"E{i}") for i in range(30)]
        seen = {
            json.dumps(split_components(events, [], (0.8, 0.1, 0.1), seed=s).to_dict())
            for s in range(6)
        }
        assert len(seen) > 1

    def test_every_event_assigned_once(self):
        events = [ev(f"E{i}") for i in range(25)]
        edges = [part_of(f"E{i}", f"E{i + 1}") for i in range(0, 24, 5)]
        assignment = split_components(events, edges, (0.5, 0.3, 0.2), seed=1)
        assert set(assignment.component_of) == {e.id for e in events}
        assert set(assignment.split_of.values()) <= set(SPLIT_NAMES)
        total = sum(len(assignment.events_in_split(s)) for s in SPLIT_NAMES)
        assert total == 25

    def test_empty_kb_rejected(self):
        from hierground.errors import EmptyKB

        with pytest.raises(EmptyKB):
            split_components([], [], (0.8, 0.1, 0.1), seed=0)

    def test_round_trip(self, tmp_path):
        events = [ev(f"E{i}") for i in range(10)]
        assignment = split_components(events, [], (0.8, 0.1, 0.1), seed=0)
        path = tmp_path / "splits.json"
        save_splits(assignment, path)
        loaded = load_splits(path)
        assert loaded.to_dict() == assignment.to_dict()

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"components": {}}',
            '{"components": {}, "splits": {}}',
            '{"components": {"E1": ["c"]}, "splits": {}, "seed": 0}',
            '{"components": {}, "splits": {}, "seed": true}',
            '{"components": {"E1": "c0"}, "splits": {}, "seed": 0}',
            '{"components": {}, "splits": {},',
        ],
    )
    def test_malformed_file_is_parse_error(self, tmp_path, text):
        path = tmp_path / "splits.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_splits(path)
        assert err.value.path == str(path)


class TestSelectSplit:
    def test_selects_by_anchor_component(self):
        events = [ev(f"E{i}") for i in range(10)]
        assignment = split_components(events, [], (0.8, 0.1, 0.1), seed=0)
        mentions = [mention(f"E{i}", f"M{i:04d}") for i in range(10)]
        got = {
            s: {m.anchor_event for m in select_split(mentions, assignment, s)}
            for s in SPLIT_NAMES
        }
        for s in SPLIT_NAMES:
            assert got[s] == set(assignment.events_in_split(s))

    def test_unknown_anchor_dropped_not_raised(self):
        events = [ev("E0")]
        assignment = split_components(events, [], (0.8, 0.1, 0.1), seed=0)
        mentions = [mention("E0", "M1"), mention("ghost", "M2")]
        selected = select_split(mentions, assignment, "train")
        assert [m.id for m in selected] == ["M1"]

    def test_bad_split_name(self):
        events = [ev("E0")]
        assignment = split_components(events, [], (0.8, 0.1, 0.1), seed=0)
        with pytest.raises(InvalidConfig):
            select_split([], assignment, "validation")


class TestCandidatePool:
    def setup_method(self):
        self.events = [ev(f"H{i}") for i in range(5)] + [ev(f"S{i}") for i in range(3)]
        edges = [
            part_of("H1", "H0"),
            part_of("H2", "H0"),
            part_of("H4", "H3"),
        ]
        build_forest(self.events, edges)
        self.edges = edges

    def test_inference_pool_is_everything(self):
        pool = candidate_pool(self.events, mode="inference")
        assert len(pool) == 8
        assert pool == sorted(pool)

    def test_train_pool_is_in_hierarchy_of_split(self):
        assignment = split_components(self.events, self.edges, (0.5, 0.25, 0.25), 0)
        train_pool = candidate_pool(
            self.events, assignment, "train", mode="train"
        )
        expected = {
            e.id
            for e in self.events
            if e.in_hierarchy and assignment.split_for_event(e.id) == "train"
        }
        assert set(train_pool) == expected
        assert not any(p.startswith("S") for p in train_pool)

    def test_train_mode_needs_assignment(self):
        with pytest.raises(InvalidConfig):
            candidate_pool(self.events, mode="train")

    def test_unknown_mode(self):
        with pytest.raises(InvalidConfig):
            candidate_pool(self.events, mode="zero")


class TestCorpusStats:
    def test_hand_counts(self):
        events = [ev("A"), ev("B")]
        edges = [part_of("A", "B")]
        forest = build_forest(events, edges)
        mentions = [mention("A", "M1"), mention("B", "M2")]
        stats = corpus_stats(events, edges, mentions, forest)
        assert stats["n_events"] == 2
        assert stats["n_mentions"] == 2
        assert stats["n_trees"] == 1
        assert stats["avg_children"] == 1.0
        assert stats["avg_effective_depth"] == 1.0

    def test_root_only_mentions_give_zero_depth(self):
        events = [ev("A"), ev("B")]
        edges = [part_of("A", "B")]
        forest = build_forest(events, edges)
        stats = corpus_stats(events, edges, [mention("B", "M1")], forest)
        assert stats["avg_effective_depth"] == 0.0

    def test_empty_corpus(self):
        stats = corpus_stats([], [], [], build_forest([], []))
        assert stats["n_events"] == 0
        assert stats["n_mentions"] == 0
        assert stats["avg_children"] == 0.0
        assert stats["avg_effective_depth"] == 0.0

    def test_language_and_property_breakdown(self):
        events = [ev("A"), ev("B"), ev("C")]
        edges = [part_of("A", "B"), follows("B", "C")]
        m2 = Mention(
            id="M2", language="pl", context="o A tu", span_start=2, span_end=3,
            anchor_event="A",
        )
        stats = corpus_stats(events, edges, [mention("A", "M1"), m2], None)
        assert stats["relations_by_property"]["P361"] == 1
        assert stats["relations_by_property"]["P155"] == 1
        assert stats["mentions_by_language"] == {"en": 1, "pl": 1}


class TestGenerateSynthetic:
    def test_two_binary_trees_of_height_two(self):
        cfg = SyntheticConfig(n_trees=2, branching=2, height=2, vocab=60)
        events, edges, mentions = generate_synthetic(cfg)
        assert len(events) == 14
        hier = [e for e in edges if e.property in
                (RelationProperty.PART_OF, RelationProperty.HAS_PART)]
        assert len(hier) == 12

    def test_no_mentions_when_disabled(self):
        cfg = SyntheticConfig(n_trees=2, branching=2, height=2,
                              mentions_per_event=0, vocab=60)
        _, _, mentions = generate_synthetic(cfg)
        assert mentions == []

    def test_deterministic(self):
        a = generate_synthetic(SyntheticConfig())
        b = generate_synthetic(SyntheticConfig())
        assert a == b

    def test_seed_changes_output(self):
        a = generate_synthetic(SyntheticConfig())
        b = generate_synthetic(SyntheticConfig(seed=9))
        assert a != b

    def test_forest_builds_and_heights_respected(self):
        cfg = SyntheticConfig(n_trees=3, branching=2, height=3, vocab=80)
        events, edges, _ = generate_synthetic(cfg)
        forest = build_forest(events, edges)
        assert len(forest.tree_roots()) == 3
        assert max(forest.depth(e.id) for e in events) == 3

    def test_spans_cover_a_title_token(self):
        events, _, mentions = generate_synthetic(SyntheticConfig())
        title_of = {e.id: e.labels["en"].title for e in events}
        for m in mentions[:50]:
            assert m.surface == title_of[m.anchor_event].split()[0]

    def test_mentions_share_tokens_with_anchor_text(self):
        events, _, mentions = generate_synthetic(SyntheticConfig(noise=0.0))
        text_of = {
            e.id: set((e.labels["en"].title + " " + e.labels["en"].description).split())
            for e in events
        }
        for m in mentions[::37]:
            assert len(set(m.context.split()) & text_of[m.anchor_event]) >= 4

    def test_children_texts_overlap_parents(self):
        events, edges, _ = generate_synthetic(SyntheticConfig(noise=0.0))
        forest = build_forest(events, edges)
        text_of = {
            e.id: set((e.labels["en"].title + " " + e.labels["en"].description).split())
            for e in events
        }
        for child, parent in forest.parent.items():
            assert len(text_of[child] & text_of[parent]) >= 3

    def test_default_shape_and_split(self):
        events, edges, mentions = generate_synthetic(SyntheticConfig())
        assert len(events) == 140
        assert len(mentions) == 1400
        assignment = split_components(events, edges, (0.8, 0.1, 0.1), seed=0)
        counts = [len(assignment.events_in_split(s)) for s in SPLIT_NAMES]
        assert counts == [112, 14, 14]

    def test_temporal_edges_pair_roots(self):
        events, edges, _ = generate_synthetic(SyntheticConfig())
        forest = build_forest(events, edges)
        temporal = [e for e in edges if e.property in
                    (RelationProperty.FOLLOWS, RelationProperty.FOLLOWED_BY)]
        assert len(temporal) == 10
        roots = set(forest.roots)
        for e in temporal:
            assert e.subject in roots and e.object in roots

    def test_vocab_too_small_rejected(self):
        with pytest.raises(InvalidConfig):
            generate_synthetic(SyntheticConfig(n_trees=20, vocab=120))

    def test_height_cap_enforced(self):
        with pytest.raises(InvalidConfig):
            SyntheticConfig(height=4)

    def test_bad_noise_rejected(self):
        with pytest.raises(InvalidConfig):
            SyntheticConfig(noise=1.5)


class TestMentionSerialization:
    def test_round_trip(self, tmp_path):
        _, _, mentions = generate_synthetic(
            SyntheticConfig(n_trees=2, branching=2, height=1, vocab=40)
        )
        path = tmp_path / "mentions.jsonl"
        write_mentions(mentions, path)
        assert load_mentions(path) == mentions

    def test_byte_identical_rewrite(self, tmp_path):
        _, _, mentions = generate_synthetic(
            SyntheticConfig(n_trees=2, branching=2, height=1, vocab=40)
        )
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_mentions(mentions, p1)
        write_mentions(load_mentions(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
