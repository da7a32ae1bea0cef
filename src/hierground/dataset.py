"""Mentions, gold-set expansion, zero-shot splits, and synthetic corpora.

A mention is grounded to the full ancestor chain of its anchor event, so
gold sets range from a single atomic event up to a chain of
``max_height + 1`` events.  Splits are zero-shot: connected components
over hierarchical and temporal edges are assigned wholesale to train,
dev or test, so evaluation hierarchies are never seen in training.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import EmptyKB, InvalidConfig, ParseError, UnknownEvent
from .kb import (
    Event,
    HierarchyForest,
    Label,
    RelationEdge,
    RelationProperty,
    ancestor_chain,
    read_json_fields,
    read_jsonl,
    require_text,
)
from .seeding import substream_rng

logger = logging.getLogger(__name__)

SPLIT_NAMES = ("train", "dev", "test")


@dataclass(frozen=True)
class Mention:
    """A text mention of an event: a context window plus a character span."""

    id: str
    language: str
    context: str
    span_start: int
    span_end: int
    anchor_event: str

    def __post_init__(self):
        if not (0 <= self.span_start < self.span_end <= len(self.context)):
            raise ValueError(
                f"mention {self.id!r}: span [{self.span_start}, {self.span_end}) "
                f"outside context of length {len(self.context)}"
            )

    @property
    def surface(self) -> str:
        return self.context[self.span_start : self.span_end]


@dataclass
class GroundingInstance:
    """A mention paired with its gold event set (anchor-first chain order)."""

    mention: Mention
    gold: tuple[str, ...]

    @property
    def gold_set(self) -> frozenset[str]:
        return frozenset(self.gold)

    @property
    def atomic_event(self) -> str:
        """The deepest gold event, i.e. the anchor itself."""
        return self.gold[0]


def expand_gold(
    forest: HierarchyForest, mentions: list[Mention]
) -> list[GroundingInstance]:
    """Expand each mention's anchor into its full ancestor chain.

    The gold set of a mention is its anchor event plus every ancestor up
    to the root of the anchor's tree; an out-of-hierarchy anchor yields
    the singleton chain.  Unknown anchors raise UnknownEvent.
    """
    return [
        GroundingInstance(
            mention=m, gold=tuple(ancestor_chain(forest, m.anchor_event))
        )
        for m in mentions
    ]


class UnionFind:
    """Disjoint sets over string keys with path compression."""

    def __init__(self):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}

    def add(self, key: str) -> None:
        if key not in self._parent:
            self._parent[key] = key
            self._size[key] = 1

    def find(self, key: str) -> str:
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def groups(self) -> list[list[str]]:
        """Members per component, each sorted; components sorted by min id."""
        by_root: dict[str, list[str]] = {}
        for key in self._parent:
            by_root.setdefault(self.find(key), []).append(key)
        return sorted((sorted(g) for g in by_root.values()), key=lambda g: g[0])


@dataclass
class SplitAssignment:
    """Component ids per event and a split per component."""

    component_of: dict[str, str]
    split_of: dict[str, str]
    seed: int

    def split_for_event(self, event_id: str) -> str:
        if event_id not in self.component_of:
            raise UnknownEvent(event_id, "split assignment")
        return self.split_of[self.component_of[event_id]]

    def events_in_split(self, split: str) -> list[str]:
        return sorted(
            e for e, c in self.component_of.items() if self.split_of[c] == split
        )

    def to_dict(self) -> dict:
        return {
            "components": {e: self.component_of[e] for e in sorted(self.component_of)},
            "splits": {c: self.split_of[c] for c in sorted(self.split_of)},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SplitAssignment":
        return cls(
            component_of=dict(data["components"]),
            split_of=dict(data["splits"]),
            seed=int(data["seed"]),
        )


def integer_quotas(total: int, ratios: tuple[float, float, float]) -> tuple[int, ...]:
    """Apportion ``total`` into integer quotas by largest remainder.

    Avoids float artifacts such as 0.8 * 10 exceeding 8 in binary; the
    quotas always sum exactly to ``total``.
    """
    if len(ratios) != len(SPLIT_NAMES):
        raise InvalidConfig(f"need {len(SPLIT_NAMES)} ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidConfig(f"ratios must be nonnegative and sum to 1, got {ratios}")
    exact = [total * r for r in ratios]
    floors = [int(np.floor(x)) for x in exact]
    shortfall = total - sum(floors)
    remainders = sorted(
        range(len(ratios)), key=lambda i: (-(exact[i] - floors[i]), i)
    )
    for i in remainders[:shortfall]:
        floors[i] += 1
    return tuple(floors)


def split_components(
    events: list[Event],
    edges: list[RelationEdge],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitAssignment:
    """Zero-shot splits: connected components assigned wholesale to splits.

    Components are built by union-find over all four edge properties
    (hierarchical and temporal alike), shuffled by a seeded permutation,
    and assigned greedily: fill train until its event-count quota is met,
    then dev, with the remainder going to test.  Quotas are integer
    largest-remainder apportionments of the ratios.
    """
    if not events:
        raise EmptyKB("cannot split an empty knowledge base")
    uf = UnionFind()
    for event in events:
        uf.add(event.id)
    known = {event.id for event in events}
    for edge in edges:
        if edge.subject not in known:
            raise UnknownEvent(edge.subject, "edge subject")
        if edge.object not in known:
            raise UnknownEvent(edge.object, "edge object")
        uf.union(edge.subject, edge.object)

    groups = uf.groups()
    component_of: dict[str, str] = {}
    component_ids: list[str] = []
    for group in groups:
        comp_id = group[0]
        component_ids.append(comp_id)
        for member in group:
            component_of[member] = comp_id

    rng = substream_rng(seed, "split")
    order = rng.permutation(len(groups))

    quotas = integer_quotas(len(events), ratios)
    counts = [0, 0, 0]
    split_of: dict[str, str] = {}
    target = 0
    for idx in order:
        while target < len(SPLIT_NAMES) - 1 and counts[target] >= quotas[target]:
            target += 1
        split_of[component_ids[idx]] = SPLIT_NAMES[target]
        counts[target] += len(groups[idx])
    return SplitAssignment(component_of=component_of, split_of=split_of, seed=seed)


def select_split(
    mentions: list[Mention], assignment: SplitAssignment, split: str
) -> list[Mention]:
    """Mentions whose anchor's component belongs to ``split``.

    Mentions anchored outside the assignment are dropped with a logged
    count rather than raising, so partial corpora remain usable.
    """
    if split not in SPLIT_NAMES:
        raise InvalidConfig(f"unknown split {split!r}")
    selected: list[Mention] = []
    dropped = 0
    for mention in mentions:
        comp = assignment.component_of.get(mention.anchor_event)
        if comp is None:
            dropped += 1
            continue
        if assignment.split_of[comp] == split:
            selected.append(mention)
    if dropped:
        logger.warning(
            "dropped %d mention(s) with anchors outside the split assignment", dropped
        )
    return selected


def candidate_pool(
    events: list[Event],
    assignment: SplitAssignment | None = None,
    split: str | None = None,
    mode: str = "inference",
) -> list[str]:
    """Candidate event ids for retrieval, sorted by id.

    Training mode restricts to in-hierarchy events of the active split;
    inference mode returns the whole knowledge base, singletons included.
    """
    if mode == "inference":
        return sorted(event.id for event in events)
    if mode != "train":
        raise InvalidConfig(f"unknown candidate mode {mode!r}")
    if assignment is None or split is None:
        raise InvalidConfig("train mode needs a split assignment and split name")
    return sorted(
        event.id
        for event in events
        if event.in_hierarchy and assignment.split_for_event(event.id) == split
    )


def corpus_stats(
    events: list[Event],
    edges: list[RelationEdge],
    mentions: list[Mention],
    forest: HierarchyForest | None = None,
) -> dict:
    """Descriptive counts used by ingestion reports."""
    per_property: dict[str, int] = {p.value: 0 for p in RelationProperty}
    for edge in edges:
        per_property[edge.property.value] += 1
    per_language: dict[str, int] = {}
    for mention in mentions:
        per_language[mention.language] = per_language.get(mention.language, 0) + 1
    stats = {
        "n_events": len(events),
        "n_relations": len(edges),
        "relations_by_property": per_property,
        "n_mentions": len(mentions),
        "mentions_by_language": dict(sorted(per_language.items())),
    }
    if forest is not None:
        gold_sizes: dict[int, int] = {}
        for mention in mentions:
            if mention.anchor_event in forest.nodes:
                size = len(ancestor_chain(forest, mention.anchor_event))
                gold_sizes[size] = gold_sizes.get(size, 0) + 1
        stats["n_in_hierarchy_events"] = len(forest.hierarchy_ids())
        stats["n_trees"] = len(forest.tree_roots())
        stats["gold_set_sizes"] = {str(k): gold_sizes[k] for k in sorted(gold_sizes)}
        stats["avg_children"] = (
            float(np.mean([len(c) for c in forest.children.values()]))
            if forest.children
            else 0.0
        )
        # per tree, the deepest anchor depth any mention attests; a tree
        # mentioned only at its root contributes 0
        attested: dict[str, int] = {}
        for mention in mentions:
            if mention.anchor_event not in forest.nodes:
                continue
            chain = ancestor_chain(forest, mention.anchor_event)
            root = chain[-1]
            attested[root] = max(attested.get(root, 0), len(chain) - 1)
        roots = forest.tree_roots()
        stats["avg_effective_depth"] = (
            float(np.mean([attested.get(r, 0) for r in roots])) if roots else 0.0
        )
    return stats


# ---------------------------------------------------------------------------
# Synthetic corpora


@dataclass
class SyntheticConfig:
    """Shape of a generated corpus of complete b-ary event trees.

    Defaults give 20 trees of 7 events each (140 events, 1400 mentions),
    small enough to train in seconds yet granular enough that the greedy
    component assignment fills every split.
    """

    n_trees: int = 20
    branching: int = 2
    height: int = 2
    mentions_per_event: int = 10
    vocab: int = 600
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.branching < 1 or not 0 <= self.height <= 3:
            raise InvalidConfig("n_trees, branching >= 1 and 0 <= height <= 3 required")
        if self.mentions_per_event < 0 or self.vocab < 10:
            raise InvalidConfig("mentions_per_event >= 0 and vocab >= 10 required")
        if not 0.0 <= self.noise <= 1.0:
            raise InvalidConfig("noise must be in [0, 1]")


def generate_synthetic(
    config: SyntheticConfig,
) -> tuple[list[Event], list[RelationEdge], list[Mention]]:
    """Generate complete trees whose labels reuse a shared vocabulary.

    Every event gets a globally unique name token (the mention span) and
    a three-token signature drawn from one pool shared by all trees.  An
    event's text quotes its parent's and children's signatures, so
    children lexically overlap their parents; a mention's context quotes
    the anchor's signature and every ancestor's, plus neutral filler
    and, at the noise rate, a distractor signature token from a sibling.
    Because signatures come from a common pool, a model fit on some
    trees can still rank events of held-out trees by signature overlap.

    Event ids are assigned deepest level first, so among a node's strict
    ancestors the immediate parent always has the smallest id.  Ties in
    id-ordered rankings then resolve toward the true parent.
    """
    rng = substream_rng(config.seed, "synth")
    sig_per_event = 3

    n_per_tree = sum(config.branching**level for level in range(config.height + 1))
    n_events = config.n_trees * n_per_tree

    # nodes[tree][level] = list of per-level positions, each a node index path
    levels: list[list[list[int]]] = []
    for _ in range(config.n_trees):
        tree_levels = [[0]]
        for level in range(1, config.height + 1):
            tree_levels.append(list(range(config.branching ** level)))
        levels.append(tree_levels)

    width = max(2, len(str(n_events - 1)))
    ids: dict[tuple[int, int, int], str] = {}
    counter = 0
    for level in range(config.height, -1, -1):
        for tree in range(config.n_trees):
            for pos in levels[tree][level]:
                ids[(tree, level, pos)] = f"E{counter:0{width}d}"
                counter += 1

    # distinct random letter strings keep token n-gram profiles nearly
    # orthogonal, so a linear encoder can actually separate the events
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: list[str] = []
    seen_words: set[str] = set()
    while len(words) < config.vocab:
        word = "".join(letters[rng.integers(0, 26, size=5)])
        if word not in seen_words:
            seen_words.add(word)
            words.append(word)

    def token(i: int) -> str:
        return words[i]

    # vocabulary layout: unique names | shared signature pool | fillers
    if config.vocab < n_events + 8:
        raise InvalidConfig(
            f"vocab {config.vocab} too small for {n_events} events; "
            f"need at least {n_events + 8}"
        )
    pool_size = max(sig_per_event, (config.vocab - n_events) // 4)
    sig_offset = n_events
    filler_pool = np.arange(n_events + pool_size, config.vocab, dtype=np.int64)

    keys = [
        (tree, level, pos)
        for tree in range(config.n_trees)
        for level in range(config.height + 1)
        for pos in levels[tree][level]
    ]
    name_token = {key: token(i) for i, key in enumerate(keys)}
    signature = {
        key: [
            token(sig_offset + int(j))
            for j in rng.choice(pool_size, size=sig_per_event, replace=False)
        ]
        for key in keys
    }

    def parent_key(key: tuple[int, int, int]) -> tuple[int, int, int] | None:
        tree, level, pos = key
        if level == 0:
            return None
        return (tree, level - 1, pos // config.branching)

    def child_keys(key: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        tree, level, pos = key
        if level == config.height:
            return []
        return [
            (tree, level + 1, pos * config.branching + i)
            for i in range(config.branching)
        ]

    events: list[Event] = []
    for key in keys:
        sig = signature[key]
        pk = parent_key(key)
        # children quote their parent's signature and parents their
        # children's, like part-whole pages describing their parts
        desc_tokens = sig[1:]
        if pk is not None:
            desc_tokens = desc_tokens + signature[pk]
        for ck in child_keys(key):
            desc_tokens = desc_tokens + signature[ck]
        events.append(
            Event(
                id=ids[key],
                labels={
                    "en": Label(
                        title=f"{name_token[key]} {sig[0]}",
                        description=" ".join(desc_tokens),
                    )
                },
            )
        )
    events.sort(key=lambda e: e.id)

    edges: list[RelationEdge] = []
    for key in keys:
        pk = parent_key(key)
        if pk is None:
            continue
        # alternate encodings by level parity to exercise normalization
        if key[1] % 2 == 1:
            edges.append(
                RelationEdge(
                    subject=ids[pk],
                    property=RelationProperty.HAS_PART,
                    object=ids[key],
                )
            )
        else:
            edges.append(
                RelationEdge(
                    subject=ids[key],
                    property=RelationProperty.PART_OF,
                    object=ids[pk],
                )
            )
    for pair in range(config.n_trees // 2):
        a = ids[(2 * pair, 0, 0)]
        b = ids[(2 * pair + 1, 0, 0)]
        prop = (
            RelationProperty.FOLLOWS if pair % 2 == 0 else RelationProperty.FOLLOWED_BY
        )
        edges.append(RelationEdge(subject=b, property=prop, object=a))

    def siblings(key: tuple[int, int, int]) -> list[tuple[int, int, int]]:
        pk = parent_key(key)
        if pk is None:
            return [(t, 0, 0) for t in range(config.n_trees) if (t, 0, 0) != key]
        return [ck for ck in child_keys(pk) if ck != key]

    mentions: list[Mention] = []
    mention_width = max(4, len(str(n_events * config.mentions_per_event)))
    ordinal = 0
    for key in keys:
        anchor = ids[key]
        ancestors: list[tuple[int, int, int]] = []
        walk = parent_key(key)
        while walk is not None:
            ancestors.append(walk)
            walk = parent_key(walk)
        rivals = siblings(key)
        for _ in range(config.mentions_per_event):
            context_tokens = [name_token[key]] + list(signature[key])
            for a in ancestors:
                context_tokens.extend(signature[a])
            fillers = rng.choice(filler_pool, size=2, replace=False)
            context_tokens.extend(token(int(i)) for i in fillers)
            if rivals and rng.random() < config.noise:
                rival = rivals[int(rng.integers(0, len(rivals)))]
                context_tokens.append(
                    signature[rival][int(rng.integers(0, sig_per_event))]
                )
            order = rng.permutation(len(context_tokens))
            shuffled = [context_tokens[i] for i in order]
            span_token = name_token[key]
            span_index = shuffled.index(span_token)
            start = sum(len(t) + 1 for t in shuffled[:span_index])
            mentions.append(
                Mention(
                    id=f"M{ordinal:0{mention_width}d}",
                    language="en",
                    context=" ".join(shuffled),
                    span_start=start,
                    span_end=start + len(span_token),
                    anchor_event=anchor,
                )
            )
            ordinal += 1
    mentions.sort(key=lambda m: m.id)
    return events, edges, mentions


# ---------------------------------------------------------------------------
# Serialization


# The JSON kind of each Mention field, in the order Mention declares them.
_MENTION_KINDS = dict(
    id=str, language=str, context=str, span_start=int, span_end=int, anchor_event=str
)
_mention_fields = itemgetter(*_MENTION_KINDS)


def load_mentions(path: str | Path) -> list[Mention]:
    """Read mentions.jsonl; spans are validated against the context."""
    mentions: list[Mention] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path, **_MENTION_KINDS):
        require_text(path, line_no, "context", obj["context"])
        try:
            mention = Mention(*_mention_fields(obj))
        except ValueError as exc:  # the span does not fit the context
            raise ParseError(str(path), line_no, str(exc)) from exc
        if mention.id in seen:
            raise ParseError(str(path), line_no, f"duplicate mention id {mention.id!r}")
        seen.add(mention.id)
        mentions.append(mention)
    return mentions


def write_mentions(mentions: list[Mention], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in mentions:
            fh.write(json.dumps(vars(m), ensure_ascii=False) + "\n")


def save_splits(assignment: SplitAssignment, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(assignment.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_splits(path: str | Path) -> SplitAssignment:
    data = read_json_fields(path, components=dict[str, str], splits=dict[str, str], seed=int)
    for component in data["components"].values():
        if component not in data["splits"]:
            raise ParseError(str(path), 1, f"component {component!r} has no split")
    return SplitAssignment.from_dict(data)
