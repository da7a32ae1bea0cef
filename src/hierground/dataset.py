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
    write_json,
    write_lines,
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
    if not all(r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:  # NaN fails
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

    Components are connected over all four edge properties (hierarchical
    and temporal alike) and named by their smallest event id; they are
    shuffled by a seeded permutation of that order and assigned greedily:
    fill train until its event-count quota is met, then dev, with the
    remainder going to test.  Quotas are integer largest-remainder
    apportionments of the ratios.
    """
    if not events:
        raise EmptyKB("cannot split an empty knowledge base")
    neighbours: dict[str, list[str]] = {event.id: [] for event in events}
    for edge in edges:
        if edge.subject not in neighbours:
            raise UnknownEvent(edge.subject, "edge subject")
        if edge.object not in neighbours:
            raise UnknownEvent(edge.object, "edge object")
        neighbours[edge.subject].append(edge.object)
        neighbours[edge.object].append(edge.subject)

    # a traversal from each id not yet reached, in ascending order, finds
    # the components in order of their smallest id, which names them
    component_of: dict[str, str] = {}
    sizes: dict[str, int] = {}
    for start in sorted(neighbours):
        if start in component_of:
            continue
        component_of[start] = start
        members = [start]
        for member in members:
            for other in neighbours[member]:
                if other not in component_of:
                    component_of[other] = start
                    members.append(other)
        sizes[start] = len(members)
    component_ids = list(sizes)

    rng = substream_rng(seed, "split")
    order = rng.permutation(len(component_ids))

    quotas = integer_quotas(len(events), ratios)
    counts = [0, 0, 0]
    split_of: dict[str, str] = {}
    target = 0
    for idx in order:
        while target < len(SPLIT_NAMES) - 1 and counts[target] >= quotas[target]:
            target += 1
        split_of[component_ids[idx]] = SPLIT_NAMES[target]
        counts[target] += sizes[component_ids[idx]]
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
        # per tree, the deepest anchor depth any mention attests; a tree
        # mentioned only at its root contributes 0
        attested: dict[str, int] = {}
        for mention in mentions:
            if mention.anchor_event in forest.nodes:
                chain = ancestor_chain(forest, mention.anchor_event)
                gold_sizes[len(chain)] = gold_sizes.get(len(chain), 0) + 1
                attested[chain[-1]] = max(attested.get(chain[-1], 0), len(chain) - 1)
        stats["n_in_hierarchy_events"] = len(forest.hierarchy_ids())
        stats["n_trees"] = len(forest.tree_roots())
        stats["gold_set_sizes"] = {str(k): gold_sizes[k] for k in sorted(gold_sizes)}
        stats["avg_children"] = (
            float(np.mean([len(c) for c in forest.children.values()]))
            if forest.children
            else 0.0
        )
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
    b, sig_per_event = config.branching, 3
    keys = [
        (tree, level, pos)
        for tree in range(config.n_trees)
        for level in range(config.height + 1)
        for pos in range(b**level)
    ]
    n_events = len(keys)
    # vocabulary layout: unique names | shared signature pool | fillers
    if config.vocab < n_events + 8:
        raise InvalidConfig(
            f"vocab {config.vocab} too small for {n_events} events; "
            f"need at least {n_events + 8}"
        )
    # ids deepest level first: (tree, level - 1, pos // b) is a key's
    # parent and (tree, level + 1, pos * b + i) its children
    width = max(2, len(str(n_events - 1)))
    by_id = sorted(keys, key=lambda key: (-key[1], key[0], key[2]))
    ids = {key: f"E{i:0{width}d}" for i, key in enumerate(by_id)}

    # distinct random letter strings keep token n-gram profiles nearly
    # orthogonal, so a linear encoder can actually separate the events
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    drawn: dict[str, None] = {}
    while len(drawn) < config.vocab:
        drawn["".join(letters[rng.integers(0, 26, size=5)])] = None
    words = list(drawn)

    pool_size = max(sig_per_event, (config.vocab - n_events) // 4)
    filler_pool = np.arange(n_events + pool_size, config.vocab, dtype=np.int64)
    name = dict(zip(keys, words))
    signature = {
        key: [
            words[n_events + int(j)]
            for j in rng.choice(pool_size, size=sig_per_event, replace=False)
        ]
        for key in keys
    }

    events: list[Event] = []
    edges: list[RelationEdge] = []
    mentions: list[Mention] = []
    mention_width = max(4, len(str(n_events * config.mentions_per_event)))
    for key in keys:
        tree, level, pos = key
        sig = signature[key]
        ancestors = [(tree, up, pos // b ** (level - up)) for up in range(level - 1, -1, -1)]
        below = range(b) if level < config.height else ()
        children = [(tree, level + 1, pos * b + i) for i in below]
        # rivals are the parent's other children, or the other roots
        if level:
            rivals = [(tree, level, pos - pos % b + i) for i in range(b)]
        else:
            rivals = [(other, 0, 0) for other in range(config.n_trees)]
        rivals.remove(key)

        # children quote their parent's signature and parents their
        # children's, like part-whole pages describing their parts
        quoted = sig[1:] + [t for k in ancestors[:1] + children for t in signature[k]]
        events.append(
            Event(ids[key], {"en": Label(f"{name[key]} {sig[0]}", " ".join(quoted))})
        )
        # alternate encodings by level parity to exercise normalization
        if level % 2:
            edges.append(RelationEdge(ids[ancestors[0]], RelationProperty.HAS_PART, ids[key]))
        elif level:
            edges.append(RelationEdge(ids[key], RelationProperty.PART_OF, ids[ancestors[0]]))

        context = [name[key], *sig, *(t for k in ancestors for t in signature[k])]
        for _ in range(config.mentions_per_event):
            fillers = rng.choice(filler_pool, size=2, replace=False)
            tokens = context + [words[int(i)] for i in fillers]
            if rivals and rng.random() < config.noise:
                rival = rivals[int(rng.integers(0, len(rivals)))]
                tokens.append(signature[rival][int(rng.integers(0, sig_per_event))])
            shuffled = [tokens[i] for i in rng.permutation(len(tokens))]
            start = sum(len(t) + 1 for t in shuffled[: shuffled.index(name[key])])
            mentions.append(
                Mention(
                    id=f"M{len(mentions):0{mention_width}d}",
                    language="en",
                    context=" ".join(shuffled),
                    span_start=start,
                    span_end=start + len(name[key]),
                    anchor_event=ids[key],
                )
            )
    events.sort(key=lambda e: e.id)
    for pair in range(config.n_trees // 2):
        prop = RelationProperty.FOLLOWS if pair % 2 == 0 else RelationProperty.FOLLOWED_BY
        edges.append(RelationEdge(ids[(2 * pair + 1, 0, 0)], prop, ids[(2 * pair, 0, 0)]))
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
    write_lines((json.dumps(vars(m), ensure_ascii=False) for m in mentions), path)


def save_splits(assignment: SplitAssignment, path: str | Path) -> None:
    write_json(assignment.to_dict(), path)


def load_splits(path: str | Path) -> SplitAssignment:
    data = read_json_fields(path, components=dict[str, str], splits=dict[str, str], seed=int)
    for component in data["components"].values():
        if component not in data["splits"]:
            raise ParseError(str(path), 1, f"component {component!r} has no split")
    return SplitAssignment.from_dict(data)
