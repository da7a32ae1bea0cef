"""Event knowledge base: JSONL ingestion and hierarchy forest construction.

Events carry per-language titles and descriptions.  Typed property edges
between events come in two flavours: hierarchical (has-part / part-of),
which define the child-to-parent forest, and temporal (follows /
followed-by), which only participate in zero-shot split construction.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (
    CycleDetected,
    HeightExceeded,
    MissingLabel,
    MultipleParents,
    ParseError,
    UnknownEvent,
)

DEFAULT_MAX_HEIGHT = 3
FALLBACK_LANGUAGE = "en"


class RelationProperty(str, Enum):
    """Wikidata-style property codes for the four supported edge types."""

    HAS_PART = "P527"
    PART_OF = "P361"
    FOLLOWS = "P155"
    FOLLOWED_BY = "P156"


HIERARCHICAL_PROPERTIES = frozenset(
    {RelationProperty.HAS_PART, RelationProperty.PART_OF}
)
TEMPORAL_PROPERTIES = frozenset(
    {RelationProperty.FOLLOWS, RelationProperty.FOLLOWED_BY}
)


@dataclass
class Label:
    title: str
    description: str = ""


@dataclass
class Event:
    """A knowledge-base event with per-language labels.

    ``in_hierarchy`` is set by :func:`build_forest`: true exactly when the
    event appears in at least one child-parent edge.
    """

    id: str
    labels: dict[str, Label] = field(default_factory=dict)
    in_hierarchy: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("event id must be non-empty")
        if not self.labels:
            raise ValueError(f"event {self.id!r} needs at least one language label")

    def label_for(self, language: str, fallback: str = FALLBACK_LANGUAGE) -> Label:
        """The label in ``language``, falling back to ``fallback``."""
        label = self.labels.get(language) or self.labels.get(fallback)
        if label is None:
            raise MissingLabel(self.id, language, fallback)
        return label


@dataclass(frozen=True)
class RelationEdge:
    """A typed property edge between two distinct events."""

    subject: str
    property: RelationProperty
    object: str

    def __post_init__(self):
        if self.subject == self.object:
            raise ValueError(f"self edge on {self.subject!r} is not allowed")


@dataclass
class HierarchyForest:
    """Validated child-to-parent structure over the knowledge base.

    ``parent`` maps each non-root node to its unique parent.
    ``nodes`` is the full set of known event ids, hierarchical or not.
    Derived from those two: ``children`` maps each internal node to its
    children sorted by id, and ``roots`` holds every parentless node
    (singleton events are roots of height-0 trees).
    """

    parent: dict[str, str]
    nodes: frozenset[str]
    max_height: int
    children: dict[str, list[str]] = field(init=False)
    roots: frozenset[str] = field(init=False)

    def __post_init__(self):
        self.children = {}
        for child in sorted(self.parent):
            self.children.setdefault(self.parent[child], []).append(child)
        self.roots = self.nodes.difference(self.parent)

    def hierarchy_ids(self) -> set[str]:
        """Ids of all events that appear in at least one forest edge."""
        return set(self.parent) | set(self.children)

    def tree_roots(self) -> list[str]:
        """Roots of trees with height >= 1, sorted by id."""
        return sorted(r for r in self.roots if r in self.children)

    def depth(self, event_id: str) -> int:
        """Number of edges from ``event_id`` up to its root."""
        return len(ancestor_chain(self, event_id)) - 1

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "max_height": self.max_height,
            "nodes": sorted(self.nodes),
            "parent": {c: self.parent[c] for c in sorted(self.parent)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HierarchyForest":
        return cls(
            parent=dict(data["parent"]),
            nodes=frozenset(data["nodes"]),
            max_height=int(data["max_height"]),
        )


def build_forest(
    events: list[Event],
    edges: list[RelationEdge],
    max_height: int = DEFAULT_MAX_HEIGHT,
) -> HierarchyForest:
    """Normalize hierarchical edges into a validated child-to-parent forest.

    ``e1 HAS_PART e2`` and ``e2 PART_OF e1`` both become the child edge
    e2 -> e1 and are deduplicated.  Temporal edges are ignored here (they
    only matter for split construction).  Each event's ``in_hierarchy``
    flag is set to whether it appears in a forest edge.

    Raises UnknownEvent, MultipleParents, CycleDetected or HeightExceeded
    when the edge set violates the forest invariants.
    """
    if max_height < 1:
        raise ValueError("max_height must be >= 1")
    known: set[str] = set()
    for event in events:
        if event.id in known:
            raise ValueError(f"duplicate event id {event.id!r}")
        known.add(event.id)

    child_parent: set[tuple[str, str]] = set()
    for edge in edges:
        if edge.subject not in known:
            raise UnknownEvent(edge.subject, "edge subject")
        if edge.object not in known:
            raise UnknownEvent(edge.object, "edge object")
        if edge.property == RelationProperty.HAS_PART:
            child_parent.add((edge.object, edge.subject))
        elif edge.property == RelationProperty.PART_OF:
            child_parent.add((edge.subject, edge.object))

    parent: dict[str, str] = {}
    for child, par in sorted(child_parent):
        if child in parent and parent[child] != par:
            raise MultipleParents(child, [parent[child], par])
        parent[child] = par

    _check_acyclic(parent)
    forest = HierarchyForest(parent=parent, nodes=frozenset(known), max_height=max_height)

    for node in sorted(parent):
        chain = ancestor_chain(forest, node)
        if len(chain) - 1 > max_height:
            raise HeightExceeded(chain, max_height)

    hier_ids = forest.hierarchy_ids()
    for event in events:
        event.in_hierarchy = event.id in hier_ids
    return forest


def _check_acyclic(parent: dict[str, str]) -> None:
    """Walk every parent chain; report the first cycle found (sorted order)."""
    cleared: set[str] = set()
    for start in sorted(parent):
        if start in cleared:
            continue
        path: list[str] = []
        seen_at: dict[str, int] = {}
        node = start
        while node in parent and node not in cleared:
            if node in seen_at:
                raise CycleDetected(path[seen_at[node] :] + [node])
            seen_at[node] = len(path)
            path.append(node)
            node = parent[node]
        cleared.update(path)


def ancestor_chain(forest: HierarchyForest, event_id: str) -> list[str]:
    """The path ``[event_id, parent, ..., root]``; a root returns itself."""
    if event_id not in forest.nodes:
        raise UnknownEvent(event_id)
    chain = [event_id]
    node = event_id
    while node in forest.parent:
        node = forest.parent[node]
        chain.append(node)
    return chain


def save_forest(forest: HierarchyForest, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(forest.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


_MAX_FLOAT = sys.float_info.max


def _all_str(values) -> bool:
    return all(type(v) is str for v in values)


# Each field kind a reader names: the types json gives it, a test its
# value must also pass (or None), and its JSON name.
FIELD_KINDS = {
    str: ((str,), None, "a string"),
    int: ((int,), None, "an integer"),
    float: ((float, int), lambda v: -_MAX_FLOAT <= v <= _MAX_FLOAT, "a finite number"),
    dict: ((dict,), None, "an object"),
    list: ((list,), None, "an array"),
    list[str]: ((list,), _all_str, "an array of strings"),
    dict[str, str]: ((dict,), lambda v: _all_str(v.values()), "an object of strings"),
}


class _NotANumber(ValueError):
    """A NaN or Infinity literal, which JSON does not have."""


def _not_a_number(name: str):
    raise _NotANumber(f"{name} is not a JSON number")


# neither the constant hook nor int() says where its text is: the first
# NaN or Infinity, or the first integer with more digits than int()
# converts, outside a JSON string is the one the decoder rejected
_STRING = r'"(?:[^"\\]|\\.)*"|'
_CONSTANT = re.compile(_STRING + "(NaN|-?Infinity)")


def _long_integer() -> re.Pattern:
    """An integer part past the digit limit (fraction and exponent digits are not)."""
    digits = sys.get_int_max_str_digits() + 1
    return re.compile(_STRING + r"(?<![\d.eE+])(?<![eE]-)(\d{%d,})(?![\d.eE])" % digits)


_DECODER = json.JSONDecoder(parse_constant=_not_a_number)


def _records(path: str | Path, lines, kinds: dict):
    """Yield (line number, record) for each (line number, text) of ``lines``
    whose text is not blank.  Each record is a JSON object whose fields
    named in ``kinds`` are each of their kind in ``FIELD_KINDS`` (``int`` is
    never a bool, ``float`` is any finite number); text that is not JSON,
    not an object or has such a field missing or of another type is a
    ParseError at its line."""
    checks = [(name, *FIELD_KINDS[kind]) for name, kind in kinds.items()]
    for line_no, text in lines:
        if text.isspace():
            continue
        try:
            record = _DECODER.decode(text)
        except ValueError as exc:
            pos = getattr(exc, "pos", None)
            if pos is None:
                literal = _CONSTANT if isinstance(exc, _NotANumber) else _long_integer()
                pos = next((m.start(1) for m in literal.finditer(text) if m.group(1)), 0)
            line = line_no + text.rstrip().count("\n", 0, pos)
            raise ParseError(str(path), line, f"bad JSON: {getattr(exc, 'msg', exc)}") from None
        if type(record) is not dict:
            raise ParseError(str(path), line_no, "must hold a JSON object")
        for name, types, test, what in checks:
            value = record.get(name)
            if type(value) not in types or test and not test(value):
                problem = f"must be {what}" if name in record else "is missing"
                raise ParseError(str(path), line_no, f"field {name!r} {problem}")
        yield line_no, record


def read_jsonl(path: str | Path, **kinds):
    """Yield (line number, record) for each non-blank line of a JSONL file,
    every record checked against ``kinds`` as ``_records`` says."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from _records(path, enumerate(fh, start=1), kinds)


def entry_ids(
    path: str | Path, line_no: int, entries: list, name: str, score: str
) -> list[str]:
    """The id of each ``{name: string, score: number}`` object in ``entries``,
    a JSON array of line ``line_no``; any other entry, or a score past the
    float range, is a ParseError.  The check runs inline, since a
    retrievals file holds tens of thousands of entries."""
    numbers = FIELD_KINDS[float][0]
    ids = []
    for entry in entries:
        if type(entry) is dict:
            ident, value = entry.get(name), entry.get(score)
            if type(ident) is str and type(value) in numbers and -_MAX_FLOAT <= value <= _MAX_FLOAT:
                ids.append(ident)
                continue
        raise ParseError(
            str(path), line_no, f'each entry must be {{"{name}": string, "{score}": finite number}}'
        )
    return ids


def scored_ids(
    path: str | Path, line_no: int, entries: list, name: str, score: str
) -> list[tuple[str, float]]:
    """(id, float score) of each entry that ``entry_ids`` accepts."""
    ids = entry_ids(path, line_no, entries, name, score)
    return [(ident, float(entry[score])) for ident, entry in zip(ids, entries)]


def scored_json(
    pairs: list[tuple[str, float]], name: str, score: str, quoted: dict[str, str]
) -> str:
    """``json.dumps`` of ``[{name: id, score: score}, ...]``, formatted
    directly, the writer's side of ``scored_ids``: ids through ``json.dumps``,
    memoized in ``quoted`` across calls, and float scores through ``repr``."""
    entries = []
    for ident, value in pairs:
        text = quoted.get(ident)
        if text is None:
            text = quoted[ident] = json.dumps(ident)
        number = repr(value) if type(value) is float else json.dumps(value)
        entries.append(f'{{"{name}": {text}, "{score}": {number}}}')
    return f"[{', '.join(entries)}]"


def read_json_fields(path: str | Path, **kinds) -> dict:
    """A file's one JSON object whose named fields are each of their kind,
    as ``read_jsonl`` checks a line; any other file is a ParseError."""
    # stripped, a blank file is the text "", bad JSON rather than a skipped line
    text = Path(path).read_text("utf-8").rstrip()
    return next(_records(path, [(1, text)], kinds))[1]


def load_forest(path: str | Path) -> HierarchyForest:
    return HierarchyForest.from_dict(
        read_json_fields(path, parent=dict[str, str], nodes=list[str], max_height=int)
    )


def load_events(path: str | Path) -> list[Event]:
    """Read events.jsonl: one ``{"id", "labels": {lang: {"title",
    "description"}}}`` per line, the description optional."""
    events: list[Event] = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path, id=str, labels=dict):
        event_id, raw_labels = obj["id"], obj["labels"]
        if not event_id:
            raise ParseError(str(path), line_no, "id must be a non-empty string")
        if event_id in seen:
            raise ParseError(str(path), line_no, f"duplicate event id {event_id!r}")
        labels = {
            lang: Label(lab["title"], lab.get("description", ""))
            for lang, lab in raw_labels.items()
            if type(lab) is dict
            and type(lab.get("title")) is str
            and type(lab.get("description", "")) is str
        }
        if not labels or len(labels) < len(raw_labels):
            raise ParseError(
                str(path), line_no,
                'labels must map one or more languages to {"title": string, "description": string}',
            )
        for lang, label in labels.items():
            require_text(path, line_no, f"{lang} title", label.title)
            require_text(path, line_no, f"{lang} description", label.description)
        seen.add(event_id)
        events.append(Event(id=event_id, labels=labels))
    return events


def load_relations(path: str | Path) -> list[RelationEdge]:
    """Read relations.jsonl: ``{"subject", "property", "object"}`` per line."""
    edges: list[RelationEdge] = []
    codes = {p.value: p for p in RelationProperty}
    for line_no, obj in read_jsonl(path, subject=str, property=str, object=str):
        subject, prop, object_ = obj["subject"], obj["property"], obj["object"]
        if prop not in codes:
            raise ParseError(str(path), line_no, f"unknown property {prop!r}")
        if subject == object_:
            raise ParseError(str(path), line_no, f"self edge on {subject!r}")
        edges.append(RelationEdge(subject=subject, property=codes[prop], object=object_))
    return edges


def write_events(events: list[Event], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            record = {
                "id": event.id,
                "labels": {
                    lang: {"title": lab.title, "description": lab.description}
                    for lang, lab in event.labels.items()
                },
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_relations(edges: list[RelationEdge], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for edge in edges:
            record = {
                "subject": edge.subject,
                "property": edge.property.value,
                "object": edge.object,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def require_text(path: str | Path, line_no: int, field: str, value: str) -> str:
    """``value`` if it encodes as UTF-8 (JSON can spell a lone surrogate,
    which cannot be hashed); ParseError otherwise."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(
            str(path), line_no, f"{field} does not encode as UTF-8: {exc.reason} at {exc.start}"
        ) from None
    return value
