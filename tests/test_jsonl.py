"""The one typed JSONL reader, every JSONL writer read back by its loader,
and every text writer's failure leaving the earlier file as it was."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierground.dataset import (
    Mention,
    SplitAssignment,
    load_mentions,
    save_splits,
    write_mentions,
)
from hierground.errors import NonFiniteScore, ParseError
from hierground.kb import (
    Event,
    HierarchyForest,
    Label,
    RelationEdge,
    RelationProperty,
    load_events,
    load_relations,
    read_json_fields,
    read_jsonl,
    save_forest,
    scored_ids,
    write_events,
    write_json,
    write_lines,
    write_relations,
)
from hierground.metrics import write_recall_tsv
from hierground.relext import load_parents, write_parents
from hierground.rerank import load_predictions, write_predictions
from hierground.retrieval import RetrievalResult, load_retrievals, write_retrievals
from hierground.training import EpochLog, TrainLog, write_training_log


def read(tmp_path, text: str, **kinds) -> list:
    path = tmp_path / "records.jsonl"
    path.write_text(text, encoding="utf-8")
    return list(read_jsonl(path, **kinds))


def rejected(tmp_path, text: str, **kinds) -> ParseError:
    with pytest.raises(ParseError) as err:
        read(tmp_path, text, **kinds)
    assert err.value.path == str(tmp_path / "records.jsonl")
    return err.value


class TestReadJsonl:
    def test_yields_line_numbers_and_skips_blank_lines(self, tmp_path):
        text = '{"a": 1}\n\n  \t\n  {"a": 2}  \n{"a": 3}'
        assert read(tmp_path, text, a=int) == [(1, {"a": 1}), (4, {"a": 2}), (5, {"a": 3})]

    @pytest.mark.parametrize(
        "kind, good, bad",
        [
            (str, ["", "x"], [5, None, ["x"], {"x": "y"}, True]),
            (int, [0, -3, 10**20], [True, False, 1.0, "1", None, [1]]),
            (float, [0, 1.5, -2, 1e300], [True, "1.5", None, [1.5], 10**400, -(10**400)]),
            (dict, [{}, {"a": [1]}], [[], "x", None]),
            (list, [[], [1, "a"]], [{}, "ab", None]),
            (list[str], [[], ["a", "b"]], [["a", 1], [None], "ab", {"a": "b"}]),
            (dict[str, str], [{}, {"a": "b"}], [{"a": 1}, {"a": ["b"]}, ["a"]]),
        ],
    )
    def test_field_kinds(self, tmp_path, kind, good, bad):
        for value in good:
            assert read(tmp_path, json.dumps({"f": value}), f=kind) == [(1, {"f": value})]
        for value in bad:
            text = json.dumps({"f": good[0]}) + "\n" + json.dumps({"f": value}) + "\n"
            err = rejected(tmp_path, text, f=kind)
            assert err.line == 2
            assert "'f' must be" in err.reason

    def test_missing_field(self, tmp_path):
        err = rejected(tmp_path, '{"a": "x"}\n', a=str, b=str)
        assert (err.line, err.reason) == (1, "field 'b' is missing")

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_float_past_the_float_range(self, tmp_path, literal):
        # json reads such a literal as an infinity, which no writer writes
        err = rejected(tmp_path, '{"f": 1.0}\n{"f": %s}\n' % literal, f=float)
        assert (err.line, err.reason) == (2, "field 'f' must be a finite number")

    @pytest.mark.parametrize("text", ["[]", '"x"', "5", "null"])
    def test_record_must_be_an_object(self, tmp_path, text):
        assert rejected(tmp_path, "{}\n" + text).line == 2

    @pytest.mark.parametrize(
        "text", ["{", '{"a": 1} x', '{"a": 1}{}', '{"a": NaN}', '{"a": -Infinity}', "\ufeff{}"]
    )
    def test_text_that_is_not_json(self, tmp_path, text):
        err = rejected(tmp_path, "{}\n\n" + text + "\n")
        assert err.line == 3
        assert err.reason.startswith("bad JSON")

    def test_scored_ids(self):
        entries = [{"event": "A", "score": 2}, {"event": "B", "score": -0.5, "x": None}]
        pairs = scored_ids("f.jsonl", 1, entries, "event", "score")
        assert pairs == [("A", 2.0), ("B", -0.5)]
        assert all(type(score) is float for _, score in pairs)

    @pytest.mark.parametrize(
        "entry",
        [
            ["B", 1.0],
            {"event": "B"},
            {"event": 5, "score": 1.0},
            {"event": ["B"], "score": 1.0},
            {"event": "B", "score": "1.0"},
            {"event": "B", "score": True},
            {"event": "B", "score": None},
            {"event": "B", "score": 10**400},
            {"event": "B", "score": float("inf")},  # how json reads 1e400
            {"event": "B", "score": -float("inf")},
        ],
    )
    def test_scored_ids_rejects(self, entry):
        with pytest.raises(ParseError) as err:
            scored_ids("f.jsonl", 7, [{"event": "A", "score": 1.0}, entry], "event", "score")
        assert (err.value.path, err.value.line) == ("f.jsonl", 7)

    @pytest.mark.parametrize("score", ["1e400", "-1e400", "1" + "0" * 400])
    def test_retrieval_score_past_the_float_range(self, tmp_path, score):
        # write_retrievals refuses a non-finite score, so load_retrievals does too
        path = tmp_path / "retrievals.jsonl"
        path.write_text(
            '{"mention_id": "M", "candidates": [{"event": "E", "score": %s}]}\n' % score,
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="finite number") as err:
            load_retrievals(path)
        assert err.value.line == 1

    def test_read_json_fields_shares_the_check(self, tmp_path):
        path = tmp_path / "fields.json"
        path.write_text('{\n  "a": ["x"],\n  "b": true\n}\n', encoding="utf-8")
        assert read_json_fields(path, a=list[str]) == {"a": ["x"], "b": True}
        with pytest.raises(ParseError, match="'b' must be an integer"):
            read_json_fields(path, b=int)
        path.write_text('{\n  "a": 1,\n  "b" 2\n}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_json_fields(path)
        assert err.value.line == 3
        for text, line in [("", 1), (" \n\n", 1), ('\n{\n  "a": 1,\n\n', 3)]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError) as err:
                read_json_fields(path)
            assert err.value.line == line

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("line", [2, 4])
    def test_constant_reported_at_its_line(self, tmp_path, literal, line):
        # on line 4, a string before it holds its text, an escaped quote too
        lines = ['{', '  "a": "NaN, Infinity \\" -Infinity",', '  "b": [1, 2],', '  "c": 0,', '  "d": 1', '}']
        lines[line - 1] = f'  "s": {literal},'
        path = tmp_path / "splits.json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_json_fields(path)
        assert (err.value.line, err.value.reason) == (line, f"bad JSON: {literal} is not a JSON number")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_the_digit_limit_reported_at_its_line(self, tmp_path, sign):
        # int() converts at most 4300 digits; a fraction, an exponent or a
        # string of as many digits before it is no such integer
        digits = "9" * 5000
        lines = ['{', f'  "a": "{digits}", "b": 1.{digits}, "c": 1e-{digits},',
                 f'  "seed": {sign}{digits},', '  "components": {}', '}']
        path = tmp_path / "splits.json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_json_fields(path)
        assert err.value.line == 3
        assert "4300 digits" in err.value.reason

    def test_constant_text_inside_a_string_is_no_literal(self, tmp_path):
        path = tmp_path / "splits.json"
        path.write_text('{\n  "a": "NaN",\n  "b": "x\\" -Infinity"\n}\n', encoding="utf-8")
        assert read_json_fields(path) == {"a": "NaN", "b": 'x" -Infinity'}


# ---------------------------------------------------------------------------
# Round trips: each writer's file read back by its loader.

# any text that encodes as UTF-8: line and paragraph separators, control
# characters and astral code points included
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
ids = texts.filter(bool)
scores = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mentions(draw) -> Mention:
    context = draw(texts.filter(bool))
    start = draw(st.integers(0, len(context) - 1))
    end = draw(st.integers(start + 1, len(context)))
    return Mention(draw(ids), draw(texts), context, start, end, draw(texts))


events = st.builds(
    Event,
    id=ids,
    labels=st.dictionaries(texts, st.builds(Label, texts, texts), min_size=1, max_size=3),
)
edges = st.builds(
    lambda ends, prop: RelationEdge(ends[0], prop, ends[1]),
    st.lists(ids, min_size=2, max_size=2, unique=True),
    st.sampled_from(list(RelationProperty)),
)
results = st.builds(RetrievalResult, ids, st.lists(st.tuples(texts, scores), max_size=4))


def round_trip(write, load, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.jsonl"
        write(value, path)
        return load(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(events, max_size=4, unique_by=lambda e: e.id))
def test_events_round_trip(value):
    assert round_trip(write_events, load_events, value) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(edges, max_size=4))
def test_relations_round_trip(value):
    assert round_trip(write_relations, load_relations, value) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(mentions(), max_size=4, unique_by=lambda m: m.id))
def test_mentions_round_trip(value):
    assert round_trip(write_mentions, load_mentions, value) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(results, max_size=4, unique_by=lambda r: r.mention_id))
def test_retrievals_round_trip(value):
    loaded = round_trip(write_retrievals, load_retrievals, value)
    assert [(r.mention_id, r.candidates) for r in loaded] == [
        (r.mention_id, r.candidates) for r in value
    ]


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(texts, st.frozensets(texts, max_size=4), max_size=4))
def test_predictions_round_trip(value):
    assert round_trip(write_predictions, load_predictions, list(value.items())) == value


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(texts, st.lists(st.tuples(texts, scores), max_size=4), max_size=4))
def test_parents_round_trip(value):
    assert round_trip(write_parents, load_parents, value) == value


LONE = "\ud800"  # JSON can spell a lone surrogate; UTF-8 cannot encode it
NAN = float("nan")

# writer -> (value whose last record cannot be written, the error it raises)
FAILED_WRITES = {
    "events": (
        write_events,
        [Event("E1", {"en": Label("ok")}), Event("E2", {"en": Label(LONE)})],
        UnicodeEncodeError,
    ),
    "relations": (
        write_relations,
        [RelationEdge("E1", RelationProperty.PART_OF, "E2"),
         RelationEdge(LONE, RelationProperty.PART_OF, "E2")],
        UnicodeEncodeError,
    ),
    "mentions": (
        write_mentions,
        [Mention("M1", "en", "ok", 0, 1, "E1"), Mention("M2", "en", LONE, 0, 1, "E1")],
        UnicodeEncodeError,
    ),
    "predictions": (
        write_predictions,
        [("M1", frozenset({"E1"})), ("M2", frozenset({b"E2"}))],
        TypeError,
    ),
    "training_log": (
        write_training_log, TrainLog([EpochLog(0, 0.5, None), EpochLog(1, NAN, None)]), ValueError
    ),
    "recall_tsv": (write_recall_tsv, [(1, 0.5), (LONE, 1.0)], UnicodeEncodeError),
    "parents": (write_parents, {"E1": [("P", 0.5)], "E2": [(b"P", 0.5)]}, TypeError),
    "retrievals": (
        write_retrievals,
        [RetrievalResult("M1", [("E1", 0.5)]), RetrievalResult("M2", [("E1", NAN)])],
        NonFiniteScore,
    ),
    "forest": (save_forest, HierarchyForest({}, frozenset({"E1"}), math.inf), ValueError),
    "splits": (save_splits, SplitAssignment({"E1": "C1"}, {"C1": "train"}, NAN), ValueError),
    "json": (write_json, {"recall": NAN}, ValueError),
    "lines": (write_lines, ["ok", LONE], UnicodeEncodeError),
}


@pytest.mark.parametrize(
    "write, value, error", list(FAILED_WRITES.values()), ids=list(FAILED_WRITES)
)
def test_failed_write_leaves_the_earlier_file(tmp_path, write, value, error):
    path = tmp_path / "artifact"
    with pytest.raises(error):
        write(value, path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"earlier\n")
    with pytest.raises(error):
        write(value, path)
    assert path.read_bytes() == b"earlier\n"
    # no temporary file is left beside it
    assert list(tmp_path.iterdir()) == [path]
