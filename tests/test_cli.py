"""End-to-end pipeline runs, config precedence, machine-readable errors."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hierground import dataset, encoder, kb, relext, retrieval, rerank
from hierground.errors import ParseError
from hierground.cli import (
    DEFAULT_CONFIG,
    MANIFEST_NAME,
    OUTPUT_DIR_ENV,
    RESOLVED_CONFIG_NAME,
    build_parser,
    main,
    resolve_config,
)

SEED = ["--seed", "0"]


def corpus_args(out) -> list[str]:
    return [
        "--events", str(out / "events.jsonl"),
        "--relations", str(out / "relations.jsonl"),
        "--mentions", str(out / "mentions.jsonl"),
    ]


def run_pipeline(out) -> None:
    o = ["--output-dir", str(out)]
    c = corpus_args(out)
    s = ["--splits", str(out / "splits.json")]
    steps = [
        ["synth", *o, *SEED, "--n-trees", "10", "--mentions-per-event", "3",
         "--vocab", "200"],
        ["ingest", *o, *SEED, *c],
        ["split", *o, *SEED, "--events", c[1], "--relations", c[3]],
        ["train", *o, *SEED, *c, *s, "--strategy", "HP_HJL", "--epochs", "2",
         "--pretrain-epochs", "1", "--F", "4096", "--d", "16"],
        ["retrieve", *o, *SEED, "--events", c[1], "--mentions", c[5], *s,
         "--checkpoint", str(out / "checkpoint.bin"), "--split", "train",
         "--out", "retrievals_train.jsonl"],
        ["retrieve", *o, *SEED, "--events", c[1], "--mentions", c[5], *s,
         "--checkpoint", str(out / "checkpoint.bin"), "--split", "dev",
         "--out", "retrievals_dev.jsonl"],
        ["retrieve", *o, *SEED, "--events", c[1], "--mentions", c[5],
         "--checkpoint", str(out / "checkpoint.bin"), "--split", "all",
         "--out", "retrievals_all.jsonl"],
        ["rerank-train", *o, *SEED, *c,
         "--train-retrievals", str(out / "retrievals_train.jsonl"),
         "--dev-retrievals", str(out / "retrievals_dev.jsonl"),
         "--rerank-epochs", "2"],
        ["evaluate", *o, *SEED, *c, *s,
         "--retrievals", str(out / "retrievals_dev.jsonl"), "--split", "dev",
         "--reranker", str(out / "reranker.bin"), "--ks", "4,8",
         "--atomic-only"],
        ["relext", *o, *SEED, "--events", c[1], "--relations", c[3],
         "--retrievals", str(out / "retrievals_all.jsonl")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    run_pipeline(out)
    return out


class TestPipeline:
    def test_synth_writes_corpus(self, pipeline):
        events = (pipeline / "events.jsonl").read_text("utf-8").splitlines()
        mentions = (pipeline / "mentions.jsonl").read_text("utf-8").splitlines()
        assert len(events) == 70
        assert len(mentions) == 210

    def test_ingest_stats(self, pipeline):
        stats = json.loads((pipeline / "stats.json").read_text("utf-8"))
        assert stats["n_events"] == 70
        assert stats["n_mentions"] == 210
        assert stats["n_trees"] == 10
        assert (pipeline / "forest.json").exists()

    def test_split_covers_every_event(self, pipeline):
        assignment = dataset.load_splits(pipeline / "splits.json")
        sizes = {
            name: len(assignment.events_in_split(name))
            for name in ("train", "dev", "test")
        }
        assert sum(sizes.values()) == 70
        assert sizes["train"] == 56

    def test_train_checkpoint_has_head(self, pipeline):
        params, extra = encoder.load_checkpoint(pipeline / "checkpoint.bin")
        assert params.F == 4096
        assert params.d == 16
        assert {f"complex.{n}" for n in ("W_re", "W_im", "b_re", "b_im", "r")} <= set(
            extra
        )
        log_lines = (pipeline / "training_log.jsonl").read_text("utf-8").splitlines()
        assert len(log_lines) == 2
        first = json.loads(log_lines[0])
        assert first["hierarchy_loss"] is not None

    def test_retrievals_have_k_candidates(self, pipeline):
        results = retrieval.load_retrievals(pipeline / "retrievals_dev.jsonl")
        assert results
        for result in results:
            assert len(result.candidates) == DEFAULT_CONFIG["retrieve"]["k"]

    def test_reranker_has_selected_threshold(self, pipeline):
        params, threshold = rerank.load_reranker(pipeline / "reranker.bin")
        assert threshold in rerank.DEFAULT_GRID

    def test_evaluation_report(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text("utf-8"))
        for key in (
            "recall_at_min",
            "recall_at_4",
            "recall_at_8_fraction",
            "atomic_recall_at_4",
            "strict_acc",
            "macro_f1",
            "micro_f1",
            "threshold",
        ):
            assert key in report, key
        assert 0.0 <= report["recall_at_min"] <= 1.0
        assert report["config"]["split"] == "dev"
        assert (pipeline / "recall_strict.tsv").exists()
        assert (pipeline / "recall_atomic.tsv").exists()

    def test_predictions_written_for_each_mention(self, pipeline):
        predictions = rerank.load_predictions(pipeline / "predictions.jsonl")
        results = retrieval.load_retrievals(pipeline / "retrievals_dev.jsonl")
        assert set(predictions) == {r.mention_id for r in results}
        for predicted in predictions.values():
            assert predicted

    def test_relext_report(self, pipeline):
        report = json.loads((pipeline / "relext_report.json").read_text("utf-8"))
        for k in (1, 2, 4, 8, 16):
            assert 0.0 <= report[f"relext_recall_at_{k}"] <= 1.0
        rankings = relext.load_parents(pipeline / "parents.jsonl")
        assert rankings
        for ranking in rankings.values():
            assert len(ranking) <= DEFAULT_CONFIG["relext"]["max_ranking"]

    def test_manifest_records_runs(self, pipeline):
        manifest = json.loads((pipeline / MANIFEST_NAME).read_text("utf-8"))
        assert manifest["format_version"] == 1
        for command in ("synth", "ingest", "split", "train", "retrieve",
                        "rerank-train", "evaluate", "relext"):
            assert command in manifest["runs"], command
        assert manifest["runs"]["train"]["artifacts"] == [
            "checkpoint.bin",
            "training_log.jsonl",
        ]

    def test_resolved_config_written(self, pipeline):
        resolved = json.loads((pipeline / RESOLVED_CONFIG_NAME).read_text("utf-8"))
        assert resolved["seed"] == 0
        assert resolved["mode"] == "multilingual"


# sha256 of the synth and split files at seed 0: every workload and test
# corpus comes from them, so a refactor of the corpus layer keeps each byte
CORPUS_DIGESTS = {
    "": {
        "events.jsonl": "f3848d574b70c8aec8ebdf249d00abdd5b15afa8737f411a457713293d6c4154",
        "relations.jsonl": "8414506f73348213aeaebc43ad473f10b15e216c1b77e54f0f4f2231b1dc695e",
        "mentions.jsonl": "c15278e2a14cc02be77e2a32f42ac196d936792558f50b8d01c9f6f0867fecb0",
        "splits.json": "907b4c9672cd09d753edee1a55b2fd4181250d51e202c9419794ec29059f14bb",
    },
    "--n-trees 3 --branching 3 --height 3": {
        "events.jsonl": "e7aa4a78e57eea9861b25dd7c9fca6e6e7ea3da3c43d42a1d259532f0c8ff10e",
        "relations.jsonl": "8ef5cc7f38841911668fdcd3bc94a290dcab851f86c61fbfa931b25951b8866d",
        "mentions.jsonl": "83e9b3cb4ee1f2bf37bfd54aa8c4601746e395eca81080cb113ae175e1a779cf",
        "splits.json": "b852cf90484bc944adf535fd1c7acc50cacf1bc4e28ef3d9089d4ca66690e558",
    },
    "--height 0": {
        "events.jsonl": "4209e631d3e1e68df9fcb65dde2d882d8422dfc6454fbfde535f905d6a877f7a",
        "relations.jsonl": "285d2e15c88748fe0e1a3f237e75324cc799c6cc04dea06a5b23a9ff7089e3a2",
        "mentions.jsonl": "c5ea3190f3fd342aed30a7abf4ce17cab28f9ad0a1dedc49f3b5d658d19d44da",
        "splits.json": "7615cd5dad7a97b233a71416827aa2a4d901dcc4bde161f7620b3013545aa573",
    },
    "--noise 1.0": {
        "events.jsonl": "f3848d574b70c8aec8ebdf249d00abdd5b15afa8737f411a457713293d6c4154",
        "relations.jsonl": "8414506f73348213aeaebc43ad473f10b15e216c1b77e54f0f4f2231b1dc695e",
        "mentions.jsonl": "70fb1c3e5c3d7ef3b964b5dba1573439b2fa2d67cb7f8633d85a161ba00069de",
        "splits.json": "907b4c9672cd09d753edee1a55b2fd4181250d51e202c9419794ec29059f14bb",
    },
    "--n-trees 300 --mentions-per-event 3 --vocab 8000": {
        "events.jsonl": "469e4f432af5b2d85f27afd7eb71d666eb5d560cdf81be97d5d5555bb81e8c64",
        "relations.jsonl": "ed94ee8a6238b8f62a404d5108452d27ac7e13ba38a3c70b6ad35f577cd6fef9",
        "mentions.jsonl": "8ac009b0fb8e3e4b7eb2de8e4ad6e8c0a576ce08e8770489c902d411b63bd9c4",
        "splits.json": "811f62f82287b8dc2c113ee295f262aa66da235e8c5958bc71cba8440e3a9b5c",
    },
}


# relext over noisy root-padded gold chains of a small seeded corpus: the
# lists repeat ids and run past list_k, and 12 of the 180 events end unlinked
RELEXT_DIGESTS = {
    "parents.jsonl": "7809a9c87e779bf432c2ac9c2d029311647d3ff0f875c759eb44449f0f234d63",
    "relext_report.json": "46b25d919e053349003e1bcd35c1935df8dac25db1e9664a7c78b54ec8e22431",
}


def write_noisy_chains(out, noise: float = 0.3, slots: int = 6) -> str:
    """Gold chains padded with their root to ``slots`` ids, each slot
    swapped for a random pool event with probability ``noise``: lists that
    repeat ids and run past the default ``list_k``."""
    events = kb.load_events(out / "events.jsonl")
    forest = kb.build_forest(events, kb.load_relations(out / "relations.jsonl"))
    pool = sorted(event.id for event in events)
    rng = np.random.default_rng(0)
    results = []
    for instance in dataset.expand_gold(forest, dataset.load_mentions(out / "mentions.jsonl")):
        chain = list(instance.gold) + [instance.gold[-1]] * (slots - len(instance.gold))
        swap, picks = rng.random(slots) < noise, rng.integers(0, len(pool), size=slots)
        ids = [pool[p] if s else e for e, s, p in zip(chain, swap, picks)]
        candidates = [(e, float(slots - i)) for i, e in enumerate(ids)]
        results.append(retrieval.RetrievalResult(instance.mention.id, candidates))
    path = out / "retrievals_chains.jsonl"
    retrieval.write_retrievals(results, path)
    return str(path)


class TestDeterminism:
    @pytest.mark.parametrize("flags", list(CORPUS_DIGESTS))
    def test_corpus_bytes_are_pinned(self, tmp_path, flags):
        o = ["--output-dir", str(tmp_path), *SEED]
        assert main(["synth", *o, *flags.split()]) == 0
        assert main(["split", *o, "--events", str(tmp_path / "events.jsonl"),
                     "--relations", str(tmp_path / "relations.jsonl")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in CORPUS_DIGESTS[flags]
        }
        assert digests == CORPUS_DIGESTS[flags]

    def test_relext_bytes_are_pinned(self, tmp_path):
        o = ["--output-dir", str(tmp_path), *SEED]
        assert main(["synth", *o, "--n-trees", "12", "--height", "3",
                     "--mentions-per-event", "1", "--vocab", "200"]) == 0
        retrievals = write_noisy_chains(tmp_path)
        assert main(["relext", *o, "--events", str(tmp_path / "events.jsonl"),
                     "--relations", str(tmp_path / "relations.jsonl"),
                     "--retrievals", retrievals]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in RELEXT_DIGESTS
        }
        assert digests == RELEXT_DIGESTS

    def test_pipeline_artifacts_are_byte_identical(self, pipeline, tmp_path):
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        run_pipeline(rerun)
        for name in (
            "events.jsonl",
            "relations.jsonl",
            "mentions.jsonl",
            "splits.json",
            "checkpoint.bin",
            "training_log.jsonl",
            "retrievals_train.jsonl",
            "retrievals_dev.jsonl",
            "retrievals_all.jsonl",
            "reranker.bin",
            "report.json",
            "predictions.jsonl",
            "parents.jsonl",
            "relext_report.json",
        ):
            assert (pipeline / name).read_bytes() == (rerun / name).read_bytes(), name


class TestGradCheckCommand:
    def test_writes_and_prints_small_errors(self, tmp_path, capsys):
        assert main(["grad-check", "--output-dir", str(tmp_path), *SEED]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((tmp_path / "grad_check.json").read_text("utf-8"))
        for report in (printed, saved):
            assert report["linking_max_rel_error"] <= 1e-4
            assert report["hierarchy_max_rel_error"] <= 1e-4


def last_error(capsys) -> dict:
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    return json.loads(lines[-1])


class TestErrors:
    def test_missing_required_path(self, tmp_path, capsys):
        assert main(["train", "--output-dir", str(tmp_path)]) == 1
        record = last_error(capsys)
        assert record["error"] == "ConfigError"
        assert "events" in record["message"]

    def test_parse_error_carries_location(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(
            '{"id": "E1", "labels": {"en": {"title": "x"}}}\nbroken\n',
            encoding="utf-8",
        )
        (tmp_path / "relations.jsonl").write_text("", encoding="utf-8")
        (tmp_path / "mentions.jsonl").write_text("", encoding="utf-8")
        rc = main(
            ["ingest", "--output-dir", str(tmp_path), *corpus_args(tmp_path)]
        )
        assert rc == 1
        record = last_error(capsys)
        assert record["error"] == "ParseError"
        assert record["context"]["line"] == 2

    def test_invalid_mode_in_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"mode": "monolingual"}', encoding="utf-8")
        rc = main(["synth", "--output-dir", str(tmp_path), "--config", str(config)])
        assert rc == 1
        assert last_error(capsys)["error"] == "ConfigError"

    def test_module_error_is_surfaced(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"synth": {"height": 9}}', encoding="utf-8")
        rc = main(["synth", "--output-dir", str(tmp_path), "--config", str(config)])
        assert rc == 1
        assert last_error(capsys)["error"] == "InvalidConfig"

    def test_k_too_large_record(self, pipeline, tmp_path, capsys):
        rc = main(
            [
                "retrieve",
                "--output-dir", str(tmp_path),
                "--events", str(pipeline / "events.jsonl"),
                "--mentions", str(pipeline / "mentions.jsonl"),
                "--checkpoint", str(pipeline / "checkpoint.bin"),
                "--k", "1000",
            ]
        )
        assert rc == 1
        record = last_error(capsys)
        assert record["error"] == "KTooLarge"
        assert record["context"]["k"] == 1000
        assert record["context"]["pool_size"] == 70

    @pytest.mark.parametrize(
        "k, mentions, error", [("0", "none.jsonl", "InvalidConfig"), ("1000", None, "KTooLarge")]
    )
    def test_k_is_checked_before_any_text_or_tower(
        self, pipeline, tmp_path, capsys, monkeypatch, k, mentions, error
    ):
        calls = []
        # every text is hashed or marked through _ngram_hashes
        for module, name in ((encoder, "_ngram_hashes"), (encoder, "load_checkpoint")):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        (tmp_path / "none.jsonl").write_text("", encoding="utf-8")
        rc = main(
            ["retrieve", "--output-dir", str(tmp_path),
             "--events", str(pipeline / "events.jsonl"),
             "--mentions", str(tmp_path / mentions if mentions else pipeline / "mentions.jsonl"),
             "--checkpoint", str(pipeline / "checkpoint.bin"), "--k", k, "--out", "r.jsonl"]
        )
        assert rc == 1
        lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error
        assert calls == [] and not (tmp_path / "r.jsonl").exists()

    def test_evaluate_needs_a_threshold(self, pipeline, tmp_path, capsys):
        o = ["--output-dir", str(tmp_path)]
        rc = main(
            ["rerank-train", *o, *SEED, *corpus_args(pipeline),
             "--train-retrievals", str(pipeline / "retrievals_train.jsonl"),
             "--rerank-epochs", "1"]
        )
        assert rc == 0
        rc = main(
            ["evaluate", *o, *SEED, *corpus_args(pipeline),
             "--splits", str(pipeline / "splits.json"),
             "--retrievals", str(pipeline / "retrievals_dev.jsonl"),
             "--split", "dev", "--ks", "4,8",
             "--reranker", str(tmp_path / "reranker.bin")]
        )
        assert rc == 1
        assert last_error(capsys)["error"] == "ConfigError"


def only_error(capsys) -> dict:
    """The single JSON error record the failed command wrote to stderr."""
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def broken_retrievals(pipeline, tmp_path, source: str, field: str) -> str:
    """A copy of a retrievals file whose first record names an unknown id."""
    records = [
        json.loads(line)
        for line in (pipeline / source).read_text("utf-8").splitlines()
        if line.strip()
    ]
    if field == "mention":
        records[0]["mention_id"] = "NOPE"
    else:
        records[0]["candidates"][0]["event"] = "QNOPE"
    path = tmp_path / f"broken_{field}_{source}"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


class TestUnknownIdsInRetrievals:
    @pytest.mark.parametrize(
        "flag, field, error, bad_id",
        [
            ("--train-retrievals", "mention", "UnknownMention", "NOPE"),
            ("--train-retrievals", "event", "UnknownEvent", "QNOPE"),
            ("--dev-retrievals", "mention", "UnknownMention", "NOPE"),
            ("--dev-retrievals", "event", "UnknownEvent", "QNOPE"),
        ],
    )
    def test_rerank_train(self, pipeline, tmp_path, capsys, flag, field, error, bad_id):
        good = str(pipeline / "retrievals_train.jsonl")
        bad = broken_retrievals(pipeline, tmp_path, "retrievals_train.jsonl", field)
        retrievals = {"--train-retrievals": good, "--dev-retrievals": good, flag: bad}
        rc = main(
            ["rerank-train", "--output-dir", str(tmp_path), *SEED,
             *corpus_args(pipeline), "--rerank-epochs", "1",
             *[arg for pair in retrievals.items() for arg in pair]]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == error
        assert bad_id in record["message"]
        assert not (tmp_path / "reranker.bin").exists()

    @pytest.mark.parametrize(
        "field, error, key, bad_id",
        [
            ("mention", "UnknownMention", "mention_id", "NOPE"),
            ("event", "UnknownEvent", "event_id", "QNOPE"),
        ],
    )
    def test_evaluate_without_reranker(
        self, pipeline, tmp_path, capsys, field, error, key, bad_id
    ):
        bad = broken_retrievals(pipeline, tmp_path, "retrievals_dev.jsonl", field)
        rc = main(
            ["evaluate", "--output-dir", str(tmp_path), *SEED,
             *corpus_args(pipeline), "--splits", str(pipeline / "splits.json"),
             "--retrievals", bad, "--split", "dev", "--ks", "4,8"]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == error
        assert record["context"][key] == bad_id
        assert not (tmp_path / "report.json").exists()

    def test_evaluate_unknown_event(self, pipeline, tmp_path, capsys):
        bad = broken_retrievals(pipeline, tmp_path, "retrievals_dev.jsonl", "event")
        rc = main(
            ["evaluate", "--output-dir", str(tmp_path), *SEED,
             *corpus_args(pipeline), "--splits", str(pipeline / "splits.json"),
             "--retrievals", bad, "--split", "dev", "--ks", "4,8",
             "--reranker", str(pipeline / "reranker.bin")]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == "UnknownEvent"
        assert record["context"]["event_id"] == "QNOPE"


def relext_argv(pipeline, tmp_path, retrievals=None) -> list[str]:
    return ["relext", "--output-dir", str(tmp_path), *SEED,
            "--events", str(pipeline / "events.jsonl"),
            "--relations", str(pipeline / "relations.jsonl"),
            "--retrievals", retrievals or str(pipeline / "retrievals_all.jsonl")]


ENTRY_REASON = 'each entry must be {"event": string, "score": finite number}'
NOPE = {"event": "QNOPE", "score": 1.0}


# edits of the retrievals file's lines, each returning new lines
def first_candidate(index: int, value):
    """The first record's candidate ``index`` set to ``value``."""

    def edit(lines: list[str]) -> list[str]:
        record = json.loads(lines[0])
        record["candidates"][index] = value
        return [json.dumps(record), *lines[1:]]

    return edit


def first_score(literal: str):
    """``literal`` written as the first record's first score."""
    return lambda lines: [
        re.sub(r'"score": [^,}]+', f'"score": {literal}', lines[0], count=1), *lines[1:]
    ]


def middle_line(text: str):
    """``text`` in place of the middle line."""
    return lambda lines: [*lines[: len(lines) // 2], text, *lines[len(lines) // 2 + 1 :]]


def repeat_first(lines: list[str]) -> list[str]:
    """The first record's line again, last."""
    return [*lines, lines[0]]


# the error context each edit gives, from the unedited lines (a
# ParseError's path is the edited file's)
def at_middle(reason: str):
    return lambda lines: {"line": len(lines) // 2 + 1, "reason": reason}


def at_first(reason: str):
    return lambda lines: {"line": 1, "reason": reason}


def repeats_line_1(lines: list[str]) -> dict:
    mention_id = json.loads(lines[0])["mention_id"]
    return {"line": len(lines) + 1, "reason": f"mention_id {mention_id!r} repeats line 1"}


def unknown(lines: list[str]) -> dict:
    return {"event_id": "QNOPE"}


# row -> (extra flags, config file object or None, edit of the full
# retrievals file or None, error, its context or None)
BAD_RELEXT = {
    "max-ranking--1": (["--max-ranking", "-1"], None, None, "ConfigError", None),
    "max-ranking-0": (["--max-ranking", "0"], None, None, "ConfigError", None),
    "list-k--2": (["--list-k", "-2"], None, None, "ConfigError", None),
    "config-max-ranking-x": (
        [], {"relext": {"max_ranking": "x"}}, None, "ConfigError", None
    ),
    "config-list-k-true": ([], {"relext": {"list_k": True}}, None, "ConfigError", None),
    "config-relext-5": ([], {"relext": 5}, None, "ConfigError", None),
    "unknown-candidate": ([], None, first_candidate(0, NOPE), "UnknownEvent", unknown),
    "repeated-mention": ([], None, repeat_first, "ParseError", repeats_line_1),
    "bad-json-middle": (
        [], None, middle_line('{"mention_id": "MX", "candidates": [}'), "ParseError",
        at_middle("bad JSON: Expecting value"),
    ),
    "array-line": (
        [], None, middle_line("[1, 2]"), "ParseError", at_middle("must hold a JSON object")
    ),
    "no-candidates": (
        [], None, middle_line('{"mention_id": "MX"}'), "ParseError",
        at_middle("field 'candidates' is missing"),
    ),
    "string-score": ([], None, first_score('"1.0"'), "ParseError", at_first(ENTRY_REASON)),
    "nan-score": (
        [], None, first_score("NaN"), "ParseError",
        at_first("bad JSON: NaN is not a JSON number"),
    ),
    "1e400-score": ([], None, first_score("1e400"), "ParseError", at_first(ENTRY_REASON)),
    "entry-not-object": (
        [], None, first_candidate(1, ["E0000", 1.0]), "ParseError", at_first(ENTRY_REASON)
    ),
    # list_k is 4 and the lists hold 8
    "unknown-past-list-k": ([], None, first_candidate(6, NOPE), "UnknownEvent", unknown),
    # a ParseError anywhere wins over an unknown candidate before it
    "unknown-then-repeat": (
        [], None, lambda lines: repeat_first(first_candidate(0, NOPE)(lines)), "ParseError",
        repeats_line_1,
    ),
}


class TestRelextRejects:
    """Bad relext settings or input are one JSON error record and exit 1."""

    @pytest.mark.parametrize("row", list(BAD_RELEXT))
    def test_rejected(self, pipeline, tmp_path, capsys, row):
        flags, config, edit, error, context = BAD_RELEXT[row]
        argv = relext_argv(pipeline, tmp_path) + flags
        if edit is not None:
            lines = (pipeline / "retrievals_all.jsonl").read_text("utf-8").splitlines()
            path = tmp_path / "edited_retrievals_all.jsonl"
            path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
            argv = relext_argv(pipeline, tmp_path, str(path)) + flags
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 1
        record = only_error(capsys)
        assert record["error"] == error
        assert not (tmp_path / "parents.jsonl").exists()
        if context is not None:
            want = context(lines)
            if error == "ParseError":
                want["path"] = str(path)
            assert record["context"] == want

    def test_short_parents_file_keeps_the_report(self, pipeline, tmp_path):
        assert main(relext_argv(pipeline, tmp_path) + ["--max-ranking", "1"]) == 0
        report = (tmp_path / "relext_report.json").read_text("utf-8")
        assert report == (pipeline / "relext_report.json").read_text("utf-8")
        rankings = relext.load_parents(tmp_path / "parents.jsonl")
        full = relext.load_parents(pipeline / "parents.jsonl")
        assert rankings == {e: ranking[:1] for e, ranking in full.items()}


def command_flags(pipeline, tmp_path, command: str) -> dict[str, str]:
    """The flags of one cheap subcommand run on the pipeline's files."""
    p = {name: str(pipeline / name) for name in (
        "events.jsonl", "relations.jsonl", "mentions.jsonl", "splits.json",
        "checkpoint.bin", "reranker.bin", "retrievals_train.jsonl", "retrievals_dev.jsonl",
    )}
    events, relations = {"--events": p["events.jsonl"]}, {"--relations": p["relations.jsonl"]}
    mentions = {"--mentions": p["mentions.jsonl"]}
    corpus = {**events, **relations, **mentions}
    flags = {
        "synth": {"--n-trees": "2", "--mentions-per-event": "1"},
        "ingest": corpus,
        "split": {**events, **relations},
        "train": {**corpus, "--splits": p["splits.json"], "--epochs": "1", "--F": "4096"},
        "retrieve": {**events, **mentions, "--checkpoint": p["checkpoint.bin"]},
        "rerank-train": {**corpus, "--train-retrievals": p["retrievals_train.jsonl"],
                         "--rerank-epochs": "1"},
        "evaluate": {**corpus, "--retrievals": p["retrievals_dev.jsonl"],
                     "--reranker": p["reranker.bin"]},
    }[command]
    return {"--output-dir": str(tmp_path), "--seed": "0", **flags}


def threshold_less_reranker(pipeline, tmp_path) -> dict[str, str]:
    """The pipeline's reranker saved again without a threshold."""
    params, _ = rerank.load_reranker(pipeline / "reranker.bin")
    rerank.save_reranker(tmp_path / "no_threshold.bin", params, None)
    return {"--reranker": str(tmp_path / "no_threshold.bin")}


def written(flag: str, text: str):
    """A table row input: ``text`` in a new file, passed as ``flag``."""

    def make(pipeline, tmp_path) -> dict[str, str]:
        path = tmp_path / f"input{flag}"
        path.write_text(text, encoding="utf-8")
        return {flag: str(path)}

    return make


def first_record(source: str, flag: str, keys: tuple, value):
    """A table row input: the pipeline's ``source`` file, passed as ``flag``,
    with the value at ``keys`` in its first record replaced by ``value``, or
    by ``value(old value)`` when ``value`` is callable."""

    def make(pipeline, tmp_path) -> dict[str, str]:
        lines = (pipeline / source).read_text("utf-8").splitlines()
        first = owner = json.loads(lines[0])
        for key in keys[:-1]:
            owner = owner[key]
        old = owner[keys[-1]]
        owner[keys[-1]] = value(old) if callable(value) else value
        return written(flag, "\n".join([json.dumps(first), *lines[1:]]) + "\n")(
            pipeline, tmp_path
        )

    return make


def mistyped(source: str, keys: tuple, value):
    """A table row: the pipeline's ``source`` file with ``value``, of the
    wrong JSON type, at ``keys`` in its first record is a ParseError at line 1
    (ingest reads the corpus files, evaluate the retrievals)."""
    name = source.removesuffix(".jsonl")
    command, flag = ("evaluate", "--retrievals") if name.startswith("retrievals") else (
        "ingest", f"--{name}"
    )
    return command, None, first_record(source, flag, keys, value), "ParseError", None


# row -> (subcommand, config file object or None, flag overrides maker or None
#         (a None value drops the flag), error, dotted path a ConfigError names)
BAD_CONFIG = {
    "encoder-f-typo": ("train", {"encoder": {"f": 1024}}, None, "ConfigError", "encoder.f"),
    "train-unknown-key": ("train", {"train": {"foo": 1}}, None, "ConfigError", "train.foo"),
    "train-batch-size-string": (
        "train", {"train": {"batch_size": "64"}}, None, "ConfigError", "train.batch_size"
    ),
    "synth-unknown-key": ("synth", {"synth": {"bogus": 1}}, None, "ConfigError", "synth.bogus"),
    "rerank-grid-number": ("rerank-train", {"rerank": {"grid": 5}}, None, "ConfigError",
                           "rerank.grid"),
    "retrieve-k-string": ("retrieve", {"retrieve": {"k": "4"}}, None, "ConfigError",
                          "retrieve.k"),
    "evaluate-ks-strings": ("evaluate", {"evaluate": {"ks": ["1"]}}, None, "ConfigError",
                            "evaluate.ks"),
    "evaluate-ks-zero": ("evaluate", None, lambda p, t: {"--ks": "0"}, "ConfigError",
                         "evaluate.ks"),
    "evaluate-ks-empty-flag": ("evaluate", None, lambda p, t: {"--ks": ","}, "ConfigError",
                               "evaluate.ks"),
    "evaluate-ks-empty-file": ("evaluate", {"evaluate": {"ks": []}}, None, "ConfigError",
                               "evaluate.ks"),
    "split-ratios-string": (
        "split", {"split": {"ratios": ["a", 0.5, 0.5]}}, None, "ConfigError", "split.ratios"
    ),
    "paths-events-number": (
        "ingest", {"paths": {"events": 5}}, lambda p, t: {"--events": None}, "ConfigError",
        "paths.events",
    ),
    "output-dir-number": (
        "synth", {"output_dir": 5}, lambda p, t: {"--output-dir": None}, "ConfigError",
        "output_dir",
    ),
    "evaluate-threshold-string": (
        "evaluate", {"rerank": {"threshold": "x"}}, threshold_less_reranker, "ConfigError",
        "rerank.threshold",
    ),
    "evaluate-threshold-above-one": (
        "evaluate", None, lambda p, t: {**threshold_less_reranker(p, t), "--threshold": "1.5"},
        "ConfigError", "rerank.threshold",
    ),
    # the pipeline's reranker stores a threshold; a set one is checked all the same
    "evaluate-threshold-string-stored": (
        "evaluate", {"rerank": {"threshold": "x"}}, None, "ConfigError", "rerank.threshold",
    ),
    "evaluate-threshold-above-one-stored": (
        "evaluate", None, lambda p, t: {"--threshold": "1.5"}, "ConfigError",
        "rerank.threshold",
    ),
    "rerank-train-threshold-string": (
        "rerank-train", {"rerank": {"threshold": "x"}}, None, "ConfigError", "rerank.threshold"
    ),
    "splits-without-splits": (
        "train", None, written("--splits", '{"components": {}}'), "ParseError", None
    ),
    "splits-not-an-object": ("train", None, written("--splits", "[]"), "ParseError", None),
    "retrievals-score-string": mistyped("retrievals_dev.jsonl", ("candidates", 0, "score"), "x"),
    "events-id-array": mistyped("events.jsonl", ("id",), ["E"]),
    "events-id-number": mistyped("events.jsonl", ("id",), 5),
    "events-id-null": mistyped("events.jsonl", ("id",), None),
    "events-labels-array": mistyped("events.jsonl", ("labels",), ["en"]),
    "events-title-array": mistyped("events.jsonl", ("labels", "en", "title"), ["x"]),
    "events-title-number": mistyped("events.jsonl", ("labels", "en", "title"), 5),
    "events-description-null": mistyped("events.jsonl", ("labels", "en", "description"), None),
    "relations-subject-array": mistyped("relations.jsonl", ("subject",), ["E"]),
    "relations-property-array": mistyped("relations.jsonl", ("property",), ["P361"]),
    "relations-object-number": mistyped("relations.jsonl", ("object",), 5),
    "relations-subject-null": mistyped("relations.jsonl", ("subject",), None),
    "mentions-id-array": mistyped("mentions.jsonl", ("id",), ["M"]),
    "mentions-id-number": mistyped("mentions.jsonl", ("id",), 5),
    "mentions-anchor-array": mistyped("mentions.jsonl", ("anchor_event",), ["E"]),
    "mentions-language-array": mistyped("mentions.jsonl", ("language",), ["en"]),
    "mentions-context-null": mistyped("mentions.jsonl", ("context",), None),
    "mentions-span-start-bool": mistyped("mentions.jsonl", ("span_start",), True),
    "mentions-span-end-float": mistyped("mentions.jsonl", ("span_end",), float),
    "mentions-span-end-string": mistyped("mentions.jsonl", ("span_end",), str),
    "retrievals-mention-number": mistyped("retrievals_dev.jsonl", ("mention_id",), 5),
    "retrievals-mention-array": mistyped("retrievals_dev.jsonl", ("mention_id",), ["M"]),
    "retrievals-candidates-object": mistyped("retrievals_dev.jsonl", ("candidates",), {}),
    "retrievals-event-array": mistyped("retrievals_dev.jsonl", ("candidates", 0, "event"), ["E"]),
    "retrievals-event-number": mistyped("retrievals_dev.jsonl", ("candidates", 0, "event"), 5),
    "retrievals-event-null": mistyped("retrievals_dev.jsonl", ("candidates", 0, "event"), None),
    "retrievals-score-bool": mistyped("retrievals_dev.jsonl", ("candidates", 0, "score"), True),
    "retrievals-score-null": mistyped("retrievals_dev.jsonl", ("candidates", 0, "score"), None),
    "retrievals-score-past-float": mistyped(
        "retrievals_dev.jsonl", ("candidates", 0, "score"), 10**400
    ),
    "retrievals-candidate-array": mistyped("retrievals_dev.jsonl", ("candidates", 0), ["E", 1.0]),
}


class TestConfigRejects:
    """A bad setting or input file is one JSON error record and exit 1."""

    @pytest.mark.parametrize("row", list(BAD_CONFIG))
    def test_rejected(self, pipeline, tmp_path, capsys, monkeypatch, row):
        command, config, make_overrides, error, dotted = BAD_CONFIG[row]
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        overrides = make_overrides(pipeline, tmp_path) if make_overrides else {}
        flags = {**command_flags(pipeline, tmp_path, command), **overrides}
        argv = [command, *[arg for flag, value in flags.items() if value is not None
                           for arg in (flag, value)]]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 1
        record = only_error(capsys)
        assert record["error"] == error
        if error == "ConfigError":
            assert dotted in record["message"]
        else:
            assert record["context"]["path"] in overrides.values()
            assert record["context"]["line"] == 1
        assert not (tmp_path / MANIFEST_NAME).exists()

    @pytest.mark.parametrize("text", ["[]", '{"runs": []}', '{"runs": {}', '"runs"'])
    def test_malformed_manifest_is_replaced(self, tmp_path, text):
        (tmp_path / MANIFEST_NAME).write_text(text, encoding="utf-8")
        argv = ["synth", "--output-dir", str(tmp_path), *SEED, "--n-trees", "2",
                "--mentions-per-event", "1"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text("utf-8"))
        assert manifest == {
            "format_version": 1,
            "runs": {"synth": {"artifacts": ["events.jsonl", "mentions.jsonl",
                                             "relations.jsonl"]}},
        }


class TestEvaluateThreshold:
    """A set rerank.threshold, a flag over a config file, replaces the one
    the reranker stores; with none set the stored one is used."""

    @pytest.mark.parametrize(
        "flag, config, want",
        [("0.3", None, 0.3), (None, 0.25, 0.25), ("0.3", 0.25, 0.3), (None, None, None)],
    )
    def test_precedence(self, pipeline, tmp_path, flag, config, want):
        stored = rerank.load_reranker(pipeline / "reranker.bin")[1]
        assert stored not in (0.3, 0.25)
        flags = command_flags(pipeline, tmp_path, "evaluate")
        argv = ["evaluate", *[arg for item in flags.items() for arg in item]]
        if flag is not None:
            argv += ["--threshold", flag]
        if config is not None:
            (tmp_path / "config.json").write_text(
                json.dumps({"rerank": {"threshold": config}}), encoding="utf-8"
            )
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert report["threshold"] == (stored if want is None else want)


NAN = float("nan")


class TestNaNSettings:
    """A NaN setting fails its range check, from a flag or a config file,
    rather than silently changing the run."""

    @pytest.mark.parametrize("command, flags, config, setting", [
        ("train", {"--strategy": "HP", "--hier-loss-weight": "nan"}, None, "hier_loss_weight"),
        ("train", {"--strategy": "HP"}, {"train": {"hier_loss_weight": NAN}}, "hier_loss_weight"),
        ("train", {"--learning-rate": "nan"}, None, "learning_rate"),
        ("rerank-train", {"--rerank-learning-rate": "nan"}, None, "learning_rate"),
        ("rerank-train", {}, {"rerank": {"learning_rate": NAN}}, "learning_rate"),
        ("split", {"--ratios": "nan,0.5,0.5"}, None, "ratios"),
        ("split", {}, {"split": {"ratios": [NAN, 0.5, 0.5]}}, "ratios"),
    ])
    def test_rejected(self, pipeline, tmp_path, capsys, command, flags, config, setting):
        flags = {**command_flags(pipeline, tmp_path, command), **flags}
        argv = [command, *[arg for item in flags.items() for arg in item]]
        if config is not None:
            text = json.dumps(config)
            assert "NaN" in text
            (tmp_path / "config.json").write_text(text, encoding="utf-8")
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 1
        record = only_error(capsys)
        assert record["error"] == "InvalidConfig"
        assert setting in record["message"]
        assert not (tmp_path / MANIFEST_NAME).exists()


class TestDevRetrievalsCheckedFirst:
    @pytest.mark.parametrize(
        "field, error", [("mention", "UnknownMention"), ("event", "UnknownEvent")]
    )
    def test_bad_dev_file_fails_before_training(
        self, pipeline, tmp_path, capsys, monkeypatch, field, error
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("the reranker was trained before the dev file was checked")

        monkeypatch.setattr(rerank, "train_reranker", no_training)
        bad = broken_retrievals(pipeline, tmp_path, "retrievals_dev.jsonl", field)
        rc = main(
            ["rerank-train", "--output-dir", str(tmp_path), *SEED,
             *corpus_args(pipeline),
             "--train-retrievals", str(pipeline / "retrievals_train.jsonl"),
             "--dev-retrievals", bad]
        )
        assert rc == 1
        assert only_error(capsys)["error"] == error
        assert not (tmp_path / "reranker.bin").exists()


class TestTrainingDivergence:
    def test_diverging_train_writes_no_artifacts(self, tmp_path):
        # a subprocess, so that anything numpy prints to stderr is seen too
        o = ["--output-dir", str(tmp_path)]
        c = corpus_args(tmp_path)
        assert main(["synth", *o, *SEED, "--n-trees", "10", "--mentions-per-event", "2"]) == 0
        assert main(["split", *o, *SEED, "--events", c[1], "--relations", c[3]]) == 0
        # the package's own source first, as pytest's pythonpath puts it in-process
        src = str(Path(encoder.__file__).resolve().parents[1])
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-m", "hierground.cli", "train", *o, *SEED, *c,
             "--splits", str(tmp_path / "splits.json"),
             "--learning-rate", "1e9", "--epochs", "6", "--F", "4096"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        record = json.loads(lines[0])
        assert record["error"] == "TrainingDiverged"
        assert set(record["context"]) == {"loss", "epoch", "step"}
        assert not (tmp_path / "checkpoint.bin").exists()
        assert not (tmp_path / "training_log.jsonl").exists()


class TestCheckpointFlags:
    def test_retrieve_rejects_reranker_checkpoint(self, pipeline, tmp_path, capsys):
        rc = main(
            ["retrieve", "--output-dir", str(tmp_path), *SEED,
             "--events", str(pipeline / "events.jsonl"),
             "--mentions", str(pipeline / "mentions.jsonl"),
             "--checkpoint", str(pipeline / "reranker.bin")]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == "ParseError"
        assert "reranker" in record["message"]

    def test_rerank_train_rejects_checkpoint_flag(self, pipeline, tmp_path, capsys):
        rc = main(
            ["rerank-train", "--output-dir", str(tmp_path), *SEED,
             *corpus_args(pipeline),
             "--train-retrievals", str(pipeline / "retrievals_train.jsonl"),
             "--checkpoint", "/nonexistent/x.bin"]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == "ConfigError"
        assert "--checkpoint" in record["message"]
        assert not (tmp_path / "reranker.bin").exists()


def rewrite_header(change):
    """A table row that edits the valid file's header and keeps its arrays."""

    def make(data: bytes, other: bytes) -> bytes:
        line, body = data.split(b"\n", 1)
        header = json.loads(line)
        change(header, header["arrays"][0])
        return json.dumps(header).encode("utf-8") + b"\n" + body

    return make


def without_dtypes(header, first):
    """The header as format 2 wrote it: no per-array dtype."""
    header.update(format_version=2)
    for spec in header["arrays"]:
        spec.pop("dtype")


def swap_8_byte_dtype(header, first):
    """The first '<f8' or '<i8' array (the encoder's mention row ids, the
    reranker's c, V being '<f4') stored under the other 8-byte dtype."""
    spec = next(spec for spec in header["arrays"] if spec["dtype"] in ("<f8", "<i8"))
    spec["dtype"] = {"<f8": "<i8", "<i8": "<f8"}[spec["dtype"]]


# name -> (valid file bytes, valid bytes of the other kind) -> malformed file
MALFORMED_CHECKPOINTS = {
    "empty-file": lambda data, other: b"",
    "non-json-header": lambda data, other: b"checkpoint\n" + data.split(b"\n", 1)[1],
    "header-is-a-list": lambda data, other: b"[1]\n" + data.split(b"\n", 1)[1],
    "wrong-kind": lambda data, other: other,
    "format-version-1": rewrite_header(lambda header, first: header.update(format_version=1)),
    "format-2-file": rewrite_header(without_dtypes),
    "missing-array-name": rewrite_header(lambda header, first: first.pop("name")),
    # the next two keep the valid element count, so only the shape check catches them
    "negative-shape": rewrite_header(
        lambda header, first: first.update(shape=[-n for n in first["shape"]])
    ),
    "non-integer-shape": rewrite_header(
        lambda header, first: first.update(shape=[float(n) for n in first["shape"]])
    ),
    "7-PiB-shape": rewrite_header(lambda header, first: first.update(shape=[10**9, 10**6])),
    "missing-dtype": rewrite_header(lambda header, first: first.pop("dtype")),
    "unknown-dtype": rewrite_header(lambda header, first: first.update(dtype="<f2")),
    # the other 8-byte dtype: the size rule holds, the array's required dtype does not
    "swapped-dtype": rewrite_header(swap_8_byte_dtype),
    "short-by-one-byte": lambda data, other: data[:-1],
    "one-trailing-byte": lambda data, other: data + b"\0",
    "threshold-x": rewrite_header(lambda header, first: header.update(threshold="x")),
}


def rewrite_row_ids(change):
    """A table row that edits the mention tower's stored row ids, the
    encoder checkpoint's first array, and keeps every other byte."""

    def make(data: bytes, other: bytes) -> bytes:
        line, body = data.split(b"\n", 1)
        header = json.loads(line)
        (n,) = header["arrays"][0]["shape"]
        ids = change(header, np.frombuffer(body[: 8 * n], "<i8"))
        header["arrays"][0]["shape"] = [ids.size]
        return json.dumps(header).encode("utf-8") + b"\n" + ids.tobytes() + body[8 * n :]

    return make


def tower_values_as_f8(version: int):
    """A table row that stores the encoder checkpoint's '<f4' tower values as
    '<f8', as format 3 did, under format ``version``; the size rule holds."""

    def make(data: bytes, other: bytes) -> bytes:
        line, body = data.split(b"\n", 1)
        header = json.loads(line)
        header["format_version"] = version
        out, at = [], 0
        for spec in header["arrays"]:
            size = np.dtype(spec["dtype"]).itemsize * int(np.prod(spec["shape"]))
            array = np.frombuffer(body[at : at + size], spec["dtype"])
            if spec["dtype"] == "<f4":
                spec["dtype"], array = "<f8", array.astype("<f8")
            out.append(array.tobytes())
            at += size
        return json.dumps(header).encode("utf-8") + b"\n" + b"".join(out)

    return make


# encoder checkpoints only: the stored rows, the init seed and the tower dtype
MALFORMED_ENCODER_CHECKPOINTS = {
    "row-ids-descending": rewrite_row_ids(lambda header, ids: ids[::-1]),
    "row-id-repeated": rewrite_row_ids(lambda header, ids: np.r_[ids[:1], ids[:-1]]),
    "row-id-negative": rewrite_row_ids(lambda header, ids: np.r_[-1, ids[1:]]),
    "row-id-F": rewrite_row_ids(lambda header, ids: np.r_[ids[:-1], header["F"]]),
    # one id fewer than value rows; the size rule still holds
    "row-ids-shorter-than-values": rewrite_row_ids(lambda header, ids: ids[:-1]),
    "missing-init-seed": rewrite_header(lambda header, first: header.pop("init_seed")),
    "init-seed-x": rewrite_header(lambda header, first: header.update(init_seed="x")),
    "missing-F": rewrite_header(lambda header, first: header.pop("F")),
    "F-too-large": rewrite_header(lambda header, first: header.update(F=2**40)),
    "format-3-file": tower_values_as_f8(3),
    "f8-tower-values": tower_values_as_f8(4),
}


class TestMalformedCheckpoints:
    """Every malformed checkpoint is one ParseError record and exit 1."""

    @pytest.mark.parametrize("row", list(MALFORMED_CHECKPOINTS))
    @pytest.mark.parametrize(
        "command, valid, other",
        [("retrieve", "checkpoint.bin", "reranker.bin"),
         ("evaluate", "reranker.bin", "checkpoint.bin")],
        ids=["retrieve", "evaluate"],
    )
    def test_rejected(
        self, pipeline, tmp_path, capsys, monkeypatch, row, command, valid, other,
        table=MALFORMED_CHECKPOINTS,
    ):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(
            table[row]((pipeline / valid).read_bytes(), (pipeline / other).read_bytes())
        )
        out = ["--output-dir", str(tmp_path), *SEED]
        if command == "retrieve":
            argv = ["retrieve", *out, "--events", str(pipeline / "events.jsonl"),
                    "--mentions", str(pipeline / "mentions.jsonl"),
                    "--checkpoint", str(bad), "--out", "retrievals.jsonl"]
        else:
            argv = ["evaluate", *out, *corpus_args(pipeline),
                    "--retrievals", str(pipeline / "retrievals_dev.jsonl"),
                    "--reranker", str(bad)]
        allocations = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: allocations.append(a) or empty(*a, **k))
        assert main(argv) == 1
        record = only_error(capsys)
        assert record["error"] == "ParseError"
        assert record["context"]["path"] == str(bad)
        # rejected before the loader allocates any array
        assert allocations == []
        assert not (tmp_path / "retrievals.jsonl").exists()
        assert not (tmp_path / "report.json").exists()


    @pytest.mark.parametrize("row", list(MALFORMED_ENCODER_CHECKPOINTS))
    def test_retrieve_rejects_encoder_rows(self, pipeline, tmp_path, capsys, monkeypatch, row):
        self.test_rejected(
            pipeline, tmp_path, capsys, monkeypatch, row, "retrieve", "checkpoint.bin",
            "reranker.bin", MALFORMED_ENCODER_CHECKPOINTS,
        )

    @pytest.mark.parametrize(
        "row", list(MALFORMED_CHECKPOINTS) + list(MALFORMED_ENCODER_CHECKPOINTS)
    )
    def test_row_subset_load_rejects(self, pipeline, tmp_path, monkeypatch, row):
        bad = tmp_path / "bad.bin"
        malformed = MALFORMED_CHECKPOINTS.get(row) or MALFORMED_ENCODER_CHECKPOINTS[row]
        bad.write_bytes(
            malformed(
                (pipeline / "checkpoint.bin").read_bytes(), (pipeline / "reranker.bin").read_bytes()
            )
        )
        rows = {"mention": np.array([0, 5, 4095]), "event": np.array([3])}
        allocations = []
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **k: allocations.append(a) or empty(*a, **k))
        for load in (lambda: encoder.load_checkpoint(bad, rows), lambda: encoder.tower_shape(bad)):
            with pytest.raises(ParseError) as err:
                load()
            assert err.value.path == str(bad)
        assert allocations == []


def checkpoint_body_of(value: float):
    """A table row input: the valid checkpoint's header and row ids, every
    float array ``value``."""

    def make(data: bytes) -> bytes:
        line, body = data.split(b"\n", 1)
        out, at = [line + b"\n"], 0
        for spec in json.loads(line)["arrays"]:
            n = int(np.prod(spec["shape"]))
            size = np.dtype(spec["dtype"]).itemsize * n
            if spec["dtype"] in ("<f8", "<f4"):
                out.append(np.full(n, value, spec["dtype"]).tobytes())
            else:
                out.append(body[at : at + size])
            at += size
        return b"".join(out)

    return make


class TestNonFiniteCheckpoints:
    """Towers that encode or score to NaN or inf are one typed error, exit 1."""

    # every value a '<f4' tower can hold that must still be refused; 3e38
    # is finite in the file and overflows the float32 encode
    @pytest.mark.parametrize(
        "value, what",
        [(np.nan, "'en' pool encodings"), (np.inf, "'en' pool encodings"),
         (3e38, "'en' pool encodings")],
        ids=["nan", "inf", "3e38"],
    )
    def test_retrieve_rejects(self, pipeline, tmp_path, capsys, value, what):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(checkpoint_body_of(value)((pipeline / "checkpoint.bin").read_bytes()))
        argv = ["retrieve", "--output-dir", str(tmp_path), *SEED,
                "--events", str(pipeline / "events.jsonl"),
                "--mentions", str(pipeline / "mentions.jsonl"),
                "--checkpoint", str(bad), "--out", "retrievals.jsonl"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(lines) == 1, lines  # no RuntimeWarning either
        record = json.loads(lines[0])
        assert record["error"] == "NonFiniteScore"
        assert record["context"] == {"checkpoint": str(bad), "what": what}
        assert str(bad) in record["message"]
        assert captured.out == ""
        assert not (tmp_path / "retrievals.jsonl").exists()

    def test_retrieve_rejects_a_row_only_a_later_run_reads(self, pipeline, tmp_path, capsys):
        """A huge mention-tower row that only a mention past the first run
        reads fails ``retrieve`` after the first run was written out: exit
        1 with one JSON record, the earlier file at the output path
        byte-identical and no stray file in the output directory."""
        F = encoder.tower_shape(pipeline / "checkpoint.bin")[0]
        first, *others = dataset.load_mentions(pipeline / "mentions.jsonl")
        window = lambda m: encoder.span_window(m, DEFAULT_CONFIG["encoder"]["max_context_chars"])
        early_rows = encoder.ngram_rows([window(first)], F)

        def late_rows(mention):
            fv = encoder.hash_texts([window(mention)], F)[0]
            own = ~np.isin(fv.indices, early_rows)
            return fv.indices[own], fv.values[own].sum()

        # the mention whose rows no early mention reads weigh most in its window
        late = max(others, key=lambda m: late_rows(m)[1])
        rows, weight = late_rows(late)
        assert weight > 1.0  # so the rows' float32 max overflows its encoding
        run = encoder._CHUNK_TEXTS
        mentions = [dataclasses.replace(first, id=f"Q{i:04d}") for i in range(run)] + [late]
        dataset.write_mentions(mentions, tmp_path / "mentions.jsonl")
        params, heads = encoder.load_checkpoint(pipeline / "checkpoint.bin", {"mention": rows})
        params.W_mention[rows] = np.finfo(encoder.TOWER_DTYPE).max
        bad = tmp_path / "bad.bin"
        encoder.save_checkpoint(bad, params, heads)

        def retrieve(checkpoint) -> int:
            return main(["retrieve", "--output-dir", str(tmp_path), *SEED,
                         "--events", str(pipeline / "events.jsonl"),
                         "--mentions", str(tmp_path / "mentions.jsonl"),
                         "--checkpoint", str(checkpoint), "--out", "retrievals.jsonl"])

        assert retrieve(pipeline / "checkpoint.bin") == 0
        earlier = (tmp_path / "retrievals.jsonl").read_bytes()
        assert earlier.count(b"\n") == run + 1
        listing = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert retrieve(bad) == 1
        record = only_error(capsys)
        assert record["error"] == "NonFiniteScore"
        assert record["context"] == {"checkpoint": str(bad), "what": "mention encodings"}
        assert (tmp_path / "retrievals.jsonl").read_bytes() == earlier
        assert sorted(os.listdir(tmp_path)) == listing


class TestUnencodableText:
    """A lone surrogate (legal as a JSON escape) is rejected where it is read."""

    @pytest.mark.parametrize(
        "source, field",
        [("mentions.jsonl", "context"), ("events.jsonl", "title"),
         ("events.jsonl", "description")],
    )
    def test_retrieve_names_the_file_and_line(self, pipeline, tmp_path, capsys, source, field):
        records = [
            json.loads(line)
            for line in (pipeline / source).read_text("utf-8").splitlines()
        ]
        if field == "context":
            records[2]["context"] += " \ud800"
        else:
            records[2]["labels"]["en"][field] = "bad \udfff text"
        broken = tmp_path / source
        broken.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        corpus = {name: pipeline / name for name in ("events.jsonl", "mentions.jsonl")}
        corpus[source] = broken
        rc = main(
            ["retrieve", "--output-dir", str(tmp_path), *SEED,
             "--events", str(corpus["events.jsonl"]),
             "--mentions", str(corpus["mentions.jsonl"]),
             "--checkpoint", str(pipeline / "checkpoint.bin"),
             "--out", "retrievals.jsonl"]
        )
        assert rc == 1
        record = only_error(capsys)
        assert record["error"] == "ParseError"
        assert record["context"]["path"] == str(broken)
        assert record["context"]["line"] == 3
        assert field in record["message"]
        assert not (tmp_path / "retrievals.jsonl").exists()


class TestConfigResolution:
    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"seed": 5, "synth": {"n_trees": 3, "mentions_per_event": 1}}),
            encoding="utf-8",
        )
        rc = main(
            ["synth", "--output-dir", str(tmp_path), "--config", str(config),
             "--seed", "7"]
        )
        assert rc == 0
        resolved = json.loads((tmp_path / RESOLVED_CONFIG_NAME).read_text("utf-8"))
        assert resolved["seed"] == 7
        assert resolved["synth"]["n_trees"] == 3

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        rc = main(["synth", *SEED, "--n-trees", "2", "--mentions-per-event", "1"])
        assert rc == 0
        assert (tmp_path / "events.jsonl").exists()

    def test_config_file_output_dir_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        file_dir = tmp_path / "file"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"output_dir": str(file_dir)}), encoding="utf-8"
        )
        rc = main(
            ["synth", *SEED, "--config", str(config), "--n-trees", "2",
             "--mentions-per-event", "1"]
        )
        assert rc == 0
        assert (file_dir / "events.jsonl").exists()
        assert not (env_dir / "events.jsonl").exists()


# argparse dests that are subcommand arguments rather than settings
COMMAND_ARGUMENTS = {
    "help", "command", "config", "checkpoint", "split", "out", "retrievals", "reranker",
    "train_retrievals", "dev_retrievals", "atomic_only",
}


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


class TestFlagsAreSettings:
    def test_every_flag_sets_a_setting(self):
        for command, parser in subcommand_parsers().items():
            for action in parser._actions:
                if action.dest in COMMAND_ARGUMENTS:
                    continue
                node = DEFAULT_CONFIG
                for part in action.dest.split("."):
                    assert isinstance(node, dict) and part in node, (command, action.dest)
                    node = node[part]
                assert not isinstance(node, dict), (command, action.dest)

    @pytest.mark.parametrize(
        "config",
        [
            {"rerank": {"threshold": 0.5, "batch_size": 8}},
            {"rerank": {"grid": [0.25, 1], "threshold": None}},
            {"train": {"learning_rate": 3, "strategy": "HP"}, "synth": {"noise": 0}},
            {"paths": {"events": "events.jsonl"}, "output_dir": None, "relext": {}},
        ],
    )
    def test_valid_file_is_merged(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        resolved = resolve_config(build_parser().parse_args(["train", "--config", str(path)]))
        for section, values in config.items():
            if isinstance(values, dict):
                for key, value in values.items():
                    assert resolved[section][key] == value, (section, key)
        assert resolved["encoder"] == DEFAULT_CONFIG["encoder"]

    def test_flags_set_their_dotted_paths(self):
        args = build_parser().parse_args(
            ["rerank-train", "--train-retrievals", "r.jsonl", "--rerank-k", "3",
             "--rerank-learning-rate", "0.25", "--hidden", "7", "--events", "e.jsonl",
             "--max-height", "2"]
        )
        resolved = resolve_config(args)
        assert resolved["rerank"]["k"] == 3
        assert resolved["rerank"]["learning_rate"] == 0.25
        assert resolved["rerank"]["hidden"] == 7
        assert resolved["paths"]["events"] == "e.jsonl"
        assert resolved["max_height"] == 2
        assert resolved["retrieve"]["k"] == DEFAULT_CONFIG["retrieve"]["k"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hierground.cli", "synth",
             "--output-dir", str(tmp_path), "--seed", "0",
             "--n-trees", "2", "--mentions-per-event", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "mentions.jsonl").exists()
