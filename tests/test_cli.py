"""End-to-end pipeline runs, config precedence, machine-readable errors."""

import json
import subprocess
import sys

import pytest

from hierground import dataset, encoder, relext, retrieval, rerank
from hierground.cli import (
    DEFAULT_CONFIG,
    MANIFEST_NAME,
    OUTPUT_DIR_ENV,
    RESOLVED_CONFIG_NAME,
    main,
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


class TestDeterminism:
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
        proc = subprocess.run(
            [sys.executable, "-m", "hierground.cli", "train", *o, *SEED, *c,
             "--splits", str(tmp_path / "splits.json"),
             "--learning-rate", "1e9", "--epochs", "6", "--F", "4096"],
            capture_output=True,
            text=True,
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
        assert record["error"] == "InvalidConfig"
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
