"""Command-line driver for reproducible end-to-end experiments.

Subcommands: ingest, split, synth, train, retrieve, rerank-train,
evaluate, relext, grad-check.  Settings resolve in precedence order
flag > config file > built-in default, with HIERGROUND_OUTPUT_DIR as the
lowest-precedence output directory.  Every run writes the resolved
config and updates a format-versioned manifest next to its artifacts,
and failures exit nonzero with a machine-readable error record on
stderr.  All randomness flows from the single experiment seed through
named substreams, so stages can be re-run independently.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

from . import dataset, encoder, kb, metrics, relext, rerank, retrieval, training
from .errors import ConfigError, HiergroundError

OUTPUT_DIR_ENV = "HIERGROUND_OUTPUT_DIR"
MANIFEST_NAME = "manifest.json"
RESOLVED_CONFIG_NAME = "resolved_config.json"

DEFAULT_CONFIG: dict = {
    "output_dir": None,
    "mode": "multilingual",
    "seed": 0,
    "max_height": kb.DEFAULT_MAX_HEIGHT,
    "paths": {"events": None, "relations": None, "mentions": None, "splits": None},
    "split": {"ratios": [0.8, 0.1, 0.1]},
    "encoder": {
        "F": encoder.DEFAULT_F,
        "d": encoder.DEFAULT_D,
        "max_context_chars": encoder.DEFAULT_MAX_CONTEXT_CHARS,
        "max_cand_chars": encoder.DEFAULT_MAX_CAND_CHARS,
    },
    "train": {
        "strategy": "BASELINE",
        "learning_rate": 1.0,
        "epochs": 10,
        "batch_size": 64,
        "hier_batch_size": 128,
        "hier_loss_weight": 0.01,
        "pretrain_epochs": 1,
    },
    "retrieve": {"k": retrieval.DEFAULT_K},
    "rerank": {
        "k": 8,
        "grid": list(rerank.DEFAULT_GRID),
        "threshold": None,
        "epochs": 5,
        "learning_rate": 0.5,
        "batch_size": 64,
        "hidden": rerank.DEFAULT_HIDDEN,
    },
    "evaluate": {"ks": [1, 2, 4, 8]},
    "relext": {"list_k": relext.DEFAULT_LIST_K, "max_ranking": relext.DEFAULT_MAX_RANKING},
    "synth": {
        "n_trees": 20,
        "branching": 2,
        "height": 2,
        "mentions_per_event": 10,
        "vocab": 600,
        "noise": 0.1,
    },
}

# argparse dest -> dotted config path
FLAG_PATHS = {
    "output_dir": "output_dir",
    "mode": "mode",
    "seed": "seed",
    "max_height": "max_height",
    "events": "paths.events",
    "relations": "paths.relations",
    "mentions": "paths.mentions",
    "splits": "paths.splits",
    "ratios": "split.ratios",
    "F": "encoder.F",
    "d": "encoder.d",
    "max_context_chars": "encoder.max_context_chars",
    "max_cand_chars": "encoder.max_cand_chars",
    "strategy": "train.strategy",
    "learning_rate": "train.learning_rate",
    "epochs": "train.epochs",
    "batch_size": "train.batch_size",
    "hier_batch_size": "train.hier_batch_size",
    "hier_loss_weight": "train.hier_loss_weight",
    "pretrain_epochs": "train.pretrain_epochs",
    "k": "retrieve.k",
    "rerank_k": "rerank.k",
    "rerank_epochs": "rerank.epochs",
    "rerank_learning_rate": "rerank.learning_rate",
    "hidden": "rerank.hidden",
    "threshold": "rerank.threshold",
    "ks": "evaluate.ks",
    "list_k": "relext.list_k",
    "max_ranking": "relext.max_ranking",
    "n_trees": "synth.n_trees",
    "branching": "synth.branching",
    "height": "synth.height",
    "mentions_per_event": "synth.mentions_per_event",
    "vocab": "synth.vocab",
    "noise": "synth.noise",
}


def _deep_merge(base: dict, overlay: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _set_path(config: dict, dotted: str, value) -> None:
    node = config
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, plus the env output dir floor."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        config["output_dir"] = env_dir
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        config = _deep_merge(config, loaded)
    for dest, dotted in FLAG_PATHS.items():
        value = getattr(args, dest, None)
        if value is not None:
            _set_path(config, dotted, value)
    if config["output_dir"] is None:
        config["output_dir"] = "."
    if config["mode"] not in ("multilingual", "crosslingual"):
        raise ConfigError(f"mode must be multilingual or crosslingual, got {config['mode']!r}")
    return config


def _outdir(config: dict) -> Path:
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(config: dict, command: str, artifacts: list[str]) -> None:
    """Write the resolved config and update the run manifest."""
    out = _outdir(config)
    (out / RESOLVED_CONFIG_NAME).write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    manifest_path = out / MANIFEST_NAME
    manifest = {"format_version": 1, "runs": {}}
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except json.JSONDecodeError:
            pass
    manifest.setdefault("runs", {})[command] = {"artifacts": sorted(artifacts)}
    manifest["format_version"] = 1
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require_paths(config: dict, *names: str) -> dict[str, Path]:
    paths = {}
    for name in names:
        value = config["paths"].get(name)
        if not value:
            raise ConfigError(f"missing required path: {name}")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"{name} file not found: {path}")
        paths[name] = path
    return paths


def _load_corpus(config: dict, *names: str):
    paths = _require_paths(config, *names)
    loaded = {}
    if "events" in paths:
        loaded["events"] = kb.load_events(paths["events"])
    if "relations" in paths:
        loaded["relations"] = kb.load_relations(paths["relations"])
    if "mentions" in paths:
        loaded["mentions"] = dataset.load_mentions(paths["mentions"])
    if "splits" in paths:
        loaded["splits"] = dataset.load_splits(paths["splits"])
    return loaded


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(config: dict) -> list[str]:
    data = _load_corpus(config, "events", "relations", "mentions")
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    dataset.expand_gold(forest, data["mentions"])
    stats = dataset.corpus_stats(
        data["events"], data["relations"], data["mentions"], forest
    )
    out = _outdir(config)
    (out / "stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    kb.save_forest(forest, out / "forest.json")
    return ["stats.json", "forest.json"]


def cmd_split(config: dict) -> list[str]:
    data = _load_corpus(config, "events", "relations")
    ratios = tuple(config["split"]["ratios"])
    assignment = dataset.split_components(
        data["events"], data["relations"], ratios, config["seed"]
    )
    dataset.save_splits(assignment, _outdir(config) / "splits.json")
    return ["splits.json"]


def cmd_synth(config: dict) -> list[str]:
    synth_config = dataset.SyntheticConfig(seed=config["seed"], **config["synth"])
    events, edges, mentions = dataset.generate_synthetic(synth_config)
    out = _outdir(config)
    kb.write_events(events, out / "events.jsonl")
    kb.write_relations(edges, out / "relations.jsonl")
    dataset.write_mentions(mentions, out / "mentions.jsonl")
    return ["events.jsonl", "relations.jsonl", "mentions.jsonl"]


def _train_config(config: dict) -> training.TrainConfig:
    return training.TrainConfig(seed=config["seed"], **config["train"])


def cmd_train(config: dict) -> list[str]:
    data = _load_corpus(config, "events", "relations", "mentions", "splits")
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    train_mentions = dataset.select_split(data["mentions"], data["splits"], "train")
    instances = dataset.expand_gold(forest, train_mentions)
    train_events = set(data["splits"].events_in_split("train"))
    enc = config["encoder"]
    params, head, log = training.train(
        instances,
        data["events"],
        forest,
        _train_config(config),
        mode=config["mode"],
        F=enc["F"],
        d=enc["d"],
        max_context_chars=enc["max_context_chars"],
        max_cand_chars=enc["max_cand_chars"],
        hier_events=train_events,
    )
    out = _outdir(config)
    encoder.save_checkpoint(
        out / "checkpoint.bin",
        params,
        {f"complex.{name}": arr for name, arr in head.arrays().items()},
    )
    training.write_training_log(log, out / "training_log.jsonl")
    return ["checkpoint.bin", "training_log.jsonl"]


def _load_encoder(path: str | Path) -> tuple[encoder.EncoderParams, training.ComplExHead | None]:
    params, extra = encoder.load_checkpoint(path)
    head = None
    if all(f"complex.{name}" in extra for name in training.HEAD_ARRAY_NAMES):
        head = training.ComplExHead(
            **{name: extra[f"complex.{name}"] for name in training.HEAD_ARRAY_NAMES}
        )
    return params, head


def _select_mentions(config: dict, data: dict, split: str | None) -> list[dataset.Mention]:
    mentions = data["mentions"]
    if split and split != "all":
        if "splits" not in data:
            raise ConfigError("--split needs a splits file")
        mentions = dataset.select_split(mentions, data["splits"], split)
    return mentions


def cmd_retrieve(config: dict, checkpoint: str, split: str, out_name: str) -> list[str]:
    names = ["events", "mentions"] + (["splits"] if split != "all" else [])
    data = _load_corpus(config, *names)
    params, _ = _load_encoder(checkpoint)
    mentions = _select_mentions(config, data, split)
    pool = dataset.candidate_pool(data["events"], mode="inference")
    index = retrieval.build_index(
        params,
        data["events"],
        pool,
        config["mode"],
        config["encoder"]["max_cand_chars"],
    )
    results = retrieval.retrieve_mentions(
        params,
        index,
        mentions,
        config["retrieve"]["k"],
        config["encoder"]["max_context_chars"],
    )
    retrieval.write_retrievals(results, _outdir(config) / out_name)
    return [out_name]


def _rerank_config(config: dict) -> rerank.RerankConfig:
    section = dict(config["rerank"])
    section["grid"] = tuple(section["grid"])
    return rerank.RerankConfig(seed=config["seed"], **section)


def _gold_chains(
    config: dict, data: dict, mentions: list[dataset.Mention]
) -> dict[str, tuple[str, ...]]:
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    return {
        inst.mention.id: inst.gold for inst in dataset.expand_gold(forest, mentions)
    }


def cmd_rerank_train(
    config: dict, train_retrievals: str, dev_retrievals: str | None
) -> list[str]:
    data = _load_corpus(config, "events", "relations", "mentions")
    golds = _gold_chains(config, data, data["mentions"])
    mentions_by_id = {m.id: m for m in data["mentions"]}
    rerank_config = _rerank_config(config)
    featurizer = rerank.PairFeaturizer(
        data["events"],
        config["mode"],
        config["encoder"]["max_context_chars"],
        config["encoder"]["max_cand_chars"],
    )
    train_results = retrieval.load_retrievals(train_retrievals)
    rerank.check_retrieval_ids(train_results, mentions_by_id, featurizer.events)
    threshold = rerank_config.threshold
    dev_results = None
    if threshold is None and dev_retrievals:
        dev_results = retrieval.load_retrievals(dev_retrievals)
        rerank.check_retrieval_ids(dev_results, mentions_by_id, featurizer.events)
    params = rerank.train_reranker(
        train_results, golds, mentions_by_id, featurizer, rerank_config
    )
    if dev_results is not None:
        threshold = rerank.select_threshold(
            params,
            featurizer,
            dev_results,
            golds,
            mentions_by_id,
            rerank_config.grid,
            rerank_config.k,
        )
    rerank.save_reranker(_outdir(config) / "reranker.bin", params, threshold)
    return ["reranker.bin"]


def cmd_evaluate(
    config: dict,
    retrievals_path: str,
    reranker_path: str | None,
    split: str | None,
    atomic_only: bool,
) -> list[str]:
    names = ["events", "relations", "mentions"] + (
        ["splits"] if split and split != "all" else []
    )
    data = _load_corpus(config, *names)
    mentions = _select_mentions(config, data, split)
    golds = _gold_chains(config, data, mentions)
    mentions_by_id = {m.id: m for m in mentions}
    results = [
        r for r in retrieval.load_retrievals(retrievals_path) if r.mention_id in golds
    ]
    if not results:
        raise ConfigError("no retrievals match the selected mentions")

    reranker_params = None
    threshold = None
    featurizer = None
    if reranker_path:
        reranker_params, threshold = rerank.load_reranker(reranker_path)
        if threshold is None:
            threshold = config["rerank"]["threshold"]
        if threshold is None:
            raise ConfigError("reranker checkpoint has no threshold; pass --threshold")
        featurizer = rerank.PairFeaturizer(
            data["events"],
            config["mode"],
            config["encoder"]["max_context_chars"],
            config["encoder"]["max_cand_chars"],
        )

    records = []
    for result in results:
        predicted = None
        rerank_order = None
        if reranker_params is not None:
            mention = mentions_by_id[result.mention_id]
            scored = rerank.score_candidates(reranker_params, featurizer, mention, result)
            rerank_order = [event_id for event_id, _ in scored]
            predicted = rerank.kept_set(scored, rerank.candidate_probs(scored), threshold)
        records.append(
            metrics.EvalRecord(
                mention_id=result.mention_id,
                gold=golds[result.mention_id],
                ranking=result.event_ids,
                predicted=predicted,
                rerank_order=rerank_order,
            )
        )

    out = _outdir(config)
    artifacts = ["report.json", "recall_strict.tsv"]
    if reranker_params is not None:
        rerank.write_predictions(
            [(r.mention_id, r.predicted) for r in records], out / "predictions.jsonl"
        )
        artifacts.append("predictions.jsonl")

    ks = config["evaluate"]["ks"]
    report: dict = {"n_records": len(records), "recall_at_min": metrics.recall_at_min(records)}
    strict_rows, atomic_rows = [], []
    for k in ks:
        strict = metrics.recall_at_k(records, k)
        report[f"recall_at_{k}"] = strict
        report[f"recall_at_{k}_fraction"] = metrics.recall_at_k_fraction(records, k)
        strict_rows.append((k, strict))
        if atomic_only:
            atomic = metrics.recall_at_k(records, k, atomic_only=True)
            report[f"atomic_recall_at_{k}"] = atomic
            atomic_rows.append((k, atomic))
    if reranker_params is not None:
        report.update(metrics.set_metrics(records))
        report["threshold"] = threshold

    report["config"] = {
        "mode": config["mode"],
        "seed": config["seed"],
        "ks": ks,
        "split": split or "all",
    }
    metrics.write_report(report, out / "report.json")
    metrics.write_recall_tsv(strict_rows, out / "recall_strict.tsv")
    if atomic_only:
        metrics.write_recall_tsv(atomic_rows, out / "recall_atomic.tsv")
        artifacts.append("recall_atomic.tsv")
    return artifacts


def cmd_relext(config: dict, retrievals_path: str, split: str | None) -> list[str]:
    names = ["events", "relations"] + (["splits"] if split and split != "all" else [])
    data = _load_corpus(config, *names)
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    results = retrieval.load_retrievals(retrievals_path)
    lists = relext.build_mention_lists(results, config["relext"]["list_k"])
    pool = dataset.candidate_pool(data["events"], mode="inference")
    rankings, unlinked = relext.rank_all_parents(lists, pool)

    evaluated = sorted(forest.parent)
    if split and split != "all":
        in_split = set(data["splits"].events_in_split(split))
        evaluated = [e for e in evaluated if e in in_split]
    id_rankings = {
        event_id: [parent for parent, _ in ranking]
        for event_id, ranking in rankings.items()
    }
    report = {
        "n_events_evaluated": len(evaluated),
        "n_unlinked": len([e for e in unlinked if e in set(evaluated)]),
    }
    for k in (1, 2, 4, 8, 16):
        report[f"relext_recall_at_{k}"] = metrics.relext_recall_at_k(
            id_rankings, forest, k, evaluated
        )
    out = _outdir(config)
    relext.write_parents(rankings, out / "parents.jsonl", config["relext"]["max_ranking"])
    metrics.write_report(report, out / "relext_report.json")
    return ["parents.jsonl", "relext_report.json"]


def cmd_grad_check(config: dict) -> list[str]:
    report = {
        "linking_max_rel_error": training.gradient_check("linking", seed=config["seed"]),
        "hierarchy_max_rel_error": training.gradient_check("hierarchy", seed=config["seed"]),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    metrics.write_report(report, _outdir(config) / "grad_check.json")
    return ["grad_check.json"]


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--mode", choices=("multilingual", "crosslingual"))
    parser.add_argument("--seed", type=int)


def _add_corpus(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name}", help=f"{name} file")


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierground",
        description="Ground text mentions to hierarchies of knowledge-base events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus and write stats")
    _add_common(p)
    _add_corpus(p, "events", "relations", "mentions")
    p.add_argument("--max-height", dest="max_height", type=int)

    p = sub.add_parser("split", help="zero-shot component splits")
    _add_common(p)
    _add_corpus(p, "events", "relations")
    p.add_argument("--ratios", type=_csv_floats)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    p.add_argument("--n-trees", dest="n_trees", type=int)
    p.add_argument("--branching", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--mentions-per-event", dest="mentions_per_event", type=int)
    p.add_argument("--vocab", type=int)
    p.add_argument("--noise", type=float)

    p = sub.add_parser("train", help="train the bi-encoder")
    _add_common(p)
    _add_corpus(p, "events", "relations", "mentions", "splits")
    p.add_argument("--strategy", choices=training.STRATEGIES)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--hier-batch-size", dest="hier_batch_size", type=int)
    p.add_argument("--hier-loss-weight", dest="hier_loss_weight", type=float)
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    p.add_argument("--max-height", dest="max_height", type=int)
    p.add_argument("--F", dest="F", type=int)
    p.add_argument("--d", dest="d", type=int)

    p = sub.add_parser("retrieve", help="top-k retrieval for a mention set")
    _add_common(p)
    _add_corpus(p, "events", "mentions", "splits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="all", choices=("all",) + dataset.SPLIT_NAMES)
    p.add_argument("--k", type=int)
    p.add_argument("--out", default="retrievals.jsonl")

    p = sub.add_parser("rerank-train", help="train the pair reranker")
    _add_common(p)
    _add_corpus(p, "events", "relations", "mentions")
    p.add_argument(
        "--checkpoint", help="rejected: the retrievals already fix the bi-encoder"
    )
    p.add_argument("--train-retrievals", required=True)
    p.add_argument("--dev-retrievals")
    p.add_argument("--rerank-k", dest="rerank_k", type=int)
    p.add_argument("--rerank-epochs", dest="rerank_epochs", type=int)
    p.add_argument("--rerank-learning-rate", dest="rerank_learning_rate", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--max-height", dest="max_height", type=int)

    p = sub.add_parser("evaluate", help="grounding metrics from retrievals")
    _add_common(p)
    _add_corpus(p, "events", "relations", "mentions", "splits")
    p.add_argument("--retrievals", required=True)
    p.add_argument("--reranker")
    p.add_argument("--threshold", type=float)
    p.add_argument("--split", choices=("all",) + dataset.SPLIT_NAMES)
    p.add_argument("--ks", type=_csv_ints)
    p.add_argument("--atomic-only", action="store_true")
    p.add_argument("--max-height", dest="max_height", type=int)

    p = sub.add_parser("relext", help="parent discovery from retrieval overlap")
    _add_common(p)
    _add_corpus(p, "events", "relations", "splits")
    p.add_argument("--retrievals", required=True)
    p.add_argument("--split", choices=("all",) + dataset.SPLIT_NAMES)
    p.add_argument("--list-k", dest="list_k", type=int)
    p.add_argument("--max-ranking", dest="max_ranking", type=int)
    p.add_argument("--max-height", dest="max_height", type=int)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    _add_common(p)

    return parser


def _error_record(exc: Exception) -> str:
    context = {}
    for key, value in vars(exc).items():
        try:
            json.dumps(value)
            context[key] = value
        except (TypeError, ValueError):
            context[key] = repr(value)
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "context": context},
        sort_keys=True,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        command = args.command
        if command == "ingest":
            artifacts = cmd_ingest(config)
        elif command == "split":
            artifacts = cmd_split(config)
        elif command == "synth":
            artifacts = cmd_synth(config)
        elif command == "train":
            artifacts = cmd_train(config)
        elif command == "retrieve":
            artifacts = cmd_retrieve(config, args.checkpoint, args.split, args.out)
        elif command == "rerank-train":
            if args.checkpoint is not None:
                raise ConfigError(
                    "rerank-train does not use --checkpoint: the bi-encoder "
                    "checkpoint fixed the retrievals upstream"
                )
            artifacts = cmd_rerank_train(
                config, args.train_retrievals, args.dev_retrievals
            )
        elif command == "evaluate":
            artifacts = cmd_evaluate(
                config, args.retrievals, args.reranker, args.split, args.atomic_only
            )
        elif command == "relext":
            artifacts = cmd_relext(config, args.retrievals, args.split)
        elif command == "grad-check":
            artifacts = cmd_grad_check(config)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {command!r}")
        _finish(config, command, artifacts)
    except (HiergroundError, OSError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
