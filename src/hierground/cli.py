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
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy

from . import dataset, encoder, kb, metrics, relext, rerank, retrieval, training
from .errors import ConfigError, HiergroundError, NonFiniteScore

OUTPUT_DIR_ENV = "HIERGROUND_OUTPUT_DIR"
MANIFEST_NAME = "manifest.json"
RESOLVED_CONFIG_NAME = "resolved_config.json"
# the recall@k cut-offs relext_report.json reads from the parent rankings
RELEXT_RECALL_KS = (1, 2, 4, 8, 16)


def _defaults(cls) -> dict:
    """A settings dataclass's field defaults, less the experiment seed."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name != "seed"}


# every setting and its default; a null default is checked where it is read
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
    "train": _defaults(training.TrainConfig),
    "retrieve": {"k": retrieval.DEFAULT_K},
    "rerank": _defaults(rerank.RerankConfig),
    "evaluate": {"ks": [4, 8]},
    "relext": {"list_k": relext.DEFAULT_LIST_K, "max_ranking": relext.DEFAULT_MAX_RANKING},
    "synth": _defaults(dataset.SyntheticConfig),
}

# default type -> (types of the JSON values that fit it, their name); a bool
# is never an int
JSON_TYPES = {
    bool: ((bool,), "a boolean"), int: ((int,), "an integer"),
    float: ((int, float), "a number"), str: ((str,), "a string"),
}


def _check_file(value, default, path: str = "") -> None:
    """Raise ConfigError naming the dotted path of the first config file
    value that is no setting or does not have its default's JSON type."""
    if default is None:
        return
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'a config file'} must be a JSON object, got {value!r}")
        for key, item in value.items():
            dotted = f"{path}.{key}" if path else key
            if key not in default:
                raise ConfigError(f"{dotted} is not a setting")
            _check_file(item, default[key], dotted)
    elif isinstance(default, (list, tuple)):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON array, got {value!r}")
        for i, item in enumerate(value):
            _check_file(item, default[0], f"{path}[{i}]")
    else:
        fits, name = JSON_TYPES[type(default)]
        if type(value) not in fits:
            raise ConfigError(f"{path} must be {name}, got {value!r}")


def _is_setting(dotted: str) -> bool:
    """Whether a dotted path names a leaf of DEFAULT_CONFIG."""
    section, _, key = dotted.rpartition(".")
    node = DEFAULT_CONFIG.get(section) if section else DEFAULT_CONFIG
    return isinstance(node, dict) and key in node and not isinstance(node[key], dict)


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- flags, plus the env output dir floor.

    Every flag whose argparse dest is a setting's dotted path sets it.
    """
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
        _check_file(loaded, DEFAULT_CONFIG)
        for key, value in loaded.items():
            if isinstance(DEFAULT_CONFIG[key], dict):
                config[key].update(value)
            else:
                config[key] = value
    for dest, value in vars(args).items():
        if value is not None and _is_setting(dest):
            section, _, key = dest.rpartition(".")
            (config[section] if section else config)[key] = value
    if config["output_dir"] is None:
        config["output_dir"] = "."
    if not isinstance(config["output_dir"], str):
        raise ConfigError(f"output_dir must be a string, got {config['output_dir']!r}")
    ks = config["evaluate"]["ks"]
    if not ks or min(ks) < 1:
        raise ConfigError(f"evaluate.ks must be a non-empty array of integers >= 1, got {ks!r}")
    if config["mode"] not in encoder.LANGUAGE_MODES:
        raise ConfigError(f"mode must be one of {encoder.LANGUAGE_MODES}, got {config['mode']!r}")
    return config


def _section(config: dict, name: str, cls):
    """A section's settings dataclass, with the experiment seed; arrays become tuples."""
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in config[name].items()}
    return cls(seed=config["seed"], **values)


def _threshold(config: dict) -> float | None:
    """rerank.threshold: null, or a number in (0, 1)."""
    value = config["rerank"]["threshold"]
    if value is not None and (type(value) not in (int, float) or not 0 < value < 1):
        raise ConfigError(f"rerank.threshold must be null or a number in (0, 1), got {value!r}")
    return value


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
            loaded = json.loads(manifest_path.read_text("utf-8"))
        except json.JSONDecodeError:
            loaded = None
        # a manifest of any other shape is replaced, like one that does not parse
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), dict):
            manifest = loaded
    manifest["runs"][command] = {"artifacts": sorted(artifacts)}
    manifest["format_version"] = 1
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _require_paths(config: dict, *names: str) -> dict[str, Path]:
    paths = {}
    for name in names:
        value = config["paths"][name]
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"paths.{name} must be a string, got {value!r}")
        if not value:
            raise ConfigError(f"missing required path: {name}")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"{name} file not found: {path}")
        paths[name] = path
    return paths


def _load_corpus(config: dict, *names: str, split: str | None = None) -> dict:
    """The named corpus files, plus the splits file when ``split`` selects one."""
    if split and split != "all":
        names += ("splits",)
    loaders = {
        "events": kb.load_events,
        "relations": kb.load_relations,
        "mentions": dataset.load_mentions,
        "splits": dataset.load_splits,
    }
    return {name: loaders[name](path) for name, path in _require_paths(config, *names).items()}


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
    events, edges, mentions = dataset.generate_synthetic(
        _section(config, "synth", dataset.SyntheticConfig)
    )
    out = _outdir(config)
    kb.write_events(events, out / "events.jsonl")
    kb.write_relations(edges, out / "relations.jsonl")
    dataset.write_mentions(mentions, out / "mentions.jsonl")
    return ["events.jsonl", "relations.jsonl", "mentions.jsonl"]


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
        _section(config, "train", training.TrainConfig),
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


def _select_mentions(data: dict, split: str | None) -> list[dataset.Mention]:
    if "splits" in data:
        return dataset.select_split(data["mentions"], data["splits"], split)
    return data["mentions"]


def cmd_retrieve(config: dict, checkpoint: str, split: str, out_name: str) -> list[str]:
    data = _load_corpus(config, "events", "mentions", split=split)
    enc = config["encoder"]
    results = retrieval.retrieve_from_checkpoint(
        checkpoint, data["events"], dataset.candidate_pool(data["events"], mode="inference"),
        _select_mentions(data, split), config["retrieve"]["k"], config["mode"],
        enc["max_context_chars"], enc["max_cand_chars"],
    )
    # each run of results is written before the next run is hashed
    retrieval.write_retrievals(results, _outdir(config) / out_name)
    return [out_name]


def _gold_chains(
    config: dict, data: dict, mentions: list[dataset.Mention]
) -> dict[str, tuple[str, ...]]:
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    return {
        inst.mention.id: inst.gold for inst in dataset.expand_gold(forest, mentions)
    }


def _pair_featurizer(
    config: dict, events: list[kb.Event], keep_pairs: bool = False
) -> rerank.PairFeaturizer:
    enc = config["encoder"]
    return rerank.PairFeaturizer(
        events, config["mode"], enc["max_context_chars"], enc["max_cand_chars"], keep_pairs
    )


def cmd_rerank_train(
    config: dict, train_retrievals: str, dev_retrievals: str | None, checkpoint: str | None
) -> list[str]:
    if checkpoint is not None:
        raise ConfigError(
            "rerank-train does not use --checkpoint: the bi-encoder "
            "checkpoint fixed the retrievals upstream"
        )
    _threshold(config)  # before RerankConfig compares it
    rerank_config = _section(config, "rerank", rerank.RerankConfig)
    data = _load_corpus(config, "events", "relations", "mentions")
    golds = _gold_chains(config, data, data["mentions"])
    mentions_by_id = {m.id: m for m in data["mentions"]}
    # calibration scores the pairs training built, when both read one file
    featurizer = _pair_featurizer(config, data["events"], keep_pairs=True)
    train_results = retrieval.load_retrievals(train_retrievals)
    rerank.check_retrieval_ids(train_results, mentions_by_id, featurizer.corpus)
    threshold = rerank_config.threshold
    dev_results = None
    if threshold is None and dev_retrievals:
        dev_results = retrieval.load_retrievals(dev_retrievals)
        rerank.check_retrieval_ids(dev_results, mentions_by_id, featurizer.corpus)
    params = rerank.train_reranker(
        train_results, golds, mentions_by_id, featurizer, rerank_config
    )
    if dev_results is not None:
        threshold = rerank.select_threshold(
            params, featurizer, dev_results, golds, mentions_by_id,
            rerank_config.grid, rerank_config.k,
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
    data = _load_corpus(config, "events", "relations", "mentions", split=split)
    mentions_by_id = {m.id: m for m in data["mentions"]}
    results = retrieval.load_retrievals(retrievals_path)
    rerank.check_retrieval_ids(results, mentions_by_id, {e.id for e in data["events"]})
    golds = _gold_chains(config, data, _select_mentions(data, split))
    results = [r for r in results if r.mention_id in golds]
    if not results:
        raise ConfigError("no retrievals match the selected mentions")

    # a set threshold takes precedence over the one the reranker stores
    threshold = _threshold(config)
    if reranker_path:
        reranker_params, stored = rerank.load_reranker(reranker_path)
        threshold = stored if threshold is None else threshold
        if threshold is None:
            raise ConfigError("reranker checkpoint has no threshold; pass --threshold")
        featurizer = _pair_featurizer(config, data["events"])
        try:
            (records,) = rerank.rerank_records(
                reranker_params, featurizer, results, golds, mentions_by_id, (threshold,)
            )
        except NonFiniteScore as exc:
            raise NonFiniteScore(exc.what, reranker_path) from None
    else:
        records = [
            metrics.EvalRecord(result.mention_id, golds[result.mention_id], result.event_ids)
            for result in results
        ]

    out = _outdir(config)
    artifacts = ["report.json", "recall_strict.tsv"]
    if reranker_path:
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
    if reranker_path:
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
    for key, value in config["relext"].items():
        if value < 1:
            raise ConfigError(f"relext.{key} must be an integer >= 1, got {value!r}")
    list_k, max_ranking = config["relext"]["list_k"], config["relext"]["max_ranking"]
    data = _load_corpus(config, "events", "relations", split=split)
    forest = kb.build_forest(data["events"], data["relations"], config["max_height"])
    pool = dataset.candidate_pool(data["events"], mode="inference")
    lists = relext.build_mention_lists(retrievals_path, pool, list_k)
    # rankings only as long as the parents file or the report reads them
    top = max(RELEXT_RECALL_KS)
    rankings, unlinked = relext.rank_all_parents(lists, pool, max(max_ranking, top))

    evaluated = sorted(forest.parent)
    if "splits" in data:
        in_split = set(data["splits"].events_in_split(split))
        evaluated = [e for e in evaluated if e in in_split]
    report = {
        "n_events_evaluated": len(evaluated),
        "n_unlinked": len(set(unlinked) & set(evaluated)),
    }
    id_rankings = {
        e: [parent for parent, _ in rankings[e][:top]] for e in evaluated if e in rankings
    }
    recalls = metrics.relext_recall_at_ks(id_rankings, forest, RELEXT_RECALL_KS, evaluated)
    for k, recall in zip(RELEXT_RECALL_KS, recalls):
        report[f"relext_recall_at_{k}"] = recall
    out = _outdir(config)
    relext.write_parents(rankings, out / "parents.jsonl", max_ranking)
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


def _add_common(parser: argparse.ArgumentParser, *corpus: str) -> None:
    """The flags of every subcommand, then one per named corpus file."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output-dir")
    parser.add_argument("--mode", choices=encoder.LANGUAGE_MODES)
    parser.add_argument("--seed", type=int)
    for name in corpus:
        parser.add_argument(f"--{name}", dest=f"paths.{name}", help=f"{name} file")


def _add_settings(
    parser: argparse.ArgumentParser, section: str, *names: str, prefix: str = ""
) -> None:
    """One flag per named setting of a section, typed like its default."""
    for name in names:
        parser.add_argument(
            f"--{prefix}{name.replace('_', '-')}",
            dest=f"{section}.{name}",
            type=type(DEFAULT_CONFIG[section][name]),
        )


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    """Every flag that sets a setting has its dotted config path as dest."""
    parser = argparse.ArgumentParser(
        prog="hierground",
        description="Ground text mentions to hierarchies of knowledge-base events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a corpus and write stats")
    _add_common(p, "events", "relations", "mentions")
    p.add_argument("--max-height", type=int)

    p = sub.add_parser("split", help="zero-shot component splits")
    _add_common(p, "events", "relations")
    p.add_argument("--ratios", dest="split.ratios", type=_csv_floats)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_common(p)
    _add_settings(
        p, "synth", "n_trees", "branching", "height", "mentions_per_event", "vocab", "noise"
    )

    p = sub.add_parser("train", help="train the bi-encoder")
    _add_common(p, "events", "relations", "mentions", "splits")
    p.add_argument("--strategy", dest="train.strategy", choices=training.STRATEGIES)
    _add_settings(
        p, "train", "learning_rate", "epochs", "batch_size", "hier_batch_size",
        "hier_loss_weight", "pretrain_epochs",
    )
    p.add_argument("--max-height", type=int)
    _add_settings(p, "encoder", "F", "d")

    p = sub.add_parser("retrieve", help="top-k retrieval for a mention set")
    _add_common(p, "events", "mentions", "splits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="all", choices=("all",) + dataset.SPLIT_NAMES)
    _add_settings(p, "retrieve", "k")
    p.add_argument("--out", default="retrievals.jsonl")

    p = sub.add_parser("rerank-train", help="train the pair reranker")
    _add_common(p, "events", "relations", "mentions")
    p.add_argument(
        "--checkpoint", help="rejected: the retrievals already fix the bi-encoder"
    )
    p.add_argument("--train-retrievals", required=True)
    p.add_argument("--dev-retrievals")
    _add_settings(p, "rerank", "k", "epochs", "learning_rate", prefix="rerank-")
    _add_settings(p, "rerank", "hidden")
    p.add_argument("--max-height", type=int)

    p = sub.add_parser("evaluate", help="grounding metrics from retrievals")
    _add_common(p, "events", "relations", "mentions", "splits")
    p.add_argument("--retrievals", required=True)
    p.add_argument("--reranker")
    p.add_argument("--threshold", dest="rerank.threshold", type=float)
    p.add_argument("--split", choices=("all",) + dataset.SPLIT_NAMES)
    p.add_argument("--ks", dest="evaluate.ks", type=_csv_ints)
    p.add_argument("--atomic-only", action="store_true")
    p.add_argument("--max-height", type=int)

    p = sub.add_parser("relext", help="parent discovery from retrieval overlap")
    _add_common(p, "events", "relations", "splits")
    p.add_argument("--retrievals", required=True)
    p.add_argument("--split", choices=("all",) + dataset.SPLIT_NAMES)
    _add_settings(p, "relext", "list_k", "max_ranking")
    p.add_argument("--max-height", type=int)

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


# subcommand -> handler(resolved config, parsed arguments) -> artifact names
COMMANDS = {
    "ingest": lambda config, args: cmd_ingest(config),
    "split": lambda config, args: cmd_split(config),
    "synth": lambda config, args: cmd_synth(config),
    "train": lambda config, args: cmd_train(config),
    "retrieve": lambda config, args: cmd_retrieve(config, args.checkpoint, args.split, args.out),
    "rerank-train": lambda config, args: cmd_rerank_train(
        config, args.train_retrievals, args.dev_retrievals, args.checkpoint
    ),
    "evaluate": lambda config, args: cmd_evaluate(
        config, args.retrievals, args.reranker, args.split, args.atomic_only
    ),
    "relext": lambda config, args: cmd_relext(config, args.retrievals, args.split),
    "grad-check": lambda config, args: cmd_grad_check(config),
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread: a product's bits depend on how many threads
    split it, so the artifacts would otherwise depend on the host.  It
    calls the runtime thread-count setter of the OpenBLAS that numpy
    bundles; without one it does nothing, and it writes nothing to stderr."""
    libs = Path(numpy.__file__).parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
        return


def main(argv: list[str] | None = None) -> int:
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        artifacts = COMMANDS[args.command](config, args)
        _finish(config, args.command, artifacts)
    except (HiergroundError, OSError, ValueError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
