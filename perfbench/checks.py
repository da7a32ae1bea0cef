"""Output checks run after each subcommand, and the quality read-outs.

A check returns a list of problems; an empty list means the operation
succeeded.  JSON is parsed strictly: ``NaN``/``Infinity`` and any
non-finite number count as a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DIGESTED = (
    "checkpoint.bin",
    "reranker.bin",
    "predictions.jsonl",
    "parents.jsonl",
    "report.json",
    "relext_report.json",
)
RETRIEVE_K = 8  # the CLI's default --k, which the workloads keep
MAX_RANKING = 16  # the CLI's default --max-ranking


class NonFinite(ValueError):
    pass


def _reject_constant(token: str):
    raise NonFinite(f"non-finite JSON constant {token}")


def _finite(value, where: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFinite(f"non-finite value in {where}")
    if isinstance(value, dict):
        for item in value.values():
            _finite(item, where)
    elif isinstance(value, list):
        for item in value:
            _finite(item, where)


def strict_json(text: str, where: str):
    value = json.loads(text, parse_constant=_reject_constant)
    _finite(value, where)
    return value


def strict_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [strict_json(line, path.name) for line in fh if line.strip()]


def split_mentions(out: Path, split: str) -> set[str]:
    """Mention ids whose anchor's component is assigned to ``split``."""
    mentions = strict_jsonl(out / "mentions.jsonl")
    if split == "all":
        return {m["id"] for m in mentions}
    assignment = json.loads((out / "splits.json").read_text("utf-8"))
    component, split_of = assignment["components"], assignment["splits"]
    return {
        m["id"]
        for m in mentions
        if split_of.get(component.get(m["anchor_event"])) == split
    }


def check_retrievals(out: Path, split: str) -> list[str]:
    results = strict_jsonl(out / f"retrievals_{split}.jsonl")
    problems = []
    expected = split_mentions(out, split)
    got = [r["mention_id"] for r in results]
    if len(got) != len(set(got)) or set(got) != expected:
        problems.append(f"retrievals_{split}: {len(got)} lines for {len(expected)} mentions")
    for r in results:
        ids = [c["event"] for c in r["candidates"]]
        scores = [c["score"] for c in r["candidates"]]
        if len(ids) != RETRIEVE_K or len(set(ids)) != RETRIEVE_K:
            problems.append(f"retrievals_{split}: {r['mention_id']} has {len(ids)} candidates")
            break
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"retrievals_{split}: {r['mention_id']} scores not descending")
            break
    return problems


def check_training_log(out: Path) -> list[str]:
    log = strict_jsonl(out / "training_log.jsonl")
    return [] if log and "linking_loss" in log[-1] else ["training_log.jsonl is empty"]


def check_evaluate(out: Path, split: str) -> list[str]:
    report = strict_json((out / "report.json").read_text("utf-8"), "report.json")
    predictions = strict_jsonl(out / "predictions.jsonl")
    expected = split_mentions(out, split)
    got = {p["mention_id"] for p in predictions}
    problems = []
    if len(predictions) != len(expected) or got != expected:
        problems.append(f"predictions.jsonl: {len(predictions)} lines for {len(expected)} mentions")
    if report.get("n_records") != len(expected):
        problems.append(f"report.json: n_records {report.get('n_records')} != {len(expected)}")
    for key in ("recall_at_min", "recall_at_8_fraction", "micro_f1", "strict_acc"):
        if key not in report:
            problems.append(f"report.json: missing {key}")
    return problems


def check_relext(out: Path) -> list[str]:
    report = strict_json(
        (out / "relext_report.json").read_text("utf-8"), "relext_report.json"
    )
    problems = [] if "relext_recall_at_1" in report else ["relext_report.json: no recall@1"]
    for record in strict_jsonl(out / "parents.jsonl"):
        if len(record["ranking"]) > MAX_RANKING:
            problems.append(f"parents.jsonl: {record['event']} ranks {len(record['ranking'])}")
            break
    return problems


def check_stage(stage: str, out: Path, eval_split: str) -> list[str]:
    """The output check for one subcommand of the workload sequence."""
    expected_files = {
        "synth": ["events.jsonl", "relations.jsonl", "mentions.jsonl"],
        "ingest": ["stats.json", "forest.json"],
        "split": ["splits.json"],
        "rerank-train": ["reranker.bin"],
    }
    if stage in expected_files:
        return [f"{stage}: {name} missing or empty" for name in expected_files[stage]
                if not (out / name).is_file() or (out / name).stat().st_size == 0]
    if stage == "train":
        return check_training_log(out)
    if stage.startswith("retrieve_"):
        return check_retrievals(out, stage.removeprefix("retrieve_"))
    if stage == "evaluate":
        return check_evaluate(out, eval_split)
    if stage == "relext":
        return check_relext(out)
    raise ValueError(f"no check for stage {stage!r}")


def quality(out: Path) -> dict[str, float]:
    """The quality end-to-end metrics, read from the run's artifacts."""
    log = strict_jsonl(out / "training_log.jsonl")
    report = strict_json((out / "report.json").read_text("utf-8"), "report.json")
    relext = strict_json(
        (out / "relext_report.json").read_text("utf-8"), "relext_report.json"
    )
    return {
        "final_linking_loss": log[-1]["linking_loss"],
        "eval_recall_at_min": report["recall_at_min"],
        "eval_recall_at_8_fraction": report["recall_at_8_fraction"],
        "eval_micro_f1": report["micro_f1"],
        "eval_strict_acc": report["strict_acc"],
        "relext_recall_at_1": relext["relext_recall_at_1"],
    }


def digests(out: Path) -> dict[str, str]:
    result = {}
    for name in DIGESTED:
        h = hashlib.sha256()
        with open(out / name, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        result[name] = h.hexdigest()
    return result


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
