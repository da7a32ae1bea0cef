"""The benchmark's workloads: one CLI subcommand sequence, three flag sets.

Every workload runs ``synth``, ``ingest``, ``split``, ``train``, three
``retrieve`` calls (train, dev, all), ``rerank-train``, ``evaluate`` and
``relext``; only the flags differ, and each flag set makes a different
stage dominate.  ``toy=True`` shrinks a workload to a few seconds while
keeping its subcommand sequence, for the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# stage name -> end-to-end metric its wall time is summed into
STAGE_METRIC = {
    "synth": "setup_s",
    "ingest": "setup_s",
    "split": "setup_s",
    "train": "train_s",
    "retrieve_train": "retrieve_s",
    "retrieve_dev": "retrieve_s",
    "retrieve_all": "retrieve_s",
    "rerank-train": "rerank_train_s",
    "evaluate": "evaluate_s",
    "relext": "relext_s",
}

ORACLE_LIST_LEN = 8
# evaluate scores the train split: on the zero-shot dev split every workload's
# recall@min and strict accuracy read 0
EVAL_SPLIT = "train"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: list[str]
    split: list[str]
    train: list[str]
    rerank: list[str]
    rerank_config: dict  # the --config "rerank" section
    calibrate: bool  # calibrate the threshold on the train retrievals
    oracle_noise: float  # share of relext input slots replaced by random events
    evaluate_chains: bool = False  # evaluate the noise-free oracle chains
    toy: dict[str, list[str]] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-hp",
            why="HP bi-encoder training dominates: featurization cached and "
            "reused over 20 epochs, linking and hierarchy losses with sparse scatter",
            synth=["--mentions-per-event", "3"],
            split=[],
            train=["--strategy", "HP", "--learning-rate", "30", "--hier-loss-weight",
                   "0.0033", "--epochs", "20", "--pretrain-epochs", "7"],
            rerank=["--rerank-k", "8", "--rerank-epochs", "2",
                    "--rerank-learning-rate", "1.0"],
            rerank_config={"threshold": 0.5, "batch_size": 8},
            calibrate=False,
            oracle_noise=0.0,
            toy={
                "synth": ["--n-trees", "10", "--mentions-per-event", "2", "--vocab", "200"],
                "train": ["--strategy", "HP", "--learning-rate", "30", "--hier-loss-weight",
                          "0.0033", "--epochs", "3", "--pretrain-epochs", "1",
                          "--F", "4096"],
                "rerank": ["--rerank-k", "8", "--rerank-epochs", "1"],
            },
        ),
        Workload(
            name="rerank-calib",
            why="reranker SGD and threshold calibration on train retrievals "
            "dominate; calibration rescores every pair 2x|grid| times",
            synth=["--mentions-per-event", "4"],
            split=["--ratios", "0.5,0.25,0.25"],
            train=["--strategy", "BASELINE", "--learning-rate", "30", "--epochs", "12",
                   "--F", "65536"],
            rerank=["--rerank-k", "8", "--rerank-epochs", "3",
                    "--rerank-learning-rate", "1.0"],
            rerank_config={"batch_size": 16},
            calibrate=True,
            oracle_noise=0.0,
            toy={
                "synth": ["--n-trees", "10", "--mentions-per-event", "2", "--vocab", "200"],
                "train": ["--strategy", "BASELINE", "--learning-rate", "30",
                          "--epochs", "2", "--F", "4096"],
                "rerank": ["--rerank-k", "8", "--rerank-epochs", "1"],
            },
        ),
        Workload(
            name="relext-wide",
            why="uncached retrieval over a wide pool and parent discovery for "
            "every event dominate; calibration is skipped",
            synth=["--n-trees", "300", "--mentions-per-event", "3", "--vocab", "8000"],
            split=["--ratios", "0.05,0.1,0.85"],
            train=["--strategy", "BASELINE", "--learning-rate", "40", "--epochs", "6",
                   "--batch-size", "256"],
            rerank=["--rerank-k", "4", "--rerank-epochs", "2",
                    "--rerank-learning-rate", "1.0"],
            rerank_config={"threshold": 0.5, "batch_size": 4},
            calibrate=False,
            oracle_noise=0.3,
            evaluate_chains=True,
            toy={
                "synth": ["--n-trees", "24", "--mentions-per-event", "2", "--vocab", "300"],
                "split": ["--ratios", "0.3,0.2,0.5"],
                "train": ["--strategy", "BASELINE", "--learning-rate", "10",
                          "--epochs", "1", "--F", "4096"],
                "rerank": ["--rerank-k", "4", "--rerank-epochs", "1"],
            },
        ),
    )
}


def steps(
    workload: Workload, seed: int, out: Path, toy: bool = False
) -> list[tuple[str, list[str]]]:
    """(stage, argv) pairs for ``hierground.cli.main``, in run order."""
    flags = {
        "synth": workload.synth,
        "split": workload.split,
        "train": workload.train,
        "rerank": workload.rerank,
    }
    if toy:
        flags.update(workload.toy)
    o = ["--output-dir", str(out), "--seed", str(seed)]
    events, relations, mentions = (
        str(out / "events.jsonl"),
        str(out / "relations.jsonl"),
        str(out / "mentions.jsonl"),
    )
    corpus = ["--events", events, "--relations", relations, "--mentions", mentions]
    splits = ["--splits", str(out / "splits.json")]
    checkpoint = ["--checkpoint", str(out / "checkpoint.bin")]

    def retrieve(split: str) -> tuple[str, list[str]]:
        return f"retrieve_{split}", [
            "retrieve", *o, "--events", events, "--mentions", mentions, *splits,
            *checkpoint, "--split", split, "--out", f"retrievals_{split}.jsonl",
        ]

    rerank_argv = [
        "rerank-train", *o, *corpus,
        "--train-retrievals", str(out / "retrievals_train.jsonl"),
        *flags["rerank"],
    ]
    if workload.calibrate:
        rerank_argv += ["--dev-retrievals", str(out / "retrievals_train.jsonl")]
    config = out / "rerank_config.json"
    config.write_text(json.dumps({"rerank": workload.rerank_config}), encoding="utf-8")
    rerank_argv += ["--config", str(config)]
    evaluated = "retrievals_chains.jsonl" if workload.evaluate_chains else "retrievals_train.jsonl"
    return [
        ("synth", ["synth", *o, *flags["synth"]]),
        ("ingest", ["ingest", *o, *corpus]),
        ("split", ["split", *o, "--events", events, "--relations", relations,
                   *flags["split"]]),
        ("train", ["train", *o, *corpus, *splits, *flags["train"]]),
        retrieve("train"),
        retrieve("dev"),
        retrieve("all"),
        ("rerank-train", rerank_argv),
        ("evaluate", [
            "evaluate", *o, *corpus, *splits,
            "--retrievals", str(out / evaluated),
            "--split", EVAL_SPLIT, "--reranker", str(out / "reranker.bin"),
            "--ks", "4,8",
        ]),
        ("relext", ["relext", *o, "--events", events, "--relations", relations,
                    "--retrievals", str(out / "retrievals_oracle.jsonl")]),
    ]


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def gold_chains(out: Path) -> dict[str, list[str]]:
    """Mention id -> anchor-first ancestor chain, read from the corpus files."""
    parent = {}
    for rel in read_jsonl(out / "relations.jsonl"):
        if rel["property"] == "P361":  # part of: subject is the child
            parent[rel["subject"]] = rel["object"]
        elif rel["property"] == "P527":  # has part: object is the child
            parent[rel["object"]] = rel["subject"]
    chains = {}
    for mention in read_jsonl(out / "mentions.jsonl"):
        chain = [mention["anchor_event"]]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
        chains[mention["id"]] = chain
    return chains


def write_oracle_retrievals(
    out: Path, seed: int, noise: float, name: str = "retrievals_oracle.jsonl"
) -> Path:
    """Oracle retrievals: root-padded gold chains, a ``noise`` share replaced.

    Every mention gets a list of ``ORACLE_LIST_LEN`` candidates, each slot
    replaced with probability ``noise`` by a pool event drawn uniformly, so
    every event in a chain is linked and parent discovery does its full
    work.  With no noise every parent ranks first.
    """
    pool = sorted(event["id"] for event in read_jsonl(out / "events.jsonl"))
    rng = np.random.default_rng(seed)
    path = out / name
    with open(path, "w", encoding="utf-8") as fh:
        for mention_id, chain in gold_chains(out).items():
            slots = chain + [chain[-1]] * (ORACLE_LIST_LEN - len(chain))
            noisy = rng.random(ORACLE_LIST_LEN) < noise
            picks = rng.integers(0, len(pool), size=ORACLE_LIST_LEN)
            slots = [pool[p] if n else e for e, n, p in zip(slots, noisy, picks)]
            record = {
                "mention_id": mention_id,
                "candidates": [
                    {"event": e, "score": float(ORACLE_LIST_LEN - i)}
                    for i, e in enumerate(slots)
                ],
            }
            fh.write(json.dumps(record) + "\n")
    return path
