"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload train-hp --seed 0 --seconds 40 --trace 0

Each pass drives the workload through ``hierground.cli.main`` in a fresh
interpreter (``onepass.py``), one subcommand after another: a closed
loop with a single caller.  Passes repeat until the next one would end
after ``--seconds``; every metric is the median over the passes, and
every time is host-normalized wall time (see ``reference.py``).  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones, plus the tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (environment, per-stage wall, host factor, normalized
and CPU time, artifact digests, failures).  Must be run from a checkout
holding ``src/hierground``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

HARD_LIMIT_S = 170.0  # the whole run, passes included, ends before this
SETUP_REPEATS = 2
BLAS_THREADS = 1

QUALITY = [
    ("final_linking_loss", "loss"),
    ("eval_recall_at_min", "ratio"),
    ("eval_recall_at_8_fraction", "ratio"),
    ("eval_micro_f1", "ratio"),
    ("relext_recall_at_1", "ratio"),
]
STAGE_METRICS = ["train_s", "retrieve_s", "rerank_train_s", "evaluate_s", "relext_s"]
END_TO_END = (
    [("setup_s", "s"), ("pipeline_s", "s")]
    + [(name, "s") for name in STAGE_METRICS]
    + [("peak_rss_mb", "MB"), ("artifacts_mb", "MB")]
    + QUALITY
)

# (metric, unit, source): a trace stat "<span>:<calls|s|self_s>", a counter
# "counter:<name>", or a derived value computed in layer_metrics
PER_LAYER = [
    ("cli.self_s", "s", "cli.main:self_s"),
    *[(f"cli.{m.removesuffix('_s')}.cpu_s", "s", f"cpu:{m}") for m in ["setup_s", *STAGE_METRICS]],
    ("dataset.generate_synthetic.s", "s", "dataset.generate_synthetic:s"),
    ("dataset.load_mentions.calls", "count", "dataset.load_mentions:calls"),
    ("dataset.load_mentions.s", "s", "dataset.load_mentions:s"),
    ("dataset.expand_gold.s", "s", "dataset.expand_gold:s"),
    ("kb.load_events.calls", "count", "kb.load_events:calls"),
    ("kb.load_events.s", "s", "kb.load_events:s"),
    ("kb.build_forest.calls", "count", "kb.build_forest:calls"),
    ("kb.build_forest.s", "s", "kb.build_forest:s"),
    ("encoder.hash_text.calls", "count", "encoder.hash_text:calls"),
    ("encoder.hash_text.s", "s", "encoder.hash_text:s"),
    ("encoder.hash_text.ngrams", "count", "counter:encoder.hash_text.ngrams"),
    ("encoder.hash_text.repeat_ratio", "ratio", "derived"),
    ("encoder.encode.calls", "count", "encoder.encode:calls"),
    ("encoder.encode.s", "s", "encoder.encode:s"),
    ("encoder.save_checkpoint.s", "s", "encoder.save_checkpoint:s"),
    ("encoder.load_checkpoint.calls", "count", "encoder.load_checkpoint:calls"),
    ("encoder.load_checkpoint.s", "s", "encoder.load_checkpoint:s"),
    ("encoder.checkpoint_bytes", "bytes", "counter:encoder.checkpoint_bytes"),
    ("training.linking_loss.calls", "count", "training.linking_loss:calls"),
    ("training.linking_loss.s", "s", "training.linking_loss:s"),
    ("training.linking_loss.self_s", "s", "training.linking_loss:self_s"),
    ("training.linking_loss.nnz", "count", "counter:training.linking_loss.nnz"),
    ("training.linking_loss.rows", "count", "counter:training.linking_loss.rows"),
    ("training.linking_loss.degenerate", "count", "counter:training.linking_loss.degenerate"),
    ("training.hierarchy_loss.calls", "count", "training.hierarchy_loss:calls"),
    ("training.hierarchy_loss.rows", "count", "counter:training.hierarchy_loss.rows"),
    ("training.build_linking_batch.s", "s", "training.build_linking_batch:s"),
    ("training.train.self_s", "s", "training.train:self_s"),
    ("retrieval.CandidateIndex.matrix.s", "s", "retrieval.CandidateIndex.matrix:s"),
    ("retrieval.topk.calls", "count", "retrieval.topk:calls"),
    ("retrieval.topk.s", "s", "retrieval.topk:s"),
    ("retrieval.topk.self_s", "s", "retrieval.topk:self_s"),
    ("retrieval.retrieve_mentions.self_s", "s", "retrieval.retrieve_mentions:self_s"),
    ("retrieval.write_retrievals.s", "s", "retrieval.write_retrievals:s"),
    ("retrieval.write_retrievals.bytes", "bytes", "counter:retrieval.write_retrievals.bytes"),
    ("retrieval.load_retrievals.calls", "count", "retrieval.load_retrievals:calls"),
    ("retrieval.load_retrievals.s", "s", "retrieval.load_retrievals:s"),
    ("rerank.PairFeaturizer.pair_fv.calls", "count", "rerank.PairFeaturizer.pair_fv:calls"),
    ("rerank.PairFeaturizer.pair_fv.s", "s", "rerank.PairFeaturizer.pair_fv:s"),
    ("rerank.score_pair.calls", "count", "rerank.score_pair:calls"),
    ("rerank.score_pair.s", "s", "rerank.score_pair:s"),
    ("rerank.scores_per_pair", "ratio", "derived"),
    ("rerank.train_reranker.s", "s", "rerank.train_reranker:s"),
    ("rerank.train_reranker.self_s", "s", "rerank.train_reranker:self_s"),
    ("rerank.select_threshold.calls", "count", "rerank.select_threshold:calls"),
    ("rerank.score_candidates.calls", "count", "rerank.score_candidates:calls"),
    ("rerank.predict_set.calls", "count", "rerank.predict_set:calls"),
    ("metrics.set_metrics.calls", "count", "metrics.set_metrics:calls"),
    ("metrics.set_metrics.s", "s", "metrics.set_metrics:s"),
    ("relext.build_mention_lists.s", "s", "relext.build_mention_lists:s"),
    ("relext.rank_parents.calls", "count", "relext.rank_parents:calls"),
    ("relext.rank_parents.s", "s", "relext.rank_parents:s"),
    ("relext.ranked_per_written", "ratio", "derived"),
    ("trace.overhead_s", "s", "derived"),
    ("trace.negative_self_spans", "count", "derived"),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def stage_sums(record: dict, field: str) -> dict[str, float]:
    """Per metric, the sum over its stages of each stage's mean call."""
    calls: dict[tuple[str, str], list[float]] = {}
    for stage in record["stages"]:
        calls.setdefault((stage["metric"], stage["stage"]), []).append(stage[field])
    sums: dict[str, float] = {}
    for (metric, _), values in calls.items():
        sums[metric] = sums.get(metric, 0.0) + statistics.fmean(values)
    return sums


def pipeline_s(record: dict) -> float:
    return sum(v for k, v in stage_sums(record, "time_s").items() if k != "setup_s")


def end_to_end_metrics(record: dict) -> dict[str, float]:
    times = stage_sums(record, "time_s")
    metrics = {"setup_s": record["setup_s"], "pipeline_s": pipeline_s(record)}
    metrics.update({name: times.get(name, 0.0) for name in STAGE_METRICS})
    metrics["peak_rss_mb"] = record["peak_rss_mb"]
    metrics["artifacts_mb"] = record["artifacts_bytes"] / 1e6
    metrics.update(record.get("quality", {}))
    return metrics


def layer_metrics(record: dict) -> dict[str, float]:
    trace = record["trace"]
    stats, counters = trace["stats"], trace["counters"]
    cpu = stage_sums(record, "cpu_s")
    derived = {
        "encoder.hash_text.repeat_ratio": _ratio(
            stats.get("encoder.hash_text", {}).get("calls", 0), trace["distinct_texts"]
        ),
        "rerank.scores_per_pair": _ratio(
            stats.get("rerank.score_pair", {}).get("calls", 0), trace["distinct_pairs"]
        ),
        "relext.ranked_per_written": _ratio(
            counters.get("relext.ranked", 0), counters.get("relext.written", 0)
        ),
        "trace.negative_self_spans": trace["negative_self_spans"],
    }
    metrics = {}
    for name, _unit, source in PER_LAYER:
        if source == "derived":
            if name in derived:
                metrics[name] = derived[name]
        elif source.startswith("counter:"):
            metrics[name] = counters.get(source.removeprefix("counter:"), 0)
        elif source.startswith("cpu:"):
            metrics[name] = cpu.get(source.removeprefix("cpu:"), 0.0)
        else:
            span, stat = source.rsplit(":", 1)
            metrics[name] = stats.get(span, {}).get(stat, 0)
    return metrics


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("HIERGROUND_OUTPUT_DIR", None)
    return env


def run_one_pass(args, work: Path, index: int, traced: bool, budget: float) -> dict:
    out = work / f"pass{index}"
    result = work / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "onepass.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--out", str(out),
           "--result", str(result), "--trace", "1" if traced else "0",
           "--setup-repeats", "1" if traced else str(SETUP_REPEATS)]
    if args.toy:
        cmd.append("--toy")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, budget))
        problem = None if proc.returncode == 0 else (
            f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    except subprocess.TimeoutExpired:
        problem = f"pass killed after {budget:.0f} s"
    duration = time.perf_counter() - start
    if problem is None:
        record = json.loads(result.read_text("utf-8"))
    else:
        record = {"stages": [], "pass_error": problem}
    record["traced"] = traced
    record["duration_s"] = duration
    shutil.rmtree(out, ignore_errors=True)
    return record


def summarize(args, passes: list[dict]) -> tuple[dict, dict]:
    """(result line, run record) from the records of every pass."""
    attempted = failed = 0
    problems: list[str] = []
    for record in passes:
        if "pass_error" in record:
            attempted += 1
            failed += 1
            problems.append(record["pass_error"])
            continue
        ops = [s for s in record["stages"] if s["stage"] not in ("import", "oracle")]
        attempted += len(ops)
        failed += sum(not s["ok"] for s in ops)
        problems += [p for s in ops for p in s["problems"]]
        if "quality_error" in record:
            problems.append(record["quality_error"])
    good = [r for r in passes if "pass_error" not in r and "quality" in r]
    if len({json.dumps([r["quality"], r["digests"]], sort_keys=True) for r in good}) > 1:
        problems.append("same seed gave different quality or digests across passes")
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if any(r["trace"]["negative_self_spans"] for r in traced):
        problems.append("a span has negative self time")

    metrics: dict[str, dict] = {}
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        if traced and untraced:
            values = [layer_metrics(r) for r in traced]
            overhead = statistics.median(map(pipeline_s, traced)) - statistics.median(
                map(pipeline_s, untraced))
            for name in units:
                if name == "trace.overhead_s":
                    metrics[name] = {"value": overhead, "unit": "s"}
                else:
                    metrics[name] = {"value": statistics.median(v[name] for v in values),
                                     "unit": units[name]}
    elif untraced:
        values = [end_to_end_metrics(r) for r in untraced]
        for name, unit in END_TO_END:
            if all(name in v for v in values):
                metrics[name] = {"value": statistics.median(v[name] for v in values),
                                 "unit": unit}
    expected = PER_LAYER if args.trace else END_TO_END
    missing = [m[0] for m in expected if m[0] not in metrics]
    if missing:
        problems.append(f"missing metrics: {missing}")
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    run_record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "passes": [
            {
                "traced": r["traced"],
                "duration_s": r["duration_s"],
                "stages": [{k: s[k] for k in ("stage", "wall_s", "factor", "time_s", "cpu_s", "ok")}
                           for s in r.get("stages", [])],
                "setup_s": r.get("setup_s"),
                "peak_rss_mb": r.get("peak_rss_mb"),
                "quality": r.get("quality"),
                "digests": r.get("digests"),
            }
            for r in passes
        ],
        "problems": problems[:50],
    }
    return result, run_record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrunken workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hierground" / "cli.py").is_file():
        print(f"perfbench: no src/hierground under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        passes.append(run_one_pass(args, work, len(passes), traced, HARD_LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        if "pass_error" in passes[-1]:
            break
        if args.trace and len(passes) % 2:
            continue  # finish the untraced/traced pair
        # start another pass (or pair) only if it ends in time
        step = max(r["duration_s"] for r in passes) * (2 if args.trace else 1)
        if elapsed + step > min(args.seconds, HARD_LIMIT_S):
            break
    for record in passes:
        if record.get("traced") and "trace" in record:
            (work / "trace.json").write_text(json.dumps(record["trace"]), encoding="utf-8")
    result, run_record = summarize(args, passes)
    (work / "record.json").write_text(json.dumps(run_record, indent=1), encoding="utf-8")
    print(json.dumps(run_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
