"""Tests of the benchmark itself, on toy-size variants of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
QUALITY_NAMES = [name for name, _ in run.QUALITY]
UNUSED_SEED = 7919  # not used while the workload flags were chosen


def bench(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """(result line, run record) of one toy run."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_runs_are_correct_and_deterministic(workload):
    runs = {seed: bench(workload, seed) for seed in (0, 1, UNUSED_SEED)}
    again, again_record = bench(workload, 0)
    for result, record in [*runs.values(), (again, again_record)]:
        assert result["correct"], record["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 11
        assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
        for name, unit in run.END_TO_END:
            assert result["metrics"][name]["unit"] == unit
    first, first_record = runs[0]
    for name in QUALITY_NAMES:
        assert again["metrics"][name] == first["metrics"][name]
    digests = {json.dumps(p["digests"], sort_keys=True)
               for p in first_record["passes"] + again_record["passes"]}
    assert len(digests) == 1
    assert first_record["environment"]["seed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_trace_reports_every_layer(workload):
    result, record = bench(workload, 1, trace=1)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.negative_self_spans"] == 0
    assert metrics["encoder.encode.calls"] > 0
    assert metrics["relext.rank_parents.calls"] > 0
    hierarchy = metrics["training.hierarchy_loss.calls"]
    assert (hierarchy > 0) == (workload == "train-hp")
    calibrated = workloads.WORKLOADS[workload].calibrate
    assert (metrics["rerank.select_threshold.calls"] > 0) == calibrated
    assert [p["traced"] for p in record["passes"]][:2] == [False, True]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-hp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_retrievals_are_seeded(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from hierground.cli import main

    assert main(["synth", "--output-dir", str(tmp_path), "--n-trees", "4",
                 "--mentions-per-event", "2", "--vocab", "100"]) == 0
    first = workloads.write_oracle_retrievals(tmp_path, 3, 0.3).read_bytes()
    assert workloads.write_oracle_retrievals(tmp_path, 3, 0.3).read_bytes() == first
    assert workloads.write_oracle_retrievals(tmp_path, 4, 0.3).read_bytes() != first
    clean = [json.loads(line) for line in
             workloads.write_oracle_retrievals(tmp_path, 3, 0.0).read_text().splitlines()]
    chains = workloads.gold_chains(tmp_path)
    for record in clean:
        ids = [c["event"] for c in record["candidates"]]
        chain = chains[record["mention_id"]]
        assert len(ids) == workloads.ORACLE_LIST_LEN
        assert ids[: len(chain)] == chain and set(ids) == set(chain)


def test_tracer_wraps_copied_bindings_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import hierground
    from hierground import encoder, retrieval, training

    originals = (encoder.encode, training.encode, retrieval.encode)
    tracer = Tracer()
    tracer.install(hierground)
    try:
        params = encoder.init_encoder(F=64, d=4)
        fv = encoder.hash_text("a mention text", 64)
        retrieval.encode(params, fv, "mention")  # untraced: no open stage
        with tracer.stage("probe"):
            training.encode(params, fv, "event")
            retrieval.encode(params, fv, "mention")
            encoder.hash_text("another text", 64)
    finally:
        tracer.uninstall()
    assert (encoder.encode, training.encode, retrieval.encode) == originals
    dump = tracer.dump()
    assert dump["stats"]["encoder.encode"]["calls"] == 2
    assert dump["stats"]["encoder.hash_text"]["calls"] == 1
    assert dump["counters"]["encoder.hash_text.ngrams"] == 10 + 9 + 8
    assert dump["negative_self_spans"] == 0
    stage = dump["stats"]["stage.probe"]
    assert stage["self_s"] <= stage["s"]
    # hot leaves are folded per parent span, not kept one record each
    assert [s["name"] for s in dump["spans"]] == ["stage.probe"]
    assert {h["name"]: h["calls"] for h in dump["hot"]} == {
        "encoder.encode": 2, "encoder.hash_text": 1}


def test_sampler_times_the_reference_unit_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 10
    assert 0 < sampler.spent() < 0.5
    assert sampler.factor(start, end) > 0
    # a short interval borrows the samples around it
    assert sampler.factor(start + 0.1, start + 0.1001) > 0
