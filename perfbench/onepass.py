"""One pass of a workload through ``hierground.cli.main``, in this process.

Run by ``run.py`` in a fresh interpreter per pass, so every pass pays
the imports, cold caches and checkpoint loads a command-line user pays.
Writes one JSON record to ``--result``: per-stage wall and CPU seconds,
host factor and host-normalized seconds (``reference.py``), operation
outcomes, quality, artifact digests, peak RSS and, with ``--trace 1``,
the layer trace.

    python3 perfbench/onepass.py --root . --workload train-hp --seed 0 \\
        --out .perfbench/pass --result .perfbench/pass.json --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


SHORT_STAGE_S = 0.3  # a pipeline stage is called again while its calls sum to less
SHORT_STAGE_CALLS = 9  # but at most this often


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Clock:
    """Times one call: raw wall, wall less the sampler's time, CPU."""

    def __init__(self, sampler: reference.Sampler) -> None:
        self.sampler = sampler
        self.wall0 = time.perf_counter()
        self.cpu0 = cpu_seconds()
        self.spent0 = sampler.spent()

    def stop(self) -> dict:
        end, cpu = time.perf_counter(), cpu_seconds() - self.cpu0
        wall = end - self.wall0
        net = wall - (self.sampler.spent() - self.spent0)
        return {"start": self.wall0, "end": end, "wall_s": wall, "net_s": net, "cpu_s": cpu}


def normalize(sampler: reference.Sampler, group: list[dict]) -> None:
    """Divide each call's net time by one host factor, read over the whole group.

    Calls far shorter than the sampling period get no factor of their
    own that follows them; the window of all consecutive calls does.
    """
    factor = sampler.factor(group[0]["start"], group[-1]["end"])
    for call in group:
        call["factor"] = factor
        call["time_s"] = call["net_s"] / factor


def side_stage(name: str, clock: Clock) -> dict:
    """Set-up work of the benchmark's own that is timed but is no operation."""
    return {"stage": name, "metric": "setup_s", **clock.stop(), "ok": True, "problems": []}


def run_stage(cli, tracer, sampler, stage: str, argv: list[str], out: Path) -> dict:
    """One subcommand plus its output check: one operation."""
    gc.collect()  # start each stage from a collected heap, as a fresh process would
    err, outbuf = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(outbuf):
        span = tracer.stage(stage) if tracer else contextlib.nullcontext()
        clock = Clock(sampler)
        with span:
            code = cli.main(argv)
        timing = clock.stop()
    problems = []
    if code != 0:
        problems.append(f"{stage}: exit code {code}")
    if err.getvalue():
        problems.append(f"{stage}: stderr {err.getvalue()[:500]!r}")
    if code == 0:
        try:
            problems += checks.check_stage(stage, out, workloads.EVAL_SPLIT)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{stage}: check raised {type(exc).__name__}: {exc}")
    return {"stage": stage, "metric": workloads.STAGE_METRIC[stage], **timing,
            "ok": not problems, "problems": problems, "code": code}


def run_pass(
    root: Path, name: str, seed: int, out: Path, trace: bool, toy: bool,
    setup_repeats: int = 1,
) -> dict:
    """Set up ``setup_repeats`` times in ``out``, then run the pipeline once,
    short stages repeated when untraced.

    ``setup_s`` samples are import time plus one set-up round each
    (``synth``, ``ingest``, ``split`` and the oracle relext input).
    Every stage time is host-normalized (see ``reference.py``).
    """
    workload = workloads.WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    with reference.Sampler() as sampler:
        record = _run_stages(root, workload, seed, out, trace, toy, setup_repeats, sampler)
    record["host_samples"] = len(sampler.samples)
    return record


def _run_stages(root, workload, seed, out, trace, toy, setup_repeats, sampler) -> dict:
    clock = Clock(sampler)
    sys.path.insert(0, str(root / "src"))
    import hierground
    from hierground import cli

    stages = [side_stage("import", clock)]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(hierground)

    steps = workloads.steps(workload, seed, out, toy)
    setup_steps = [(stage, argv) for stage, argv in steps if workloads.STAGE_METRIC[stage] == "setup_s"]
    pipeline_steps = steps[len(setup_steps):]
    rounds = []
    for _ in range(setup_repeats):
        round_stages = [run_stage(cli, tracer, sampler, stage, argv, out)
                        for stage, argv in setup_steps]
        clock = Clock(sampler)
        workloads.write_oracle_retrievals(out, seed, workload.oracle_noise)
        if workload.evaluate_chains:
            workloads.write_oracle_retrievals(out, seed, 0.0, "retrievals_chains.jsonl")
        round_stages.append(side_stage("oracle", clock))
        rounds.append(round_stages)
        stages += round_stages
    normalize(sampler, stages)
    # every sample pays the imports, as every command-line call would
    setup_samples = [stages[0]["time_s"] + sum(s["time_s"] for s in round_stages)
                     for round_stages in rounds]
    # untraced passes repeat a short stage, whose time is the mean of its calls;
    # traced passes call each once, so the trace's counts do not hang on host speed
    max_calls = 1 if trace else SHORT_STAGE_CALLS
    for stage, argv in pipeline_steps:
        calls = [run_stage(cli, tracer, sampler, stage, argv, out)]
        while (calls[-1]["code"] == 0 and len(calls) < max_calls
               and sum(c["wall_s"] for c in calls) < SHORT_STAGE_S):
            calls.append(run_stage(cli, tracer, sampler, stage, argv, out))
        normalize(sampler, calls)
        stages += calls
        if calls[-1]["code"] != 0:
            break

    record: dict = {"stages": stages, "setup_s": statistics.median(setup_samples),
                    "setup_samples": setup_samples,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "artifacts_bytes": checks.artifact_bytes(out)}
    try:
        record["quality"] = checks.quality(out)
        record["digests"] = checks.digests(out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        record["quality_error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.dump()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-repeats", type=int, default=1)
    args = parser.parse_args(argv)
    record = run_pass(args.root, args.workload, args.seed, args.out,
                      bool(args.trace), args.toy, args.setup_repeats)
    args.result.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
