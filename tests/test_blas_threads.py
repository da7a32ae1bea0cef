"""Byte determinism across BLAS thread counts.

A BLAS product's bits depend on how many threads split it: unpinned, this
``train`` writes a different ``checkpoint.bin`` under 1 and 2 OpenBLAS
threads on a 2-core host.  The CLI pins BLAS to one thread at start, so
the files must be byte-equal whatever ``OPENBLAS_NUM_THREADS`` says.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

TRAIN = """
import sys
from hierground.cli import main
out = sys.argv[1]
o = ["--output-dir", out, "--seed", "0"]
c = [f"--{n}={out}/{n}.jsonl" for n in ("events", "relations", "mentions")]
assert main(["synth", *o, "--n-trees", "12", "--mentions-per-event", "3", "--vocab", "200"]) == 0
assert main(["split", *o, c[0], c[1]]) == 0
assert main(["train", *o, *c, f"--splits={out}/splits.json", "--strategy", "BASELINE",
             "--epochs", "3", "--batch-size", "128", "--F", "4096"]) == 0
"""


def train_under(threads: int, out: Path) -> bytes:
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", TRAIN, str(out)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return (out / "checkpoint.bin").read_bytes()


def test_train_checkpoint_is_the_same_under_one_and_two_blas_threads(tmp_path):
    assert train_under(1, tmp_path / "one") == train_under(2, tmp_path / "two")
