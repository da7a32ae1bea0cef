"""Peak traced memory of the stages that use the bi-encoder.

``tracemalloc`` sees numpy's array buffers, so a stage that held a whole
2^18 x 32 tower (67 MB of float64) would show it here.
"""

import tracemalloc

import numpy as np

from hierground.cli import main
from hierground.encoder import BLOCK_ROWS, DEFAULT_D, DEFAULT_F, init_fill, tower_shape

TOWER_BYTES = DEFAULT_F * DEFAULT_D * 8


def traced_peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv[0]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_and_retrieve_never_hold_a_whole_tower(tmp_path):
    o = ["--output-dir", str(tmp_path), "--seed", "0"]
    corpus = [f"--{name}={tmp_path / f'{name}.jsonl'}" for name in ("events", "relations")]
    mentions = f"--mentions={tmp_path / 'mentions.jsonl'}"
    splits = f"--splits={tmp_path / 'splits.json'}"
    assert main(["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "120"]) == 0
    assert main(["split", *o, *corpus]) == 0
    # the default F = 2^18 and d = 32
    train = traced_peak(
        ["train", *o, *corpus, mentions, splits, "--strategy", "HP", "--epochs", "2"]
    )
    retrieve = traced_peak(
        ["retrieve", *o, corpus[0], mentions,
         f"--checkpoint={tmp_path / 'checkpoint.bin'}", "--out", "retrievals.jsonl"]
    )
    # the towers are whole 2^18 x 32 ones; the file stores their trained rows
    assert tower_shape(tmp_path / "checkpoint.bin") == (DEFAULT_F, DEFAULT_D)
    assert (tmp_path / "checkpoint.bin").stat().st_size < TOWER_BYTES // 10
    assert train < TOWER_BYTES, train
    assert retrieve < TOWER_BYTES, retrieve


def test_fill_allocates_no_full_size_temporary():
    # about the rows relext-wide's retrieve --split all initializes
    rows = np.arange(0, 2 * 180_000, 2)
    out = np.empty((rows.size, DEFAULT_D))
    tracemalloc.start()
    try:
        init_fill(8675, "mention", rows, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two uint64 block buffers and the block's row counters, nothing the
    # size of the 46 MB output
    assert peak <= 3 * BLOCK_ROWS * DEFAULT_D * 8, peak
    assert out.nbytes > 20 * peak
