"""Peak traced memory of the stages that use the bi-encoder, and of
reranking.

``tracemalloc`` sees numpy's array buffers, so a stage that held a whole
2^18 x 32 tower (33.5 MB of float32) would show it here.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np

from hierground import encoder, rerank
from hierground.cli import main
from hierground.dataset import (
    SyntheticConfig,
    candidate_pool,
    generate_synthetic,
    load_mentions,
    write_mentions,
)
from hierground.encoder import (
    BLOCK_ROWS,
    DEFAULT_D,
    DEFAULT_F,
    DEFAULT_MAX_CONTEXT_CHARS,
    TOWER_DTYPE,
    hash_texts,
    init_fill,
    span_window,
    tower_shape,
)
from hierground.kb import load_events
from hierground.retrieval import RetrievalResult, retrieve_from_checkpoint

TOWER_BYTES = DEFAULT_F * DEFAULT_D * TOWER_DTYPE.itemsize


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


def test_retrieve_holds_one_run_of_hashed_windows(tmp_path):
    """Four times the mentions raise retrieve's traced peak by less than
    the hashed features of the added windows: they are hashed, encoded and
    scored a run at a time, never all held together."""
    o = ["--output-dir", str(tmp_path), "--seed", "0"]
    corpus = [f"--{name}={tmp_path / f'{name}.jsonl'}" for name in ("events", "relations")]
    assert main(["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "120"]) == 0
    assert main(["split", *o, *corpus]) == 0
    assert main(["train", *o, *corpus, f"--mentions={tmp_path / 'mentions.jsonl'}",
                 f"--splits={tmp_path / 'splits.json'}", "--strategy", "HP", "--epochs", "1"]) == 0
    # full-size windows of the corpus's texts under new ids; repeated texts
    # read the same tower rows, so the rows loaded do not grow with the count
    base = load_mentions(tmp_path / "mentions.jsonl")
    mentions = [
        dataclasses.replace(m, id=f"Q{i:05d}", context=(m.context + " ") * 4)
        for i, m in enumerate(base[i % len(base)] for i in range(4 * 600))
    ]
    assert len(span_window(mentions[0], DEFAULT_MAX_CONTEXT_CHARS)) == DEFAULT_MAX_CONTEXT_CHARS
    # 600 mentions fill more than two runs of 256, so both counts peak while
    # a later run is hashed, with the mention tower in use
    peaks = []
    for n in (600, 2400):
        write_mentions(mentions[:n], tmp_path / f"q{n}.jsonl")
        peaks.append(traced_peak(
            ["retrieve", *o, corpus[0], f"--mentions={tmp_path / f'q{n}.jsonl'}",
             f"--checkpoint={tmp_path / 'checkpoint.bin'}", "--out", f"r{n}.jsonl"]
        ))
    windows = [span_window(m, DEFAULT_MAX_CONTEXT_CHARS) for m in mentions[600:]]
    added = sum(fv.indices.nbytes + fv.values.nbytes for fv in hash_texts(windows, DEFAULT_F))
    assert peaks[1] - peaks[0] < added, (peaks, added)


def test_retrieve_holds_one_run_of_results(tmp_path):
    """Four times the mentions raise retrieve's traced peak by less than
    the added results would take: each run's results are written before
    the next run is hashed, never all held together."""
    o = ["--output-dir", str(tmp_path), "--seed", "0"]
    corpus = [f"--{name}={tmp_path / f'{name}.jsonl'}" for name in ("events", "relations")]
    assert main(["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "120"]) == 0
    assert main(["split", *o, *corpus]) == 0
    checkpoint = tmp_path / "checkpoint.bin"
    assert main(["train", *o, *corpus, f"--mentions={tmp_path / 'mentions.jsonl'}",
                 f"--splits={tmp_path / 'splits.json'}", "--strategy", "HP", "--epochs", "1"]) == 0
    # every pool event a candidate, so a result outweighs its mention
    events = load_events(tmp_path / "events.jsonl")
    pool = candidate_pool(events, mode="inference")
    k = len(set(pool))
    base = load_mentions(tmp_path / "mentions.jsonl")
    mentions = [
        dataclasses.replace(base[i % len(base)], id=f"Q{i:05d}") for i in range(4 * 600)
    ]
    peaks = []
    for n in (600, 2400):
        write_mentions(mentions[:n], tmp_path / f"q{n}.jsonl")
        peaks.append(traced_peak(
            ["retrieve", *o, corpus[0], f"--mentions={tmp_path / f'q{n}.jsonl'}",
             f"--checkpoint={checkpoint}", "--k", str(k), "--out", f"r{n}.jsonl"]
        ))
    # the bytes the added mentions' results take when they are all held
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        added = list(retrieve_from_checkpoint(checkpoint, events, pool, mentions[600:], k))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(added) == 1800 and len(added[0].candidates) == k
    assert peaks[1] - peaks[0] < held, (peaks, held)


def test_rerank_records_holds_one_run_of_pair_vectors():
    """Four times the mentions raise ``rerank_records``' traced peak by
    less than the pair vectors of the added mentions: without kept pairs
    they are built and scored a run of mentions at a time, never all held
    together, and neither are the run kernel's temporaries."""
    events, _, base = generate_synthetic(SyntheticConfig(n_trees=4, vocab=120))
    ids = [event.id for event in events]
    mentions = [dataclasses.replace(base[i % len(base)], id=f"Q{i:05d}") for i in range(4 * 96)]
    # 8 candidates a mention; 96 mentions fill three runs
    results = [
        RetrievalResult(m.id, [(ids[(i + j) % len(ids)], 1.0) for j in range(8)])
        for i, m in enumerate(mentions)
    ]
    by_id = {m.id: m for m in mentions}
    golds = {m.id: (m.anchor_event,) for m in mentions}
    params = rerank.init_reranker(hidden=4)
    peaks = []
    for n in (96, 4 * 96):
        tracemalloc.start()
        try:
            featurizer = rerank.PairFeaturizer(events)
            (records,) = rerank.rerank_records(
                params, featurizer, results[:n], golds, by_id, [0.5]
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(records) == n
    pair_dicts = rerank.PairFeaturizer(events).pair_fvs(
        mentions[96:], [result.event_ids for result in results[96:]]
    )
    added = sum(
        fv.indices.nbytes + fv.values.nbytes for pairs in pair_dicts for fv in pairs.values()
    )
    assert peaks[1] - peaks[0] < added, (peaks, added)


def test_rerank_train_keeps_pairs_and_blocks_at_their_true_width(tmp_path, monkeypatch):
    """The kept pair vectors take at most 6 bytes a nonzero (2-byte ids,
    float32 values) and each text's block at most 12 (ids, shifted ids,
    counts and values)."""
    o = ["--output-dir", str(tmp_path), "--seed", "0"]
    corpus = [f"--{name}={tmp_path / f'{name}.jsonl'}" for name in ("events", "relations")]
    mentions = f"--mentions={tmp_path / 'mentions.jsonl'}"
    splits = f"--splits={tmp_path / 'splits.json'}"
    assert main(["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "120"]) == 0
    assert main(["split", *o, *corpus]) == 0
    assert main(["train", *o, *corpus, mentions, splits, "--strategy", "HP", "--epochs", "1"]) == 0
    assert main(["retrieve", *o, corpus[0], mentions, splits, "--split", "train",
                 f"--checkpoint={tmp_path / 'checkpoint.bin'}", "--out", "r.jsonl"]) == 0
    featurizers = []

    class Recorded(rerank.PairFeaturizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            featurizers.append(self)

    monkeypatch.setattr(rerank, "PairFeaturizer", Recorded)
    assert main(["rerank-train", *o, *corpus, mentions, "--rerank-epochs", "1",
                 "--train-retrievals", str(tmp_path / "r.jsonl"),
                 "--dev-retrievals", str(tmp_path / "r.jsonl")]) == 0
    (featurizer,) = featurizers
    pairs = list(featurizer._pairs.values())
    blocks = [*featurizer._mention.values(), *featurizer._event.values()]
    assert pairs and blocks
    nonzeros = sum(fv.indices.size for fv in pairs)
    assert sum(fv.indices.nbytes + fv.values.nbytes for fv in pairs) <= 6 * nonzeros
    for fv in pairs:
        assert fv.indices.itemsize + fv.values.itemsize <= 6
    for block in blocks:
        assert sum(array.nbytes for array in block) <= 12 * block.keys.size
        assert sum(array.itemsize for array in block) <= 12


def test_fill_allocates_no_full_size_temporary():
    # about the rows relext-wide's retrieve --split all initializes
    rows = np.arange(0, 2 * 180_000, 2)
    out = np.empty((rows.size, DEFAULT_D), TOWER_DTYPE)
    tracemalloc.start()
    try:
        init_fill(8675, "mention", rows, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two uint64 block buffers and the block's row counters, nothing the
    # size of the 23 MB output
    assert peak <= 3 * BLOCK_ROWS * DEFAULT_D * 8, peak
    assert out.nbytes > 20 * peak


def test_retrieve_releases_the_pool_before_the_mention_tower_loads(tmp_path, monkeypatch):
    """By the second of retrieve's two checkpoint loads, neither the pool's
    hashed texts nor the event tower is reachable: only the encoded pool
    matrix outlives the first load."""
    o = ["--output-dir", str(tmp_path), "--seed", "0"]
    corpus = [f"--{name}={tmp_path / f'{name}.jsonl'}" for name in ("events", "relations")]
    mentions = f"--mentions={tmp_path / 'mentions.jsonl'}"
    assert main(["synth", *o, "--n-trees", "4", "--mentions-per-event", "2", "--vocab", "120"]) == 0
    assert main(["split", *o, *corpus]) == 0
    assert main(["train", *o, *corpus, mentions, f"--splits={tmp_path / 'splits.json'}",
                 "--strategy", "HP", "--epochs", "1", "--F", "4096", "--d", "8"]) == 0
    hashed_refs, tower_refs, alive = [], [], []
    hash_texts, load_checkpoint = encoder.hash_texts, encoder.load_checkpoint

    def hashing(texts, F):
        fvs = hash_texts(texts, F)
        hashed_refs.extend(weakref.ref(fv) for fv in fvs)
        return fvs

    def loading(*args, **kwargs):
        gc.collect()
        alive.append((sum(ref() is not None for ref in hashed_refs),
                      sum(ref() is not None for ref in tower_refs)))
        params, heads = load_checkpoint(*args, **kwargs)
        tower_refs.append(weakref.ref(params.W_event))
        return params, heads

    monkeypatch.setattr(encoder, "hash_texts", hashing)
    monkeypatch.setattr(encoder, "load_checkpoint", loading)
    assert main(["retrieve", *o, corpus[0], mentions,
                 f"--checkpoint={tmp_path / 'checkpoint.bin'}", "--out", "retrievals.jsonl"]) == 0
    # the pool was hashed before the first load and is gone by the second
    assert len(alive) == 2 and alive[0][0] > 0 and alive[1] == (0, 0), alive
