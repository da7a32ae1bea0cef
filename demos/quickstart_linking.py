"""Quickstart: generate a corpus, train the bi-encoder, retrieve, evaluate.

Every step is deterministic: rerunning this script reproduces the exact
numbers it prints.
"""

import numpy as np

from hierground import dataset, metrics, retrieval, training
from hierground.kb import build_forest
from hierground.metrics import EvalRecord

# a small corpus: 10 binary trees of height 2, five mentions per event
config = dataset.SyntheticConfig(n_trees=10, mentions_per_event=5, vocab=300, seed=0)
events, edges, mentions = dataset.generate_synthetic(config)
forest = build_forest(events, edges)
print(f"corpus: {len(events)} events, {len(edges)} edges, {len(mentions)} mentions")

# each mention's gold set is its anchor plus every ancestor up to the root
instances = dataset.expand_gold(forest, mentions)
sizes = np.bincount([len(inst.gold) for inst in instances])
print("gold chain sizes:", {k: int(v) for k, v in enumerate(sizes) if v})

# fit the two hashing towers by in-batch BCE until the corpus is memorized
train_config = training.TrainConfig(strategy="BASELINE", learning_rate=10.0, epochs=20, seed=0)
params, head, log = training.train(instances, events, forest, train_config, F=65536, d=32)
print(f"linking loss: {log.epochs[0].linking_loss:.4f} -> {log.epochs[-1].linking_loss:.4f}")

# exact top-k over the whole knowledge base (inner product, ties by id)
index = retrieval.CandidateIndex(params, events, dataset.candidate_pool(events))
results = retrieval.retrieve_mentions(params, index, mentions, k=8)
by_id = {r.mention_id: r for r in results}

records = [
    EvalRecord(
        mention_id=inst.mention.id,
        gold=inst.gold,
        ranking=by_id[inst.mention.id].event_ids,
    )
    for inst in instances
]
print(f"recall@min       {metrics.recall_at_min(records):.4f}")
print(f"recall@4 strict  {metrics.recall_at_k(records, 4):.4f}")
print(f"recall@4 atomic  {metrics.recall_at_k(records, 4, atomic_only=True):.4f}")
print(f"recall@8 frac    {metrics.recall_at_k_fraction(records, 8):.4f}")
