"""Rerank retrieved candidates into thresholded set predictions.

The reranker scores joint mention/event features (context window, event
text, and their n-gram overlap), calibrates a probability threshold on
held-out mentions, and predicts NULL when nothing clears it.  Unlike a
fixed top-x cut it does not need to know each mention's gold-set size.
"""

from hierground import dataset, metrics, rerank, retrieval, training
from hierground.kb import build_forest

events, edges, mentions = dataset.generate_synthetic(
    dataset.SyntheticConfig(n_trees=6, mentions_per_event=6, vocab=500)
)
forest = build_forest(events, edges)
instances = dataset.expand_gold(forest, mentions)
golds = {inst.mention.id: inst.gold for inst in instances}
by_mention = {m.id: m for m in mentions}

# a well-trained retriever supplies 4 candidates per mention
config = training.TrainConfig(strategy="BASELINE", learning_rate=10.0, epochs=20, seed=0)
params, _head, _log = training.train(instances, events, forest, config, F=65536, d=32)
index = retrieval.CandidateIndex(params, events, dataset.candidate_pool(events))
results = retrieval.retrieve_mentions(params, index, mentions, k=4)

# train on the first 80% of mentions, calibrate the threshold on the rest
cut = int(0.8 * len(results))
featurizer = rerank.PairFeaturizer(events)
rerank_config = rerank.RerankConfig(k=4, epochs=20, learning_rate=1.0, seed=0)
reranker = rerank.train_reranker(results[:cut], golds, by_mention, featurizer, rerank_config)
threshold = rerank.select_threshold(
    reranker, featurizer, results[cut:], golds, by_mention, k=4
)
print(f"selected threshold {threshold}")

(records,) = rerank.rerank_records(
    reranker, featurizer, results[cut:], golds, by_mention, (threshold,)
)

report = metrics.set_metrics(records)
for key in ("strict_acc", "strict_acc_top_min", "macro_f1", "micro_f1"):
    print(f"{key:18s} {report[key]:.4f}")

nulls = sum(r.predicted == frozenset({metrics.NULL_EVENT}) for r in records)
print(f"NULL predictions   {nulls}/{len(records)}")
hit = next(r for r in records if r.predicted == r.gold_set and len(r.gold_set) > 1)
print(f"example {hit.mention_id}: gold {sorted(hit.gold_set)} -> predicted {sorted(hit.predicted)}")
