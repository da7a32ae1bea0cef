"""Discover parent events from linking decisions alone.

Once mentions are linked to top-k event sets, the overlap score
h(child, candidate) = |M_child & M_candidate| / |M_child| ranks candidate
parents without ever reading the knowledge base's edges.  With perfect
linking the true parent is always ranked first; a learned retriever
degrades gracefully.  Parent discovery reads retrieval lists from a
retrievals file, as the ``relext`` subcommand does.
"""

import tempfile
from pathlib import Path

from hierground import dataset, metrics, relext, retrieval, training
from hierground.kb import build_forest
from hierground.retrieval import RetrievalResult

events, edges, mentions = dataset.generate_synthetic(
    dataset.SyntheticConfig(n_trees=8, mentions_per_event=5, vocab=300)
)
forest = build_forest(events, edges)
instances = dataset.expand_gold(forest, mentions)
pool = sorted(event.id for event in events)
tmp = tempfile.TemporaryDirectory()


def mention_lists(results):
    """The mention-list matrix of ``results``, through a retrievals file."""
    path = Path(tmp.name) / "retrievals.jsonl"
    retrieval.write_retrievals(results, path)
    return relext.build_mention_lists(path, pool, k=relext.DEFAULT_LIST_K)


# --- oracle linking: each mention maps to exactly its gold chain -------
oracle_results = []
for inst in instances:
    chain = list(inst.gold)
    while len(chain) < relext.DEFAULT_LIST_K:
        chain.append(chain[-1])  # pad by repeating the root
    oracle_results.append(
        RetrievalResult(
            mention_id=inst.mention.id,
            candidates=[(e, float(len(chain) - i)) for i, e in enumerate(chain)],
        )
    )

lists = mention_lists(oracle_results)
rankings, unlinked = relext.rank_all_parents(lists, pool)
id_rankings = {e: [p for p, _ in ranked] for e, ranked in rankings.items()}
print(f"oracle linking : parent recall@1 = {metrics.relext_recall_at_ks(id_rankings, forest, [1])[0]:.4f}")

# one concrete ranking: the top candidates all contain the child's
# mentions, and the tie at h = 1.0 resolves to the true parent
child = sorted(forest.parent)[0]
top = rankings[child][:4]
print(f"example child {child} (true parent {forest.parent[child]}):")
for event_id, score in top:
    print(f"  h({child}, {event_id}) = {score:.3f}")

# --- learned linking: rankings come from the trained bi-encoder --------
config = training.TrainConfig(strategy="BASELINE", learning_rate=10.0, epochs=20, seed=0)
params, _head, _log = training.train(instances, events, forest, config, F=65536, d=32)
index = retrieval.CandidateIndex(params, events, pool)
results = retrieval.retrieve_mentions(params, index, mentions, k=relext.DEFAULT_LIST_K)

lists = mention_lists(results)
rankings, unlinked = relext.rank_all_parents(lists, pool)
id_rankings = {e: [p for p, _ in ranked] for e, ranked in rankings.items()}
ks = (1, 2, 4)
for k, recall in zip(ks, metrics.relext_recall_at_ks(id_rankings, forest, ks)):
    print(f"learned linking: parent recall@{k} = {recall:.4f}")
if unlinked:
    print(f"unlinked events (overlap score undefined): {unlinked}")
tmp.cleanup()
