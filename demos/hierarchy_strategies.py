"""Compare the four training strategies on one zero-shot split.

BASELINE learns linking only; HP pretrains the hierarchy head first; HJL
mixes a weighted hierarchy term into every step; HP_HJL does both.  The
hierarchy term sees only train-split edges, so dev trees stay unseen.
"""

from hierground import dataset, metrics, retrieval, training
from hierground.kb import build_forest
from hierground.metrics import EvalRecord

events, edges, mentions = dataset.generate_synthetic(dataset.SyntheticConfig())
forest = build_forest(events, edges)

# connected components are assigned to splits wholesale, so no hierarchy
# or temporal edge ever crosses from train into dev
assignment = dataset.split_components(events, edges, seed=0)
train_instances = dataset.expand_gold(forest, dataset.select_split(mentions, assignment, "train"))
dev_mentions = dataset.select_split(mentions, assignment, "dev")
dev_instances = dataset.expand_gold(forest, dev_mentions)
hier_events = set(assignment.events_in_split("train"))
print(f"train {len(train_instances)} mentions, dev {len(dev_instances)} mentions")

# rank dev mentions against the held-out component's events only: the
# pure zero-shot readout
dev_pool = dataset.candidate_pool(events, assignment, "dev", mode="train")

# lr 3.0 is the fastest rate at which the joint strategies stay stable;
# their hierarchy gradients ride on top of the linking ones
for strategy in ("BASELINE", "HP", "HJL", "HP_HJL"):
    config = training.TrainConfig(
        strategy=strategy, learning_rate=3.0, epochs=30, pretrain_epochs=1, seed=0
    )
    params, head, log = training.train(
        train_instances, events, forest, config, hier_events=hier_events
    )
    # training holds only the tower rows of the train texts; the dev
    # texts need the whole towers
    params = params.densify()
    index = retrieval.CandidateIndex(params, events, dev_pool)
    results = retrieval.retrieve_mentions(params, index, dev_mentions, k=8)
    by_id = {r.mention_id: r for r in results}
    records = [
        EvalRecord(
            mention_id=inst.mention.id,
            gold=inst.gold,
            ranking=by_id[inst.mention.id].event_ids,
        )
        for inst in dev_instances
    ]
    hier = log.epochs[-1].hierarchy_loss
    print(
        f"{strategy:8s} linking {log.epochs[-1].linking_loss:.4f} "
        f"hierarchy {'-' if hier is None else f'{hier:.4f}'} "
        f"| dev recall@min {metrics.recall_at_min(records):.4f} "
        f"frac@8 {metrics.recall_at_k_fraction(records, 8):.4f}"
    )
