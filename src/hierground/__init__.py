"""Hierarchical event grounding at desk scale.

Link text mentions to the full ancestor chain of their anchor event in a
knowledge-base hierarchy: build the event forest, train a hashed-feature
bi-encoder (optionally with a hierarchy-aware auxiliary objective),
retrieve and rerank candidate sets, evaluate with set metrics, and
discover parent relations zero-shot from retrieval overlap.
"""

from .dataset import (
    GroundingInstance,
    Mention,
    SplitAssignment,
    SyntheticConfig,
    candidate_pool,
    corpus_stats,
    expand_gold,
    generate_synthetic,
    select_split,
    split_components,
)
from .encoder import (
    EncoderParams,
    FeatureVector,
    encode,
    init_encoder,
    load_checkpoint,
    save_checkpoint,
)
from .errors import HiergroundError
from .kb import (
    Event,
    HierarchyForest,
    Label,
    RelationEdge,
    RelationProperty,
    ancestor_chain,
    build_forest,
    load_events,
    load_relations,
)
from .metrics import (
    EvalRecord,
    recall_at_k,
    recall_at_k_fraction,
    recall_at_min,
    set_metrics,
)
from .relext import build_mention_lists
from .rerank import (
    RerankConfig,
    RerankerParams,
    select_threshold,
    substitute_missing_golds,
    train_reranker,
)
from .retrieval import CandidateIndex, RetrievalResult, retrieve_mentions
from .training import (
    ComplExHead,
    TrainConfig,
    gradient_check,
    hierarchy_loss,
    linking_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateIndex",
    "ComplExHead",
    "EncoderParams",
    "EvalRecord",
    "Event",
    "FeatureVector",
    "GroundingInstance",
    "HierarchyForest",
    "HiergroundError",
    "Label",
    "Mention",
    "RelationEdge",
    "RelationProperty",
    "RerankConfig",
    "RerankerParams",
    "RetrievalResult",
    "SplitAssignment",
    "SyntheticConfig",
    "TrainConfig",
    "ancestor_chain",
    "build_forest",
    "build_mention_lists",
    "candidate_pool",
    "corpus_stats",
    "encode",
    "expand_gold",
    "generate_synthetic",
    "gradient_check",
    "hierarchy_loss",
    "init_encoder",
    "linking_loss",
    "load_checkpoint",
    "load_events",
    "load_relations",
    "recall_at_k",
    "recall_at_k_fraction",
    "recall_at_min",
    "retrieve_mentions",
    "save_checkpoint",
    "select_split",
    "select_threshold",
    "set_metrics",
    "split_components",
    "substitute_missing_golds",
    "train",
    "train_reranker",
]
