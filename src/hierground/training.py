"""Losses, hierarchy integration strategies, SGD loop, gradient checks.

Two objectives share the encoder: a mention-linking BCE with in-batch
negatives, and a hierarchy score on event pairs through a ComplEx-style
head (the antisymmetric part of a complex trilinear product).  The head
projects event embeddings to real and imaginary parts; only the relation
embedding's imaginary part enters the score, so parent-child order flips
the sign exactly.

Strategies: BASELINE trains linking only; HP runs hierarchy-only
pretraining epochs then linking-only epochs; HJL adds a weighted
hierarchy term to every linking step; HP_HJL pretrains then joint-trains.
All randomness flows from the experiment seed through named substreams,
so disabling one objective never perturbs the batches of another.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import GroundingInstance
from .encoder import (
    DEFAULT_D,
    DEFAULT_F,
    DEFAULT_MAX_CAND_CHARS,
    DEFAULT_MAX_CONTEXT_CHARS,
    TOWERS,
    DesignWorkspace,
    EncoderParams,
    FeatureVector,
    TextFeaturizer,
    Tower,
    # unused here, but perfbench's tracer wraps the ``training.encode`` binding
    encode,  # noqa: F401
    feature_rows,
    hashed,
    init_encoder,
)
from .errors import (
    DimensionMismatch,
    EmptyTrainSplit,
    InvalidConfig,
    NoHierarchyEdges,
    TrainingDiverged,
)
from .kb import FALLBACK_LANGUAGE, Event, HierarchyForest
from .seeding import substream_rng

STRATEGIES = ("BASELINE", "HP", "HJL", "HP_HJL")
HEAD_ARRAY_NAMES = ("W_re", "W_im", "b_re", "b_im", "r")


@dataclass
class ComplExHead:
    """Biased linear projections to real/imaginary parts plus Im(r)."""

    W_re: np.ndarray
    W_im: np.ndarray
    b_re: np.ndarray
    b_im: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        d = self.r.shape[0]
        if self.W_re.shape != (d, d) or self.W_im.shape != (d, d):
            raise DimensionMismatch("projection matrices must be d x d")
        if self.b_re.shape != (d,) or self.b_im.shape != (d,):
            raise DimensionMismatch("biases must be d-dim")

    @property
    def d(self) -> int:
        return self.r.shape[0]

    def copy(self) -> "ComplExHead":
        return ComplExHead(
            self.W_re.copy(),
            self.W_im.copy(),
            self.b_re.copy(),
            self.b_im.copy(),
            self.r.copy(),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in HEAD_ARRAY_NAMES}


def init_head(d: int = DEFAULT_D, seed: int = 0) -> ComplExHead:
    """Seeded uniform(-0.05, 0.05) projections and r; biases zero."""
    rng = substream_rng(seed, "init_head")
    return ComplExHead(
        W_re=rng.uniform(-0.05, 0.05, size=(d, d)),
        W_im=rng.uniform(-0.05, 0.05, size=(d, d)),
        b_re=np.zeros(d),
        b_im=np.zeros(d),
        r=rng.uniform(-0.05, 0.05, size=d),
    )


@dataclass
class TrainConfig:
    strategy: str = "BASELINE"
    learning_rate: float = 1.0
    epochs: int = 10
    batch_size: int = 64
    hier_batch_size: int = 128
    hier_loss_weight: float = 0.01
    pretrain_epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidConfig(f"strategy must be one of {STRATEGIES}")
        if not self.learning_rate > 0 or self.epochs < 1 or self.batch_size < 1:  # NaN fails
            raise InvalidConfig("learning_rate, epochs and batch_size must be positive")
        if self.hier_batch_size < 1 or not self.hier_loss_weight >= 0:  # NaN fails
            raise InvalidConfig("hier_batch_size >= 1 and hier_loss_weight >= 0")
        if self.pretrain_epochs < 0 or self.pretrain_epochs > self.epochs:
            raise InvalidConfig("pretrain_epochs must be in [0, epochs]")


# ---------------------------------------------------------------------------
# ComplEx hierarchy score


def _project(head: ComplExHead, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary projections of rows of ``vectors``."""
    return vectors @ head.W_re.T + head.b_re, vectors @ head.W_im.T + head.b_im


def _complex_cells(
    re_p: np.ndarray, im_p: np.ndarray, re_c: np.ndarray, im_c: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """S[i, j] = Im(p_i).(Re(c_j) * r) - Re(p_i).(Im(c_j) * r) from projections."""
    return (im_p * r) @ re_c.T - (re_p * r) @ im_c.T


# ---------------------------------------------------------------------------
# Losses with analytic gradients


@dataclass
class SparseGrad:
    """Gradient restricted to the ascending global ``rows`` an input batch
    touched.  ``grad`` is None when the loss ran no backward pass."""

    rows: np.ndarray
    grad: np.ndarray | None

    def densify(self, F: int, d: int) -> np.ndarray:
        dense = np.zeros((F, d))
        dense[self.rows] = self.grad
        return dense


@dataclass
class LinkingLossResult:
    loss: float
    grad_mention: SparseGrad
    grad_event: SparseGrad
    degenerate: bool


@dataclass
class HierarchyLossResult:
    loss: float
    grad_event: SparseGrad
    grad_head: dict[str, np.ndarray]
    degenerate: bool


def _bce(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Elementwise binary cross entropy of sigmoid(scores) vs labels.

    Written with logaddexp so saturated scores stay finite.
    """
    return np.logaddexp(0.0, scores) - labels * scores


def _check_space(fvs: Iterable[FeatureVector], F: int) -> None:
    for fv in fvs:
        if fv.F != F:
            raise DimensionMismatch(f"feature space {fv.F} vs tower rows {F}")


def linking_loss(
    params: EncoderParams,
    mention_fvs: list[FeatureVector],
    gold_sets: list[frozenset[str]],
    pool_ids: list[str],
    pool_fvs: list[FeatureVector],
    workspace: DesignWorkspace | None = None,
    backward: bool = True,
) -> LinkingLossResult:
    """In-batch BCE over every mention x pooled-event cell.

    An in-batch event is a positive for a mention exactly when its id is
    in that mention's gold set; every other pooled event (including other
    mentions' golds) is a negative.  Loss is the mean BCE over all cells.
    A batch whose labels are all identical is flagged degenerate but the
    loss and gradients are still returned.  Both design matrices are built
    in ``workspace`` (a fresh one when None).  With ``backward`` False
    only the loss is computed: each gradient keeps its rows, its ``grad``
    is None.  Encodings and tower gradients are in the towers' dtype,
    scores and the loss in float64; pool ids must be distinct.
    """
    if not mention_fvs or not pool_fvs:
        raise EmptyTrainSplit("linking batch must contain mentions and events")
    if len(mention_fvs) != len(gold_sets) or len(pool_ids) != len(pool_fvs):
        raise DimensionMismatch("batch lists must align")
    _check_space([*mention_fvs, *pool_fvs], params.F)
    ws = workspace or DesignWorkspace()
    ws.reset()
    m_rows, m_held, X_m = ws.design(params.W_mention, mention_fvs)
    e_rows, e_held, X_e = ws.design(params.W_event, pool_fvs)
    M = X_m @ params.W_mention.values.take(m_held, axis=0)
    E = X_e @ params.W_event.values.take(e_held, axis=0)
    S = M.astype(np.float64, copy=False) @ E.T.astype(np.float64, copy=False)
    Y = _labels(gold_sets, pool_ids)
    n_cells = S.size
    loss = float(_bce(S, Y).sum() / n_cells)
    degenerate = bool(Y.min() == Y.max())
    if not backward:
        return LinkingLossResult(
            loss, SparseGrad(m_rows, None), SparseGrad(e_rows, None), degenerate
        )
    G = ((sigmoid(S) - Y) / n_cells).astype(E.dtype, copy=False)
    grad_mention = SparseGrad(m_rows, X_m.T @ (G @ E))
    grad_event = SparseGrad(e_rows, X_e.T @ (G.T @ M))
    return LinkingLossResult(loss, grad_mention, grad_event, degenerate)


def _labels(gold_sets: list[frozenset[str]], pool_ids: list[str]) -> np.ndarray:
    """Y[i, j] = 1.0 when pool event j is in mention i's gold set, else 0.0."""
    column = {event_id: j for j, event_id in enumerate(pool_ids)}
    if len(column) != len(pool_ids):
        raise DimensionMismatch("pool ids must be distinct")
    n = len(pool_ids)
    Y = np.zeros((len(gold_sets), n))
    Y.reshape(-1)[
        [i * n + column[e] for i, gold in enumerate(gold_sets) for e in gold if e in column]
    ] = 1.0
    return Y


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as float64, from one ``e = exp(-|x|)``:
    ``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` elsewhere, so no
    exponential overflows and each branch rounds as its own formula does."""
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1.0, e) / (1.0 + e)).astype(float, copy=False)


def hierarchy_loss(
    params: EncoderParams,
    head: ComplExHead,
    parent_ids: list[str],
    parent_fvs: list[FeatureVector],
    child_fvs: list[FeatureVector],
    workspace: DesignWorkspace | None = None,
) -> HierarchyLossResult:
    """BCE over parent x child score cells, averaged over batch pairs.

    Pair i contributes its parent as row i and its child as column i.
    Cell (i, j) is positive when child j's parent is parent i, i.e. the
    in-batch children of each parent form its positive set.  The printed
    form of this objective rewards negatives with +log(sigma); the
    standard BCE sign (-log(1 - sigma)) is used instead so the loss is
    bounded below.  Only the event tower and the head receive gradients.
    The design matrix is built in ``workspace`` (a fresh one when None).
    Encodings and the event-tower gradient are in the tower's dtype; the
    head, the scores and their gradients stay float64.
    """
    n = len(parent_fvs)
    if n == 0:
        raise NoHierarchyEdges("hierarchy batch must be non-empty")
    if len(child_fvs) != n or len(parent_ids) != n:
        raise DimensionMismatch("pair lists must align")
    # pairs repeat events (they are drawn with replacement), so each
    # distinct FeatureVector object is encoded once and its slots gathered
    slot_fvs = [*parent_fvs, *child_fvs]
    distinct = {id(fv): fv for fv in slot_fvs}
    position = {key: i for i, key in enumerate(distinct)}
    slots = np.array([position[id(fv)] for fv in slot_fvs])
    distinct_fvs = list(distinct.values())
    _check_space(distinct_fvs, params.F)
    ws = workspace or DesignWorkspace()
    ws.reset()
    rows, held, X = ws.design(params.W_event, distinct_fvs)
    E = X @ params.W_event.values.take(held, axis=0)
    E = E.astype(np.float64, copy=False)[slots]
    E_p, E_c = E[:n], E[n:]
    re_p, im_p = _project(head, E_p)
    re_c, im_c = _project(head, E_c)
    r = head.r
    S = _complex_cells(re_p, im_p, re_c, im_c, r)
    pid = np.array(parent_ids)
    Y = (pid[None, :] == pid[:, None]).astype(float)
    loss = float(_bce(S, Y).sum() / n)
    G = (sigmoid(S) - Y) / n

    d_im_p = G @ (re_c * r)
    d_re_p = -(G @ (im_c * r))
    d_re_c = G.T @ (im_p * r)
    d_im_c = -(G.T @ (re_p * r))
    d_r = ((G @ re_c) * im_p).sum(axis=0) - ((G @ im_c) * re_p).sum(axis=0)

    grad_head = {
        "W_re": d_re_p.T @ E_p + d_re_c.T @ E_c,
        "W_im": d_im_p.T @ E_p + d_im_c.T @ E_c,
        "b_re": d_re_p.sum(axis=0) + d_re_c.sum(axis=0),
        "b_im": d_im_p.sum(axis=0) + d_im_c.sum(axis=0),
        "r": d_r,
    }
    dE_p = d_re_p @ head.W_re + d_im_p @ head.W_im
    dE_c = d_re_c @ head.W_re + d_im_c @ head.W_im
    # sum the slot gradients of each distinct vector before projecting
    slot_of = np.zeros((len(distinct), 2 * n))
    slot_of[slots, np.arange(2 * n)] = 1.0
    dE = (slot_of @ np.concatenate([dE_p, dE_c])).astype(X.dtype, copy=False)
    grad_event = SparseGrad(rows, X.T @ dE)
    degenerate = bool(Y.min() == Y.max())
    return HierarchyLossResult(loss, grad_event, grad_head, degenerate)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class EpochLog:
    epoch: int
    linking_loss: float
    hierarchy_loss: float | None
    degenerate_linking_batches: int = 0
    degenerate_hierarchy_batches: int | None = None
    step_linking_losses: list[float] = field(default_factory=list)
    step_hierarchy_losses: list[float] = field(default_factory=list)


@dataclass
class TrainLog:
    epochs: list[EpochLog] = field(default_factory=list)

    def to_records(self) -> list[dict]:
        return [
            {
                "epoch": e.epoch,
                "linking_loss": e.linking_loss,
                "hierarchy_loss": e.hierarchy_loss,
                "degenerate_linking_batches": e.degenerate_linking_batches,
                "degenerate_hierarchy_batches": e.degenerate_hierarchy_batches,
            }
            for e in self.epochs
        ]


def write_training_log(log: TrainLog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in log.to_records():
            fh.write(json.dumps(record, allow_nan=False) + "\n")


def _apply_sparse(W: Tower, grad: SparseGrad, lr: float) -> None:
    if grad.rows.size:
        W[grad.rows] -= lr * grad.grad


def _pack_batches(order: np.ndarray, sizes: list[int], batch_pairs: int) -> list[list[int]]:
    """Greedily pack shuffled mention indices until the pair quota is met.

    ``batch_size`` counts mention-event pairs (a mention contributes its
    gold-set size), so batches hold a comparable number of positives
    regardless of chain depth.
    """
    batches: list[list[int]] = []
    current: list[int] = []
    pairs = 0
    for idx in order:
        current.append(int(idx))
        pairs += sizes[int(idx)]
        if pairs >= batch_pairs:
            batches.append(current)
            current, pairs = [], 0
    if current:
        batches.append(current)
    return batches


def build_linking_batch(
    instances: list[GroundingInstance], featurizer: TextFeaturizer
) -> tuple[list[FeatureVector], list[frozenset[str]], list[str], list[FeatureVector]]:
    """Mention features plus the deduplicated in-batch event pool.

    The pool holds each gold event once, keyed by id; when two mentions
    in different languages contribute the same event, the first
    mention's language determines its featurization.
    """
    mention_fvs = featurizer.mentions([inst.mention for inst in instances])
    gold_sets = [inst.gold_set for inst in instances]
    # pool id -> the resolved language of the first mention contributing it
    pool: dict[str, str] = {}
    for inst in instances:
        language = featurizer.language(inst.mention.language)
        for event_id in inst.gold:
            pool.setdefault(event_id, language)
    fv_of: dict[str, FeatureVector] = {}
    for language in dict.fromkeys(pool.values()):
        ids = [event_id for event_id, lang in pool.items() if lang == language]
        fv_of.update(zip(ids, featurizer.events(ids, language)))
    pool_ids = list(pool)
    return mention_fvs, gold_sets, pool_ids, [fv_of[event_id] for event_id in pool_ids]


def hierarchy_pairs(
    forest: HierarchyForest, restrict_to: set[str] | None = None
) -> list[tuple[str, str]]:
    """(parent, child) edges, optionally restricted to an event subset.

    Passing the train-split events keeps dev/test hierarchies unseen
    during hierarchy-aware training, preserving the zero-shot setup.
    """
    pairs = []
    for child in sorted(forest.parent):
        parent = forest.parent[child]
        if restrict_to is not None and (
            child not in restrict_to or parent not in restrict_to
        ):
            continue
        pairs.append((parent, child))
    return pairs


# overflow surfaces as a non-finite loss, which raises TrainingDiverged
@np.errstate(over="ignore", invalid="ignore")
def train(
    instances: list[GroundingInstance],
    events: list[Event],
    forest: HierarchyForest,
    config: TrainConfig,
    mode: str = "multilingual",
    F: int = DEFAULT_F,
    d: int = DEFAULT_D,
    max_context_chars: int = DEFAULT_MAX_CONTEXT_CHARS,
    max_cand_chars: int = DEFAULT_MAX_CAND_CHARS,
    hier_events: set[str] | None = None,
) -> tuple[EncoderParams, ComplExHead, TrainLog]:
    """Run the configured strategy and return params, head and the log.

    Epoch schedule: the first ``pretrain_epochs`` epochs of HP and HP_HJL
    update only the hierarchy objective; remaining epochs are linking-only
    (BASELINE, HP) or joint with weighted hierarchy steps (HJL, HP_HJL).
    Hierarchy updates are scaled by ``hier_loss_weight`` in every phase,
    pretraining included, so the weight acts as a hierarchy-specific
    learning-rate multiplier and a single shared learning rate stays
    stable for both objectives.  The linking loss is still evaluated
    (without its backward pass or updates) during pretrain epochs so every
    log record carries both trends.  One ``DesignWorkspace`` serves every
    loss call of the run.  Identical inputs and seed give bit-identical parameters.
    The first step whose linking or hierarchy loss is not finite raises
    ``TrainingDiverged``, so a diverged run returns no parameters.
    The towers returned are ``Tower``s holding only the rows the training
    texts hash to; ``save_checkpoint`` stores just those rows, and
    ``params.densify()`` gives whole towers for encoding any other text.
    """
    if not instances:
        raise EmptyTrainSplit("no training mentions")
    strategy = config.strategy
    uses_hierarchy = strategy in ("HP", "HJL", "HP_HJL")
    pretrain = config.pretrain_epochs if strategy in ("HP", "HP_HJL") else 0

    featurizer = TextFeaturizer(events, hashed(F), mode, max_context_chars, max_cand_chars)
    pairs = hierarchy_pairs(forest, hier_events) if uses_hierarchy else []
    if uses_hierarchy and not pairs:
        raise NoHierarchyEdges("strategy needs hierarchy edges in the train events")
    pair_parent_ids = [p for p, _ in pairs]
    pair_ids = [*pair_parent_ids, *(c for _, c in pairs)]

    # every text training reads, hashed in one call: the tower rows they
    # touch are the only ones initialized and held
    mention_fvs, event_fvs = featurizer.featurize(
        [inst.mention for inst in instances],
        [(event_id, inst.mention.language) for inst in instances for event_id in inst.gold]
        + [(event_id, FALLBACK_LANGUAGE) for event_id in pair_ids],
    )
    rows = {"mention": feature_rows(mention_fvs, F), "event": feature_rows(event_fvs, F)}
    params = init_encoder(F, d, config.seed, rows)
    head = init_head(d, config.seed)
    pair_fvs = featurizer.events(pair_ids, FALLBACK_LANGUAGE)
    pair_parent_fvs, pair_child_fvs = pair_fvs[: len(pairs)], pair_fvs[len(pairs) :]

    batch_rng = substream_rng(config.seed, "batch")
    hier_rng = substream_rng(config.seed, "hier")
    sizes = [len(inst.gold) for inst in instances]
    lr = config.learning_rate

    workspace = DesignWorkspace()
    log = TrainLog()
    for epoch in range(config.epochs):
        in_pretrain = epoch < pretrain
        joint = strategy in ("HJL", "HP_HJL") and not in_pretrain
        hier_active = in_pretrain or joint

        order = batch_rng.permutation(len(instances))
        batches = _pack_batches(order, sizes, config.batch_size)
        link_losses: list[float] = []
        hier_losses: list[float] = []
        link_degenerate = hier_degenerate = 0
        for step, batch_indices in enumerate(batches):
            batch = [instances[i] for i in batch_indices]
            # pretraining epochs log the linking loss but apply no update
            link = linking_loss(
                params,
                *build_linking_batch(batch, featurizer),
                workspace=workspace,
                backward=not in_pretrain,
            )
            if not np.isfinite(link.loss):
                raise TrainingDiverged("linking", epoch, step, link.loss)
            link_losses.append(link.loss)
            link_degenerate += link.degenerate

            hier = None
            if hier_active:
                picks = hier_rng.integers(0, len(pairs), size=config.hier_batch_size)
                hier = hierarchy_loss(
                    params,
                    head,
                    [pair_parent_ids[i] for i in picks],
                    [pair_parent_fvs[i] for i in picks],
                    [pair_child_fvs[i] for i in picks],
                    workspace=workspace,
                )
                if not np.isfinite(hier.loss):
                    raise TrainingDiverged("hierarchy", epoch, step, hier.loss)
                hier_losses.append(hier.loss)
                hier_degenerate += hier.degenerate

            # the weight scales hierarchy steps in every phase; during
            # pretraining it doubles as a hierarchy-specific learning
            # rate, keeping one shared learning_rate workable (the raw
            # hierarchy gradient is ~N_h times steeper than linking)
            weight = config.hier_loss_weight if hier_active else 0.0

            if not in_pretrain:
                _apply_sparse(params.W_mention, link.grad_mention, lr)
                _apply_sparse(params.W_event, link.grad_event, lr)
            if hier is not None and weight > 0.0:
                g = hier.grad_event
                _apply_sparse(params.W_event, SparseGrad(g.rows, weight * g.grad), lr)
                for name, grad in hier.grad_head.items():
                    arr = getattr(head, name)
                    arr -= lr * weight * grad

        log.epochs.append(
            EpochLog(
                epoch=epoch,
                linking_loss=float(np.mean(link_losses)),
                hierarchy_loss=float(np.mean(hier_losses)) if hier_losses else None,
                degenerate_linking_batches=link_degenerate,
                degenerate_hierarchy_batches=hier_degenerate if hier_losses else None,
                step_linking_losses=link_losses,
                step_hierarchy_losses=hier_losses,
            )
        )
    return params, head, log


# ---------------------------------------------------------------------------
# Gradient verification


def _random_fv(rng: np.random.Generator, F: int, nnz: int) -> FeatureVector:
    indices = np.sort(rng.choice(F, size=min(nnz, F), replace=False)).astype(np.int64)
    values = rng.uniform(0.1, 1.0, size=indices.size)
    values /= np.linalg.norm(values)
    return FeatureVector(indices=indices, values=values, F=F)


def gradient_check(
    loss: str = "linking",
    F: int = 16,
    d: int = 3,
    n_mentions: int = 3,
    n_pairs: int = 4,
    seed: int = 0,
    step: float = 1e-5,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Probes every parameter coordinate (both towers, whole and float64, and
    the head for the hierarchy loss) on a small random instance; the relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if loss not in ("linking", "hierarchy"):
        raise InvalidConfig(f"unknown loss {loss!r}")
    rng = substream_rng(seed, "gradcheck")
    whole = np.arange(F)
    params = EncoderParams(
        *(Tower(F, whole, rng.uniform(-0.5, 0.5, size=(F, d)), (seed, name)) for name in TOWERS)
    )
    head = ComplExHead(
        W_re=rng.uniform(-0.5, 0.5, size=(d, d)),
        W_im=rng.uniform(-0.5, 0.5, size=(d, d)),
        b_re=rng.uniform(-0.5, 0.5, size=d),
        b_im=rng.uniform(-0.5, 0.5, size=d),
        r=rng.uniform(-0.5, 0.5, size=d),
    )

    if loss == "linking":
        mention_fvs = [_random_fv(rng, F, 5) for _ in range(n_mentions)]
        pool_ids = [f"E{i}" for i in range(n_mentions + 1)]
        pool_fvs = [_random_fv(rng, F, 5) for _ in pool_ids]
        gold_sets = [
            frozenset({pool_ids[i], pool_ids[(i + 1) % len(pool_ids)]})
            for i in range(n_mentions)
        ]

        def value() -> float:
            return linking_loss(params, mention_fvs, gold_sets, pool_ids, pool_fvs).loss

        result = linking_loss(params, mention_fvs, gold_sets, pool_ids, pool_fvs)
        analytic = {
            "W_mention": result.grad_mention.densify(F, d),
            "W_event": result.grad_event.densify(F, d),
        }
        targets = {"W_mention": params.W_mention.values, "W_event": params.W_event.values}
    else:
        parent_ids = [f"P{i % 2}" for i in range(n_pairs)]
        parent_fvs = [_random_fv(rng, F, 5) for _ in range(n_pairs)]
        child_fvs = [_random_fv(rng, F, 5) for _ in range(n_pairs)]

        def value() -> float:
            return hierarchy_loss(params, head, parent_ids, parent_fvs, child_fvs).loss

        result = hierarchy_loss(params, head, parent_ids, parent_fvs, child_fvs)
        # the mention tower is untouched by this loss; probing it checks
        # that the analytic zero is really zero
        analytic = {
            "W_event": result.grad_event.densify(F, d),
            "W_mention": np.zeros((F, d)),
        }
        analytic.update(result.grad_head)
        targets = {"W_event": params.W_event.values, "W_mention": params.W_mention.values}
        targets.update(head.arrays())

    worst = 0.0
    for name, target in targets.items():
        grad = analytic[name]
        flat = target.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = value()
            flat[i] = original - step
            down = value()
            flat[i] = original
            numeric = (up - down) / (2 * step)
            a = grad.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
