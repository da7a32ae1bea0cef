"""Exception types shared across the toolkit."""

from __future__ import annotations


class HiergroundError(Exception):
    """Base class for all toolkit errors."""


class UnknownEvent(HiergroundError):
    """An event id does not resolve to any event in the knowledge base."""

    def __init__(self, event_id: str, context: str = ""):
        self.event_id = event_id
        msg = f"unknown event id {event_id!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class UnknownMention(HiergroundError):
    """A mention id does not resolve to any loaded mention."""

    def __init__(self, mention_id: str, context: str = ""):
        self.mention_id = mention_id
        msg = f"unknown mention id {mention_id!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class CycleDetected(HiergroundError):
    """The hierarchy edges contain a cycle; ``cycle`` lists one offender."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("hierarchy cycle: " + " -> ".join(self.cycle))


class MultipleParents(HiergroundError):
    """A child event was assigned more than one parent."""

    def __init__(self, child: str, parents: list[str]):
        self.child = child
        self.parents = sorted(parents)
        super().__init__(
            f"event {child!r} has multiple parents: {', '.join(self.parents)}"
        )


class HeightExceeded(HiergroundError):
    """An ancestor chain is longer than the configured maximum height."""

    def __init__(self, chain: list[str], max_height: int):
        self.chain = list(chain)
        self.max_height = max_height
        super().__init__(
            f"chain of {len(self.chain)} events exceeds max height "
            f"{max_height}: " + " -> ".join(self.chain)
        )


class EmptyKB(HiergroundError):
    """Operation requires a non-empty knowledge base."""


class InvalidConfig(HiergroundError):
    """A configuration value is out of its legal range."""


class MissingLabel(HiergroundError):
    """Neither the requested nor the fallback language label exists."""

    def __init__(self, event_id: str, language: str, fallback: str):
        self.event_id = event_id
        self.language = language
        self.fallback = fallback
        super().__init__(
            f"event {event_id!r} has no label in {language!r} or fallback "
            f"{fallback!r}"
        )


class DimensionMismatch(HiergroundError):
    """Vector or matrix dimensions do not line up."""


class EmptyTrainSplit(HiergroundError):
    """Training was requested on a split with no mentions."""


class NoHierarchyEdges(HiergroundError):
    """A hierarchy-aware strategy needs at least one child-parent edge."""


class TrainingDiverged(HiergroundError):
    """A training step produced a loss that is not a finite number."""

    def __init__(self, loss: str, epoch: int, step: int, value: float):
        self.loss = loss
        self.epoch = epoch
        self.step = step
        super().__init__(
            f"{loss} loss is {value!r} at epoch {epoch}, step {step}; "
            "lower the learning rate"
        )


class KTooLarge(HiergroundError):
    """Requested more neighbours than the candidate pool holds."""

    def __init__(self, k: int, pool_size: int):
        self.k = k
        self.pool_size = pool_size
        super().__init__(f"k={k} exceeds candidate pool of {pool_size}")


class EmptyRetrievals(HiergroundError):
    """Reranker training needs at least one retrieval list."""


class EmptyRecords(HiergroundError):
    """A metric was asked to aggregate zero evaluation records."""


class UndefinedScore(HiergroundError):
    """Overlap score is undefined for an event with no linked mentions."""

    def __init__(self, event_id: str):
        self.event_id = event_id
        super().__init__(
            f"event {event_id!r} has no linked mentions; overlap score undefined"
        )


class ParseError(HiergroundError):
    """An input file failed to parse; carries file path and line number."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = str(path)
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")


class ConfigError(HiergroundError):
    """An experiment configuration file is malformed."""


class NonFiniteScore(HiergroundError):
    """A retrieval encoding or score is not a finite number; ``checkpoint``
    names the towers it came from, where known."""

    def __init__(self, what: str, checkpoint: str | None = None):
        self.what = what
        self.checkpoint = checkpoint
        msg = f"non-finite {what}"
        if checkpoint is not None:
            msg += f" (checkpoint {checkpoint!r})"
        super().__init__(msg)
