"""Outside-in layer tracing: wrap the library's public functions in spans.

Nothing inside ``hierground`` is changed.  Each wrapper is installed on
the name a caller looks up: ``from .encoder import encode`` copies the
binding into ``training`` and ``retrieval``, so those module attributes
are wrapped too, and methods are wrapped on their class.  A wrapper only
records while a stage span is open, so the benchmark's own calls into
the library between stages stay untraced.

A span's self time is its duration minus the durations of the wrapped
calls it made.  Ordinary spans are kept one record each (name, start,
end, parent); the hot leaves, called ~1e5 times a run, are folded into a
per-parent (calls, seconds) table so trace memory stays bounded.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

NGRAM_SIZES = (3, 4, 5)

# (module, attribute path, hot); the span name is "<module>.<attribute path>"
TARGETS = [
    ("cli", "main", False),
    ("dataset", "generate_synthetic", False),
    ("dataset", "load_mentions", False),
    ("dataset", "expand_gold", False),
    ("kb", "load_events", False),
    ("kb", "build_forest", False),
    ("encoder", "hash_text", True),
    ("encoder", "encode", True),
    ("encoder", "save_checkpoint", False),
    ("encoder", "load_checkpoint", False),
    ("training", "train", False),
    ("training", "linking_loss", False),
    ("training", "hierarchy_loss", False),
    ("training", "build_linking_batch", False),
    ("retrieval", "CandidateIndex.matrix", True),
    ("retrieval", "topk", True),
    ("retrieval", "retrieve_mentions", False),
    ("retrieval", "write_retrievals", False),
    ("retrieval", "load_retrievals", False),
    ("rerank", "PairFeaturizer.pair_fv", True),
    ("rerank", "score_pair", True),
    ("rerank", "train_reranker", False),
    ("rerank", "select_threshold", False),
    ("rerank", "score_candidates", True),
    ("rerank", "predict_set", True),
    ("metrics", "set_metrics", False),
    ("relext", "build_mention_lists", False),
    ("relext", "rank_all_parents", False),
    ("relext", "rank_parents", True),
    ("relext", "write_parents", False),
]

# copied bindings: (importing module, attribute) -> span name of the original
ALIASES = [
    ("training", "encode", "encoder.encode"),
    ("retrieval", "encode", "encoder.encode"),
    ("rerank", "set_metrics", "metrics.set_metrics"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Spans and counters for one pipeline pass, installed by ``install``."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_seconds, record_id, hot]
        self.records: list[dict] = []
        self.hot: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.texts: set[str] = set()
        self.pairs: set[tuple[str, str]] = set()
        self.negative_self = 0
        self.hook_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def stage(self, name: str):
        """A root span around one subcommand."""
        self._open(f"stage.{name}", hot=False)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str, hot: bool) -> None:
        if hot:
            record_id = self.stack[-1][3]
        else:
            record_id = len(self.records)
            self.records.append(
                {"id": record_id, "name": name,
                 "parent": self.stack[-1][3] if self.stack else None}
            )
        self.stack.append([name, time.perf_counter(), 0.0, record_id, hot])

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, record_id, hot = self.stack.pop()
        duration = end - start
        self_s = duration - child
        if self_s < 0:
            self.negative_self += 1
        if self.stack:
            self.stack[-1][2] += duration
        if hot:
            entry = self.hot[(record_id, name)]
            entry[0] += 1
            entry[1] += duration
        else:
            record = self.records[record_id]
            record["start"] = start - self._t0
            record["end"] = end - self._t0
            record["self"] = self_s
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += self_s

    def _run_hook(self, hook, args, kwargs, result) -> None:
        start = time.perf_counter()
        hook(self, args, kwargs, result)
        spent = time.perf_counter() - start
        self.hook_s += spent
        if self.stack:  # keep hook time out of the caller's self time
            self.stack[-1][2] += spent

    def wrap(self, owner, attr: str, name: str, hot: bool, hook=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return original(*args, **kwargs)
            tracer._open(name, hot)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, package) -> None:
        """Wrap every target of ``package`` (the imported ``hierground``)."""
        wrapped = {}
        for module_name, path, hot in TARGETS:
            owner = getattr(package, module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            name = f"{module_name}.{path}"
            self.wrap(owner, attr, name, hot, HOOKS.get(name))
            wrapped[name] = getattr(owner, attr)
        for module_name, attr, name in ALIASES:
            owner = getattr(package, module_name)
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped[name])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def dump(self) -> dict:
        """The spans and per-name totals, as written to ``trace.json``."""
        return {
            "spans": self.records,
            "hot": [
                {"parent": record_id, "name": name, "calls": calls, "s": seconds}
                for (record_id, name), (calls, seconds) in sorted(self.hot.items())
            ],
            "stats": {
                name: {"calls": calls, "s": seconds, "self_s": self_s}
                for name, (calls, seconds, self_s) in sorted(self.stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "distinct_texts": len(self.texts),
            "distinct_pairs": len(self.pairs),
            "negative_self_spans": self.negative_self,
            "hook_s": self.hook_s,
        }


# -- counters read from arguments and results -------------------------------


def _hash_text(tracer, args, kwargs, result):
    text = _arg(args, kwargs, 0, "text")
    tracer.texts.add(text)
    tracer.counters["encoder.hash_text.ngrams"] += sum(
        max(0, len(text) - n + 1) for n in NGRAM_SIZES
    )


def _save_checkpoint(tracer, args, kwargs, result):
    tracer.counters["encoder.checkpoint_bytes"] = os.path.getsize(
        _arg(args, kwargs, 0, "path")
    )


def _linking_loss(tracer, args, kwargs, result):
    fvs = list(_arg(args, kwargs, 1, "mention_fvs")) + list(_arg(args, kwargs, 4, "pool_fvs"))
    tracer.counters["training.linking_loss.nnz"] += sum(fv.indices.size for fv in fvs)
    tracer.counters["training.linking_loss.rows"] += (
        result.grad_mention.rows.size + result.grad_event.rows.size
    )
    tracer.counters["training.linking_loss.degenerate"] += bool(result.degenerate)


def _hierarchy_loss(tracer, args, kwargs, result):
    tracer.counters["training.hierarchy_loss.rows"] += result.grad_event.rows.size
    tracer.counters["training.hierarchy_loss.degenerate"] += bool(result.degenerate)


def _write_retrievals(tracer, args, kwargs, result):
    tracer.counters["retrieval.write_retrievals.bytes"] += os.path.getsize(
        _arg(args, kwargs, 1, "path")
    )


def _score_candidates(tracer, args, kwargs, result):
    mention = _arg(args, kwargs, 2, "mention")
    tracer.pairs.update((mention.id, event_id) for event_id, _ in result)


def _rank_parents(tracer, args, kwargs, result):
    tracer.counters["relext.ranked"] += len(result)


def _write_parents(tracer, args, kwargs, result):
    rankings = _arg(args, kwargs, 0, "rankings")
    max_ranking = _arg(args, kwargs, 2, "max_ranking", 16)
    tracer.counters["relext.written"] += sum(
        min(len(ranking), max_ranking) for ranking in rankings.values()
    )


HOOKS = {
    "encoder.hash_text": _hash_text,
    "encoder.save_checkpoint": _save_checkpoint,
    "training.linking_loss": _linking_loss,
    "training.hierarchy_loss": _hierarchy_loss,
    "retrieval.write_retrievals": _write_retrievals,
    "rerank.score_candidates": _score_candidates,
    "relext.rank_parents": _rank_parents,
    "relext.write_parents": _write_parents,
}
