"""Outside-in tracing of refsig: spans recorded around the program's public
functions from the benchmark's own files, without touching ``src/``.

Modules import each other's functions with ``from .x import y``, so a
function is replaced at every name a caller looks it up under: each refsig
module attribute that is the original object gets the wrapper. Methods and
constructors are replaced on their class.

Per-document calls are wrapped; per-pair and per-partition calls
(``text.cosine``, ``reference.classify``) and per-gram calls (``gramio``)
are not, so their cost stays in their caller's self time. ``gramio`` is
reached only through ``ga.Chromosome.content_hash`` and the reference-file
readers and writers.

Spans are kept in memory as (name, start, end, parent index, run id) and
written out once the traced run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable

MODULES = ("cli", "store", "text", "tfidf", "reference", "ga", "evaluate", "gramio")

FUNCTIONS = {
    "cli": ("main", "cmd_topk", "cmd_train", "cmd_sign", "cmd_dedup", "cmd_eval", "cmd_synth"),
    "store": ("ingest", "strip_html", "db_write", "db_read"),
    "text": ("normalize", "extract_3grams", "brute_force_pairwise"),
    "tfidf": ("score_grams", "top_k", "save_pool", "load_pool"),
    "reference": (
        "sign",
        "signature_matrix",
        "pairwise_signature_similarity",
        "mean_signature_error",
        "load_reference",
        "save_reference",
    ),
    "ga": ("evolve", "fitness", "draw_fitness_sample", "init_population", "crossover", "mutate"),
    "evaluate": ("cross_validate", "mae", "split_corpus", "dnd_scan", "confusion_from_pairs", "prf"),
}

METHODS = (
    ("text", "Document", "from_raw", "text.Document.from_raw"),
    ("reference", "ReferenceText", "__init__", "reference.ReferenceText"),
    ("ga", "Chromosome", "content_hash", "ga.Chromosome.content_hash"),
)


def _brute_force_work(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _top_k_work(args, kwargs, result):
    return {"grams": len(result), "requested": result.requested}


def _dnd_scan_work(args, kwargs, result):
    n = args[0].record_count
    return {"pairs": n * (n - 1) // 2, "hits": len(result)}


# Counts taken at a span boundary from its arguments and result, after the
# span has ended.
WORK = {
    "text.brute_force_pairwise": _brute_force_work,
    "tfidf.top_k": _top_k_work,
    "evaluate.dnd_scan": _dnd_scan_work,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.work: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0  # run id stamped on each span: the operation's index
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.run]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    self.work[name][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap refsig's public functions at every name they are looked up under."""
        package = importlib.import_module("refsig")
        modules = {m: importlib.import_module(f"refsig.{m}") for m in MODULES}
        owners = [package, *modules.values()]
        for home, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(modules[home], fname)
                wrapped = self.span(f"{home}.{fname}", original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._set(owner, attr, wrapped)
        for home, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[home], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.span(span_name, raw.__func__)))
            else:
                self._set(cls, attr, self.span(span_name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls nest strictly in one thread, so children never overlap and the
    self times of a tree sum to its root's duration.
    """
    own = [end - start for _name, start, end, _parent, _run in spans]
    for k, (_name, start, end, parent, _run) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _parent, _run), own in zip(spans, self_times(spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return dict(out)
