"""Per-layer probes: wrap public ADA-HEALTH functions for the traced run.

Nothing under ``src/`` is edited. Each probe replaces a name where its
caller looks it up -- a module attribute (``repro.core.engine.DBSCAN``
style imports bind the function into the caller's namespace, so every
module holding the original object is patched) or a method on its
class -- and restores the original on :meth:`Probes.remove`.

A probe counts calls and inclusive wall time. Re-entrant calls (a
public method calling another public method under the same probe) are
counted once, at the outermost call. Extra per-call counts (iterations,
patterns, flops) are added by an ``observe`` hook that sees the
arguments and the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Stat:
    """Calls, inclusive seconds and free-form counts of one probe."""

    __slots__ = ("calls", "seconds", "counts", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.counts: Dict[str, float] = {}
        self.active = False

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


Observer = Callable[[Stat, tuple, dict, Any], None]


def _timed(original: Callable, stat: Stat, observe: Optional[Observer]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if stat.active:
            return original(*args, **kwargs)
        stat.active = True
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            stat.seconds += time.perf_counter() - start
            stat.calls += 1
            stat.active = False
        if observe is not None:
            observe(stat, args, kwargs, result)
        return result

    return wrapper


class _TimedContext:
    """Times a context manager's enter and exit, not its body."""

    def __init__(self, manager, stat: Stat) -> None:
        self._manager = manager
        self._stat = stat

    def __enter__(self):
        start = time.perf_counter()
        try:
            return self._manager.__enter__()
        finally:
            self._stat.seconds += time.perf_counter() - start

    def __exit__(self, *exc_info):
        start = time.perf_counter()
        try:
            return self._manager.__exit__(*exc_info)
        finally:
            self._stat.seconds += time.perf_counter() - start
            self._stat.calls += 1


def _context_timer(original: Callable, stat: Stat):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _TimedContext(original(*args, **kwargs), stat)

    return wrapper


# -- observers ------------------------------------------------------------
def _shape2d(array) -> Tuple[int, int]:
    shape = getattr(array, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(array)
    if len(shape) == 1:
        return 1, int(shape[0])
    return int(shape[0]), int(shape[1])


def _distance_work(stat: Stat, args: tuple, kwargs: dict, result) -> None:
    """Computed from shapes: ``a (n,d)``, ``b (m,d)`` -> ``(n,m)``.

    flops = 2nmd (the product) + 2(n+m)d (row norms) + 4nm (combine,
    clip); bytes = 8(nd + md + nm), each operand read and the result
    written once in float64.
    """
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    n, d = _shape2d(a)
    m, __ = _shape2d(b)
    stat.add("flops", 2 * n * m * d + 2 * (n + m) * d + 4 * n * m)
    stat.add("bytes", 8 * (n * d + m * d + n * m))


def _kmeans_iterations(stat: Stat, args: tuple, kwargs: dict, result):
    stat.add("iters", getattr(args[0], "n_iter_", None) or 0)


def _count_results(name: str) -> Observer:
    def observe(stat: Stat, args: tuple, kwargs: dict, result) -> None:
        stat.add(name, len(result))

    return observe


def _sequence_patterns(default_cap: int) -> Observer:
    def observe(stat: Stat, args: tuple, kwargs: dict, result) -> None:
        cap = kwargs.get("max_patterns", default_cap)
        if len(args) > 3:
            cap = args[3]
        stat.add("patterns", len(result))
        if len(result) >= cap:
            stat.add("capped", 1)

    return observe


# -- the probe set -----------------------------------------------------------
def probe_table() -> List[Dict[str, Any]]:
    """Every probe: ``key`` (tally name), ``module`` and ``attr``.

    An ``attr`` of the form ``Class.method`` patches the method on the
    class; a bare function is patched in every loaded ``repro`` module
    that binds the same object, or only in ``caller`` when given.
    ``observe`` adds counts per call; ``context`` times a context
    manager's enter and exit. Entries sharing a key share one tally.
    """
    sequences = importlib.import_module("repro.mining.sequences")
    default_cap = (
        inspect.signature(sequences.mine_sequences)
        .parameters["max_patterns"]
        .default
    )
    return [
        # data
        {"key": "data.transactions", "module": "repro.data.records",
         "attr": "ExamLog.transactions"},
        {"key": "data.fingerprint", "module": "repro.core.cache",
         "attr": "fingerprint_log"},
        # preprocess
        {"key": "preprocess.characterize",
         "module": "repro.preprocess.characterization",
         "attr": "characterize_log"},
        {"key": "preprocess.vsm", "module": "repro.preprocess.vsm",
         "attr": "VSMBuilder.build"},
        # mining
        {"key": "mining.distance", "module": "repro.mining.distance",
         "attr": "squared_euclidean", "observe": _distance_work},
        {"key": "mining.kmeans", "module": "repro.mining.kmeans",
         "attr": "KMeans.fit", "observe": _kmeans_iterations},
        {"key": "mining.dbscan", "module": "repro.mining.dbscan",
         "attr": "DBSCAN.fit"},
        {"key": "mining.outliers", "module": "repro.mining.outliers",
         "attr": "top_outliers"},
        {"key": "mining.itemsets", "module": "repro.mining.itemsets",
         "attr": "mine_frequent_itemsets", "caller": "repro.core.engine",
         "observe": _count_results("found")},
        {"key": "mining.rules", "module": "repro.mining.rules",
         "attr": "generate_rules", "caller": "repro.core.engine",
         "observe": _count_results("generated")},
        {"key": "mining.rules.kept", "module": "repro.core.extractors",
         "attr": "extract_rule_items", "caller": "repro.core.engine",
         "observe": _count_results("kept")},
        {"key": "mining.sequences", "module": "repro.mining.sequences",
         "attr": "mine_sequences",
         "observe": _sequence_patterns(default_cap)},
        {"key": "mining.generalized", "module": "repro.mining.generalized",
         "attr": "mine_generalized_itemsets"},
        # core
        {"key": "core.optimizer", "module": "repro.core.optimizer",
         "attr": "KMeansOptimizer.optimize"},
        {"key": "core.partial", "module": "repro.core.partial",
         "attr": "HorizontalPartialMiner.mine"},
        {"key": "core.cache.get", "module": "repro.core.cache",
         "attr": "AnalysisCache.get"},
        {"key": "core.cache.put", "module": "repro.core.cache",
         "attr": "AnalysisCache.put"},
        {"key": "core.rank", "module": "repro.core.ranking",
         "attr": "KnowledgeRanker.rank"},
        # kdb: one shared stat per operation family
        {"key": "kdb.insert", "module": "repro.kdb.documentstore",
         "attr": "Collection.insert_one"},
        {"key": "kdb.insert", "module": "repro.kdb.documentstore",
         "attr": "Collection.insert_many"},
        {"key": "kdb.update", "module": "repro.kdb.documentstore",
         "attr": "Collection.update_one"},
        {"key": "kdb.update", "module": "repro.kdb.documentstore",
         "attr": "Collection.update_many"},
        {"key": "kdb.find", "module": "repro.kdb.documentstore",
         "attr": "Collection.find"},
        {"key": "kdb.find", "module": "repro.kdb.documentstore",
         "attr": "Collection.find_one"},
        {"key": "kdb.find", "module": "repro.kdb.documentstore",
         "attr": "Collection.count_documents"},
        {"key": "kdb.cursor", "module": "repro.kdb.documentstore",
         "attr": "Cursor.to_list"},
        {"key": "kdb.cursor", "module": "repro.kdb.documentstore",
         "attr": "Cursor.__iter__"},
        {"key": "kdb.open", "module": "repro.kdb.shards",
         "attr": "ShardedDocumentStore.__init__"},
        {"key": "kdb.open", "module": "repro.kdb.documentstore",
         "attr": "DocumentStore.load"},
        {"key": "kdb.compact", "module": "repro.kdb.shards",
         "attr": "ShardedDocumentStore.compact"},
        {"key": "kdb.compact", "module": "repro.kdb.documentstore",
         "attr": "DocumentStore.save"},
        # cloud
        {"key": "cloud.lease", "module": "repro.cloud.transport",
         "attr": "log_lease", "caller": "repro.core.engine",
         "context": True},
        # obs
        {"key": "obs.record_run", "module": "repro.kdb.kdb",
         "attr": "KnowledgeBase.record_run"},
    ]


class Probes:
    """Installs the probe table; ``stats[key]`` holds each probe's tally."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def install(self) -> "Probes":
        # Lazily imported modules must be loaded before patching, or a
        # later ``from module import name`` would bind the original.
        for module in (
            "repro.core.engine",
            "repro.mining.outliers",
            "repro.mining.sequences",
            "repro.kdb.shards",
        ):
            importlib.import_module(module)
        for entry in probe_table():
            self._install(entry)
        return self

    def _install(self, entry: Dict[str, Any]) -> None:
        stat = self.stat(entry["key"])
        module = importlib.import_module(entry["module"])
        owner_name, __, method = entry["attr"].rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    _timed(raw.__func__, stat, entry.get("observe"))
                )
            else:
                wrapped = _timed(raw, stat, entry.get("observe"))
            self._patch(owner, method, raw, wrapped)
            return
        original = getattr(module, method)
        if entry.get("context"):
            wrapped = _context_timer(original, stat)
        else:
            wrapped = _timed(original, stat, entry.get("observe"))
        callers = (
            [importlib.import_module(entry["caller"])]
            if "caller" in entry
            else [
                loaded
                for name, loaded in sorted(sys.modules.items())
                if name == "repro" or name.startswith("repro.")
            ]
        )
        for caller in callers:
            if caller is not None and caller.__dict__.get(method) is original:
                self._patch(caller, method, original, wrapped)

    def _patch(self, owner: Any, name: str, original: Any, new: Any) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, original))

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()
