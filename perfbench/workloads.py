"""The benchmark's workloads: cohorts, client loops and metrics.

Every workload is a closed loop from one client in one process: a
*session* is one analysis followed by the clinician's feedback on the
top items and one pass of look-ups; a *round* runs its sessions against
a K-DB, then persists and reopens copies of it. Whole rounds repeat
while they fit in the measuring time (at least ``MIN_ROUNDS``).
ADA-HEALTH is driven only through ``ADAHealth.analyze``,
``EngineConfig`` and ``KnowledgeBase``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import checks
from probes import Probes
from repro.core import ADAHealth, DEGREES, EngineConfig
from repro.data.blocks import leaked_segments
from repro.data.synthetic import paper_dataset, small_dataset
from repro.kdb.kdb import KnowledgeBase
from repro.obs import Metrics, Tracer
from repro.obs.metrics import KDB_RECOVERY_COUNTERS

#: Set-ups per run, ``setup_s`` being their median: at least
#: ``SETUP_REPEATS``, and more while they have taken less than
#: ``SETUP_BUDGET_S`` (at most ``SETUP_MAX``), so that a set-up of a few
#: milliseconds is sampled over seconds of the host's speed swings, not
#: over one instant of them.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0
SETUP_MAX = 250
#: Items a session labels (the selected knowledge shown first).
FEEDBACK_ITEMS = 25
#: Rounds per untraced run, however long they take.
MIN_ROUNDS = 2
#: The traced run of ``paper-cold`` adds a round on a process pool; the
#: cloud layer's numbers come from it.
POOLED = {"executor": "process", "executor_workers": 2}
USER = "clinician"

#: Cohort shapes. ``full`` is the benchmark; ``smoke`` is the
#: reduced-size pass of ``selftest.py``.
SCALES = {
    "full": {
        "paper": lambda: paper_dataset(0),
        "clinic": lambda: small_dataset(n_patients=60, seed=4),
        "session": lambda seed: small_dataset(n_patients=300, seed=seed),
        "rotation": 3,
        "history_passes": 2,
        "session_passes": 3,
    },
    "smoke": {
        "paper": lambda: small_dataset(n_patients=150, seed=0),
        "clinic": lambda: small_dataset(
            n_patients=50, target_records=1500, seed=4
        ),
        "session": lambda seed: small_dataset(
            n_patients=80, target_records=1200, seed=seed
        ),
        "rotation": 2,
        "history_passes": 1,
        "session_passes": 1,
    },
}


@dataclass(frozen=True)
class Workload:
    cohort: str  # key into SCALES
    config: Dict[str, Any]
    expected_goals: Optional[tuple]
    #: Key of the recorded ranked-item digest (the pooled round shares
    #: the serial one: backends must not change results).
    digest_key: Optional[str]
    #: Copies of a round's K-DB persisted and reopened at its end. The
    #: persist and reopen steps take milliseconds and are bound by fsync
    #: on a shared disk, so one sample per round is too few to repeat. A
    #: cold round has one analysis of seconds and an in-memory store
    #: that saves in milliseconds, so it takes more copies than a warm
    #: round, whose copies replay and compact the whole primed store.
    replicas: int
    warm: bool = False
    #: Add a traced round on a process pool (see ``POOLED``).
    pooled_trace: bool = False


WORKLOADS = {
    "paper-cold": Workload(
        cohort="paper",
        config={},
        expected_goals=checks.ALL_GOALS,
        digest_key="paper",
        replicas=25,
        pooled_trace=True,
    ),
    "clinic-dense": Workload(
        cohort="clinic",
        config={},
        expected_goals=tuple(
            goal for goal in checks.ALL_GOALS if goal != "outlier-screening"
        ),
        digest_key="clinic",
        replicas=25,
    ),
    "kdb-session": Workload(
        cohort="session",
        config={"use_cache": True},
        expected_goals=None,
        digest_key=None,
        replicas=5,
        warm=True,
    ),
}

#: Store flush policy the K-DB runs with (the library defaults).
FLUSH_POLICY = {
    "kdb-session": (
        "on-disk sharded store, library defaults: 8 shards, every"
        " mutation appended and flushed to its shard log, fsync on close,"
        " no auto-compaction"
    ),
    "cold": (
        "in-memory store; persisted by a whole save (fsync per file) and"
        " reloaded"
    ),
}


#: Timings whose sample count, fastest decile, median and tail each run
#: reports in its detail block.
TIMINGS = ("analyze", "session", "feedback", "query", "reopen", "compact")


# -- recording ----------------------------------------------------------------
class Recorder:
    """Samples, attempted and failed operations of one or more rounds."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.records: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    def sample(self, kind: str, value: float) -> None:
        self.samples.setdefault(kind, []).append(value)

    def run(self, kind: str, operation: Callable[[], Any]):
        """Attempt one timed operation; returns ``(value, ok)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = operation()
        except Exception as exc:  # a failed op is counted and reported
            self.failed += 1
            self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None, False
        self.sample(kind, time.perf_counter() - start)
        return value, True

    def check(self, kind: str, problems: List[str]) -> None:
        """Fail an already-attempted operation whose output is wrong."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems)


# -- the context of one run ---------------------------------------------------
class Run:
    """Inputs and state of one benchmark run of one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        scale: str,
        workdir: Path,
        expected_digests: Dict[str, str],
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.shape = SCALES[scale]
        self.workdir = workdir
        self.expected = expected_digests.get(
            f"{workload.digest_key}/{scale}"
        )
        self.degrees = np.random.default_rng(seed)
        self.cohorts: List[Any] = []
        self.snapshot: Optional[Path] = None
        self.cold_content: Dict[int, str] = {}
        self.generate_s: List[float] = []
        self.tracer = None
        self.metrics = None
        self.probes: Optional[Probes] = None
        self.rounds = 0
        self.overrides: Dict[str, Any] = {}

    # -- set-up ---------------------------------------------------------------
    def setup(self, index: int) -> None:
        """Generate the cohorts, build engine and K-DB; prime on warm runs.

        Cold workloads analyse a pinned cohort (see README) against an
        in-memory K-DB; the seed drives the K-DB traffic. ``kdb-session``
        generates its rotation of cohorts from the seed and primes an
        on-disk sharded K-DB, which every round starts from.
        """
        start = time.perf_counter()
        if self.workload.warm:
            self.cohorts = [
                self.shape["session"](self.seed * 1000 + i)
                for i in range(self.shape["rotation"])
            ]
        else:
            self.cohorts = [self.shape[self.workload.cohort]()]
        self.generate_s.append(time.perf_counter() - start)
        if not self.workload.warm:
            self.engine(KnowledgeBase())
            return
        directory = self.workdir / f"setup-{index}"
        kb = KnowledgeBase.open_sharded(directory)
        try:
            self._prime(self.engine(kb), kb)
        finally:
            kb.store.close()
        if self.snapshot is not None:
            shutil.rmtree(self.snapshot)
        self.snapshot = directory

    def _prime(self, engine, kb) -> None:
        """Cold-analyse each cohort once, then build some visit history."""
        recorder = Recorder()
        for index, log in enumerate(self.cohorts):
            result = engine.analyze(log, name=f"cohort-{index}", user=USER)
            problems = checks.analysis_problems(result)
            if problems:
                raise RuntimeError(f"priming cohort {index}: {problems}")
            self.cold_content[index] = checks.content_digest(result.items)
            self._feedback(recorder, kb, result.top(FEEDBACK_ITEMS))
        for __ in range(self.shape["history_passes"]):
            for index, log in enumerate(self.cohorts):
                self.session(recorder, engine, kb, index)
        if recorder.failed:
            raise RuntimeError(f"priming failed: {recorder.problems}")

    def config(self) -> Dict[str, Any]:
        return {**self.workload.config, **self.overrides}

    def engine(self, kb) -> ADAHealth:
        config = EngineConfig(
            tracer=self.tracer, metrics=self.metrics, **self.config()
        )
        return ADAHealth(kdb=kb, config=config)

    # -- one session ----------------------------------------------------------
    def session(self, rec: Recorder, engine, kb, index: int):
        """Analyse, then work with the results in the K-DB.

        Returns the analysis result, or None when the analysis failed.
        """
        log = self.cohorts[index]
        fallbacks = self._fallbacks()
        result, ok = rec.run(
            "analyze",
            lambda: engine.analyze(log, name=f"cohort-{index}", user=USER),
        )
        if not ok:
            return None
        rec.records.append(log.n_records)
        self._check_result(rec, result, index, self._fallbacks() - fallbacks)
        self._feedback(rec, kb, result.top(FEEDBACK_ITEMS))
        self._queries(rec, kb, result)
        return result

    def _feedback(self, rec: Recorder, kb, items) -> None:
        for item in items:
            degree = DEGREES[int(self.degrees.integers(len(DEGREES)))]
            rec.run("feedback", lambda: kb.record_feedback(item, USER, degree))

    def _queries(self, rec: Recorder, kb, result) -> None:
        """One pass of the four look-ups; ``query`` samples the pass.

        Recent runs, this cohort's runs, everything this analysis found
        and its ten best items: result sizes that do not depend on the
        seed. The look-ups differ in cost by an order of magnitude, so
        the median of single look-ups would sit between their clusters.
        """
        done = len(rec.samples.get("lookup", []))
        recent, ok = rec.run("lookup", lambda: kb.run_history(limit=5))
        if not ok or not recent:
            return
        fingerprint = recent[0]["dataset"]["fingerprint"]
        found = {"dataset_id": result.dataset_id}
        floor = result.items[min(9, len(result.items) - 1)].score
        best = {**found, "score": {"$gte": floor}}
        for lookup in (
            lambda: kb.run_history(dataset_fingerprint=fingerprint),
            lambda: kb.items(found),
            lambda: kb.items(best),
        ):
            __, ok = rec.run("lookup", lookup)
            if not ok:
                return
        rec.sample("query", sum(rec.samples["lookup"][done:]))

    def _fallbacks(self) -> int:
        if self.metrics is None:
            return 0
        return self.metrics.counter_value("resilience.fallbacks")

    def _check_result(
        self, rec: Recorder, result, index: int, fallbacks: int
    ) -> None:
        problems = checks.analysis_problems(
            result, self.workload.expected_goals
        )
        if self.workload.warm:
            problems += checks.digest_problems(
                "warm vs cold",
                checks.content_digest(result.items),
                self.cold_content.get(index),
            )
        else:
            actual = checks.items_digest(result.items)
            rec.digests.append(actual)
            problems += checks.digest_problems(
                "ranked items", actual, self.expected
            )
            problems += checks.digest_problems(
                "repeat", actual, rec.digests[0]
            )
        if fallbacks:
            problems.append(f"{fallbacks} fan-out fallbacks to serial")
        rec.check("analyze", problems)

    # -- one round ------------------------------------------------------------
    def round(self, rec: Recorder) -> None:
        """Sessions against a K-DB, then persist and reopen copies of it.

        Warm rounds copy the primed sharded store and run every cohort of
        the rotation ``session_passes`` times; each replica is a copy of
        the closed store, reopened (replay), looked up in and compacted.
        Cold rounds run one session against a fresh in-memory K-DB; each
        replica is a save of it (the flat store's whole rewrite), loaded
        back, looked up in and labelled. The look-ups and labels on a
        reopened copy are those of the round's last session.

        A cold round reaches the K-DB once in seconds of analysis, and its
        session labels 25 items within a few milliseconds: one instant of
        the host's fast and slow modes. Labelling each loaded copy spreads
        the round's ``record_feedback`` samples over its replica phase, as
        its look-ups are. A warm round's sessions already spread them, and
        its copies are compacted, so labels there would change what
        ``kdb_space_amp`` measures.
        """
        warm = self.workload.warm
        directory = self.workdir / f"round-{self.rounds}"
        self.rounds += 1
        rec.sample("host", host_reference())
        if warm:
            shutil.copytree(self.snapshot, directory)
            kb = KnowledgeBase.open_sharded(directory)
            plan = [
                index
                for __ in range(self.shape["session_passes"])
                for index in range(len(self.cohorts))
            ]
        else:
            kb = KnowledgeBase()
            plan = [0]
        result = None
        try:
            engine = self.engine(kb)
            for index in plan:
                start = time.perf_counter()
                result = self.session(rec, engine, kb, index)
                rec.sample("session", time.perf_counter() - start)
            before = checks.kdb_snapshot(kb)
            live = _live_json_bytes(kb)
        finally:
            if warm:
                kb.store.close()
        for replica in range(self.workload.replicas):
            copy = directory.with_name(f"{directory.name}-{replica}")
            if warm:
                shutil.copytree(directory, copy)
                self._reopen_sharded(rec, copy, before, result)
            else:
                self._save_and_load(rec, kb, copy, before, result)
            _sample_space(rec, copy, live)
            shutil.rmtree(copy, ignore_errors=True)
        if warm:
            shutil.rmtree(directory)
        if self.config().get("executor") == "process":
            leaked = leaked_segments()
            if leaked:
                rec.check("lease", [f"shared memory left behind: {leaked}"])

    def _reopen_sharded(
        self, rec: Recorder, copy: Path, before, result
    ) -> None:
        metrics = Metrics()
        opened = self._probe_seconds("kdb.open")
        kb, ok = rec.run(
            "reopen",
            lambda: KnowledgeBase.open_sharded(copy, metrics=metrics),
        )
        if not ok:
            return
        try:
            rec.sample("replay", self._probe_seconds("kdb.open") - opened)
            recovered = sum(
                metrics.counter_value(name) for name in KDB_RECOVERY_COUNTERS
            )
            rec.sample("recovery", recovered)
            problems = []
            if recovered:
                problems.append(f"{recovered} recovery events on clean reopen")
            if checks.kdb_snapshot(kb, before["score_floor"]) != before:
                problems.append("K-DB differs after reopen")
            rec.check("reopen", problems)
            if result is not None:
                self._queries(rec, kb, result)
            compacted = self._probe_seconds("kdb.compact")
            __, ok = rec.run("compact", kb.compact)
            if ok:
                rec.sample(
                    "compact_probe",
                    self._probe_seconds("kdb.compact") - compacted,
                )
                if checks.kdb_snapshot(kb, before["score_floor"]) != before:
                    rec.check("compact", ["K-DB differs after compaction"])
        finally:
            kb.store.close()

    def _save_and_load(
        self, rec: Recorder, kb, copy: Path, before, result
    ) -> None:
        saved = self._probe_seconds("kdb.compact")
        __, ok = rec.run("compact", lambda: kb.save(copy))
        if not ok:
            return
        rec.sample("compact_probe", self._probe_seconds("kdb.compact") - saved)
        opened = self._probe_seconds("kdb.open")
        loaded, ok = rec.run("reopen", lambda: KnowledgeBase.load(copy))
        if not ok:
            return
        rec.sample("replay", self._probe_seconds("kdb.open") - opened)
        rec.sample("recovery", 0)
        if checks.kdb_snapshot(loaded, before["score_floor"]) != before:
            rec.check("reopen", ["K-DB differs after save and load"])
        if result is not None:
            self._queries(rec, loaded, result)
            self._feedback(rec, loaded, result.top(FEEDBACK_ITEMS))

    def traced_round(
        self,
        rec: Recorder,
        observed: "Observed",
        overrides: Optional[Dict[str, Any]] = None,
    ) -> "Observed":
        """One round under ``observed``'s probes, tracer and metrics."""
        self.tracer, self.metrics = observed.tracer, observed.metrics
        self.overrides = overrides or {}
        try:
            with observed.probes as probes:
                self.probes = probes
                self.round(rec)
        finally:
            self.tracer = self.metrics = self.probes = None
            self.overrides = {}
        observed.rounds += 1
        return observed

    def _probe_seconds(self, key: str) -> float:
        if self.probes is None:
            return 0.0
        return self.probes.stat(key).seconds


@dataclass
class Observed:
    """Probe tallies, tracer spans and engine metrics of traced rounds."""

    probes: Probes = field(default_factory=Probes)
    tracer: Tracer = field(default_factory=Tracer)
    metrics: Metrics = field(default_factory=Metrics)
    rounds: int = 0

    @property
    def spans(self) -> List[Dict]:
        return self.tracer.finished()


def _sample_space(rec: Recorder, directory: Path, live: int) -> None:
    """Disk bytes of a persisted K-DB, and per byte of live JSON."""
    disk = sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )
    rec.sample("disk_bytes", disk)
    rec.sample("space_amp", disk / live)


def _live_json_bytes(kb) -> int:
    """Bytes of every live document as compact JSON."""
    total = 0
    for name in kb.store.collection_names():
        for document in kb.store[name].find():
            total += len(
                json.dumps(
                    document, separators=(",", ":"), default=repr
                ).encode()
            )
    return total


# -- statistics ---------------------------------------------------------------
def tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with ten samples or fewer no
    such percentile exists and the maximum is reported (percentile 1.0).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 1.0, n
    index = n - 11
    return ordered[index], (index + 1) / n, n


def host_reference() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    Reported beside the metrics so that a swing in the shared host's
    speed can be told apart from a change of the program.
    """
    start = time.perf_counter()
    sum(i * i for i in range(100_000))
    return time.perf_counter() - start


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fastest_decile(values: List[float], higher: bool = False) -> float:
    """The 10th percentile of ``values`` (the 90th when ``higher``).

    The shared host runs in a fast and a slow mode that switch within
    seconds (~1.6x apart for the K-DB operations), and the share of a
    run spent in either varies from run to run, so a run's median lands
    in either mode. The fastest decile stays in the fast mode whenever a
    tenth of the run had it, and a slower program moves it all the same.
    """
    if not values:
        return 0.0
    ordered = sorted(values, reverse=higher)
    return ordered[int(0.1 * len(ordered))]


def latency(values: List[float]) -> Dict[str, float]:
    """Sample count, fastest decile, median and tail of one timing."""
    value, percentile, count = tail(values) if values else (0.0, 0.0, 0)
    return {
        "n": count,
        "fastest_decile": fastest_decile(values),
        "median": _median(values),
        "tail": value,
        "tail_percentile": percentile,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, rec: Recorder, setup_s: List[float]) -> Dict:
    s = rec.samples
    analyze = s.get("analyze", [])
    feedback = s.get("feedback", [])
    sessions = s.get("session", [])
    rates = [n / t for n, t in zip(rec.records, analyze)]
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        "analyze_s": (fastest_decile(analyze), "s"),
        "records_per_s": (fastest_decile(rates, higher=True), "1/s"),
        "sessions_per_s": (
            1.0 / fastest_decile(sessions) if sessions else 0.0,
            "1/s",
        ),
        "feedback_ms": (fastest_decile(feedback) * 1e3, "ms"),
        "query_ms": (fastest_decile(s.get("query", [])) * 1e3, "ms"),
        "reopen_s": (fastest_decile(s.get("reopen", [])), "s"),
        "compact_s": (fastest_decile(s.get("compact", [])), "s"),
        "kdb_space_amp": (_median(s.get("space_amp", [])), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_rate": (
            1.0 - rec.failed / max(rec.attempted, 1),
            "ratio",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(
    run: Run,
    serial: Observed,
    cloud: Observed,
    traced: Recorder,
    untraced: Recorder,
) -> Dict:
    """Per-layer numbers per traced round (see README for each).

    Totals over ``serial``'s traced rounds are divided by their number.
    ``cloud`` is the pooled round where there is one, else ``serial``.
    """
    out: Dict[str, Dict[str, Any]] = {}
    probes, spans = serial.probes, serial.spans
    rounds = serial.rounds

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    def timed(prefix: str, key: str, calls: Optional[str] = "calls"):
        stat = probes.stat(key)
        if calls:
            put(f"{prefix}.{calls}", stat.calls / rounds, "count")
        put(f"{prefix}.s", stat.seconds / rounds, "s")
        return stat

    put("data.generate.s", _median(run.generate_s), "s")
    timed("data.transactions", "data.transactions")
    timed("data.fingerprint", "data.fingerprint")

    timed("preprocess.characterize", "preprocess.characterize", None)
    timed("preprocess.vsm", "preprocess.vsm")

    distance = timed("mining.distance", "mining.distance")
    put("mining.distance.flops",
        distance.counts.get("flops", 0) / rounds, "flop")
    put("mining.distance.bytes",
        distance.counts.get("bytes", 0) / rounds, "B")
    kmeans = timed("mining.kmeans", "mining.kmeans", "fits")
    put("mining.kmeans.iters", kmeans.counts.get("iters", 0) / rounds,
        "count")
    timed("mining.dbscan", "mining.dbscan", None)
    timed("mining.outliers", "mining.outliers", None)
    itemsets = timed("mining.itemsets", "mining.itemsets", None)
    put("mining.itemsets.found", itemsets.counts.get("found", 0) / rounds,
        "count")
    rules = timed("mining.rules", "mining.rules", None)
    generated = rules.counts.get("generated", 0)
    kept = probes.stat("mining.rules.kept").counts.get("kept", 0)
    put("mining.rules.generated", generated / rounds, "count")
    put("mining.rules.kept_ratio", kept / generated if generated else 0.0,
        "ratio")
    sequences = timed("mining.sequences", "mining.sequences", None)
    put("mining.sequences.patterns",
        sequences.counts.get("patterns", 0) / rounds, "count")
    put("mining.sequences.capped",
        sequences.counts.get("capped", 0) / rounds, "count")
    timed("mining.generalized", "mining.generalized", None)

    phases = {"characterize", "assess-goals", "run-goals", "score-and-rank"}
    for phase in sorted(phases):
        put(
            f"core.phase.{phase}.s",
            sum(sp["wall_s"] for sp in spans
                if sp["name"] == phase and sp["depth"] == 1) / rounds,
            "s",
        )
    goal_spans = [sp for sp in spans if sp["name"] == "goal"]
    for goal in checks.ALL_GOALS:
        put(
            f"core.goal.{goal}.s",
            sum(sp["wall_s"] for sp in goal_spans
                if sp["attrs"].get("goal") == goal) / rounds,
            "s",
        )
    timed("core.optimizer", "core.optimizer", None)
    timed("core.partial", "core.partial", None)
    hits = serial.metrics.counter_value("cache.hits")
    misses = serial.metrics.counter_value("cache.misses")
    put("core.cache.hits", hits / rounds, "count")
    put("core.cache.misses", misses / rounds, "count")
    put("core.cache.hit_ratio",
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    timed("core.cache.get", "core.cache.get", None)
    timed("core.cache.put", "core.cache.put", None)
    timed("core.rank", "core.rank", None)

    timed("kdb.insert", "kdb.insert")
    timed("kdb.update", "kdb.update")
    timed("kdb.find", "kdb.find")
    timed("kdb.cursor", "kdb.cursor", None)
    s = traced.samples
    put("kdb.replay.s", _median(s.get("replay", [])), "s")
    put("kdb.compact.s", _median(s.get("compact_probe", [])), "s")
    put("kdb.disk_bytes", _median(s.get("disk_bytes", [])), "B")
    put("kdb.recovery.events", sum(s.get("recovery", [])) / rounds,
        "count")

    task = cloud.metrics.histogram("executor.task_seconds")
    queue = cloud.metrics.histogram("executor.queue_seconds")
    per_cloud_round = 1 / cloud.rounds
    put("cloud.tasks", task.count * per_cloud_round, "count")
    put("cloud.task.s", task.total * per_cloud_round, "s")
    put("cloud.queue.s", queue.total * per_cloud_round, "s")
    put("cloud.lease.s",
        cloud.probes.stat("cloud.lease").seconds * per_cloud_round, "s")
    put("cloud.retries",
        cloud.metrics.counter_value("resilience.retries") * per_cloud_round,
        "count")
    put("cloud.fallbacks",
        cloud.metrics.counter_value("resilience.fallbacks")
        * per_cloud_round,
        "count")
    cloud_spans = cloud.spans
    run_goals = sum(sp["wall_s"] for sp in cloud_spans
                    if sp["name"] == "run-goals")
    slowest = _slowest_goal_per_analysis(cloud_spans)
    put("cloud.critical_path_ratio",
        slowest / run_goals if run_goals else 0.0, "ratio")

    timed("obs.record_run", "obs.record_run", None)
    # Traced and untraced rounds alternate, so both medians span the
    # same stretch of the host's speed swings.
    untraced_s = _median(untraced.samples.get("analyze", []))
    put(
        "obs.trace_overhead",
        _median(s.get("analyze", [])) / untraced_s if untraced_s else 0.0,
        "ratio",
    )
    return out


def _slowest_goal_per_analysis(spans: List[Dict]) -> float:
    """Sum over analyses of the slowest goal span in each."""
    slowest: Dict[Any, float] = {}
    for span in spans:
        if span["name"] == "goal":
            trace = span["trace_id"]
            slowest[trace] = max(slowest.get(trace, 0.0), span["wall_s"])
    return sum(slowest.values())


# -- host and provenance ------------------------------------------------------
def _git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_block(root: Path) -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
    }


# -- the whole run ------------------------------------------------------------
def measure(
    seconds: float, start: float, step: Callable[[], Any], least: int = 1
) -> None:
    """Repeat ``step`` at least ``least`` times, and while another
    ``step`` as long as the last one still ends within ``seconds``."""
    done = 0
    while True:
        step_start = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= least and (now - start) + (now - step_start) > seconds:
            return


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    workdir: Path,
    root: Path,
    expected_digests: Dict[str, str],
):
    """Set up, measure, check; returns ``(result_line, detail_block)``."""
    workload = WORKLOADS[name]
    run = Run(workload, seed, scale, workdir, expected_digests)
    setup_s: List[float] = []
    while len(setup_s) < SETUP_REPEATS or (
        sum(setup_s) < SETUP_BUDGET_S and len(setup_s) < SETUP_MAX
    ):
        start = time.perf_counter()
        run.setup(len(setup_s))
        setup_s.append(time.perf_counter() - start)

    untraced = Recorder()
    start = time.perf_counter()
    if trace:
        # Untraced and traced rounds alternate: the overhead baseline.
        traced, serial = Recorder(), Observed()
        measure(seconds, start, lambda: (
            run.round(untraced), run.traced_round(traced, serial)
        ))
        traced.check(
            "trace",
            checks.digest_problems(
                "traced vs untraced",
                (traced.digests or [""])[0],
                (untraced.digests or [None])[0],
            ),
        )
        recorders = [untraced, traced]
        cloud = serial
        if workload.pooled_trace:
            pooled = Recorder()
            cloud = run.traced_round(pooled, Observed(), POOLED)
            recorders.append(pooled)
        metrics = per_layer(run, serial, cloud, traced, untraced)
    else:
        measure(seconds, start, lambda: run.round(untraced), MIN_ROUNDS)
        metrics = end_to_end(run, untraced, setup_s)
        recorders = [untraced]
    measured_s = time.perf_counter() - start

    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "host": host_block(root),
        "flush_policy": FLUSH_POLICY[
            "kdb-session" if workload.warm else "cold"
        ],
        "cohorts": [
            {
                "patients": log.n_patients,
                "exam_types": log.n_exam_types,
                "records": log.n_records,
            }
            for log in run.cohorts
        ],
        "rounds": run.rounds,
        "measured_s": measured_s,
        "setup_s": setup_s,
        "samples": {k: len(v) for k, v in untraced.samples.items()},
        "latency_s": {
            kind: latency(untraced.samples.get(kind, []))
            for kind in TIMINGS
        },
        "host_reference_ms": _median(
            [v * 1e3 for r in recorders for v in r.samples.get("host", [])]
        ),
        "digest": (untraced.digests or [None])[0],
        "problems": [p for r in recorders for p in r.problems][:20],
    }
    if trace:
        detail["traced_rounds"] = serial.rounds
        detail["analyze_s_by_round"] = {
            label: _median(r.samples.get("analyze", []))
            for label, r in zip(("untraced", "traced", "pooled"), recorders)
        }
    if trace and workload.pooled_trace:
        detail["pooled_round"] = POOLED
        if detail["host"]["usable_cores"] < 2:
            detail["note"] = (
                "fewer than 2 usable cores: the pooled round's cloud"
                " numbers are counts only, with no wall-clock comparison"
                " to the serial round"
            )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
