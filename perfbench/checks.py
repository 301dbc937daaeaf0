"""Output checks: ranked-item digests, analysis invariants, K-DB snapshots."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Sequence

#: Every end-goal the default registry defines.
ALL_GOALS = (
    "patient-segmentation",
    "co-prescription-patterns",
    "care-pathway-rules",
    "care-sequences",
    "outlier-screening",
    "guideline-compliance",
    "exam-category-profiles",
)


def items_signature(items) -> List[tuple]:
    """``(kind, end_goal, title, score, degree)`` per ranked item."""
    return [
        (item.kind, item.end_goal, item.title, item.score, item.degree)
        for item in items
    ]


def digest(rows: Sequence[Any]) -> str:
    """SHA-256 of a JSON rendering (floats keep every digit)."""
    encoded = json.dumps(list(rows), sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode()).hexdigest()


def items_digest(items) -> str:
    return digest(items_signature(items))


def content_digest(items) -> str:
    """Order- and degree-free digest: what was found and how it scored.

    Degrees are predicted from accumulated feedback and the ranking
    follows them, so a warm re-analysis after feedback may reorder and
    relabel the same items; their content must not change.
    """
    return digest(sorted(row[:4] for row in items_signature(items)))


def analysis_problems(
    result, expected_goals: Optional[Sequence[str]] = None
) -> List[str]:
    """Invariants every finished analysis must satisfy."""
    problems = []
    if result.degraded:
        problems.append(f"degraded run: {result.failed_goals()} failed")
    ran = sorted(run.goal.name for run in result.runs)
    if expected_goals is not None and ran != sorted(expected_goals):
        problems.append(f"goals ran {ran}, expected {sorted(expected_goals)}")
    if not result.items:
        problems.append("no knowledge items")
    if any(not math.isfinite(item.score) for item in result.items):
        problems.append("non-finite item score")
    if any(item.item_id is None for item in result.items):
        problems.append("item not stored in the K-DB")
    return problems


def digest_problems(
    label: str, actual: str, expected: Optional[str]
) -> List[str]:
    if expected is None or actual == expected:
        return []
    return [f"{label}: digest {actual[:12]} != expected {expected[:12]}"]


def kdb_snapshot(kb, score_floor: Optional[float] = None) -> Dict[str, Any]:
    """Counts and fixed query results, to compare across close/reopen.

    ``score_floor`` defaults to the 20th-best stored score, so the item
    query returns a set whose membership does not depend on tie order.
    """
    store = kb.store
    counts = {
        name: store[name].count_documents({})
        for name in sorted(store.collection_names())
    }
    knowledge = store["discovered_knowledge"]
    if score_floor is None:
        best = knowledge.find().sort("score", -1).limit(20).to_list()
        score_floor = best[-1]["score"] if best else 0.0
    items = sorted(
        (repr(doc["_id"]), doc["score"], doc.get("degree"))
        for doc in knowledge.find({"score": {"$gte": score_floor}})
    )
    recent = [repr(run["_id"]) for run in kb.run_history(limit=5)]
    return {
        "counts": counts,
        "score_floor": score_floor,
        "items": items,
        "recent_runs": recent,
        "feedback": kb.feedback_count(),
    }
