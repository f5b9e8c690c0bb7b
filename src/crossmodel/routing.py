"""Online routing policies driven by a disagreement signal.

A policy either carries an explicit threshold (route when the signal
strictly exceeds it; ties are not routed) or a budget (route the
most-suspicious fraction of a batch, ties broken by instance_id to
match the evaluation curves exactly). An instance without the signal is
never flagged and the budget counts only instances that carry it.
Threshold calibration is label-free: a quantile of signal scores on an
unlabeled calibration set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import CapabilityError, ConfigError, DataError, DegenerateInputError
from .serialize import Record, read_json, write_json
from .signals import SignalRecord, suspicion_score


@dataclass(frozen=True)
class RoutePolicy(Record):
    signal_name: str
    threshold: float | None = None
    budget: float | None = None
    calibration_set_id: str | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.budget is None):
            raise ValueError("exactly one of threshold or budget must be set")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        if self.budget is not None and not 0.0 <= self.budget <= 1.0:
            raise ValueError(f"budget must be in [0, 1], got {self.budget}")

    def to_dict(self) -> dict[str, Any]:
        return {key: value for key, value in super().to_dict().items() if value is not None}

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RoutePolicy":
        return read_json(path, cls.from_dict, ConfigError)


@dataclass(frozen=True)
class RouteDecision:
    instance_id: str
    routed_to_strong: bool
    signal_value: float | None  # None: instance lacks the signal, never flagged
    served_answer: str


@dataclass(frozen=True)
class RouteBatchResult:
    decisions: tuple[RouteDecision, ...]
    routed_fraction: float
    routed_accuracy: float | None


@dataclass(frozen=True)
class AbstainBatchResult:
    decisions: tuple[RouteDecision, ...]  # routed_to_strong means abstain
    abstained_fraction: float
    retained_accuracy: float | None


def calibrate_threshold(scores: Sequence[float], budget: float) -> float:
    """Quantile threshold so that strict-greater routing on the
    calibration set routes the largest fraction not exceeding `budget`.

    Budget 0 yields +inf (route nothing); budget 1 yields -inf (route
    everything).
    """
    if not scores:
        raise DegenerateInputError("cannot calibrate on an empty score list")
    if not 0.0 <= budget <= 1.0:
        raise ValueError(f"budget must be in [0, 1], got {budget}")
    n = len(scores)
    k = _budget_count(budget, n)
    if k == 0:
        return math.inf
    if k >= n:
        return -math.inf
    return sorted(scores, reverse=True)[k]


def _budget_count(budget: float, n: int) -> int:
    # floor with a tiny nudge so that exact integer budgets k/n survive
    # floating-point representation.
    return min(n, int(math.floor(budget * n + 1e-9)))


def _signal_values(policy: RoutePolicy, records: Sequence[SignalRecord]) -> dict[str, float]:
    """Suspicion score of every instance that carries the signal."""
    values = {}
    for rec in records:
        value = suspicion_score(rec, policy.signal_name)
        if value is not None:
            values[rec.instance_id] = value
    if not values:
        raise CapabilityError(f"signal {policy.signal_name!r} absent on every instance")
    return values


def _routed_ids(policy: RoutePolicy, values: dict[str, float]) -> set[str]:
    if policy.threshold is not None:
        return {iid for iid, v in values.items() if v > policy.threshold}
    # Budget mode routes exactly the top-k in the canonical suspicion
    # order, so route accuracies coincide with the evaluation curves.
    # Imported here: metrics loads numpy, which threshold routing never needs.
    from .metrics import canonical_order

    ids = list(values)
    k = _budget_count(policy.budget or 0.0, len(ids))
    return {ids[i] for i in canonical_order(ids, list(values.values()))[:k]}


def _labels(records: Sequence[SignalRecord]) -> tuple[dict[str, bool], dict[str, bool]] | None:
    if any(r.generator_correct is None or r.verifier_correct is None for r in records):
        return None
    weak = {r.instance_id: bool(r.generator_correct) for r in records}
    strong = {r.instance_id: bool(r.verifier_correct) for r in records}
    return weak, strong


def route_batch(
    policy: RoutePolicy,
    records: Sequence[SignalRecord],
    weak_answers: Mapping[str, str],
    strong_answers: Mapping[str, str],
) -> RouteBatchResult:
    """Decide, per instance, whether to serve the strong model's answer.

    Routed accuracy is reported only when both correctness label sets
    are present on the records.
    """
    if not records:
        raise DegenerateInputError("empty batch")
    values = _signal_values(policy, records)
    routed = _routed_ids(policy, values)
    decisions = []
    for rec in sorted(records, key=lambda r: r.instance_id):
        iid = rec.instance_id
        try:
            answer = strong_answers[iid] if iid in routed else weak_answers[iid]
        except KeyError as exc:
            raise DataError(f"no answer on file for instance {iid}") from exc
        decisions.append(RouteDecision(iid, iid in routed, values.get(iid), answer))
    labels = _labels(records)
    accuracy = None
    if labels is not None:
        weak, strong = labels
        hits = sum(
            1 for d in decisions if (strong if d.routed_to_strong else weak)[d.instance_id]
        )
        accuracy = hits / len(decisions)
    return RouteBatchResult(tuple(decisions), len(routed) / len(records), accuracy)


def abstain_batch(
    policy: RoutePolicy,
    records: Sequence[SignalRecord],
    weak_answers: Mapping[str, str] | None = None,
) -> AbstainBatchResult:
    """Routing reinterpreted as abstention: flagged instances get no answer.

    The retained set at budget b is exactly the coverage_accuracy
    retained set at coverage 1 - b.
    """
    if not records:
        raise DegenerateInputError("empty batch")
    values = _signal_values(policy, records)
    # Abstaining is routing away from the weak answer: the same flagged set.
    abstained = _routed_ids(policy, values)
    decisions = []
    for rec in sorted(records, key=lambda r: r.instance_id):
        iid = rec.instance_id
        if iid not in abstained and weak_answers is not None and iid not in weak_answers:
            raise DataError(f"no answer on file for instance {iid}")
        served = "" if iid in abstained or weak_answers is None else weak_answers[iid]
        decisions.append(RouteDecision(iid, iid in abstained, values.get(iid), served))
    retained = [r for r in records if r.instance_id not in abstained]
    accuracy = None
    if retained and all(r.generator_correct is not None for r in retained):
        accuracy = sum(1 for r in retained if r.generator_correct) / len(retained)
    return AbstainBatchResult(
        tuple(decisions), len(abstained) / len(records), accuracy
    )
