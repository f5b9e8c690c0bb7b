"""Online routing policies driven by a disagreement signal.

A policy either carries an explicit threshold (route when the signal
strictly exceeds it; ties are not routed) or a budget (route the
most-suspicious fraction of a batch, ties broken by instance_id to
match the evaluation curves exactly). An instance without the signal is
never flagged and the budget counts only instances that carry it.
Threshold calibration is label-free: a quantile of signal scores on an
unlabeled calibration set. A batch is read as `SignalColumns`; a
`SignalRecord` sequence is converted to them once on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import CapabilityError, DataError, DegenerateInputError
from .serialize import Record
from .signals import SignalColumns, Signals, signal_columns


@dataclass(frozen=True)
class RoutePolicy(Record):
    signal_name: str
    threshold: float | None = None
    budget: float | None = None

    def __post_init__(self) -> None:
        if (self.threshold is None) == (self.budget is None):
            raise ValueError("exactly one of threshold or budget must be set")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must not be NaN")
        if self.budget is not None and not 0.0 <= self.budget <= 1.0:
            raise ValueError(f"budget must be in [0, 1], got {self.budget}")

    def to_dict(self) -> dict[str, Any]:
        return {key: value for key, value in super().to_dict().items() if value is not None}


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


def _decide(
    policy: RoutePolicy,
    cols: SignalColumns,
    flagged_answers: Mapping[str, str] | None,
    kept_answers: Mapping[str, str] | None,
) -> tuple[list[RouteDecision], set[str]]:
    """Every instance's decision in instance-id order, and the flagged ids. A
    flagged instance is served from `flagged_answers`, the others from
    `kept_answers`; a map of None serves ""."""
    if not cols:
        raise DegenerateInputError("empty batch")
    values = dict(zip(*signal_columns(cols, policy.signal_name)[:2]))
    if not values:
        raise CapabilityError(f"signal {policy.signal_name!r} absent on every instance")
    if policy.threshold is not None:
        flagged = {iid for iid, v in values.items() if v > policy.threshold}
    else:
        # Budget mode flags exactly the top-k in the canonical suspicion
        # order, so route accuracies coincide with the evaluation curves.
        # Imported here: metrics loads numpy, which threshold routing never needs.
        from .metrics import canonical_order

        ids = list(values)
        k = _budget_count(policy.budget or 0.0, len(ids))
        flagged = {ids[i] for i in canonical_order(ids, list(values.values()))[:k]}
    decisions = []
    for iid in sorted(cols.instance_id):
        answers = flagged_answers if iid in flagged else kept_answers
        if answers is not None and iid not in answers:
            raise DataError(f"no answer on file for instance {iid}")
        served = "" if answers is None else answers[iid]
        decisions.append(RouteDecision(iid, iid in flagged, values.get(iid), served))
    return decisions, flagged


def route_batch(
    policy: RoutePolicy,
    records: Signals,
    weak_answers: Mapping[str, str],
    strong_answers: Mapping[str, str],
) -> RouteBatchResult:
    """Decide, per instance, whether to serve the strong model's answer.

    Routed accuracy is reported only when both correctness label sets
    are present on the records.
    """
    cols = SignalColumns.of(records)
    decisions, routed = _decide(policy, cols, strong_answers, weak_answers)
    accuracy = None
    if None not in cols.generator_correct and None not in cols.verifier_correct:
        hits = sum(ver if iid in routed else gen for iid, gen, ver in
                   zip(cols.instance_id, cols.generator_correct, cols.verifier_correct))
        accuracy = hits / len(cols)
    return RouteBatchResult(tuple(decisions), len(routed) / len(cols), accuracy)


def abstain_batch(
    policy: RoutePolicy,
    records: Signals,
    weak_answers: Mapping[str, str] | None = None,
) -> AbstainBatchResult:
    """Routing reinterpreted as abstention: flagged instances get no answer.

    The retained set at budget b is exactly the coverage_accuracy
    retained set at coverage 1 - b.
    """
    cols = SignalColumns.of(records)
    decisions, abstained = _decide(policy, cols, None, weak_answers)
    retained = [gen for iid, gen in zip(cols.instance_id, cols.generator_correct)
                if iid not in abstained]
    accuracy = None
    if retained and None not in retained:
        accuracy = retained.count(True) / len(retained)
    return AbstainBatchResult(tuple(decisions), len(abstained) / len(cols), accuracy)
