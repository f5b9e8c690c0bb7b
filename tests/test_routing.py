import itertools
import math
import random

import pytest

from crossmodel.errors import CapabilityError, DataError, DegenerateInputError
from crossmodel.metrics import LabeledScore, coverage_accuracy, pgr_curve
from crossmodel.routing import (
    RoutePolicy,
    abstain_batch,
    calibrate_threshold,
    route_batch,
)
from crossmodel.signals import SignalRecord


def make_records(scores, weak, strong=None, ids=None):
    n = len(scores)
    ids = ids or [f"i{j:02d}" for j in range(n)]
    strong = strong if strong is not None else [None] * n
    return [
        SignalRecord(ids[j], log_cmp=float(scores[j]),
                     generator_correct=weak[j], verifier_correct=strong[j])
        for j in range(n)
    ]


def answers_for(records, prefix):
    return {r.instance_id: f"{prefix}-{r.instance_id}" for r in records}


def brute_best_accuracy_at_budget(weak, strong, k):
    """Exhaustive maximum accuracy over all routed subsets of size k."""
    n = len(weak)
    best = -1.0
    for subset in itertools.combinations(range(n), k):
        routed = set(subset)
        hits = sum(
            1 for i in range(n) if (strong[i] if i in routed else weak[i])
        )
        best = max(best, hits / n)
    return best


# --- calibrate_threshold -----------------------------------------------------


def test_budget_zero_routes_nothing():
    assert calibrate_threshold([1.0, 2.0], 0.0) == math.inf


def test_budget_one_routes_everything():
    t = calibrate_threshold([1.0, 2.0, 3.0], 1.0)
    assert t < 1.0
    assert all(s > t for s in [1.0, 2.0, 3.0])


def test_quartet_half_budget():
    scores = [1.0, 2.0, 3.0, 4.0]
    t = calibrate_threshold(scores, 0.5)
    assert t == 2.0
    assert sum(1 for s in scores if s > t) == 2


def test_calibrated_fraction_is_largest_not_exceeding_budget():
    rng = random.Random(5)
    grid = [0.0, 0.5, 1.0, 1.5]
    for _ in range(200):
        n = rng.randint(1, 12)
        scores = [rng.choice(grid) for _ in range(n)]
        budget = rng.choice([0.0, 0.2, 0.25, 0.5, 0.75, 1.0])
        t = calibrate_threshold(scores, budget)
        frac = sum(1 for s in scores if s > t) / n
        assert frac <= budget + 1e-12
        # no achievable threshold routes a larger fraction still within budget
        for candidate in set(scores) | {-math.inf}:
            cand_frac = sum(1 for s in scores if s > candidate) / n
            if cand_frac <= budget + 1e-12:
                assert cand_frac <= frac + 1e-12


def test_empty_scores_raise():
    with pytest.raises(DegenerateInputError):
        calibrate_threshold([], 0.5)


@pytest.mark.parametrize("budget", [-0.1, 1.5, math.nan])
def test_budget_outside_unit_interval_raises(budget):
    with pytest.raises(ValueError, match=r"budget must be in \[0, 1\]"):
        calibrate_threshold([1.0, 2.0], budget)


# --- route_batch ---------------------------------------------------------------


@pytest.mark.parametrize("policy", [RoutePolicy("log_cmp", threshold=0.5),
                                    RoutePolicy("log_cmp", budget=0.5)])
def test_empty_batch_raises(policy):
    with pytest.raises(DegenerateInputError, match="empty batch"):
        route_batch(policy, [], {}, {})


def test_threshold_infinity_serves_weak():
    records = make_records([1, 2, 3], weak=[True, False, True], strong=[True] * 3)
    policy = RoutePolicy("log_cmp", threshold=math.inf)
    result = route_batch(policy, records, answers_for(records, "w"), answers_for(records, "s"))
    assert result.routed_fraction == 0.0
    assert result.routed_accuracy == pytest.approx(2 / 3)
    assert all(d.served_answer.startswith("w-") for d in result.decisions)


def test_threshold_below_min_serves_strong():
    records = make_records([1, 2, 3], weak=[False, False, False], strong=[True, True, False])
    policy = RoutePolicy("log_cmp", threshold=-math.inf)
    result = route_batch(policy, records, answers_for(records, "w"), answers_for(records, "s"))
    assert result.routed_fraction == 1.0
    assert result.routed_accuracy == pytest.approx(2 / 3)
    assert all(d.served_answer.startswith("s-") for d in result.decisions)


def test_threshold_ties_not_routed():
    records = make_records([2.0, 2.0, 3.0], weak=[True, True, True], strong=[True] * 3)
    policy = RoutePolicy("log_cmp", threshold=2.0)
    result = route_batch(policy, records, answers_for(records, "w"), answers_for(records, "s"))
    assert result.routed_fraction == pytest.approx(1 / 3)


def test_oracle_signal_achieves_best_accuracy_at_budget():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 10)
        weak = [rng.random() < 0.5 for _ in range(n)]
        strong = [rng.random() < 0.7 for _ in range(n)]
        n_wrong = sum(1 for w in weak if not w)
        if n_wrong == 0:
            continue
        records = make_records(
            [0.0 if w else 1.0 for w in weak], weak=weak, strong=strong
        )
        policy = RoutePolicy("log_cmp", threshold=0.5)
        result = route_batch(
            policy, records, answers_for(records, "w"), answers_for(records, "s")
        )
        assert result.routed_fraction == pytest.approx(n_wrong / n)
        assert result.routed_accuracy == pytest.approx(
            brute_best_accuracy_at_budget(weak, strong, n_wrong)
        )


def test_missing_signal_raises():
    records = [SignalRecord("a", log_cmp=None, generator_correct=True)]
    policy = RoutePolicy("log_cmp", threshold=0.0)
    with pytest.raises(CapabilityError):
        route_batch(policy, records, {"a": "w"}, {"a": "s"})


def test_instances_without_signal_keep_weak_answer():
    records = make_records([5, 4, 3, 2], weak=[False, True, True, True])
    records.insert(1, SignalRecord("i99", log_cmp=None, generator_correct=False))
    policy = RoutePolicy("log_cmp", budget=0.5)
    routed = route_batch(policy, records, answers_for(records, "w"), answers_for(records, "s"))
    # k = floor(0.5 * 4 carrying the signal) = 2
    assert [d.instance_id for d in routed.decisions if d.routed_to_strong] == ["i00", "i01"]
    missing = next(d for d in routed.decisions if d.instance_id == "i99")
    assert (missing.routed_to_strong, missing.signal_value, missing.served_answer) == (
        False, None, "w-i99")
    assert routed.routed_fraction == 2 / 5
    abstained = abstain_batch(policy, records, answers_for(records, "w"))
    assert [d.routed_to_strong for d in abstained.decisions] == [
        d.routed_to_strong for d in routed.decisions]
    assert abstained.retained_accuracy == 2 / 3


def test_route_accuracy_absent_without_labels():
    records = make_records([1, 2], weak=[True, False])
    policy = RoutePolicy("log_cmp", budget=0.5)
    result = route_batch(policy, records, answers_for(records, "w"), answers_for(records, "s"))
    assert result.routed_accuracy is None


def test_route_batch_matches_pgr_curve_at_integer_budgets():
    rng = random.Random(17)
    grid = [0.0, 1.0, 2.0]
    for _ in range(40):
        n = rng.randint(2, 12)
        weak = [rng.random() < 0.5 for _ in range(n)]
        strong = [rng.random() < 0.8 for _ in range(n)]
        scores = [rng.choice(grid) for _ in range(n)]
        records = make_records(scores, weak=weak, strong=strong)
        items = [
            LabeledScore(r.instance_id, r.log_cmp, r.generator_correct, r.verifier_correct)
            for r in records
        ]
        curve = pgr_curve(items, gap_floor=1.1)  # force-exclude, points still exact
        weak_ans, strong_ans = answers_for(records, "w"), answers_for(records, "s")
        for k in range(n + 1):
            policy = RoutePolicy("log_cmp", budget=k / n)
            result = route_batch(policy, records, weak_ans, strong_ans)
            assert result.routed_fraction == k / n
            assert result.routed_accuracy == curve.points[k][1]


def test_monotone_cost_in_threshold():
    records = make_records([0.1, 0.5, 0.5, 0.9], weak=[True] * 4, strong=[True] * 4)
    weak_ans, strong_ans = answers_for(records, "w"), answers_for(records, "s")
    fractions = []
    for t in [-1.0, 0.1, 0.5, 0.9, 2.0]:
        policy = RoutePolicy("log_cmp", threshold=t)
        fractions.append(route_batch(policy, records, weak_ans, strong_ans).routed_fraction)
    assert fractions == sorted(fractions, reverse=True)


# --- abstain_batch -----------------------------------------------------------------


@pytest.mark.parametrize("batch, answers, missing", [
    (abstain_batch, [{"i00": "w", "i01": "w"}], "i02"),
    (route_batch, [{"i01": "w", "i02": "w"}, {"i01": "s"}], "i00"),
    (route_batch, [{"i00": "w", "i01": "w"}, {"i00": "s"}], "i02"),
], ids=["abstain_kept_weak", "route_flagged_strong", "route_kept_weak"])
def test_missing_answer_is_data_error(batch, answers, missing):
    records = make_records([3, 2, 1], weak=[False, True, True])
    policy = RoutePolicy("log_cmp", budget=1 / 3)  # flags i00 only
    with pytest.raises(DataError, match=f"^no answer on file for instance {missing}$"):
        batch(policy, records, *answers)


def test_abstain_serves_no_answer_to_flagged_instances():
    records = make_records([3, 2, 1], weak=[False, True, True])
    policy = RoutePolicy("log_cmp", budget=1 / 3)  # abstains on i00 only
    served = abstain_batch(policy, records, {"i01": "w", "i02": "w"})
    assert [d.served_answer for d in served.decisions] == ["", "w", "w"]
    unserved = abstain_batch(policy, records)
    assert [d.served_answer for d in unserved.decisions] == ["", "", ""]


def test_abstain_perfect_signal_polishes_accuracy():
    # 10 items, 80% accurate; the two wrong ones carry the highest scores
    weak = [True] * 8 + [False, False]
    scores = list(range(8)) + [50, 60]
    records = make_records(scores, weak=weak)
    policy = RoutePolicy("log_cmp", budget=0.2)
    result = abstain_batch(policy, records)
    assert result.abstained_fraction == pytest.approx(0.2)
    assert result.retained_accuracy == 1.0


def test_abstain_budget_zero_retains_all():
    records = make_records([1, 2, 3, 4], weak=[True, False, True, True])
    policy = RoutePolicy("log_cmp", budget=0.0)
    result = abstain_batch(policy, records)
    assert result.abstained_fraction == 0.0
    assert result.retained_accuracy == pytest.approx(0.75)


def test_abstain_matches_coverage_point():
    scores = [0.3, 0.1, 0.9, 0.5, 0.2]
    weak = [True, True, False, False, True]
    records = make_records(scores, weak=weak, ids=list("abcde"))
    items = [LabeledScore(r.instance_id, r.log_cmp, r.generator_correct) for r in records]
    curve = coverage_accuracy(items)
    policy = RoutePolicy("log_cmp", budget=0.2)  # coverage 0.8
    result = abstain_batch(policy, records)
    point = next(p for p in curve.points if p[0] == pytest.approx(0.8))
    assert result.retained_accuracy == point[1]


def test_abstain_coverage_duality_with_ties():
    rng = random.Random(31)
    grid = [0.0, 1.0]
    for _ in range(40):
        n = rng.randint(1, 10)
        weak = [rng.random() < 0.5 for _ in range(n)]
        scores = [rng.choice(grid) for _ in range(n)]
        records = make_records(scores, weak=weak)
        items = [LabeledScore(r.instance_id, r.log_cmp, r.generator_correct) for r in records]
        curve = coverage_accuracy(items)
        for k in range(n):  # abstain k, retain n - k >= 1
            policy = RoutePolicy("log_cmp", budget=k / n)
            result = abstain_batch(policy, records)
            retained_ids = {
                d.instance_id for d in result.decisions if not d.routed_to_strong
            }
            assert len(retained_ids) == n - k
            assert result.retained_accuracy == curve.points[n - k - 1][1]


# --- policy -------------------------------------------------------------------------


def test_policy_requires_exactly_one_of_threshold_budget():
    with pytest.raises(ValueError):
        RoutePolicy("log_cmp")
    with pytest.raises(ValueError):
        RoutePolicy("log_cmp", threshold=1.0, budget=0.5)


def test_policy_rejects_nan_threshold():
    with pytest.raises(ValueError):
        RoutePolicy("log_cmp", threshold=math.nan)
