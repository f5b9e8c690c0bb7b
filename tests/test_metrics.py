import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from crossmodel.errors import DataError, DegenerateInputError, UndefinedMetricError
from crossmodel.metrics import (
    LabeledScore,
    auroc,
    case_means,
    coverage_accuracy,
    midranks,
    pgr_curve,
    quintile_spread,
    spearman,
    trapezoid,
    weak_generator_guard,
)
from crossmodel import metrics
from crossmodel.metrics import _pearson, canonical_order
from crossmodel.signals import SignalRecord


# --- independent oracles ---------------------------------------------------------


def brute_auroc(items):
    pos = [it.score for it in items if not it.weak_correct]
    neg = [it.score for it in items if it.weak_correct]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_apgr_raw(items):
    """Exhaustive enumeration over all n+1 thresholds, each accuracy
    recomputed from scratch."""
    order = sorted(items, key=lambda it: (-it.score, it.instance_id))
    n = len(order)
    accs = []
    for k in range(n + 1):
        hits = 0
        for i, it in enumerate(order):
            hits += 1 if (it.strong_correct if i < k else it.weak_correct) else 0
        accs.append(hits / n)
    a_w, a_s = accs[0], accs[-1]
    gap = a_s - a_w
    pgr = [(a - a_w) / gap for a in accs]
    total = 0.0
    for k in range(n):
        total += (pgr[k] + pgr[k + 1]) / 2 * (1 / n)
    return total


def brute_coverage_points(items):
    """Coverage curve by explicit threshold enumeration on the ascending
    canonical order."""
    ascending = list(reversed(sorted(items, key=lambda it: (-it.score, it.instance_id))))
    n = len(ascending)
    points = []
    for k in range(1, n + 1):
        retained = ascending[:k]
        points.append((k / n, sum(1 for it in retained if it.weak_correct) / k))
    return points


def oracle_rescored(items):
    """Items rescored so that exactly the weak-incorrect ones rank first:
    pgr_curve's own oracle order."""
    return [
        LabeledScore(it.instance_id, 0.0 if it.weak_correct else 1.0,
                     it.weak_correct, it.strong_correct)
        for it in items
    ]


def linear_gap_items(n):
    """n items the weak model gets wrong and the strong one right, so that
    routing k of them recovers k/n of the gap: PGR(c) = c."""
    return [LabeledScore(f"i{k:03d}", float(k), False, True) for k in range(n)]


def ranked_ids(items):
    """Instance ids in the canonical suspicion order."""
    ids = [it.instance_id for it in items]
    return [ids[i] for i in canonical_order(ids, [it.score for it in items])]


def make_items(scores, weak, strong=None, ids=None):
    n = len(scores)
    ids = ids or [f"i{j:02d}" for j in range(n)]
    strong = strong or [None] * n
    return [
        LabeledScore(ids[j], float(scores[j]), bool(weak[j]),
                     None if strong[j] is None else bool(strong[j]))
        for j in range(n)
    ]


def random_labeled(rng, n, with_strong=False, grid=(0.0, 0.25, 0.5, 0.75, 1.0),
                   require_both=True):
    while True:
        weak = [rng.random() < 0.5 for _ in range(n)]
        if not require_both or (any(weak) and not all(weak)):
            break
    strong = [rng.random() < 0.8 for _ in range(n)] if with_strong else [None] * n
    scores = [rng.choice(grid) for _ in range(n)]
    return make_items(scores, weak, strong)


# --- AUROC ------------------------------------------------------------------------


def test_auroc_perfect_separation():
    items = make_items([0.9, 0.8, 0.1, 0.2], weak=[False, False, True, True])
    assert auroc(items) == 1.0


def test_auroc_all_tied_is_half():
    items = make_items([0.3] * 6, weak=[True, False, True, False, True, False])
    assert auroc(items) == 0.5


def test_auroc_hand_case():
    # incorrect: 0.9, 0.4; correct: 0.2, 0.8 -> 3 of 4 pairs concordant
    items = make_items([0.9, 0.2, 0.8, 0.4], weak=[False, True, True, False])
    assert auroc(items) == 0.75
    assert brute_auroc(items) == 0.75


def test_auroc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auroc(make_items([0.1, 0.2], weak=[True, True]))


def test_auroc_matches_brute_force_exactly_bulk():
    rng = random.Random(7)
    for _ in range(300):
        items = random_labeled(rng, rng.randint(2, 12))
        assert auroc(items) == brute_auroc(items)


def test_auroc_complement_symmetry():
    rng = random.Random(19)
    for _ in range(200):
        items = random_labeled(rng, rng.randint(2, 12))
        negated = [
            LabeledScore(it.instance_id, -it.score, it.weak_correct) for it in items
        ]
        # equality up to one rounding of the final division
        assert auroc(negated) == pytest.approx(1.0 - auroc(items), abs=1e-12)


def test_midranks_average_ties():
    assert midranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_columns_reject_nonfinite_scores(bad):
    with pytest.raises(ValueError):
        metrics.columns(["a", "b"], [0.5, bad], [True, False])


# --- PGR / APGR ----------------------------------------------------------------


def test_pgr_points_follow_definition():
    rng = random.Random(3)
    items = random_labeled(rng, 8, with_strong=True)
    curve = pgr_curve(items, gap_floor=0.0) if brute_gap(items) != 0 else None
    if curve is None:
        pytest.skip("degenerate draw")
    for c, a, pgr in curve.points:
        assert pgr == pytest.approx((a - curve.a_w) / (curve.a_s - curve.a_w), abs=1e-12)
    assert curve.points[0][1] == curve.a_w
    assert curve.points[-1][1] == curve.a_s


def brute_gap(items):
    n = len(items)
    a_w = sum(1 for it in items if it.weak_correct) / n
    a_s = sum(1 for it in items if it.strong_correct) / n
    return a_s - a_w


def test_pgr_arithmetic_example():
    # a_w = 0.4, a_s = 0.8; any point with a(c) = 0.6 has PGR 0.5.
    # Routing c (weak-wrong, strong-right) and a (right either way) first
    # lifts accuracy by exactly one hit at c = 2/5.
    items = make_items(
        [4, 3, 5, 2, 1],
        weak=[True, True, False, False, False],
        strong=[True, True, True, True, False],
        ids=["a", "b", "c", "d", "e"],
    )
    curve = pgr_curve(items)
    assert curve.a_w == pytest.approx(0.4)
    assert curve.a_s == pytest.approx(0.8)
    point = next(p for p in curve.points if p[0] == pytest.approx(2 / 5))
    assert point[1] == pytest.approx(0.6)
    assert point[2] == pytest.approx(0.5)


def test_oracle_order_gives_normalized_one():
    rng = random.Random(11)
    for _ in range(20):
        items = random_labeled(rng, rng.randint(4, 12), with_strong=True)
        if abs(brute_gap(items)) < 0.05:
            continue
        curve = pgr_curve(oracle_rescored(items))
        assert curve.apgr_normalized == pytest.approx(1.0, abs=1e-9)


def test_apgr_matches_exhaustive_enumeration():
    rng = random.Random(13)
    checked = 0
    while checked < 50:
        items = random_labeled(rng, rng.randint(2, 10), with_strong=True)
        if brute_gap(items) == 0:
            continue
        curve = pgr_curve(items, gap_floor=0.0)
        assert curve.apgr_raw == pytest.approx(brute_apgr_raw(items), abs=1e-12)
        checked += 1


def test_small_gap_pair_flagged_excluded():
    items = make_items(
        [4, 3, 2, 1],
        weak=[True, False, True, False],
        strong=[True, False, True, True],
    )
    # gap = 0.75 - 0.5 = 0.25 -> included at default floor
    assert pgr_curve(items).excluded is False
    # raise the floor above the gap -> excluded, values still reported
    curve = pgr_curve(items, gap_floor=0.3)
    assert curve.excluded is True
    assert math.isfinite(curve.apgr_raw)


def test_zero_gap_with_floor_disabled_raises():
    items = make_items([1, 2, 3, 4], weak=[True, False, True, False],
                       strong=[True, False, True, False])
    with pytest.raises(UndefinedMetricError):
        pgr_curve(items, gap_floor=0.0)


def test_zero_gap_with_floor_enabled_is_excluded_nan():
    items = make_items([1, 2, 3, 4], weak=[True, False, True, False],
                       strong=[True, False, True, False])
    curve = pgr_curve(items)
    assert curve.excluded is True
    assert math.isnan(curve.apgr_raw)


def test_missing_strong_labels_raise():
    items = make_items([1, 2], weak=[True, False])
    with pytest.raises(DataError):
        pgr_curve(items)


def test_linear_curve_raw_is_half():
    n = 200
    curve = pgr_curve(linear_gap_items(n))
    assert [(c, pgr) for c, _, pgr in curve.points] == [(k / n, k / n) for k in range(n + 1)]
    assert curve.apgr_raw == pytest.approx(0.5, abs=1e-9)


def test_trapezoid_linear_exact():
    assert trapezoid([0.0, 0.5, 1.0], [0.0, 1.0, 2.0]) == pytest.approx(1.0)


# --- coverage-accuracy ------------------------------------------------------------


def test_perfect_signal_coverage_curve():
    # 6 items, half incorrect with the highest scores
    items = make_items([1, 2, 3, 10, 11, 12],
                       weak=[True, True, True, False, False, False])
    curve = coverage_accuracy(items)
    for cov, acc in curve.points:
        if cov <= 0.5:
            assert acc == 1.0
    assert curve.points[-1] == (1.0, 0.5)


def test_constant_score_coverage_anchor():
    items = make_items([5] * 4, weak=[True, False, True, True])
    curve = coverage_accuracy(items)
    assert curve.points[-1][0] == 1.0
    assert curve.points[-1][1] == 0.75


def test_coverage_hand_case_matches_enumeration():
    items = make_items([0.3, 0.1, 0.9, 0.5, 0.1],
                       weak=[True, True, False, False, True],
                       ids=["a", "b", "c", "d", "e"])
    curve = coverage_accuracy(items)
    assert list(curve.points) == brute_coverage_points(items)


def test_coverage_last_point_is_weak_accuracy():
    rng = random.Random(29)
    for _ in range(100):
        items = random_labeled(rng, rng.randint(1, 15), require_both=False)
        curve = coverage_accuracy(items)
        overall = sum(1 for it in items if it.weak_correct) / len(items)
        assert curve.points[-1][0] == 1.0
        assert curve.points[-1][1] == overall


# --- quintiles ----------------------------------------------------------------------


def test_quintiles_perfect_signal_balanced():
    items = make_items(list(range(10)), weak=[True] * 5 + [False] * 5)
    accs, spread = quintile_spread(items)
    assert accs == [1.0, 1.0, 0.5, 0.0, 0.0]
    assert spread == 1.0


def test_quintiles_uniform_labels_zero_spread():
    items = make_items([3] * 8, weak=[True] * 8)
    accs, spread = quintile_spread(items)
    assert spread == 0.0


def test_quintiles_sizes_differ_by_at_most_one():
    items = make_items(list(range(12)), weak=[True] * 12)
    accs, _ = quintile_spread(items)
    assert len(accs) == 5  # sizes [3, 3, 2, 2, 2] all valid


def test_quintiles_require_five_items():
    with pytest.raises(DegenerateInputError):
        quintile_spread(make_items([1, 2, 3, 4], weak=[True] * 4))


# --- case means ----------------------------------------------------------------------


def rec(iid, log_cmp, gen_ok, ver_ok):
    return SignalRecord(iid, log_cmp=log_cmp, generator_correct=gen_ok,
                        verifier_correct=ver_ok)


def test_case_means_all_both_correct_flags_empty_cells():
    records = [rec(f"i{k}", 1.0, True, True) for k in range(4)]
    cm = case_means(records, "log_cmp")
    assert cm.both_correct.n == 4
    assert cm.gen_only_wrong.n == 0 and cm.gen_only_wrong.mean_score is None
    assert cm.ver_only_wrong.n == 0
    assert cm.both_wrong.n == 0


def test_case_means_gen_only_wrong_spike():
    records = [
        rec("a", 10.0, False, True),
        rec("b", 10.0, False, True),
        rec("c", 1.0, True, True),
        rec("d", 1.0, False, False),
        rec("e", 1.0, True, False),
    ]
    cm = case_means(records, "log_cmp")
    assert cm.gen_only_wrong.mean_score == 10.0
    assert cm.gen_only_wrong.n == 2
    assert cm.both_correct.mean_score == 1.0
    assert cm.ver_only_wrong.n == 1
    assert cm.both_wrong.n == 1


def test_case_means_counts_sum_to_total():
    records = [
        rec("a", 1.0, True, True), rec("b", 2.0, False, True),
        rec("c", 3.0, True, False), rec("d", 4.0, False, False),
        rec("e", 5.0, False, True),
    ]
    cm = case_means(records, "log_cmp")
    total = cm.both_correct.n + cm.gen_only_wrong.n + cm.ver_only_wrong.n + cm.both_wrong.n
    assert total == len(records)


def test_case_means_missing_labels_raise():
    with pytest.raises(DataError):
        case_means([rec("a", 1.0, True, None)], "log_cmp")


# --- spearman ------------------------------------------------------------------------


def test_spearman_identity():
    result = spearman([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert result.rho == pytest.approx(1.0)
    assert result.method == "exact_permutation"
    assert result.p_value == pytest.approx(2 / 120)


def test_spearman_reversal():
    result = spearman([1.0, 2.0, 3.0, 4.0], [9.0, 7.0, 5.0, 3.0])
    assert result.rho == pytest.approx(-1.0)


def test_spearman_hand_case_matches_formula():
    xs = [10.0, 20.0, 30.0, 40.0, 50.0]
    ys = [3.0, 1.0, 4.0, 2.0, 5.0]
    # d = rank(x) - rank(y): sum d^2 = 10 -> rho = 1 - 60/120 = 0.5
    result = spearman(xs, ys)
    assert result.rho == pytest.approx(1 - 6 * 10 / (5 * 24))


def test_spearman_large_n_uses_t_approximation():
    xs = [float(i) for i in range(12)]
    ys = [float((i * 7) % 12) for i in range(12)]
    result = spearman(xs, ys)
    assert result.method == "t_approximation"
    assert result.rho == pytest.approx(35 / 143, rel=1e-15)
    assert result.p_value == pytest.approx(0.44326193645018325, rel=1e-10)


# (nu, rho, p): p = 2 * scipy.stats.t.sf(|t|, nu) with t = rho * sqrt(nu / (1 - rho * rho)),
# computed with scipy 1.17.1 and written down, so that the tests need no scipy.
T_TAIL_REFERENCE = [
    (7, 0.0, 1.0),
    (7, 0.3, 0.4328453267094823),
    (7, -0.3, 0.4328453267094823),
    (7, 1e-14, 0.9999999999999797),
    (7, 0.999999999999999, 1.0382970819561646e-52),
    (7, -0.999999999999999, 1.0382970819561646e-52),
    (8, -0.75, 0.012477874755859368),
    (10, 0.5, 0.0978546142578125),
    (20, -0.99999999999999, 1.7898885381303797e-138),
    (30, -1e-06, 0.9999956660665572),
    (30, 0.99, 4.4324799411871804e-27),
    (100, 0.2, 0.043860884260170395),
    (298, -0.01, 0.8630552164993778),
    (300, 0.9, 3.3226032123079197e-110),
    (1000, 0.25, 9.621766805185049e-16),
    (2000, 1e-14, 0.9999999999996432),
    (2000, -0.001, 0.9643338549334528),
    (2000, 0.5, 4.102190179625531e-127),
    (2000, -0.5, 4.102190179625531e-127),
    (20000, -0.1, 1.262530955549922e-45),
]


@pytest.mark.parametrize("nu, rho, p", T_TAIL_REFERENCE)
def test_t_tail_matches_reference_values(nu, rho, p):
    assert metrics._t_two_sided(nu, rho * rho) == pytest.approx(p, rel=1e-10, abs=0)


def spearman_permutation_loop(xs, ys):
    """(rho, p) of the exact test, one _pearson call per permutation."""
    rx, ry = midranks(xs), midranks(ys)
    rho = _pearson(rx, ry)
    threshold = abs(rho) - 1e-12
    hits = 0
    total = 0
    for perm in itertools.permutations(ry):
        total += 1
        if abs(_pearson(rx, perm)) >= threshold:
            hits += 1
    return rho, hits / total


def test_exact_spearman_matches_permutation_loop(monkeypatch):
    rng = random.Random(8)
    cases = []
    for n in [3, 4, 5, 6, 7] * 8 + [8, 8]:
        xs = ys = [0.0]
        while len(set(xs)) < 2 or len(set(ys)) < 2:
            xs = [float(rng.randint(0, 3)) for _ in range(n)]
            ys = [float(rng.randint(0, 3)) for _ in range(n)]
        cases.append((xs, ys))
    calls = []
    monkeypatch.setattr(metrics, "_pearson", lambda a, b: calls.append(1) or _pearson(a, b))
    for xs, ys in cases:
        result = spearman(xs, ys)
        assert result.method == "exact_permutation"
        assert (result.rho, result.p_value) == spearman_permutation_loop(xs, ys)
    assert len(calls) == len(cases)  # one for rho; the permutations are one array product


def test_spearman_constant_vector_raises():
    with pytest.raises(UndefinedMetricError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_short_input_raises():
    with pytest.raises(DegenerateInputError):
        spearman([1.0, 2.0], [1.0, 2.0])


# --- guard ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "accuracy,expected",
    [(0.04, "warn"), (0.25, "ok"), (0.10, "ok"), (0.0999, "warn"), (0.0, "warn"), (1.0, "ok")],
)
def test_weak_generator_guard(accuracy, expected):
    assert weak_generator_guard(accuracy) == expected


# --- input-order invariance ---------------------------------------------------------


def test_metrics_independent_of_input_order():
    rng = random.Random(37)
    for _ in range(25):
        items = random_labeled(rng, rng.randint(5, 12), with_strong=True)
        if brute_gap(items) == 0:
            continue
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert auroc(items) == auroc(shuffled)
        assert pgr_curve(items, 0.0) == pgr_curve(shuffled, 0.0)
        assert coverage_accuracy(items) == coverage_accuracy(shuffled)
        assert quintile_spread(items) == quintile_spread(shuffled)


# --- monotone-transform invariance -----------------------------------------------------


def test_exp_transform_preserves_rank_metrics():
    rng = random.Random(23)
    for _ in range(25):
        items = random_labeled(rng, rng.randint(5, 12), with_strong=True)
        if brute_gap(items) == 0:
            continue
        transformed = [
            LabeledScore(it.instance_id, math.exp(it.score), it.weak_correct, it.strong_correct)
            for it in items
        ]
        assert auroc(items) == auroc(transformed)
        c1, c2 = pgr_curve(items, 0.0), pgr_curve(transformed, 0.0)
        assert c1.apgr_raw == c2.apgr_raw
        assert quintile_spread(items) == quintile_spread(transformed)
        assert coverage_accuracy(items) == coverage_accuracy(transformed)
        assert ranked_ids(items) == ranked_ids(transformed)


# --- the canonical order -----------------------------------------------------------------


@given(st.lists(
    st.tuples(st.text(min_size=1), st.sampled_from([2.0, 0.5, 0.0, -0.0, -1.0])),
    unique_by=lambda pair: pair[0],
))
@example([("a\x00", 0.0), ("a", -0.0), ("b", 0.5)])
def test_canonical_order_is_score_descending_then_id(pairs):
    ids = [iid for iid, _ in pairs]
    scores = [score for _, score in pairs]
    expected = sorted(range(len(pairs)), key=lambda i: (-scores[i], ids[i]))
    assert canonical_order(ids, scores).tolist() == expected
