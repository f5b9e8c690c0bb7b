"""Threshold-free and routing-based evaluation of scalar signals.

Every function takes scores oriented so that HIGHER means MORE
SUSPICIOUS (more likely incorrect). The positive class for AUROC is
"weak model incorrect".

A single canonical ordering underlies everything rank-based: items
sorted by score descending with ties broken by instance_id ascending
("route the most suspicious first"), computed only by `canonical_order`,
which budget routing shares. Ascending orderings (coverage retention,
quintiles) are the exact reversal, which makes routing, abstention, and
coverage curves mutually consistent at every budget.

The ranked metrics (auroc, pgr_curve, coverage_accuracy, quintile_spread)
each have one implementation over an array form of the items, built by
`columns`; a LabeledScore sequence is converted to it once on entry.
`case_means` reads `SignalColumns` the same way, converting a SignalRecord
sequence once, and averages over boolean masks of the label columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateInputError, UndefinedMetricError
from .signals import CellStat, SignalColumns, Signals


@dataclass(frozen=True)
class LabeledScore:
    """One instance's suspicion score plus correctness labels.

    strong_correct is only needed for routing metrics.
    """

    instance_id: str
    score: float
    weak_correct: bool
    strong_correct: bool | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


@dataclass(frozen=True)
class RoutingCurve:
    points: tuple[tuple[float, float, float], ...]  # (c, a_c, pgr_c)
    a_w: float
    a_s: float
    apgr_raw: float
    apgr_normalized: float
    excluded: bool
    excluded_reason: str | None = None


@dataclass(frozen=True)
class CoverageAccuracyCurve:
    points: tuple[tuple[float, float], ...]  # (coverage, accuracy)
    auc: float


@dataclass(frozen=True)
class CaseMeans:
    both_correct: CellStat
    gen_only_wrong: CellStat
    ver_only_wrong: CellStat
    both_wrong: CellStat


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    p_value: float
    n: int
    method: str


def canonical_order(ids: Sequence[str], scores: Sequence[float]) -> np.ndarray:
    """Indices in canonical suspicion order: score descending, then id
    ascending. Ids stay dtype=object, since a str array drops trailing NULs."""
    return np.lexsort((np.asarray(ids, dtype=object), -np.asarray(scores, dtype=float)))


@dataclass(frozen=True)
class _Columns:
    """Scored items as arrays: the one form every ranked metric reads.

    strong is None unless every item carries a strong label; order is the
    canonical suspicion order, computed once.
    """

    ids: np.ndarray  # dtype=object
    scores: np.ndarray
    weak: np.ndarray
    strong: np.ndarray | None
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def columns(
    ids: Sequence[str],
    scores: Sequence[float],
    weak: Sequence[bool],
    strong: Sequence[bool | None] | None = None,
) -> _Columns:
    """The array form of scored items, which every metric below accepts in
    place of a LabeledScore sequence. Strong labels are kept only when
    every item has one."""
    ids_arr = np.asarray(ids, dtype=object)
    scores_arr = np.asarray(scores, dtype=float)
    if not np.isfinite(scores_arr).all():
        raise ValueError("scores must be finite")
    return _Columns(
        ids_arr,
        scores_arr,
        np.asarray(weak, dtype=bool),
        None if strong is None or None in strong else np.asarray(strong, dtype=bool),
        canonical_order(ids_arr, scores_arr),
    )


Scored = Sequence[LabeledScore] | _Columns


def _as_columns(items: Scored) -> _Columns:
    """The boundary: a LabeledScore sequence converts once, columns pass through."""
    if isinstance(items, _Columns):
        return items
    return columns(
        [it.instance_id for it in items],
        [it.score for it in items],
        [it.weak_correct for it in items],
        [it.strong_correct for it in items],
    )


def _prefix_sums(flags: np.ndarray) -> np.ndarray:
    """Counts of True among the first k flags, k = 0..len(flags)."""
    return np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))


def _midranks(values: Sequence[float]) -> np.ndarray:
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return ((2 * np.cumsum(counts) - counts + 1) / 2)[inverse]


def midranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties assigned the midrank of their run.

    Midranks of a run spanning positions a..b (1-based) equal (a + b) / 2,
    which is always an exact multiple of 0.5 in floating point.
    """
    return _midranks(values).tolist()


def auroc(items: Scored) -> float:
    """Area under the ROC curve for predicting weak-model incorrectness.

    Computed as the Mann-Whitney statistic with midrank tie handling,
    i.e. P(score_incorrect > score_correct) + 0.5 P(equal).
    """
    cols = _as_columns(items)
    positives = ~cols.weak
    n_pos = int(np.count_nonzero(positives))
    n_neg = len(cols) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC undefined: {n_pos} incorrect vs {n_neg} correct instances"
        )
    # Midranks are multiples of 1/2, so the sum is exact in any order.
    rank_sum = float(_midranks(cols.scores)[positives].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def trapezoid(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Trapezoidal integral of ys over xs, terms summed left to right
    (np.sum's pairwise order would change the last bits)."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    terms = (y[:-1] + y[1:]) / 2 * (x[1:] - x[:-1])
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def _routed_accuracies(cols: _Columns, order: np.ndarray) -> np.ndarray:
    """a(k/n) for k = 0..n when the first k items of `order` are routed."""
    weak = cols.weak[order]
    kept = np.count_nonzero(weak) - _prefix_sums(weak)
    return (_prefix_sums(cols.strong[order]) + kept) / len(weak)


def pgr_curve(items: Scored, gap_floor: float = 0.05) -> RoutingCurve:
    """Routing curve over all integer budgets, with both APGR conventions.

    apgr_raw averages PGR(c) over c (random ordering scores ~0.5);
    apgr_normalized rescales so random scores 0 and oracle routing
    (weak-incorrect items first) scores 1. Pairs whose accuracy gap is
    below gap_floor are flagged excluded; with the floor disabled a zero
    gap raises instead of dividing by it.
    """
    cols = _as_columns(items)
    n = len(cols)
    if n < 2:
        raise DegenerateInputError("routing curve requires at least 2 items")
    if cols.strong is None:
        raise DataError("strong_correct required on every item for routing metrics")
    accs = _routed_accuracies(cols, cols.order)
    cs = np.arange(n + 1) / n
    a_w, a_s = float(accs[0]), float(accs[-1])
    gap = a_s - a_w
    excluded = abs(gap) < gap_floor
    if gap == 0.0:
        if not excluded:
            raise UndefinedMetricError("zero accuracy gap with exclusion disabled")
        nan = float("nan")
        points = tuple((c, a, nan) for c, a in zip(cs.tolist(), accs.tolist()))
        return RoutingCurve(points, a_w, a_s, nan, nan, True, "zero accuracy gap")

    pgrs = (accs - a_w) / gap
    raw = trapezoid(cs, pgrs)

    # Oracle routing: weak-incorrect items first, ties by id.
    oracle_accs = _routed_accuracies(cols, np.lexsort((cols.ids, cols.weak)))
    oracle_raw = trapezoid(cs, (oracle_accs - a_w) / gap)
    if abs(oracle_raw - 0.5) < 1e-15:
        normalized = float("nan")
        reason = "oracle routing no better than random"
        excluded = True
    else:
        normalized = (raw - 0.5) / (oracle_raw - 0.5)
        reason = f"accuracy gap {abs(gap):.4f} below floor {gap_floor}" if excluded else None
    points = tuple(zip(cs.tolist(), accs.tolist(), pgrs.tolist()))
    return RoutingCurve(points, a_w, a_s, raw, normalized, excluded, reason)


def _retained_correct(cols: _Columns) -> np.ndarray:
    """Weak-correct counts among the k least-suspicious items, k = 0..n."""
    return _prefix_sums(cols.weak[cols.order][::-1])


def coverage_accuracy(items: Scored) -> CoverageAccuracyCurve:
    """Weak-model accuracy on the k least-suspicious items, k = 1..n."""
    cols = _as_columns(items)
    n = len(cols)
    if n == 0:
        raise DegenerateInputError("coverage curve requires at least 1 item")
    k = np.arange(1, n + 1)
    coverage, accuracy = k / n, _retained_correct(cols)[1:] / k
    auc = trapezoid(coverage, accuracy) if n > 1 else 0.0
    return CoverageAccuracyCurve(tuple(zip(coverage.tolist(), accuracy.tolist())), auc)


def quintile_spread(items: Scored) -> tuple[list[float], float]:
    """Weak accuracy in 5 contiguous score bins (Q1 lowest) and Q1 - Q5.

    Bin sizes differ by at most one, with earlier bins taking extras.
    """
    cols = _as_columns(items)
    n = len(cols)
    if n < 5:
        raise DegenerateInputError(f"quintiles require n >= 5, got {n}")
    base, extra = divmod(n, 5)
    bounds = np.cumsum([0] + [base + (1 if b < extra else 0) for b in range(5)])
    accs = (np.diff(_retained_correct(cols)[bounds]) / np.diff(bounds)).tolist()
    return accs, accs[0] - accs[4]


def case_means(records: Signals, signal: str) -> CaseMeans:
    """Mean signal value in each (generator, verifier) outcome cell, over
    boolean masks of the columns; each cell is summed with sum().

    CMP-family signals are averaged in log space; exponentiate for
    display only.
    """
    cols = SignalColumns.of(records)
    if None in cols.generator_correct or None in cols.verifier_correct:
        at = next(i for i, labels in enumerate(zip(cols.generator_correct, cols.verifier_correct))
                  if None in labels)
        raise DataError(f"instance {cols.instance_id[at]}: missing correctness labels")
    gen = np.asarray(cols.generator_correct, dtype=bool)
    ver = np.asarray(cols.verifier_correct, dtype=bool)
    values = getattr(cols, signal)
    present = np.fromiter((value is not None for value in values), bool, len(values))

    def stat(cell: np.ndarray) -> CellStat:
        # sum() keeps an integer signal exact and adds left to right
        vals = list(itertools.compress(values, (cell & present).tolist()))
        return CellStat(sum(vals) / len(vals) if vals else None, int(np.count_nonzero(cell)))
    return CaseMeans(
        both_correct=stat(gen & ver),
        gen_only_wrong=stat(~gen & ver),
        ver_only_wrong=stat(gen & ~ver),
        both_wrong=stat(~gen & ~ver),
    )


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    ax, ay = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ax -= ax.mean()
    ay -= ay.mean()
    denom = math.sqrt(float(ax @ ax) * float(ay @ ay))
    return float(ax @ ay) / denom


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation with midrank ties.

    The p-value is an exact permutation test for n <= 8 and the usual
    t-approximation above that; the method used is recorded in the result.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("xs and ys must have equal length")
    if n < 3:
        raise DegenerateInputError(f"correlation requires n >= 3, got {n}")
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        raise UndefinedMetricError("correlation undefined for a constant vector")
    rx, ry = midranks(xs), midranks(ys)
    rho = _pearson(rx, ry)

    if n <= 8:
        # All permutations at once. Midranks are multiples of 1/2 with mean
        # (n + 1) / 2, so the sums are exact and each r equals _pearson's.
        cx = np.asarray(rx) - (n + 1) / 2
        cy = np.array(list(itertools.permutations(ry))) - (n + 1) / 2
        r = (cy @ cx) / math.sqrt(float(cx @ cx) * float(cy[0] @ cy[0]))
        hits = int(np.count_nonzero(np.abs(r) >= abs(rho) - 1e-12))
        return CorrelationResult(rho, hits / len(cy), n, "exact_permutation")

    if abs(rho) >= 1.0:
        return CorrelationResult(rho, 0.0, n, "t_approximation")
    return CorrelationResult(rho, _t_two_sided(n - 2, rho * rho), n, "t_approximation")


def _t_two_sided(nu: int, r2: float) -> float:
    """Two-sided Student-t tail, nu degrees of freedom, at the t of a
    correlation rho with rho**2 = r2 < 1: the regularized incomplete beta
    I_x(nu/2, 1/2) at x = 1 - r2, by Lentz's continued fraction (Numerical
    Recipes, 2nd ed., 6.4) on the side of I_x(a, b) = 1 - I_(1-x)(b, a)
    where it converges, which takes a few dozen terms for any nu."""
    a, b, x, y = nu / 2, 0.5, 1.0 - r2, r2
    flip = x >= (a + 1) / (a + b + 2)
    if flip:
        a, b, x, y = b, a, y, x
    tiny = 1e-300  # keeps a denominator that cancels to 0 finite
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1) or tiny)
    frac = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-15:
            break
    front = x ** a * y ** b * math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) / a
    return 1.0 - front * frac if flip else front * frac


def weak_generator_guard(weak_accuracy: float) -> str:
    """"warn" when the generator is too weak for disagreement signals to
    carry information (below 10% accuracy), else "ok". Advisory only."""
    if not 0.0 <= weak_accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {weak_accuracy}")
    return "warn" if weak_accuracy < 0.10 else "ok"
