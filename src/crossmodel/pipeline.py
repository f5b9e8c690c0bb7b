"""End-to-end orchestration: cached generation and scoring, per-instance
signal assembly, and per-pair evaluation reports.

Everything here is deterministic given the cache state and run
configuration; reports contain no timestamps so a fully cache-served
re-run reproduces them byte for byte. The evaluation functions import
metrics, and so numpy, where they run: generate and signals never need it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .backend import Backend, BackendConfig, build_backend, load_backend_config
from .backend.types import GeneratedAnswer
from .datasets import Instance, TaskPreset, get_preset, judge_generation, load_dataset
from .errors import (
    CapabilityError,
    ConfigError,
    CorruptEntryError,
    DataError,
    DegenerateInputError,
    UndefinedMetricError,
)
from .runstore import CacheKey, RunStore, digest_file, digest_text
# write_json is unused here: the per-layer benchmark times it as `pipeline.write_json`.
from .serialize import Record, canonical_json, to_dict, write_json  # noqa: F401
from .signals import (
    SIGNAL_FIELDS, CellStat, SignalRecord, final_answer_span, signal_columns, signal_vector,
)

TOOL_VERSION = "0.1.0"

DEFAULT_SIGNALS = ("log_cmp", "cme", "log_gppl", "g_ent", "log_cmp_final")

# Eval JSON keeps coverage points at this many evenly spaced retained counts;
# coverage_auc is still computed over every count.
COVERAGE_GRID = 100


@dataclass(frozen=True)
class RunConfig:
    dataset: Path
    preset: str
    generator: Path
    verifiers: tuple[Path, ...]
    signals: tuple[str, ...] = DEFAULT_SIGNALS
    limit: int | None = None
    seed: int = 0
    out_dir: Path = Path("runs")
    gap_floor: float = 0.05
    parallel: int = 1

    def __post_init__(self) -> None:
        unknown = set(self.signals) - set(SIGNAL_FIELDS)
        if unknown:
            raise ConfigError(f"unknown signals: {sorted(unknown)}")
        if self.parallel < 1:
            raise ConfigError("parallel must be >= 1")
        if self.limit is not None and self.limit < 0:
            raise ConfigError(f"limit must be >= 0, got {self.limit}")
        if not 0 <= self.gap_floor < math.inf:
            raise ConfigError(f"gap floor must be finite and >= 0, got {self.gap_floor}")


@dataclass
class RunContext:
    """Loaded, ready-to-execute form of a RunConfig."""

    config: RunConfig
    preset: TaskPreset
    instances: list[Instance]
    generator_id: str
    verifier_ids: list[str]
    # one handle per backend id, the generator's first
    backends: dict[str, Backend]
    # backend id -> digest of its scoring config, part of every cache key
    config_hashes: dict[str, str]
    store: RunStore
    dataset_digest: str

    def close(self) -> None:
        """Wait for the stage's cache entries to reach disk (a failed write
        raises DataError), then close every backend handle."""
        try:
            self.store.flush()
        finally:
            for backend in self.backends.values():
                backend.close()


def _config_hash(cfg: BackendConfig) -> str:
    """Digest of what shapes a backend's results: every field of its config
    but where it is served and how it is reached, so that a model that moves
    host keeps its cache."""
    doc = to_dict(cfg)
    for key in ("base_url", "timeout", "api_key_env", "roles"):
        del doc[key]
    return digest_text(canonical_json(doc))


def prepare_run(config: RunConfig, store_root: Path | None = None) -> RunContext:
    preset = get_preset(config.preset)
    instances = load_dataset(config.dataset, limit=config.limit, seed=config.seed)
    if not instances:
        raise DataError(f"{config.dataset}: no instances to run")
    for inst in instances:
        if inst.task_type != preset.task_type:
            raise ConfigError(f"instance {inst.instance_id!r} is {inst.task_type}, but preset "
                              f"{preset.name!r} runs {preset.task_type}")
    paths = [config.generator, *config.verifiers]
    cfgs = [load_backend_config(p) for p in paths]
    verifier_ids = [cfg.id for cfg in cfgs[1:]]
    if len(set(verifier_ids)) != len(verifier_ids):
        raise ConfigError("verifier backend ids must be distinct")
    # One backend per id, the generator's first. An id given twice names one
    # config: a self-pair's verifier is the generator, handle and all.
    configs: dict[str, tuple[Path, BackendConfig]] = {}
    for path, cfg in zip(paths, cfgs):
        first_path, first = configs.setdefault(cfg.id, (path, cfg))
        if cfg != first:
            raise ConfigError(f"backend id {cfg.id!r} names two different configs: "
                              f"{first_path} and {path}")
    return RunContext(
        config=config,
        preset=preset,
        instances=instances,
        generator_id=cfgs[0].id,
        verifier_ids=verifier_ids,
        backends={bid: build_backend(cfg) for bid, (_, cfg) in configs.items()},
        config_hashes={bid: _config_hash(cfg) for bid, (_, cfg) in configs.items()},
        store=RunStore(store_root or config.out_dir / "store"),
        dataset_digest=digest_file(config.dataset),
    )


# --- cached backend calls ----------------------------------------------------


def _cached(store: RunStore, key: CacheKey, compute: Callable[[], Any]) -> tuple[Any, bytes]:
    """The stored value and its canonical JSON, the entry's data, or
    compute()'s value stored and the JSON it was stored as. A corrupt
    entry, which get has quarantined, is recomputed like a miss."""
    try:
        hit = store.get(key)
    except CorruptEntryError as exc:
        print(f"warning: {exc}; recomputing", file=sys.stderr)
        hit = None
    if hit is not None:
        return hit
    value = compute()
    return value, store.put(key, value)


def _map_instances(fn: Callable[..., Any], parallel: int, *iterables: Iterable) -> list[Any]:
    """fn over the zipped iterables, in a thread pool when parallel > 1;
    results in input order regardless of completion order."""
    if parallel <= 1:
        return list(map(fn, *iterables))
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(fn, *iterables))


def generate_answers(ctx: RunContext, backend_id: str) -> dict[str, bytes]:
    """The canonical JSON of one greedy answer per instance from the given
    backend, by instance id: the data of its cache entry, whether the
    entry was a hit (decoded, so verified) or was just put."""
    backend, params = ctx.backends[backend_id], ctx.preset.decode

    def answer(prompt: str) -> bytes:
        key = CacheKey.for_generate(backend_id, prompt, params, ctx.config_hashes[backend_id])
        return _cached(ctx.store, key, lambda: backend.generate(prompt, params))[1]

    answers = _map_instances(answer, ctx.config.parallel, [inst.prompt for inst in ctx.instances])
    return {inst.instance_id: ans for inst, ans in zip(ctx.instances, answers)}


@dataclass
class SignalsResult:
    records: list[SignalRecord]
    diagnostics: dict[str, int] = field(default_factory=dict)


def _signal_record(
    ctx: RunContext,
    verifier_id: str,
    inst: Instance,
    gen: GeneratedAnswer,
    ver_text: str,
) -> tuple[SignalRecord, list[str]]:
    """One instance's SignalRecord and the diagnostics reasons it raised.

    Correctness labels come from judging each model's answer against
    gold. Signals missing a capability (or a degenerate answer) stay
    None, and the reason is returned rather than papered over.
    """
    # A numeric answer is scanned for its final answer once: the judge grades
    # that span and log_cmp_final scores it.
    final = final_answer_span(gen.text) if inst.gold.kind == "numeric_cot" else None
    gen_correct, flags = judge_generation(gen.text, inst.gold, final)
    ver_correct = judge_generation(ver_text, inst.gold)[0]
    unscored = SignalRecord(
        instance_id=inst.instance_id, generator_correct=gen_correct, verifier_correct=ver_correct
    )
    if not gen.text:
        return unscored, [*flags, "empty_generation"]
    verifier = ctx.backends[verifier_id]
    config_hash = ctx.config_hashes[verifier_id]
    key = CacheKey.for_score(verifier_id, inst.prompt, gen.text, config_hash)
    try:
        scored, _ = _cached(ctx.store, key,
                            lambda: verifier.score_sequence(inst.prompt, gen.text))
    except DegenerateInputError:
        return unscored, [*flags, "degenerate_answer"]
    reasons = list(flags)
    ptrue = None
    if "p_true" in ctx.config.signals:
        key = CacheKey.for_ptrue(verifier_id, inst.prompt, gen.text, config_hash)
        try:
            ptrue, _ = _cached(ctx.store, key,
                               lambda: verifier.judge_ptrue(inst.prompt, gen.text))
        except CapabilityError:
            reasons.append("ptrue_unresolvable")
    record = signal_vector(
        inst.instance_id,
        gen,
        scored,
        ptrue=ptrue,
        generator_correct=gen_correct,
        verifier_correct=ver_correct,
        final_answer=final,
    )
    if final is not None and record.log_cmp_final is None:
        reasons.append("final_answer_span_missing")
    return record, reasons


def compute_signal_records(
    ctx: RunContext,
    verifier_id: str,
    generator_answers: Mapping[str, GeneratedAnswer],
    verifier_texts: Mapping[str, str],
) -> SignalsResult:
    """Score every generator answer with the verifier and assemble one
    SignalRecord per instance, in instance order, with the diagnostics
    reasons of all instances counted. Only the text of the verifier's own
    answers is needed: it is judged for the verifier's correctness label."""
    ids = [inst.instance_id for inst in ctx.instances]
    outcomes = _map_instances(
        partial(_signal_record, ctx, verifier_id),
        ctx.config.parallel,
        ctx.instances,
        [generator_answers[iid] for iid in ids],
        [verifier_texts[iid] for iid in ids],
    )
    diagnostics = Counter(reason for _, reasons in outcomes for reason in reasons)
    return SignalsResult(records=[rec for rec, _ in outcomes], diagnostics=dict(diagnostics))


# --- evaluation ----------------------------------------------------------------


@dataclass
class SignalEval:
    signal: str
    n_scored: int
    auroc: float | None = None
    auroc_note: str | None = None
    apgr_raw: float | None = None
    apgr_normalized: float | None = None
    routing_excluded: bool | None = None
    routing_note: str | None = None
    coverage_auc: float | None = None
    coverage_points: list[tuple[float, float]] | None = None
    quintile_accuracies: list[float] | None = None
    quintile_spread: float | None = None
    case_means: dict[str, CellStat] | None = None


@dataclass
class EvalReport(Record):
    generator_id: str
    verifier_id: str
    dataset_digest: str
    preset: str
    n: int
    weak_accuracy: float
    strong_accuracy: float | None
    gap: float | None
    guard: str
    warnings: list[str]
    signals: dict[str, SignalEval]


def _labeled_columns(records: Sequence[SignalRecord], signal: str) -> tuple[list, ...]:
    """`signal_columns` without the records that have no generator label,
    which no metric can rank."""
    columns = signal_columns(records, signal)
    if None not in columns[2]:
        return columns
    keep = [i for i, weak in enumerate(columns[2]) if weak is not None]
    return tuple([column[i] for i in keep] for column in columns)


def _coverage_grid(n: int) -> list[int]:
    """Retained counts k_i = ceil(i * n / COVERAGE_GRID), i = 1..COVERAGE_GRID,
    deduplicated; every k = 1..n when n <= COVERAGE_GRID."""
    return list(dict.fromkeys(-(-i * n // COVERAGE_GRID) for i in range(1, COVERAGE_GRID + 1)))


def _case_means(records: Sequence[SignalRecord], signal: str) -> dict[str, CellStat] | None:
    from . import metrics

    try:
        return dict(vars(metrics.case_means(records, signal)))
    except DataError:  # verifier labels absent on some instance
        return None


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def evaluate_signal(records: Sequence[SignalRecord], signal: str, gap_floor: float) -> SignalEval:
    from . import metrics

    cols = metrics.columns(*_labeled_columns(records, signal))
    ev = SignalEval(signal=signal, n_scored=len(cols))
    if len(cols) == 0:
        ev.auroc_note = "signal absent on all instances"
        return ev
    try:
        ev.auroc = metrics.auroc(cols)
    except UndefinedMetricError as exc:
        ev.auroc_note = str(exc)
    if cols.strong is not None:
        try:
            curve = metrics.pgr_curve(cols, gap_floor=gap_floor)
            # A zero gap or an oracle no better than random leaves APGR
            # undefined (NaN); the eval JSON says null and routing_note why.
            ev.apgr_raw = _finite_or_none(curve.apgr_raw)
            ev.apgr_normalized = _finite_or_none(curve.apgr_normalized)
            ev.routing_excluded = curve.excluded
            ev.routing_note = curve.excluded_reason
        except (UndefinedMetricError, DegenerateInputError) as exc:
            ev.routing_note = str(exc)
    else:
        ev.routing_note = "strong labels absent; routing metrics skipped"
    cov = metrics.coverage_accuracy(cols)
    ev.coverage_auc = cov.auc
    ev.coverage_points = [list(cov.points[k - 1]) for k in _coverage_grid(len(cols))]
    try:
        accs, spread = metrics.quintile_spread(cols)
        ev.quintile_accuracies = accs
        ev.quintile_spread = spread
    except DegenerateInputError:
        pass
    ev.case_means = _case_means(records, signal)
    return ev


def evaluate_pair(
    records: Sequence[SignalRecord],
    generator_id: str,
    verifier_id: str,
    dataset_digest: str,
    preset: str,
    signal_names: Iterable[str],
    gap_floor: float,
) -> EvalReport:
    from . import metrics

    n = len(records)
    labeled = [r for r in records if r.generator_correct is not None]
    weak_acc = sum(1 for r in labeled if r.generator_correct) / len(labeled) if labeled else 0.0
    strong_labeled = [r for r in records if r.verifier_correct is not None]
    strong_acc = (
        sum(1 for r in strong_labeled if r.verifier_correct) / len(strong_labeled)
        if len(strong_labeled) == n and n > 0
        else None
    )
    gap = strong_acc - weak_acc if strong_acc is not None else None
    guard = metrics.weak_generator_guard(weak_acc)
    warnings = []
    if guard == "warn":
        warnings.append(
            f"weak generator: accuracy {weak_acc:.3f} is below 0.10; "
            "disagreement signals are expected to be uninformative"
        )
    return EvalReport(
        generator_id=generator_id,
        verifier_id=verifier_id,
        dataset_digest=dataset_digest,
        preset=preset,
        n=n,
        weak_accuracy=weak_acc,
        strong_accuracy=strong_acc,
        gap=gap,
        guard=guard,
        warnings=warnings,
        signals={s: evaluate_signal(records, s, gap_floor) for s in signal_names},
    )


def aggregate_reports(reports: Sequence[EvalReport]) -> dict[str, Any]:
    """Mean AUROC/APGR per signal across pairs, honoring the small-gap
    exclusion rule for APGR means."""
    signals: set[str] = set()
    for rep in reports:
        signals.update(rep.signals)
    per_signal: dict[str, Any] = {}
    for sig in sorted(signals):
        aurocs = [
            rep.signals[sig].auroc
            for rep in reports
            if sig in rep.signals and rep.signals[sig].auroc is not None
        ]
        apgr_rows = [
            rep.signals[sig]
            for rep in reports
            if sig in rep.signals
            and rep.signals[sig].apgr_raw is not None
            and rep.signals[sig].routing_excluded is False
        ]
        per_signal[sig] = {
            "mean_auroc": sum(aurocs) / len(aurocs) if aurocs else None,
            "n_auroc_pairs": len(aurocs),
            "mean_apgr_raw": (
                sum(r.apgr_raw for r in apgr_rows) / len(apgr_rows) if apgr_rows else None
            ),
            "mean_apgr_normalized": (
                sum(r.apgr_normalized for r in apgr_rows) / len(apgr_rows) if apgr_rows else None
            ),
            "n_apgr_pairs": len(apgr_rows),
        }
    excluded_pairs = [
        {
            "generator_id": rep.generator_id,
            "verifier_id": rep.verifier_id,
            "gap": rep.gap,
            "signals": sorted(
                s for s, ev in rep.signals.items() if ev.routing_excluded
            ),
        }
        for rep in reports
        if any(ev.routing_excluded for ev in rep.signals.values())
    ]
    return {
        "n_pairs": len(reports),
        "per_signal": per_signal,
        "excluded_pairs": excluded_pairs,
        "warnings": sorted({w for rep in reports for w in rep.warnings}),
    }
