"""Command-line surface: generate, signals, eval, route, report.

Each subcommand reads and writes plain JSONL/JSON/CSV files under the
run directory given by --out, so runs are resumable, greppable, and
reproducible. eval and report never contact a backend.

Exit codes: 0 success, 2 configuration error, 3 backend error,
4 data error.

A stage imports only what it uses: numpy (through metrics) loads in eval,
in budget routing and in a report whose gap correlation has 3 or more
pairs, never in generate or signals.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

from . import pipeline
from .backend.types import GeneratedAnswer
from .errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    CrossModelError,
    DataError,
    TransportError,
    UndefinedMetricError,
)
from .pipeline import EvalReport, RunConfig, RunContext
from .serialize import (
    canonical_json, generated_answer_from_dict, read_json, read_jsonl, replacing, to_dict,
    write_json, write_jsonl,
)
from .signals import SIGNAL_FIELDS, SignalRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_DATA = 4

T = TypeVar("T")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", type=Path, help="dataset JSONL file")
    p.add_argument("--preset", help="task preset: mmlu | triviaqa | gsm8k")
    p.add_argument("--generator", type=Path, help="generator backend config (JSON)")
    p.add_argument("--verifier", type=Path, action="append", default=[],
                   help="verifier backend config (repeatable)")
    p.add_argument("--signals", default=",".join(pipeline.DEFAULT_SIGNALS),
                   help="comma-separated signal names")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("runs/default"))
    p.add_argument("--gap-floor", type=float, default=0.05)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--store", type=Path, default=None,
                   help="cache root (default: <out>/store)")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file; values in it override flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmodel",
        description="Verifier-prefill disagreement signals, evaluation, and routing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="produce weak/strong answer files")
    _add_run_flags(p_gen)

    p_sig = sub.add_parser("signals", help="compute per-instance signal records")
    _add_run_flags(p_sig)

    p_eval = sub.add_parser("eval", help="evaluate signals against labels")
    _add_run_flags(p_eval)

    p_route = sub.add_parser("route", help="apply a routing policy to a run")
    _add_run_flags(p_route)
    p_route.add_argument("--signal", default="log_cmp", choices=SIGNAL_FIELDS)
    p_route.add_argument("--budget", type=float, default=None)
    p_route.add_argument("--threshold", type=float, default=None)
    p_route.add_argument("--abstain", action="store_true",
                         help="abstain instead of routing to the strong model")

    p_rep = sub.add_parser("report", help="merge eval outputs into tables and plot data")
    p_rep.add_argument("runs", nargs="*", type=Path, help="run directories with eval outputs")
    p_rep.add_argument("--out", type=Path, default=Path("report"))

    for p in (p_gen, p_sig, p_eval, p_route):
        # the flags a --config file may set, by destination
        p.set_defaults(config_flags={a.dest: a for a in p._actions
                                     if a.dest not in ("help", "config")})
    return parser


def _apply_config(args: argparse.Namespace, doc: dict[str, Any]) -> None:
    """Set the flags a --config document names, overriding the command line.
    Each value is converted by its flag's argparse type: a numeric flag takes
    a JSON number, a switch true or false, a repeatable flag a list, and any
    other flag a string; null leaves a flag whose default is null unset."""
    for key, value in doc.items():
        action = args.config_flags.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None and action.default is None:
            setattr(args, action.dest, None)
            continue
        repeated = isinstance(action.default, list)
        items = value if repeated and isinstance(value, list) else [value]
        allowed = (bool,) if action.nargs == 0 else {int: (int,), float: (int, float)}.get(
            action.type, (str,))
        if repeated != isinstance(value, list) or any(type(v) not in allowed for v in items):
            raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
        if action.choices is not None and any(v not in action.choices for v in items):
            raise ConfigError(f"config key {key!r} must be one of {list(action.choices)}")
        items = [action.type(v) for v in items] if action.type else items
        setattr(args, action.dest, items if repeated else items[0])


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.dataset is None or args.preset is None or args.generator is None:
        raise ConfigError("--dataset, --preset, and --generator are required")
    if not args.verifier:
        raise ConfigError("at least one --verifier is required")
    names = tuple(s.strip() for s in args.signals.split(",") if s.strip())
    return RunConfig(
        dataset=args.dataset,
        preset=args.preset,
        generator=args.generator,
        verifiers=tuple(args.verifier),
        signals=names,
        limit=args.limit,
        seed=args.seed,
        out_dir=args.out,
        gap_floor=args.gap_floor,
        parallel=args.parallel,
    )


# --- file helpers --------------------------------------------------------------


def _answers_path(out_dir: Path, backend_id: str) -> Path:
    return out_dir / f"answers_{backend_id}.jsonl"


def _signals_path(out_dir: Path, generator_id: str, verifier_id: str) -> Path:
    return out_dir / f"signals_{generator_id}__{verifier_id}.jsonl"


def _eval_path(out_dir: Path, generator_id: str, verifier_id: str) -> Path:
    return out_dir / f"eval_{generator_id}__{verifier_id}.json"


def _read_output(ctx: RunContext, path: Path, producer: str,
                 decode: Callable[[dict[str, Any]], T],
                 instance_id: Callable[[T], str] = itemgetter(0)) -> list[T]:
    """The run's records, in run order, from a file `crossmodel <producer>`
    writes: every instance of the run must have one line, no id may have
    two, and the lines of other ids are skipped."""
    if not path.exists():
        raise DataError(f"missing {path}; run `crossmodel {producer}` first")
    by_id: dict[str, T] = {}
    for record in read_jsonl(path, decode):
        iid = instance_id(record)
        if iid in by_id:
            raise DataError(f"{path}: instance id {iid!r} appears more than once")
        by_id[iid] = record
    missing = [inst.instance_id for inst in ctx.instances if inst.instance_id not in by_id]
    if missing:
        what = "answer" if producer == "generate" else "signal record"
        raise DataError(f"{path}: no {what} for {len(missing)} instance(s), first "
                        f"{missing[0]!r}; run `crossmodel {producer}` first")
    return [by_id[inst.instance_id] for inst in ctx.instances]


def _write_answers(path: Path, answers: dict[str, bytes]) -> None:
    """One line per instance, `{"answer":<its JSON>,"instance_id":<id>}`, by
    id: the answer's bytes are copied as they are, canonical JSON."""
    with replacing(path, binary=True) as fh:
        fh.writelines(
            b'{"answer":' + answers[iid] + b',"instance_id":'
            + canonical_json(iid).encode("utf-8") + b"}\n"
            for iid in sorted(answers)
        )


def _read_answers(ctx: RunContext, backend_id: str,
                  decode: Callable[[dict[str, Any]], tuple[str, T]]) -> dict[str, T]:
    path = _answers_path(ctx.config.out_dir, backend_id)
    return dict(_read_output(ctx, path, "generate", decode))


def _answer(doc: dict[str, Any]) -> tuple[str, GeneratedAnswer]:
    return doc["instance_id"], generated_answer_from_dict(doc["answer"])


def _answer_text(doc: dict[str, Any]) -> tuple[str, str]:
    """An answer's text only, for the stages that never need its token
    scores: routing, and the verifier's own answers in signals."""
    text = doc["answer"]["text"]
    if not isinstance(text, str):
        raise DataError(f"answer text must be a string, got {type(text).__name__}")
    return doc["instance_id"], text


# --- subcommands ----------------------------------------------------------------


def cmd_generate(ctx: RunContext) -> int:
    for backend_id in ctx.backends:
        answers = pipeline.generate_answers(ctx, backend_id)
        _write_answers(_answers_path(ctx.config.out_dir, backend_id), answers)
        print(f"generated {len(answers)} answers with {backend_id}")
    return EXIT_OK


def cmd_signals(ctx: RunContext) -> int:
    out_dir = ctx.config.out_dir
    gen_answers = _read_answers(ctx, ctx.generator_id, _answer)
    for verifier_id in ctx.verifier_ids:
        ver_texts = _read_answers(ctx, verifier_id, _answer_text)
        result = pipeline.compute_signal_records(ctx, verifier_id, gen_answers, ver_texts)
        path = _signals_path(out_dir, ctx.generator_id, verifier_id)
        write_jsonl(path, (rec.to_dict() for rec in result.records))
        if result.diagnostics:
            write_json(path.with_suffix(".diagnostics.json"), result.diagnostics)
        print(f"wrote {len(result.records)} signal records to {path}")
    return EXIT_OK


def cmd_eval(ctx: RunContext) -> int:
    reports = []
    for verifier_id in ctx.verifier_ids:
        path = _signals_path(ctx.config.out_dir, ctx.generator_id, verifier_id)
        records = _read_output(ctx, path, "signals", SignalRecord.from_dict,
                               attrgetter("instance_id"))
        report = pipeline.evaluate_pair(
            records,
            generator_id=ctx.generator_id,
            verifier_id=verifier_id,
            dataset_digest=ctx.dataset_digest,
            preset=ctx.config.preset,
            signal_names=ctx.config.signals,
            gap_floor=ctx.config.gap_floor,
        )
        reports.append(report)
        path = _eval_path(ctx.config.out_dir, ctx.generator_id, verifier_id)
        write_json(path, report.to_dict())
        print(f"wrote {path}")
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    write_json(ctx.config.out_dir / "eval_aggregate.json", pipeline.aggregate_reports(reports))
    return EXIT_OK


def cmd_route(ctx: RunContext, args: argparse.Namespace) -> int:
    from .routing import RoutePolicy, abstain_batch, route_batch

    if args.threshold is not None and not math.isfinite(args.threshold):
        raise ConfigError(f"invalid route policy: --threshold must be finite, got "
                          f"{args.threshold}; --budget 0 routes nothing, --budget 1 everything")
    try:
        policy = RoutePolicy(
            signal_name=args.signal, threshold=args.threshold, budget=args.budget
        )
    except ValueError as exc:
        raise ConfigError(f"invalid route policy: {exc}") from exc
    weak = _read_answers(ctx, ctx.generator_id, _answer_text)
    summaries = []
    for verifier_id in ctx.verifier_ids:
        path = _signals_path(ctx.config.out_dir, ctx.generator_id, verifier_id)
        records = _read_output(ctx, path, "signals", SignalRecord.from_dict,
                               attrgetter("instance_id"))
        summary = {
            "mode": "abstain" if args.abstain else "route",
            "verifier_id": verifier_id,
            "policy": policy.to_dict(),
        }
        if args.abstain:
            result = abstain_batch(policy, records, weak)
            summary["abstained_fraction"] = result.abstained_fraction
            summary["retained_accuracy"] = result.retained_accuracy
        else:
            strong = _read_answers(ctx, verifier_id, _answer_text)
            result = route_batch(policy, records, weak, strong)
            summary["routed_fraction"] = result.routed_fraction
            summary["routed_accuracy"] = result.routed_accuracy
        missing = sum(1 for d in result.decisions if d.signal_value is None)
        if missing:
            print(f"warning: {missing} of {len(records)} instances lack signal "
                  f"{args.signal!r} for {verifier_id}; they keep the weak answer",
                  file=sys.stderr)
        out = ctx.config.out_dir / f"route_{verifier_id}_{args.signal}.jsonl"
        write_jsonl(out, (to_dict(d) for d in result.decisions))
        summaries.append(summary)
        print(f"wrote {out}")
    write_json(ctx.config.out_dir / f"route_summary_{args.signal}.json", summaries)
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _add_report_rows(tables: tuple[list[list[Any]], ...], run_name: str,
                     raw: dict[str, Any]) -> None:
    """Add one eval JSON's rows to the summary, gap-vs-AUROC, coverage,
    quintile and case-mean tables, decoded as the EvalReport that wrote it."""
    rep = EvalReport.from_dict(raw)
    summary, scatter, coverage, quintiles, cases = tables
    pair = (run_name, rep.generator_id, rep.verifier_id)
    for sig_name, sig in sorted(rep.signals.items()):
        summary.append([
            *pair, rep.preset, rep.n, rep.weak_accuracy, rep.strong_accuracy, rep.gap,
            rep.guard, sig_name, sig.n_scored, sig.auroc, sig.apgr_raw, sig.apgr_normalized,
            sig.routing_excluded, sig.coverage_auc, sig.quintile_spread,
        ])
        if rep.gap is not None and sig.auroc is not None:
            scatter.append([*pair, sig_name, rep.gap, sig.auroc])
        for cov, acc in sig.coverage_points or []:
            coverage.append([*pair, sig_name, cov, acc])
        for q, acc in enumerate(sig.quintile_accuracies or [], start=1):
            quintiles.append([*pair, sig_name, f"Q{q}", acc])
        for case, cell in sorted((sig.case_means or {}).items()):
            cases.append([*pair, sig_name, case, cell.mean_score, cell.n])


def cmd_report(run_dirs: Sequence[Path], out_dir: Path) -> int:
    tables = summary_rows, scatter_rows, coverage_rows, quintile_rows, case_rows = (
        [], [], [], [], [])
    missing: list[str] = []
    for run_dir in run_dirs:
        paths = [p for p in sorted(run_dir.glob("eval_*.json")) if p.name != "eval_aggregate.json"]
        if not paths:
            missing.append(str(run_dir))
        for path in paths:
            read_json(path, functools.partial(_add_report_rows, tables, run_dir.name))

    pair_cols = ["run", "generator_id", "verifier_id"]
    _write_csv(
        out_dir / "metrics_summary.csv",
        pair_cols + ["preset", "n", "weak_accuracy", "strong_accuracy", "gap", "guard",
                     "signal", "n_scored", "auroc", "apgr_raw", "apgr_normalized",
                     "routing_excluded", "coverage_auc", "quintile_spread"],
        summary_rows,
    )
    _write_csv(out_dir / "gap_vs_auroc.csv", pair_cols + ["signal", "gap", "auroc"], scatter_rows)
    _write_csv(out_dir / "coverage_accuracy.csv",
               pair_cols + ["signal", "coverage", "accuracy"], coverage_rows)
    _write_csv(out_dir / "quintiles.csv", pair_cols + ["signal", "quintile", "accuracy"],
               quintile_rows)
    _write_csv(out_dir / "case_means.csv", pair_cols + ["signal", "case", "mean_score", "n"],
               case_rows)

    # Rank correlation between capability gap and AUROC, per signal.
    correlations: dict[str, Any] = {}
    by_signal: dict[str, list[tuple[float, float]]] = {}
    for row in scatter_rows:
        by_signal.setdefault(row[3], []).append((row[4], row[5]))
    for sig_name, pts in sorted(by_signal.items()):
        if len(pts) < 3:
            correlations[sig_name] = {"note": f"only {len(pts)} pairs; need 3"}
            continue
        from .metrics import spearman

        try:
            correlations[sig_name] = to_dict(spearman([g for g, _ in pts], [a for _, a in pts]))
        except UndefinedMetricError as exc:
            correlations[sig_name] = {"note": str(exc)}
    write_json(out_dir / "gap_correlation.json", correlations)
    if missing:
        write_json(out_dir / "missing_runs.json", missing)
        print(f"missing eval outputs for: {', '.join(missing)}", file=sys.stderr)
    print(f"report written to {out_dir}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------------


def _error_exit(exc: CrossModelError) -> int:
    """One stderr line for a package error, and its exit code."""
    if isinstance(exc, ConfigError):
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(exc, (TransportError, BackendError, CapabilityError)):
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    if isinstance(exc, DataError):
        print(f"data error: {exc}", file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_DATA


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = None
    code = EXIT_OK
    try:
        if args.command == "report":
            return cmd_report(args.runs, args.out)
        if args.config:
            read_json(args.config, functools.partial(_apply_config, args), ConfigError)
        config = _run_config(args)
        ctx = pipeline.prepare_run(config, store_root=args.store)
        if args.command == "generate":
            code = cmd_generate(ctx)
        elif args.command == "signals":
            code = cmd_signals(ctx)
        elif args.command == "eval":
            code = cmd_eval(ctx)
        else:
            code = cmd_route(ctx, args)
    except CrossModelError as exc:
        code = _error_exit(exc)
    finally:
        if ctx is not None:
            # A failed cache write is exit 4 unless the stage already failed.
            try:
                ctx.close()
            except DataError as exc:
                failed = _error_exit(exc)
                code = code or failed
    return code


if __name__ == "__main__":
    sys.exit(main())
