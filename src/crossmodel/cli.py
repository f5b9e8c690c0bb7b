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
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence, TypeVar

from . import pipeline
from .backend.types import GeneratedAnswer
from .errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    CorruptEntryError,
    CrossModelError,
    DataError,
    DuplicateRunError,
    ExtractionError,
    TransportError,
    UndefinedMetricError,
)
from .pipeline import RunConfig, RunContext, write_json
from .runstore import RunManifest
from .serialize import generated_answer_from_dict, generated_answer_to_dict, to_dict
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
                   help="cache/manifest root (default: <out>/store)")
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
    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    """Values from --config override command-line flags."""
    if not getattr(args, "config", None):
        return
    try:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        if attr in ("dataset", "generator", "out", "store"):
            value = Path(value)
        elif attr == "verifier":
            value = [Path(v) for v in value]
        setattr(args, attr, value)


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


def _write_jsonl(path: Path, docs: Iterable[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _read_jsonl(path: Path, producer: str, decode: Callable[[dict[str, Any]], T]) -> list[T]:
    """decode applied to the JSON object on every non-blank line. Invalid
    JSON, a non-object, a missing required key, or a DataError, ValueError
    or TypeError from decode (a value the record type rejects) is a
    DataError naming the line."""
    if not path.exists():
        raise DataError(f"missing {path}; run `crossmodel {producer}` first")
    out = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(doc, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            try:
                out.append(decode(doc))
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: missing key {exc}") from exc
            except (DataError, ValueError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return out


def _write_answers(path: Path, answers: dict[str, GeneratedAnswer]) -> None:
    _write_jsonl(path, (
        {"instance_id": iid, "answer": generated_answer_to_dict(answers[iid])}
        for iid in sorted(answers)
    ))


def _read_answers(path: Path) -> dict[str, GeneratedAnswer]:
    return dict(_read_jsonl(
        path, "generate",
        lambda doc: (doc["instance_id"], generated_answer_from_dict(doc["answer"])),
    ))


def _answer_text(doc: dict[str, Any]) -> tuple[str, str]:
    text = doc["answer"]["text"]
    if not isinstance(text, str):
        raise DataError(f"answer text must be a string, got {type(text).__name__}")
    return doc["instance_id"], text


def _read_answer_texts(path: Path) -> dict[str, str]:
    """Each answer's text only, for the stages that never need its token
    scores: routing, and the verifier's own answers in signals."""
    return dict(_read_jsonl(path, "generate", _answer_text))


def _answers_of_every_instance(ctx: RunContext, path: Path, read: Callable[[Path], dict[str, T]]
                               ) -> dict[str, T]:
    answers = read(path)
    missing = [inst.instance_id for inst in ctx.instances if inst.instance_id not in answers]
    if missing:
        raise DataError(f"{path}: no answer for {len(missing)} instance(s), first "
                        f"{missing[0]!r}; run `crossmodel generate` first")
    return answers


def _read_signal_records(path: Path) -> list[SignalRecord]:
    return _read_jsonl(path, "signals", SignalRecord.from_dict)


# --- subcommands ----------------------------------------------------------------


def cmd_generate(ctx: RunContext) -> int:
    backend_ids = [ctx.generator_cfg.id] + [
        v.id for v in ctx.verifier_cfgs if v.id != ctx.generator_cfg.id
    ]
    for backend_id in backend_ids:
        answers = pipeline.generate_answers(ctx, backend_id)
        _write_answers(_answers_path(ctx.config.out_dir, backend_id), answers)
        print(f"generated {len(answers)} answers with {backend_id}")
    if not ctx.store.has_run(ctx.run_id):
        ctx.store.write_manifest(
            RunManifest(
                run_id=ctx.run_id,
                dataset_digest=ctx.dataset_digest,
                backends_digest=ctx.backends_digest,
                preset=ctx.config.preset,
                seed=ctx.config.seed,
                created_at=datetime.now(timezone.utc).isoformat(),
                signals=ctx.config.signals,
                tool_version=pipeline.TOOL_VERSION,
                extra={
                    "generator_id": ctx.generator_cfg.id,
                    "verifier_ids": [v.id for v in ctx.verifier_cfgs],
                    "limit": ctx.config.limit,
                    "n_instances": len(ctx.instances),
                },
            )
        )
    return EXIT_OK


def cmd_signals(ctx: RunContext) -> int:
    out_dir = ctx.config.out_dir
    gen_answers = _answers_of_every_instance(
        ctx, _answers_path(out_dir, ctx.generator_cfg.id), _read_answers)
    for ver_cfg in ctx.verifier_cfgs:
        ver_texts = _answers_of_every_instance(
            ctx, _answers_path(out_dir, ver_cfg.id), _read_answer_texts)
        result = pipeline.compute_signal_records(ctx, ver_cfg.id, gen_answers, ver_texts)
        path = _signals_path(out_dir, ctx.generator_cfg.id, ver_cfg.id)
        _write_jsonl(path, (rec.to_dict() for rec in result.records))
        if result.diagnostics:
            write_json(path.with_suffix(".diagnostics.json"), result.diagnostics)
        print(f"wrote {len(result.records)} signal records to {path}")
    return EXIT_OK


def cmd_eval(ctx: RunContext) -> int:
    reports = []
    for ver_cfg in ctx.verifier_cfgs:
        records = _read_signal_records(
            _signals_path(ctx.config.out_dir, ctx.generator_cfg.id, ver_cfg.id)
        )
        report = pipeline.evaluate_pair(
            records,
            generator_id=ctx.generator_cfg.id,
            verifier_id=ver_cfg.id,
            dataset_digest=ctx.dataset_digest,
            preset=ctx.config.preset,
            signal_names=ctx.config.signals,
            gap_floor=ctx.config.gap_floor,
        )
        reports.append(report)
        path = _eval_path(ctx.config.out_dir, ctx.generator_cfg.id, ver_cfg.id)
        write_json(path, report.to_dict())
        print(f"wrote {path}")
        for warning in report.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    write_json(ctx.config.out_dir / "eval_aggregate.json", pipeline.aggregate_reports(reports))
    return EXIT_OK


def cmd_route(ctx: RunContext, args: argparse.Namespace) -> int:
    from .routing import RoutePolicy, abstain_batch, route_batch

    try:
        policy = RoutePolicy(
            signal_name=args.signal, threshold=args.threshold, budget=args.budget
        )
    except ValueError as exc:
        raise ConfigError(f"invalid route policy: {exc}") from exc
    weak = _read_answer_texts(_answers_path(ctx.config.out_dir, ctx.generator_cfg.id))
    summaries = []
    for ver_cfg in ctx.verifier_cfgs:
        records = _read_signal_records(
            _signals_path(ctx.config.out_dir, ctx.generator_cfg.id, ver_cfg.id)
        )
        summary = {
            "mode": "abstain" if args.abstain else "route",
            "verifier_id": ver_cfg.id,
            "policy": policy.to_dict(),
        }
        if args.abstain:
            result = abstain_batch(policy, records, weak)
            summary["abstained_fraction"] = result.abstained_fraction
            summary["retained_accuracy"] = result.retained_accuracy
        else:
            strong = _read_answer_texts(_answers_path(ctx.config.out_dir, ver_cfg.id))
            result = route_batch(policy, records, weak, strong)
            summary["routed_fraction"] = result.routed_fraction
            summary["routed_accuracy"] = result.routed_accuracy
        missing = sum(1 for d in result.decisions if d.signal_value is None)
        if missing:
            print(f"warning: {missing} of {len(records)} instances lack signal "
                  f"{args.signal!r} for {ver_cfg.id}; they keep the weak answer",
                  file=sys.stderr)
        out = ctx.config.out_dir / f"route_{ver_cfg.id}_{args.signal}.jsonl"
        _write_jsonl(out, (to_dict(d) for d in result.decisions))
        summaries.append(summary)
        print(f"wrote {out}")
    write_json(ctx.config.out_dir / f"route_summary_{args.signal}.json", summaries)
    return EXIT_OK


# --- report ---------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_eval_reports(run_dir: Path) -> list[dict[str, Any]]:
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(run_dir.glob("eval_*.json"))
        if p.name != "eval_aggregate.json"
    ]


def cmd_report(run_dirs: Sequence[Path], out_dir: Path) -> int:
    reports: list[tuple[str, dict[str, Any]]] = []
    missing: list[str] = []
    for run_dir in run_dirs:
        found = _load_eval_reports(run_dir) if run_dir.is_dir() else []
        if not found:
            missing.append(str(run_dir))
            continue
        reports.extend((run_dir.name, rep) for rep in found)

    summary_rows = []
    scatter_rows = []
    coverage_rows = []
    quintile_rows = []
    case_rows = []
    for run_name, rep in reports:
        pair = (run_name, rep["generator_id"], rep["verifier_id"])
        for sig_name, sig in sorted(rep["signals"].items()):
            summary_rows.append(
                [
                    *pair, rep["preset"], rep["n"], rep["weak_accuracy"],
                    rep["strong_accuracy"], rep["gap"], rep["guard"], sig_name,
                    sig["n_scored"], sig["auroc"], sig["apgr_raw"],
                    sig["apgr_normalized"], sig["routing_excluded"],
                    sig["coverage_auc"], sig["quintile_spread"],
                ]
            )
            if rep["gap"] is not None and sig["auroc"] is not None:
                scatter_rows.append([*pair, sig_name, rep["gap"], sig["auroc"]])
            for cov, acc in sig.get("coverage_points") or []:
                coverage_rows.append([*pair, sig_name, cov, acc])
            for q, acc in enumerate(sig.get("quintile_accuracies") or [], start=1):
                quintile_rows.append([*pair, sig_name, f"Q{q}", acc])
            for case, cell in sorted((sig.get("case_means") or {}).items()):
                case_rows.append([*pair, sig_name, case, cell["mean_score"], cell["n"]])

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = None
    try:
        if args.command == "report":
            return cmd_report(args.runs, args.out)
        _apply_config_file(args)
        config = _run_config(args)
        ctx = pipeline.prepare_run(config, store_root=args.store)
        if args.command == "generate":
            return cmd_generate(ctx)
        if args.command == "signals":
            return cmd_signals(ctx)
        if args.command == "eval":
            return cmd_eval(ctx)
        if args.command == "route":
            return cmd_route(ctx, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, BackendError, CapabilityError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (DataError, ExtractionError, CorruptEntryError, DuplicateRunError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CrossModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if ctx is not None:
            ctx.close()


if __name__ == "__main__":
    sys.exit(main())
