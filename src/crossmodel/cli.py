"""Command-line surface: generate, signals, eval, route, report.

Each subcommand reads and writes plain JSONL/JSON/CSV files under the
run directory given by --out, so runs are resumable, greppable, and
reproducible. eval and report never contact a backend.

Exit codes: 0 success, 2 configuration error, 3 backend error,
4 data error.

A stage imports only what it uses: numpy (through metrics) loads in eval,
in budget routing and in a report whose gap correlation has 3 or more
pairs, never in generate or signals.

eval and route read each pair's files ahead in forked readers while they
compute (`_pair_inputs`) when there are 2 or more pairs and usable CPUs, the
process runs one thread, and the pairs' files hold about 1 MiB each; else
they read them one after another. No flag selects this. The stage process
computes, writes and prints everything, and re-reads a pair whose reader
failed, so outputs and messages are those of a serial run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import threading
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, BinaryIO, Callable, Iterator, NoReturn, Sequence, TypeVar,
)

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
    canonical_json, generated_answer_from_dict, read_json, read_jsonl, read_jsonl_columns,
    replacing, to_dict, write_json, write_jsonl,
)
from .signals import SIGNAL_FIELDS, SignalColumns, SignalRecord

if TYPE_CHECKING:
    from .routing import RouteDecision

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


def _run_rows(ctx: RunContext, path: Path, producer: str, ids: list[str]) -> list[int]:
    """The row of each instance of the run, in run order, in a file of `ids`
    that `crossmodel <producer>` writes: every instance must have a row, no id
    may have two, and the rows of other ids are skipped."""
    row = dict(zip(ids, range(len(ids))))
    if len(row) < len(ids):
        seen: set[str] = set()
        for iid in ids:
            if iid in seen:
                raise DataError(f"{path}: instance id {iid!r} appears more than once")
            seen.add(iid)
    missing = [inst.instance_id for inst in ctx.instances if inst.instance_id not in row]
    if missing:
        what = "answer" if producer == "generate" else "signal record"
        raise DataError(f"{path}: no {what} for {len(missing)} instance(s), first "
                        f"{missing[0]!r}; run `crossmodel {producer}` first")
    return [row[inst.instance_id] for inst in ctx.instances]


def _existing(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DataError(f"missing {path}; run `crossmodel {producer}` first")
    return path


def _read_signals(ctx: RunContext, verifier_id: str) -> SignalColumns:
    """The run's signal records, in run order, read straight into columns."""
    path = _existing(_signals_path(ctx.config.out_dir, ctx.generator_id, verifier_id), "signals")
    cols = SignalColumns(**read_jsonl_columns(path, SignalRecord))
    rows = _run_rows(ctx, path, "signals", cols.instance_id)
    return cols if rows == list(range(len(cols))) else cols.take(rows)


def _write_answers(path: Path, answers: dict[str, bytes]) -> None:
    """One line per instance, `{"answer":<its JSON>,"instance_id":<id>}`, by
    id: the answer's bytes are copied as they are, canonical JSON."""
    with replacing(path, binary=True) as fh:
        fh.writelines(
            b'{"answer":' + answers[iid] + b',"instance_id":'
            + canonical_json(iid).encode("utf-8") + b"}\n"
            for iid in sorted(answers)
        )


def _decision_line(d: RouteDecision) -> str:
    """`d` as `write_jsonl` writes `to_dict(d)`, from one template: sorted keys,
    ASCII-escaped strings, and the JSON encoder's forms of a float and an int."""
    value = d.signal_value
    number = ("null" if value is None
              else float.__repr__(value) if isinstance(value, float) else int.__repr__(value))
    return (f'{{"instance_id": {encode_basestring_ascii(d.instance_id)}, '
            f'"routed_to_strong": {"true" if d.routed_to_strong else "false"}, '
            f'"served_answer": {encode_basestring_ascii(d.served_answer)}, '
            f'"signal_value": {number}}}\n')


def _read_answers(ctx: RunContext, backend_id: str,
                  decode: Callable[[dict[str, Any]], tuple[str, T]]) -> dict[str, T]:
    path = _existing(_answers_path(ctx.config.out_dir, backend_id), "generate")
    answers = read_jsonl(path, decode)
    rows = _run_rows(ctx, path, "generate", [iid for iid, _ in answers])
    return dict(answers[row] for row in rows)


def _instance_id(doc: dict[str, Any]) -> str:
    iid = doc["instance_id"]
    if not isinstance(iid, str):
        raise DataError(f"instance_id must be a string, got {type(iid).__name__}")
    return iid


# Reading ahead pays once a pair's files decode for longer than a reader
# costs: forking and reaping a 34 MB stage takes about 1.6 ms, and the stage's
# copy-on-write faults and pickling a pair both ways cost more, while the
# strict decoder reads about 50 MB/s of a signals or answers file. Measured
# over 8 pairs on a 2-vCPU VM, with readers forced on, a stage ran 9-16 ms
# slower at 0.1 MB per pair, 8-22 ms faster at 0.5 MB, and 76-192 ms faster
# at 1-1.7 MB.
READ_AHEAD_MIN_BYTES = 1 << 20


def _reader_count(files: list[list[Path]]) -> int:
    """How many forked readers read ahead the pairs whose files are `files`:
    one per pair, up to one per usable CPU, or 0 when reading ahead cannot
    pay (fewer than 2 pairs or CPUs, pairs of under READ_AHEAD_MIN_BYTES on
    average) or fork is unsafe (another thread runs)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    readers = min(len(files), len(os.sched_getaffinity(0)))
    if readers < 2 or threading.active_count() > 1:
        return 0
    try:
        size = sum(path.stat().st_size for paths in files for path in paths)
    except OSError:  # a missing file: the pair's own read names it
        return 0
    return readers if size >= READ_AHEAD_MIN_BYTES * len(files) else 0


def _read_frames(fd: int, read: Callable[[str], Any], verifier_ids: list[str],
                 inherited: list[int]) -> NoReturn:
    """A reader: the pickled read() of each pair, one length-prefixed frame
    each, into `fd`. It first closes the `inherited` read ends, so that its
    writes fail and end it once the parent is gone. It ignores SIGINT, which
    the parent handles, stops at the first read that fails, which the parent
    repeats itself, and ends in os._exit, so it runs no exit handler and
    flushes no inherited buffer."""
    import pickle
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for other in inherited:
            os.close(other)
        with open(fd, "wb") as out:
            for verifier_id in verifier_ids:
                frame = pickle.dumps(read(verifier_id), pickle.HIGHEST_PROTOCOL)
                out.write(len(frame).to_bytes(8, "little"))
                out.write(frame)
                out.flush()
    finally:
        os._exit(0)


def _start_reader(read: Callable[[str], Any], verifier_ids: list[str],
                  started: list[tuple[int, BinaryIO] | None]) -> tuple[int, BinaryIO] | None:
    """A forked reader of `verifier_ids`' pairs, given the readers `started`
    before it: its pid and the pipe it sends them on, or None when no pipe
    or process can be had now."""
    try:
        r, w = os.pipe()
    except OSError:
        return None
    inherited = [r, *(reader[1].fileno() for reader in started if reader)]
    try:
        pid = os.fork()
        if pid == 0:
            _read_frames(w, read, verifier_ids, inherited)
    except OSError:
        os.close(r)
        return None
    finally:
        os.close(w)
    return pid, open(r, "rb")


def _received(pipe: BinaryIO | None, read: Callable[[str], Any], verifier_id: str) -> Any:
    """The pair's frame on its reader's `pipe`, unpickled, or read(verifier_id)
    when it has no reader or the reader ended before the frame did."""
    import pickle

    head = pipe.read(8) if pipe is not None else b""
    size = int.from_bytes(head, "little")
    frame = pipe.read(size) if len(head) == 8 else b""
    return pickle.loads(frame) if len(head) == 8 and len(frame) == size else read(verifier_id)


def _read_pair(ctx: RunContext, strong: bool,
               verifier_id: str) -> tuple[SignalColumns, dict[str, str] | None]:
    """A pair's signal records and, if `strong`, its verifier's answer texts."""
    records = _read_signals(ctx, verifier_id)
    return records, _read_answers(ctx, verifier_id, _answer_text) if strong else None


@contextmanager
def _pair_inputs(ctx: RunContext, strong: bool
                 ) -> Iterator[Iterator[tuple[str, SignalColumns, dict[str, str] | None]]]:
    """An iterator of (verifier id, *_read_pair(ctx, strong, verifier id))
    over the pairs, in pair order.

    When _reader_count allows, forked readers start on entry, take the pairs
    in turn (reader i reads pairs i, i + readers, ...) and read them ahead
    while the caller computes; a pair is unpickled when the caller asks for
    it. A pair whose reader failed, died or never started is read by the
    caller, so each error comes from the caller's own read of the first
    faulty pair. Every reader is killed and reaped on exit."""
    ids, out_dir = ctx.verifier_ids, ctx.config.out_dir
    read = functools.partial(_read_pair, ctx, strong)
    count = _reader_count([
        [_signals_path(out_dir, ctx.generator_id, verifier_id)]
        + ([_answers_path(out_dir, verifier_id)] if strong else []) for verifier_id in ids])
    if not count:
        yield ((verifier_id, *read(verifier_id)) for verifier_id in ids)
        return
    import signal

    readers: list[tuple[int, BinaryIO] | None] = []
    try:
        # A SIGINT waits until every reader ignores it and its pid is listed.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for first in range(count):
                readers.append(_start_reader(read, ids[first::count], readers))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        pipes = [reader and reader[1] for reader in readers]
        yield ((verifier_id, *_received(pipes[k % count], read, verifier_id))
               for k, verifier_id in enumerate(ids))
    finally:
        for pid, pipe in filter(None, readers):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _answer(doc: dict[str, Any]) -> tuple[str, GeneratedAnswer]:
    return _instance_id(doc), generated_answer_from_dict(doc["answer"])


def _answer_text(doc: dict[str, Any]) -> tuple[str, str]:
    """An answer's text only, for the stages that never need its token
    scores: routing, and the verifier's own answers in signals."""
    text = doc["answer"]["text"]
    if not isinstance(text, str):
        raise DataError(f"answer text must be a string, got {type(text).__name__}")
    return _instance_id(doc), text


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
    with _pair_inputs(ctx, strong=False) as pairs:
        from . import metrics  # noqa: F401  (numpy loads while readers read)
        for verifier_id, records, _ in pairs:
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
    summaries = []
    with _pair_inputs(ctx, strong=not args.abstain) as pairs:
        weak = _read_answers(ctx, ctx.generator_id, _answer_text)
        if policy.budget is not None:
            from . import metrics  # noqa: F401  (numpy loads while readers read)
        for verifier_id, records, strong in pairs:
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
                result = route_batch(policy, records, weak, strong)
                summary["routed_fraction"] = result.routed_fraction
                summary["routed_accuracy"] = result.routed_accuracy
            missing = getattr(records, args.signal).count(None)
            if missing:
                print(f"warning: {missing} of {len(records)} instances lack signal "
                      f"{args.signal!r} for {verifier_id}; they keep the weak answer",
                      file=sys.stderr)
            out = ctx.config.out_dir / f"route_{verifier_id}_{args.signal}.jsonl"
            with replacing(out) as fh:
                fh.writelines(map(_decision_line, result.decisions))
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
