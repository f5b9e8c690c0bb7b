"""Run one `crossmodel` CLI stage with span recorders around each layer.

    PERFBENCH_SPANS=spans.json PYTHONPATH=src python3 perfbench/traced_cli.py eval ...

Every public function the benchmark traces is replaced by a recorder in
each module that holds a reference to it, so calls through names that a
module imported from another one (`pipeline` calls `signal_vector`, `cli`
calls `spearman`) are recorded too. Methods are wrapped on their class.

Spans are aggregated in memory per name (count, total time, self time,
and the duration of every call for the names whose percentiles the
benchmark reports) and written to PERFBENCH_SPANS when the stage exits.
A span's self time is its duration minus that of its child spans; the
stage runs single-threaded (`--parallel 1`), so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Any, Callable

import crossmodel.cli
from crossmodel import datasets, metrics, pipeline, routing, serialize, signals
from crossmodel.backend.http import HTTPBackend
from crossmodel.runstore import RunStore

FUNCTIONS = {
    "datasets.load_dataset": (datasets, "load_dataset"),
    "datasets.judge_generation": (datasets, "judge_generation"),
    "signals.signal_vector": (signals, "signal_vector"),
    "pipeline.compute_signal_records": (pipeline, "compute_signal_records"),
    "pipeline.evaluate_pair": (pipeline, "evaluate_pair"),
    "pipeline.write_json": (pipeline, "write_json"),
    "metrics.auroc": (metrics, "auroc"),
    "metrics.pgr_curve": (metrics, "pgr_curve"),
    "metrics.coverage_accuracy": (metrics, "coverage_accuracy"),
    "metrics.quintile_spread": (metrics, "quintile_spread"),
    "metrics.case_means": (metrics, "case_means"),
    "metrics.spearman": (metrics, "spearman"),
    "routing.route_batch": (routing, "route_batch"),
    "routing.abstain_batch": (routing, "abstain_batch"),
    "serialize.decode": (serialize, "generated_answer_from_dict"),
    "serialize.encode": (serialize, "generated_answer_to_dict"),
    "serialize.decode.scored": (serialize, "scored_sequence_from_dict"),
    "serialize.encode.scored": (serialize, "scored_sequence_to_dict"),
}
METHODS = {
    "runstore.get": (RunStore, "get"),
    "runstore.put": (RunStore, "put"),
    "backend.http.call": (HTTPBackend, "generate"),
    "backend.http.call.score": (HTTPBackend, "score_sequence"),
    "backend.http.call.ptrue": (HTTPBackend, "judge_ptrue"),
    "serialize.encode.signal_record": (signals.SignalRecord, "to_dict"),
    "serialize.decode.signal_record": (signals.SignalRecord, "from_dict"),
    "serialize.encode.eval_report": (pipeline.EvalReport, "to_dict"),
}
# Names whose every duration is kept; the rest keep totals only.
KEEP_DURATIONS = ("runstore.", "backend.http.", "signals.", "datasets.judge", "metrics.")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # [start, time in child spans]
        self.spans: dict[str, dict[str, Any]] = {}

    def _acc(self, name: str) -> dict[str, Any]:
        acc = self.spans.get(name)
        if acc is None:
            acc = self.spans[name] = {"count": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations": [], "returned_none": 0}
        return acc

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name.startswith(KEEP_DURATIONS)
        stack = self.stack

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            result = raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                acc = self._acc(name)
                acc["count"] += 1
                acc["total_s"] += duration
                acc["self_s"] += duration - frame[1]
                acc["returned_none"] += result is None
                # Percentiles describe completed calls; a call that raised
                # (spearman on a constant vector) stops early.
                if keep and not raised:
                    acc["durations"].append(duration)

        return recorder

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "crossmodel"]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(module, attr)
            recorder = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, recorder)
        for name, (cls, attr) in METHODS.items():
            raw = cls.__dict__.get(attr, getattr(cls, attr))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return crossmodel.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
