"""End-to-end benchmark of the crossmodel CLI.

    python3 perfbench/run.py --workload mmlu-http-cold --seed 1 --seconds 10 --trace 0

Run from the root of a crossmodel checkout; the program is imported from
`src/`. Each workload writes seeded inputs, then runs its stage sequence
again and again until --seconds have passed (the last pass may run past
them), every stage in its own process the way users run the `crossmodel`
command, and checks every output. HTTP workloads talk to the loopback
server in `server.py`, started as a separate process.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 the same sequence also runs under
`traced_cli.py` and the line holds the per-layer metrics. The lines
before it print every metric with its unit, the quartiles and sample
counts of the timings, and the machine the run used.

Scratch files go to `.bench_work/` under the checkout and are removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import server  # noqa: E402

# Mirrors the `crossmodel` console script.
ENTRY = "import sys; from crossmodel.cli import main; sys.exit(main())"
BUDGET = "0.3"
IMPORT_PROBES = 3
STAGE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n: int
    tiny_n: int
    stages: tuple[tuple[str, ...], ...]
    http: bool = True
    warm: bool = False
    setups: int = 3  # set-ups per run; setup_s is their median


HTTP_STAGES = (("generate",), ("signals",), ("eval",), ("route", "--budget", BUDGET), ("report",))
WORKLOADS = {w.name: w for w in (
    # Its set-up takes ~0.1 s, so more samples steady the median.
    Workload("mmlu-http-cold", "mmlu", 400, 24, HTTP_STAGES, setups=9),
    # Its set-up is a whole cold run (~14 s); one per run keeps the
    # benchmark's total time in budget.
    Workload("gsm8k-http-warm", "gsm8k", 200, 12, HTTP_STAGES, warm=True, setups=1),
    Workload(
        "eval-8x10k", "mmlu", 10_000, 200,
        (("eval",), ("route", "--budget", BUDGET), ("route", "--budget", BUDGET, "--abstain"),
         ("report",)),
        http=False,
    ),
)}

END_TO_END_UNITS = {
    "pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
    "store_mb": "MB", "failed_stage_ratio": "ratio",
}
# Metrics that BENCHMARK.json bounds; store_mb and failed_stage_ratio are
# printed but not bounded, because they are 0 on some workloads.
BOUNDED = ("pipeline_s", "setup_s", "peak_rss_mb", "artifact_mb")

# Per-layer metric -> (unit, workload where it does most of its work, or
# None when every workload exercises it). A traced run fails its check if
# a metric gets no samples on its workload.
PER_LAYER = {
    "cli.import_s": ("s", None),
    "cli.generate_s": ("s", "mmlu-http-cold"),
    "cli.signals_s": ("s", "mmlu-http-cold"),
    "cli.eval_s": ("s", "eval-8x10k"),
    "cli.route_s": ("s", "eval-8x10k"),
    "cli.report_s": ("s", "eval-8x10k"),
    "backend.http.calls": ("count", "mmlu-http-cold"),
    "backend.http.call_ms_p50": ("ms", "mmlu-http-cold"),
    "backend.http.call_ms_p99": ("ms", "mmlu-http-cold"),
    "backend.http.server_ms_p50": ("ms", "mmlu-http-cold"),
    "backend.http.client_ms_p50": ("ms", "mmlu-http-cold"),
    "backend.http.retries": ("count", "mmlu-http-cold"),
    "runstore.put_ms_p50": ("ms", "mmlu-http-cold"),
    "runstore.misses": ("count", "mmlu-http-cold"),
    "runstore.get_ms_p50": ("ms", "gsm8k-http-warm"),
    "runstore.hits": ("count", "gsm8k-http-warm"),
    "runstore.hit_ratio": ("ratio", "gsm8k-http-warm"),
    "runstore.entry_kb_mean": ("KB", "gsm8k-http-warm"),
    "serialize.decode_s": ("s", "gsm8k-http-warm"),
    "serialize.encode_s": ("s", "gsm8k-http-warm"),
    "pipeline.compute_signal_records_self_s": ("s", "gsm8k-http-warm"),
    "signals.signal_vector_us_p50": ("us", "gsm8k-http-warm"),
    "datasets.judge_generation_us_p50": ("us", "gsm8k-http-warm"),
    "datasets.load_dataset_s": ("s", "eval-8x10k"),
    "pipeline.evaluate_pair_s": ("s", "eval-8x10k"),
    "pipeline.write_json_s": ("s", "eval-8x10k"),
    "metrics.auroc_ms_p50": ("ms", "eval-8x10k"),
    "metrics.pgr_curve_ms_p50": ("ms", "eval-8x10k"),
    "metrics.coverage_accuracy_ms_p50": ("ms", "eval-8x10k"),
    "metrics.quintile_spread_ms_p50": ("ms", "eval-8x10k"),
    "metrics.case_means_ms_p50": ("ms", "eval-8x10k"),
    "metrics.spearman_ms_p50": ("ms", "eval-8x10k"),
    "routing.route_batch_ms": ("ms", "eval-8x10k"),
    "routing.abstain_batch_ms": ("ms", "eval-8x10k"),
    "trace.overhead_s": ("s", None),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def tree_bytes(path: Path, exclude: set[str] = frozenset()) -> int:
    """Bytes of the files under `path`, skipping its top-level `exclude`."""
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*")
               if p.is_file() and p.relative_to(path).parts[0] not in exclude)


def snapshot(out: Path) -> dict[str, bytes]:
    """Every artifact under `out` except the store, by relative path."""
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.relative_to(out).parts[0] != "store"
    }


def machine_record() -> dict:
    import numpy
    import requests
    import scipy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "requests": requests.__version__, "env_vars": len(os.environ),
        "platform": platform.platform(),
    }


# --- output checks ---------------------------------------------------------


def reference_auroc(scores: list[float], positives: list[bool]) -> float | None:
    """Mann-Whitney AUROC with midrank ties, computed with numpy."""
    import numpy as np

    s = np.asarray(scores, dtype=float)
    pos = np.asarray(positives, dtype=bool)
    n_pos = int(pos.sum())
    n_neg = len(s) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0
    rank_sum = float(midranks[inverse][pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def check_aurocs(out: Path) -> list[str]:
    """Every AUROC in the eval JSON against a recomputation from the
    signal records it was computed from."""
    failures = []
    evals = [p for p in sorted(out.glob("eval_*.json")) if p.name != "eval_aggregate.json"]
    if not evals:
        return [f"no eval JSON under {out}"]
    for path in evals:
        report = json.loads(path.read_text(encoding="utf-8"))
        pair = f"{report['generator_id']}__{report['verifier_id']}"
        records = [json.loads(line) for line in
                   (out / f"signals_{pair}.jsonl").read_text(encoding="utf-8").splitlines()]
        for name, sig in report["signals"].items():
            rows = [(r[name], r["generator_correct"]) for r in records
                    if r[name] is not None and r["generator_correct"] is not None]
            sign = -1.0 if name == "p_true" else 1.0
            expected = reference_auroc([sign * v for v, _ in rows], [not c for _, c in rows])
            got = sig["auroc"]
            if sig["n_scored"] != len(rows):
                failures.append(f"{pair} {name}: n_scored {sig['n_scored']} != {len(rows)}")
            elif (got is None) != (expected is None) or (
                    got is not None and abs(got - expected) > 1e-12):
                failures.append(f"{pair} {name}: auroc {got} != reference {expected}")
    return failures


def check_route_summary(out: Path, n: int, key: str) -> list[str]:
    path = out / "route_summary_log_cmp.json"
    if not path.exists():
        return [f"missing {path.name}"]
    expected = (3 * n // 10) / n
    return [
        f"{s['verifier_id']}: {key} {s.get(key)} != {expected}"
        for s in json.loads(path.read_text(encoding="utf-8"))
        if s.get(key) != expected
    ]


# --- processes ---------------------------------------------------------------


def wait_rusage(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Wait for `proc`; return (exit code, max RSS in KiB). Kills it after
    `timeout` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class LoopbackServer:
    def __init__(self, log) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"loopback server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Iteration:
    stage_s: list[tuple[str, float]] = field(default_factory=list)
    peak_rss_kb: int = 0
    failed_stages: int = 0
    attempted_stages: int = 0
    artifact_bytes: int = 0
    store_bytes: int = 0
    store_entries: int = 0
    server_requests: int = 0
    server_errors: int = 0
    server_ms: list[float] = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(s for _, s in self.stage_s)


class Bench:
    """One workload: its inputs, server, run directory and checks."""

    def __init__(self, workload: Workload, seed: int, root: Path, tiny: bool = False):
        self.w = workload
        self.seed = seed
        self.root = root
        self.n = workload.tiny_n if tiny else workload.n
        self.work = root / ".bench_work" / workload.name
        self.out = self.work / "run"
        self.server: LoopbackServer | None = None
        self.reference: dict[str, bytes] | None = None
        self.cold: Iteration | None = None  # the warm workload's set-up run
        self.keep: set[str] = set()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.log = None

    # --- setup ---

    def setup(self) -> float:
        """Write inputs, start the server and, for a warm workload, fill
        the store with one cold run. Returns the seconds it took."""
        self.close()
        self.reference = self.cold = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = open(self.work / "stages.log", "w", encoding="utf-8")
        t0 = time.perf_counter()
        dataset = self.work / "dataset.jsonl"
        ids = [inputs.GENERATOR] + list(
            inputs.HTTP_VERIFIERS if self.w.http else inputs.EVAL_VERIFIERS)
        if self.w.http:
            inputs.write_dataset(dataset, self.w.preset, self.n, self.seed)
            self.server = LoopbackServer(self.log)
            port = self.server.port
        else:
            inputs.write_eval_inputs(self.out, dataset, self.n, self.seed)
            port = 9  # never contacted: eval, route and report make no backend calls
        for backend_id in ids:
            inputs.write_backend_config(self.work / f"{backend_id}.json", backend_id, port)
        self.flags = ["--dataset", str(dataset), "--preset", self.w.preset,
                      "--generator", str(self.work / f"{ids[0]}.json"),
                      *[a for v in ids[1:] for a in ("--verifier", str(self.work / f"{v}.json"))],
                      "--out", str(self.out)]
        # What each pass keeps under --out: the warm store, the eval inputs.
        self.keep = {p.name for p in self.out.iterdir()} if not self.w.http else set()
        if self.w.warm:
            self.keep = {"store"}
            self.cold = self.run_iteration()
            self.reference = snapshot(self.out)
        return time.perf_counter() - t0

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.log is not None:
            self.log.close()
            self.log = None

    # --- one pass of the stage sequence ---

    def _reset_out(self) -> None:
        """Remove the previous pass's artifacts, keeping the inputs."""
        if not self.out.exists():
            return
        for p in self.out.iterdir():
            if p.name not in self.keep:
                shutil.rmtree(p) if p.is_dir() else p.unlink()

    def _argv(self, stage: tuple[str, ...], traced: bool) -> list[str]:
        head = ([sys.executable, str(HERE / "traced_cli.py")] if traced
                else [sys.executable, "-c", ENTRY])
        if stage[0] == "report":
            return head + ["report", str(self.out), "--out", str(self.out / "report")]
        return head + [stage[0], *self.flags, *stage[1:]]

    def run_iteration(self, traced: bool = False) -> Iteration:
        self._reset_out()
        it = Iteration()
        before = self.server.stats() if self.server else None
        for idx, stage in enumerate(self.w.stages):
            env = self.env
            if traced:
                env = dict(self.env, PERFBENCH_SPANS=str(self.work / f"spans_{idx}.json"))
            it.attempted_stages += 1
            t0 = time.perf_counter()
            proc = subprocess.Popen(self._argv(stage, traced), env=env, cwd=self.root,
                                    stdout=self.log, stderr=self.log)
            code, rss = wait_rusage(proc, STAGE_TIMEOUT_S)
            it.stage_s.append((stage[0], time.perf_counter() - t0))
            it.peak_rss_kb = max(it.peak_rss_kb, rss)
            if code != 0:
                it.failed_stages += 1
                it.failures.append(f"stage {' '.join(stage)} exited {code}")
                break
            if traced:
                _merge_spans(it.spans, json.loads((self.work / f"spans_{idx}.json").read_text()))
            if stage[0] == "route":
                # Both route stages write the same summary file; check each.
                key = "abstained_fraction" if "--abstain" in stage else "routed_fraction"
                it.failures += check_route_summary(self.out, self.n, key)
        if self.server:
            after = self.server.stats()
            it.server_requests = after["requests"] - before["requests"]
            it.server_errors = after["errors"] - before["errors"]
            it.server_ms = after["server_ms"][before["requests"]:]
        store = self.out / "store"
        it.store_bytes = tree_bytes(store)
        it.store_entries = len(list(store.rglob("*.entry")))
        it.artifact_bytes = tree_bytes(self.out, exclude=self.keep | {"store"})
        if not it.failed_stages:
            it.failures += self.check(it)
        return it

    # --- checks ---

    def check(self, it: Iteration) -> list[str]:
        failures = check_aurocs(self.out)
        if self.w.warm and self.reference is not None:
            if it.server_requests:
                failures.append(f"warm run sent {it.server_requests} requests to the server")
            now = snapshot(self.out)
            failures += [f"{rel} differs from the cold run"
                         for rel in sorted(set(now) | set(self.reference))
                         if now.get(rel) != self.reference.get(rel)]
        elif self.w.http:
            calls = 5 * self.n  # 3 backends generate, 2 verifiers score
            if it.server_errors or it.server_requests < calls:
                failures.append(f"server saw {it.server_requests} requests "
                                f"({it.server_errors} errors) for {calls} calls")
            failures += self._check_answers()
        if not self.w.http:
            corr = json.loads((self.out / "report" / "gap_correlation.json").read_text())
            if not any(c.get("method") == "exact_permutation" and c.get("n") == 8
                       for c in corr.values()):
                failures.append("report ran no exact Spearman test over 8 pairs")
        return failures

    def _check_answers(self) -> list[str]:
        """Answers as the server's models produce them."""
        failures = []
        rows = [json.loads(line) for line in
                (self.work / "dataset.jsonl").read_text(encoding="utf-8").splitlines()]
        max_tokens = 5 if self.w.preset == "mmlu" else 256
        for backend_id in [inputs.GENERATOR, *inputs.HTTP_VERIFIERS]:
            path = self.out / f"answers_{backend_id}.jsonl"
            got = {}
            for line in path.read_text(encoding="utf-8").splitlines():
                doc = json.loads(line)
                got[doc["instance_id"]] = doc["answer"]["text"]
            for row in rows:
                want = "".join(server.target_tokens(backend_id, row["prompt"])[:max_tokens])
                if got.get(row["id"]) != want:
                    failures.append(f"{path.name}: {row['id']} answer {got.get(row['id'])!r}")
                    break
        return failures


def _new_acc() -> dict:
    return {"count": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "returned_none": 0}


def _add(acc: dict, other: dict) -> None:
    for key in ("count", "total_s", "self_s", "returned_none"):
        acc[key] += other[key]
    acc["durations"] += other["durations"]


def _merge_spans(into: dict, spans: dict) -> None:
    for name, acc in spans.items():
        _add(into.setdefault(name, _new_acc()), acc)


# --- metrics -----------------------------------------------------------------


def end_to_end(iters: list[Iteration], setups: list[float]) -> dict[str, list[float]]:
    attempted = sum(i.attempted_stages for i in iters)
    return {
        "pipeline_s": [i.pipeline_s for i in iters],
        "setup_s": setups,
        "peak_rss_mb": [i.peak_rss_kb / 1024 for i in iters],
        "artifact_mb": [i.artifact_bytes / 1e6 for i in iters],
        "store_mb": [i.store_bytes / 1e6 for i in iters],
        "failed_stage_ratio": [sum(i.failed_stages for i in iters) / attempted],
    }


def per_layer(plain: list[Iteration], traced: list[Iteration],
              import_s: list[float]) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, number of samples behind it)."""
    spans: dict = {}
    for it in traced:
        _merge_spans(spans, it.spans)
    k = max(len(traced), 1)

    def group(prefix: str) -> dict:
        """All spans named `prefix` or `prefix.<anything>`, merged."""
        acc = _new_acc()
        for name, cur in spans.items():
            if name == prefix or name.startswith(prefix + "."):
                _add(acc, cur)
        return acc

    def p50(prefix: str, scale: float) -> tuple[float, int]:
        d = group(prefix)["durations"]
        return (statistics.median(d) * scale if d else 0.0), len(d)

    def per_iter(prefix: str, key: str, scale: float = 1.0) -> tuple[float, int]:
        g = group(prefix)
        return g[key] * scale / k, g["count"]

    out: dict[str, tuple[float, int]] = {"cli.import_s": (statistics.median(import_s), len(import_s))}
    for stage in ("generate", "signals", "eval", "route", "report"):
        walls = [sum(s for name, s in i.stage_s if name == stage) for i in plain
                 if any(name == stage for name, _ in i.stage_s)]
        out[f"cli.{stage}_s"] = (statistics.median(walls) if walls else 0.0, len(walls))
    calls = group("backend.http.call")
    server_ms = [ms for it in traced for ms in it.server_ms]
    call_p50 = statistics.median(calls["durations"]) * 1e3 if calls["durations"] else 0.0
    server_p50 = statistics.median(server_ms) if server_ms else 0.0
    gets = group("runstore.get")
    hits = gets["count"] - gets["returned_none"]
    entries = sum(i.store_entries for i in traced)
    out.update({
        "backend.http.calls": (calls["count"] / k, calls["count"]),
        "backend.http.call_ms_p50": (call_p50, calls["count"]),
        "backend.http.call_ms_p99": (percentile(calls["durations"], 99) * 1e3, calls["count"]),
        "backend.http.server_ms_p50": (server_p50, len(server_ms)),
        "backend.http.client_ms_p50": (call_p50 - server_p50, min(calls["count"], len(server_ms))),
        "backend.http.retries": (
            (sum(i.server_requests for i in traced) - calls["count"]) / k, len(server_ms)),
        "runstore.put_ms_p50": p50("runstore.put", 1e3),
        "runstore.misses": (gets["returned_none"] / k, gets["returned_none"]),
        "runstore.get_ms_p50": p50("runstore.get", 1e3),
        "runstore.hits": (hits / k, hits),
        "runstore.hit_ratio": (hits / gets["count"] if gets["count"] else 0.0, gets["count"]),
        "runstore.entry_kb_mean": (
            sum(i.store_bytes for i in traced) / entries / 1024 if entries else 0.0, entries),
        "serialize.decode_s": per_iter("serialize.decode", "total_s"),
        "serialize.encode_s": per_iter("serialize.encode", "total_s"),
        "pipeline.compute_signal_records_self_s": per_iter("pipeline.compute_signal_records", "self_s"),
        "signals.signal_vector_us_p50": p50("signals.signal_vector", 1e6),
        "datasets.judge_generation_us_p50": p50("datasets.judge_generation", 1e6),
        "datasets.load_dataset_s": per_iter("datasets.load_dataset", "total_s"),
        "pipeline.evaluate_pair_s": per_iter("pipeline.evaluate_pair", "total_s"),
        "pipeline.write_json_s": per_iter("pipeline.write_json", "total_s"),
        "routing.route_batch_ms": per_iter("routing.route_batch", "total_s", 1e3),
        "routing.abstain_batch_ms": per_iter("routing.abstain_batch", "total_s", 1e3),
        "trace.overhead_s": (
            statistics.median([i.pipeline_s for i in traced])
            - statistics.median([i.pipeline_s for i in plain]) if traced else 0.0, len(traced)),
    })
    for name in ("auroc", "pgr_curve", "coverage_accuracy", "quintile_spread",
                 "case_means", "spearman"):
        out[f"metrics.{name}_ms_p50"] = p50(f"metrics.{name}", 1e3)
    return out


def import_probe(bench: Bench) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import crossmodel.cli"], env=bench.env,
                   cwd=bench.root, check=True, timeout=STAGE_TIMEOUT_S)
    return time.perf_counter() - t0


# --- entry point ---------------------------------------------------------------


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Set up, then run the stage sequence (untraced, then traced when
    `trace`) until `seconds` have passed, at least once, and collect
    metrics."""
    setups = []
    plain: list[Iteration] = []
    traced: list[Iteration] = []
    for _ in range(1 if trace else bench.w.setups):
        setups.append(bench.setup())
        if bench.cold is not None and bench.cold.failures:
            plain.append(bench.cold)
            break
    start = time.perf_counter()
    while not (plain and plain[-1].failures or traced and traced[-1].failures):
        plain.append(bench.run_iteration())
        if trace:
            traced.append(bench.run_iteration(traced=True))
        if time.perf_counter() - start >= seconds:
            break
    iters = plain + traced
    result = {
        "end_to_end": end_to_end(plain, setups),
        "failures": [f for i in iters for f in i.failures],
        "attempted": sum(i.attempted_stages for i in iters),
        "failed": sum(i.failed_stages for i in iters),
    }
    if trace:
        import_s = [import_probe(bench) for _ in range(IMPORT_PROBES)]
        layers = per_layer(plain, traced, import_s)
        for name, (_, samples) in layers.items():
            if PER_LAYER[name][1] in (None, bench.w.name) and samples == 0:
                result["failures"].append(f"{name} received no samples")
        result["per_layer"] = layers
    return result


def report(workload: Workload, result: dict, trace: bool) -> dict:
    """Print every metric and return the metrics of the final JSON line."""
    print(f"workload {workload.name}")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    metrics = {}
    for name, values in result["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        q1, med, q3 = quartiles(values)
        print(f"  {name} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})")
        if name in BOUNDED:
            metrics[name] = {"value": med, "unit": unit}
    if trace:
        metrics = {}
        for name, (value, samples) in result["per_layer"].items():
            unit = PER_LAYER[name][0]
            print(f"  {name} {value:.6g} {unit}  (samples {samples})")
            metrics[name] = {"value": value, "unit": unit}
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "crossmodel" / "cli.py").is_file():
        print(f"error: {root} holds no crossmodel checkout (src/crossmodel)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, root)
    try:
        result = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)
    metrics = report(workload, result, bool(args.trace))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
