"""Self-test of the benchmark at tiny n.

    python3 -m pytest perfbench -q

Run from the checkout root. It checks that every metric is printed with
its unit and matches BENCHMARK.json, and that the output checks catch a
corrupted artifact and a warm run that reaches the server.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


@pytest.fixture
def bench_of():
    made = []

    def factory(workload: str) -> run.Bench:
        bench = run.Bench(run.WORKLOADS[workload], seed=3, root=ROOT, tiny=True)
        made.append(bench)
        return bench

    yield factory
    for bench in made:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)


def test_benchmark_json_matches_the_script():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: run.END_TO_END_UNITS[name] for name in run.BOUNDED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, bench_of, capsys):
    result = run.measure(bench_of(workload), seconds=0, trace=True)
    assert result["failures"] == []
    units = dict(run.END_TO_END_UNITS, **{k: u for k, (u, _) in run.PER_LAYER.items()})
    for trace, names in ((False, run.BOUNDED), (True, run.PER_LAYER)):
        metrics = run.report(run.WORKLOADS[workload], result, trace)
        assert set(metrics) == set(names)
        assert all(m["unit"] == units[name] for name, m in metrics.items())
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in units:
            float(parts[1])
            printed[parts[0]] = parts[2]
    assert printed == units


def test_corrupted_eval_output_fails_the_auroc_check(bench_of):
    bench = bench_of("eval-8x10k")
    bench.setup()
    it = bench.run_iteration()
    assert it.failures == []
    path = sorted(bench.out.glob("eval_gen-small__*.json"))[0]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["signals"]["log_cmp"]["auroc"] += 1e-9
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert any("log_cmp: auroc" in f for f in bench.check(it))


def test_warm_checks_catch_changed_bytes_and_server_requests(bench_of):
    bench = bench_of("gsm8k-http-warm")
    bench.setup()
    it = bench.run_iteration()
    assert it.failures == [] and it.server_requests == 0

    answers = bench.out / "answers_gen-small.jsonl"
    answers.write_bytes(answers.read_bytes() + b"\n")
    assert bench.check(it) == ["answers_gen-small.jsonl differs from the cold run"]

    next((bench.out / "store" / "cache").rglob("*.entry")).unlink()
    it = bench.run_iteration()
    assert it.failures == ["warm run sent 1 requests to the server"]
