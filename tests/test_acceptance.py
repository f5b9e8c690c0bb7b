"""Acceptance suite: one test per release criterion, at pinned tolerances.

Tolerances are part of the contract:
  - AUROC sweep vs pairwise brute force: exact (zero tolerance)
  - APGR oracle endpoint: 1e-9; linear-curve baseline: 1e-9;
    enumeration cross-check: 1e-12
  - self-verification identity: 1e-12 in log space
  - uniform-entropy anchor: 1e-9
  - monotone-transform invariance and routing/metrics consistency: exact
"""

from __future__ import annotations

import json
import math
import os
import random
import time

import pytest

from crossmodel.backend import DecodeParams, MockBackend, SeededModel
from crossmodel.cli import cmd_eval, cmd_generate, cmd_signals, main
from crossmodel.metrics import (
    LabeledScore,
    auroc,
    coverage_accuracy,
    pgr_curve,
    quintile_spread,
)
from crossmodel.pipeline import RunConfig, evaluate_pair, prepare_run
from crossmodel.routing import RoutePolicy, abstain_batch, route_batch
from crossmodel.signals import SignalRecord, cme, cmp, g_ent, g_ppl, signal_vector

from conftest import CorpusModel, UniformModel
from test_metrics import (
    brute_apgr_raw, brute_auroc, brute_gap, linear_gap_items, oracle_rescored, random_labeled,
)


def seeded_items(rng, n_min=2, n_max=12, with_strong=False, require_gap=False):
    while True:
        items = random_labeled(rng, rng.randint(n_min, n_max), with_strong=with_strong)
        if not require_gap or abs(brute_gap(items)) >= 0.05:
            return items


# --- 1. AUROC oracle equivalence ---------------------------------------------------


def test_auroc_sweep_equals_bruteforce_on_1000_cases():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        items = seeded_items(rng)  # grid scores guarantee duplicates
        assert auroc(items) == brute_auroc(items)  # zero tolerance
    assert time.monotonic() - start < 5.0


# --- 2. APGR endpoints and random baseline ------------------------------------------


def test_apgr_oracle_normalized_is_one():
    rng = random.Random(202)
    for _ in range(50):
        items = seeded_items(rng, n_min=4, with_strong=True, require_gap=True)
        curve = pgr_curve(oracle_rescored(items))
        assert curve.apgr_normalized == pytest.approx(1.0, abs=1e-9)


def test_apgr_linear_curve_raw_is_half():
    for n in (3, 7, 50, 400):
        curve = pgr_curve(linear_gap_items(n))  # PGR of a(c)=a_w+c*gap
        assert [(c, pgr) for c, _, pgr in curve.points] == [(k / n, k / n) for k in range(n + 1)]
        assert curve.apgr_raw == pytest.approx(0.5, abs=1e-9)


def test_apgr_raw_matches_enumeration_on_200_cases():
    rng = random.Random(303)
    checked = 0
    while checked < 200:
        items = seeded_items(rng, with_strong=True)
        if brute_gap(items) == 0:
            continue
        curve = pgr_curve(items, gap_floor=0.0)
        assert curve.apgr_raw == pytest.approx(brute_apgr_raw(items), abs=1e-12)
        checked += 1


def test_apgr_anti_oracle_not_positive():
    rng = random.Random(404)
    seen = 0
    while seen < 25:
        items = seeded_items(rng, n_min=4, with_strong=True, require_gap=True)
        anti = [
            LabeledScore(it.instance_id, 1.0 - (0.0 if it.weak_correct else 1.0),
                         it.weak_correct, it.strong_correct)
            for it in items
        ]
        curve = pgr_curve(anti)
        if math.isnan(curve.apgr_normalized):
            continue
        assert curve.apgr_normalized <= 1e-9
        seen += 1


# --- 3. self-verification identity ----------------------------------------------------


def test_self_verification_identity_100_sequences():
    rng = random.Random(505)
    for case in range(100):
        backend = MockBackend("m", SeededModel(seed=case, vocab_size=rng.randint(2, 12)))
        prompt = f"prompt-{case}"
        out = backend.generate(prompt, DecodeParams(max_new_tokens=rng.randint(1, 8)))
        scored = backend.score_sequence(prompt, out.text)
        assert cmp(scored) == pytest.approx(g_ppl(out), abs=1e-12)


# --- 4. entropy bounds and uniform case -------------------------------------------------


def test_uniform_entropy_anchor_and_bounds():
    rng = random.Random(606)
    for vocab_size in (2, 4, 16):
        vocab = [f" u{i}" for i in range(vocab_size)]
        backend = MockBackend("m", UniformModel(vocab))
        for case in range(20):
            n_tokens = rng.randint(1, 6)
            answer = "".join(f" w{case}x{j}" for j in range(n_tokens))
            scored = backend.score_sequence("Q", answer)
            value = cme(scored)
            assert value == pytest.approx(math.log(vocab_size), abs=1e-9)
            assert 0.0 <= value <= math.log(vocab_size) + 1e-9
        # seeded (non-uniform) models stay within [0, ln V] too
        seeded = MockBackend("s", SeededModel(case, vocab_size))
        for case2 in range(20):
            scored = seeded.score_sequence(f"Q{case2}", " tok0 tok1")
            assert 0.0 <= cme(scored) <= math.log(vocab_size) + 1e-9


# --- 5. monotone-transform invariance ----------------------------------------------------


def quintile_assignment(items):
    ascending = list(reversed(sorted(items, key=lambda it: (-it.score, it.instance_id))))
    n = len(ascending)
    base, extra = divmod(n, 5)
    bins = []
    idx = 0
    for b in range(5):
        size = base + (1 if b < extra else 0)
        bins.append(frozenset(it.instance_id for it in ascending[idx : idx + size]))
        idx += size
    return bins


def test_exp_transform_changes_no_rank_metric_on_100_cases():
    rng = random.Random(707)
    checked = 0
    while checked < 100:
        items = seeded_items(rng, n_min=5, with_strong=True)
        if brute_gap(items) == 0:
            continue
        mapped = [
            LabeledScore(it.instance_id, math.exp(it.score), it.weak_correct, it.strong_correct)
            for it in items
        ]
        assert auroc(items) == auroc(mapped)
        assert pgr_curve(items, 0.0).apgr_raw == pgr_curve(mapped, 0.0).apgr_raw
        assert quintile_assignment(items) == quintile_assignment(mapped)
        assert quintile_spread(items) == quintile_spread(mapped)
        assert coverage_accuracy(items) == coverage_accuracy(mapped)
        checked += 1


# --- 6. routing/metrics consistency --------------------------------------------------------


def test_routing_matches_metrics_on_100_cases():
    rng = random.Random(808)
    for _ in range(100):
        items = seeded_items(rng, n_min=2, n_max=10, with_strong=True)
        n = len(items)
        records = [
            SignalRecord(it.instance_id, log_cmp=it.score,
                         generator_correct=it.weak_correct,
                         verifier_correct=it.strong_correct)
            for it in items
        ]
        weak_ans = {it.instance_id: "w" for it in items}
        strong_ans = {it.instance_id: "s" for it in items}
        curve = pgr_curve(items, gap_floor=2.0)  # points exact regardless of exclusion
        cov = coverage_accuracy(items)
        ascending = list(reversed(sorted(items, key=lambda it: (-it.score, it.instance_id))))
        for k in range(n + 1):
            policy = RoutePolicy("log_cmp", budget=k / n)
            routed = route_batch(policy, records, weak_ans, strong_ans)
            assert routed.routed_accuracy == curve.points[k][1]
            abstained = abstain_batch(policy, records)
            retained_ids = {
                d.instance_id for d in abstained.decisions if not d.routed_to_strong
            }
            # identical retained SET as the coverage curve's prefix, ties included
            assert retained_ids == {it.instance_id for it in ascending[: n - k]}
            if k < n:
                assert abstained.retained_accuracy == cov.points[n - k - 1][1]


# --- 7. confident-error selectivity ----------------------------------------------------------


def test_confident_errors_visible_to_verifier_not_generator():
    n = 200
    prompts = [f"Q{i:03d}?" for i in range(n)]
    wrong = {p for i, p in enumerate(prompts) if i % 10 < 3}  # 30% wrong
    answers = {p: f" reply{i} end{i}" for i, p in enumerate(prompts)}

    generator = MockBackend("gen", CorpusModel(answers, realized_prob=1.0),
                            generations=answers)
    verifier = MockBackend(
        "ver",
        CorpusModel(answers, realized_prob=lambda p: 0.01 if p in wrong else 0.9),
    )

    cmp_items, gent_items = [], []
    for prompt in prompts:
        out = generator.generate(prompt, DecodeParams(max_new_tokens=8))
        scored = verifier.score_sequence(prompt, out.text)
        rec = signal_vector(prompt, out, scored,
                            generator_correct=prompt not in wrong)
        assert rec.g_ent == 0.0  # generator is one-hot confident everywhere
        cmp_items.append(LabeledScore(prompt, rec.log_cmp, prompt not in wrong))
        gent_items.append(LabeledScore(prompt, rec.g_ent, prompt not in wrong))

    assert auroc(cmp_items) >= 0.95
    assert auroc(gent_items) == pytest.approx(0.5, abs=0.05)


# --- 8. weak-generator guard -------------------------------------------------------------------


def guard_report(accuracy: float):
    n = 100
    n_correct = round(accuracy * n)
    records = [
        SignalRecord(f"i{k:03d}", log_cmp=float(k % 7),
                     generator_correct=k < n_correct, verifier_correct=k % 2 == 0)
        for k in range(n)
    ]
    return evaluate_pair(records, "g", "v", "digest", "mmlu", ["log_cmp"], 0.05)


def test_weak_generator_guard_warns_at_4_percent():
    report = guard_report(0.04)
    assert report.guard == "warn"
    assert report.warnings
    # never blocks computation
    assert report.signals["log_cmp"].auroc is not None


def test_weak_generator_guard_ok_at_25_percent():
    report = guard_report(0.25)
    assert report.guard == "ok"
    assert report.warnings == []


# --- 9. cache transparency ------------------------------------------------------------------------


@pytest.fixture
def cli_workspace(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    vocab = [" A", " B", " C", " D", " Yes", " No"]
    with dataset.open("w", encoding="utf-8") as fh:
        for i in range(16):
            rec = {
                "id": f"q{i:03d}",
                "task_type": "multiple_choice",
                "prompt": f"Question {i}: pick a letter.",
                "gold": "ABCD"[i % 4],
            }
            fh.write(json.dumps(rec) + "\n")
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"id": "weak", "type": "mock", "seed": 5,
                                   "peak": 2.0, "vocab": vocab}))
    ver_cfg = tmp_path / "ver.json"
    ver_cfg.write_text(json.dumps({"id": "strong", "type": "mock", "seed": 6,
                                   "peak": 2.0, "vocab": vocab}))
    return RunConfig(
        dataset=dataset,
        preset="mmlu",
        generator=gen_cfg,
        verifiers=(ver_cfg,),
        signals=("log_cmp", "cme", "log_gppl", "g_ent", "p_true"),
        out_dir=tmp_path / "run",
    )


def run_pipeline(config):
    ctx = prepare_run(config)
    cmd_generate(ctx)
    cmd_signals(ctx)
    cmd_eval(ctx)
    calls = sum(b.calls() for b in ctx.backends.values())
    return ctx, calls


def test_second_run_is_cache_served_and_byte_identical(cli_workspace):
    ctx1, calls1 = run_pipeline(cli_workspace)
    assert calls1 > 0
    out = cli_workspace.out_dir
    eval_path = out / "eval_weak__strong.json"
    first_eval = eval_path.read_bytes()
    first_signals = (out / "signals_weak__strong.jsonl").read_bytes()
    first_aggregate = (out / "eval_aggregate.json").read_bytes()

    ctx2, calls2 = run_pipeline(cli_workspace)
    assert calls2 == 0  # fully cache-served: the mock logs saw nothing
    assert eval_path.read_bytes() == first_eval
    assert (out / "signals_weak__strong.jsonl").read_bytes() == first_signals
    assert (out / "eval_aggregate.json").read_bytes() == first_aggregate


# --- 10. end-to-end smoke over the HTTP protocol ----------------------------------------------------


def test_smoke_pipeline_over_local_echo_servers(tmp_path, fake_server):
    """Full pipeline against two in-process logprob-echo servers speaking
    the completions wire protocol; checks completion and finite outputs,
    no accuracy-ordering assertion."""
    letters = [" A", " B", " C", " D"]
    srv_a = fake_server(SeededModel(41, vocab=letters, peak=2.0))
    srv_b = fake_server(SeededModel(42, vocab=letters, peak=2.0))
    dataset = tmp_path / "dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as fh:
        for i in range(200):
            rec = {
                "id": f"q{i:03d}",
                "task_type": "multiple_choice",
                "prompt": f"Question {i}: pick a letter.",
                "gold": "ABCD"[i % 4],
            }
            fh.write(json.dumps(rec) + "\n")
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"id": "weak-live", "type": "http",
                                   "base_url": srv_a.url, "logprobs_k": 4}))
    ver_cfg = tmp_path / "ver.json"
    ver_cfg.write_text(json.dumps({"id": "strong-live", "type": "http",
                                   "base_url": srv_b.url, "logprobs_k": 4}))
    out = tmp_path / "run"
    flags = ["--dataset", str(dataset), "--preset", "mmlu",
             "--generator", str(gen_cfg), "--verifier", str(ver_cfg),
             "--out", str(out), "--parallel", "4"]
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    assert main(["eval", *flags]) == 0
    assert main(["report", str(out), "--out", str(tmp_path / "report")]) == 0
    report = json.loads((out / "eval_weak-live__strong-live.json").read_text())
    assert report["n"] == 200
    for name in ("log_cmp", "cme", "log_gppl", "g_ent"):
        sig = report["signals"][name]
        assert sig["n_scored"] == 200
        if sig["auroc"] is not None:
            assert math.isfinite(sig["auroc"])
        assert math.isfinite(sig["coverage_auc"])
    for name in ("metrics_summary.csv", "coverage_accuracy.csv", "quintiles.csv",
                 "case_means.csv", "gap_vs_auroc.csv"):
        assert (tmp_path / "report" / name).exists()


# --- optional smoke against real logprob-echo inference servers --------------------------------------


SMOKE_URL_A = os.environ.get("CROSSMODEL_SMOKE_URL_A")
SMOKE_URL_B = os.environ.get("CROSSMODEL_SMOKE_URL_B")


@pytest.mark.skipif(
    not (SMOKE_URL_A and SMOKE_URL_B),
    reason="set CROSSMODEL_SMOKE_URL_A/B to two completions endpoints with logprob echo",
)
def test_smoke_two_live_backends(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as fh:
        for i in range(200):
            rec = {
                "id": f"q{i:03d}",
                "task_type": "multiple_choice",
                "prompt": f"Q{i}: The answer letter (A, B, C, or D) closest to "
                          f"the number {i % 4} is\nAnswer:",
                "gold": "ABCD"[i % 4],
            }
            fh.write(json.dumps(rec) + "\n")
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "id": "live-weak", "type": "http", "base_url": SMOKE_URL_A,
        "logprobs_k": int(os.environ.get("CROSSMODEL_SMOKE_K", "20")),
        "model": os.environ.get("CROSSMODEL_SMOKE_MODEL_A"),
    }))
    ver_cfg = tmp_path / "ver.json"
    ver_cfg.write_text(json.dumps({
        "id": "live-strong", "type": "http", "base_url": SMOKE_URL_B,
        "logprobs_k": int(os.environ.get("CROSSMODEL_SMOKE_K", "20")),
        "model": os.environ.get("CROSSMODEL_SMOKE_MODEL_B"),
    }))
    out = tmp_path / "run"
    flags = ["--dataset", str(dataset), "--preset", "mmlu",
             "--generator", str(gen_cfg), "--verifier", str(ver_cfg),
             "--out", str(out), "--parallel", "4"]
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    assert main(["eval", *flags]) == 0
    assert main(["report", str(out), "--out", str(tmp_path / "report")]) == 0
    report = json.loads((out / "eval_live-weak__live-strong.json").read_text())
    sig = report["signals"]["log_cmp"]
    assert sig["n_scored"] == 200
    assert math.isfinite(sig["auroc"]) if sig["auroc"] is not None else True
    for name in ("metrics_summary.csv", "coverage_accuracy.csv", "quintiles.csv",
                 "case_means.csv", "gap_vs_auroc.csv"):
        assert (tmp_path / "report" / name).exists()
