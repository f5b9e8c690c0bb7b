import hashlib
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodel import metrics
from crossmodel.backend import DecodeParams, EntropySupport, MockBackend, SeededModel
from crossmodel.errors import DataError, DegenerateInputError, UndefinedMetricError
from crossmodel.pipeline import (
    RunConfig,
    _cached,
    _labeled_columns,
    aggregate_reports,
    evaluate_pair,
    evaluate_signal,
    generate_answers,
    prepare_run,
    write_json,
)
from crossmodel.runstore import CacheKey, RunStore
from crossmodel.serialize import decode_json, generated_answer_from_dict
from crossmodel.signals import SignalRecord, signal_columns

from test_metrics import oracle_rescored


def decoded_answers(ctx, backend_id):
    """A backend's answers, decoded from the JSON generate_answers returns."""
    return {iid: generated_answer_from_dict(decode_json(data.decode("utf-8")))
            for iid, data in generate_answers(ctx, backend_id).items()}


def texts(answers):
    """The answer texts compute_signal_records takes for the verifier."""
    return {iid: answer.text for iid, answer in answers.items()}


def labeled_items(records, signal):
    """The records that carry `signal` as metrics items, from signal_columns:
    the LabeledScore form of the columns evaluate_signal ranks."""
    return [metrics.LabeledScore(*row) for row in zip(*signal_columns(records, signal))]


def rec(iid, log_cmp=None, cme=None, gen_ok=True, ver_ok=True):
    return SignalRecord(iid, log_cmp=log_cmp, cme=cme,
                        generator_correct=gen_ok, verifier_correct=ver_ok)


def balanced_records(n, gap_wrong=0):
    """Half wrong generator answers with top signal scores; verifier fixes
    all but gap_wrong of them."""
    records = []
    for k in range(n):
        wrong = k < n // 2
        records.append(
            rec(f"i{k:03d}", log_cmp=10.0 - k, gen_ok=not wrong,
                ver_ok=not (wrong and k < gap_wrong))
        )
    return records


# --- evaluate_signal edge handling ------------------------------------------------


def test_single_class_auroc_noted_not_fatal():
    records = [rec(f"i{k}", log_cmp=float(k), gen_ok=True) for k in range(6)]
    ev = evaluate_signal(records, "log_cmp", 0.05)
    assert ev.auroc is None
    assert "AUROC undefined" in ev.auroc_note
    assert ev.coverage_auc is not None  # other metrics still run


def test_absent_signal_column_reports_zero_scored():
    records = [rec(f"i{k}", log_cmp=float(k), cme=None) for k in range(4)]
    ev = evaluate_signal(records, "cme", 0.05)
    assert ev.n_scored == 0
    assert ev.auroc is None


def test_signal_columns_orient_p_true():
    records = [
        SignalRecord("a", p_true=0.9, generator_correct=True),
        SignalRecord("b", p_true=0.2, generator_correct=False),
    ]
    scores = {it.instance_id: it.score for it in labeled_items(records, "p_true")}
    assert scores["b"] > scores["a"]  # low p_true means more suspicious


def test_evaluate_pair_oracle_signal_gives_auroc_one():
    records = balanced_records(12)
    report = evaluate_pair(records, "g", "v", "d", "mmlu", ["log_cmp"], 0.05)
    assert report.signals["log_cmp"].auroc == 1.0
    assert report.weak_accuracy == 0.5
    assert report.strong_accuracy == 1.0


# --- coverage grid and the columnar metrics path ---------------------------------


def random_records(n, seed, *, strong=True, absent=0.0, unlabeled=0.0):
    """n records with heavily tied log_cmp and p_true values; a fraction
    `absent` of them lack both signals, a fraction `unlabeled` lack their
    generator label, and without `strong` every third record lacks its
    verifier label."""
    rng = random.Random(seed)
    records = []
    for k in range(n):
        present = rng.random() >= absent
        records.append(SignalRecord(
            f"i{rng.randrange(10 * n):05d}-{k}",
            log_cmp=float(rng.randrange(6)) if present else None,
            p_true=rng.randrange(5) / 4 if present else None,
            generator_correct=rng.random() < 0.6,
            verifier_correct=(rng.random() < 0.8) if strong or k % 3 else None,
        ))
        if unlabeled and rng.random() < unlabeled:
            records[-1].generator_correct = None
    return records


def grid(n):
    ks = []
    for i in range(1, 101):
        k = math.ceil(i * n / 100)
        if k not in ks:
            ks.append(k)
    return ks


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=0, max_value=2**16))
def test_coverage_points_sit_on_the_fixed_grid(n, seed):
    records = random_records(n, seed)
    ev = evaluate_signal(records, "log_cmp", 0.05)
    full = metrics.coverage_accuracy(labeled_items(records, "log_cmp"))
    points = [tuple(p) for p in ev.coverage_points]
    assert points == [full.points[k - 1] for k in grid(n)]
    assert len(points) <= 100
    if n <= 100:
        assert points == list(full.points)
    assert points[-1][0] == 1.0
    assert ev.coverage_auc == full.auc


def reference_eval(items, gap_floor):
    """evaluate_signal's fields from the public LabeledScore functions."""
    out = {"n_scored": len(items), "auroc": None, "apgr_raw": None, "apgr_normalized": None,
           "routing_excluded": None, "routing_note": None, "quintile_accuracies": None}
    try:
        out["auroc"] = metrics.auroc(items)
    except UndefinedMetricError:
        pass
    try:
        curve = metrics.pgr_curve(items, gap_floor=gap_floor)
    except DataError:
        out["routing_note"] = "strong labels absent; routing metrics skipped"
    except (UndefinedMetricError, DegenerateInputError) as exc:
        out["routing_note"] = str(exc)
    else:
        finite = lambda x: x if math.isfinite(x) else None
        out.update(apgr_raw=finite(curve.apgr_raw),
                   apgr_normalized=finite(curve.apgr_normalized),
                   routing_excluded=curve.excluded, routing_note=curve.excluded_reason)
        if math.isfinite(curve.apgr_normalized):
            oracle_raw = metrics.pgr_curve(oracle_rescored(items), gap_floor=0.0).apgr_raw
            assert curve.apgr_normalized == (curve.apgr_raw - 0.5) / (oracle_raw - 0.5)
    try:
        out["quintile_accuracies"] = metrics.quintile_spread(items)[0]
    except DegenerateInputError:
        pass
    out["coverage_auc"] = metrics.coverage_accuracy(items).auc
    return out


@pytest.mark.parametrize("case", [
    {"strong": True, "absent": 0.0},
    {"strong": False, "absent": 0.0},
    {"strong": True, "absent": 0.3},
    {"strong": True, "absent": 0.3, "unlabeled": 0.25},
])
@pytest.mark.parametrize("signal", ["log_cmp", "p_true"])
def test_columnar_path_equals_labeled_score_functions(case, signal):
    for seed in range(12):
        records = random_records(7 + 37 * seed, seed, **case)
        # records without a generator label are left out of every metric
        labeled = [r for r in records if r.generator_correct is not None]
        assert _labeled_columns(records, signal) == signal_columns(labeled, signal)
        ev = evaluate_signal(records, signal, 0.05)
        want = reference_eval(labeled_items(labeled, signal), 0.05)
        got = {key: getattr(ev, key) for key in want}
        assert got == want


# --- aggregation and the small-gap exclusion rule ------------------------------------


def test_small_gap_pair_excluded_from_apgr_mean_only():
    wide = evaluate_pair(balanced_records(12), "g", "v1", "d", "mmlu", ["log_cmp"], 0.05)
    # verifier fixes a single wrong answer out of 24: gap 1/24 ~ 0.042 < 5pp
    narrow = evaluate_pair(
        balanced_records(24, gap_wrong=11), "g", "v2", "d", "mmlu", ["log_cmp"], 0.05
    )
    assert narrow.gap == pytest.approx(1 / 24)
    assert narrow.signals["log_cmp"].routing_excluded is True
    assert math.isfinite(narrow.signals["log_cmp"].apgr_raw)
    agg = aggregate_reports([wide, narrow])
    sig = agg["per_signal"]["log_cmp"]
    assert sig["n_auroc_pairs"] == 2
    assert sig["n_apgr_pairs"] == 1  # the narrow pair is excluded
    assert sig["mean_apgr_raw"] == wide.signals["log_cmp"].apgr_raw
    assert agg["excluded_pairs"] and agg["excluded_pairs"][0]["verifier_id"] == "v2"


def test_eval_report_bytes_stable(tmp_path):
    """The exact eval JSON bytes of a fixed tied-score input. log_cmp
    covers all 60 records (gap 11/60); cme is absent on every sixth
    record, and on the other 50 the gap is 0.04, so it is excluded.
    All four label cells occur in both."""
    records = [
        SignalRecord(
            f"q{(k * 37) % 60:02d}",
            log_cmp=float((k * 7) % 4) + (0.0 if k % 3 else 0.5),
            cme=None if k % 6 == 0 else float(k % 5) / 4,
            generator_correct=k % 3 != 0,
            verifier_correct=k % 7 != 1,
        )
        for k in range(60)
    ]
    report = evaluate_pair(records, "g", "v", "d" * 64, "mmlu", ["log_cmp", "cme"], 0.05)
    assert report.signals["log_cmp"].routing_excluded is False
    assert report.signals["cme"].routing_excluded is True
    path = tmp_path / "eval.json"
    write_json(path, report.to_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "46781a92579ed720f21fedaac46ebdf6c4565389ec179c9048e2ec88c5927b11"
    )


def test_zero_gap_eval_json_is_strict_json(tmp_path):
    """Equal weak and strong labels leave APGR undefined: the eval JSON
    writes null, never a bare NaN, and keeps the reason."""
    records = [rec(f"i{k}", log_cmp=float(k), gen_ok=k % 2 == 0, ver_ok=k % 2 == 0)
               for k in range(10)]
    report = evaluate_pair(records, "g", "v", "d", "mmlu", ["log_cmp"], 0.05)
    path = tmp_path / "eval.json"
    write_json(path, report.to_dict())

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    sig = json.loads(path.read_text(), parse_constant=reject)["signals"]["log_cmp"]
    assert sig["apgr_raw"] is None and sig["apgr_normalized"] is None
    assert sig["routing_excluded"] is True
    assert sig["routing_note"] == "zero accuracy gap"


def test_aggregate_empty():
    agg = aggregate_reports([])
    assert agg["n_pairs"] == 0
    assert agg["per_signal"] == {}


# --- cached call helpers ------------------------------------------------------------


def test_cached_generate_hits_cache(tmp_path):
    store = RunStore(tmp_path)
    backend = MockBackend("m", SeededModel(1, 4))
    params = DecodeParams(max_new_tokens=3)
    key = CacheKey.for_generate("m", "Q", params)
    first = _cached(store, key, lambda: backend.generate("Q", params))
    second = _cached(store, key, lambda: backend.generate("Q", params))
    assert first == second
    assert backend.calls("generate") == 1


def test_cached_score_hits_cache(tmp_path):
    store = RunStore(tmp_path)
    backend = MockBackend("m", SeededModel(1, 4))
    key = CacheKey.for_score("m", "Q", " tok1")
    first = _cached(store, key, lambda: backend.score_sequence("Q", " tok1"))
    second = _cached(store, key, lambda: backend.score_sequence("Q", " tok1"))
    assert first == second
    assert backend.calls("score") == 1


# --- run preparation -------------------------------------------------------------------


def write_workspace(tmp_path, entropy=None):
    dataset = tmp_path / "d.jsonl"
    with dataset.open("w") as fh:
        for i in range(8):
            fh.write(json.dumps({
                "id": f"q{i}", "task_type": "multiple_choice",
                "prompt": f"Q{i}?", "gold": "ABCD"[i % 4],
            }) + "\n")
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"id": "g", "type": "mock", "seed": 1,
                               "vocab": [" A", " B", " C", " D"]}))
    ver_doc = {"id": "v", "type": "mock", "seed": 2, "vocab": [" A", " B", " C", " D"]}
    if entropy is not None:
        ver_doc["entropy"] = entropy
    ver = tmp_path / "ver.json"
    ver.write_text(json.dumps(ver_doc))
    return RunConfig(dataset=dataset, preset="mmlu", generator=gen,
                     verifiers=(ver,), out_dir=tmp_path / "run")


def test_verifier_without_entropy_leaves_cme_absent(tmp_path):
    from crossmodel.pipeline import compute_signal_records

    config = write_workspace(tmp_path, entropy="none")
    ctx = prepare_run(config)
    assert ctx.backends["v"].capabilities().entropy_support == EntropySupport.none()
    gen_answers = decoded_answers(ctx, "g")
    ver_answers = decoded_answers(ctx, "v")
    result = compute_signal_records(ctx, "v", gen_answers, texts(ver_answers))
    assert all(r.cme is None for r in result.records)
    assert all(r.log_cmp is not None for r in result.records)


def test_parallel_results_match_sequential(tmp_path):
    from crossmodel.pipeline import compute_signal_records
    import dataclasses

    base = write_workspace(tmp_path)
    seq_ctx = prepare_run(base)
    par_ctx = prepare_run(dataclasses.replace(base, parallel=4,
                                              out_dir=tmp_path / "run2"))
    seq = compute_signal_records(seq_ctx, "v", decoded_answers(seq_ctx, "g"),
                                 texts(decoded_answers(seq_ctx, "v")))
    par = compute_signal_records(par_ctx, "v", decoded_answers(par_ctx, "g"),
                                 texts(decoded_answers(par_ctx, "v")))
    assert seq.records == par.records
    assert seq.diagnostics == par.diagnostics


def test_parallel_diagnostics_lose_no_count(tmp_path):
    """Many workers raising the same reasons at once: every trial counts
    exactly what the serial run counts."""
    import dataclasses
    import sys

    from crossmodel.backend import GeneratedAnswer
    from crossmodel.datasets import GoldAnswer, Instance
    from crossmodel.pipeline import compute_signal_records

    serial = prepare_run(write_workspace(tmp_path))
    serial.instances = [
        Instance(f"q{i:03d}", "multiple_choice", f"Q{i}?", GoldAnswer("multiple_choice", letter="A"))
        for i in range(400)
    ]
    # An empty answer raises an extraction flag and empty_generation, and
    # is never scored, so the workers do nothing but judge and count.
    answers = {inst.instance_id: GeneratedAnswer("", "stop") for inst in serial.instances}
    expected = compute_signal_records(serial, "v", answers, texts(answers)).diagnostics
    assert expected == {"extraction_failure: no standalone answer letter found": 400,
                        "empty_generation": 400}
    parallel = dataclasses.replace(serial, config=dataclasses.replace(serial.config, parallel=8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = [compute_signal_records(parallel, "v", answers, texts(answers)).diagnostics
                  for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    assert counts == [expected] * 10


def test_numeric_cot_records_with_marker_answers(tmp_path, monkeypatch):
    """Scripted chain-of-thought answers carry an ANSWER: marker; the
    final-answer CMP restriction and gold judging both engage, on one scan
    of each answer for its final answer."""
    from collections import Counter

    from conftest import CorpusModel
    from crossmodel import datasets, pipeline, signals
    from crossmodel.backend import MockBackend
    from crossmodel.datasets import get_preset
    from crossmodel.pipeline import RunContext, compute_signal_records
    from crossmodel.datasets import Instance, GoldAnswer

    prompts = [f"Problem {i}." for i in range(6)]
    golds = [4, 9, 16, 25, 36, 49]
    produced = [4, 9, 11, 25, 6, 49]  # instances 2 and 4 are wrong
    answers = {
        p: f" work work ANSWER: {v}" for p, v in zip(prompts, produced)
    }
    wrong = {p for p, g, v in zip(prompts, golds, produced) if g != v}

    generator = MockBackend("g", CorpusModel(answers, 1.0), generations=answers)
    verifier = MockBackend(
        "v", CorpusModel(answers, lambda p: 0.05 if p in wrong else 0.95)
    )
    instances = [
        Instance(f"q{i}", "numeric_cot", p, GoldAnswer("numeric_cot", number=str(g)))
        for i, (p, g) in enumerate(zip(prompts, golds))
    ]
    config = RunConfig(
        dataset=tmp_path / "unused.jsonl", preset="gsm8k",
        generator=tmp_path / "unused.json", verifiers=(tmp_path / "unused2.json",),
    )
    ctx = RunContext(
        config=config, preset=get_preset("gsm8k"), instances=instances,
        generator_id="g", verifier_ids=["v"], backends={"g": generator, "v": verifier},
        config_hashes={"g": "g-config", "v": "v-config"}, store=RunStore(tmp_path / "store"),
        dataset_digest="d",
    )
    gen_answers, ver_texts = decoded_answers(ctx, "g"), texts(decoded_answers(ctx, "v"))
    scanned, scan = Counter(), signals.final_answer_span

    def counted_scan(text):
        scanned[text] += 1
        return scan(text)

    for module in (datasets, pipeline, signals):
        monkeypatch.setattr(module, "final_answer_span", counted_scan)
    result = compute_signal_records(ctx, "v", gen_answers, ver_texts)
    assert scanned == Counter([*(ans.text for ans in gen_answers.values()),
                               *ver_texts.values()])
    assert "final_answer_span_missing" not in result.diagnostics
    for rec, prompt, gold, value in zip(result.records, prompts, golds, produced):
        assert rec.log_cmp_final is not None
        assert rec.generator_correct == (gold == value)
        if prompt in wrong:
            assert rec.log_cmp > 1.0  # verifier suspicious of wrong traces
        else:
            assert rec.log_cmp < 0.2


def test_final_answer_diagnostics_counted(tmp_path):
    from crossmodel.pipeline import compute_signal_records

    dataset = tmp_path / "d.jsonl"
    with dataset.open("w") as fh:
        for i in range(4):
            fh.write(json.dumps({
                "id": f"q{i}", "task_type": "numeric_cot",
                "prompt": f"Compute {i}+{i}.", "gold": str(2 * i),
            }) + "\n")
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"id": "g", "type": "mock", "seed": 3}))
    ver = tmp_path / "ver.json"
    ver.write_text(json.dumps({"id": "v", "type": "mock", "seed": 4}))
    config = RunConfig(dataset=dataset, preset="gsm8k", generator=gen,
                       verifiers=(ver,), out_dir=tmp_path / "run")
    ctx = prepare_run(config)
    result = compute_signal_records(ctx, "v", decoded_answers(ctx, "g"),
                                    texts(decoded_answers(ctx, "v")))
    # mock babble has no ANSWER: marker: flagged, never silently backfilled
    assert result.diagnostics.get("final_answer_span_missing") == 4
    assert all(r.log_cmp_final is None for r in result.records)


ANSWER_PIECES = st.sampled_from(
    ["", " ", "\n", "ANSWER:", " ANSWER:", " so", " B", "(c)", " 7", "-3", " 1,234",
     "0.5", "\u0663", ",", "-", "."]
)


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(["gsm8k", "mmlu"]),
       texts=st.lists(st.lists(ANSWER_PIECES, max_size=10).map("".join), min_size=1, max_size=4))
@example(preset="gsm8k", texts=["ANSWER: 1,234 and 7", "   ", ""])
def test_random_answers_never_raise(tmp_path_factory, preset, texts):
    """Scripted generations of any shape become records; log_cmp_final is
    present exactly when the judge graded a number after the marker and
    the answer was scored, and it scores that number's tokens."""
    from crossmodel.datasets import GoldAnswer, Instance, extract_with_flags, get_preset
    from crossmodel.errors import ExtractionError
    from crossmodel.pipeline import RunContext, compute_signal_records
    from crossmodel.signals import SIGNAL_FIELDS, final_answer_span

    task_type = get_preset(preset).task_type
    gold = GoldAnswer(task_type, letter="B") if preset == "mmlu" else GoldAnswer(task_type, number="7")
    instances = [Instance(f"q{i}", task_type, f"Problem {i}.", gold) for i in range(len(texts))]
    generator = MockBackend("g", SeededModel(1, 8),
                            generations={inst.prompt: t for inst, t in zip(instances, texts)})
    verifier = MockBackend("v", SeededModel(2, vocab=[" 7", " B", " Yes", " No"]))
    tmp = tmp_path_factory.mktemp("random-answers")
    ctx = RunContext(
        config=RunConfig(dataset=tmp / "unused.jsonl", preset=preset, generator=tmp / "g.json",
                         verifiers=(tmp / "v.json",), signals=SIGNAL_FIELDS),
        preset=get_preset(preset), instances=instances,
        generator_id="g", verifier_ids=["v"], backends={"g": generator, "v": verifier},
        config_hashes={"g": "g-config", "v": "v-config"}, store=RunStore(tmp / "store"),
        dataset_digest="d",
    )
    answers = {inst.instance_id: generator.generate(inst.prompt, ctx.preset.decode)
               for inst in instances}
    result = compute_signal_records(ctx, "v", answers,
                                    {iid: answer.text for iid, answer in answers.items()})
    assert [r.instance_id for r in result.records] == [inst.instance_id for inst in instances]
    for rec, inst in zip(result.records, instances):
        text = answers[inst.instance_id].text
        try:
            graded = extract_with_flags(text, task_type)[1] == []
        except ExtractionError:
            graded = False
        scored = rec.log_cmp is not None
        assert (rec.log_cmp_final is not None) == (preset == "gsm8k" and graded and scored)
        if rec.log_cmp_final is not None:
            (start, end), _ = final_answer_span(text)
            lo, hi = len(inst.prompt) + start, len(inst.prompt) + end
            tokens = verifier.score_sequence(inst.prompt, text).token_scores
            nll = [-logprob for logprob, (start, end) in zip(tokens.logprobs, tokens.spans)
                   if end > lo and start < hi]
            assert rec.log_cmp_final == pytest.approx(sum(nll) / len(nll), rel=1e-12)
