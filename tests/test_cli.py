import csv
import dataclasses
import errno
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import crossmodel
import crossmodel.backend.http as http_mod

from crossmodel import pipeline, runstore, serialize
from crossmodel.backend import MockBackend, SeededModel, TokenScores
from crossmodel.cli import _decision_line, main
from crossmodel.routing import RouteDecision, RoutePolicy
from crossmodel.runstore import RunStore
from crossmodel.signals import final_answer_span

from conftest import CallableModel, CorpusModel, unclosed_resources

LETTERS = [" A", " B", " C", " D"]


def make_workspace(tmp_path):
    """Dataset plus two mock backend configs with different seeds."""
    dataset = tmp_path / "dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as fh:
        for i in range(24):
            rec = {
                "id": f"q{i:03d}",
                "task_type": "multiple_choice",
                "prompt": f"Question {i}: pick a letter.",
                "gold": "ABCD"[i % 4],
            }
            fh.write(json.dumps(rec) + "\n")
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(
        {"id": "weak-mock", "type": "mock", "seed": 11, "peak": 2.0, "vocab": LETTERS}
    ))
    ver_cfg = tmp_path / "ver.json"
    ver_cfg.write_text(json.dumps(
        {"id": "strong-mock", "type": "mock", "seed": 22, "peak": 2.0, "vocab": LETTERS}
    ))
    out = tmp_path / "run"
    return {"dataset": dataset, "gen": gen_cfg, "ver": ver_cfg, "out": out, "tmp": tmp_path}


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def run_flags(ws, *extra):
    return [
        "--dataset", str(ws["dataset"]),
        "--preset", "mmlu",
        "--generator", str(ws["gen"]),
        "--verifier", str(ws["ver"]),
        "--out", str(ws["out"]),
        *extra,
    ]


SIGNALS_FILE = "signals_weak-mock__strong-mock.jsonl"


def run_all_stages(ws):
    assert main(["generate", *run_flags(ws)]) == 0
    assert main(["signals", *run_flags(ws)]) == 0
    assert main(["eval", *run_flags(ws)]) == 0


def test_generate_writes_answer_files(workspace):
    assert main(["generate", *run_flags(workspace)]) == 0
    weak = workspace["out"] / "answers_weak-mock.jsonl"
    strong = workspace["out"] / "answers_strong-mock.jsonl"
    assert weak.exists() and strong.exists()
    assert len(weak.read_text().splitlines()) == 24
    # a fresh store holds cache entries only
    assert [p.name for p in (workspace["out"] / "store").iterdir()] == ["cache"]


def test_two_cold_generate_runs_leave_byte_identical_stores(workspace):
    """A store holds nothing that differs between runs, such as a wall-clock time."""
    trees = []
    for name in ("a", "b"):
        out = workspace["tmp"] / name
        assert main(["generate", *run_flags({**workspace, "out": out})]) == 0
        store = out / "store"
        trees.append({str(p.relative_to(store)): p.read_bytes()
                      for p in sorted(store.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1]


def test_generate_limit(workspace):
    assert main(["generate", *run_flags(workspace, "--limit", "10")]) == 0
    weak = workspace["out"] / "answers_weak-mock.jsonl"
    assert len(weak.read_text().splitlines()) == 10


def test_signals_before_generate_is_data_error(workspace):
    assert main(["signals", *run_flags(workspace)]) == 4


def test_missing_required_flags_is_config_error(workspace):
    assert main(["generate", "--preset", "mmlu"]) == 2


def test_unknown_signal_is_config_error(workspace):
    assert main(["generate", *run_flags(workspace, "--signals", "log_cmp,banana")]) == 2


def test_unreachable_backend_is_backend_error(workspace, monkeypatch):
    import crossmodel.backend.http as http_mod
    monkeypatch.setattr(http_mod, "RETRY_BASE_SLEEP", 0.01)
    dead = workspace["tmp"] / "dead.json"
    dead.write_text(json.dumps({
        "id": "dead", "type": "http", "base_url": "http://127.0.0.1:9/v1/completions",
        "logprobs_k": 5, "timeout": 0.2,
    }))
    flags = [
        "--dataset", str(workspace["dataset"]), "--preset", "mmlu",
        "--generator", str(dead), "--verifier", str(workspace["ver"]),
        "--out", str(workspace["out"]), "--limit", "1",
    ]
    assert main(["generate", *flags]) == 3


def test_whitespace_answer_is_counted_not_fatal(workspace):
    assert main(["generate", *run_flags(workspace)]) == 0
    answers = workspace["out"] / "answers_weak-mock.jsonl"
    docs = [json.loads(line) for line in answers.read_text().splitlines()]
    docs[0]["answer"] = {"text": "   ", "finish_reason": "stop", "generator_token_scores": None}
    answers.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert main(["signals", *run_flags(workspace)]) == 0
    path = workspace["out"] / "signals_weak-mock__strong-mock.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 24
    first = records[0]
    assert first["instance_id"] == docs[0]["instance_id"]
    assert all(first[s] is None for s in ("log_cmp", "cme", "log_gppl", "g_ent"))
    assert first["generator_correct"] is False
    assert first["verifier_correct"] in (True, False)
    assert all(rec["log_cmp"] is not None for rec in records[1:])
    diagnostics = json.loads(path.with_suffix(".diagnostics.json").read_text())
    assert diagnostics["degenerate_answer"] == 1
    assert "empty_generation" not in diagnostics


def test_signals_file_has_expected_fields(workspace):
    assert main(["generate", *run_flags(workspace)]) == 0
    assert main(["signals", *run_flags(workspace)]) == 0
    path = workspace["out"] / "signals_weak-mock__strong-mock.jsonl"
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 24
    for rec in lines:
        assert rec["log_cmp"] is not None
        assert rec["cme"] is not None
        assert rec["log_gppl"] is not None
        assert rec["g_ent"] is not None
        assert rec["generator_correct"] in (True, False)
        assert rec["verifier_correct"] in (True, False)


def test_corrupt_entry_is_recomputed(workspace, capsys):
    assert main(["generate", *run_flags(workspace)]) == 0
    assert main(["signals", *run_flags(workspace)]) == 0
    signals = workspace["out"] / SIGNALS_FILE
    first = signals.read_bytes()
    cache = workspace["out"] / "store" / "cache" / "strong-mock"
    entry = next(p for p in sorted(cache.glob("*.entry"))
                 if b'"type":"scored_sequence"' in p.read_bytes())
    good = entry.read_bytes()
    entry.write_bytes(good.replace(b'"type":"scored_sequence"', b'"type":"scored_sequencE"'))
    capsys.readouterr()
    assert main(["signals", *run_flags(workspace)]) == 0
    assert "recomputing" in capsys.readouterr().err
    assert signals.read_bytes() == first
    assert entry.with_suffix(".corrupt").exists()
    assert entry.read_bytes() == good


def test_generate_recomputes_an_entry_that_does_not_decode(workspace, capsys):
    from test_runstore import BAD_LOGPROB, framed

    assert main(["generate", *run_flags(workspace)]) == 0
    answers = workspace["out"] / "answers_weak-mock.jsonl"
    clean = answers.read_bytes()
    entry = sorted((workspace["out"] / "store" / "cache" / "weak-mock").glob("*.entry"))[0]
    good = entry.read_bytes()
    entry.write_bytes(framed(BAD_LOGPROB))
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 0
    assert "quarantined" in capsys.readouterr().err
    assert answers.read_bytes() == clean
    assert entry.with_suffix(".corrupt").read_bytes() == framed(BAD_LOGPROB)
    assert entry.read_bytes() == good


def as_row_form(entry):
    """Rewrites a cache entry with its token scores one object per token,
    as earlier releases wrote them."""
    from test_runstore import framed

    doc = json.loads(entry.read_bytes().split(b"\n")[1])
    for name in ("generator_token_scores", "token_scores"):
        columns = doc["data"].get(name) if isinstance(doc["data"], dict) else None
        if columns is not None:
            doc["data"][name] = rows_of(columns)
    entry.write_bytes(framed(json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                        ensure_ascii=False).encode("utf-8")))


def test_a_store_of_row_form_entries_gives_the_same_signals(workspace, monkeypatch):
    from crossmodel.backend import MockBackend

    run_all_stages(workspace)
    store = workspace["out"] / "store"
    entries = sorted(store.rglob("*.entry"))
    assert entries
    for entry in entries:
        as_row_form(entry)
        assert b'_scores":[{' in entry.read_bytes()

    def no_call(*args, **kwargs):
        raise AssertionError("backend called on a cache-served run")

    for method in ("generate", "_answer_token_scores", "_next_token_distribution"):
        monkeypatch.setattr(MockBackend, method, no_call)
    rerun = {**workspace, "out": workspace["tmp"] / "rerun"}
    for stage in ("generate", "signals"):
        assert main([stage, *run_flags(rerun, "--store", str(store))]) == 0
    assert not list(store.rglob("*.corrupt"))
    assert ((rerun["out"] / SIGNALS_FILE).read_bytes()
            == (workspace["out"] / SIGNALS_FILE).read_bytes())


def test_eval_report_structure(workspace):
    run_all_stages(workspace)
    report = json.loads((workspace["out"] / "eval_weak-mock__strong-mock.json").read_text())
    assert report["n"] == 24
    assert 0.0 <= report["weak_accuracy"] <= 1.0
    assert report["guard"] in ("ok", "warn")
    sig = report["signals"]["log_cmp"]
    assert sig["n_scored"] == 24
    assert sig["coverage_points"][-1][0] == 1.0
    aggregate = json.loads((workspace["out"] / "eval_aggregate.json").read_text())
    assert aggregate["n_pairs"] == 1
    assert "log_cmp" in aggregate["per_signal"]


def test_eval_is_deterministic_bytes(workspace):
    run_all_stages(workspace)
    path = workspace["out"] / "eval_weak-mock__strong-mock.json"
    first = path.read_bytes()
    assert main(["eval", *run_flags(workspace)]) == 0
    assert path.read_bytes() == first


def test_route_budget_extremes_match_eval_accuracies(workspace):
    run_all_stages(workspace)
    report = json.loads((workspace["out"] / "eval_weak-mock__strong-mock.json").read_text())
    assert main(["route", *run_flags(workspace), "--budget", "0"]) == 0
    summary = json.loads(
        (workspace["out"] / "route_summary_log_cmp.json").read_text()
    )[0]
    assert summary["routed_fraction"] == 0.0
    assert summary["routed_accuracy"] == report["weak_accuracy"]
    assert main(["route", *run_flags(workspace), "--budget", "1"]) == 0
    summary = json.loads(
        (workspace["out"] / "route_summary_log_cmp.json").read_text()
    )[0]
    assert summary["routed_fraction"] == 1.0
    assert summary["routed_accuracy"] == report["strong_accuracy"]


def test_route_decisions_file_sorted(workspace):
    run_all_stages(workspace)
    assert main(["route", *run_flags(workspace), "--budget", "0.5"]) == 0
    path = workspace["out"] / "route_strong-mock_log_cmp.jsonl"
    ids = [json.loads(l)["instance_id"] for l in path.read_text().splitlines()]
    assert ids == sorted(ids)


# Any text, lone surrogates and control characters included.
ANY_TEXT = st.text(st.characters(exclude_categories=()))


@settings(max_examples=500, deadline=None)
@given(
    instance_id=ANY_TEXT,
    routed=st.booleans(),
    signal_value=st.one_of(
        st.none(),
        st.integers(min_value=-2**70, max_value=2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    ),
    served=ANY_TEXT,
)
@example(instance_id='q"\\\x00\x1f\x7f\u00e9\u2028\ud800', routed=True,
         signal_value=2**53 + 1, served='\udfff"\\\n\t\U0001f600')
@example(instance_id="", routed=False, signal_value=-0.0, served="")
@example(instance_id="q", routed=True, signal_value=5e-324, served=" A")
@example(instance_id="q", routed=True, signal_value=1.7976931348623157e308, served=" A")
def test_decision_line_is_the_json_encoders_line(instance_id, routed, signal_value, served):
    decision = RouteDecision(instance_id, routed, signal_value, served)
    assert _decision_line(decision) == serialize._line(serialize.to_dict(decision)) + "\n"


def test_route_requires_exactly_one_policy_flag(workspace):
    run_all_stages(workspace)
    assert main(["route", *run_flags(workspace)]) == 2
    assert main(["route", *run_flags(workspace), "--budget", "0.5",
                 "--threshold", "1.0"]) == 2
    for invalid in (["--budget", "1.5"], ["--budget", "nan"], ["--threshold", "nan"]):
        assert main(["route", *run_flags(workspace), *invalid]) == 2


def test_abstain_mode(workspace):
    run_all_stages(workspace)
    assert main(["route", *run_flags(workspace), "--budget", "0.25", "--abstain"]) == 0
    summary = json.loads(
        (workspace["out"] / "route_summary_log_cmp.json").read_text()
    )[0]
    assert summary["mode"] == "abstain"
    assert summary["abstained_fraction"] == 0.25


@pytest.mark.parametrize("flags, policy", [
    (["--signal", "cme", "--budget", "0.25"], RoutePolicy("cme", budget=0.25)),
    (["--threshold", "1.75"], RoutePolicy("log_cmp", threshold=1.75)),
], ids=["budget", "threshold"])
def test_route_summary_policy_round_trips(workspace, flags, policy):
    run_all_stages(workspace)
    assert main(["route", *run_flags(workspace), *flags]) == 0
    path = workspace["out"] / f"route_summary_{policy.signal_name}.json"
    doc = json.loads(path.read_text())[0]["policy"]
    assert None not in doc.values()  # an unset threshold or budget is left out
    loaded = RoutePolicy.from_dict(doc)
    assert loaded == policy
    assert (loaded.threshold, loaded.budget) == (policy.threshold, policy.budget)


def test_limit_over_a_full_runs_files_equals_a_limited_run(workspace, tmp_path):
    run_all_stages(workspace)  # 24 instances
    limited = {**workspace, "out": tmp_path / "limited"}
    for stage in ("generate", "signals"):
        assert main([stage, *run_flags(limited, "--limit", "5")]) == 0
    for ws in (workspace, limited):
        assert main(["eval", *run_flags(ws, "--limit", "5")]) == 0
        assert main(["route", *run_flags(ws, "--limit", "5", "--budget", "0.3")]) == 0
    for name in ["eval_weak-mock__strong-mock.json", "eval_aggregate.json",
                 "route_summary_log_cmp.json", "route_strong-mock_log_cmp.jsonl"]:
        assert (workspace["out"] / name).read_bytes() == (limited["out"] / name).read_bytes()
    assert json.loads((limited["out"] / "eval_weak-mock__strong-mock.json").read_text())["n"] == 5


def test_eval_reads_signals_in_run_order(workspace):
    run_all_stages(workspace)
    eval_path = workspace["out"] / "eval_weak-mock__strong-mock.json"
    in_order = eval_path.read_bytes()
    signals = workspace["out"] / SIGNALS_FILE
    lines = signals.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    signals.write_text("".join(lines), encoding="utf-8")
    assert main(["eval", *run_flags(workspace)]) == 0
    assert eval_path.read_bytes() == in_order


@pytest.mark.parametrize("abstain", [[], ["--abstain"]])
def test_route_skips_instances_without_signal(workspace, capsys, abstain):
    # A top-3 echo over six tokens misses both " Yes" and " No" at some
    # verification positions, leaving p_true unresolvable there.
    workspace["ver"].write_text(json.dumps(
        {"id": "strong-mock", "type": "mock", "seed": 22, "peak": 2.0,
         "vocab": LETTERS + [" Yes", " No"], "entropy": 3}
    ))
    flags = run_flags(workspace, "--signals", "log_cmp,p_true")
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    diagnostics = json.loads(
        (workspace["out"] / "signals_weak-mock__strong-mock.diagnostics.json").read_text()
    )
    missing = diagnostics["ptrue_unresolvable"]
    assert 0 < missing < 24
    capsys.readouterr()
    assert main(["route", *flags, "--signal", "p_true", "--budget", "0.5", *abstain]) == 0
    assert f"{missing} of 24 instances lack signal 'p_true'" in capsys.readouterr().err
    weak = {
        json.loads(line)["instance_id"]: json.loads(line)["answer"]["text"]
        for line in (workspace["out"] / "answers_weak-mock.jsonl").read_text().splitlines()
    }
    path = workspace["out"] / "route_strong-mock_p_true.jsonl"
    decisions = [json.loads(line) for line in path.read_text().splitlines()]
    unsignalled = [d for d in decisions if d["signal_value"] is None]
    assert len(unsignalled) == missing
    assert all(not d["routed_to_strong"] for d in unsignalled)
    assert all(d["served_answer"] == weak[d["instance_id"]] for d in unsignalled)
    # the budget counts only the instances that carry the signal
    assert sum(d["routed_to_strong"] for d in decisions) == (24 - missing) // 2


@pytest.mark.parametrize("stage", [
    ["eval"], ["route", "--budget", "0.3"], ["route", "--budget", "0.3", "--abstain"],
])
@pytest.mark.parametrize("bad, reason", [
    ("NaN", "non-finite number NaN is not JSON"),
    ("Infinity", "non-finite number Infinity is not JSON"),
    ("1" + "0" * 400, "key 'log_cmp': expected a number, got an integer too large for a double"),
], ids=["NaN", "Infinity", "int_past_double"])
def test_non_finite_signal_is_data_error(workspace, capsys, stage, bad, reason):
    assert main(["generate", *run_flags(workspace)]) == 0
    assert main(["signals", *run_flags(workspace)]) == 0
    signals = workspace["out"] / "signals_weak-mock__strong-mock.jsonl"
    docs = [json.loads(line) for line in signals.read_text().splitlines()]
    docs[5]["log_cmp"] = json.loads(bad)
    signals.write_text("".join(json.dumps(d) + "\n" for d in docs))
    capsys.readouterr()
    assert main([stage[0], *run_flags(workspace), *stage[1:]]) == 4
    err = capsys.readouterr().err
    assert err == f"data error: {signals}:6: {reason}\n"
    for path in workspace["out"].rglob("*"):
        if path.is_file() and path != signals and "store" not in path.parts:
            data = path.read_bytes()
            assert b"NaN" not in data and b"Infinity" not in data


def test_report_merges_runs(workspace, tmp_path):
    run_all_stages(workspace)
    report_dir = tmp_path / "report"
    assert main(["report", str(workspace["out"]), "--out", str(report_dir)]) == 0
    with (report_dir / "metrics_summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and rows[0]["generator_id"] == "weak-mock"
    with (report_dir / "coverage_accuracy.csv").open() as fh:
        cov_rows = list(csv.DictReader(fh))
    assert cov_rows[-1]["coverage"] == "1.0"
    assert (report_dir / "gap_correlation.json").exists()


def test_eval_never_contacts_backends(workspace):
    # run the pipeline, then point eval at unreachable http configs with
    # the same backend ids: eval reads files only, so it must still pass
    run_all_stages(workspace)
    dead_gen = workspace["tmp"] / "dead_gen.json"
    dead_gen.write_text(json.dumps({
        "id": "weak-mock", "type": "http",
        "base_url": "http://127.0.0.1:9/v1/completions", "logprobs_k": 5,
    }))
    dead_ver = workspace["tmp"] / "dead_ver.json"
    dead_ver.write_text(json.dumps({
        "id": "strong-mock", "type": "http",
        "base_url": "http://127.0.0.1:9/v1/completions", "logprobs_k": 5,
    }))
    flags = [
        "--dataset", str(workspace["dataset"]), "--preset", "mmlu",
        "--generator", str(dead_gen), "--verifier", str(dead_ver),
        "--out", str(workspace["out"]),
    ]
    assert main(["eval", *flags]) == 0


def test_report_merges_two_runs(workspace, tmp_path):
    run_all_stages(workspace)
    # a second run over a different slice of the same dataset
    ws2 = dict(workspace, out=tmp_path / "run2")
    for stage in ("generate", "signals", "eval"):
        assert main([stage, *run_flags(ws2, "--limit", "12", "--seed", "3")]) == 0
    report_dir = tmp_path / "merged"
    assert main(["report", str(workspace["out"]), str(ws2["out"]),
                 "--out", str(report_dir)]) == 0
    with (report_dir / "gap_vs_auroc.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    runs = {r["run"] for r in rows}
    assert runs == {workspace["out"].name, "run2"}


def test_report_empty_run_set_writes_headers(tmp_path):
    report_dir = tmp_path / "report"
    assert main(["report", "--out", str(report_dir)]) == 0
    content = (report_dir / "metrics_summary.csv").read_text().splitlines()
    assert len(content) == 1
    assert content[0].startswith("run,generator_id,verifier_id")


def test_report_lists_missing_runs(tmp_path):
    report_dir = tmp_path / "report"
    ghost = tmp_path / "no-such-run"
    assert main(["report", str(ghost), "--out", str(report_dir)]) == 0
    missing = json.loads((report_dir / "missing_runs.json").read_text())
    assert missing == [str(ghost)]


def test_report_out_under_a_regular_file_is_one_data_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    capsys.readouterr()
    assert main(["report", "--out", str(blocker / "report")]) == 4
    csv_path = blocker / "report" / "metrics_summary.csv"
    assert capsys.readouterr().err == f"data error: {csv_path}: cannot write (Not a directory)\n"
    assert sorted(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def test_config_file_overrides_flags(workspace):
    cfg = workspace["tmp"] / "run_config.json"
    cfg.write_text(json.dumps({"limit": 2}))
    assert main(["generate", *run_flags(workspace, "--limit", "9",
                                        "--config", str(cfg))]) == 0
    weak = workspace["out"] / "answers_weak-mock.jsonl"
    assert len(weak.read_text().splitlines()) == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_preset_is_config_error(workspace, capsys, source):
    if source == "flag":
        argv = run_flags(workspace, "--preset", "banana")
    else:
        cfg = workspace["tmp"] / "run_config.json"
        cfg.write_text(json.dumps({"preset": "banana"}))
        argv = run_flags(workspace, "--config", str(cfg))
    capsys.readouterr()
    assert main(["generate", *argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: unknown preset 'banana'")
    assert not workspace["out"].exists()


class FinalNumberBlindBackend(MockBackend):
    """Scores every answer token but those over the graded final number."""

    def _answer_token_scores(self, prompt, answer):
        scores = super()._answer_token_scores(prompt, answer)
        (start, end), _ = final_answer_span(answer)
        lo, hi = len(prompt) + start, len(prompt) + end
        keep = [i for i, (s, e) in enumerate(scores.spans) if e <= lo or s >= hi]
        return TokenScores(*([column[i] for i in keep] for column in dataclasses.astuple(scores)))


def test_gsm8k_verifier_that_skips_the_final_number_is_counted_not_fatal(workspace, monkeypatch):
    prompts = [f"Problem {i}." for i in range(3)]
    with workspace["dataset"].open("w", encoding="utf-8") as fh:
        for i, prompt in enumerate(prompts):
            fh.write(json.dumps({"id": f"q{i}", "task_type": "numeric_cot", "prompt": prompt,
                                 "gold": "7"}) + "\n")
    answers = {prompt: f" so ANSWER: {6 + i}" for i, prompt in enumerate(prompts)}

    def build(cfg):
        blind = cfg.id == "strong-mock"
        return (FinalNumberBlindBackend if blind else MockBackend)(
            cfg.id, CorpusModel(answers, 0.5), generations=answers)

    monkeypatch.setattr(pipeline, "build_backend", build)
    flags = run_flags(workspace, "--preset", "gsm8k")
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    path = workspace["out"] / SIGNALS_FILE
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec["generator_correct"] for rec in records] == [False, True, False]
    assert all(rec["log_cmp"] is not None and rec["log_cmp_final"] is None for rec in records)
    diagnostics = json.loads(path.with_suffix(".diagnostics.json").read_text())
    assert diagnostics == {"final_answer_span_missing": 3}


def test_self_pair_allowed(workspace):
    flags = run_flags({**workspace, "ver": workspace["gen"]})
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    path = workspace["out"] / "signals_weak-mock__weak-mock.jsonl"
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert rec["log_cmp"] == pytest.approx(rec["log_gppl"], abs=1e-12)


def test_self_pair_calls_the_generator_handle_once_per_instance(workspace):
    from crossmodel.cli import cmd_generate, cmd_signals
    from crossmodel.pipeline import RunConfig, prepare_run

    ctx = prepare_run(RunConfig(dataset=workspace["dataset"], preset="mmlu",
                                generator=workspace["gen"], verifiers=(workspace["gen"],),
                                out_dir=workspace["out"]))
    try:
        assert cmd_generate(ctx) == 0 and cmd_signals(ctx) == 0
    finally:
        ctx.close()
    (backend,) = ctx.backends.values()
    assert backend.calls("generate") == backend.calls("score") == len(ctx.instances) == 24
    assert [p.name for p in workspace["out"].glob("answers_*")] == ["answers_weak-mock.jsonl"]


def test_self_pair_config_under_another_path_is_one_backend(workspace, tmp_path):
    copy = workspace["tmp"] / "gen-copy.json"
    copy.write_bytes(workspace["gen"].read_bytes())
    outputs = []
    for verifier, out in ((workspace["gen"], "same-path"), (copy, "copied")):
        ws = {**workspace, "out": tmp_path / out}
        for stage in ("generate", "signals", "eval"):
            assert main([stage, *run_flags({**ws, "ver": verifier})]) == 0
        outputs.append({p.name: p.read_bytes() for p in ws["out"].iterdir() if p.is_file()})
    assert outputs[0] == outputs[1]
    assert "signals_weak-mock__weak-mock.jsonl" in outputs[0]


@pytest.mark.parametrize("stage", ["generate", "signals", "eval"])
def test_instance_of_another_task_type_than_the_preset_is_config_error(workspace, capsys, stage):
    with workspace["dataset"].open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "q900", "task_type": "numeric_cot", "prompt": "2 + 2?",
                             "gold": "4"}) + "\n")
    capsys.readouterr()
    assert main([stage, *run_flags(workspace)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: instance 'q900' is numeric_cot, but preset 'mmlu' runs "
                   "multiple_choice\n")
    assert not workspace["out"].exists()


def test_backend_id_with_two_configs_is_config_error(workspace, capsys):
    other = workspace["tmp"] / "gen-other-seed.json"
    other.write_text(json.dumps({**json.loads(workspace["gen"].read_text()), "seed": 12}))
    capsys.readouterr()
    assert main(["generate", *run_flags({**workspace, "ver": other})]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: backend id 'weak-mock'")
    assert str(workspace["gen"]) in err[0] and str(other) in err[0]
    assert not workspace["out"].exists()


@pytest.mark.parametrize("stage, target", [
    pytest.param(["signals"], "answers_weak-mock.jsonl", id="signals-weak_answers"),
    pytest.param(["signals"], "answers_strong-mock.jsonl", id="signals-strong_answers"),
    pytest.param(["eval"], SIGNALS_FILE, id="eval-signals"),
    pytest.param(["route", "--budget", "0.3"], SIGNALS_FILE, id="route-signals"),
])
# q000 lies outside the --limit 5 subset: a repeated id is refused wherever it is
@pytest.mark.parametrize("limit", [[], ["--limit", "5"]], ids=["full", "limit"])
def test_repeated_instance_id_is_data_error(workspace, capsys, stage, target, limit):
    run_all_stages(workspace)
    path = workspace["out"] / target
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([*stage[:1], *run_flags(workspace, *limit), *stage[1:]]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: {path}: instance id 'q000' appears more than once"]


@pytest.mark.parametrize("source, flag, value", [
    *[("flag", flag, value) for flag, value in
      [("limit", -1), ("gap_floor", -0.1), ("gap_floor", "nan"), ("gap_floor", "inf"),
       ("parallel", 0)]],
    # a config file holds no NaN or infinity: its reader refuses them as not JSON
    ("config", "limit", -1), ("config", "gap_floor", -0.1), ("config", "parallel", 0),
])
def test_run_option_out_of_range_is_config_error(workspace, capsys, source, flag, value):
    if source == "flag":
        extra = [f"--{flag.replace('_', '-')}", str(value)]
    else:
        cfg = workspace["tmp"] / "run_config.json"
        cfg.write_text(json.dumps({flag: value}))
        extra = ["--config", str(cfg)]
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace, *extra)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag.replace('_', ' ')} must be ")
    assert len(err.splitlines()) == 1


def no_verifier(ws):
    return [a for a in run_flags(ws) if a not in ("--verifier", str(ws["ver"]))]


def two_verifiers_with_one_id(ws):
    twin = ws["tmp"] / "ver-twin.json"
    twin.write_bytes(ws["ver"].read_bytes())
    return run_flags(ws, "--verifier", str(twin))


def generator_config(**fields):
    def flags(ws):
        ws["gen"].write_text(json.dumps({**json.loads(ws["gen"].read_text()), **fields}))
        return run_flags(ws)
    return flags


@pytest.mark.parametrize("flags, message", [
    (no_verifier, "at least one --verifier is required"),
    (two_verifiers_with_one_id, "verifier backend ids must be distinct"),
    (generator_config(type="banana"), "unknown backend type 'banana'"),
    (generator_config(score_max_tokens=2), "score_max_tokens must be 0 or 1"),
], ids=["no_verifier", "two_verifiers_one_id", "unknown_backend_type", "score_max_tokens_2"])
def test_refused_run_config_is_one_config_error_line(workspace, capsys, flags, message):
    argv = ["generate", *flags(workspace)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith("config error: ") and err.rstrip().endswith(message), err


def test_limit_zero_is_data_error(workspace, capsys):
    assert main(["generate", *run_flags(workspace, "--limit", "0")]) == 4
    assert "no instances to run" in capsys.readouterr().err


def python_env():
    """The environment of a fresh interpreter that imports this crossmodel."""
    src = str(Path(crossmodel.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_python(code):
    """Stdout of `code` run by a fresh interpreter that imports this crossmodel."""
    out = subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


@pytest.mark.parametrize("module", [
    "scipy",  # no longer a dependency of the package
    "requests",  # no longer a dependency of the package
    "http.client",  # only the HTTP backend's calls need it
    "numpy",  # only the stages that compute a metric need it
])
def test_cli_import_leaves_module_unloaded(module):
    code = f"import sys, crossmodel.cli; print({module!r} in sys.modules)"
    assert run_python(code).strip() == "False"


def test_only_metric_stages_load_numpy(workspace):
    """generate, signals, threshold routing and a report with 2 pairs per
    signal (too few for the gap correlation) never import numpy; eval and
    budget routing do."""
    ver2 = workspace["tmp"] / "ver2.json"
    ver2.write_text(json.dumps(
        {"id": "other-mock", "type": "mock", "seed": 33, "peak": 2.0, "vocab": LETTERS}
    ))
    flags = run_flags(workspace, "--verifier", str(ver2))
    report_dir = workspace["tmp"] / "report"
    stages = {
        "generate": ["generate", *flags],
        "signals": ["signals", *flags],
        "eval": ["eval", *flags],
        "route_threshold": ["route", *flags, "--threshold", "0.5"],
        "route_budget": ["route", *flags, "--budget", "0.3"],
        "report": ["report", str(workspace["out"]), "--out", str(report_dir)],
    }
    loaded = {}
    for name, argv in stages.items():
        code = ("import sys; from crossmodel.cli import main; code = main(" + repr(argv) + "); "
                "print(code, 'numpy' in sys.modules)")
        code_out, numpy_loaded = run_python(code).splitlines()[-1].split()
        assert code_out == "0", name
        loaded[name] = numpy_loaded == "True"
    assert loaded == {"generate": False, "signals": False, "eval": True,
                      "route_threshold": False, "route_budget": True, "report": False}
    notes = json.loads((report_dir / "gap_correlation.json").read_text())
    assert notes and all(v == {"note": "only 2 pairs; need 3"} for v in notes.values())


def test_report_of_twelve_pairs_needs_no_scipy(tmp_path):
    """A gap correlation over 9 or more pairs takes the t-approximation, which
    runs with scipy unimportable; its p-values are scipy's to 1e-10."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    for k in range(12):
        gap = 0.05 * (k + 1)
        aurocs = {"log_cmp": 0.5 + 0.01 * (k * 5 % 12),
                  "log_gppl": 0.9 - 0.02 * k + 0.03 * (k % 3)}
        signals = {name: {"signal": name, "n_scored": 100, "auroc": auroc}
                   for name, auroc in aurocs.items()}
        doc = {"generator_id": f"gen{k:02d}", "verifier_id": "ver", "dataset_digest": "d",
               "preset": "mmlu", "n": 100, "weak_accuracy": 0.3, "strong_accuracy": 0.3 + gap,
               "gap": gap, "guard": "ok", "warnings": [], "signals": signals}
        (run_dir / f"eval_gen{k:02d}__ver.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = ["report", str(run_dir), "--out", str(tmp_path / "report")]
    code = ('import sys; sys.modules["scipy"] = None; from crossmodel.cli import main; '
            f'print(main({argv!r}))')
    assert run_python(code).splitlines()[-1] == "0"
    result = json.loads((tmp_path / "report" / "gap_correlation.json").read_text())
    assert {name: sig["method"] for name, sig in result.items()} == {
        "log_cmp": "t_approximation", "log_gppl": "t_approximation"}
    # rho and p as scipy's stats.t.sf gave them for these twelve pairs
    for name, rho, p in [("log_cmp", 31 / 143, 0.4985559855241886),
                         ("log_gppl", -127 / 143, 0.00011413359814618072)]:
        assert result[name]["rho"] == pytest.approx(rho, rel=1e-12)
        assert result[name]["p_value"] == pytest.approx(p, rel=1e-10, abs=0)


@pytest.mark.parametrize("package", [crossmodel, crossmodel.backend],
                         ids=lambda package: package.__name__)
def test_package_names_resolve(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert all(getattr(package, name) is namespace[name] for name in package.__all__)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_name


def test_package_submodules_load_on_first_use():
    code = ("import sys, crossmodel; print(crossmodel.metrics.__name__, "
            "crossmodel.routing.__name__, 'numpy' in sys.modules)")
    assert run_python(code).split() == ["crossmodel.metrics", "crossmodel.routing", "True"]


@pytest.mark.parametrize("answers", ["answers_weak-mock.jsonl", "answers_strong-mock.jsonl"])
def test_answers_file_missing_an_instance_is_data_error(workspace, capsys, answers):
    assert main(["generate", *run_flags(workspace)]) == 0
    path = workspace["out"] / answers
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["signals", *run_flags(workspace)]) == 4
    assert f"{path}: no answer for 1 instance(s), first 'q023'" in capsys.readouterr().err


def test_http_stages_close_their_connections(workspace, fake_server):
    """Each stage closes its backends' keep-alive connections, also those
    its worker threads opened, before it returns."""
    for name, seed in (("gen", 11), ("ver", 22)):
        server = fake_server(SeededModel(seed, vocab=LETTERS, peak=2.0), keep_alive=True)
        doc = json.loads(workspace[name].read_text())
        workspace[name].write_text(json.dumps(
            {"id": doc["id"], "type": "http", "base_url": server.url, "logprobs_k": 4}
        ))
    with unclosed_resources() as unclosed:
        for stage in ("generate", "signals"):
            assert main([stage, *run_flags(workspace, "--parallel", "3")]) == 0
    assert unclosed == []


def truncate(line):
    return line[: len(line) // 2]


def drop_key(key, nested=None):
    def edit(line):
        doc = json.loads(line)
        del (doc[nested] if nested else doc)[key]
        return json.dumps(doc)
    return edit


def set_key(key, value):
    def edit(line):
        doc = json.loads(line)
        doc[key] = value
        return json.dumps(doc)
    return edit


def set_in_answer(value, *path):
    """Sets the value at `path` below a line's "answer" object."""
    def edit(line):
        doc = json.loads(line)
        node = doc["answer"]
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        return json.dumps(doc)
    return edit


def rows_of(columns):
    """Token score columns as the rows of earlier releases, one object per token."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def as_rows(line):
    """An answers line with its token scores in the row form."""
    doc = json.loads(line)
    doc["answer"]["generator_token_scores"] = rows_of(doc["answer"]["generator_token_scores"])
    return json.dumps(doc)


def set_in_token(value, column, form):
    """Sets `column` of an answer's first token score, written in `form`."""
    if form == "columns":
        return set_in_answer(value, "generator_token_scores", column, 0)
    edit = set_in_answer(value, "generator_token_scores", 0, column)
    return lambda line: edit(as_rows(line))


# stage name -> (arguments, file it reads, edit that drops a required key)
READERS = {
    "signals": (["signals"], "answers_weak-mock.jsonl", drop_key("text", "answer")),
    "eval": (["eval"], SIGNALS_FILE, drop_key("instance_id")),
    "route": (["route", "--budget", "0.3"], "answers_strong-mock.jsonl",
              drop_key("text", "answer")),
    "abstain": (["route", "--budget", "0.3", "--abstain"], "answers_weak-mock.jsonl",
                drop_key("instance_id")),
}
MALFORMED_LINES = [
    pytest.param(stage, target,
                 {"truncated": truncate, "missing_key": missing, "not_an_object": json.dumps}[defect],
                 id=f"{defect}-{name}")
    for defect in ("truncated", "missing_key", "not_an_object")
    for name, (stage, target, missing) in READERS.items()
] + [
    # a signals line whose values have the wrong JSON type
    pytest.param(READERS[name][0], SIGNALS_FILE, set_key(key, value), id=f"{defect}-{name}")
    for defect, key, value in [("string_signal", "log_cmp", "high"),
                               ("string_label", "generator_correct", "no")]
    for name in ("eval", "route", "abstain")
] + [
    # a generator answer whose values the record type rejects
    pytest.param(["signals"], "answers_weak-mock.jsonl", set_in_answer("eos", "finish_reason"),
                 id="unknown_finish_reason-signals")
] + [
    # ... in its first token score, written as columns or as the rows of earlier releases
    pytest.param(["signals"], "answers_weak-mock.jsonl", set_in_token(value, column, form),
                 id=f"{defect}-signals" if form == "columns" else f"{defect}-rows-signals")
    for form in ("columns", "rows")
    for defect, column, value in [
        ("positive_logprob", "logprob", 0.5),
        ("string_logprob", "logprob", "low"),
        ("infinite_entropy", "entropy", float("inf")),
        ("empty_span", "char_span", [5, 5]),
        ("three_element_span", "char_span", [3, 4, 5]),
        ("string_span", "char_span", ["3", "5"]),
        ("number_token_text", "token_text", 5),
    ]
]


@pytest.mark.parametrize("stage, target, edit", MALFORMED_LINES)
def test_malformed_jsonl_line_is_data_error(workspace, capsys, stage, target, edit):
    run_all_stages(workspace)
    path = workspace["out"] / target
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([stage[0], *run_flags(workspace), *stage[1:]]) == 4
    assert f"{path}:3" in capsys.readouterr().err


@pytest.mark.parametrize("stage", [["signals"], ["route", "--budget", "0.3"]],
                         ids=["signals", "route"])
@pytest.mark.parametrize("instance_id, kind", [(["q002"], "list"), (2, "int")],
                         ids=["array", "number"])
def test_answers_line_whose_instance_id_is_no_string_is_data_error(workspace, capsys, stage,
                                                                   instance_id, kind):
    run_all_stages(workspace)
    path = workspace["out"] / "answers_weak-mock.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = set_key("instance_id", instance_id)(lines[2])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([stage[0], *run_flags(workspace), *stage[1:]]) == 4
    assert capsys.readouterr().err == (
        f"data error: {path}:3: instance_id must be a string, got {kind}\n")


def run_signals_reader(workspace, name):
    """Runs the stage `name` of READERS, which reads the signals file."""
    stage = READERS[name][0]
    return main([stage[0], *run_flags(workspace), *stage[1:]])


@pytest.mark.parametrize("name", ["eval", "route", "abstain"])
@pytest.mark.parametrize("edits, reason", [
    pytest.param({2: set_key("generator_correct", "no"), 4: truncate},
                 "key 'generator_correct': expected a boolean or null, got a string",
                 id="wrong_type-then-truncated"),
    pytest.param({2: truncate, 4: set_key("generator_correct", "no")}, "invalid JSON (",
                 id="truncated-then-wrong_type"),
    pytest.param({2: set_key("verifier_correct", 1), 4: set_key("log_cmp", "high")},
                 "key 'verifier_correct': expected a boolean or null, got a number",
                 id="later_column-on-earlier_line"),
    pytest.param({2: drop_key("instance_id"), 4: set_key("cme", True)},
                 "missing key 'instance_id'", id="missing_key-then-wrong_type"),
])
def test_first_faulty_signals_line_is_named(workspace, capsys, name, edits, reason):
    """The signals file is checked column by column, yet the fault named is
    the first in file order, whatever the kind of each fault."""
    run_all_stages(workspace)
    path = workspace["out"] / SIGNALS_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    for at, edit in edits.items():
        lines[at] = edit(lines[at])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_signals_reader(workspace, name) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}:3: {reason}") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("name", ["route", "abstain"])
def test_integer_signal_is_routed_as_written(workspace, name):
    run_all_stages(workspace)
    path = workspace["out"] / SIGNALS_FILE
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = set_key("log_cmp", 2)(lines[2])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_signals_reader(workspace, name) == 0
    decisions = (workspace["out"] / "route_strong-mock_log_cmp.jsonl").read_text().splitlines()
    iid = json.loads(lines[2])["instance_id"]
    line = next(d for d in decisions if json.loads(d)["instance_id"] == iid)
    assert line.endswith('"signal_value": 2}')


@pytest.mark.parametrize("name", ["eval", "route", "abstain"])
def test_absent_optional_keys_read_as_nulls(workspace, name):
    """A hand-written signals file that leaves out its null keys, holds a key
    of no field and a blank line gives the same outputs as the file written."""
    run_all_stages(workspace)
    path = workspace["out"] / SIGNALS_FILE
    written = path.read_text(encoding="utf-8")

    def outputs():
        assert run_signals_reader(workspace, name) == 0
        return {p.name: p.read_bytes() for p in workspace["out"].iterdir()
                if p.is_file() and p != path}

    expected = outputs()
    docs = [json.loads(line) for line in written.splitlines()]
    assert all(doc["log_cmp_final"] is None and doc["p_true"] is None for doc in docs)
    lines = [json.dumps({key: value for key, value in doc.items() if value is not None})
             for doc in docs]
    lines[1] = set_key("note", "written by hand")(lines[1])
    lines.insert(4, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outputs() == expected


def test_answers_files_of_earlier_releases_give_the_same_signals(workspace):
    run_all_stages(workspace)
    signals = workspace["out"] / SIGNALS_FILE
    first = signals.read_bytes()
    for path in workspace["out"].glob("answers_*.jsonl"):
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(as_rows(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["signals", *run_flags(workspace)]) == 0
    assert signals.read_bytes() == first


def test_empty_generator_scores_leave_only_that_instances_generator_signals_null(workspace):
    run_all_stages(workspace)
    signals = workspace["out"] / SIGNALS_FILE
    before = [json.loads(line) for line in signals.read_text(encoding="utf-8").splitlines()]
    answers = workspace["out"] / "answers_weak-mock.jsonl"
    lines = answers.read_text(encoding="utf-8").splitlines()
    lines[2] = set_in_answer([], "generator_token_scores")(lines[2])
    answers.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["signals", *run_flags(workspace)]) == 0
    after = [json.loads(line) for line in signals.read_text(encoding="utf-8").splitlines()]
    edited = json.loads(lines[2])["instance_id"]
    assert [r["instance_id"] for r in after] == [r["instance_id"] for r in before]
    for old, new in zip(before, after):
        if old["instance_id"] == edited:
            assert old["log_gppl"] is not None and old["g_ent"] is not None
            assert new["log_gppl"] is None and new["g_ent"] is None
            old = {**old, "log_gppl": None, "g_ent": None}
        assert new == old


# --- cache writes -------------------------------------------------------------------


def test_cache_served_rerun_starts_no_writer_thread(workspace):
    code = (
        "import threading\n"
        "from crossmodel.cli import main\n"
        "for stage in ('generate', 'signals'):\n"
        f"    assert main([stage, *{run_flags(workspace)!r}]) == 0\n"
        "print(any(t.name == 'crossmodel-entry-writer' for t in threading.enumerate()))\n"
    )
    assert run_python(code).splitlines()[-1] == "True"  # the cold run puts
    assert run_python(code).splitlines()[-1] == "False"


def fail_one_entry_write(monkeypatch):
    """Makes the first cache entry write fail as on a full disk; returns
    the list that receives its path."""
    RunStore.flush()
    real_write = runstore._atomic_write
    failed = []

    def full_disk(path, data):
        if path.suffix == ".entry" and not failed:
            failed.append(path)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        real_write(path, data)

    monkeypatch.setattr(runstore, "_atomic_write", full_disk)
    return failed


def test_failed_cache_write_is_exit_4(workspace, capsys, monkeypatch):
    failed = fail_one_entry_write(monkeypatch)
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"data error: cannot write cache entry {failed[0]}: ")
    assert "No space left on device" in err[0]
    # every other entry was still written
    assert len(list((workspace["out"] / "store" / "cache").rglob("*.entry"))) == 2 * 24 - 1


def failing_part_way(fake_server, after):
    """A fake completions server that refuses with 429 (Retry-After 0), as
    often as the client retries, the request that follows the one for the
    prompt of instance `after - 1`; it fails once."""
    base = SeededModel(7, vocab=LETTERS, peak=2.0)
    armed = [True]

    def distribution(context):
        if armed[0] and context.startswith(f"Question {after - 1}:"):
            armed[0] = False
            server.fail_next = http_mod.RETRY_ATTEMPTS
        return base.distribution(context)

    server = fake_server(CallableModel(distribution))
    server.fail_status, server.retry_after = 429, "0"
    return server


def use_http_generator(workspace, server):
    workspace["gen"].write_text(json.dumps(
        {"id": "weak-http", "type": "http", "base_url": server.url, "logprobs_k": 4}
    ))


def test_rejected_request_ends_generate_with_one_backend_error_line(workspace, capsys,
                                                                    fake_server):
    server = fake_server(SeededModel(7, vocab=LETTERS, peak=2.0))
    server.fail_next, server.fail_status = 1, 400
    use_http_generator(workspace, server)
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 3
    err = capsys.readouterr().err
    assert err == "backend error: request rejected 400: injected failure\n"
    assert len(server.requests) == 1


def use_http_verifier(workspace, server):
    workspace["ver"].write_text(json.dumps(
        {"id": "strong-http", "type": "http", "base_url": server.url, "logprobs_k": 4}
    ))


def test_generator_config_without_the_generator_role_ends_generate_with_exit_3(
        workspace, capsys, fake_server):
    server = fake_server(SeededModel(7, vocab=LETTERS, peak=2.0))
    workspace["gen"].write_text(json.dumps({"id": "weak-http", "type": "http",
                                            "base_url": server.url, "logprobs_k": 4,
                                            "roles": ["verifier"]}))
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 3
    assert capsys.readouterr().err == "backend error: backend 'weak-http' cannot generate\n"
    assert server.requests == []


def test_scoring_response_without_logprobs_ends_signals_with_one_backend_error_line(
        workspace, capsys, fake_server):
    server = fake_server(SeededModel(22, vocab=LETTERS, peak=2.0))
    server.logprobs_block = False
    use_http_verifier(workspace, server)
    assert main(["generate", *run_flags(workspace)]) == 0
    capsys.readouterr()
    assert main(["signals", *run_flags(workspace)]) == 3
    assert capsys.readouterr().err == "backend error: server did not echo logprobs\n"


def test_no_top_logprob_at_the_ptrue_position_is_counted_not_fatal(workspace, fake_server):
    server = fake_server(SeededModel(22, vocab=LETTERS, peak=2.0))
    server.top_logprobs = False
    use_http_verifier(workspace, server)
    flags = run_flags(workspace, "--signals", "log_cmp,p_true")
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    path = workspace["out"] / "signals_weak-mock__strong-http.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec["p_true"] for rec in records] == [None] * 24
    assert all(rec["log_cmp"] is not None for rec in records)
    diagnostics = json.loads(path.with_suffix(".diagnostics.json").read_text())
    assert diagnostics == {"ptrue_unresolvable": 24}


def test_failed_cache_write_keeps_an_earlier_exit_code(workspace, capsys, monkeypatch,
                                                       fake_server):
    use_http_generator(workspace, failing_part_way(fake_server, after=5))
    failed = fail_one_entry_write(monkeypatch)
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("backend error: giving up after")
    assert err[1].startswith(f"data error: cannot write cache entry {failed[0]}: ")


def test_failed_stage_keeps_its_finished_work(workspace, fake_server):
    server = failing_part_way(fake_server, after=5)
    use_http_generator(workspace, server)
    src = str(Path(crossmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", "import sys; from crossmodel.cli import main; "
            "sys.exit(main(sys.argv[1:]))", "generate", *run_flags(workspace)]
    first = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert first.returncode == 3, first.stderr
    store = workspace["out"] / "store"
    assert len(list((store / "cache" / "weak-http").glob("*.entry"))) == 5
    assert not list(store.rglob(".tmp-*"))
    sent = len(server.requests)
    assert sent == 5 + http_mod.RETRY_ATTEMPTS
    second = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert second.returncode == 0, second.stderr
    assert len(server.requests) - sent == 24 - 5
    assert len(list((store / "cache" / "weak-http").glob("*.entry"))) == 24


# --- corrupt input files -------------------------------------------------------------

RUN_STAGES = {
    "generate": ["generate"],
    "signals": ["signals"],
    "eval": ["eval"],
    "route": ["route", "--budget", "0.3"],
    "abstain": ["route", "--budget", "0.3", "--abstain"],
}


def wrong_typed_line(key, value, nested=None):
    """Bytes of a JSONL file with line 3's required `key` set to `value`."""
    def edit(data):
        lines = data.decode("utf-8").splitlines()
        doc = json.loads(lines[2])
        (doc[nested] if nested else doc)[key] = value
        lines[2] = json.dumps(doc)
        return ("\n".join(lines) + "\n").encode("utf-8")
    return edit


def wrong_typed_doc(key, value):
    def edit(data):
        return json.dumps({**json.loads(data), key: value}).encode("utf-8")
    return edit


# input file -> (path in the workspace, exit code, JSONL?, edit that gives one
# required field the wrong type, stages that read it)
INPUT_FILES = {
    "dataset": ("dataset.jsonl", 4, True, wrong_typed_line("prompt", 3),
                ("generate", "signals", "eval", "route", "abstain")),
    "generator": ("gen.json", 2, False, wrong_typed_doc("id", 3),
                  ("generate", "signals", "eval", "route", "abstain")),
    "verifier": ("ver.json", 2, False, wrong_typed_doc("base_url", 3),
                 ("generate", "signals", "eval", "route", "abstain")),
    "config": ("run_config.json", 2, False, wrong_typed_doc("preset", 3),
               ("generate", "signals", "eval", "route", "abstain")),
    "weak_answers": ("run/answers_weak-mock.jsonl", 4, True,
                     wrong_typed_line("text", 3, nested="answer"),
                     ("signals", "route", "abstain")),
    "strong_answers": ("run/answers_strong-mock.jsonl", 4, True,
                       wrong_typed_line("text", 3, nested="answer"), ("signals", "route")),
    "signals": (f"run/{SIGNALS_FILE}", 4, True, wrong_typed_line("instance_id", 3),
                ("eval", "route", "abstain")),
    "eval_report": ("run/eval_weak-mock__strong-mock.json", 4, False,
                    wrong_typed_doc("signals", [1]), ("report",)),
}


def truncated(data):
    """The first half of `data`, ending inside a JSON value."""
    return data[:len(data) // 2].rstrip(b"\n")[:-1]


def with_bad_byte(data):
    middle = len(data) // 2
    return data[:middle] + b"\xff" + data[middle:]


CORRUPTIONS = {
    "missing": None,
    "empty": lambda data: b"",
    "truncated": truncated,
    "array": lambda data: b"[]\n",
    "null": lambda data: b"null\n",
    "bad_utf8": with_bad_byte,
    "wrong_type": "wrong_type",
}


def faulty_line(name, data, corrupted):
    """The line a JSONL reader must name for this corruption, or None."""
    if name in ("array", "null"):
        return 1
    if name == "truncated":
        return corrupted.count(b"\n") + 1
    if name == "bad_utf8":
        return data[:len(data) // 2].count(b"\n") + 1
    return 3 if name == "wrong_type" else None


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A workspace after every stage and a report, copied by each test."""
    root = tmp_path_factory.mktemp("finished")
    ws = make_workspace(root)
    run_all_stages(ws)
    assert main(["report", str(ws["out"]), "--out", str(root / "report")]) == 0
    (root / "run_config.json").write_text(json.dumps({"seed": 0}), encoding="utf-8")
    return root


@pytest.mark.parametrize("stage, target, corruption", [
    pytest.param(stage, target, corruption, id=f"{stage}-{target}-{corruption}")
    for target, (*_, stages) in INPUT_FILES.items()
    for stage in stages
    for corruption in CORRUPTIONS
    # a run without eval outputs is listed in missing_runs.json, with exit 0
    if (stage, corruption) != ("report", "missing")
])
def test_corrupt_input_file_is_one_line_naming_it(finished_run, tmp_path, capsys,
                                                 stage, target, corruption):
    shutil.copytree(finished_run, tmp_path / "ws")
    ws = {"dataset": tmp_path / "ws" / "dataset.jsonl", "gen": tmp_path / "ws" / "gen.json",
          "ver": tmp_path / "ws" / "ver.json", "out": tmp_path / "ws" / "run"}
    name, code, jsonl, wrong_type, _ = INPUT_FILES[target]
    path = tmp_path / "ws" / name
    data = path.read_bytes()
    corrupt = wrong_type if corruption == "wrong_type" else CORRUPTIONS[corruption]
    if corrupt is None:
        path.unlink()
    else:
        path.write_bytes(corrupt(data))
    if stage == "report":
        argv = ["report", str(ws["out"]), "--out", str(tmp_path / "report")]
    else:
        argv = [*RUN_STAGES[stage][:1], *run_flags(ws), *RUN_STAGES[stage][1:]]
        if target == "config":
            argv += ["--config", str(path)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    line = faulty_line(corruption, data, corrupt(data) if corrupt else b"") if jsonl else None
    assert (f"{path}:{line}:" if line else str(path)) in err, err


@pytest.mark.parametrize("doc, key", [
    ({"verifier": 3}, "verifier"), ({"verifier": [3]}, "verifier"), ({"limit": "x"}, "limit"),
    ({"parallel": "4"}, "parallel"), ({"signals": 3}, "signals"), ({"dataset": 3}, "dataset"),
    ({"seed": None}, "seed"), ({"limit": True}, "limit"), ({"abstain": 1}, "abstain"),
    ({"signal": "banana"}, "signal"), ({"command": "eval"}, "command"),
    ({"config": "other.json"}, "config"),
])
def test_config_value_of_the_wrong_type_is_config_error(workspace, capsys, doc, key):
    cfg = workspace["tmp"] / "run_config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["route", *run_flags(workspace, "--budget", "0.3", "--config", str(cfg))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {cfg}: ")
    assert repr(key) in err[0]


def test_config_values_convert_like_their_flags(workspace):
    ver2 = workspace["tmp"] / "ver2.json"
    ver2.write_text(json.dumps(
        {"id": "other-mock", "type": "mock", "seed": 33, "peak": 2.0, "vocab": LETTERS}
    ))
    cfg = workspace["tmp"] / "run_config.json"
    cfg.write_text(json.dumps({
        "verifier": [str(workspace["ver"]), str(ver2)], "limit": None, "gap-floor": 0,
        "out": str(workspace["tmp"] / "elsewhere"), "parallel": 2,
    }), encoding="utf-8")
    assert main(["generate", *run_flags(workspace, "--limit", "3", "--config", str(cfg))]) == 0
    out = workspace["tmp"] / "elsewhere"
    assert sorted(p.name for p in out.glob("answers_*.jsonl")) == [
        "answers_other-mock.jsonl", "answers_strong-mock.jsonl", "answers_weak-mock.jsonl"]
    assert len((out / "answers_weak-mock.jsonl").read_text().splitlines()) == 24


@pytest.mark.parametrize("key", ["id", "base_url"])
def test_backend_config_field_of_the_wrong_type_is_config_error(workspace, capsys, key):
    workspace["gen"].write_text(json.dumps(
        {"id": "weak", "type": "http", "base_url": "http://127.0.0.1:9/v1", key: 3}))
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 2
    err = capsys.readouterr().err.splitlines()
    expected = {"id": "a string", "base_url": "a string or null"}[key]
    assert err == [f"config error: {workspace['gen']}: key {key!r}: expected {expected}, "
                   "got a number"]


@pytest.mark.parametrize("key, expected", [
    ("seed", "an integer"), ("timeout", "a number"), ("logprobs_k", "an integer or null"),
])
def test_boolean_is_no_number_in_a_backend_config(workspace, capsys, key, expected):
    workspace["gen"].write_text(json.dumps(
        {"id": "weak", "type": "http", "base_url": "http://127.0.0.1:9/v1", key: True}))
    capsys.readouterr()
    assert main(["generate", *run_flags(workspace)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {workspace['gen']}: key {key!r}: expected {expected}, "
                   "got a boolean"]


def set_in_eval(key, value, signal=None):
    def edit(doc):
        (doc["signals"][signal] if signal else doc)[key] = value
    return edit


# probe -> (the key named, edit of one eval JSON, number of runs reported)
EVAL_PROBES = {
    "string_gap": ("gap", set_in_eval("gap", "0.5"), 1),
    "string_n": ("n", set_in_eval("n", "40"), 1),
    "number_generator_id": ("generator_id", set_in_eval("generator_id", 3), 1),
    "string_warnings": ("warnings", set_in_eval("warnings", "oops"), 1),
    "string_auroc": ("auroc", set_in_eval("auroc", "high", "log_cmp"), 1),
    "number_routing_excluded": ("routing_excluded",
                                set_in_eval("routing_excluded", 1, "log_cmp"), 1),
    "array_case_means": ("case_means", set_in_eval("case_means", [1], "log_cmp"), 1),
    "string_gap_of_three_runs": ("gap", set_in_eval("gap", "0.5"), 3),
}


@pytest.mark.parametrize("probe", EVAL_PROBES)
def test_report_on_an_eval_value_of_the_wrong_type_is_one_data_error(finished_run, tmp_path,
                                                                     capsys, probe):
    key, edit, runs = EVAL_PROBES[probe]
    source = finished_run / "run" / "eval_weak-mock__strong-mock.json"
    dirs = [tmp_path / f"run{i}" for i in range(runs)]
    for i, run_dir in enumerate(dirs):
        doc = json.loads(source.read_text(encoding="utf-8"))
        assert doc["gap"] is not None and doc["signals"]["log_cmp"]["auroc"] is not None
        doc["gap"] = 0.1 * (i + 1)
        if run_dir is dirs[-1]:
            edit(doc)
        run_dir.mkdir()
        (run_dir / source.name).write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", *map(str, dirs), "--out", str(tmp_path / "report")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"data error: {dirs[-1] / source.name}: key {key!r}: expected "), err


def test_eval_json_without_generator_id_is_data_error(workspace, tmp_path, capsys):
    run_all_stages(workspace)
    path = workspace["out"] / "eval_weak-mock__strong-mock.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["generator_id"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(workspace["out"]), "--out", str(tmp_path / "report")]) == 4
    assert capsys.readouterr().err == f"data error: {path}: missing key 'generator_id'\n"


def test_directory_as_dataset_is_data_error(workspace, capsys):
    capsys.readouterr()
    argv = ["generate", *run_flags(workspace), "--dataset", str(workspace["tmp"])]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(f"data error: {workspace['tmp']}: cannot read (")


# --- strict JSON: no non-finite number in, none out ------------------------------------

NON_FINITE = ["NaN", "-Infinity", "1e999"]


def with_literal(literal, jsonl):
    """An edit that adds a key holding the number `literal` to line 3 of a
    JSONL file, or to a JSON document."""
    def edit(data):
        if not jsonl:
            return b'{"x": ' + literal.encode() + b", " + data.lstrip()[1:]
        lines = data.split(b"\n")
        lines[2] = b'{"x": ' + literal.encode() + b", " + lines[2][1:]
        return b"\n".join(lines)
    return edit


@pytest.mark.parametrize("literal", NON_FINITE)
@pytest.mark.parametrize("target", INPUT_FILES)
def test_non_finite_number_in_an_input_file_is_one_line_naming_it(finished_run, tmp_path, capsys,
                                                                  target, literal):
    shutil.copytree(finished_run, tmp_path / "ws")
    ws = {"dataset": tmp_path / "ws" / "dataset.jsonl", "gen": tmp_path / "ws" / "gen.json",
          "ver": tmp_path / "ws" / "ver.json", "out": tmp_path / "ws" / "run"}
    name, code, jsonl, _, stages = INPUT_FILES[target]
    path = tmp_path / "ws" / name
    path.write_bytes(with_literal(literal, jsonl)(path.read_bytes()))
    if stages[0] == "report":
        argv = ["report", str(ws["out"]), "--out", str(tmp_path / "report")]
    else:
        stage = RUN_STAGES[stages[0]]
        argv = [stage[0], *run_flags(ws), *stage[1:]]
        if target == "config":
            argv += ["--config", str(path)]
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    what = "config error" if code == 2 else "data error"
    where = f"{path}:3" if jsonl else str(path)
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert err.startswith(f"{what}: {where}: non-finite number {literal} "), err


def test_report_refuses_a_nan_auroc_and_an_infinite_gap(finished_run, tmp_path, capsys):
    """Three pairs, two of them non-finite, once gave an 'exact' Spearman test."""
    source = finished_run / "run" / "eval_weak-mock__strong-mock.json"
    dirs = [tmp_path / f"run{i}" for i in range(3)]
    for i, run_dir in enumerate(dirs):
        doc = json.loads(source.read_text(encoding="utf-8"))
        doc["gap"] = [0.1, 0.2, math.inf][i]
        if i == 1:
            doc["signals"]["log_cmp"]["auroc"] = math.nan
        run_dir.mkdir()
        (run_dir / source.name).write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", *map(str, dirs), "--out", str(tmp_path / "report")]) == 4
    assert capsys.readouterr().err == (
        f"data error: {dirs[1] / source.name}: non-finite number NaN is not JSON\n")
    assert not (tmp_path / "report" / "gap_correlation.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("quintile_accuracies", ["x", None, "y"],
     "key 'quintile_accuracies'[0]: expected a number, got a string"),
    ("coverage_points", [1], "key 'coverage_points'[0]: expected an array, got a number"),
    ("case_means", {"both_wrong": {"mean_score": 0.5, "n": "3"}},
     "key 'n': expected an integer, got a string"),
])
def test_report_on_an_eval_item_of_the_wrong_type_is_one_data_error(finished_run, tmp_path,
                                                                    capsys, key, value, message):
    source = finished_run / "run" / "eval_weak-mock__strong-mock.json"
    doc = json.loads(source.read_text(encoding="utf-8"))
    doc["signals"]["log_cmp"][key] = value
    (tmp_path / "run").mkdir()
    path = tmp_path / "run" / source.name
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "report")]) == 4
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


@pytest.mark.parametrize("threshold", ["inf", "-inf", "nan", "1e999"])
def test_non_finite_route_threshold_is_config_error(finished_run, tmp_path, capsys, threshold):
    shutil.copytree(finished_run, tmp_path / "ws")
    ws = {"dataset": tmp_path / "ws" / "dataset.jsonl", "gen": tmp_path / "ws" / "gen.json",
          "ver": tmp_path / "ws" / "ver.json", "out": tmp_path / "ws" / "run"}
    capsys.readouterr()
    assert main(["route", *run_flags(ws), f"--threshold={threshold}"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error: invalid route policy: --threshold must be finite"), err
    assert "--budget 0" in err and "--budget 1" in err
    assert not list(ws["out"].glob("route*"))


# --- the cache key covers the backend config -----------------------------------------


def test_an_edited_backend_config_is_not_served_from_the_cache(workspace, tmp_path):
    assert main(["generate", *run_flags(workspace)]) == 0
    assert main(["signals", *run_flags(workspace)]) == 0
    signals = workspace["out"] / SIGNALS_FILE
    before = signals.read_bytes()
    doc = json.loads(workspace["ver"].read_text())
    workspace["ver"].write_text(json.dumps({**doc, "seed": 23}))
    assert main(["signals", *run_flags(workspace)]) == 0
    edited = signals.read_bytes()
    assert main(["signals", *run_flags(workspace, "--store", str(tmp_path / "fresh"))]) == 0
    assert edited == signals.read_bytes() != before


def test_a_backend_that_moves_host_keeps_its_cache(workspace, fake_server):
    seeds = {"gen": 11, "ver": 22}
    ids = {name: json.loads(workspace[name].read_text())["id"] for name in seeds}

    def serve_from_new_hosts():
        servers = {name: fake_server(SeededModel(seed, vocab=LETTERS, peak=2.0))
                   for name, seed in seeds.items()}
        for name, server in servers.items():
            workspace[name].write_text(json.dumps(
                {"id": ids[name], "type": "http", "base_url": server.url, "logprobs_k": 4}))
        for stage in ("generate", "signals"):
            assert main([stage, *run_flags(workspace)]) == 0
        return servers, {p.name: p.read_bytes() for p in workspace["out"].glob("*.jsonl")}

    first, outputs = serve_from_new_hosts()
    assert all(server.requests for server in first.values())
    moved, again = serve_from_new_hosts()
    assert [server.requests for server in moved.values()] == [[], []]
    assert again == outputs


# --- reading pairs ahead in forked readers ---------------------------------------

LARGE_VERIFIERS = ("v1", "v2", "v3")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity")
    or len(os.sched_getaffinity(0)) < 2, reason="reading ahead needs os.fork and 2 CPUs")


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """Dataset, backend configs, answers and signals files of 3 pairs over
    5,000 instances, each pair's files above the read-ahead gate."""
    root = tmp_path_factory.mktemp("large")
    (root / "run").mkdir()
    rng = random.Random(7)
    ids = [f"q{i:05d}" for i in range(5000)]
    gold = [rng.choice("ABCD") for _ in ids]

    def write(path, docs):
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(doc, sort_keys=True) + "\n" for doc in docs)

    def answers(backend_id, accuracy):
        letters = [g if rng.random() < accuracy else rng.choice("ABCD") for g in gold]
        write(root / "run" / f"answers_{backend_id}.jsonl",
              ({"answer": {"finish_reason": "stop", "text": f" {letter}"}, "instance_id": iid}
               for iid, letter in zip(ids, letters)))
        return [letter == g for letter, g in zip(letters, gold)]

    write(root / "dataset.jsonl", ({"gold": g, "id": iid, "prompt": f"Question {iid}?",
                                    "task_type": "multiple_choice"} for iid, g in zip(ids, gold)))
    for backend_id in ("gen", *LARGE_VERIFIERS):
        (root / f"{backend_id}.json").write_text(json.dumps(
            {"id": backend_id, "type": "mock", "seed": 1, "peak": 2.0, "vocab": LETTERS}))
    weak = answers("gen", 0.4)
    for k, verifier_id in enumerate(LARGE_VERIFIERS, start=1):
        strong = answers(verifier_id, 0.5 + 0.1 * k)
        # a few records lack log_cmp, so route warns on stderr
        write(root / "run" / f"signals_gen__{verifier_id}.jsonl", (
            {"cme": nll / 2, "g_ent": nll / 3, "generator_correct": w, "instance_id": iid,
             "log_cmp": None if i % 997 == k else nll, "log_cmp_final": None,
             "log_gppl": round(nll, 2), "p_true": rng.random(), "verifier_correct": s}
            for i, (iid, w, s) in enumerate(zip(ids, weak, strong))
            for nll in [-math.log(rng.uniform(0.05, 0.95) if w else rng.uniform(0.01, 0.6))]))
        signals = root / "run" / f"signals_gen__{verifier_id}.jsonl"
        assert signals.stat().st_size >= crossmodel.cli.READ_AHEAD_MIN_BYTES
    return root


def large_argv(root, stage):
    flags = ["--dataset", str(root / "dataset.jsonl"), "--preset", "mmlu",
             "--generator", str(root / "gen.json"),
             *[a for v in LARGE_VERIFIERS for a in ("--verifier", str(root / f"{v}.json"))],
             "--out", str(root / "run")]
    return {"eval": ["eval", *flags], "route": ["route", *flags, "--budget", "0.3"],
            "abstain": ["route", *flags, "--budget", "0.3", "--abstain"]}[stage]


# Runs one stage in its own interpreter, pinned to one CPU or not, and writes
# its exit code, the readers it forked and whether a child outlived it.
STAGE_SCRIPT = """
import json, os, signal, sys
if {pinned}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
parent, readers, fork = os.getpid(), [], os.fork
def counted_fork():
    pid = fork()
    if pid:
        readers.append(pid)
    return pid
os.fork = counted_fork
from crossmodel import cli, pipeline
{patch}
try:
    code = cli.main({argv!r})
except KeyboardInterrupt:
    code = "KeyboardInterrupt"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
with open({side!r}, "w") as fh:
    json.dump({{"code": code, "readers": len(readers), "left": left}}, fh)
"""


def large_stage_process(root, stage, pinned, patch=""):
    """The finished process of STAGE_SCRIPT, once its stdout and stderr are
    closed in every process that holds them."""
    (root / "stage.json").unlink(missing_ok=True)
    code = STAGE_SCRIPT.format(pinned=pinned, patch=patch, argv=large_argv(root, stage),
                               side=str(root / "stage.json"))
    return subprocess.run([sys.executable, "-c", code], env=python_env(), capture_output=True,
                          timeout=120)


def run_large_stage(root, stage, pinned, patch=""):
    """(what the stage did: its exit code, stdout, stderr and output files,
    the readers it forked). No child of the stage outlives it."""
    proc = large_stage_process(root, stage, pinned, patch)
    info = json.loads((root / "stage.json").read_text())
    assert info["left"] is False
    outputs = {}
    for path in sorted((root / "run").iterdir()):
        if path.name.startswith(("eval_", "route_")):
            outputs[path.name] = path.read_bytes()
            path.unlink()
    return ({"code": info["code"], "stdout": proc.stdout, "stderr": proc.stderr,
             "outputs": outputs}, info["readers"])


@needs_two_cpus
@pytest.mark.parametrize("stage", ["eval", "route", "abstain"])
def test_reading_ahead_leaves_the_outputs_and_messages_of_a_serial_run(large_run, stage):
    serial, readers = run_large_stage(large_run, stage, pinned=True)
    assert readers == 0
    ahead, readers = run_large_stage(large_run, stage, pinned=False)
    assert readers == min(len(LARGE_VERIFIERS), len(os.sched_getaffinity(0)))
    assert ahead == serial
    assert serial["code"] == 0 and len(serial["outputs"]) == len(LARGE_VERIFIERS) + 1
    if stage != "eval":
        assert serial["stderr"].count(b"lack signal 'log_cmp'") == len(LARGE_VERIFIERS)


@needs_two_cpus
@pytest.mark.parametrize("stage, earlier", [("eval", "signals_gen__v2.jsonl"),
                                            ("route", "answers_v2.jsonl")])
def test_of_two_faulty_pairs_the_earlier_one_is_named(large_run, tmp_path, stage, earlier):
    """Pair v2's fault is on line 9 and pair v3's on line 2: the stage names
    v2's, after writing v1's outputs, as a serial run does."""
    root = tmp_path / "copy"
    shutil.copytree(large_run, root)
    for name, lineno in ((earlier, 9), ("signals_gen__v3.jsonl", 2)):
        path = root / "run" / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = "{not json\n"
        path.write_text("".join(lines), encoding="utf-8")
    serial, _ = run_large_stage(root, stage, pinned=True)
    ahead, readers = run_large_stage(root, stage, pinned=False)
    assert readers >= 2
    assert ahead == serial
    assert serial["code"] == 4
    # route warns first that v1 lacks some log_cmp values
    *warnings, line = serial["stderr"].decode().splitlines()
    assert len(warnings) == (stage == "route") and all(w.startswith("warning: ") for w in warnings)
    assert line.startswith(f"data error: {root / 'run' / earlier}:9: ")
    assert list(serial["outputs"]) == [
        "eval_gen__v1.json" if stage == "eval" else "route_v1_log_cmp.jsonl"]


@needs_two_cpus
@pytest.mark.parametrize("stage, victim, read", [("eval", "v1", "_read_signals"),
                                                 ("route", "v2", "_read_answers")])
def test_a_reader_killed_mid_read_leaves_the_outputs_of_a_serial_run(
        large_run, tmp_path, stage, victim, read):
    """The reader of `victim` dies in the middle of reading its pair (after
    the signals, in route); the stage reads that pair, and any later pair of
    the dead reader, itself."""
    marker = tmp_path / "killed"
    patch = (f"real_read = cli.{read}\n"
             f"def dying_read(ctx, verifier_id, *rest):\n"
             f"    if os.getpid() != parent and verifier_id == {victim!r}:\n"
             f"        open({str(marker)!r}, 'w').close()\n"
             f"        os.kill(os.getpid(), signal.SIGKILL)\n"
             f"    return real_read(ctx, verifier_id, *rest)\n"
             f"cli.{read} = dying_read\n")
    serial, _ = run_large_stage(large_run, stage, pinned=True)
    ahead, readers = run_large_stage(large_run, stage, pinned=False, patch=patch)
    assert readers >= 2 and marker.exists()
    assert ahead == serial


@needs_two_cpus
def test_no_reader_outlives_a_stage_ended_by_keyboard_interrupt(large_run):
    """Ctrl-C, a SIGINT to the stage and its readers, while the first pair is
    evaluated: the readers ignore it and the stage kills and reaps them."""
    patch = ("real_evaluate = pipeline.evaluate_pair\n"
             "def interrupted(*args, **kwargs):\n"
             "    for pid in [*readers, parent]:\n"
             "        os.kill(pid, signal.SIGINT)\n"
             "    return real_evaluate(*args, **kwargs)\n"
             "pipeline.evaluate_pair = interrupted\n")
    outcome, readers = run_large_stage(large_run, "eval", pinned=False, patch=patch)
    assert readers >= 2
    assert outcome["code"] == "KeyboardInterrupt" and outcome["outputs"] == {}


@needs_two_cpus
def test_a_reader_ignores_sigint(large_run, tmp_path):
    """A SIGINT to the readers alone, while the first pair is evaluated,
    leaves every pair to them: the stage reads none itself."""
    marker = tmp_path / "parent_read"
    patch = ("real_evaluate, real_read = pipeline.evaluate_pair, cli._read_signals\n"
             "def interrupted(*args, **kwargs):\n"
             "    for pid in readers:\n"
             "        os.kill(pid, signal.SIGINT)\n"
             "    return real_evaluate(*args, **kwargs)\n"
             "def read(ctx, verifier_id):\n"
             "    if os.getpid() == parent:\n"
             f"        open({str(marker)!r}, 'a').close()\n"
             "    return real_read(ctx, verifier_id)\n"
             "pipeline.evaluate_pair, cli._read_signals = interrupted, read\n")
    serial, _ = run_large_stage(large_run, "eval", pinned=True)
    ahead, readers = run_large_stage(large_run, "eval", pinned=False, patch=patch)
    assert readers >= 2 and not marker.exists()
    assert ahead == serial


@needs_two_cpus
def test_readers_end_once_their_stage_is_killed(large_run, tmp_path):
    """A SIGKILL leaves the stage no chance to kill its readers; each one's
    next write then fails, and it ends, closing the stage's stdout."""
    pids = tmp_path / "readers"
    patch = ("def killed(*args, **kwargs):\n"
             f"    with open({str(pids)!r}, 'w') as fh:\n"
             "        fh.write(' '.join(map(str, readers)))\n"
             "    os.kill(parent, signal.SIGKILL)\n"
             "pipeline.evaluate_pair = killed\n")
    proc = large_stage_process(large_run, "eval", pinned=False, patch=patch)
    assert proc.returncode == -9
    assert len(pids.read_text().split()) >= 2
