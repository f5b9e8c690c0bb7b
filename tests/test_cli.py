import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossmodel

from crossmodel.backend import SeededModel
from crossmodel.cli import main

from conftest import unclosed_resources

LETTERS = [" A", " B", " C", " D"]


@pytest.fixture
def workspace(tmp_path):
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
    # a run manifest was recorded
    stored = list((workspace["out"] / "store" / "runs").glob("*.json"))
    assert len(stored) == 1


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
@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_signal_is_data_error(workspace, capsys, stage, bad):
    assert main(["generate", *run_flags(workspace)]) == 0
    assert main(["signals", *run_flags(workspace)]) == 0
    signals = workspace["out"] / "signals_weak-mock__strong-mock.jsonl"
    docs = [json.loads(line) for line in signals.read_text().splitlines()]
    docs[5]["log_cmp"] = float(bad)
    signals.write_text("".join(json.dumps(d) + "\n" for d in docs))
    capsys.readouterr()
    assert main([stage[0], *run_flags(workspace), *stage[1:]]) == 4
    err = capsys.readouterr().err
    assert docs[5]["instance_id"] in err and "log_cmp" in err
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


def test_config_file_overrides_flags(workspace):
    cfg = workspace["tmp"] / "run_config.json"
    cfg.write_text(json.dumps({"limit": 2}))
    assert main(["generate", *run_flags(workspace, "--limit", "9",
                                        "--config", str(cfg))]) == 0
    weak = workspace["out"] / "answers_weak-mock.jsonl"
    assert len(weak.read_text().splitlines()) == 2


def test_self_pair_allowed(workspace):
    flags = [
        "--dataset", str(workspace["dataset"]), "--preset", "mmlu",
        "--generator", str(workspace["gen"]), "--verifier", str(workspace["gen"]),
        "--out", str(workspace["out"]),
    ]
    assert main(["generate", *flags]) == 0
    assert main(["signals", *flags]) == 0
    path = workspace["out"] / "signals_weak-mock__weak-mock.jsonl"
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert rec["log_cmp"] == pytest.approx(rec["log_gppl"], abs=1e-12)


def run_python(code):
    """Stdout of `code` run by a fresh interpreter that imports this crossmodel."""
    src = str(Path(crossmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


@pytest.mark.parametrize("module", [
    "scipy",  # only report's t-approximation (9 or more pairs) needs it
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


def test_package_names_resolve():
    namespace = {}
    exec("from crossmodel import *", namespace)
    assert set(crossmodel.__all__) <= set(namespace)
    assert all(getattr(crossmodel, name) is namespace[name] for name in crossmodel.__all__)
    assert set(crossmodel.__all__) <= set(dir(crossmodel))
    with pytest.raises(AttributeError):
        crossmodel.no_such_name
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
    pytest.param(["signals"], "answers_weak-mock.jsonl", edit, id=f"{defect}-signals")
    for defect, edit in [
        ("positive_logprob", set_in_answer(0.5, "generator_token_scores", 0, "logprob")),
        ("string_logprob", set_in_answer("low", "generator_token_scores", 0, "logprob")),
        ("unknown_finish_reason", set_in_answer("eos", "finish_reason")),
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
