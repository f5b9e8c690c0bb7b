"""The checked readers of input files, the decoding of nested records, and the
JSON type each field of a persisted record takes."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from crossmodel.backend import BackendConfig, TokenScore, TokenScores
from crossmodel.datasets import load_dataset
from crossmodel.errors import ConfigError, DataError
from crossmodel.pipeline import EvalReport
from crossmodel.routing import RoutePolicy
from crossmodel.runstore import RunManifest
from crossmodel.serialize import (
    from_dict, generated_answer_from_dict, read_json, read_jsonl, scored_sequence_from_dict,
)
from crossmodel.signals import SignalRecord

# Every decoder of a file the CLI reads, with the error class its reader uses.
DECODERS = [
    (SignalRecord.from_dict, DataError),
    (generated_answer_from_dict, DataError),
    (scored_sequence_from_dict, DataError),
    (EvalReport.from_dict, DataError),
    (RunManifest.from_dict, DataError),
    (BackendConfig.from_dict, ConfigError),
    (RoutePolicy.from_dict, ConfigError),
]
# Keys the decoders look for, so that random objects reach past the first one.
KEYS = st.sampled_from([
    "instance_id", "log_cmp", "generator_correct", "text", "finish_reason",
    "generator_token_scores", "token_text", "logprob", "entropy", "char_span", "prompt_text",
    "answer_text", "scorer_id", "token_scores", "entropy_support", "kind", "k", "generator_id",
    "verifier_id", "signals", "n_scored", "case_means", "run_id", "id", "type", "base_url",
    "signal_name", "threshold", "budget", "task_type", "gold", "prompt",
]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=20,
)


def with_noise(data: st.DataObject, text: bytes) -> bytes:
    """`text` with a few bytes replaced by random ones."""
    if not text:
        return text
    buf = bytearray(text)
    for _ in range(data.draw(st.integers(0, 2))):
        buf[data.draw(st.integers(0, len(buf) - 1))] = data.draw(st.integers(0, 255))
    return bytes(buf)


def file_contents(data: st.DataObject) -> bytes:
    lines = data.draw(st.lists(JSON_VALUES.map(json.dumps), max_size=4))
    return data.draw(st.sampled_from([
        data.draw(st.binary(max_size=200)),
        "\n".join(lines).encode("utf-8"),
        with_noise(data, "\n".join(lines).encode("utf-8")),
    ]))


def outcome(read, path, error):
    """None if `read` returned, else the type of what it raised; an `error`
    must name the file."""
    try:
        read()
    except Exception as exc:  # noqa: BLE001  (the type is the outcome checked)
        assert type(exc) is not error or str(exc).startswith(str(path)), exc
        return type(exc)
    return None


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file that each example overwrites."""
    return tmp_path_factory.mktemp("readers") / "input.json"


@settings(max_examples=400, deadline=None)
@given(data=st.data(), which=st.sampled_from(DECODERS), lenient=st.booleans())
def test_random_bytes_raise_only_the_given_error(path, data, which, lenient):
    decode, error = which
    path.write_bytes(file_contents(data))
    assert outcome(lambda: read_json(path, decode, error), path, error) in (None, error)
    skipped = [] if lenient else None
    assert outcome(lambda: read_jsonl(path, decode, error, skipped), path, error) in (None, error)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), strict=st.booleans())
def test_random_dataset_bytes_raise_only_data_error(path, data, strict):
    path.write_bytes(file_contents(data))
    assert outcome(lambda: load_dataset(path, strict=strict), path, DataError) in (None, DataError)


def test_reader_names_file_and_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"a": 2}\n{"a": "\xff"}\n{"a": 4}\n')
    with pytest.raises(DataError, match=rf"^{path}:4: not UTF-8"):
        read_jsonl(path, lambda doc: doc["a"])
    path.write_bytes(b'{"a": 1}\n[1]\n{"b": 2}\n{"a": 3}\n')
    with pytest.raises(ConfigError, match=rf"^{path}:2: expected a JSON object, got an array$"):
        read_jsonl(path, lambda doc: doc["a"], ConfigError)
    skipped = []
    assert read_jsonl(path, lambda doc: doc["a"], skipped=skipped) == [1, 3]
    assert skipped == [(2, "expected a JSON object, got an array"), (3, "missing key 'a'")]
    with pytest.raises(DataError, match=rf"^{tmp_path}: cannot read \("):
        read_json(tmp_path, dict)
    with pytest.raises(DataError, match=rf"^{path}: invalid JSON \("):
        read_json(path, dict)


def test_non_utf8_dataset_is_fatal_even_when_lenient(tmp_path):
    path = tmp_path / "d.jsonl"
    good = json.dumps({"id": "a", "task_type": "open_qa", "prompt": "p", "gold": "x"})
    path.write_bytes(good.encode() + b"\n" + b'{"id": "\xff"}\n')
    errors = []
    with pytest.raises(DataError, match=rf"^{path}:2: not UTF-8"):
        load_dataset(path, strict=False, errors_out=errors)
    assert errors == []


def test_nested_record_that_is_not_an_object_is_type_error():
    report = {"generator_id": "g", "verifier_id": "v", "dataset_digest": "d", "preset": "mmlu",
              "n": 1, "weak_accuracy": 1.0, "strong_accuracy": None, "gap": None,
              "guard": "ok", "warnings": []}
    for signals in ([1], 3, "s", {"log_cmp": [1]}, {"log_cmp": None}):
        with pytest.raises(TypeError, match="expected a JSON object"):
            from_dict(EvalReport, {**report, "signals": signals})
    with pytest.raises(TypeError, match="expected a JSON object, got null"):
        from_dict(EvalReport, None)


@pytest.mark.parametrize("span", [("3", "5"), (3, "5"), (3.0, 5.0), (None, 5)])
def test_token_span_must_be_two_ints(span):
    with pytest.raises(ValueError, match="char_span must be two ints"):
        TokenScore(" a", -1.0, None, span)
    with pytest.raises(ValueError, match="char_span must be two ints"):
        TokenScores([" a"], [-1.0], [None], [span])


def test_overflow_unparsable_decimal_and_deep_nesting_are_reader_errors(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text('{"signal_name": "log_cmp", "threshold": 1' + "0" * 400 + "}")
    with pytest.raises(ConfigError, match=rf"^{path}: int too large"):
        RoutePolicy.load(path)
    path.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match=rf"^{path}: maximum recursion depth"):
        read_json(path, dict, ConfigError)
    dataset = tmp_path / "d.jsonl"
    dataset.write_text(json.dumps({"id": "a", "task_type": "numeric_cot", "prompt": "p",
                                   "gold": "4x2"}) + "\n")
    with pytest.raises(DataError, match=rf"^{dataset}:1: "):
        load_dataset(dataset)


# --- the JSON type of each field ------------------------------------------------------

# Each record decoded from a file: its decoder, a valid document, and per field
# (a path into the document) the JSON kinds it takes, written out by hand,
# optionally with a strategy for values of those kinds that the record's own
# checks accept.
NUMBER = {"integer", "float"}
NULL = {"null"}
TOKENS = [{"token_text": " A", "logprob": -0.1, "entropy": 0.2, "char_span": [1, 3]}]
KIND_VALUES = {
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "array": st.lists(st.integers(), max_size=2),
    "string": st.text(max_size=5),
    "integer": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "boolean": st.booleans(),
    "null": st.none(),
}
SIGNAL_EVAL = {
    "signal": "log_cmp", "n_scored": 10, "auroc": 0.6, "auroc_note": None, "apgr_raw": 0.1,
    "apgr_normalized": 0.2, "routing_excluded": False, "routing_note": None,
    "coverage_auc": 0.7, "coverage_points": [[0.5, 0.8]], "quintile_accuracies": [0.5],
    "quintile_spread": 0.1, "case_means": {"both_wrong": {"mean_score": 0.2, "n": 3}},
}
RECORDS = {
    "SignalRecord": (SignalRecord.from_dict, {
        "instance_id": "q1", "log_cmp": 0.5, "cme": 1, "log_gppl": None, "g_ent": 0.3,
        "log_cmp_final": None, "p_true": 0.9, "generator_correct": True,
        "verifier_correct": None,
    }, {
        "instance_id": {"string"},
        **dict.fromkeys(["log_cmp", "cme", "log_gppl", "g_ent", "log_cmp_final", "p_true"],
                        NUMBER | NULL),
        "generator_correct": {"boolean", "null"}, "verifier_correct": {"boolean", "null"},
    }),
    "GeneratedAnswer": (generated_answer_from_dict, {
        "text": " A", "finish_reason": "stop", "generator_token_scores": TOKENS,
    }, {
        "text": {"string"},
        "finish_reason": ({"string"}, st.sampled_from(["stop", "length"])),
        "generator_token_scores": ({"array", "null"}, st.sampled_from([TOKENS, [], None])),
    }),
    "ScoredSequence": (scored_sequence_from_dict, {
        "prompt_text": "Q", "answer_text": " A", "scorer_id": "v", "token_scores": TOKENS,
        "entropy_support": {"kind": "top_k", "k": 5}, "answer_token_count": 1,
    }, {
        "prompt_text": ({"string"}, st.sampled_from(["P", "Q"])),
        "answer_text": ({"string"}, st.text(min_size=3, max_size=5)),
        "scorer_id": {"string"},
        "token_scores": ({"array"}, st.just(TOKENS)),
        "entropy_support": ({"object"}, st.sampled_from([{"kind": "top_k", "k": 2}])),
        "entropy_support.kind": ({"string"}, st.just("top_k")),
        "entropy_support.k": ({"integer", "null"}, st.integers(1, 50)),
        "answer_token_count": ({"integer"}, st.just(1)),
    }),
    "EvalReport": (EvalReport.from_dict, {
        "generator_id": "g", "verifier_id": "v", "dataset_digest": "d", "preset": "mmlu",
        "n": 40, "weak_accuracy": 0.5, "strong_accuracy": 0.75, "gap": 0.25, "guard": "ok",
        "warnings": [], "signals": {"log_cmp": SIGNAL_EVAL},
    }, {
        **dict.fromkeys(["generator_id", "verifier_id", "dataset_digest", "preset", "guard"],
                        {"string"}),
        "n": {"integer"}, "weak_accuracy": NUMBER, "strong_accuracy": NUMBER | NULL,
        "gap": NUMBER | NULL, "warnings": {"array"},
        "signals": ({"object"}, st.sampled_from([{}, {"cme": SIGNAL_EVAL}])),
        "signals.log_cmp.signal": {"string"}, "signals.log_cmp.n_scored": {"integer"},
        **{f"signals.log_cmp.{name}": NUMBER | NULL for name in [
            "auroc", "apgr_raw", "apgr_normalized", "coverage_auc", "quintile_spread"]},
        "signals.log_cmp.auroc_note": {"string", "null"},
        "signals.log_cmp.routing_excluded": {"boolean", "null"},
        "signals.log_cmp.routing_note": {"string", "null"},
        "signals.log_cmp.coverage_points": {"array", "null"},
        "signals.log_cmp.quintile_accuracies": {"array", "null"},
        "signals.log_cmp.case_means": {"object", "null"},
    }),
    "RunManifest": (RunManifest.from_dict, {
        "run_id": "r", "dataset_digest": "d", "backends_digest": "b", "preset": "mmlu",
        "seed": 0, "created_at": "t", "signals": ["log_cmp"], "tool_version": "0.1.0",
        "extra": {},
    }, {
        **dict.fromkeys(["run_id", "dataset_digest", "backends_digest", "preset",
                         "created_at", "tool_version"], {"string"}),
        "seed": {"integer"}, "signals": {"array"}, "extra": {"object"},
    }),
    "RoutePolicy": (RoutePolicy.from_dict, {
        "signal_name": "log_cmp", "threshold": 0.5, "budget": None,
        "calibration_set_id": None,
    }, {
        "signal_name": {"string"},
        "threshold": (NUMBER | NULL, st.integers() | KIND_VALUES["float"]),
        "budget": (NUMBER | NULL, st.none()),
        "calibration_set_id": {"string", "null"},
    }),
    "BackendConfig": (BackendConfig.from_dict, {
        "id": "m", "type": "mock", "base_url": None, "api_key_env": None, "logprobs_k": 5,
        "vocab_size": None, "roles": ["generator"], "model": None, "score_max_tokens": 0,
        "timeout": 10.0, "seed": 1, "peak": 1.0,
    }, {
        "id": ({"string"}, st.text(min_size=1, max_size=5)),
        "type": ({"string"}, st.just("mock")),
        **dict.fromkeys(["base_url", "api_key_env", "model"], {"string", "null"}),
        "logprobs_k": {"integer", "null"}, "vocab_size": {"integer", "null"},
        "roles": {"array"}, "score_max_tokens": ({"integer"}, st.sampled_from([0, 1])),
        "timeout": NUMBER, "seed": {"integer"}, "peak": NUMBER,
    }),
}
FIELDS = [(record, path) for record, (*_, fields) in RECORDS.items() for path in fields]


def with_value(doc, path, value):
    """A deep copy of `doc` with the field at the dotted `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    return doc


@pytest.mark.parametrize("record, path", FIELDS, ids=[f"{r}-{p}" for r, p in FIELDS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_field_takes_exactly_the_json_kinds_of_its_annotation(record, path, data):
    decode, doc, fields = RECORDS[record]
    kinds, own = (fields[path], None) if isinstance(fields[path], set) else fields[path]
    decode(doc)
    wrong = data.draw(st.sampled_from(sorted(set(KIND_VALUES) - kinds)))
    with pytest.raises(TypeError) as exc:
        decode(with_value(doc, path, data.draw(KIND_VALUES[wrong])))
    assert str(exc.value).startswith(f"key {path.split('.')[-1]!r}: expected "), exc.value
    if own is None:
        own = st.sampled_from(sorted(kinds)).flatmap(KIND_VALUES.__getitem__)
    decode(with_value(doc, path, data.draw(own)))
