"""The checked readers of input files, and decoding of nested records."""

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
