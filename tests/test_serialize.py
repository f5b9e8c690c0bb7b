"""The checked readers of input files, the decoding of nested records, the
JSON type each field of a persisted record takes, and the strict JSON codec and
writers every file goes through."""

import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from crossmodel.backend import BackendConfig, TokenScore, TokenScores, load_backend_config
from crossmodel.datasets import load_dataset
from crossmodel.errors import ConfigError, DataError
from crossmodel.pipeline import EvalReport
from crossmodel.routing import RoutePolicy
from crossmodel.runstore import CacheKey, RunStore
from crossmodel.serialize import (
    decode_json, from_dict, generated_answer_from_dict, read_json, read_jsonl,
    replacing, scored_sequence_from_dict, write_json, write_jsonl,
)
from crossmodel.signals import CellStat, SignalRecord

# Every record decoder, with the error class it is read under.
DECODERS = [
    (SignalRecord.from_dict, DataError),
    (generated_answer_from_dict, DataError),
    (scored_sequence_from_dict, DataError),
    (EvalReport.from_dict, DataError),
    (BackendConfig.from_dict, ConfigError),
    (RoutePolicy.from_dict, ConfigError),
]
# Keys the decoders look for, so that random objects reach past the first one.
KEYS = st.sampled_from([
    "instance_id", "log_cmp", "generator_correct", "text", "finish_reason",
    "generator_token_scores", "token_text", "logprob", "entropy", "char_span", "prompt_text",
    "answer_text", "scorer_id", "token_scores", "entropy_support", "kind", "k", "generator_id",
    "verifier_id", "signals", "n_scored", "case_means", "id", "type", "base_url",
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
@given(data=st.data(), which=st.sampled_from(DECODERS))
def test_random_bytes_raise_only_the_given_error(path, data, which):
    decode, error = which
    path.write_bytes(file_contents(data))
    assert outcome(lambda: read_json(path, decode, error), path, error) in (None, error)
    if error is DataError:  # read_jsonl reads data files only
        assert outcome(lambda: read_jsonl(path, decode), path, error) in (None, error)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_dataset_bytes_raise_only_data_error(path, data):
    path.write_bytes(file_contents(data))
    assert outcome(lambda: load_dataset(path), path, DataError) in (None, DataError)


def test_reader_names_file_and_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"a": 2}\n{"a": "\xff"}\n{"a": 4}\n')
    with pytest.raises(DataError, match=rf"^{path}:4: not UTF-8"):
        read_jsonl(path, lambda doc: doc["a"])
    path.write_bytes(b'{"a": 1}\n[1]\n{"b": 2}\n{"a": 3}\n')
    with pytest.raises(DataError, match=rf"^{path}:2: expected a JSON object, got an array$"):
        read_jsonl(path, lambda doc: doc["a"])
    with pytest.raises(DataError, match=rf"^{tmp_path}: cannot read \("):
        read_json(tmp_path, dict)
    with pytest.raises(DataError, match=rf"^{path}: invalid JSON \("):
        read_json(path, dict)


def test_non_utf8_dataset_line_is_data_error(tmp_path):
    path = tmp_path / "d.jsonl"
    good = json.dumps({"id": "a", "task_type": "open_qa", "prompt": "p", "gold": "x"})
    path.write_bytes(good.encode() + b"\n" + b'{"id": "\xff"}\n')
    with pytest.raises(DataError, match=rf"^{path}:2: not UTF-8"):
        load_dataset(path)


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
    path = tmp_path / "backend.json"
    path.write_text('{"id": "m", "type": "mock", "peak": 1' + "0" * 400 + "}")
    with pytest.raises(ConfigError, match=rf"^{path}: key 'peak': expected a number, "
                                          "got an integer too large for a double$"):
        load_backend_config(path)
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
TOKENS = {"char_span": [[1, 3]], "entropy": [0.2], "logprob": [-0.1], "token_text": [" A"]}
# The row form of earlier releases, one object per token, is still read.
TOKEN_ROWS = [{"token_text": " A", "logprob": -0.1, "entropy": 0.2, "char_span": [1, 3]}]
KIND_VALUES = {
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "array": st.lists(st.integers(), max_size=2),
    "string": st.text(max_size=5),
    "integer": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "boolean": st.booleans(),
    "null": st.none(),
}
# Values of the fields whose items are checked: each item of the annotated type.
TEXTS = st.lists(st.text(max_size=3), max_size=2)
NUMBERS = st.integers() | KIND_VALUES["float"]
CELLS = st.fixed_dictionaries({"mean_score": st.none() | NUMBERS, "n": st.integers()})
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
        "generator_token_scores": ({"object", "array", "null"},
                                   st.sampled_from([TOKENS, TOKEN_ROWS, [], None])),
    }),
    "ScoredSequence": (scored_sequence_from_dict, {
        "prompt_text": "Q", "answer_text": " A", "scorer_id": "v", "token_scores": TOKENS,
        "entropy_support": {"kind": "top_k", "k": 5}, "answer_token_count": 1,
    }, {
        "prompt_text": ({"string"}, st.sampled_from(["P", "Q"])),
        "answer_text": ({"string"}, st.text(min_size=3, max_size=5)),
        "scorer_id": {"string"},
        "token_scores": ({"object", "array"}, st.sampled_from([TOKENS, TOKEN_ROWS])),
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
        "gap": NUMBER | NULL, "warnings": ({"array"}, TEXTS),
        "signals": ({"object"}, st.sampled_from([{}, {"cme": SIGNAL_EVAL}])),
        "signals.log_cmp.signal": {"string"}, "signals.log_cmp.n_scored": {"integer"},
        **{f"signals.log_cmp.{name}": NUMBER | NULL for name in [
            "auroc", "apgr_raw", "apgr_normalized", "coverage_auc", "quintile_spread"]},
        "signals.log_cmp.auroc_note": {"string", "null"},
        "signals.log_cmp.routing_excluded": {"boolean", "null"},
        "signals.log_cmp.routing_note": {"string", "null"},
        "signals.log_cmp.coverage_points": (
            {"array", "null"}, st.none() | st.lists(st.lists(NUMBERS, min_size=2, max_size=2))),
        "signals.log_cmp.quintile_accuracies": {"array", "null"},
        "signals.log_cmp.case_means": (
            {"object", "null"}, st.none() | st.dictionaries(st.text(max_size=3), CELLS)),
    }),
    "RoutePolicy": (RoutePolicy.from_dict, {
        "signal_name": "log_cmp", "threshold": 0.5, "budget": None,
    }, {
        "signal_name": {"string"},
        "threshold": (NUMBER | NULL, st.integers() | KIND_VALUES["float"]),
        "budget": (NUMBER | NULL, st.none()),
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
        "roles": ({"array"}, TEXTS), "score_max_tokens": ({"integer"}, st.sampled_from([0, 1])),
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


# --- token score columns ------------------------------------------------------------


def one_token_with(form, name, value):
    """One token's scores, written in `form`, with `name` set to `value`."""
    if form == "columns":
        return {**TOKENS, name: [value]}
    return [{**TOKEN_ROWS[0], name: value}]


@pytest.mark.parametrize("scores, message", [
    *(pytest.param(one_token_with(form, name, value), message, id=f"{form}-{name}-{value}")
      for form in ("columns", "rows")
      for name, value, message in [
          ("token_text", 5, "key 'token_text'[0]: expected a string, got a number"),
          ("logprob", "low", "key 'logprob'[0]: expected a number, got a string"),
          ("logprob", True, "key 'logprob'[0]: expected a number, got a boolean"),
          ("entropy", "x", "key 'entropy'[0]: expected a number or null, got a string"),
          ("char_span", 5, "key 'char_span'[0]: expected an array, got a number"),
      ]),
    ({**TOKENS, "logprob": -0.1}, "key 'logprob': expected an array, got a number"),
    ({**TOKENS, "char_span": None}, "key 'char_span': expected an array, got null"),
    ([[" A", -0.1, 0.2, [1, 3]]], "expected a JSON object, got an array"),
])
def test_token_scores_of_the_wrong_kind_are_named_with_their_column(scores, message):
    with pytest.raises(TypeError) as exc:
        generated_answer_from_dict({"text": " A", "finish_reason": "stop",
                                    "generator_token_scores": scores})
    assert str(exc.value) == message


def test_a_column_object_without_a_column_is_refused():
    scores = {name: column for name, column in TOKENS.items() if name != "entropy"}
    with pytest.raises(KeyError, match="entropy"):
        scored_sequence_from_dict({**RECORDS["ScoredSequence"][1], "token_scores": scores})


# --- the items of list, tuple and dict fields ------------------------------------------


@dataclass
class Items:
    texts: list[str] = field(default_factory=list)
    pairs: list[tuple[float, float]] | None = None
    names: tuple[str, ...] = ()
    counts: dict[str, int] = field(default_factory=dict)
    cells: dict[str, CellStat] = field(default_factory=dict)
    anything: dict[str, Any] = field(default_factory=dict)


def test_items_of_the_annotated_types_decode():
    items = from_dict(Items, {
        "texts": ["a", "b"], "pairs": [[1, 2.5]], "names": ["x"], "counts": {"a": 1},
        "cells": {"both_wrong": {"mean_score": None, "n": 2}}, "anything": {"a": [None]},
    })
    assert items == Items(["a", "b"], [[1, 2.5]], ("x",), {"a": 1},
                          {"both_wrong": CellStat(None, 2)}, {"a": [None]})


@pytest.mark.parametrize("doc, message", [
    ({"texts": ["a", 3]}, "key 'texts'[1]: expected a string, got a number"),
    ({"pairs": [1]}, "key 'pairs'[0]: expected an array, got a number"),
    ({"pairs": [[1, 2.5], [1]]}, "key 'pairs'[1]: expected 2 items, got 1"),
    ({"pairs": [[1, "x"]]}, "key 'pairs'[0][1]: expected a number, got a string"),
    ({"names": [None]}, "key 'names'[0]: expected a string, got null"),
    ({"counts": {"a": 1.5}}, "key 'counts'['a']: expected an integer, got a number"),
    ({"anything": [1]}, "key 'anything': expected a JSON object, got an array"),
    ({"cells": {"a": [1]}}, "key 'cells'['a']: expected a JSON object, got an array"),
    ({"cells": {"a": {"mean_score": "x", "n": 1}}},
     "key 'mean_score': expected a number or null, got a string"),
])
def test_an_item_of_the_wrong_type_is_named_with_its_key(doc, message):
    with pytest.raises(TypeError) as exc:
        from_dict(Items, doc)
    assert str(exc.value) == message


# --- the strict codec and the writers -------------------------------------------------

NON_FINITE = ["NaN", "-Infinity", "1e999"]


@pytest.mark.parametrize("literal", NON_FINITE)
def test_the_decoder_refuses_a_non_finite_number(literal):
    with pytest.raises(ValueError, match=f"^non-finite number {literal} "):
        decode_json(f'{{"x": [0.5, {literal}]}}')


def test_the_decoder_reads_the_finite_extremes():
    assert decode_json("[1.7e308, -1.7e308, 5e-324, 1e-999]") == [1.7e308, -1.7e308, 5e-324, 0.0]


@pytest.mark.parametrize("literal", NON_FINITE)
def test_a_non_finite_number_in_a_backend_config_is_config_error(tmp_path, literal):
    path = tmp_path / "backend.json"
    path.write_text(f'{{"id": "m", "type": "mock", "peak": {literal}}}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: non-finite number "):
        load_backend_config(path)


def test_a_failed_write_leaves_the_previous_file_and_no_temp_file(tmp_path):
    lines, doc = tmp_path / "out.jsonl", tmp_path / "out.json"
    lines.write_bytes(b"previous\n")
    doc.write_bytes(b"{}\n")

    def three_then_a_crash():
        yield from ({"i": i} for i in range(3))
        raise RuntimeError("stage killed")

    with pytest.raises(RuntimeError, match="stage killed"):
        write_jsonl(lines, three_then_a_crash())
    with pytest.raises(DataError, match=f"^{re.escape(str(lines))}: cannot write "):
        write_jsonl(lines, [{"i": 0}, {"x": math.nan}])
    with pytest.raises(DataError, match=f"^{re.escape(str(doc))}: cannot write "):
        write_json(doc, {"x": math.inf})
    assert lines.read_bytes() == b"previous\n" and doc.read_bytes() == b"{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.jsonl"]


def test_an_unwritable_path_is_a_data_error_but_the_blocks_own_oserror_passes(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(DataError,
                       match=rf"^{blocker}/run/out\.json: cannot write \(Not a directory\)$"):
        write_json(blocker / "run" / "out.json", {})
    with pytest.raises(FileNotFoundError):
        with replacing(tmp_path / "out.json") as fh:
            fh.write(open(tmp_path / "absent").read())
    assert sorted(tmp_path.iterdir()) == [blocker]


FINITE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=10,
)
FINITE_DOCS = st.dictionaries(st.text(max_size=5), FINITE_VALUES, max_size=4)


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(FINITE_DOCS, max_size=4))
def test_written_bytes_are_those_of_json_dumps(tmp_path_factory, docs):
    out = tmp_path_factory.mktemp("written")
    write_jsonl(out / "a.jsonl", iter(docs))
    assert (out / "a.jsonl").read_bytes() == "".join(
        json.dumps(doc, sort_keys=True) + "\n" for doc in docs).encode("utf-8")
    write_json(out / "a.json", docs)
    assert (out / "a.json").read_bytes() == (
        json.dumps(docs, sort_keys=True, indent=2) + "\n").encode("utf-8")
    assert decode_json((out / "a.json").read_text(encoding="utf-8")) == docs


def test_written_files_and_entries_take_their_mode_from_the_umask(tmp_path):
    RunStore.flush()
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write_json(tmp_path / "a.json", {})
        write_jsonl(tmp_path / "a.jsonl", [{}])
        store = RunStore(tmp_path / "store")
        key = CacheKey.for_ptrue("m", "Q", "a", "c1")
        store.put(key, 0.5)
        store.flush()
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert mode == 0o640
    for path in (tmp_path / "a.json", tmp_path / "a.jsonl", store._entry_path(key)):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
