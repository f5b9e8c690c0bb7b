import json

import pytest
from hypothesis import given, strategies as st

from crossmodel.backend import DecodeParams
from crossmodel.datasets import (
    GoldAnswer,
    extract_with_flags,
    get_preset,
    judge,
    judge_generation,
    load_dataset,
    normalize,
)
from crossmodel.errors import ConfigError, DataError, ExtractionError


def write_dataset(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def mc_record(i, letter="B"):
    return {"id": f"q{i:03d}", "task_type": "multiple_choice",
            "prompt": f"Question {i}?", "gold": letter}


# --- loading -----------------------------------------------------------------


def test_load_roundtrip_sorted_by_id(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [mc_record(3), mc_record(1), mc_record(2)])
    instances = load_dataset(path)
    assert [i.instance_id for i in instances] == ["q001", "q002", "q003"]


def test_load_subsample_deterministic(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [mc_record(i) for i in range(50)])
    a = load_dataset(path, limit=10, seed=42)
    b = load_dataset(path, limit=10, seed=42)
    assert [i.instance_id for i in a] == [i.instance_id for i in b]
    assert len(a) == 10


def test_load_different_seeds_differ(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [mc_record(i) for i in range(60)])
    a = load_dataset(path, limit=10, seed=1)
    b = load_dataset(path, limit=10, seed=2)
    assert [i.instance_id for i in a] != [i.instance_id for i in b]


def test_load_limit_at_least_n_returns_all(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [mc_record(i) for i in range(5)])
    assert len(load_dataset(path, limit=2000, seed=0)) == 5


def test_malformed_line_strict_raises_with_lineno(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(mc_record(1)) + "\nnot json\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_dataset(path)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [mc_record(1), mc_record(1)])
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(path)


def test_gold_spellings(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(
        path,
        [
            {"id": "a", "task_type": "multiple_choice", "prompt": "p", "gold": {"letter": "c"}},
            {"id": "b", "task_type": "open_qa", "prompt": "p", "gold": "Paris"},
            {"id": "c", "task_type": "numeric_cot", "prompt": "p", "gold": 42},
        ],
    )
    by_id = {i.instance_id: i for i in load_dataset(path)}
    assert by_id["a"].gold.letter == "C"
    assert by_id["b"].gold.aliases == ("Paris",)
    assert by_id["c"].gold.number == "42"


def test_integer_id_becomes_text(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [{**mc_record(1), "id": 7}])
    assert [i.instance_id for i in load_dataset(path)] == ["7"]


def qa_record(gold, task_type="open_qa"):
    return {"id": "a", "task_type": task_type, "prompt": "p", "gold": gold}


# a dataset line whose id or gold has the wrong JSON type -> the reason it is rejected
ALIASES = "open_qa gold aliases must be an array of strings, got "
WRONG_TYPES = {
    "null_id": ({**mc_record(1), "id": None}, "id must be a string or an integer, got None"),
    "list_id": ({**mc_record(1), "id": ["d"]}, "id must be a string or an integer, got ['d']"),
    "bool_id": ({**mc_record(1), "id": True}, "id must be a string or an integer, got True"),
    "null_gold": (qa_record(None), ALIASES + "(None,)"),
    "null_alias": (qa_record(["Beatles", None]), ALIASES + "('Beatles', None)"),
    "string_aliases": (qa_record({"aliases": "Beatles"}), ALIASES + "'Beatles'"),
    "bool_number": (qa_record(True, "numeric_cot"),
                    "numeric_cot gold must be a string or a number, got True"),
    "null_number": (qa_record({"number": None}, "numeric_cot"),
                    "numeric_cot gold requires a number"),
    "unparsable_number": (qa_record("4x2", "numeric_cot"),
                          "numeric_cot gold must be a number, got '4x2'"),
}


@pytest.mark.parametrize("record, reason", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_id_and_gold_of_the_wrong_type_are_rejected_not_converted(tmp_path, record, reason):
    path = tmp_path / "d.jsonl"
    write_dataset(path, [record, mc_record(2)])
    with pytest.raises(DataError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}:1: {reason}"


# --- extraction ----------------------------------------------------------------


def test_extract_letter_from_parenthetical():
    assert extract_with_flags("The answer is (B).", "multiple_choice")[0] == "B"


def test_extract_letter_case_insensitive_first_standalone():
    assert extract_with_flags("maybe c or d", "multiple_choice")[0] == "C"


def test_extract_letter_failure():
    with pytest.raises(ExtractionError):
        extract_with_flags("I don't know", "multiple_choice")


def test_extract_numeric_after_marker_strips_commas():
    assert extract_with_flags("steps... ANSWER: 1,234", "numeric_cot")[0] == "1234"


def test_extract_numeric_last_after_last_marker():
    text = "ANSWER: 5 no wait ANSWER: 6 plus 7"
    assert extract_with_flags(text, "numeric_cot")[0] == "7"


def test_extract_numeric_fallback_is_flagged():
    value, flags = extract_with_flags("the result is 12 then 15", "numeric_cot")
    assert value == "15"
    assert "marker_missing" in flags
    assert "fallback_last_number" in flags


def test_extract_numeric_negative_decimal():
    assert extract_with_flags("ANSWER: -2,500.75", "numeric_cot")[0] == "-2500.75"


def test_extract_numeric_none_fails():
    with pytest.raises(ExtractionError):
        extract_with_flags("no numbers here", "numeric_cot")


def test_extract_open_qa_normalizes():
    assert extract_with_flags("The Beatles!", "open_qa")[0] == "beatles"


# --- judging ----------------------------------------------------------------------


def test_judge_letter_match():
    gold = GoldAnswer("multiple_choice", letter="B")
    assert judge("B", gold) is True
    assert judge("A", gold) is False


def test_judge_aliases_normalized():
    gold = GoldAnswer("open_qa", aliases=("Beatles", "The Beatles"))
    assert judge("the beatles", gold) is True
    assert judge("beatles", gold) is True
    assert judge("rolling stones", gold) is False


def test_judge_numeric_decimal_equality():
    gold = GoldAnswer("numeric_cot", number="42")
    assert judge("42.0", gold) is True
    assert judge("42", gold) is True
    assert judge("41.999", gold) is False


def test_judge_numeric_exact_no_epsilon():
    gold = GoldAnswer("numeric_cot", number="0.1")
    assert judge("0.1", gold) is True
    assert judge("0.1000001", gold) is False


def test_judge_none_is_false():
    assert judge(None, GoldAnswer("multiple_choice", letter="A")) is False


def test_judge_generation_totality():
    gold = GoldAnswer("multiple_choice", letter="B")
    ok, flags = judge_generation("(B) is right", gold)
    assert ok is True and flags == []
    bad, flags = judge_generation("no clue", gold)
    assert bad is False
    assert any(f.startswith("extraction_failure") for f in flags)


# --- normalization -------------------------------------------------------------------


def test_normalize_drops_leading_articles_repeatedly():
    assert normalize("The The Beatles") == "beatles"
    assert normalize("A An The answer") == "answer"


@given(st.text(max_size=60))
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


# --- presets ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,task_type,max_tokens",
    [("mmlu", "multiple_choice", 5), ("triviaqa", "open_qa", 8), ("gsm8k", "numeric_cot", 256)],
)
def test_presets(name, task_type, max_tokens):
    preset = get_preset(name)
    assert preset.task_type == task_type
    assert preset.decode == DecodeParams(max_new_tokens=max_tokens)


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        get_preset("squad")
