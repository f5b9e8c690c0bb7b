"""Evaluation instances: loading, answer extraction, and judging.

Dataset files are line-delimited JSON, one instance per line:

    {"id": "q1", "task_type": "multiple_choice", "prompt": "...", "gold": "B"}
    {"id": "q2", "task_type": "open_qa",        "prompt": "...", "gold": ["Beatles", "The Beatles"]}
    {"id": "q3", "task_type": "numeric_cot",    "prompt": "...", "gold": "42"}

`gold` may also be spelled explicitly as {"letter": ...}, {"aliases":
[...]}, or {"number": ...}. Prompts arrive fully rendered; the shipped
presets only fix decoding limits and the answer-span convention per task.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .backend.types import DecodeParams
from .errors import DataError, ExtractionError
from .serialize import read_jsonl
from .signals import AnswerSpan, final_answer_span

TASK_TYPES = ("multiple_choice", "open_qa", "numeric_cot")

_LETTER = re.compile(r"\b([ABCDabcd])\b")
_ARTICLES = ("a", "an", "the")
_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


@dataclass(frozen=True)
class GoldAnswer:
    kind: str
    letter: str | None = None
    aliases: tuple[str, ...] | None = None
    number: str | None = None

    def __post_init__(self) -> None:
        if self.kind == "multiple_choice":
            if self.letter not in ("A", "B", "C", "D"):
                raise ValueError(f"gold letter must be A-D, got {self.letter!r}")
        elif self.kind == "open_qa":
            if not self.aliases:
                raise ValueError("open_qa gold requires at least one alias")
        elif self.kind == "numeric_cot":
            if self.number is None:
                raise ValueError("numeric_cot gold requires a number")
            Decimal(self.number)  # must parse
        else:
            raise ValueError(f"unknown gold kind {self.kind!r}")


@dataclass(frozen=True)
class Instance:
    instance_id: str
    task_type: str
    prompt: str
    gold: GoldAnswer

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise ValueError("instance_id must be non-empty")
        if not isinstance(self.prompt, str) or not self.prompt:
            raise ValueError(f"prompt must be a non-empty string, got {self.prompt!r}")
        if self.task_type not in TASK_TYPES:
            raise ValueError(f"unknown task_type {self.task_type!r}")
        if self.gold.kind != self.task_type:
            raise ValueError("gold kind must match task_type")


@dataclass(frozen=True)
class TaskPreset:
    name: str
    task_type: str
    decode: DecodeParams
    answer_span: AnswerSpan


PRESETS: dict[str, TaskPreset] = {
    "mmlu": TaskPreset(
        "mmlu", "multiple_choice", DecodeParams(max_new_tokens=5), AnswerSpan("full")
    ),
    "triviaqa": TaskPreset(
        "triviaqa", "open_qa", DecodeParams(max_new_tokens=8), AnswerSpan("full")
    ),
    "gsm8k": TaskPreset(
        "gsm8k",
        "numeric_cot",
        DecodeParams(max_new_tokens=256),
        AnswerSpan("final_answer"),
    ),
}


def get_preset(name: str) -> TaskPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise DataError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}") from None


def _parse_gold(raw, task_type: str) -> GoldAnswer:
    if isinstance(raw, dict):
        if task_type == "multiple_choice":
            return GoldAnswer(task_type, letter=str(raw["letter"]).strip().upper())
        if task_type == "open_qa":
            return GoldAnswer(task_type, aliases=tuple(str(a) for a in raw["aliases"]))
        return GoldAnswer(task_type, number=str(raw["number"]))
    if task_type == "multiple_choice":
        return GoldAnswer(task_type, letter=str(raw).strip().upper())
    if task_type == "open_qa":
        aliases = raw if isinstance(raw, (list, tuple)) else [raw]
        return GoldAnswer(task_type, aliases=tuple(str(a) for a in aliases))
    return GoldAnswer(task_type, number=str(raw))


def load_dataset(
    path: str | Path,
    limit: int | None = None,
    seed: int = 0,
    strict: bool = True,
    errors_out: list[tuple[int, str]] | None = None,
) -> list[Instance]:
    """Load instances, optionally subsampling to `limit` with a fixed seed.

    The result is a pure function of the file bytes and arguments:
    subsampling uses the seed alone and the final order is by
    instance_id. Malformed lines are fatal when strict, otherwise
    skipped and reported through errors_out as (line_number, message);
    a file that cannot be read or is not UTF-8 is fatal either way.
    """
    seen: set[str] = set()

    def decode(raw: dict) -> Instance:
        inst = Instance(str(raw["id"]), raw["task_type"], raw["prompt"],
                        _parse_gold(raw["gold"], raw["task_type"]))
        if inst.instance_id in seen:
            raise DataError(f"duplicate instance_id {inst.instance_id!r}")
        seen.add(inst.instance_id)
        return inst

    skipped = None if strict else (errors_out if errors_out is not None else [])
    instances = read_jsonl(path, decode, skipped=skipped)
    if limit is not None and limit < len(instances):
        rng = random.Random(seed)
        instances = [instances[i] for i in sorted(rng.sample(range(len(instances)), limit))]
    return sorted(instances, key=lambda inst: inst.instance_id)


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop leading
    articles. Idempotent."""
    words = text.lower().translate(_PUNCT_TABLE).split()
    while words and words[0] in _ARTICLES:
        words = words[1:]
    return " ".join(words)


def extract_with_flags(raw_text: str, task_type: str) -> tuple[str, list[str]]:
    """Extract the answer plus diagnostic flags (e.g. marker fallback)."""
    if task_type == "multiple_choice":
        m = _LETTER.search(raw_text)
        if not m:
            raise ExtractionError("no standalone answer letter found")
        return m.group(1).upper(), []
    if task_type == "open_qa":
        norm = normalize(raw_text)
        if not norm:
            raise ExtractionError("answer empty after normalization")
        return norm, []
    # numeric_cot: the final-answer span that log_cmp_final also scores
    span, flags = final_answer_span(raw_text)
    if span is None:
        raise ExtractionError("no numeric literal in answer")
    return raw_text[span[0]:span[1]].replace(",", ""), flags


def extract_answer(raw_text: str, task_type: str) -> str:
    """Extract the comparable answer string from a raw generation."""
    value, _ = extract_with_flags(raw_text, task_type)
    return value


def judge(extracted: str | None, gold: GoldAnswer) -> bool:
    """Exact-match correctness; extraction failures (None) judge False."""
    if extracted is None:
        return False
    if gold.kind == "multiple_choice":
        return extracted.strip().upper() == gold.letter
    if gold.kind == "open_qa":
        norm = normalize(extracted)
        return any(norm == normalize(alias) for alias in gold.aliases or ())
    try:
        return Decimal(extracted.replace(",", "")) == Decimal(gold.number or "")
    except InvalidOperation:
        return False


def judge_generation(raw_text: str, gold: GoldAnswer) -> tuple[bool, list[str]]:
    """Extract-and-judge with totality: every generation gets a label and
    extraction failures are labeled incorrect and flagged."""
    try:
        extracted, flags = extract_with_flags(raw_text, gold.kind)
    except ExtractionError as exc:
        return False, [f"extraction_failure: {exc}"]
    return judge(extracted, gold), flags
