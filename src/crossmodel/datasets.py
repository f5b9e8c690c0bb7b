"""Evaluation instances: loading, answer extraction, and judging.

Dataset files are line-delimited JSON, one instance per line:

    {"id": "q1", "task_type": "multiple_choice", "prompt": "...", "gold": "B"}
    {"id": "q2", "task_type": "open_qa",        "prompt": "...", "gold": ["Beatles", "The Beatles"]}
    {"id": "q3", "task_type": "numeric_cot",    "prompt": "...", "gold": "42"}

`gold` may also be spelled explicitly as {"letter": ...}, {"aliases":
[...]}, or {"number": ...}. Prompts arrive fully rendered; the shipped
presets only fix the task type and decoding limits.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .backend.types import DecodeParams
from .errors import ConfigError, DataError, ExtractionError
from .serialize import read_jsonl
from .signals import FinalAnswer, final_answer_span

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
            if not (type(self.aliases) is tuple and all(isinstance(a, str) for a in self.aliases)):
                raise TypeError(f"open_qa gold aliases must be an array of strings, "
                                f"got {self.aliases!r}")
        elif self.kind == "numeric_cot":
            if self.number is None:
                raise ValueError("numeric_cot gold requires a number")
            if not isinstance(self.number, str):
                raise TypeError(f"numeric_cot gold must be a string or a number, "
                                f"got {self.number!r}")
            try:
                Decimal(self.number)
            except InvalidOperation:
                raise ValueError(f"numeric_cot gold must be a number, "
                                 f"got {self.number!r}") from None
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


PRESETS: dict[str, TaskPreset] = {
    "mmlu": TaskPreset("mmlu", "multiple_choice", DecodeParams(max_new_tokens=5)),
    "triviaqa": TaskPreset("triviaqa", "open_qa", DecodeParams(max_new_tokens=8)),
    "gsm8k": TaskPreset("gsm8k", "numeric_cot", DecodeParams(max_new_tokens=256)),
}


def get_preset(name: str) -> TaskPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}") from None


def _parse_gold(raw, task_type: str) -> GoldAnswer:
    """The gold answer a dataset line gives, bare or spelled out; no value
    is converted to a string but a non-bool number."""
    spelled = isinstance(raw, dict)
    if task_type == "multiple_choice":
        letter = raw["letter"] if spelled else raw
        if isinstance(letter, str):
            letter = letter.strip().upper()
        return GoldAnswer(task_type, letter=letter)
    if task_type == "open_qa":
        aliases = raw["aliases"] if spelled else raw if isinstance(raw, list) else [raw]
        if isinstance(aliases, list):
            aliases = tuple(aliases)
        return GoldAnswer(task_type, aliases=aliases)
    number = raw["number"] if spelled else raw
    return GoldAnswer(task_type, number=str(number) if type(number) in (int, float) else number)


def load_dataset(path: str | Path, limit: int | None = None, seed: int = 0) -> list[Instance]:
    """Load instances, optionally subsampling to `limit` with a fixed seed.

    The result is a pure function of the file bytes and arguments:
    subsampling uses the seed alone and the final order is by
    instance_id. A malformed line, or a file that cannot be read or is
    not UTF-8, is a DataError.
    """
    seen: set[str] = set()

    def decode(raw: dict) -> Instance:
        if type(raw["id"]) not in (str, int):
            raise TypeError(f"id must be a string or an integer, got {raw['id']!r}")
        inst = Instance(str(raw["id"]), raw["task_type"], raw["prompt"],
                        _parse_gold(raw["gold"], raw["task_type"]))
        if inst.instance_id in seen:
            raise DataError(f"duplicate instance_id {inst.instance_id!r}")
        seen.add(inst.instance_id)
        return inst

    instances = read_jsonl(path, decode)
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


def extract_with_flags(raw_text: str, task_type: str,
                       final_answer: FinalAnswer | None = None) -> tuple[str, list[str]]:
    """Extract the answer plus diagnostic flags (e.g. marker fallback). A
    numeric answer's `final_answer_span(raw_text)` may be passed in, for a
    caller that has already scanned it."""
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
    span, flags = final_answer or final_answer_span(raw_text)
    if span is None:
        raise ExtractionError("no numeric literal in answer")
    return raw_text[span[0]:span[1]].replace(",", ""), flags


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


def judge_generation(raw_text: str, gold: GoldAnswer,
                     final_answer: FinalAnswer | None = None) -> tuple[bool, list[str]]:
    """Extract-and-judge with totality: every generation gets a label and
    extraction failures are labeled incorrect and flagged. `final_answer`
    is passed on to `extract_with_flags`."""
    try:
        extracted, flags = extract_with_flags(raw_text, gold.kind, final_answer)
    except ExtractionError as exc:
        return False, [f"extraction_failure: {exc}"]
    return judge(extracted, gold), flags
