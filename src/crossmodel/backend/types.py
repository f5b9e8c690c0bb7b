"""Backend domain types: decode parameters, token scores, scored sequences.

Conventions used everywhere in this package:
  - log-probabilities are natural logs (nats), always <= 0;
  - entropies are in nats, always >= 0, and may be absent when the
    backend cannot echo a distribution;
  - char spans are [start, end) offsets into the concatenated
    prompt + answer text.

A sequence's token scores are held as the four columns of `TokenScores`;
`TokenScore` states the rules each token's values obey.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class EntropySupport:
    """How a backend's per-position entropy was obtained.

    kind is one of "exact" (full distribution), "top_k" (entropy of the
    top-k tokens plus a residual bucket holding the remaining mass), or
    "none" (no distribution echo; entropy fields are absent).
    """

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "top_k", "none"):
            raise ValueError(f"unknown entropy support kind: {self.kind!r}")
        if self.kind == "top_k" and (self.k is None or self.k < 1):
            raise ValueError("top_k support requires k >= 1")
        if self.kind != "top_k" and self.k is not None:
            raise ValueError("k is only meaningful for top_k support")

    @classmethod
    def exact(cls) -> "EntropySupport":
        return cls("exact")

    @classmethod
    def top_k(cls, k: int) -> "EntropySupport":
        return cls("top_k", k)

    @classmethod
    def none(cls) -> "EntropySupport":
        return cls("none")


@dataclass(frozen=True)
class BackendCapabilities:
    can_generate: bool
    can_score: bool
    entropy_support: EntropySupport


@dataclass(frozen=True)
class DecodeParams:
    """Greedy decoding with no stop sequence; only the length bound is set."""

    max_new_tokens: int

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


def _check_logprob(logprob: float) -> None:
    if not (math.isfinite(logprob) and logprob <= 0.0):
        raise ValueError(f"logprob must be finite and <= 0, got {logprob}")


def _check_entropy(entropy: float | None) -> None:
    if entropy is not None and not (math.isfinite(entropy) and entropy >= 0.0):
        raise ValueError(f"entropy must be finite and >= 0, got {entropy}")


def _check_span(span: tuple[int, int]) -> None:
    start, end = span
    if type(start) is not int or type(end) is not int:
        raise ValueError(f"char_span must be two ints, got {span!r}")
    if end <= start:
        raise ValueError(f"char_span must be non-empty, got {span}")


def _spans_well_formed(spans: tuple[Any, ...]) -> bool:
    """Whether every span passes `_check_span`, tested a column at a time."""
    try:
        if set(map(len, spans)) != {2}:
            return False
        starts, ends = zip(*spans)
    except TypeError:  # a span that is no sequence
        return False
    return set(map(type, starts + ends)) == {int} and all(map(operator.lt, starts, ends))


@dataclass(frozen=True)
class TokenScore:
    """The values of one scored token position, and the rules they obey.

    `TokenScores` checks its columns by these rules. logprob is the
    natural-log probability of the realized token;
    entropy is the full-distribution (or top-k approximated) entropy at
    this position, or None when the backend has no distribution echo.
    """

    token_text: str
    logprob: float
    entropy: float | None
    char_span: tuple[int, int]

    def __post_init__(self) -> None:
        _check_logprob(self.logprob)
        _check_entropy(self.entropy)
        _check_span(self.char_span)


@dataclass(frozen=True, slots=True)
class TokenScores:
    """The token scores of one sequence, held as four parallel columns.

    This is the one form of token scores in memory. Each column is checked
    once, by the rules `TokenScore` states for one token, so a sequence
    costs four tuples rather than one object per token.
    """

    texts: tuple[str, ...]
    logprobs: tuple[float, ...]
    entropies: tuple[float | None, ...]
    spans: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        columns = (tuple(self.texts), tuple(self.logprobs), tuple(self.entropies),
                   tuple(self.spans))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"token score columns differ in length: {[len(c) for c in columns]}")
        texts, logprobs, entropies, spans = columns
        # The whole-column tests run in C; the row check names a failing value.
        if logprobs and not (all(map(math.isfinite, logprobs)) and max(logprobs) <= 0.0):
            for logprob in logprobs:
                _check_logprob(logprob)
        present = entropies if None not in entropies else [e for e in entropies if e is not None]
        if present and not (all(map(math.isfinite, present)) and min(present) >= 0.0):
            for entropy in present:
                _check_entropy(entropy)
        if spans and not _spans_well_formed(spans):
            for span in spans:
                _check_span(span)
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.texts)


@dataclass(frozen=True)
class GeneratedAnswer:
    """A greedy answer, optionally with the generator's own token scores
    captured during decoding (needed for the within-model baselines)."""

    text: str
    finish_reason: str  # "stop" | "length"
    generator_token_scores: TokenScores | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"answer text must be a string, got {type(self.text).__name__}")
        if self.finish_reason not in ("stop", "length"):
            raise ValueError(f"finish_reason must be stop|length, got {self.finish_reason!r}")
        # an empty sequence carries no scores, the same as no echo at all
        object.__setattr__(self, "generator_token_scores", self.generator_token_scores or None)


@dataclass(frozen=True)
class ScoredSequence:
    """A (prompt, answer) pair prefill-scored by one backend.

    token_scores holds exactly the scorer-tokenizer tokens overlapping
    the answer region, in position order, with spans clamped to that
    region so that the spans partition the answer text.
    answer_token_count is the scorer's own answer-token count T.
    """

    prompt_text: str
    answer_text: str
    scorer_id: str
    token_scores: TokenScores
    entropy_support: EntropySupport
    answer_token_count: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.answer_token_count == -1:
            object.__setattr__(self, "answer_token_count", len(self.token_scores))
        if self.answer_token_count != len(self.token_scores):
            raise ValueError("answer_token_count must equal len(token_scores)")
        region = (len(self.prompt_text), len(self.prompt_text) + len(self.answer_text))
        for start, end in self.token_scores.spans:
            if start < region[0] or end > region[1]:
                raise ValueError(f"token span {(start, end)} outside answer region {region}")
