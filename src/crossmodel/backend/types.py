"""Backend domain types: decode parameters, token scores, scored sequences.

Conventions used everywhere in this package:
  - log-probabilities are natural logs (nats), always <= 0;
  - entropies are in nats, always >= 0, and may be absent when the
    backend cannot echo a distribution;
  - char spans are [start, end) offsets into the concatenated
    prompt + answer text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
    vocab_size: int | None = None


@dataclass(frozen=True)
class DecodeParams:
    """Greedy decoding parameters. temperature is pinned to 0 in v1."""

    max_new_tokens: int
    stop_sequences: tuple[str, ...] = ()
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature != 0.0:
            raise ValueError("only greedy decoding (temperature 0) is supported")


@dataclass(frozen=True)
class TokenScore:
    """One scored token position.

    logprob is the natural-log probability of the realized token;
    entropy is the full-distribution (or top-k approximated) entropy at
    this position, or None when the backend has no distribution echo.
    """

    token_text: str
    logprob: float
    entropy: float | None
    char_span: tuple[int, int]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.logprob) and self.logprob <= 0.0):
            raise ValueError(f"logprob must be finite and <= 0, got {self.logprob}")
        if self.entropy is not None and (self.entropy < 0.0 or math.isnan(self.entropy)):
            raise ValueError(f"entropy must be >= 0, got {self.entropy}")
        start, end = self.char_span
        if end <= start:
            raise ValueError(f"char_span must be non-empty, got {self.char_span}")


@dataclass(frozen=True)
class GeneratedAnswer:
    """A greedy answer, optionally with the generator's own token scores
    captured during decoding (needed for the within-model baselines)."""

    text: str
    finish_reason: str  # "stop" | "length"
    generator_token_scores: tuple[TokenScore, ...] | None = None

    def __post_init__(self) -> None:
        if self.finish_reason not in ("stop", "length"):
            raise ValueError(f"finish_reason must be stop|length, got {self.finish_reason!r}")


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
    token_scores: tuple[TokenScore, ...]
    entropy_support: EntropySupport
    answer_token_count: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.answer_token_count == -1:
            object.__setattr__(self, "answer_token_count", len(self.token_scores))
        if self.answer_token_count != len(self.token_scores):
            raise ValueError("answer_token_count must equal len(token_scores)")
        region = (len(self.prompt_text), len(self.prompt_text) + len(self.answer_text))
        for ts in self.token_scores:
            if ts.char_span[0] < region[0] or ts.char_span[1] > region[1]:
                raise ValueError(
                    f"token span {ts.char_span} outside answer region {region}"
                )
