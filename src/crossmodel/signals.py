"""Scalar disagreement signals computed from token scores.

All likelihood-flavored signals live in log space: `log_cmp` is the
verifier's mean negative log-likelihood over answer tokens (exponentiate
for a perplexity reading), and `log_gppl` is the same aggregation over
the generator's own scores. Log space avoids overflow on long sequences
and, being a monotone transform, leaves every ranking metric unchanged.

Entropy signals (`cme`, `g_ent`) are means of per-position entropies in
nats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .backend.types import GeneratedAnswer, ScoredSequence, TokenScore
from .errors import CapabilityError, DataError, DegenerateInputError, MarkerNotFoundError
from .serialize import Record

DEFAULT_MARKER = "ANSWER:"

# Optional sign, digits with comma grouping, at most one decimal point.
_NUMERIC_RUN = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


@dataclass(frozen=True)
class AnswerSpan:
    """Which part of the answer a signal is computed over."""

    mode: str = "full"  # "full" | "final_answer"
    marker: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("full", "final_answer"):
            raise ValueError(f"mode must be full|final_answer, got {self.mode!r}")
        if self.mode == "final_answer" and self.marker == "":
            raise ValueError("final_answer mode requires a non-empty marker")

    @property
    def effective_marker(self) -> str:
        return self.marker or DEFAULT_MARKER


@dataclass
class SignalRecord(Record):
    """All signals computed for one instance, plus correctness labels.

    Optional fields are None when the corresponding capability was
    missing; they are never defaulted to a number.
    """

    instance_id: str
    log_cmp: float | None = None
    cme: float | None = None
    log_gppl: float | None = None
    g_ent: float | None = None
    log_cmp_final: float | None = None
    p_true: float | None = None
    generator_correct: bool | None = None
    verifier_correct: bool | None = None


SIGNAL_FIELDS = ("log_cmp", "cme", "log_gppl", "g_ent", "log_cmp_final", "p_true")

# Signals where LOW values are suspicious; their suspicion score is negated
# so that "higher = more suspicious" holds uniformly downstream.
_INVERTED = frozenset({"p_true"})


def suspicion_score(record: SignalRecord, signal: str) -> float | None:
    """Signal value oriented so that higher always means more suspicious.
    A non-finite value is a DataError: no metric or route can rank it."""
    if signal not in SIGNAL_FIELDS:
        raise KeyError(f"unknown signal {signal!r}")
    value = getattr(record, signal)
    if value is None:
        return None
    if not math.isfinite(value):
        raise DataError(f"instance {record.instance_id}: signal {signal!r} is {value}, not finite")
    return -value if signal in _INVERTED else value


def _mean_nll(scores: Sequence[TokenScore]) -> float:
    if not scores:
        raise DegenerateInputError("no token scores to aggregate")
    total = sum(ts.logprob for ts in scores)
    # 0.0 means every token is certain, so a mean that underflows stays positive
    return max(-total / len(scores), math.ulp(0.0)) if total < 0.0 else 0.0


def _mean_entropy(scores: Sequence[TokenScore]) -> float:
    if not scores:
        raise DegenerateInputError("no token scores to aggregate")
    entropies = [ts.entropy for ts in scores]
    if any(e is None for e in entropies):
        raise CapabilityError("entropy absent from token scores")
    return sum(entropies) / len(entropies)  # type: ignore[arg-type]


def cmp(scored: ScoredSequence) -> float:
    """Verifier mean negative log-likelihood over answer tokens (log-CMP)."""
    return _mean_nll(scored.token_scores)


def cme(scored: ScoredSequence) -> float:
    """Mean per-position entropy of the scorer over answer tokens, in nats."""
    if scored.entropy_support.kind == "none":
        raise CapabilityError(f"scorer {scored.scorer_id!r} has no entropy support")
    return _mean_entropy(scored.token_scores)


def g_ppl(generated: GeneratedAnswer) -> float:
    """Generator mean negative log-likelihood on its own answer (log-G-PPL)."""
    if generated.generator_token_scores is None:
        raise CapabilityError("generator did not echo token scores")
    return _mean_nll(generated.generator_token_scores)


def g_ent(generated: GeneratedAnswer) -> float:
    """Generator mean per-position entropy on its own answer, in nats."""
    if generated.generator_token_scores is None:
        raise CapabilityError("generator did not echo token scores")
    return _mean_entropy(generated.generator_token_scores)


def final_answer_char_span(answer_text: str, marker: str = DEFAULT_MARKER) -> tuple[int, int]:
    """Character span (into the answer text) of the maximal numeric run
    after the last occurrence of the marker."""
    idx = answer_text.rfind(marker)
    if idx == -1:
        raise MarkerNotFoundError(f"marker {marker!r} not found in answer")
    match = _NUMERIC_RUN.search(answer_text, idx + len(marker))
    if match is None:
        raise MarkerNotFoundError(f"no numeric run after marker {marker!r}")
    return match.start(), match.end()


def cmp_final(scored: ScoredSequence, span: AnswerSpan) -> float:
    """log-CMP restricted to tokens overlapping the final numeric answer.

    Raises MarkerNotFoundError when the marker (or a numeric run after
    it) is absent; callers that want full-span fallback must do so
    explicitly.
    """
    if span.mode != "final_answer":
        raise ValueError("cmp_final requires a final_answer span")
    rel_start, rel_end = final_answer_char_span(scored.answer_text, span.effective_marker)
    offset = len(scored.prompt_text)
    lo, hi = offset + rel_start, offset + rel_end
    selected = [
        ts for ts in scored.token_scores if ts.char_span[1] > lo and ts.char_span[0] < hi
    ]
    return _mean_nll(selected)


def signal_vector(
    instance_id: str,
    generated: GeneratedAnswer,
    verifier_scored: ScoredSequence,
    span: AnswerSpan | None = None,
    ptrue: float | None = None,
    generator_correct: bool | None = None,
    verifier_correct: bool | None = None,
) -> SignalRecord:
    """Bundle every signal computable from the given inputs.

    Fields whose inputs are missing (no entropy support, no generator
    echo, no final-answer marker) come back as None.
    """
    record = SignalRecord(
        instance_id=instance_id,
        log_cmp=cmp(verifier_scored),
        p_true=ptrue,
        generator_correct=generator_correct,
        verifier_correct=verifier_correct,
    )
    try:
        record.cme = cme(verifier_scored)
    except CapabilityError:
        pass
    try:
        record.log_gppl = g_ppl(generated)
        record.g_ent = g_ent(generated)
    except CapabilityError:
        pass
    if span is not None and span.mode == "final_answer":
        try:
            record.log_cmp_final = cmp_final(verifier_scored, span)
        except MarkerNotFoundError:
            pass
    return record
