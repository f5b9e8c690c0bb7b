"""Scalar disagreement signals computed from token scores.

All likelihood-flavored signals live in log space: `log_cmp` is the
verifier's mean negative log-likelihood over answer tokens (exponentiate
for a perplexity reading), and `log_gppl` is the same aggregation over
the generator's own scores. Log space avoids overflow on long sequences
and, being a monotone transform, leaves every ranking metric unchanged.

Entropy signals (`cme`, `g_ent`) are means of per-position entropies in
nats.

Eval, route and abstain compute from `SignalColumns`, one list per
`SignalRecord` field: a signals file is read straight into them, and a
record sequence is converted once on entry. `signal_columns` is the one
place where they become oriented suspicion scores.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import compress
from typing import Sequence

from .backend.types import GeneratedAnswer, ScoredSequence
from .errors import CapabilityError, DataError, DegenerateInputError
from .serialize import Record

DEFAULT_MARKER = "ANSWER:"

# Optional sign, digits with comma grouping, at most one decimal point.
_NUMERIC_RUN = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


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


@dataclass(frozen=True)
class SignalColumns:
    """Signal records as columns, one list per `SignalRecord` field, all in one
    order: the form a signals file is read into, and the one that eval, route
    and abstain compute from."""

    instance_id: list[str]
    log_cmp: list[float | None]
    cme: list[float | None]
    log_gppl: list[float | None]
    g_ent: list[float | None]
    log_cmp_final: list[float | None]
    p_true: list[float | None]
    generator_correct: list[bool | None]
    verifier_correct: list[bool | None]

    @classmethod
    def of(cls, records: Signals) -> SignalColumns:
        """The boundary: a SignalRecord sequence converts once, columns pass
        through."""
        if isinstance(records, SignalColumns):
            return records
        return cls(**{f.name: [getattr(rec, f.name) for rec in records]
                      for f in fields(SignalRecord)})

    def take(self, rows: Sequence[int]) -> SignalColumns:
        """The given rows, in the given order."""
        return SignalColumns(**{f.name: list(map(getattr(self, f.name).__getitem__, rows))
                                for f in fields(self)})

    def __len__(self) -> int:
        return len(self.instance_id)


Signals = Sequence[SignalRecord] | SignalColumns


@dataclass(frozen=True)
class CellStat:
    """A signal's mean over the instances of one (generator, verifier)
    outcome cell that carry it (None when none does), and the cell's size."""

    mean_score: float | None
    n: int

# Signals where LOW values are suspicious; their suspicion score is negated
# so that "higher = more suspicious" holds uniformly downstream.
_INVERTED = frozenset({"p_true"})


def _not_finite(instance_id: str, signal: str, value: float) -> DataError:
    return DataError(f"instance {instance_id}: signal {signal!r} is {value}, not finite")


def suspicion_score(record: SignalRecord, signal: str) -> float | None:
    """Signal value oriented so that higher always means more suspicious.
    A non-finite value is a DataError: no metric or route can rank it."""
    if signal not in SIGNAL_FIELDS:
        raise KeyError(f"unknown signal {signal!r}")
    value = getattr(record, signal)
    if value is None:
        return None
    if not math.isfinite(value):
        raise _not_finite(record.instance_id, signal, value)
    return -value if signal in _INVERTED else value


def signal_columns(
    records: Signals, signal: str
) -> tuple[list[str], list[float], list[bool | None], list[bool | None]]:
    """(ids, suspicion scores, generator labels, verifier labels) of the
    records that carry `signal`, in record order: the one place where eval,
    route and abstain turn signal columns into scores, as `suspicion_score`
    does for one record."""
    if signal not in SIGNAL_FIELDS:
        raise KeyError(f"unknown signal {signal!r}")
    cols = SignalColumns.of(records)
    values = getattr(cols, signal)
    columns = (cols.instance_id, values, cols.generator_correct, cols.verifier_correct)
    if None in values:
        present = [value is not None for value in values]
        columns = (compress(column, present) for column in columns)
    ids, scores, weak, strong = map(list, columns)
    if not all(map(math.isfinite, scores)):
        at = next(i for i, value in enumerate(scores) if not math.isfinite(value))
        raise _not_finite(ids[at], signal, scores[at])
    if signal in _INVERTED:
        scores = [-value for value in scores]
    return ids, scores, weak, strong


def _mean_nll(logprobs: Sequence[float]) -> float:
    if not logprobs:
        raise DegenerateInputError("no token scores to aggregate")
    total = sum(logprobs)
    # 0.0 means every token is certain, so a mean that underflows stays positive
    return max(-total / len(logprobs), math.ulp(0.0)) if total < 0.0 else 0.0


def _mean_entropy(entropies: Sequence[float | None]) -> float:
    if not entropies:
        raise DegenerateInputError("no token scores to aggregate")
    if None in entropies:
        raise CapabilityError("entropy absent from token scores")
    return sum(entropies) / len(entropies)  # type: ignore[arg-type]


def cmp(scored: ScoredSequence) -> float:
    """Verifier mean negative log-likelihood over answer tokens (log-CMP)."""
    return _mean_nll(scored.token_scores.logprobs)


def cme(scored: ScoredSequence) -> float:
    """Mean per-position entropy of the scorer over answer tokens, in nats."""
    if scored.entropy_support.kind == "none":
        raise CapabilityError(f"scorer {scored.scorer_id!r} has no entropy support")
    return _mean_entropy(scored.token_scores.entropies)


def g_ppl(generated: GeneratedAnswer) -> float:
    """Generator mean negative log-likelihood on its own answer (log-G-PPL)."""
    if generated.generator_token_scores is None:
        raise CapabilityError("generator did not echo token scores")
    return _mean_nll(generated.generator_token_scores.logprobs)


def g_ent(generated: GeneratedAnswer) -> float:
    """Generator mean per-position entropy on its own answer, in nats."""
    if generated.generator_token_scores is None:
        raise CapabilityError("generator did not echo token scores")
    return _mean_entropy(generated.generator_token_scores.entropies)


# A final answer's character span (None when the text holds no number) and flags.
FinalAnswer = tuple[tuple[int, int] | None, list[str]]


def final_answer_span(text: str) -> FinalAnswer:
    """Character span of the final answer the judge grades, with its flags.

    The span is the last numeric run after the last marker. Failing
    that, it is the last numeric run anywhere, flagged `marker_missing`
    or `no_number_after_marker` plus `fallback_last_number`; it is None
    when the text holds no number.
    """
    idx = text.rfind(DEFAULT_MARKER)
    runs = [m.span() for m in _NUMERIC_RUN.finditer(text)]
    if idx == -1:
        flags = ["marker_missing"]
    elif runs and runs[-1][0] >= idx + len(DEFAULT_MARKER):
        return runs[-1], []
    else:
        flags = ["no_number_after_marker"]
    if not runs:
        return None, flags
    return runs[-1], [*flags, "fallback_last_number"]


def cmp_final(scored: ScoredSequence, final_answer: FinalAnswer | None = None) -> float:
    """log-CMP restricted to tokens overlapping the graded final answer.

    `final_answer` is `final_answer_span(scored.answer_text)`, for a caller
    that has already scanned the answer; it is scanned here otherwise.
    Raises DegenerateInputError when the judge fell back (no numeric run
    after the marker) or no token overlaps the graded number.
    """
    found, flags = final_answer or final_answer_span(scored.answer_text)
    if flags:
        raise DegenerateInputError(f"no graded final answer: {', '.join(flags)}")
    offset = len(scored.prompt_text)
    lo, hi = offset + found[0], offset + found[1]
    scores = scored.token_scores
    return _mean_nll([
        logprob for logprob, (start, end) in zip(scores.logprobs, scores.spans)
        if end > lo and start < hi
    ])


def signal_vector(
    instance_id: str,
    generated: GeneratedAnswer,
    verifier_scored: ScoredSequence,
    ptrue: float | None = None,
    generator_correct: bool | None = None,
    verifier_correct: bool | None = None,
    final_answer: FinalAnswer | None = None,
) -> SignalRecord:
    """Bundle every signal computable from the given inputs.

    Fields whose inputs are missing (no entropy support, no generator
    echo) come back as None. `log_cmp_final` is computed only when
    `final_answer`, the scan of a numeric answer, is given, and is None
    when `cmp_final` finds no graded number to score.
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
    if final_answer is not None:
        try:
            record.log_cmp_final = cmp_final(verifier_scored, final_answer)
        except DegenerateInputError:
            pass
    return record
