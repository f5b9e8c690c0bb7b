"""Backend interface plus scoring math shared by all implementations."""

from __future__ import annotations

import abc
import math
from typing import Iterable, Mapping

from ..errors import CapabilityError, DegenerateInputError
from .types import BackendCapabilities, DecodeParams, GeneratedAnswer, ScoredSequence, TokenScore

# Verification template, fixed for v1. The yes/no tokens are scored at the
# position immediately following the trailing "Answer:".
PTRUE_TEMPLATE = (
    "{prompt}\nProposed answer: {answer}\n"
    "Is the proposed answer correct? Yes or No.\nAnswer:"
)


def ptrue_prompt(prompt: str, answer: str) -> str:
    return PTRUE_TEMPLATE.format(prompt=prompt, answer=answer)


def entropy_of(dist: Mapping[str, float] | Iterable[float]) -> float:
    """Shannon entropy in nats of a full probability distribution."""
    probs = dist.values() if isinstance(dist, Mapping) else dist
    h = 0.0
    for p in probs:
        if p > 0.0:
            h -= p * math.log(p)
    return h


def residual_bucket_entropy(top_probs: list[float]) -> float:
    """Entropy of the top-k probabilities plus a single residual
    pseudo-token holding the unobserved mass.

    This is a deterministic lower-biased stand-in for the exact entropy
    when only k probabilities per position are observable.
    """
    return entropy_of(top_probs + [max(0.0, 1.0 - sum(top_probs))])


def topk_entropy(top_logprobs: Iterable[float]) -> float:
    """Residual-bucket entropy of the echoed top-k logprobs."""
    return residual_bucket_entropy([math.exp(lp) for lp in top_logprobs])


def _yes_no_mass(dist: Mapping[str, float]) -> tuple[float, float]:
    p_yes = 0.0
    p_no = 0.0
    for token, p in dist.items():
        norm = token.strip().lower()
        if norm == "yes":
            p_yes += p
        elif norm == "no":
            p_no += p
    return p_yes, p_no


def ptrue_from_distribution(dist: Mapping[str, float]) -> float:
    """p(yes) / (p(yes) + p(no)) over the next-token distribution, summing
    probability across case variants of each word."""
    p_yes, p_no = _yes_no_mass(dist)
    if p_yes == 0.0 and p_no == 0.0:
        raise CapabilityError(
            "neither a yes-token nor a no-token is resolvable in the scorer's echo"
        )
    return p_yes / (p_yes + p_no)


class Backend(abc.ABC):
    """A model behind two capabilities: greedy generation and prefill
    scoring of a fixed (prompt, answer) pair.

    A subclass implements `capabilities`, `generate`,
    `_answer_token_scores` and `_next_token_distribution`. The scoring
    contract (capability and degenerate-input checks, the ScoredSequence
    with the advertised entropy support) lives here alone, so a refused
    call never reaches a subclass.

    Handles are shareable across threads; each call is internally
    sequential and independent calls may overlap.
    """

    backend_id: str

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities: ...

    @abc.abstractmethod
    def generate(self, prompt: str, params: DecodeParams) -> GeneratedAnswer: ...

    @abc.abstractmethod
    def _answer_token_scores(self, prompt: str, answer: str) -> tuple[TokenScore, ...]:
        """One prefill of prompt + answer: the scorer's tokens overlapping
        the answer region, in order, spans clamped to that region."""

    @abc.abstractmethod
    def _next_token_distribution(self, context: str) -> Mapping[str, float]:
        """Probability mass over candidate next tokens after `context`, as
        observable by this backend (full vocabulary or top-k echo)."""

    def close(self) -> None:
        """Release what the backend holds open (connections); a backend
        holding nothing keeps this no-op. Calls after close may reopen."""

    def _scoring_capabilities(self) -> BackendCapabilities:
        caps = self.capabilities()
        if not caps.can_score:
            raise CapabilityError(f"backend {self.backend_id!r} cannot score")
        return caps

    def score_sequence(self, prompt: str, answer: str) -> ScoredSequence:
        """Prefill-score a fixed answer; never generates."""
        caps = self._scoring_capabilities()
        if not answer:
            raise DegenerateInputError("empty answer")
        scores = self._answer_token_scores(prompt, answer)
        if not scores:
            raise DegenerateInputError("answer tokenizes to zero tokens under the scorer")
        return ScoredSequence(prompt, answer, self.backend_id, scores, caps.entropy_support)

    def judge_ptrue(self, prompt: str, answer: str) -> float:
        """Probability the model answers Yes when asked whether `answer`
        is correct, renormalized over the yes/no pair."""
        self._scoring_capabilities()
        dist = self._next_token_distribution(ptrue_prompt(prompt, answer))
        return ptrue_from_distribution(dist)
