"""Deterministic in-process backend for tests and offline demos.

A mock backend wraps a scripted next-token model. Generation and scoring
both consult the same model, so a mock used as its own verifier
reproduces its generation-time scores exactly.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import threading
from typing import Callable, Mapping, Sequence

from ..errors import CapabilityError
from .base import Backend, entropy_of, residual_bucket_entropy
from .types import BackendCapabilities, DecodeParams, EntropySupport, GeneratedAnswer, TokenScore

_PIECE = re.compile(r"\s*\S+")

# Floor applied when a realized token has zero scripted mass, so that
# log-probabilities stay finite.
OOV_PROB = 1e-12


def mock_tokenize(text: str) -> list[tuple[str, int, int]]:
    """Split text into (piece, start, end) runs of leading-whitespace +
    non-space. Trailing whitespace attaches to the final piece so the
    spans always partition the input exactly."""
    pieces = [(m.group(), m.start(), m.end()) for m in _PIECE.finditer(text)]
    if pieces and pieces[-1][2] < len(text):
        tok, start, _ = pieces[-1]
        pieces[-1] = (text[start:], start, len(text))
    return pieces


class ScriptedModel:
    """Next-token distribution as a pure function of the preceding text."""

    def distribution(self, context: str) -> Mapping[str, float]:
        raise NotImplementedError

    def prob_of(self, context: str, token: str) -> float:
        return self.distribution(context).get(token, OOV_PROB)


class UniformModel(ScriptedModel):
    """Uniform over a fixed vocabulary; any realized token gets mass 1/V."""

    def __init__(self, vocab: Sequence[str]):
        self.vocab = tuple(vocab)

    def distribution(self, context: str) -> Mapping[str, float]:
        p = 1.0 / len(self.vocab)
        return {tok: p for tok in self.vocab}

    def prob_of(self, context: str, token: str) -> float:
        return 1.0 / len(self.vocab)


class CallableModel(ScriptedModel):
    """Wraps an arbitrary context -> distribution function."""

    def __init__(self, fn: Callable[[str], Mapping[str, float]]):
        self._fn = fn

    def distribution(self, context: str) -> Mapping[str, float]:
        return self._fn(context)


class SeededModel(ScriptedModel):
    """Deterministic pseudo-random model over a synthetic vocabulary.

    The distribution at each position is a fixed function of
    (seed, context) via a sha256 digest, so results are reproducible
    across processes. peak > 0 sharpens the distributions; a custom
    vocab makes generations judgeable (e.g. answer letters).
    """

    def __init__(self, seed: int, vocab_size: int = 16, peak: float = 1.0,
                 vocab: Sequence[str] | None = None):
        self.seed = seed
        self.vocab = tuple(vocab) if vocab else tuple(f" tok{i}" for i in range(vocab_size))
        self.peak = peak

    def distribution(self, context: str) -> Mapping[str, float]:
        digest = hashlib.sha256(f"{self.seed}\x00{context}".encode()).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        weights = [rng.expovariate(1.0) ** self.peak for _ in self.vocab]
        total = sum(weights)
        return {tok: w / total for tok, w in zip(self.vocab, weights)}


class MockBackend(Backend):
    """Scripted backend with an ordered call log, safe under concurrency."""

    def __init__(
        self,
        backend_id: str,
        model: ScriptedModel,
        *,
        can_generate: bool = True,
        can_score: bool = True,
        entropy_support: EntropySupport | None = None,
        vocab_size: int | None = None,
        generations: Mapping[str, str] | None = None,
    ):
        self.backend_id = backend_id
        self.model = model
        self._can_generate = can_generate
        self._can_score = can_score
        self._support = entropy_support or EntropySupport.exact()
        self._vocab_size = vocab_size
        self._generations = dict(generations or {})
        self._log: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    # --- call log -------------------------------------------------------

    def calls(self, kind: str | None = None) -> int:
        with self._lock:
            return sum(1 for k, _ in self._log if kind is None or k == kind)

    def _record(self, kind: str, prompt: str) -> None:
        with self._lock:
            self._log.append((kind, prompt))

    # --- capabilities ----------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            can_generate=self._can_generate,
            can_score=self._can_score,
            entropy_support=self._support,
            vocab_size=self._vocab_size,
        )

    # --- scoring ----------------------------------------------------------

    def _position_entropy(self, dist: Mapping[str, float]) -> float | None:
        if self._support.kind == "none":
            return None
        if self._support.kind == "top_k":
            return residual_bucket_entropy(sorted(dist.values(), reverse=True)[: self._support.k])
        return entropy_of(dist)

    def _token_score(self, dist: Mapping[str, float], tok: str, p: float,
                     start: int) -> TokenScore:
        """The realized token `tok` with mass `p` at absolute offset `start`."""
        return TokenScore(tok, min(math.log(p), 0.0), self._position_entropy(dist),
                          (start, start + len(tok)))

    def _score_tokens(self, prompt: str, answer: str) -> tuple[TokenScore, ...]:
        scores = []
        for tok, start, _ in mock_tokenize(answer):
            context = prompt + answer[:start]
            dist = self.model.distribution(context)
            p = self.model.prob_of(context, tok)
            scores.append(self._token_score(dist, tok, p, len(prompt) + start))
        return tuple(scores)

    def _answer_token_scores(self, prompt: str, answer: str) -> tuple[TokenScore, ...]:
        self._record("score", prompt)
        return self._score_tokens(prompt, answer)

    # --- generation -------------------------------------------------------

    def generate(self, prompt: str, params: DecodeParams) -> GeneratedAnswer:
        if not self._can_generate:
            raise CapabilityError(f"backend {self.backend_id!r} cannot generate")
        self._record("generate", prompt)
        if prompt in self._generations:
            return self._scripted_answer(prompt, params)
        return self._greedy_decode(prompt, params)

    def _scripted_answer(self, prompt: str, params: DecodeParams) -> GeneratedAnswer:
        full = self._generations[prompt]
        reason = "stop"
        for stop in params.stop_sequences:
            idx = full.find(stop)
            if idx != -1:
                full = full[:idx]
        pieces = mock_tokenize(full)
        if len(pieces) > params.max_new_tokens:
            text = full[: pieces[params.max_new_tokens - 1][2]]
            reason = "length"
        else:
            text = full
        scores = self._score_tokens(prompt, text) or None
        return GeneratedAnswer(text=text, finish_reason=reason, generator_token_scores=scores)

    def _greedy_decode(self, prompt: str, params: DecodeParams) -> GeneratedAnswer:
        answer = ""
        scores: list[TokenScore] = []
        reason = "length"
        for _ in range(params.max_new_tokens):
            context = prompt + answer
            dist = self.model.distribution(context)
            tok, p = max(dist.items(), key=lambda kv: (kv[1], kv[0]))
            start = len(answer)
            answer += tok
            stopped = False
            for stop in params.stop_sequences:
                idx = answer.find(stop)
                if idx != -1:
                    answer = answer[:idx]
                    stopped = True
                    break
            if stopped:
                reason = "stop"
                break
            scores.append(self._token_score(dist, tok, p, len(prompt) + start))
        # Drop scores for tokens truncated away by a stop sequence.
        scores = [s for s in scores if s.char_span[1] <= len(prompt) + len(answer)]
        return GeneratedAnswer(
            text=answer,
            finish_reason=reason,
            generator_token_scores=tuple(scores) if scores else None,
        )

    # --- verification prompting --------------------------------------------

    def _next_token_distribution(self, context: str) -> Mapping[str, float]:
        self._record("ptrue", context)
        dist = self.model.distribution(context)
        if self._support.kind == "top_k":
            top = sorted(dist.items(), key=lambda kv: kv[1], reverse=True)[: self._support.k]
            return dict(top)
        return dist
