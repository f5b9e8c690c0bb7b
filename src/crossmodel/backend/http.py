"""HTTP client for completions-style servers with logprob echo.

Scoring is a single prefill request: the concatenated prompt + answer is
POSTed with echo enabled and the server returns, per token, its text
offset, the realized-token logprob, and a top-k logprob map. No
autoregressive calls are ever issued for scoring.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import BackendError, CapabilityError, ConfigError, TransportError
from .base import Backend, topk_entropy
from .types import BackendCapabilities, DecodeParams, EntropySupport, GeneratedAnswer, TokenScore

if TYPE_CHECKING:
    import requests

RETRY_ATTEMPTS = 3
RETRY_BASE_SLEEP = 0.5


@dataclass(frozen=True)
class BackendConfig:
    """One backend declaration, loadable from a JSON document."""

    id: str
    type: str = "http"  # "http" | "mock"
    base_url: str | None = None
    api_key_env: str | None = None
    logprobs_k: int | None = None
    vocab_size: int | None = None
    roles: tuple[str, ...] = ("generator", "verifier")
    model: str | None = None
    score_max_tokens: int = 0  # 0 or 1, per server convention
    timeout: float = 120.0
    # mock-only knobs
    seed: int = 0
    peak: float = 1.0
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "BackendConfig":
        known = {f for f in cls.__dataclass_fields__ if f != "extra"}
        kwargs = {k: v for k, v in raw.items() if k in known}
        if "roles" in kwargs:
            kwargs["roles"] = tuple(kwargs["roles"])
        extra = {k: v for k, v in raw.items() if k not in known}
        try:
            cfg = cls(**kwargs, extra=extra)
        except TypeError as exc:
            raise ConfigError(f"invalid backend config: {exc}") from exc
        if not cfg.id:
            raise ConfigError("backend config requires a non-empty id")
        if cfg.type == "http" and not cfg.base_url:
            raise ConfigError(f"http backend {cfg.id!r} requires base_url")
        if cfg.score_max_tokens not in (0, 1):
            raise ConfigError("score_max_tokens must be 0 or 1")
        return cfg


def load_backend_config(path: str | Path) -> BackendConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read backend config {path}: {exc}") from exc
    return BackendConfig.from_dict(raw)


class HTTPBackend(Backend):
    """Client for one remote model behind a completions endpoint."""

    def __init__(self, config: BackendConfig):
        if config.type != "http":
            raise ConfigError(f"HTTPBackend requires type=http, got {config.type!r}")
        self.config = config
        self.backend_id = config.id
        self._local = threading.local()

    # --- transport --------------------------------------------------------

    def _session(self) -> requests.Session:
        # Imported on first use: the stages that make no calls skip its cost.
        import requests

        if not hasattr(self._local, "session"):
            self._local.session = requests.Session()
        return self._local.session

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, payload: dict[str, Any]) -> dict[str, Any]:
        import requests

        if self.config.model:
            payload.setdefault("model", self.config.model)
        last_exc: Exception | None = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            try:
                resp = self._session().post(
                    self.config.base_url,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.config.timeout,
                )
                if resp.status_code >= 500 or resp.status_code == 429:
                    raise TransportError(f"server status {resp.status_code}: {resp.text[:200]}")
                if resp.status_code >= 400:
                    raise BackendError(f"request rejected {resp.status_code}: {resp.text[:200]}")
                return resp.json()
            except (requests.ConnectionError, requests.Timeout, TransportError) as exc:
                last_exc = exc
                if attempt < RETRY_ATTEMPTS:
                    time.sleep(RETRY_BASE_SLEEP * 2 ** (attempt - 1))
            except ValueError as exc:  # non-JSON body
                raise BackendError(f"malformed response: {exc}") from exc
        raise TransportError(f"giving up after {RETRY_ATTEMPTS} attempts: {last_exc}")

    # --- capabilities -------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        k = self.config.logprobs_k
        can_score = bool(k and k >= 1)
        return BackendCapabilities(
            can_generate="generator" in self.config.roles,
            can_score=can_score,
            entropy_support=EntropySupport.top_k(k) if can_score else EntropySupport.none(),
            vocab_size=self.config.vocab_size,
        )

    # --- response plumbing ---------------------------------------------------

    @staticmethod
    def _logprobs_block(data: dict[str, Any]) -> dict[str, Any]:
        try:
            choice = data["choices"][0]
        except (KeyError, IndexError) as exc:
            raise BackendError("response has no choices") from exc
        block = choice.get("logprobs")
        if not block:
            raise BackendError("server did not echo logprobs")
        return block

    def _token_scores_in_region(
        self, block: dict[str, Any], region: tuple[int, int]
    ) -> tuple[TokenScore, ...]:
        tokens = block.get("tokens") or []
        logprobs = block.get("token_logprobs") or []
        offsets = block.get("text_offset") or []
        tops = block.get("top_logprobs") or [None] * len(tokens)
        scores = []
        for tok, lp, off, top in zip(tokens, logprobs, offsets, tops):
            start, end = off, off + len(tok)
            if end <= region[0] or start >= region[1]:
                continue
            if lp is None:
                raise BackendError(f"missing logprob for answer token at offset {off}")
            lp = float(lp)
            if not math.isfinite(lp):
                raise BackendError(f"non-finite logprob {lp} for answer token at offset {off}")
            entropy = topk_entropy(top.values()) if top else None
            scores.append(
                TokenScore(
                    token_text=tok,
                    logprob=min(lp, 0.0),
                    entropy=entropy,
                    char_span=(max(start, region[0]), min(end, region[1])),
                )
            )
        return tuple(scores)

    # --- operations -----------------------------------------------------------

    def _prefill(self, text: str) -> dict[str, Any]:
        """Echo-score `text` in one request; returns its logprobs block."""
        data = self._post(
            {
                "prompt": text,
                "max_tokens": self.config.score_max_tokens,
                "echo": True,
                "logprobs": self.config.logprobs_k,
            }
        )
        return self._logprobs_block(data)

    def _answer_token_scores(self, prompt: str, answer: str) -> tuple[TokenScore, ...]:
        full = prompt + answer
        return self._token_scores_in_region(self._prefill(full), (len(prompt), len(full)))

    def generate(self, prompt: str, params: DecodeParams) -> GeneratedAnswer:
        if not self.capabilities().can_generate:
            raise CapabilityError(f"backend {self.backend_id!r} cannot generate")
        payload: dict[str, Any] = {
            "prompt": prompt,
            "max_tokens": params.max_new_tokens,
            "temperature": 0,
            "echo": False,
        }
        if params.stop_sequences:
            payload["stop"] = list(params.stop_sequences)
        if self.config.logprobs_k:
            payload["logprobs"] = self.config.logprobs_k
        data = self._post(payload)
        try:
            choice = data["choices"][0]
            text = choice["text"]
        except (KeyError, IndexError) as exc:
            raise BackendError("response has no completion text") from exc
        reason = choice.get("finish_reason") or "stop"
        if reason not in ("stop", "length"):
            reason = "stop"
        scores: tuple[TokenScore, ...] | None = None
        if choice.get("logprobs"):
            # Offsets index into prompt + completion, matching echo semantics.
            region = (len(prompt), len(prompt) + len(text))
            got = self._token_scores_in_region(choice["logprobs"], region)
            scores = got or None
        return GeneratedAnswer(text=text, finish_reason=reason, generator_token_scores=scores)

    def _next_token_distribution(self, context: str) -> Mapping[str, float]:
        # Single prefill of the context plus a one-word continuation; the
        # top-k map at the continuation position is the distribution we need.
        block = self._prefill(context + " Yes")
        offsets = block.get("text_offset") or []
        tops = block.get("top_logprobs") or []
        for off, top in zip(offsets, tops):
            if off >= len(context) and top:
                return {tok: math.exp(lp) for tok, lp in top.items()}
        raise CapabilityError("no top-logprob echo at the verification position")
