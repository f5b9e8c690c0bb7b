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
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping
from urllib.parse import SplitResult, unquote, urlsplit

from ..errors import BackendError, CapabilityError, ConfigError, TransportError
from ..serialize import decode_json, from_dict, read_json
from .base import Backend, top_prob, topk_entropy
from .types import BackendCapabilities, DecodeParams, EntropySupport, GeneratedAnswer, TokenScores

if TYPE_CHECKING:
    import http.client

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
        # a missing id is reported as an empty one
        cfg = from_dict(cls, {"id": "", **{k: v for k, v in raw.items() if k in known},
                              "extra": {k: v for k, v in raw.items() if k not in known}})
        if not cfg.id:
            raise ConfigError("backend config requires a non-empty id")
        if cfg.type == "http":
            _split_url(cfg.base_url or "", ("http", "https"), f"http backend {cfg.id!r} base_url")
        if cfg.score_max_tokens not in (0, 1):
            raise ConfigError("score_max_tokens must be 0 or 1")
        return cfg


def load_backend_config(path: str | Path) -> BackendConfig:
    return read_json(path, BackendConfig.from_dict, ConfigError)


def _split_url(url: str, schemes: tuple[str, ...], what: str) -> SplitResult:
    """`url` split into parts; ConfigError unless it has one of `schemes`,
    a host and a well-formed port."""
    try:
        parts = urlsplit(url)
        parts.port  # raises on a malformed port
    except ValueError as exc:
        raise ConfigError(f"{what} {url!r} is malformed: {exc}") from exc
    if parts.scheme not in schemes or not parts.hostname:
        raise ConfigError(f"{what} must be a {' or '.join(schemes)} URL, got {url!r}")
    return parts


def _round_trip(
    conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict[str, str]
) -> tuple[int, http.client.HTTPMessage, bytes]:
    conn.request("POST", target, body, headers)
    resp = conn.getresponse()
    return resp.status, resp.headers, resp.read()


def _retry_after_seconds(value: str | None, cap: float) -> float | None:
    """The delay a Retry-After header gives in seconds, at most `cap`; None
    when the header is absent or an HTTP date."""
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return min(seconds, cap) if math.isfinite(seconds) and seconds >= 0 else None


def _logprob(value: Any) -> int | float:
    """An echoed log-probability, which must be a JSON number: a string or a
    boolean raises TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"logprob must be a number, got {value!r}")
    return value


class HTTPBackend(Backend):
    """Client for one remote model behind a completions endpoint."""

    def __init__(self, config: BackendConfig):
        if config.type != "http":
            raise ConfigError(f"HTTPBackend requires type=http, got {config.type!r}")
        self.config = config
        self.backend_id = config.id
        self._local = threading.local()
        # (thread, its connection) for every thread that opened one, so that
        # close() reaches them all.
        self._opened: list[tuple[threading.Thread, http.client.HTTPConnection]] = []
        self._opened_lock = threading.Lock()

    # --- transport --------------------------------------------------------

    def _connection(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """This thread's keep-alive connection, the request target to send
        over it and the headers its route needs; opened on first use."""
        if not hasattr(self._local, "route"):
            route = self._connect()
            with self._opened_lock:
                # A finished thread (a worker of an earlier pool) makes no
                # further calls: its connection is closed now, not kept.
                for thread, conn in self._opened:
                    if not thread.is_alive():
                        conn.close()
                self._opened = [(t, c) for t, c in self._opened if t.is_alive()]
                self._opened.append((threading.current_thread(), route[0]))
            self._local.route = route
        return self._local.route

    def close(self) -> None:
        """Close the connection of every thread. A later call on a thread
        whose connection was closed opens it again."""
        with self._opened_lock:
            for _, conn in self._opened:
                conn.close()

    def _connect(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        # Imported on first use: the stages that make no calls skip their cost.
        import base64
        import http.client
        import urllib.request

        url = urlsplit(self.config.base_url)
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        timeout = self.config.timeout
        https = url.scheme == "https"
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.hostname):
            cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
            return cls(url.hostname, url.port, timeout=timeout), target, {}
        via = _split_url(proxy if "://" in proxy else f"http://{proxy}", ("http",),
                         f"{url.scheme} proxy")
        headers = {}
        if via.username:
            creds = f"{unquote(via.username)}:{unquote(via.password or '')}"
            headers["Proxy-Authorization"] = "Basic " + base64.b64encode(creds.encode()).decode()
        if https:  # CONNECT through the proxy, then TLS to the server
            conn = http.client.HTTPSConnection(via.hostname, via.port or 80, timeout=timeout)
            conn.set_tunnel(url.hostname, url.port, headers)
            return conn, target, {}
        # a plain-http proxy takes the absolute URI as the request target
        conn = http.client.HTTPConnection(via.hostname, via.port, timeout=timeout)
        return conn, self.config.base_url, headers

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def _exchange(self, body: bytes) -> tuple[int, http.client.HTTPMessage, bytes]:
        """POST `body` on this thread's connection; (status, headers, body).

        A keep-alive connection the server closed while it sat idle is
        reopened and the request sent again once, with no sleep."""
        conn, target, route_headers = self._connection()
        headers = {**self._headers(), **route_headers}
        reused = conn.sock is not None
        try:
            return _round_trip(conn, target, body, headers)
        except ConnectionError:
            if not reused:
                raise
            conn.close()
            return _round_trip(conn, target, body, headers)

    def _post(self, payload: dict[str, Any]) -> dict[str, Any]:
        import http.client

        if self.config.model:
            payload.setdefault("model", self.config.model)
        body = json.dumps(payload).encode()
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            wait = None
            try:
                status, headers, data = self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                self._connection()[0].close()
                failure = f"{type(exc).__name__}: {exc}"
            else:
                if status < 300:
                    try:
                        return decode_json(data.decode("utf-8"))
                    except ValueError as exc:
                        raise BackendError(f"malformed response: {exc}") from exc
                text = data[:200].decode("utf-8", "replace")
                if status >= 500 or status == 429:
                    failure = f"server status {status}: {text}"
                    if status in (429, 503):
                        wait = _retry_after_seconds(headers.get("Retry-After"), self.config.timeout)
                elif status >= 400:
                    raise BackendError(f"request rejected {status}: {text}")
                else:
                    raise BackendError(
                        f"server answered {status} (redirect to {headers.get('Location')}); "
                        "redirects are not followed, set base_url to the final URL"
                    )
            if attempt < RETRY_ATTEMPTS:
                if wait is None:
                    wait = RETRY_BASE_SLEEP * 2 ** (attempt - 1) * random.uniform(0.5, 1.0)
                time.sleep(wait)
        raise TransportError(f"giving up after {RETRY_ATTEMPTS} attempts: {failure}")

    # --- capabilities -------------------------------------------------------

    def capabilities(self) -> BackendCapabilities:
        k = self.config.logprobs_k
        can_score = bool(k and k >= 1)
        return BackendCapabilities(
            can_generate="generator" in self.config.roles,
            can_score=can_score,
            entropy_support=EntropySupport.top_k(k) if can_score else EntropySupport.none(),
        )

    # --- response plumbing ---------------------------------------------------

    @staticmethod
    def _first_choice(data: Any) -> tuple[dict[str, Any], dict[str, Any] | None]:
        """The response's first choice and its logprobs block, None when it
        echoed none. A choice or block that is no object, or a block whose
        per-token fields are no arrays, is malformed."""
        try:
            choice = data["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("response has no choices") from exc
        if not isinstance(choice, dict):
            raise BackendError(f"malformed response choice: {choice!r:.80}")
        block = choice.get("logprobs") or None
        if block is not None and not (isinstance(block, dict) and all(
                isinstance(block.get(f) or [], list)
                for f in ("tokens", "token_logprobs", "text_offset", "top_logprobs"))):
            raise BackendError(f"malformed logprobs block: {block!r:.80}")
        return choice, block

    def _token_scores_in_region(
        self, block: dict[str, Any], region: tuple[int, int]
    ) -> TokenScores:
        tokens = block.get("tokens") or []
        logprobs = block.get("token_logprobs") or []
        offsets = block.get("text_offset") or []
        tops = block.get("top_logprobs") or [None] * len(tokens)
        texts, lps, entropies, spans = [], [], [], []
        for tok, lp, off, top in zip(tokens, logprobs, offsets, tops):
            try:
                start, end = off, off + len(tok)
                if end <= region[0] or start >= region[1]:
                    continue
                lp = float(_logprob(lp))
                entropies.append(topk_entropy(top.values()) if top else None)
            except (AttributeError, TypeError, ValueError, OverflowError) as exc:
                raise BackendError(f"malformed logprobs for answer token at offset {off!r}: "
                                   f"{exc}") from exc
            texts.append(tok)
            lps.append(min(lp, 0.0))
            spans.append((max(start, region[0]), min(end, region[1])))
        try:
            return TokenScores(texts, lps, entropies, spans)
        except (TypeError, ValueError) as exc:
            raise BackendError(f"malformed logprobs block: {exc}") from exc

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
        block = self._first_choice(data)[1]
        if block is None:
            raise BackendError("server did not echo logprobs")
        return block

    def _answer_token_scores(self, prompt: str, answer: str) -> TokenScores:
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
        choice, block = self._first_choice(self._post(payload))
        text = choice.get("text")
        if not isinstance(text, str):
            raise BackendError(f"response has no completion text, got {text!r:.80}")
        reason = choice.get("finish_reason") or "stop"
        if reason not in ("stop", "length"):
            reason = "stop"
        # Offsets index into prompt + completion, matching echo semantics.
        scores = None if block is None else self._token_scores_in_region(
            block, (len(prompt), len(prompt) + len(text)))
        return GeneratedAnswer(text=text, finish_reason=reason, generator_token_scores=scores)

    def _next_token_distribution(self, context: str) -> Mapping[str, float]:
        # Single prefill of the context plus a one-word continuation; the
        # top-k map at the continuation position is the distribution we need.
        block = self._prefill(context + " Yes")
        offsets = block.get("text_offset") or []
        tops = block.get("top_logprobs") or []
        for off, top in zip(offsets, tops):
            try:
                if off >= len(context) and top:
                    return {tok: top_prob(lp) for tok, lp in top.items()}
            except (AttributeError, TypeError, ValueError, OverflowError) as exc:
                raise BackendError(f"malformed top logprobs at offset {off!r}: {exc}") from exc
        raise CapabilityError("no top-logprob echo at the verification position")
