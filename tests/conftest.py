"""Shared fixtures: scripted mock models and a local completions server."""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from math import log
from typing import Callable, Mapping

import pytest

from crossmodel.backend.mock import CallableModel, ScriptedModel, mock_tokenize

# Filler token soaking up leftover probability mass in scripted models.
FILLER = " ⁂"


class CorpusModel(ScriptedModel):
    """Knows one target continuation per prompt and assigns a scripted
    probability to each successive target token.

    realized_prob may be a constant or a per-prompt function; remaining
    mass goes to a filler token, so the distribution at every position is
    two-point (or one-hot at probability 1).
    """

    def __init__(
        self,
        answers: Mapping[str, str],
        realized_prob: float | Callable[[str], float] = 1.0,
    ):
        self.answers = dict(answers)
        self._prob = realized_prob if callable(realized_prob) else (lambda _p: realized_prob)

    def _locate(self, context: str) -> tuple[str, str] | None:
        best = None
        for prompt in self.answers:
            if context.startswith(prompt) and (best is None or len(prompt) > len(best)):
                best = prompt
        if best is None:
            return None
        return best, context[len(best):]

    def distribution(self, context: str) -> Mapping[str, float]:
        located = self._locate(context)
        if located is None:
            return {FILLER: 1.0}
        prompt, produced = located
        target = self.answers[prompt]
        if not target.startswith(produced) or len(produced) >= len(target):
            return {FILLER: 1.0}
        pieces = mock_tokenize(target)
        next_piece = next((t for t, s, _ in pieces if s == len(produced)), None)
        if next_piece is None:
            return {FILLER: 1.0}
        p = self._prob(prompt)
        if p >= 1.0:
            return {next_piece: 1.0}
        return {next_piece: p, FILLER: 1.0 - p}


def two_point_model(p_realized: float) -> CallableModel:
    """Every position: the realized token has mass p, filler has the rest."""

    def dist(_context: str) -> Mapping[str, float]:
        return {FILLER: 1.0 - p_realized}

    model = CallableModel(dist)
    model.prob_of = lambda _context, _token: p_realized  # type: ignore[method-assign]
    return model


# --- fake completions server ---------------------------------------------------


class FakeCompletionsServer:
    """Minimal OpenAI-completions-style server backed by a ScriptedModel.

    Echo requests score the prompt with per-token logprobs, top-k maps,
    and text offsets; generation requests decode greedily. Failures
    (fail_next requests answered with fail_status, with a Retry-After
    header when retry_after is set) can be injected to exercise the
    client's retry path.

    It speaks HTTP/1.0, one connection per request, unless keep_alive is
    set; drop_after_response then closes each connection after its first
    response without announcing it, as a server whose idle timeout expired
    does. `received` holds each request's line, client address and headers,
    so tests can see connections, proxy targets and proxy credentials. A
    CONNECT is recorded and refused with 502.
    """

    def __init__(self, model: ScriptedModel, top_k: int = 20, keep_alive: bool = False):
        self.model = model
        self.top_k = top_k
        self.requests: list[dict] = []
        self.received: list[dict] = []
        self.fail_next = 0
        self.fail_status = 500
        self.retry_after: str | None = None
        self.drop_after_response = False
        self._lock = threading.Lock()
        handler = self._make_handler()
        if keep_alive:
            handler.protocol_version = "HTTP/1.1"
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1/completions"

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()

    # --- scoring helpers ---

    def _score_text(self, text: str, k: int):
        tokens, logprobs, offsets, tops = [], [], [], []
        for i, (tok, start, _end) in enumerate(mock_tokenize(text)):
            context = text[:start]
            dist = self.model.distribution(context)
            tokens.append(tok)
            offsets.append(start)
            logprobs.append(None if i == 0 else log(max(self.model.prob_of(context, tok), 1e-300)))
            top = sorted(dist.items(), key=lambda kv: kv[1], reverse=True)[:k]
            tops.append({t: log(max(p, 1e-300)) for t, p in top})
        return tokens, logprobs, offsets, tops

    def _generate(self, prompt: str, max_tokens: int, stop: list[str]):
        answer = ""
        reason = "length"
        for _ in range(max_tokens):
            dist = self.model.distribution(prompt + answer)
            tok = max(dist.items(), key=lambda kv: (kv[1], kv[0]))[0]
            answer += tok
            hit = next((s for s in stop if s in answer), None)
            if hit:
                answer = answer[: answer.index(hit)]
                reason = "stop"
                break
        return answer, reason

    def _handle(self, payload: dict) -> dict:
        prompt = payload["prompt"]
        k = payload.get("logprobs") or 0
        max_tokens = payload.get("max_tokens", 0)
        stop = payload.get("stop") or []
        if payload.get("echo"):
            completion, reason = ("", "stop")
            if max_tokens:
                completion, reason = self._generate(prompt, max_tokens, stop)
            tokens, logprobs, offsets, tops = self._score_text(prompt + completion, k)
            text = prompt + completion
        else:
            completion, reason = self._generate(prompt, max_tokens, stop)
            full_tokens, full_lps, full_offs, full_tops = self._score_text(prompt + completion, k)
            keep = [i for i, off in enumerate(full_offs) if off >= len(prompt)]
            tokens = [full_tokens[i] for i in keep]
            logprobs = [full_lps[i] for i in keep]
            offsets = [full_offs[i] for i in keep]
            tops = [full_tops[i] for i in keep]
            text = completion
        block = None
        if k:
            block = {
                "tokens": tokens,
                "token_logprobs": logprobs,
                "text_offset": offsets,
                "top_logprobs": tops,
            }
        return {"choices": [{"text": text, "finish_reason": reason, "logprobs": block}]}

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _record(self):
                seen = {"line": self.requestline, "peer": self.client_address,
                        "headers": dict(self.headers)}
                with server._lock:
                    server.received.append(seen)

            def _reply(self, status, data, headers=()):
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if server.drop_after_response:
                    self.close_connection = True

            def do_CONNECT(self):  # noqa: N802  (http.server API)
                self._record()
                self._reply(502, b"no tunnels here")

            def do_POST(self):  # noqa: N802  (http.server API)
                self._record()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                payload = json.loads(body)
                with server._lock:
                    server.requests.append(payload)
                    should_fail = server.fail_next > 0
                    if should_fail:
                        server.fail_next -= 1
                if should_fail:
                    retry_after = server.retry_after
                    headers = [("Retry-After", retry_after)] if retry_after is not None else []
                    self._reply(server.fail_status, b"injected failure", headers)
                    return
                data = json.dumps(server._handle(payload)).encode()
                self._reply(200, data, [("Content-Type", "application/json")])

            def log_message(self, *args):  # silence per-request noise
                pass

        return Handler


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance.py" in str(getattr(report, "nodeid", "")):
                name = report.nodeid.split("::")[-1]
                lines.append((name, status.upper()))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, status in sorted(lines):
            terminalreporter.write_line(f"{status:8s} {name}")


@contextlib.contextmanager
def unclosed_resources():
    """Collects what finalizers report unclosed (an unclosed socket's
    ResourceWarning, raised as an error) from the body through a garbage
    collection at its end."""
    caught: list[str] = []
    hook = sys.unraisablehook
    sys.unraisablehook = lambda unraisable: caught.append(str(unraisable.exc_value))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            yield caught
            gc.collect()
    finally:
        sys.unraisablehook = hook


@pytest.fixture
def fake_server():
    created = []

    def factory(
        model: ScriptedModel, top_k: int = 20, keep_alive: bool = False
    ) -> FakeCompletionsServer:
        srv = FakeCompletionsServer(model, top_k, keep_alive)
        created.append(srv)
        return srv

    yield factory
    for srv in created:
        srv.close()
