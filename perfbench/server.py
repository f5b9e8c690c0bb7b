"""Loopback completions server that plays every HTTP backend of the benchmark.

Speaks the OpenAI-completions dialect the crossmodel HTTP client expects:
echo requests get per-token logprobs, top-k maps and text offsets for the
whole text; generation requests get a greedy completion with logprobs for
the completion tokens. Each model is a deterministic function of its name
and the prompt, so the same inputs always produce the same bytes.

The server keeps connections alive (HTTP/1.1), disables Nagle's algorithm
and sends each response in one write: without that every request waits on
the peer's delayed ACK and the benchmark would time a kernel timer.

It counts requests and records its own handling time per request; GET
/stats returns both. Run it as

    python3 perfbench/server.py

It prints `PORT <n>` once it listens on 127.0.0.1 and serves until killed.
The module imports only the standard library, so the data generator can
reuse the model functions without starting anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Every benchmark prompt ends with this; it splits echoed text into
# prompt and answer.
PROMPT_END = "\nAnswer:"
MARKER = " ANSWER:"
STOP_ANSWER = (" so", " it", " is")
WORDS = (
    " so", " then", " we", " add", " take", " away", " each", " total", " per",
    " of", " it", " makes", " left", " more", " times", " gives", " half",
    " now", " are", " there",
)
ALTERNATIVES = tuple(f" alt{i}" for i in range(16))
# Share of each backend's answers that are correct; unknown names get 0.5.
MODEL_ACCURACY = {"gen-small": 0.45, "ver-mid": 0.62, "ver-large": 0.78}

_PIECE = re.compile(r"\s*\S+")


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """(piece, start, end) runs of leading whitespace plus non-space."""
    pieces = [(m.group(), m.start(), m.end()) for m in _PIECE.finditer(text)]
    if pieces and pieces[-1][2] < len(text):
        tok, start, _ = pieces[-1]
        pieces[-1] = (text[start:], start, len(text))
    return pieces


def unit(*parts: object) -> float:
    """Deterministic uniform value in [0, 1) keyed by parts."""
    key = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") / 2.0**64


def true_answer(prompt: str) -> str:
    """Gold answer of a benchmark prompt: a letter or a whole number."""
    if prompt.startswith("Problem"):
        return str(2 + int(unit("gold", prompt) * 998))
    return "ABCD"[int(unit("gold", prompt) * 4)]


def target_tokens(model: str, prompt: str) -> list[str]:
    """The model's greedy answer to `prompt`, as tokens."""
    rng = random.Random(unit(model, "answer", prompt))
    correct = rng.random() < MODEL_ACCURACY.get(model, 0.5)
    gold = true_answer(prompt)
    if not prompt.startswith("Problem"):
        letter = gold if correct else rng.choice([c for c in "ABCD" if c != gold])
        return [" " + letter]
    answer = gold if correct else str(int(gold) + rng.choice((-9, -3, -1, 1, 2, 10)))
    # Length and marker follow the problem number, so that every seed
    # gives a dataset with the same token count and marker share.
    index = int(prompt.split(":", 1)[0].split()[1])
    reasoning = [
        rng.choice(WORDS) if rng.random() < 0.8 else f" {rng.randint(1, 99)}"
        for _ in range(16 + index * 97 % 247)
    ]
    tail = [MARKER] if index % 4 else list(STOP_ANSWER)
    return reasoning + tail + [" " + answer]


def _top_map(best: str, p_best: float, k: int) -> dict[str, float]:
    """Top-k logprob map: `best` with p_best, then geometrically smaller
    alternatives sharing the rest of the mass."""
    top = {best: math.log(p_best)}
    rest = 1.0 - p_best
    for alt in ALTERNATIVES[: max(k - 1, 0)]:
        rest /= 2.0
        top[alt] = math.log(rest)
    return top


def _on_track_prob(model: str, prompt: str, i: int) -> float:
    # Quantized, so single-token answers tie as real scorers' often do.
    return 0.40 + 0.05 * int(unit(model, "p", prompt, i) * 12)


def complete(model: str, payload: dict) -> dict:
    """Response body for one completions request."""
    k = int(payload.get("logprobs") or 0)
    if payload.get("echo"):
        text = payload["prompt"]
        cut = text.rfind(PROMPT_END)
        prompt_end = cut + len(PROMPT_END) if cut != -1 else len(text)
        prompt = text[:prompt_end]
        target = target_tokens(model, prompt)
        pieces = tokenize(text)
        reason = "stop"
    else:
        prompt = payload["prompt"]
        target = target_tokens(model, prompt)
        max_tokens = int(payload.get("max_tokens") or 0)
        text = "".join(target[:max_tokens])
        reason = "length" if len(target) > max_tokens else "stop"
        # Offsets index into prompt + completion, as with echo.
        prompt_end = len(prompt)
        pieces = [(tok, s + prompt_end, e + prompt_end) for tok, s, e in tokenize(text)]
    tokens, logprobs, offsets, tops = [], [], [], []
    answer_index = 0
    on_track = True
    for idx, (tok, start, _end) in enumerate(pieces):
        if start < prompt_end:
            p = 0.05 + 0.9 * unit(model, "prompt", idx, tok)
            lp = None if idx == 0 else math.log(p)
            top = _top_map(tok, p, k)
        else:
            expected = target[answer_index] if answer_index < len(target) else None
            if on_track and tok == expected:
                p = _on_track_prob(model, prompt, answer_index)
                top = _top_map(tok, p, k)
            else:
                # Off the model's own answer: the realized token is unlikely.
                on_track = False
                p = 0.02 + 0.02 * int(unit(model, "off", prompt, answer_index, tok) * 10)
                top = _top_map(expected or WORDS[0], 0.5, k)
            lp = math.log(p)
            answer_index += 1
        tokens.append(tok)
        logprobs.append(lp)
        offsets.append(start)
        tops.append(top)
    block = None
    if k:
        block = {"tokens": tokens, "token_logprobs": logprobs,
                 "text_offset": offsets, "top_logprobs": tops}
    return {"choices": [{"text": text, "finish_reason": reason, "logprobs": block}]}


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.server_ms: list[float] = []


def make_handler(stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def _send(self, status: int, body: bytes) -> None:
            head = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            self.wfile.write(head + body)

        def do_POST(self):  # noqa: N802  (http.server API)
            t0 = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            model = self.path.strip("/").split("/")[0]
            try:
                data, status = json.dumps(complete(model, json.loads(body))).encode(), 200
            except (KeyError, TypeError, ValueError) as exc:
                data, status = json.dumps({"error": str(exc)}).encode(), 500
            self._send(status, data)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            with stats.lock:
                stats.requests += 1
                stats.errors += status != 200
                stats.server_ms.append(elapsed_ms)

        def do_GET(self):  # noqa: N802
            with stats.lock:
                doc = {"requests": stats.requests, "errors": stats.errors,
                       "server_ms": list(stats.server_ms)}
            self._send(200, json.dumps(doc).encode())

        def log_message(self, *args):
            pass

    return Handler


def main() -> None:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Stats()))
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()


if __name__ == "__main__":
    main()
