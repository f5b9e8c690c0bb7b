import math
import sys
import threading

import pytest

import crossmodel.backend.http as http_mod
from crossmodel.backend import (
    BackendConfig,
    DecodeParams,
    EntropySupport,
    HTTPBackend,
    MockBackend,
    SeededModel,
    topk_entropy,
)
from crossmodel.errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    DegenerateInputError,
    TransportError,
)

from conftest import CallableModel, CorpusModel, unclosed_resources


# Backends made by the running test, closed when it ends.
MADE: list[HTTPBackend] = []


@pytest.fixture(autouse=True)
def close_backends():
    yield
    while MADE:
        MADE.pop().close()


def make_backend(server, **overrides) -> HTTPBackend:
    cfg = {"id": "srv", "type": "http", "base_url": server.url, "logprobs_k": 20}
    cfg.update(overrides)
    backend = HTTPBackend(BackendConfig.from_dict(cfg))
    MADE.append(backend)
    return backend


def test_score_sequence_spans_partition_answer(fake_server):
    server = fake_server(SeededModel(1, 8))
    backend = make_backend(server)
    prompt, answer = "What is it?", " tok1 tok2 tok3"
    scored = backend.score_sequence(prompt, answer)
    assert scored.scorer_id == "srv"
    spans = scored.token_scores.spans
    assert spans[0][0] == len(prompt)
    assert spans[-1][1] == len(prompt) + len(answer)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start == prev_end
    # one prefill request, echo on, no token budget
    assert len(server.requests) == 1
    req = server.requests[0]
    assert req["echo"] is True
    assert req["max_tokens"] == 0
    assert req["logprobs"] == 20


def test_score_logprobs_match_model(fake_server):
    model = CorpusModel({"Q:": " alpha beta"}, realized_prob=0.25)
    server = fake_server(model)
    backend = make_backend(server)
    scored = backend.score_sequence("Q:", " alpha beta")
    assert list(scored.token_scores.logprobs) == pytest.approx(
        [math.log(0.25)] * 2
    )


def test_topk_entropy_formula_and_support(fake_server):
    server = fake_server(SeededModel(4, 8), top_k=3)
    backend = make_backend(server, logprobs_k=3)
    scored = backend.score_sequence("Q", " tok1 tok2")
    assert scored.entropy_support.kind == "top_k"
    assert scored.entropy_support.k == 3
    for entropy in scored.token_scores.entropies:
        assert 0.0 <= entropy <= math.log(8) + 1e-9


def test_topk_entropy_residual_bucket():
    # two tokens at 0.5 and 0.25 leave a 0.25 residual bucket
    lp = [math.log(0.5), math.log(0.25)]
    expected = -(0.5 * math.log(0.5) + 0.25 * math.log(0.25) + 0.25 * math.log(0.25))
    assert topk_entropy(lp) == pytest.approx(expected)


def test_generate_returns_text_and_scores(fake_server):
    model = CorpusModel({"P": " alpha beta gamma"})
    server = fake_server(model)
    backend = make_backend(server)
    out = backend.generate("P", DecodeParams(max_new_tokens=3))
    assert out.text == " alpha beta gamma"
    assert out.finish_reason == "length"
    assert out.generator_token_scores is not None
    assert list(out.generator_token_scores.texts) == [" alpha", " beta", " gamma"]
    assert all(logprob == pytest.approx(0.0) for logprob in out.generator_token_scores.logprobs)


def test_retry_then_success(fake_server, monkeypatch):
    monkeypatch.setattr(http_mod, "RETRY_BASE_SLEEP", 0.01)
    server = fake_server(SeededModel(1, 4))
    server.fail_next = 2
    backend = make_backend(server)
    scored = backend.score_sequence("Q", " tok1")
    assert scored.answer_token_count == 1
    assert len(server.requests) == 3


def test_rate_limit_is_retried(fake_server, monkeypatch):
    monkeypatch.setattr(http_mod, "RETRY_BASE_SLEEP", 0.01)
    server = fake_server(CorpusModel({"P": " alpha beta"}))
    server.fail_next, server.fail_status = 1, 429
    out = make_backend(server).generate("P", DecodeParams(max_new_tokens=2))
    assert out.text == " alpha beta"
    assert len(server.requests) == 2


@pytest.fixture
def sleeps(monkeypatch):
    """Every retry sleep the client asks for, in seconds; none is slept."""
    asked = []
    monkeypatch.setattr(http_mod.time, "sleep", asked.append)
    return asked


@pytest.mark.parametrize("status, retry_after, expected", [
    (503, "2", [2.0]),
    (429, "0", [0.0]),
    (429, "999", [5.0]),  # capped at the backend timeout
])
def test_retry_after_sets_the_sleep(fake_server, sleeps, status, retry_after, expected):
    server = fake_server(SeededModel(1, 4))
    server.fail_next, server.fail_status, server.retry_after = 1, status, retry_after
    make_backend(server, timeout=5).score_sequence("Q", " tok1")
    assert sleeps == expected


@pytest.mark.parametrize("status, retry_after", [
    (500, "2"),  # only 429 and 503 carry a delay worth honouring
    (503, None),
    (503, "Wed, 21 Oct 2015 07:28:00 GMT"),  # a date is not read
])
def test_backoff_is_exponential_with_jitter(
    fake_server, sleeps, monkeypatch, status, retry_after
):
    draws = []

    def low_end(a, b):
        draws.append((a, b))
        return a

    monkeypatch.setattr(http_mod.random, "uniform", low_end)
    server = fake_server(SeededModel(1, 4))
    server.fail_next, server.fail_status, server.retry_after = 2, status, retry_after
    make_backend(server).score_sequence("Q", " tok1")
    base = http_mod.RETRY_BASE_SLEEP
    assert draws == [(0.5, 1.0)] * 2
    assert sleeps == [base * 0.5, base * 2 * 0.5]


@pytest.mark.parametrize("status", [400, 404])
def test_rejected_request_is_backend_error_without_retry(fake_server, sleeps, status):
    server = fake_server(SeededModel(1, 4))
    server.fail_next, server.fail_status = 1, status
    with pytest.raises(BackendError) as raised:
        make_backend(server).score_sequence("Q", " tok1")
    assert str(raised.value) == f"request rejected {status}: injected failure"
    # one request: a retry would have been answered, since only one fails
    assert len(server.requests) == 1
    assert sleeps == []


def test_retries_exhausted_raise_transport_error(fake_server, monkeypatch):
    monkeypatch.setattr(http_mod, "RETRY_BASE_SLEEP", 0.01)
    server = fake_server(SeededModel(1, 4))
    server.fail_next = 10
    backend = make_backend(server)
    with pytest.raises(TransportError):
        backend.score_sequence("Q", " tok1")
    assert len(server.requests) == 3


def test_one_keep_alive_connection_per_thread(fake_server):
    server = fake_server(SeededModel(1, 4), keep_alive=True)
    backend = make_backend(server)
    for i in range(10):
        backend.score_sequence(f"Q{i}", " tok1")
    assert len(server.requests) == 10
    assert len({seen["peer"] for seen in server.received}) == 1
    worker = threading.Thread(target=backend.score_sequence, args=("Q", " tok2"))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(server.requests) == 11
    assert len({seen["peer"] for seen in server.received}) == 2


def test_close_closes_the_connection_of_every_thread(fake_server):
    server = fake_server(SeededModel(1, 4), keep_alive=True)
    with unclosed_resources() as unclosed:
        # not through make_backend, whose list would keep the backend alive
        backend = HTTPBackend(BackendConfig(id="srv", base_url=server.url, logprobs_k=20))
        backend.score_sequence("Q", " tok1")
        workers = [threading.Thread(target=backend.score_sequence, args=(f"Q{i}", " tok2"))
                   for i in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        backend.close()
        backend.close()  # idempotent
        # a call after close reopens this thread's connection
        backend.score_sequence("Q", " tok3")
        backend.close()
        del backend, workers
    assert unclosed == []
    assert len(server.requests) == 5
    assert len({seen["peer"] for seen in server.received}) == 5


def test_finished_threads_connections_are_closed(fake_server):
    """A worker that has finished makes no more calls: its connection is
    closed when another thread opens one, so successive pools hold no
    more connections than threads alive."""
    server = fake_server(SeededModel(1, 4), keep_alive=True)
    backend = make_backend(server)
    conns = []
    for i in range(5):
        worker = threading.Thread(target=backend.score_sequence, args=(f"Q{i}", " tok1"))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert [thread for thread, _ in backend._opened] == [worker]
        conns.append(backend._opened[0][1])
    assert [conn.sock is None for conn in conns] == [True] * 4 + [False]


class EndsWhilePruned:
    """Stands in for a worker thread that ends right after the first read of
    its liveness."""

    def __init__(self):
        self.reads = 0

    def is_alive(self):
        self.reads += 1
        return self.reads == 1


class StubConnection:
    closed = False

    def close(self):
        self.closed = True


def test_a_thread_ending_while_connections_are_pruned_keeps_its_connection_closable(
        fake_server):
    server = fake_server(SeededModel(1, 4))
    backend = make_backend(server)
    conn = StubConnection()
    backend._opened.append((EndsWhilePruned(), conn))
    backend._connection()
    backend.close()
    assert conn.closed


def test_connection_dropped_while_idle_is_reopened(fake_server, sleeps):
    server = fake_server(SeededModel(1, 4), keep_alive=True)
    server.drop_after_response = True
    backend = make_backend(server)
    for i in range(5):
        backend.score_sequence(f"Q{i}", " tok1")
    assert len(server.requests) == 5
    assert len({seen["peer"] for seen in server.received}) == 5
    assert sleeps == []


@pytest.fixture
def proxy_env(monkeypatch):
    """Clears every proxy variable, then sets the given ones."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)

    def set_env(**values):
        for name, value in values.items():
            monkeypatch.setenv(name, value)

    return set_env


def test_http_proxy_from_environment(fake_server, proxy_env):
    proxy = fake_server(CorpusModel({"P": " alpha beta"}))
    host, port = proxy.httpd.server_address
    proxy_env(HTTP_PROXY=f"http://user:p%40ss@{host}:{port}")
    url = "http://model.invalid/v1/completions"
    backend = HTTPBackend(BackendConfig.from_dict(
        {"id": "far", "base_url": url, "logprobs_k": 20}))
    assert backend.generate("P", DecodeParams(max_new_tokens=2)).text == " alpha beta"
    (seen,) = proxy.received
    assert seen["line"].startswith(f"POST {url} ")
    assert seen["headers"]["Proxy-Authorization"] == "Basic dXNlcjpwQHNz"  # user:p@ss


def test_no_proxy_goes_direct(fake_server, proxy_env):
    server = fake_server(SeededModel(1, 4))
    proxy_env(HTTP_PROXY="http://127.0.0.1:9", NO_PROXY="127.0.0.1")
    make_backend(server).score_sequence("Q", " tok1")
    assert len(server.requests) == 1


def test_proxy_that_is_not_http_is_config_error(fake_server, proxy_env):
    server = fake_server(SeededModel(1, 4))
    proxy_env(HTTP_PROXY="socks5://127.0.0.1:1080")
    with pytest.raises(ConfigError, match="http proxy"):
        make_backend(server).score_sequence("Q", " tok1")
    assert server.requests == []


def test_https_through_a_proxy_asks_for_a_tunnel(fake_server, proxy_env, sleeps):
    proxy = fake_server(SeededModel(1, 4))  # refuses every CONNECT
    host, port = proxy.httpd.server_address
    proxy_env(HTTPS_PROXY=f"http://{host}:{port}")
    backend = HTTPBackend(BackendConfig.from_dict(
        {"id": "far", "base_url": "https://model.invalid/v1/completions", "logprobs_k": 20}))
    with pytest.raises(TransportError):
        backend.score_sequence("Q", " tok1")
    lines = [seen["line"] for seen in proxy.received]
    assert len(lines) == http_mod.RETRY_ATTEMPTS
    assert all(line.startswith("CONNECT model.invalid:443 ") for line in lines)
    assert proxy.requests == []


def test_redirect_is_backend_error_and_not_followed(fake_server):
    server = fake_server(SeededModel(1, 4))
    server.fail_next, server.fail_status = 1, 302
    with pytest.raises(BackendError, match="302"):
        make_backend(server).score_sequence("Q", " tok1")
    assert len(server.requests) == 1


def test_calls_need_no_requests_package(fake_server, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)  # any import of it fails
    server = fake_server(SeededModel(1, 4))
    assert make_backend(server).score_sequence("Q", " tok1").answer_token_count == 1


def test_no_logprob_echo_means_cannot_score(fake_server):
    server = fake_server(SeededModel(1, 4))
    backend = make_backend(server, logprobs_k=None)
    caps = backend.capabilities()
    assert caps.can_score is False
    assert caps.entropy_support.kind == "none"
    with pytest.raises(CapabilityError):
        backend.score_sequence("Q", " tok1")
    assert server.requests == []


def test_capabilities_advertise_topk(fake_server):
    server = fake_server(SeededModel(1, 4))
    backend = make_backend(server, logprobs_k=20, roles=["verifier"])
    caps = backend.capabilities()
    assert caps.entropy_support.kind == "top_k"
    assert caps.entropy_support.k == 20
    assert caps.can_generate is False


def test_score_max_tokens_one_ignores_trailing_token(fake_server):
    # some servers require max_tokens >= 1; the extra generated token falls
    # outside the answer region and must not be scored
    server = fake_server(SeededModel(2, 8))
    backend = make_backend(server, score_max_tokens=1)
    prompt, answer = "Q:", " tok1 tok2"
    scored = backend.score_sequence(prompt, answer)
    assert server.requests[0]["max_tokens"] == 1
    assert scored.answer_token_count == 2
    spans = scored.token_scores.spans
    assert spans[-1][1] == len(prompt) + len(answer)


def test_empty_answer_degenerate(fake_server):
    server = fake_server(SeededModel(1, 4))
    backend = make_backend(server)
    with pytest.raises(DegenerateInputError):
        backend.score_sequence("Q", "")
    assert server.requests == []


@pytest.mark.parametrize("bad", [float("-inf"), float("nan")])
def test_non_finite_logprob_is_backend_error(fake_server, bad):
    server = fake_server(SeededModel(1, 8))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        data["choices"][0]["logprobs"]["token_logprobs"][-1] = bad
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="non-finite"):
        make_backend(server).score_sequence("Q", " tok1 tok2")


@pytest.mark.parametrize("field, value", [
    ("token_logprobs", -10 ** 400), ("top_logprobs", {" tok2": -10 ** 400}),
], ids=["token_logprobs", "top_logprobs"])
def test_integer_too_large_for_a_double_is_backend_error(fake_server, field, value):
    """JSON integers have no bound: a logprob that no double can hold is a
    malformed block, not an OverflowError."""
    server = fake_server(SeededModel(1, 8))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        data["choices"][0]["logprobs"][field][-1] = value
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="^malformed logprobs for answer token at offset "
                                           r"\d+: int too large to convert to float$"):
        make_backend(server).score_sequence("Q", " tok1 tok2")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_literal_in_a_response_is_malformed(fake_server, bad):
    """Python's json writes NaN and Infinity literals, which are not JSON: a
    P(True) map holding one is refused before it can reach the cache."""
    server = fake_server(CallableModel(lambda _c: {" Yes": 0.6, " No": 0.4}))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        data["choices"][0]["logprobs"]["top_logprobs"][-1] = {" Yes": bad}
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="^malformed response: non-finite number"):
        make_backend(server).judge_ptrue("Is water wet?", "yes")


@pytest.mark.parametrize("top", [{" Yes": "0.6"}, [[" Yes", -0.5]], {" Yes": 0.7, " No": -0.1}],
                         ids=["string", "list", "positive"])
def test_top_logprobs_of_the_wrong_json_type_are_malformed(fake_server, top):
    """A P(True) map whose value is no number <= 0, or that is no map at
    all, is a BackendError, not a raw TypeError or AttributeError, nor a
    probability above 1."""
    server = fake_server(CallableModel(lambda _c: {" Yes": 0.6, " No": 0.4}))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        data["choices"][0]["logprobs"]["top_logprobs"][-1] = top
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="^malformed top logprobs at offset "):
        make_backend(server).judge_ptrue("Is water wet?", "yes")


def test_a_text_offset_echoed_as_a_string_is_malformed_top_logprobs(fake_server):
    server = fake_server(CallableModel(lambda _c: {" Yes": 0.6, " No": 0.4}))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        offsets = data["choices"][0]["logprobs"]["text_offset"]
        offsets[:] = [str(off) for off in offsets]
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="^malformed top logprobs at offset '0': "):
        make_backend(server).judge_ptrue("Is water wet?", "yes")


CALLS = {
    "generate": lambda b: b.generate("Q", DecodeParams(max_new_tokens=4)),
    "score": lambda b: b.score_sequence("Q", " tok1"),
    "ptrue": lambda b: b.judge_ptrue("Q", "yes"),
}
WRONG_SHAPES = {
    "string_choice": {"choices": ["x"]},
    "string_choices": {"choices": "x"},
    "array_response": [],
    "array_logprobs": {"choices": [{"text": " A", "logprobs": ["x"]}]},
    "number_tokens": {"choices": [{"text": " A", "logprobs": {"tokens": 5}}]},
    "object_text_offset": {"choices": [{"text": " A", "logprobs": {"text_offset": {"0": 1}}}]},
}


@pytest.mark.parametrize("call, body", [
    *(pytest.param(CALLS[call], body, id=f"{call}-{name}")
      for call in CALLS for name, body in WRONG_SHAPES.items()),
    pytest.param(CALLS["generate"], {"choices": [{"text": None}]}, id="generate-null_text"),
    pytest.param(CALLS["generate"], {"choices": [{"text": 5}]}, id="generate-number_text"),
])
def test_a_response_of_the_wrong_shape_is_backend_error(fake_server, body, call):
    """A 200 response whose choice, text or logprobs block is not of the
    JSON type the protocol gives is a BackendError, not a raw TypeError or
    AttributeError."""
    server = fake_server(SeededModel(1, 8))
    server._handle = lambda _payload: body
    with pytest.raises(BackendError):
        call(make_backend(server))


def _set_in_block(field, value):
    """Sets the last token's entry of one logprobs-block field."""
    def edit(block):
        block[field][-1] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set_in_block("token_logprobs", "low"), id="string_logprob"),
    pytest.param(_set_in_block("token_logprobs", "-0.5"), id="numeric_string_logprob"),
    pytest.param(_set_in_block("token_logprobs", True), id="boolean_logprob"),
    pytest.param(_set_in_block("top_logprobs", {" tok2": False}), id="boolean_top_logprob"),
    pytest.param(_set_in_block("top_logprobs", [[" tok2", -0.5]]), id="list_top_logprobs"),
    pytest.param(_set_in_block("top_logprobs", {" tok2": None}), id="null_top_logprob"),
    pytest.param(_set_in_block("top_logprobs", {" tok2": 0.5}), id="positive_top_logprob"),
    pytest.param(_set_in_block("text_offset", "7"), id="string_text_offset"),
])
def test_malformed_logprobs_block_is_backend_error(fake_server, edit):
    server = fake_server(SeededModel(1, 8))
    handle = server._handle

    def poisoned(payload):
        data = handle(payload)
        edit(data["choices"][0]["logprobs"])
        return data

    server._handle = poisoned
    with pytest.raises(BackendError, match="answer token at offset"):
        make_backend(server).score_sequence("Q", " tok1 tok2")


def test_boundary_straddling_token_is_clamped(fake_server):
    # "Q: A" then answer "nswer": the server tokenizes "Q:" + " Answer"
    # jointly, so one wire token straddles the prompt/answer boundary; the
    # client must clamp its span into the answer region
    server = fake_server(SeededModel(3, 8))
    backend = make_backend(server)
    prompt, answer = "Q: A", "nswer tok1"
    scored = backend.score_sequence(prompt, answer)
    spans = scored.token_scores.spans
    assert spans[0][0] == len(prompt)
    assert spans[-1][1] == len(prompt) + len(answer)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start == prev_end


def test_judge_ptrue_over_wire(fake_server):
    model = CallableModel(lambda _c: {" Yes": 0.6, " No": 0.3, " eh": 0.1})
    server = fake_server(model)
    backend = make_backend(server)
    p = backend.judge_ptrue("Is water wet?", "yes")
    assert p == pytest.approx(0.6 / 0.9)
    assert len(server.requests) == 1  # a single prefill


CROSS_VOCAB = [" tok0", " tok1", " tok2", " tok3", " Yes", " No"]


@pytest.mark.parametrize("k", [3, len(CROSS_VOCAB)])
def test_mock_and_http_share_the_scoring_contract(fake_server, k):
    """One model behind both transports gives the same token scores and
    P(True); only the logprob round trip over the wire may differ."""
    model = SeededModel(6, peak=2.0, vocab=CROSS_VOCAB)
    mock = MockBackend("m", model, entropy_support=EntropySupport.top_k(k))
    http = make_backend(fake_server(model), logprobs_k=k)
    outcomes = set()
    for i in range(12):
        prompt, answer = f"Question {i}:", " tok1 Yes tok3 other"[: 6 + i]
        via_mock = mock.score_sequence(prompt, answer)
        via_http = http.score_sequence(prompt, answer)
        assert via_mock.entropy_support == via_http.entropy_support
        a, b = via_mock.token_scores, via_http.token_scores
        assert (a.texts, a.spans, a.logprobs) == (b.texts, b.spans, b.logprobs)
        for a_entropy, b_entropy in zip(a.entropies, b.entropies, strict=True):
            assert abs(a_entropy - b_entropy) <= 1e-12
        try:
            p_mock = mock.judge_ptrue(prompt, answer)
        except CapabilityError:
            with pytest.raises(CapabilityError):
                http.judge_ptrue(prompt, answer)
            outcomes.add("unresolvable")
        else:
            assert abs(p_mock - http.judge_ptrue(prompt, answer)) <= 1e-12
            outcomes.add("resolved")
    # a top-3 echo sometimes holds neither " Yes" nor " No"; the full one always does
    assert outcomes == ({"resolved", "unresolvable"} if k == 3 else {"resolved"})


def test_api_key_header_from_env(fake_server, monkeypatch):
    monkeypatch.setenv("FAKE_KEY", "sekrit")
    server = fake_server(SeededModel(1, 4))
    backend = make_backend(server, api_key_env="FAKE_KEY")
    headers = backend._headers()
    assert headers["Authorization"] == "Bearer sekrit"


def test_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig.from_dict({"id": "x", "type": "http"})  # no base_url
    with pytest.raises(ConfigError):
        BackendConfig.from_dict({"type": "http", "base_url": "http://x"})  # no id
    for url in ("localhost:8000/v1/completions", "ftp://x/v1", "http:///v1", "http://x:port/v1"):
        with pytest.raises(ConfigError, match="base_url"):
            BackendConfig.from_dict({"id": "x", "base_url": url})
    cfg = BackendConfig.from_dict(
        {"id": "x", "base_url": "http://x", "logprobs_k": 5, "custom_field": 1}
    )
    assert cfg.extra == {"custom_field": 1}
