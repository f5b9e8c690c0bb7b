import math

import pytest

import crossmodel.backend.http as http_mod
from crossmodel.backend import (
    BackendConfig,
    CallableModel,
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

from conftest import CorpusModel


def make_backend(server, **overrides) -> HTTPBackend:
    cfg = {"id": "srv", "type": "http", "base_url": server.url, "logprobs_k": 20}
    cfg.update(overrides)
    return HTTPBackend(BackendConfig.from_dict(cfg))


def test_score_sequence_spans_partition_answer(fake_server):
    server = fake_server(SeededModel(1, 8))
    backend = make_backend(server)
    prompt, answer = "What is it?", " tok1 tok2 tok3"
    scored = backend.score_sequence(prompt, answer)
    assert scored.scorer_id == "srv"
    spans = [ts.char_span for ts in scored.token_scores]
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
    assert [ts.logprob for ts in scored.token_scores] == pytest.approx(
        [math.log(0.25)] * 2
    )


def test_topk_entropy_formula_and_support(fake_server):
    server = fake_server(SeededModel(4, 8), top_k=3)
    backend = make_backend(server, logprobs_k=3)
    scored = backend.score_sequence("Q", " tok1 tok2")
    assert scored.entropy_support.kind == "top_k"
    assert scored.entropy_support.k == 3
    for ts in scored.token_scores:
        assert 0.0 <= ts.entropy <= math.log(8) + 1e-9


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
    assert [ts.token_text for ts in out.generator_token_scores] == [" alpha", " beta", " gamma"]
    assert all(ts.logprob == pytest.approx(0.0) for ts in out.generator_token_scores)


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


def test_retries_exhausted_raise_transport_error(fake_server, monkeypatch):
    monkeypatch.setattr(http_mod, "RETRY_BASE_SLEEP", 0.01)
    server = fake_server(SeededModel(1, 4))
    server.fail_next = 10
    backend = make_backend(server)
    with pytest.raises(TransportError):
        backend.score_sequence("Q", " tok1")
    assert len(server.requests) == 3


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
    backend = make_backend(server, logprobs_k=20, vocab_size=4, roles=["verifier"])
    caps = backend.capabilities()
    assert caps.entropy_support.kind == "top_k"
    assert caps.entropy_support.k == 20
    assert caps.can_generate is False
    assert caps.vocab_size == 4


def test_score_max_tokens_one_ignores_trailing_token(fake_server):
    # some servers require max_tokens >= 1; the extra generated token falls
    # outside the answer region and must not be scored
    server = fake_server(SeededModel(2, 8))
    backend = make_backend(server, score_max_tokens=1)
    prompt, answer = "Q:", " tok1 tok2"
    scored = backend.score_sequence(prompt, answer)
    assert server.requests[0]["max_tokens"] == 1
    assert scored.answer_token_count == 2
    spans = [ts.char_span for ts in scored.token_scores]
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


def test_boundary_straddling_token_is_clamped(fake_server):
    # "Q: A" then answer "nswer": the server tokenizes "Q:" + " Answer"
    # jointly, so one wire token straddles the prompt/answer boundary; the
    # client must clamp its span into the answer region
    server = fake_server(SeededModel(3, 8))
    backend = make_backend(server)
    prompt, answer = "Q: A", "nswer tok1"
    scored = backend.score_sequence(prompt, answer)
    spans = [ts.char_span for ts in scored.token_scores]
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
        pairs = list(zip(via_mock.token_scores, via_http.token_scores, strict=True))
        for a, b in pairs:
            assert (a.token_text, a.char_span, a.logprob) == (b.token_text, b.char_span, b.logprob)
            assert abs(a.entropy - b.entropy) <= 1e-12
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
    cfg = BackendConfig.from_dict(
        {"id": "x", "base_url": "http://x", "logprobs_k": 5, "custom_field": 1}
    )
    assert cfg.extra == {"custom_field": 1}
