import math
import threading

import pytest
from hypothesis import given, strategies as st

from crossmodel.backend import (
    CallableModel,
    DecodeParams,
    EntropySupport,
    MockBackend,
    SeededModel,
    TokenScore,
    UniformModel,
    mock_tokenize,
    ptrue_prompt,
)
from crossmodel.errors import CapabilityError, DegenerateInputError

from conftest import CorpusModel, two_point_model


def test_scripted_generation_emits_answer():
    backend = MockBackend("m", CorpusModel({"P": "B"}), generations={"P": "B"})
    out = backend.generate("P", DecodeParams(max_new_tokens=5))
    assert out.text == "B"
    assert out.finish_reason == "stop"


def test_max_new_tokens_one_truncates():
    backend = MockBackend("m", CorpusModel({"P": " alpha beta"}),
                          generations={"P": " alpha beta"})
    out = backend.generate("P", DecodeParams(max_new_tokens=1))
    assert out.text == " alpha"
    assert out.finish_reason == "length"


def test_stop_sequence_sets_stop_reason():
    backend = MockBackend("m", CorpusModel({"P": " alpha beta STOP gamma"}))
    out = backend.generate("P", DecodeParams(max_new_tokens=10, stop_sequences=("STOP",)))
    assert out.finish_reason == "stop"
    assert "STOP" not in out.text
    assert out.text.startswith(" alpha beta")


def test_score_two_tokens_half_probability():
    backend = MockBackend("m", two_point_model(0.5))
    scored = backend.score_sequence("Q", " yes sir")
    assert scored.answer_token_count == 2
    assert [ts.logprob for ts in scored.token_scores] == pytest.approx(
        [math.log(0.5), math.log(0.5)]
    )


def test_score_empty_answer_is_degenerate():
    backend = MockBackend("m", UniformModel([" a", " b"]))
    with pytest.raises(DegenerateInputError):
        backend.score_sequence("Q", "")
    assert backend.calls() == 0


def test_uniform_vocab4_logprobs_and_entropy():
    backend = MockBackend("m", UniformModel([" a", " b", " c", " d"]), vocab_size=4)
    scored = backend.score_sequence("Q", " x y z")
    assert scored.answer_token_count == 3
    for ts in scored.token_scores:
        assert ts.logprob == pytest.approx(math.log(0.25))
        assert ts.entropy == pytest.approx(math.log(4))


def test_capabilities_echo_configuration():
    backend = MockBackend("m", UniformModel([" a"]), vocab_size=7)
    caps = backend.capabilities()
    assert caps.can_generate and caps.can_score
    assert caps.entropy_support == EntropySupport.exact()
    assert caps.vocab_size == 7


def test_no_score_capability_raises():
    backend = MockBackend("m", UniformModel([" a"]), can_score=False)
    with pytest.raises(CapabilityError):
        backend.score_sequence("Q", " a")
    assert backend.calls() == 0


def test_entropy_support_none_yields_absent_entropy():
    backend = MockBackend("m", UniformModel([" a", " b"]),
                          entropy_support=EntropySupport.none())
    scored = backend.score_sequence("Q", " a b")
    assert all(ts.entropy is None for ts in scored.token_scores)


def test_topk_entropy_below_exact_and_vocab_bound():
    vocab = [f" t{i}" for i in range(8)]
    exact = MockBackend("e", SeededModel(3, 8), vocab_size=8)
    topk = MockBackend("k", SeededModel(3, 8), vocab_size=8,
                       entropy_support=EntropySupport.top_k(3))
    s_exact = exact.score_sequence("Q", " t0 t1 t2")
    s_topk = topk.score_sequence("Q", " t0 t1 t2")
    for te, tk in zip(s_exact.token_scores, s_topk.token_scores):
        assert 0.0 <= tk.entropy <= math.log(8) + 1e-12
        assert tk.entropy <= te.entropy + 1e-12
    assert len(vocab) == 8


def test_prefill_only_contract():
    backend = MockBackend("m", UniformModel([" a", " b"]))
    backend.score_sequence("Q", " a b")
    backend.score_sequence("Q2", " b")
    assert backend.calls("score") == 2
    assert backend.calls("generate") == 0


def test_score_determinism_bit_identical():
    backend = MockBackend("m", SeededModel(11, 16))
    a = backend.score_sequence("Q", " tok1 tok2 tok3")
    b = backend.score_sequence("Q", " tok1 tok2 tok3")
    assert a == b


@given(
    prompt=st.text(max_size=20),
    answer=st.text(min_size=1, max_size=40).filter(lambda s: s.strip()),
)
def test_span_partition_covers_answer_exactly(prompt, answer):
    backend = MockBackend("m", SeededModel(5, 8))
    scored = backend.score_sequence(prompt, answer)
    spans = [ts.char_span for ts in scored.token_scores]
    assert spans[0][0] == len(prompt)
    assert spans[-1][1] == len(prompt) + len(answer)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert start == prev_end
    rebuilt = "".join(
        (prompt + answer)[s:e] for s, e in spans
    )
    assert rebuilt == answer


def test_ptrue_template_is_bit_exact():
    assert ptrue_prompt("Q", "A") == (
        "Q\nProposed answer: A\nIs the proposed answer correct? Yes or No.\nAnswer:"
    )


def test_ptrue_normalizes_yes_no_mass():
    model = CallableModel(lambda _c: {" Yes": 0.8, " No": 0.2})
    backend = MockBackend("m", model)
    assert backend.judge_ptrue("Q", "A") == pytest.approx(0.8)


def test_ptrue_symmetric_is_half():
    model = CallableModel(lambda _c: {" Yes": 0.3, " No": 0.3, " maybe": 0.4})
    backend = MockBackend("m", model)
    assert backend.judge_ptrue("Q", "A") == pytest.approx(0.5)


def test_ptrue_sums_case_variants():
    model = CallableModel(lambda _c: {" Yes": 0.4, " yes": 0.2, " NO": 0.2, " x": 0.2})
    backend = MockBackend("m", model)
    assert backend.judge_ptrue("Q", "A") == pytest.approx(0.6 / 0.8)


def test_ptrue_unresolvable_tokens_raise():
    backend = MockBackend("m", UniformModel([" a", " b"]))
    with pytest.raises(CapabilityError):
        backend.judge_ptrue("Q", "A")


def test_concurrent_scoring_keeps_ordered_log():
    backend = MockBackend("m", SeededModel(2, 8))
    errors = []

    def worker(i):
        try:
            backend.score_sequence(f"Q{i}", " tok1 tok2")
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert backend.calls("score") == 16


def test_mock_tokenize_trailing_whitespace_attaches():
    pieces = mock_tokenize("ab  cd  ")
    assert [p[0] for p in pieces] == ["ab", "  cd  "]
    assert pieces[-1][2] == 8


@pytest.mark.parametrize("logprob", [math.nan, -math.inf, math.inf, 0.5])
def test_token_score_rejects_non_finite_or_positive_logprob(logprob):
    with pytest.raises(ValueError):
        TokenScore(" a", logprob, None, (0, 2))
