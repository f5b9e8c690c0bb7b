import math

import pytest
from hypothesis import example, given, strategies as st

from crossmodel.backend import (
    DecodeParams,
    EntropySupport,
    GeneratedAnswer,
    MockBackend,
    ScoredSequence,
    SeededModel,
    TokenScore,
)
from crossmodel.datasets import extract_answer
from crossmodel.errors import CapabilityError, DegenerateInputError, MarkerNotFoundError
from crossmodel.signals import (
    AnswerSpan,
    SignalRecord,
    cme,
    cmp,
    cmp_final,
    final_answer_span,
    g_ent,
    g_ppl,
    signal_vector,
    suspicion_score,
)

EXACT = EntropySupport.exact()


def build_scored(token_specs, prompt="P:", support=EXACT) -> ScoredSequence:
    """token_specs: (text, logprob, entropy) triples concatenating to the answer."""
    answer = "".join(t for t, _, _ in token_specs)
    scores = []
    pos = len(prompt)
    for text, lp, ent in token_specs:
        scores.append(TokenScore(text, lp, ent, (pos, pos + len(text))))
        pos += len(text)
    return ScoredSequence(
        prompt_text=prompt,
        answer_text=answer,
        scorer_id="test",
        token_scores=tuple(scores),
        entropy_support=support,
    )


def generated_from(token_specs) -> GeneratedAnswer:
    scored = build_scored(token_specs)
    return GeneratedAnswer(
        text=scored.answer_text,
        finish_reason="stop",
        generator_token_scores=scored.token_scores,
    )


# --- cmp -------------------------------------------------------------------


def test_cmp_half_probability_tokens():
    scored = build_scored([(" a", math.log(0.5), 0.0), (" b", math.log(0.5), 0.0)])
    assert cmp(scored) == pytest.approx(math.log(2))


def test_cmp_certain_tokens_zero():
    scored = build_scored([(" a", 0.0, 0.0), (" b", 0.0, 0.0)])
    assert cmp(scored) == 0.0


def test_cmp_uniform_vocab4():
    scored = build_scored([(" a", math.log(0.25), 0.0)] * 3)
    assert cmp(scored) == pytest.approx(math.log(4))


def test_cmp_empty_tokens_degenerate():
    scored = build_scored([(" a", 0.0, 0.0)])
    object.__setattr__(scored, "token_scores", ())
    object.__setattr__(scored, "answer_token_count", 0)
    with pytest.raises(DegenerateInputError):
        cmp(scored)


# --- cme --------------------------------------------------------------------


def test_cme_uniform_vocab4():
    h = math.log(4)
    scored = build_scored([(" a", math.log(0.25), h), (" b", math.log(0.25), h)])
    assert cme(scored) == pytest.approx(h)


def test_cme_one_hot_zero():
    scored = build_scored([(" a", 0.0, 0.0), (" b", 0.0, 0.0)])
    assert cme(scored) == 0.0


def test_cme_mixed_positions_arithmetic_mean():
    scored = build_scored([(" a", -1.0, 0.0), (" b", -1.0, math.log(4))])
    assert cme(scored) == pytest.approx(math.log(4) / 2)


def test_cme_requires_entropy_support():
    scored = build_scored(
        [(" a", -1.0, None)], support=EntropySupport.none()
    )
    with pytest.raises(CapabilityError):
        cme(scored)


# --- generator baselines -------------------------------------------------------


def test_confident_generator_zero_scores():
    gen = generated_from([(" a", 0.0, 0.0), (" b", 0.0, 0.0)])
    assert g_ppl(gen) == 0.0
    assert g_ent(gen) == 0.0


def test_gppl_half_probability():
    gen = generated_from([(" a", math.log(0.5), 1.0)] * 4)
    assert g_ppl(gen) == pytest.approx(math.log(2))


def test_generator_without_echo_raises():
    gen = GeneratedAnswer(text="x", finish_reason="stop")
    with pytest.raises(CapabilityError):
        g_ppl(gen)
    with pytest.raises(CapabilityError):
        g_ent(gen)


def test_self_verification_identity_on_mock():
    backend = MockBackend("m", SeededModel(9, 8))
    out = backend.generate("Q7", DecodeParams(max_new_tokens=6))
    scored = backend.score_sequence("Q7", out.text)
    assert cmp(scored) == pytest.approx(g_ppl(out), abs=1e-12)
    assert cme(scored) == pytest.approx(g_ent(out), abs=1e-12)


# --- cmp_final -------------------------------------------------------------------


def test_cmp_final_isolates_answer_tokens():
    scored = build_scored(
        [
            ("steps", math.log(0.5), 0.0),
            (" more", math.log(0.5), 0.0),
            (" ANSWER:", math.log(0.5), 0.0),
            (" 42", 0.0, 0.0),
        ]
    )
    span = AnswerSpan("final_answer")
    assert cmp_final(scored, span) == 0.0
    assert cmp(scored) > 0.0


def test_cmp_final_missing_marker_raises():
    scored = build_scored([(" 42", 0.0, 0.0)])
    with pytest.raises(MarkerNotFoundError):
        cmp_final(scored, AnswerSpan("final_answer"))


def test_cmp_final_no_digits_after_marker_raises():
    scored = build_scored([("ANSWER:", -1.0, 0.0), (" none", -1.0, 0.0)])
    with pytest.raises(MarkerNotFoundError):
        cmp_final(scored, AnswerSpan("final_answer"))


def test_cmp_final_equals_cmp_when_region_covers_all_tokens():
    scored = build_scored([("ANSWER:42", math.log(0.3), 0.0)])
    assert cmp_final(scored, AnswerSpan("final_answer")) == cmp(scored)


def test_cmp_final_uses_last_marker_occurrence():
    text = "ANSWER: 1 then ANSWER: -2,500.75 done"
    (start, end), flags = final_answer_span(text)
    assert text[start:end] == "-2,500.75"
    assert flags == []


def test_final_span_takes_maximal_numeric_run():
    assert final_answer_span("ANSWER: 1,234 and 9") == ((18, 19), [])
    assert final_answer_span("ANSWER: 9 and 1,234") == ((14, 19), [])


ANSWER_PIECES = st.sampled_from(
    ["ANSWER:", "ANSWER", " ", "\n", "-", ".", ",", "7", "42", "1,234", "-0.5", "\u0663", "so"]
)


@given(st.lists(ANSWER_PIECES, max_size=12).map("".join) | st.text(max_size=30))
@example("ANSWER: 1,234 and 9")
def test_cmp_final_scores_the_judged_number(text):
    """With one token per character at logprob -(i + 1), cmp_final over
    span [start, end) is (start + end + 1) / 2."""
    span, flags = final_answer_span(text)
    scored = build_scored([(ch, -float(i + 1), 0.0) for i, ch in enumerate(text)], prompt="")
    if flags:
        with pytest.raises(MarkerNotFoundError):
            cmp_final(scored, AnswerSpan("final_answer"))
        return
    start, end = span
    assert text[start:end].replace(",", "") == extract_answer(text, "numeric_cot")
    assert cmp_final(scored, AnswerSpan("final_answer")) == (start + end + 1) / 2


# --- signal_vector ---------------------------------------------------------------


def test_signal_vector_full_inputs():
    backend = MockBackend("m", SeededModel(1, 8))
    gen = backend.generate("Qq", DecodeParams(max_new_tokens=4))
    scored = backend.score_sequence("Qq", gen.text)
    rec = signal_vector("i1", gen, scored, span=AnswerSpan("full"), ptrue=0.7,
                        generator_correct=True, verifier_correct=False)
    assert rec.log_cmp is not None
    assert rec.cme is not None
    assert rec.log_gppl is not None
    assert rec.g_ent is not None
    assert rec.p_true == 0.7
    assert rec.log_cmp_final is None  # full-span run


def test_signal_vector_without_entropy_support():
    backend = MockBackend("m", SeededModel(1, 8), entropy_support=EntropySupport.none())
    gen = backend.generate("Qq", DecodeParams(max_new_tokens=3))
    scored = backend.score_sequence("Qq", gen.text)
    rec = signal_vector("i1", gen, scored)
    assert rec.log_cmp is not None
    assert rec.cme is None
    assert rec.g_ent is None  # generator echo carried no entropies either


def test_signal_vector_without_generator_echo():
    backend = MockBackend("m", SeededModel(1, 8))
    gen = GeneratedAnswer(text=" tok1 tok2", finish_reason="stop")
    scored = backend.score_sequence("Qq", gen.text)
    rec = signal_vector("i1", gen, scored)
    assert rec.log_gppl is None
    assert rec.g_ent is None
    assert rec.log_cmp is not None
    assert rec.cme is not None


def test_signal_vector_marker_missing_leaves_final_none():
    backend = MockBackend("m", SeededModel(1, 8))
    gen = backend.generate("Qq", DecodeParams(max_new_tokens=3))
    scored = backend.score_sequence("Qq", gen.text)
    rec = signal_vector("i1", gen, scored, span=AnswerSpan("final_answer"))
    assert rec.log_cmp_final is None


def test_suspicion_score_orientation():
    rec = SignalRecord("i", log_cmp=2.5, p_true=0.9)
    assert suspicion_score(rec, "log_cmp") == 2.5
    assert suspicion_score(rec, "p_true") == -0.9
    assert suspicion_score(rec, "cme") is None
    with pytest.raises(KeyError):
        suspicion_score(rec, "nope")


def test_record_roundtrip():
    rec = SignalRecord("i", log_cmp=1.0, cme=None, g_ent=0.25,
                       generator_correct=True, verifier_correct=None)
    assert SignalRecord.from_dict(rec.to_dict()) == rec


# --- invariants --------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-30.0, max_value=0.0), min_size=1, max_size=30))
@example([0.0, -5e-324])  # the mean NLL underflows to 0.0
def test_log_cmp_nonnegative_and_zero_iff_certain(logprobs):
    scored = build_scored([(f" t{i}", lp, 0.0) for i, lp in enumerate(logprobs)])
    value = cmp(scored)
    assert value >= 0.0
    if all(lp == 0.0 for lp in logprobs):
        assert value == 0.0
    if value == 0.0:
        assert all(lp == 0.0 for lp in logprobs)


@given(
    st.lists(st.floats(min_value=-20.0, max_value=0.0), min_size=2, max_size=20),
    st.data(),
)
def test_span_additivity(logprobs, data):
    scored = build_scored([(f" t{i}", lp, 0.0) for i, lp in enumerate(logprobs)])
    n = len(logprobs)
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    left = build_scored([(f" t{i}", lp, 0.0) for i, lp in enumerate(logprobs[:cut])])
    right = build_scored([(f" t{i}", lp, 0.0) for i, lp in enumerate(logprobs[cut:])])
    weighted = (cmp(left) * cut + cmp(right) * (n - cut)) / n
    assert cmp(scored) == pytest.approx(weighted, abs=1e-12)
