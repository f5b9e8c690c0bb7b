import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from crossmodel.backend import (
    DecodeParams,
    EntropySupport,
    GeneratedAnswer,
    MockBackend,
    ScoredSequence,
    SeededModel,
    TokenScore,
    TokenScores,
)
from crossmodel.datasets import extract_with_flags
from crossmodel.errors import CapabilityError, DegenerateInputError
from crossmodel.serialize import (
    generated_answer_from_dict,
    generated_answer_to_dict,
    scored_sequence_from_dict,
    scored_sequence_to_dict,
)
from crossmodel.signals import (
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


def columns_from(specs, prompt: str) -> TokenScores:
    """Token scores of (text, logprob, entropy) triples whose spans partition
    the answer after `prompt`."""
    offsets = list(itertools.accumulate((len(text) for text, _, _ in specs), initial=len(prompt)))
    return TokenScores([text for text, _, _ in specs], [lp for _, lp, _ in specs],
                       [ent for _, _, ent in specs], list(zip(offsets, offsets[1:])))


def build_scored(token_specs, prompt="P:", support=EXACT) -> ScoredSequence:
    """token_specs: (text, logprob, entropy) triples concatenating to the answer."""
    answer = "".join(t for t, _, _ in token_specs)
    return ScoredSequence(
        prompt_text=prompt,
        answer_text=answer,
        scorer_id="test",
        token_scores=columns_from(token_specs, prompt),
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
    object.__setattr__(scored, "token_scores", TokenScores((), (), (), ()))
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
    assert cmp_final(scored) == 0.0
    assert cmp(scored) > 0.0


def test_cmp_final_missing_marker_raises():
    scored = build_scored([(" 42", 0.0, 0.0)])
    with pytest.raises(DegenerateInputError):
        cmp_final(scored)


def test_cmp_final_no_digits_after_marker_raises():
    scored = build_scored([("ANSWER:", -1.0, 0.0), (" none", -1.0, 0.0)])
    with pytest.raises(DegenerateInputError):
        cmp_final(scored)


def test_cmp_final_equals_cmp_when_region_covers_all_tokens():
    scored = build_scored([("ANSWER:42", math.log(0.3), 0.0)])
    assert cmp_final(scored) == cmp(scored)


def so_answer_42(cover_number: bool) -> ScoredSequence:
    """`" so ANSWER: 42"` scored at logprob -0.5 a token, by tokens whose
    spans cover the graded `" 42"` or skip it."""
    n = 3 if cover_number else 2
    return ScoredSequence("P:", " so ANSWER: 42", "test",
                          TokenScores([" so", " ANSWER:", " 42"][:n], [-0.5] * n, [0.0] * n,
                                      [(2, 5), (5, 13), (13, 16)][:n]), EXACT)


def test_cmp_final_without_a_token_over_the_number_raises():
    scored = so_answer_42(cover_number=False)
    with pytest.raises(DegenerateInputError):
        cmp_final(scored)
    with pytest.raises(DegenerateInputError):
        cmp_final(scored, final_answer_span(scored.answer_text))


def test_signal_vector_without_a_token_over_the_number_leaves_final_none():
    for cover_number, expected in ((True, 0.5), (False, None)):
        scored = so_answer_42(cover_number)
        gen = GeneratedAnswer(scored.answer_text, "stop")
        rec = signal_vector("i1", gen, scored, final_answer=final_answer_span(gen.text))
        assert rec.log_cmp == 0.5
        assert rec.log_cmp_final == expected


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
        with pytest.raises(DegenerateInputError):
            cmp_final(scored)
        return
    start, end = span
    assert text[start:end].replace(",", "") == extract_with_flags(text, "numeric_cot")[0]
    assert cmp_final(scored) == (start + end + 1) / 2


# --- signal_vector ---------------------------------------------------------------


def test_signal_vector_full_inputs():
    backend = MockBackend("m", SeededModel(1, 8))
    gen = backend.generate("Qq", DecodeParams(max_new_tokens=4))
    scored = backend.score_sequence("Qq", gen.text)
    rec = signal_vector("i1", gen, scored, ptrue=0.7,
                        generator_correct=True, verifier_correct=False)
    assert rec.log_cmp is not None
    assert rec.cme is not None
    assert rec.log_gppl is not None
    assert rec.g_ent is not None
    assert rec.p_true == 0.7
    assert rec.log_cmp_final is None  # no final answer given


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
    rec = signal_vector("i1", gen, scored, final_answer=final_answer_span(gen.text))
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


# --- token scores held as columns ----------------------------------------------------


TOKEN_TEXTS = st.sampled_from([" a", " 12", " 7", " ANSWER:", ",5", " 3.25", "x"])
TOKEN_ROW = st.tuples(
    TOKEN_TEXTS,
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    st.none() | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


FIELDS = ("token_text", "logprob", "entropy", "char_span")


def rows_of(columns: TokenScores) -> tuple[TokenScore, ...]:
    """One `TokenScore` per token of `columns`, each checked by the per-token rules."""
    return tuple(map(TokenScore, *dataclasses.astuple(columns)))


def fields_of(rows) -> tuple[tuple, ...]:
    """The fields of `rows` as columns, in the order of `TokenScores`' fields."""
    return tuple(tuple(getattr(ts, name) for ts in rows) for name in FIELDS)


def mean_nll(logprobs) -> float:
    total = sum(logprobs)
    return max(-total / len(logprobs), math.ulp(0.0)) if total < 0.0 else 0.0


def outcome(fn):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001  (the type is the outcome compared)
        return type(exc)


@given(st.lists(TOKEN_ROW, min_size=1, max_size=25), st.text(max_size=5))
def test_columns_round_trip_and_aggregate_like_rows(specs, prompt):
    answer = "".join(text for text, _, _ in specs)
    scored = ScoredSequence(prompt, answer, "v", columns_from(specs, prompt),
                            EntropySupport.top_k(5))
    generated = GeneratedAnswer(answer, "stop", columns_from(specs, prompt))
    columns = scored.token_scores
    rows = rows_of(columns)
    assert isinstance(columns, TokenScores)
    assert dataclasses.astuple(columns) == fields_of(rows)
    assert fields_of(rows)[:3] == tuple(zip(*specs))
    assert generated.generator_token_scores == columns
    assert hash(generated.generator_token_scores) == hash(columns)

    assert scored_sequence_from_dict(scored_sequence_to_dict(scored)) == scored
    assert generated_answer_from_dict(generated_answer_to_dict(generated)) == generated
    column_json = {"char_span": [ts.char_span for ts in rows],
                   "entropy": [ts.entropy for ts in rows],
                   "logprob": [ts.logprob for ts in rows],
                   "token_text": [ts.token_text for ts in rows]}
    for encoded in (scored_sequence_to_dict(scored)["token_scores"],
                    generated_answer_to_dict(generated)["generator_token_scores"]):
        assert json.dumps(encoded, sort_keys=True) == json.dumps(column_json, sort_keys=True)
    # the row form of earlier releases decodes to the same columns
    row_json = json.loads(json.dumps([
        {"char_span": ts.char_span, "entropy": ts.entropy, "logprob": ts.logprob,
         "token_text": ts.token_text} for ts in rows]))
    scored_rows = {**scored_sequence_to_dict(scored), "token_scores": row_json}
    generated_rows = {**generated_answer_to_dict(generated), "generator_token_scores": row_json}
    assert scored_sequence_from_dict(scored_rows) == scored
    assert generated_answer_from_dict(generated_rows) == generated
    assert scored_sequence_from_dict(json.loads(json.dumps(
        scored_sequence_to_dict(scored)))) == scored

    nll = mean_nll([ts.logprob for ts in rows])
    entropies = [ts.entropy for ts in rows]
    ent = (CapabilityError if None in entropies
           else sum(ts.entropy for ts in rows) / len(rows))
    assert cmp(scored) == nll and g_ppl(generated) == nll
    assert outcome(lambda: cme(scored)) == ent and outcome(lambda: g_ent(generated)) == ent

    def reference_final():
        found, flags = final_answer_span(answer)
        if flags:
            raise DegenerateInputError
        lo, hi = len(prompt) + found[0], len(prompt) + found[1]
        selected = [ts.logprob for ts in rows if ts.char_span[1] > lo and ts.char_span[0] < hi]
        if not selected:
            raise DegenerateInputError
        return mean_nll(selected)

    assert outcome(lambda: cmp_final(scored)) == outcome(reference_final)


# Values either side of every check, then anything at all.
EDGE_VALUES = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.5, 5e-324, -5e-324, 0.0, -0.0, -1e308,
    None, True, False, 10**400, -10**400, "x",
])
ANY_VALUE = EDGE_VALUES | st.floats() | st.none() | st.integers() | st.text(max_size=2)


@pytest.mark.parametrize("field", ["logprob", "entropy", "char_span"])
@settings(max_examples=300)
@given(specs=st.lists(TOKEN_ROW, min_size=1, max_size=12), data=st.data())
def test_columns_reject_a_bad_value_exactly_when_a_row_does(specs, data, field):
    rows = list(rows_of(columns_from(specs, "Q")))
    at = data.draw(st.integers(0, len(rows) - 1))
    if field == "char_span":
        value = data.draw(st.lists(st.integers(-3, 40) | ANY_VALUE, max_size=3).map(tuple)
                          | st.tuples(st.integers(-3, 40), st.integers(-3, 40)).map(
                              lambda span: tuple(map(str, span)))
                          | ANY_VALUE)
    else:
        value = data.draw(ANY_VALUE)
    columns = list(map(list, fields_of(rows)))
    columns[FIELDS.index(field)][at] = value
    as_row = outcome(lambda: dataclasses.replace(rows[at], **{field: value}))
    as_columns = outcome(lambda: TokenScores(*columns))
    if isinstance(as_row, type):
        assert as_columns is as_row
    else:
        rows[at] = as_row
        assert dataclasses.astuple(as_columns) == fields_of(rows)
