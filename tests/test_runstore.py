import os
import threading

import pytest

from crossmodel.backend import DecodeParams, EntropySupport, GeneratedAnswer, ScoredSequence, TokenScore
from crossmodel.errors import CorruptEntryError, DuplicateRunError
from crossmodel.runstore import CacheKey, RunManifest, RunStore


def sample_scored():
    return ScoredSequence(
        prompt_text="Q",
        answer_text=" a b",
        scorer_id="m",
        token_scores=(
            TokenScore(" a", -0.5, 1.0, (1, 3)),
            TokenScore(" b", -1.5, None, (3, 5)),
        ),
        entropy_support=EntropySupport.top_k(5),
    )


def sample_generated():
    return GeneratedAnswer(
        text=" a b",
        finish_reason="length",
        generator_token_scores=(TokenScore(" a", 0.0, 0.0, (1, 3)),),
    )


def score_key(answer=" a b"):
    return CacheKey.for_score("m", "Q", answer)


def test_put_get_roundtrip_scored(tmp_path):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    assert store.get(score_key()) == sample_scored()


def test_put_get_roundtrip_generated(tmp_path):
    store = RunStore(tmp_path)
    key = CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=4))
    store.put(key, sample_generated())
    assert store.get(key) == sample_generated()


def test_put_get_roundtrip_probability(tmp_path):
    store = RunStore(tmp_path)
    key = CacheKey.for_ptrue("m", "Q", "a")
    store.put(key, 0.8125)
    assert store.get(key) == 0.8125


def test_get_miss_is_none(tmp_path):
    assert RunStore(tmp_path).get(score_key()) is None


def test_key_depends_on_request_content():
    assert score_key().digest() == score_key().digest()
    assert score_key().digest() != score_key(answer=" a c").digest()
    assert (
        CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=4)).digest()
        != CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=5)).digest()
    )
    assert score_key().digest() != CacheKey.for_ptrue("m", "Q", " a b").digest()


def test_key_digests_stable_across_processes_and_releases():
    # frozen values: semantically identical requests must map to identical
    # entries no matter which process (or tool version) computed them
    assert CacheKey.for_score("backend-a", "What is 2+2?", " 4").digest() == (
        "8bd442b2f6f3c509db37b2fb6e130df1b8866d0ea53708d106ac95bd96023ce7"
    )
    params = DecodeParams(max_new_tokens=5, stop_sequences=("\n",))
    assert CacheKey.for_generate("backend-a", "What is 2+2?", params).digest() == (
        "efac0239b44b158b5152e5bd9ca2f2ed22213e1017f151b4b226a3e6dcb0cf5c"
    )
    assert CacheKey.for_ptrue("backend-a", "What is 2+2?", " 4").digest() == (
        "7ec83b0e6527a7728454acaf73eb085837aacc49a60bcc56e8679dfd7d998bf8"
    )


def test_entry_bytes_stable_across_releases(tmp_path):
    # frozen bytes: stores written by earlier releases must stay readable,
    # so the on-disk encoding of every value kind is pinned, and each pinned
    # entry must decode back to the value that was put
    store = RunStore(tmp_path)
    generated = GeneratedAnswer(
        text=" B",
        finish_reason="stop",
        generator_token_scores=(TokenScore(" B", -0.25, None, (3, 5)),),
    )
    scored = ScoredSequence(
        prompt_text="Q: ",
        answer_text=" x y",
        scorer_id="v",
        token_scores=(
            TokenScore(" x", -0.5, 1.25, (3, 5)),
            TokenScore(" y", -2.0, 0.0, (5, 7)),
        ),
        entropy_support=EntropySupport.top_k(5),
    )
    cases = [
        (
            CacheKey.for_generate("g", "Q: ", DecodeParams(max_new_tokens=5)),
            generated,
            b'CM1\n{"data":{"finish_reason":"stop","generator_token_scores":'
            b'[{"char_span":[3,5],"entropy":null,"logprob":-0.25,"token_text":" B"}],'
            b'"text":" B"},"type":"generated_answer"}\n'
            b"sha256:a67cea519d14c9b7d2adf72ab11544df575444c7d46bb0bf4fe87c0ed2263c24\n",
        ),
        (
            CacheKey.for_score("v", "Q: ", " x y"),
            scored,
            b'CM1\n{"data":{"answer_text":" x y","answer_token_count":2,'
            b'"entropy_support":{"k":5,"kind":"top_k"},"prompt_text":"Q: ","scorer_id":"v",'
            b'"token_scores":[{"char_span":[3,5],"entropy":1.25,"logprob":-0.5,"token_text":" x"},'
            b'{"char_span":[5,7],"entropy":0.0,"logprob":-2.0,"token_text":" y"}]},'
            b'"type":"scored_sequence"}\n'
            b"sha256:ddf119e9edce9e26579220fe591fcb0270c3e38475ccc177d147377f2c54a9bd\n",
        ),
        (
            CacheKey.for_ptrue("v", "Q: ", " x y"),
            0.625,
            b'CM1\n{"data":0.625,"type":"probability"}\n'
            b"sha256:d17d0b4bf0561b86385f0ab896790370d84ae8d83b1af6dbfa2681bc7701866d\n",
        ),
    ]
    for key, value, expected in cases:
        store.put(key, value)
        assert store._entry_path(key).read_bytes() == expected
        fresh = RunStore(tmp_path / "fresh")
        fresh._entry_path(key).parent.mkdir(parents=True, exist_ok=True)
        fresh._entry_path(key).write_bytes(expected)
        assert fresh.get(key) == value


def test_score_key_requires_answer_hash():
    with pytest.raises(ValueError):
        CacheKey("m", "score", "p", "q")


def test_corrupt_entry_detected_and_quarantined(tmp_path):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    path = store._entry_path(score_key())
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptEntryError):
        store.get(score_key())
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # a fresh put repairs the slot
    store.put(score_key(), sample_scored())
    assert store.get(score_key()) == sample_scored()


def test_corrupt_entry_already_quarantined_by_another_reader(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    path = store._entry_path(score_key())
    path.write_bytes(path.read_bytes() + b"x")
    real_replace = os.replace

    def racing_replace(src, dst):
        real_replace(src, dst)  # the other reader's quarantine
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    with pytest.raises(CorruptEntryError):
        store.get(score_key())
    assert path.with_suffix(".corrupt").exists()


def test_concurrent_identical_puts_idempotent(tmp_path):
    store = RunStore(tmp_path)
    errors = []

    def worker():
        try:
            store.put(score_key(), sample_scored())
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.get(score_key()) == sample_scored()


# --- manifests --------------------------------------------------------------------


def manifest(run_id, created_at):
    return RunManifest(
        run_id=run_id,
        dataset_digest="d" * 8,
        backends_digest="b" * 8,
        preset="mmlu",
        seed=0,
        created_at=created_at,
        signals=("log_cmp",),
        tool_version="0.1.0",
    )


def test_manifests_listed_in_time_order(tmp_path):
    store = RunStore(tmp_path)
    store.write_manifest(manifest("r2", "2026-08-11T10:00:00+00:00"))
    store.write_manifest(manifest("r1", "2026-08-10T10:00:00+00:00"))
    runs = store.list_runs()
    assert [m.run_id for m in runs] == ["r1", "r2"]


def test_duplicate_run_id_different_content_errors(tmp_path):
    store = RunStore(tmp_path)
    store.write_manifest(manifest("r1", "2026-08-10T10:00:00+00:00"))
    with pytest.raises(DuplicateRunError):
        store.write_manifest(manifest("r1", "2026-08-11T11:00:00+00:00"))


def test_identical_rewrite_is_noop(tmp_path):
    store = RunStore(tmp_path)
    m = manifest("r1", "2026-08-10T10:00:00+00:00")
    store.write_manifest(m)
    store.write_manifest(m)
    assert len(store.list_runs()) == 1


def test_empty_store_lists_nothing(tmp_path):
    assert RunStore(tmp_path).list_runs() == []


def test_manifest_roundtrip(tmp_path):
    store = RunStore(tmp_path)
    m = RunManifest(
        run_id="r9",
        dataset_digest="dd",
        backends_digest="bb",
        preset="gsm8k",
        seed=7,
        created_at="2026-08-11T00:00:00+00:00",
        signals=("log_cmp", "cme"),
        tool_version="0.1.0",
        extra={"limit": 100},
    )
    store.write_manifest(m)
    assert store.list_runs() == [m]


def test_token_scores_encode_as_their_field_walk():
    from crossmodel.serialize import generated_answer_to_dict, scored_sequence_to_dict, to_dict

    scored = sample_scored()
    assert scored_sequence_to_dict(scored)["token_scores"] == [
        to_dict(ts) for ts in scored.token_scores
    ]
    generated = sample_generated()
    assert generated_answer_to_dict(generated)["generator_token_scores"] == [
        to_dict(ts) for ts in generated.generator_token_scores
    ]
