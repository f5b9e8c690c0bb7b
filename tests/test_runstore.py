import errno
import hashlib
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import crossmodel
from crossmodel import runstore
from crossmodel.backend import (
    DecodeParams, EntropySupport, GeneratedAnswer, ScoredSequence, TokenScore, TokenScores,
)
from crossmodel.errors import CorruptEntryError, DataError
from crossmodel.runstore import CacheKey, RunStore
from crossmodel.serialize import canonical_json, to_dict


def sample_scored():
    return ScoredSequence(
        prompt_text="Q",
        answer_text=" a b",
        scorer_id="m",
        token_scores=TokenScores((" a", " b"), (-0.5, -1.5), (1.0, None), ((1, 3), (3, 5))),
        entropy_support=EntropySupport.top_k(5),
    )


def sample_generated():
    return GeneratedAnswer(
        text=" a b",
        finish_reason="length",
        generator_token_scores=TokenScores((" a",), (0.0,), (0.0,), ((1, 3),)),
    )


def score_key(answer=" a b"):
    return CacheKey.for_score("m", "Q", answer, "c1")


def hit(value):
    """What get returns for the entry of `value`: the value and its
    canonical JSON, the entry's data."""
    return value, canonical_json(value if isinstance(value, float) else to_dict(value)).encode()


def test_put_get_roundtrip_scored(tmp_path):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    assert store.get(score_key()) == hit(sample_scored())


def test_put_get_roundtrip_generated(tmp_path):
    store = RunStore(tmp_path)
    key = CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=4), "c1")
    store.put(key, sample_generated())
    assert store.get(key) == hit(sample_generated())


def test_put_get_roundtrip_probability(tmp_path):
    store = RunStore(tmp_path)
    key = CacheKey.for_ptrue("m", "Q", "a", "c1")
    store.put(key, 0.8125)
    assert store.get(key) == hit(0.8125)


def test_get_miss_is_none(tmp_path):
    assert RunStore(tmp_path).get(score_key()) is None


def test_key_depends_on_request_content():
    assert score_key().digest() == score_key().digest()
    assert score_key().digest() != score_key(answer=" a c").digest()
    assert (
        CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=4), "c1").digest()
        != CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=5), "c1").digest()
    )
    assert score_key().digest() != CacheKey.for_ptrue("m", "Q", " a b", "c1").digest()


def test_key_digests_stable_across_processes_and_releases():
    # frozen values: semantically identical requests must map to identical
    # entries no matter which process (or tool version) computed them
    assert CacheKey.for_score("backend-a", "What is 2+2?", " 4", "c1").digest() == (
        "11a666f2ddc5ecbe5a1a89eb959c78f2caf78b18a8324359b29e82264fdbfe1b"
    )
    params = DecodeParams(max_new_tokens=5)
    assert CacheKey.for_generate("backend-a", "What is 2+2?", params, "c1").digest() == (
        "afe329c9d0b3bb918b6f7eeb193949252dfce904f9a959efe2128ac326527b17"
    )
    assert CacheKey.for_ptrue("backend-a", "What is 2+2?", " 4", "c1").digest() == (
        "ade73afc4b7537a22307ed921e31d8158cd4e475f9c8c1f4490e485f9fecf39b"
    )


def test_entry_bytes_stable_across_releases(tmp_path):
    # frozen bytes: the on-disk encoding of every value kind is pinned, and
    # each pinned entry must decode back to the value that was put; the
    # entries of earlier releases, which held token scores as one object per
    # token, must stay readable
    store = RunStore(tmp_path)
    generated = GeneratedAnswer(
        text=" B",
        finish_reason="stop",
        generator_token_scores=TokenScores((" B",), (-0.25,), (None,), ((3, 5),)),
    )
    scored = ScoredSequence(
        prompt_text="Q: ",
        answer_text=" x y",
        scorer_id="v",
        token_scores=TokenScores((" x", " y"), (-0.5, -2.0), (1.25, 0.0), ((3, 5), (5, 7))),
        entropy_support=EntropySupport.top_k(5),
    )
    generate_key = CacheKey.for_generate("g", "Q: ", DecodeParams(max_new_tokens=5), "c1")
    scored_key = CacheKey.for_score("v", "Q: ", " x y", "c1")
    cases = [
        (
            generate_key,
            generated,
            b'CM1\n{"data":{"finish_reason":"stop","generator_token_scores":'
            b'{"char_span":[[3,5]],"entropy":[null],"logprob":[-0.25],"token_text":[" B"]},'
            b'"text":" B"},"type":"generated_answer"}\n'
            b"sha256:83517c9cf727661e3edfb01ee649f95d6fcd9c497737a4331b9178e31ec71af2\n",
        ),
        (
            scored_key,
            scored,
            b'CM1\n{"data":{"answer_text":" x y","answer_token_count":2,'
            b'"entropy_support":{"k":5,"kind":"top_k"},"prompt_text":"Q: ","scorer_id":"v",'
            b'"token_scores":{"char_span":[[3,5],[5,7]],"entropy":[1.25,0.0],'
            b'"logprob":[-0.5,-2.0],"token_text":[" x"," y"]}},'
            b'"type":"scored_sequence"}\n'
            b"sha256:0997901015bfbebe4862f4be07a3bf64589be0b35ddd4dbbb5cf55ac03fb2250\n",
        ),
        (
            CacheKey.for_ptrue("v", "Q: ", " x y", "c1"),
            0.625,
            b'CM1\n{"data":0.625,"type":"probability"}\n'
            b"sha256:d17d0b4bf0561b86385f0ab896790370d84ae8d83b1af6dbfa2681bc7701866d\n",
        ),
    ]
    for key, value, expected in cases:
        store.put(key, value)
        store.flush()
        assert store._entry_path(key).read_bytes() == expected
        fresh = RunStore(tmp_path / "fresh")
        fresh._entry_path(key).parent.mkdir(parents=True, exist_ok=True)
        fresh._entry_path(key).write_bytes(expected)
        assert fresh.get(key) == hit(value)
    earlier_releases = [
        (
            generate_key,
            generated,
            b'CM1\n{"data":{"finish_reason":"stop","generator_token_scores":'
            b'[{"char_span":[3,5],"entropy":null,"logprob":-0.25,"token_text":" B"}],'
            b'"text":" B"},"type":"generated_answer"}\n'
            b"sha256:a67cea519d14c9b7d2adf72ab11544df575444c7d46bb0bf4fe87c0ed2263c24\n",
        ),
        (
            scored_key,
            scored,
            b'CM1\n{"data":{"answer_text":" x y","answer_token_count":2,'
            b'"entropy_support":{"k":5,"kind":"top_k"},"prompt_text":"Q: ","scorer_id":"v",'
            b'"token_scores":[{"char_span":[3,5],"entropy":1.25,"logprob":-0.5,"token_text":" x"},'
            b'{"char_span":[5,7],"entropy":0.0,"logprob":-2.0,"token_text":" y"}]},'
            b'"type":"scored_sequence"}\n'
            b"sha256:ddf119e9edce9e26579220fe591fcb0270c3e38475ccc177d147377f2c54a9bd\n",
        ),
    ]
    for key, value, old in earlier_releases:
        fresh = RunStore(tmp_path / "earlier")
        fresh._entry_path(key).parent.mkdir(parents=True, exist_ok=True)
        fresh._entry_path(key).write_bytes(old)
        found, data = fresh.get(key)
        assert found == value
        # the data is the row form as it was written
        entry_type = runstore.ENTRY_TYPES[key.kind].encode()
        assert old.split(b"\n")[1] == b'{"data":' + data + b',"type":"' + entry_type + b'"}'


def test_score_key_requires_answer_hash():
    with pytest.raises(ValueError):
        CacheKey("m", "score", "p", "q", None, "c1")


def flip_byte_10(blob):
    return blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:]


@pytest.mark.parametrize("corrupt, reason", [
    (flip_byte_10, "checksum mismatch"),
    (lambda blob: b"CM2" + blob[3:], "bad framing"),
    (lambda blob: blob.replace(b"\nsha256:", b"\nsha1:"), "bad framing"),
    (lambda blob: blob.replace(b"\n", b""), "bad framing"),
], ids=["flipped_byte", "version", "footer", "no_newline"])
def test_corrupt_entry_detected_and_quarantined(tmp_path, corrupt, reason):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    store.flush()
    path = store._entry_path(score_key())
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CorruptEntryError, match=f"failed verification \\({reason}\\)"):
        store.get(score_key())
    assert not path.exists()
    assert path.with_suffix(".corrupt").exists()
    # a fresh put repairs the slot
    store.put(score_key(), sample_scored())
    assert store.get(score_key()) == hit(sample_scored())


def test_corrupt_entry_already_quarantined_by_another_reader(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    store.flush()
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
    assert store.get(score_key()) == hit(sample_scored())


# --- the writer thread -------------------------------------------------------------


@pytest.fixture
def blocked_writer(monkeypatch):
    """Holds every entry write until the returned event is set; `seen`
    receives the number of pending entries at each held write."""
    RunStore.flush()  # entries queued by earlier tests go to disk first
    release = threading.Event()
    real_write = runstore._atomic_write
    seen: list[int] = []

    def held_write(path, data):
        seen.append(len(runstore._WRITER._queue))
        assert release.wait(timeout=30)
        real_write(path, data)

    monkeypatch.setattr(runstore, "_atomic_write", held_write)
    yield release, seen
    release.set()
    RunStore.flush()


def test_queued_entry_is_served_before_flush(tmp_path, blocked_writer):
    release, _ = blocked_writer
    store = RunStore(tmp_path)
    store.put(score_key(), sample_scored())
    path = store._entry_path(score_key())
    assert not path.exists()
    assert store.get(score_key()) == hit(sample_scored())
    assert RunStore(tmp_path).get(score_key()) == hit(sample_scored())
    release.set()
    store.flush()
    assert path.exists()
    assert runstore._WRITER.pending(path) is None  # memory holds only queued entries
    assert RunStore(tmp_path).get(score_key()) == hit(sample_scored())


def test_queued_entry_lands_under_the_directory_it_was_put_in(tmp_path, monkeypatch,
                                                            blocked_writer):
    release, _ = blocked_writer
    monkeypatch.chdir(tmp_path)
    store = RunStore("store")
    store.put(score_key(), sample_scored())
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert RunStore(tmp_path / "store").get(score_key()) == hit(sample_scored())
    release.set()
    store.flush()
    assert (tmp_path / "store" / "cache" / "m").is_dir()
    assert not (tmp_path / "elsewhere" / "store").exists()


def test_pending_entries_never_exceed_the_bound(tmp_path, blocked_writer):
    release, seen = blocked_writer
    store = RunStore(tmp_path)
    keys = [score_key(f" a{i}") for i in range(3 * runstore.PENDING_BOUND)]

    def produce():
        for key in keys:
            store.put(key, sample_scored())
            seen.append(len(runstore._WRITER._queue))

    producer = threading.Thread(target=produce)
    producer.start()
    deadline = time.monotonic() + 30
    while len(runstore._WRITER._queue) < runstore.PENDING_BOUND and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.1)
    assert producer.is_alive()  # waiting for room, not queueing more
    assert len(runstore._WRITER._queue) == runstore.PENDING_BOUND
    release.set()
    producer.join(timeout=30)
    store.flush()
    assert max(seen) == runstore.PENDING_BOUND
    assert all(store._entry_path(key).exists() for key in keys)


def test_entries_put_by_an_exiting_process_reach_disk(tmp_path):
    # no flush and no close: the interpreter's exit writes the queue
    code = (
        "import sys\n"
        "from crossmodel.runstore import CacheKey, RunStore\n"
        "store = RunStore(sys.argv[1])\n"
        "for i in range(200):\n"
        "    store.put(CacheKey.for_ptrue('m', 'Q', f'a{i}', 'c1'), i / 200)\n"
    )
    src = str(Path(crossmodel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True, timeout=60)
    store = RunStore(tmp_path)
    for i in range(200):
        key = CacheKey.for_ptrue("m", "Q", f"a{i}", "c1")
        assert store._entry_path(key).exists()
        assert store.get(key) == hit(i / 200)
    assert not list(tmp_path.rglob(".tmp-*"))


def test_failed_write_is_raised_by_flush_and_the_rest_are_written(tmp_path, monkeypatch):
    RunStore.flush()
    store = RunStore(tmp_path)
    keys = [score_key(f" a{i}") for i in range(3)]
    failing = store._entry_path(keys[1])
    real_write = runstore._atomic_write

    def full_disk(path, data):
        if path == failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        real_write(path, data)

    monkeypatch.setattr(runstore, "_atomic_write", full_disk)
    for key in keys:
        store.put(key, sample_scored())
    with pytest.raises(DataError, match=str(failing)):
        store.flush()
    assert store._entry_path(keys[0]).exists() and store._entry_path(keys[2]).exists()
    assert not failing.exists()
    assert store.get(keys[1]) is None  # a miss, recomputed by the caller
    store.flush()  # the failure was reported once


def test_failed_write_names_its_path_once(tmp_path):
    RunStore.flush()
    store = RunStore(tmp_path)
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "m").write_text("a file where the backend's directory goes")
    key = score_key()
    store.put(key, sample_scored())
    with pytest.raises(DataError) as info:
        store.flush()
    assert str(info.value).count(str(store._entry_path(key))) == 1


def framed(payload: bytes) -> bytes:
    checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
    return b"CM1\n" + payload + b"\nsha256:" + checksum + b"\n"


def kind_key(kind):
    return {"generate": CacheKey.for_generate("m", "Q", DecodeParams(max_new_tokens=4), "c1"),
            "score": score_key(), "ptrue": CacheKey.for_ptrue("m", "Q", "a", "c1")}[kind]


def generated_payload(token_scores: bytes) -> bytes:
    return (b'{"data":{"finish_reason":"stop","generator_token_scores":' + token_scores
            + b',"text":" B"},"type":"generated_answer"}')


ROW = b'[{"char_span":[3,5],"entropy":null,"logprob":-0.25,"token_text":" B"}]'
COLUMNS = b'{"char_span":[[3,5]],"entropy":[null],"logprob":[-0.25],"token_text":[" B"]}'
# A generated answer whose logprob is a string, in the row form of earlier releases.
BAD_LOGPROB = generated_payload(ROW.replace(b"-0.25", b'"bad"'))


def case(kind, payload, name=None):
    """A planted payload under a key of `kind`; named by its bytes by default."""
    return pytest.param(kind, payload, id=name or payload.decode())


@pytest.mark.parametrize("kind, payload", [
    case("score", b"[]"),
    case("generate", BAD_LOGPROB),
    case("generate", generated_payload(COLUMNS.replace(b"[-0.25]", b'["bad"]')),
         "string-logprob-column"),
    case("generate", generated_payload(COLUMNS.replace(b"[-0.25]", b"-0.25")),
         "logprob-column-no-array"),
    case("generate", generated_payload(COLUMNS.replace(b"[-0.25]", b"[-1" + b"0" * 400 + b"]")),
         "logprob-too-large-for-a-double"),
    case("generate", generated_payload(COLUMNS.replace(b'"logprob":[-0.25],', b"")),
         "no-logprob-column"),
    case("generate", generated_payload(COLUMNS.replace(b"[[3,5]]", b"[[3,5,7]]")),
         "three-element-span"),
    case("generate", generated_payload(ROW.replace(b'" B"}', b'5}')), "number-token-text-row"),
    case("generate", generated_payload(COLUMNS.replace(b'[" B"]', b"[5]")),
         "number-token-text-column"),
    # a payload that is not exactly {"data":...,"type":"<the key kind's type>"}
    case("score", generated_payload(COLUMNS), "generated-answer-under-a-score-key"),
    case("generate", generated_payload(COLUMNS).replace(b',"type"', b',"extra":1,"type"'),
         "extra-key"),
    case("ptrue", b'{"type":"probability","data":0.5}', "type-first"),
    case("ptrue", b'{"data":0.5,"type":"logit"}'),
    # a probability is a JSON number, not a string or a boolean
    case("ptrue", b'{"data":"0.5","type":"probability"}'),
    case("ptrue", b'{"data":true,"type":"probability"}'),
])
def test_checksum_valid_entry_that_fails_to_decode_is_quarantined(tmp_path, kind, payload):
    store = RunStore(tmp_path)
    key = kind_key(kind)
    path = store._entry_path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(framed(payload))
    with pytest.raises(CorruptEntryError):
        store.get(key)
    assert not path.exists()
    assert path.with_suffix(".corrupt").read_bytes() == framed(payload)


@pytest.mark.parametrize("token_scores", [ROW.replace(b'" B"}', b'5}'),
                                          COLUMNS.replace(b'[" B"]', b"[5]")],
                         ids=["rows", "columns"])
def test_entry_whose_token_text_is_no_string_is_quarantined_and_recomputed(
        tmp_path, capsys, token_scores):
    from crossmodel.pipeline import _cached

    store = RunStore(tmp_path)
    key = kind_key("generate")
    path = store._entry_path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(framed(generated_payload(token_scores)))
    assert _cached(store, key, sample_generated) == hit(sample_generated())
    assert "key 'token_text'[0]: expected a string, got a number" in capsys.readouterr().err
    assert path.with_suffix(".corrupt").exists()
    store.flush()
    assert RunStore(tmp_path).get(key) == hit(sample_generated())


def test_entry_with_infinite_entropy_is_quarantined_and_recomputed(tmp_path, capsys):
    from crossmodel.pipeline import _cached

    payload = (b'{"data":{"answer_text":" a b","answer_token_count":2,'
               b'"entropy_support":{"k":5,"kind":"top_k"},"prompt_text":"Q","scorer_id":"m",'
               b'"token_scores":[{"char_span":[1,3],"entropy":Infinity,"logprob":-0.5,'
               b'"token_text":" a"},{"char_span":[3,5],"entropy":null,"logprob":-1.5,'
               b'"token_text":" b"}]},"type":"scored_sequence"}')
    store = RunStore(tmp_path)
    path = store._entry_path(score_key())
    path.parent.mkdir(parents=True)
    path.write_bytes(framed(payload))
    assert _cached(store, score_key(), sample_scored) == hit(sample_scored())
    assert "quarantined" in capsys.readouterr().err
    assert path.with_suffix(".corrupt").read_bytes() == framed(payload)
    store.flush()
    assert RunStore(tmp_path).get(score_key()) == hit(sample_scored())


@pytest.mark.parametrize("literal", [b"NaN", b"-Infinity", b"1e999"])
def test_entry_with_a_non_finite_number_is_quarantined_and_recomputed(tmp_path, capsys,
                                                                     literal):
    from crossmodel.pipeline import _cached

    payload = b'{"data":' + literal + b',"type":"probability"}'
    store = RunStore(tmp_path)
    key = CacheKey.for_ptrue("m", "Q", "a", "c1")
    path = store._entry_path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(framed(payload))
    assert _cached(store, key, lambda: 0.25) == hit(0.25)
    assert "non-finite number" in capsys.readouterr().err
    assert path.with_suffix(".corrupt").read_bytes() == framed(payload)
    store.flush()
    assert RunStore(tmp_path).get(key) == hit(0.25)


def test_two_config_hashes_give_two_digests_for_each_kind():
    params = DecodeParams(max_new_tokens=4)
    for make in (lambda config_hash: CacheKey.for_generate("m", "Q", params, config_hash),
                 lambda config_hash: CacheKey.for_score("m", "Q", "a", config_hash),
                 lambda config_hash: CacheKey.for_ptrue("m", "Q", "a", config_hash)):
        assert make("c1").digest() != make("c2").digest()


def test_token_scores_encode_as_their_field_walk():
    # one column per field of TokenScore, each the field over the rows
    from crossmodel.serialize import generated_answer_to_dict, scored_sequence_to_dict

    def columns(scores):
        rows = map(TokenScore, scores.texts, scores.logprobs, scores.entropies, scores.spans)
        docs = [to_dict(ts) for ts in rows]
        return {name: [doc[name] for doc in docs] for name in docs[0]}

    scored = sample_scored()
    assert canonical_json(scored_sequence_to_dict(scored)["token_scores"]) == canonical_json(
        columns(scored.token_scores))
    generated = sample_generated()
    assert canonical_json(generated_answer_to_dict(generated)["generator_token_scores"]) == (
        canonical_json(columns(generated.generator_token_scores)))
