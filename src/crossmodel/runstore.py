"""Content-addressed persistence of backend results.

Layout under the store root, which holds nothing else:

    cache/<backend_id>/<key-digest>.entry    one cached value per file

Entry files are self-describing: a version line, the JSON payload, and a
sha256 checksum footer over the payload bytes. Writes go through
`serialize.replacing`, a temporary file and an atomic rename, so concurrent
identical puts are idempotent and readers never observe partial entries.

Cache entries are written behind the backend calls: `RunStore.put` frames
the entry on the calling thread and hands the bytes to one writer thread
per process, started by the first put. Until it is on disk, a queued entry
is served from memory by every RunStore of the process. `RunStore.flush`
(and interpreter exit) waits for the queue to drain; a process killed
before then loses queued entries but never leaves a partial one.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .backend.types import GeneratedAnswer, ScoredSequence
from .errors import CorruptEntryError, DataError
from .serialize import (
    canonical_json,
    decode_json,
    generated_answer_from_dict,
    generated_answer_to_dict,
    replacing,
    scored_sequence_from_dict,
    scored_sequence_to_dict,
)

ENTRY_VERSION = b"CM1"
# The type of the value cached under each key kind. An entry's payload is
# exactly `{"data":<the value's canonical JSON>,"type":"<its type>"}`, so
# the value's JSON is a slice of the entry's bytes.
ENTRY_TYPES = {"generate": "generated_answer", "score": "scored_sequence",
               "ptrue": "probability"}
KINDS = tuple(ENTRY_TYPES)
# Entries queued for the writer thread at most; a put beyond it waits.
PENDING_BOUND = 32


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class CacheKey:
    backend_id: str
    kind: str
    prompt_hash: str
    params_hash: str
    answer_hash: str | None
    config_hash: str  # digest of the backend's config

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("score", "ptrue") and self.answer_hash is None:
            raise ValueError(f"{self.kind} keys require an answer_hash")

    @classmethod
    def for_generate(cls, backend_id: str, prompt: str, params: Any,
                     config_hash: str) -> "CacheKey":
        # greedy with no stop sequence: these constants keep every stored key's digest
        params_doc = {"max_new_tokens": params.max_new_tokens, "stop_sequences": [],
                      "temperature": 0.0}
        return cls(backend_id, "generate", digest_text(prompt),
                   digest_text(canonical_json(params_doc)), None, config_hash)

    @classmethod
    def for_score(cls, backend_id: str, prompt: str, answer: str,
                  config_hash: str) -> "CacheKey":
        return cls(backend_id, "score", digest_text(prompt), digest_text("{}"),
                   digest_text(answer), config_hash)

    @classmethod
    def for_ptrue(cls, backend_id: str, prompt: str, answer: str,
                  config_hash: str) -> "CacheKey":
        return cls(backend_id, "ptrue", digest_text(prompt), digest_text("{}"),
                   digest_text(answer), config_hash)

    def digest(self) -> str:
        doc = {
            "backend_id": self.backend_id,
            "kind": self.kind,
            "prompt_hash": self.prompt_hash,
            "answer_hash": self.answer_hash,
            "params_hash": self.params_hash,
            "config_hash": self.config_hash,
        }
        return digest_text(canonical_json(doc))


_DATA_START = b'{"data":'


def _entry_end(kind: str) -> bytes:
    return b',"type":"' + ENTRY_TYPES[kind].encode("ascii") + b'"}'


def _encode_value(kind: str, value: Any) -> Any:
    if kind == "generate" and isinstance(value, GeneratedAnswer):
        return generated_answer_to_dict(value)
    if kind == "score" and isinstance(value, ScoredSequence):
        return scored_sequence_to_dict(value)
    if kind == "ptrue" and isinstance(value, float):
        return value
    raise TypeError(f"unsupported cache value type {type(value).__name__} for a {kind} key")


def _decode_value(kind: str, doc: Any) -> Any:
    if kind == "generate":
        return generated_answer_from_dict(doc)
    if kind == "score":
        return scored_sequence_from_dict(doc)
    if type(doc) not in (int, float):  # a bool is no probability
        raise TypeError(f"probability must be a number, got {type(doc).__name__}")
    return float(doc)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write one cache entry; a test stands in for the disk here."""
    with replacing(path, binary=True) as fh:
        fh.write(data)


class _EntryWriter:
    """The process's one writer thread: writes queued entries in order.

    `_queue` holds (path, bytes) in put order; its head stays queued while
    it is being written, so its length is the number of pending entries.
    `_pending` maps each queued path to the bytes of its latest put, for
    reads of an entry that is not on disk yet.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: deque[tuple[Path, bytes]] = deque()
        self._pending: dict[Path, bytes] = {}
        self._failures: list[DataError] = []
        self._thread: threading.Thread | None = None

    def submit(self, path: Path, data: bytes) -> None:
        with self._cond:
            while len(self._queue) >= PENDING_BOUND:
                self._cond.wait()
            self._queue.append((path, data))
            self._pending[path] = data
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="crossmodel-entry-writer", daemon=True)
                self._thread.start()
                atexit.register(self._flush_at_exit)
            self._cond.notify_all()

    def pending(self, path: Path) -> bytes | None:
        with self._cond:
            return self._pending.get(path)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    self._cond.wait()
                path, data = self._queue[0]
            failure = None
            try:
                _atomic_write(path, data)
            except Exception as exc:  # reported by flush; the writer goes on
                failure = exc if isinstance(exc, DataError) else DataError(
                    f"cannot write cache entry {path}: {exc}")
            with self._cond:
                self._queue.popleft()
                if self._pending[path] is data:  # no later put of this path is queued
                    del self._pending[path]
                if failure is not None:
                    self._failures.append(failure)
                self._cond.notify_all()

    def flush(self) -> None:
        with self._cond:
            while self._queue:
                self._cond.wait()
            failures, self._failures = self._failures, []
        if failures:
            raise failures[0]

    def _flush_at_exit(self) -> None:
        try:
            self.flush()
        except DataError as exc:
            print(f"data error: {exc}", file=sys.stderr)


_WRITER = _EntryWriter()
# A forked child starts with an empty queue and no writer thread of its own.
os.register_at_fork(after_in_child=_WRITER.__init__)


class RunStore:
    """Filesystem-backed cache of backend results."""

    def __init__(self, root: str | Path):
        # Absolute, so an entry written later by the writer thread lands
        # where it was put even if the working directory has changed.
        self.root = Path(root).absolute()

    def _entry_path(self, key: CacheKey) -> Path:
        return self.root / "cache" / key.backend_id / f"{key.digest()}.entry"

    def put(self, key: CacheKey, value: Any) -> bytes:
        """Queue the entry for the writer thread and return the value's
        canonical JSON, the data of the entry; a value that cannot be
        encoded, or is not of the key's kind, raises here."""
        data = canonical_json(_encode_value(key.kind, value)).encode("utf-8")
        payload = _DATA_START + data + _entry_end(key.kind)
        checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
        _WRITER.submit(
            self._entry_path(key),
            ENTRY_VERSION + b"\n" + payload + b"\nsha256:" + checksum + b"\n",
        )
        return data

    @staticmethod
    def flush() -> None:
        """Wait until every queued entry of the process is on disk. The
        first write that failed since the last flush raises a DataError
        naming its path; the entries queued after it are still written."""
        _WRITER.flush()

    def get(self, key: CacheKey) -> tuple[Any, bytes] | None:
        """(cached value, its entry's data: the value's canonical JSON), or
        None on a miss (a miss is not an error). An entry that fails
        verification or decoding, or whose payload is not exactly
        `{"data":...,"type":"<the key kind's type>"}`, is quarantined and
        raises CorruptEntryError."""
        path = self._entry_path(key)
        blob = _WRITER.pending(path)
        if blob is None:
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                return None
        try:
            framing = blob.split(b"\n", 2)
            if (len(framing) != 3 or framing[0] != ENTRY_VERSION
                    or not framing[2].startswith(b"sha256:")):
                raise ValueError("bad framing")
            _, payload, footer = framing
            expected = footer[len(b"sha256:"):].strip().decode("ascii")
            if hashlib.sha256(payload).hexdigest() != expected:
                raise ValueError("checksum mismatch")
            end = _entry_end(key.kind)
            if not (payload.startswith(_DATA_START) and payload.endswith(end)):
                raise ValueError(f"payload is not one {ENTRY_TYPES[key.kind]} entry")
            data = payload[len(_DATA_START):-len(end)]
            # The data decodes as one JSON value, or the payload held more.
            return _decode_value(key.kind, decode_json(data.decode("utf-8"))), data
        except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError) as exc:
            quarantined = path.with_suffix(".corrupt")
            # A concurrent reader of the same entry may have moved it first.
            with contextlib.suppress(FileNotFoundError):
                path.replace(quarantined)
            raise CorruptEntryError(
                f"cache entry {path.name} failed verification ({exc}); "
                f"quarantined as {quarantined.name}"
            ) from exc
