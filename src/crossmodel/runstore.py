"""Content-addressed persistence of backend results plus run manifests.

Layout under the store root:

    cache/<backend_id>/<key-digest>.entry    one cached value per file
    runs/<run_id>.json                       append-only run manifests

Entry files are self-describing: a version line, the JSON payload, and a
sha256 checksum footer over the payload bytes. Writes go through a
temporary file and an atomic rename, so concurrent identical puts are
idempotent and readers never observe partial entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .backend.types import GeneratedAnswer, ScoredSequence
from .errors import CorruptEntryError, DataError, DuplicateRunError
from .serialize import (
    Record,
    generated_answer_from_dict,
    generated_answer_to_dict,
    scored_sequence_from_dict,
    scored_sequence_to_dict,
)

ENTRY_VERSION = b"CM1"
KINDS = ("generate", "score", "ptrue")


def canonical_json(obj: Any) -> str:
    """Field-ordered, UTF-8 JSON used for all hashing."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


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
    answer_hash: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("score", "ptrue") and self.answer_hash is None:
            raise ValueError(f"{self.kind} keys require an answer_hash")

    @classmethod
    def for_generate(cls, backend_id: str, prompt: str, params: Any) -> "CacheKey":
        params_doc = {
            "max_new_tokens": params.max_new_tokens,
            "stop_sequences": list(params.stop_sequences),
            "temperature": params.temperature,
        }
        return cls(backend_id, "generate", digest_text(prompt), digest_text(canonical_json(params_doc)))

    @classmethod
    def for_score(cls, backend_id: str, prompt: str, answer: str) -> "CacheKey":
        return cls(backend_id, "score", digest_text(prompt), digest_text("{}"), digest_text(answer))

    @classmethod
    def for_ptrue(cls, backend_id: str, prompt: str, answer: str) -> "CacheKey":
        return cls(backend_id, "ptrue", digest_text(prompt), digest_text("{}"), digest_text(answer))

    def digest(self) -> str:
        doc = {
            "backend_id": self.backend_id,
            "kind": self.kind,
            "prompt_hash": self.prompt_hash,
            "answer_hash": self.answer_hash,
            "params_hash": self.params_hash,
        }
        return digest_text(canonical_json(doc))


def _encode_value(value: Any) -> dict[str, Any]:
    if isinstance(value, GeneratedAnswer):
        return {"type": "generated_answer", "data": generated_answer_to_dict(value)}
    if isinstance(value, ScoredSequence):
        return {"type": "scored_sequence", "data": scored_sequence_to_dict(value)}
    if isinstance(value, float):
        return {"type": "probability", "data": value}
    raise TypeError(f"unsupported cache value type {type(value).__name__}")


def _decode_value(doc: dict[str, Any]) -> Any:
    kind = doc.get("type")
    if kind == "generated_answer":
        return generated_answer_from_dict(doc["data"])
    if kind == "scored_sequence":
        return scored_sequence_from_dict(doc["data"])
    if kind == "probability":
        return float(doc["data"])
    raise CorruptEntryError(f"unknown entry type {kind!r}")


@dataclass(frozen=True)
class RunManifest(Record):
    run_id: str
    dataset_digest: str
    backends_digest: str
    preset: str
    seed: int
    created_at: str
    signals: tuple[str, ...]
    tool_version: str
    extra: dict[str, Any] = field(default_factory=dict)


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RunStore:
    """Filesystem-backed cache and manifest registry."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # --- cache -----------------------------------------------------------

    def _entry_path(self, key: CacheKey) -> Path:
        return self.root / "cache" / key.backend_id / f"{key.digest()}.entry"

    def put(self, key: CacheKey, value: Any) -> None:
        payload = canonical_json(_encode_value(value)).encode("utf-8")
        checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
        _atomic_write(
            self._entry_path(key),
            ENTRY_VERSION + b"\n" + payload + b"\nsha256:" + checksum + b"\n",
        )

    def get(self, key: CacheKey) -> Any | None:
        """Cached value, or None on a miss (a miss is not an error)."""
        path = self._entry_path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            version, payload, footer = blob.split(b"\n", 2)
            if version != ENTRY_VERSION or not footer.startswith(b"sha256:"):
                raise ValueError("bad framing")
            expected = footer[len(b"sha256:"):].strip().decode("ascii")
            if hashlib.sha256(payload).hexdigest() != expected:
                raise ValueError("checksum mismatch")
            return _decode_value(json.loads(payload.decode("utf-8")))
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            quarantined = path.with_suffix(".corrupt")
            # A concurrent reader of the same entry may have moved it first.
            with contextlib.suppress(FileNotFoundError):
                os.replace(path, quarantined)
            raise CorruptEntryError(
                f"cache entry {path.name} failed verification ({exc}); "
                f"quarantined as {quarantined.name}"
            ) from exc

    # --- manifests -------------------------------------------------------

    def _manifest_path(self, run_id: str) -> Path:
        return self.root / "runs" / f"{run_id}.json"

    def has_run(self, run_id: str) -> bool:
        return self._manifest_path(run_id).exists()

    def write_manifest(self, manifest: RunManifest) -> None:
        """Record a run. Re-writing identical content is a no-op; a
        conflicting manifest under the same run_id is an error."""
        path = self._manifest_path(manifest.run_id)
        data = (json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n").encode("utf-8")
        if path.exists():
            if path.read_bytes() == data:
                return
            raise DuplicateRunError(f"run {manifest.run_id!r} already recorded with different content")
        _atomic_write(path, data)

    def list_runs(self) -> list[RunManifest]:
        runs_dir = self.root / "runs"
        if not runs_dir.is_dir():
            return []
        manifests = []
        for path in sorted(runs_dir.glob("*.json")):
            try:
                manifests.append(RunManifest.from_dict(json.loads(path.read_text(encoding="utf-8"))))
            except (json.JSONDecodeError, KeyError) as exc:
                raise DataError(f"unreadable manifest {path.name}: {exc}") from exc
        return sorted(manifests, key=lambda m: (m.created_at, m.run_id))
