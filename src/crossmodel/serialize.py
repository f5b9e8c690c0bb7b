"""JSON encoding of every persisted record: cached backend values, answer
and signal files, eval reports, run manifests and routing policies.

`to_dict` walks a dataclass's own fields: nested records (alone, in a
sequence, or as dict values) are encoded in turn and every other value
is passed through uncopied; JSON writes tuples as arrays. `from_dict` is
its inverse, driven by the field types: it rebuilds nested records and
turns arrays back into tuples where the field is a tuple. Absent keys
take the field default (a required field raises KeyError) and unknown
keys are ignored.

`read_json` and `read_jsonl` read every input file. Each fault of a file (it
cannot be read, a byte is not UTF-8, the JSON is invalid or not an object, or
the decoder rejects a value) is one error of the caller's class naming it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import re
import types
import typing
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO, TypeVar

from .backend.types import GeneratedAnswer, ScoredSequence, TokenScores
from .errors import CrossModelError, DataError

R = TypeVar("R")
Convert = Callable[[Any], Any]


# A sequence's token scores are columns in memory and one object per token
# in JSON; the columns' own checks run once each when they are decoded.


def _token_scores_to_json(scores: TokenScores) -> list[dict[str, Any]]:
    return [
        {"token_text": text, "logprob": logprob, "entropy": entropy, "char_span": span}
        for text, logprob, entropy, span in zip(
            scores.texts, scores.logprobs, scores.entropies, scores.spans)
    ]


def _token_scores_from_json(raw: list[dict[str, Any]]) -> TokenScores:
    return TokenScores(
        map(itemgetter("token_text"), raw),
        map(itemgetter("logprob"), raw),
        map(methodcaller("get", "entropy"), raw),
        map(tuple, map(itemgetter("char_span"), raw)),
    )


def _converters(hint: Any) -> tuple[Convert | None, Convert | None]:
    """(encode, decode) of a non-null value of one field type; None
    passes the value through."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        non_null = [a for a in args if a is not type(None)]
        return _converters(non_null[0]) if len(non_null) == 1 else (None, None)
    if hint is TokenScores:
        return _token_scores_to_json, _token_scores_from_json
    if dataclasses.is_dataclass(hint):
        return to_dict, functools.partial(from_dict, hint)
    if origin is tuple and args and dataclasses.is_dataclass(args[0]):
        load = functools.partial(from_dict, args[0])
        return (lambda v: list(map(to_dict, v))), (lambda v: tuple(map(load, v)))
    if origin is dict and len(args) == 2 and dataclasses.is_dataclass(args[1]):
        load = functools.partial(from_dict, args[1])
        return ((lambda v: {key: to_dict(item) for key, item in v.items()}),
                (lambda v: {key: load(item) for key, item in _object(v).items()}))
    return None, (tuple if origin is tuple else None)


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, Convert | None, Convert | None, bool], ...]:
    """(name, encode, decode, required) per field, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            *_converters(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def to_dict(record: Any) -> dict[str, Any]:
    doc = {}
    for name, encode, _, _ in _plan(type(record)):
        value = getattr(record, name)
        doc[name] = value if encode is None or value is None else encode(value)
    return doc


_JSON_KINDS = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _object(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise TypeError(f"expected a JSON object, got {_JSON_KINDS.get(type(raw), type(raw))}")
    return raw


def from_dict(cls: type[R], raw: dict[str, Any]) -> R:
    _object(raw)
    kwargs = {}
    for name, _, decode, required in _plan(cls):
        if name in raw:
            value = raw[name]
            kwargs[name] = value if decode is None or value is None else decode(value)
        elif required:
            raise KeyError(name)
    return cls(**kwargs)


class Record:
    """Base for dataclasses persisted as JSON through `to_dict`/`from_dict`."""

    def to_dict(self) -> dict[str, Any]:
        return to_dict(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]):
        return from_dict(cls, raw)


# The cached backend values keep one named function per direction and type.


def generated_answer_to_dict(ga: GeneratedAnswer) -> dict[str, Any]:
    return to_dict(ga)


def generated_answer_from_dict(raw: dict[str, Any]) -> GeneratedAnswer:
    return from_dict(GeneratedAnswer, raw)


def scored_sequence_to_dict(ss: ScoredSequence) -> dict[str, Any]:
    return to_dict(ss)


def scored_sequence_from_dict(raw: dict[str, Any]) -> ScoredSequence:
    return from_dict(ScoredSequence, raw)


# --- reading input files ------------------------------------------------------------

# A value that a decoder rejects (JSONDecodeError is a ValueError); RecursionError
# is JSON nested too deep to parse.
_FAULTS = (KeyError, TypeError, ValueError, ArithmeticError, RecursionError)
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _reason(exc: BaseException) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc})"
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


@contextlib.contextmanager
def _text(path: str | Path, error: type[CrossModelError]) -> Iterator[TextIO]:
    """`path` open as UTF-8 text; a failure to read it, or a byte that is not
    UTF-8, is one `error` naming the file (and the byte's line, read again)."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            lineno = next(n for n, line in enumerate(fh, 1) if _ESCAPED_BYTE.search(line))
        raise error(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from exc


def read_json(path: str | Path, decode: Callable[[dict[str, Any]], R],
              error: type[CrossModelError] = DataError) -> R:
    """decode applied to the JSON object in `path`; a fault is one `error`."""
    with _text(path, error) as fh:
        text = fh.read()
    try:
        return decode(_object(json.loads(text)))
    except (*_FAULTS, error) as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_jsonl(path: str | Path, decode: Callable[[dict[str, Any]], R],
               error: type[CrossModelError] = DataError,
               skipped: list[tuple[int, str]] | None = None) -> list[R]:
    """decode applied to the JSON object on every non-blank line, streamed;
    a fault is one `error`, but with `skipped` a line whose JSON or decoding
    fails is left out and listed there as (line number, reason)."""
    records = []
    with _text(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                records.append(decode(doc if type(doc) is dict else _object(doc)))
            except (*_FAULTS, error) as exc:
                if skipped is None:
                    raise error(f"{path}:{lineno}: {_reason(exc)}") from exc
                skipped.append((lineno, _reason(exc)))
    return records
