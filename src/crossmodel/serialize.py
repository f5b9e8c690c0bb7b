"""The JSON of every file and cache entry the program reads or writes, and
the encoding of every persisted record: cached backend values, answer and
signal files, eval reports and routing policies.

The JSON is strict (RFC 8259) both ways. The one decoder refuses `NaN`,
`Infinity` and `-Infinity` and a number that overflows a double, such as
`1e999`; the encoders refuse a non-finite float. Every file is written
through `replacing`: a temp file beside it, then a rename, so a reader
never sees a partial file.

`to_dict` walks a dataclass's own fields: nested records (alone, in a
sequence, or as dict values) are encoded in turn and every other value
is passed through uncopied; JSON writes tuples as arrays. `from_dict` is
its inverse, driven by the field types: it rebuilds nested records and
turns arrays back into tuples where the field is a tuple. Absent keys
take the field default (a required field raises KeyError) and unknown
keys are ignored. A value of a JSON type its field's annotation does not
take (`true` is no number), an item of a list, tuple or dict field that
its annotation does not take, or an int too large for a double where a float
is taken, raises TypeError naming the key.

`read_json` and `read_jsonl` read every input file. Each fault of a file (it
cannot be read, a byte is not UTF-8, the JSON is invalid or not an object, or
the decoder rejects a value) is one error of the caller's class naming it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import types
import typing
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn, TextIO, TypeVar

from .backend.types import GeneratedAnswer, ScoredSequence, TokenScores
from .errors import CrossModelError, DataError

R = TypeVar("R")
Convert = Callable[[Any], Any]


def _non_finite(literal: str) -> NoReturn:
    raise ValueError(f"non-finite number {literal} is not JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"non-finite number {text} overflows a double")
    return value


# Built once: `json.loads` or `json.dumps` with a keyword builds one per call.
decode_json: Callable[[str], Any] = json.JSONDecoder(
    parse_constant=_non_finite, parse_float=_finite_float).decode
_line = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
_document = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).encode
# Field-ordered UTF-8 JSON, for all hashing and for cache entry payloads.
canonical_json: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode
_TEMP_NUMBERS = itertools.count()


@contextlib.contextmanager
def replacing(path: str | Path, binary: bool = False, newline: str | None = None) -> Iterator[IO]:
    """A temp file beside `path`, open for writing, that replaces `path` by a
    rename when the block ends. If the block raises, the temp file is removed
    and `path` is left as it was. The temp file is opened like any file, so it
    takes its mode from the umask. An OSError in making the directory, or in
    opening, writing out or renaming the temp file, is a DataError naming
    `path`; what the block raises passes through as it is."""
    path = Path(path)
    tmp = path.with_name(f".tmp-{os.getpid()}-{next(_TEMP_NUMBERS)}-{path.name}")
    in_block = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline=newline)) as fh:
            in_block = True
            yield fh
            in_block = False
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and not in_block:
            raise DataError(f"{path}: cannot write ({exc.strerror or exc})") from exc
        raise


def _encoded(encode: Callable[[Any], str], doc: Any, path: str | Path) -> str:
    try:
        return encode(doc)
    except ValueError as exc:  # a non-finite float
        raise DataError(f"{path}: cannot write ({exc})") from exc


def write_json(path: str | Path, doc: Any) -> None:
    """Replace `path` with `doc` as an indented JSON document with sorted keys."""
    text = _encoded(_document, doc, path)
    with replacing(path) as fh:
        fh.write(text + "\n")


def write_jsonl(path: str | Path, docs: Iterable[Any]) -> None:
    """Replace `path` with one sorted-key JSON line per doc, streamed."""
    with replacing(path) as fh:
        for doc in docs:
            fh.write(_encoded(_line, doc, path) + "\n")


# A sequence's token scores are four columns both in memory and in JSON:
# `{"char_span": [[s, e], ...], "entropy": [...], "logprob": [...],
# "token_text": [...]}`. Earlier releases wrote one object per token, a
# row form that is still read. Each column is checked once as a whole: it
# is an array whose items are of its JSON kinds, and `TokenScores` applies
# the rules of `TokenScore` to it.
_TOKEN_COLUMNS = {"char_span": (list, tuple), "entropy": (int, float, type(None)),
                  "logprob": (int, float), "token_text": (str,)}


def _token_scores_to_json(scores: TokenScores) -> dict[str, tuple[Any, ...]]:
    return {"char_span": scores.spans, "entropy": scores.entropies,
            "logprob": scores.logprobs, "token_text": scores.texts}


def _rows_as_columns(rows: list[Any]) -> dict[str, list[Any]]:
    """The columns of the row form, one object per token; an absent entropy
    is null."""
    for row in rows:
        _object(row)
    return {"char_span": list(map(itemgetter("char_span"), rows)),
            "entropy": list(map(methodcaller("get", "entropy"), rows)),
            "logprob": list(map(itemgetter("logprob"), rows)),
            "token_text": list(map(itemgetter("token_text"), rows))}


def _column(raw: dict[str, Any], name: str) -> list[Any] | tuple[Any, ...]:
    column, kinds = raw[name], _TOKEN_COLUMNS[name]
    if type(column) not in (list, tuple):
        raise TypeError(f"key {name!r}: expected an array, got {_kind(column)}")
    if not set(map(type, column)).issubset(kinds):
        at = next(i for i, item in enumerate(column) if type(item) not in kinds)
        raise TypeError(f"key {name!r}[{at}]: expected {_expected(kinds)}, "
                        f"got {_kind(column[at])}")
    return column


def _token_scores_from_json(raw: dict[str, Any] | list[Any]) -> TokenScores:
    columns = raw if type(raw) is dict else _rows_as_columns(raw)
    return TokenScores(
        _column(columns, "token_text"),
        _column(columns, "logprob"),
        _column(columns, "entropy"),
        map(tuple, _column(columns, "char_span")),
    )


# What a JSON value of each Python type is called in a message; a tuple is an
# array that `to_dict` passed through.
_JSON_KINDS = {dict: "a JSON object", list: "an array", tuple: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean", type(None): "null"}


def _json_types(hint: Any) -> tuple[tuple[type, ...], Any]:
    """(the types of the JSON values a field annotated `hint` takes, in the
    order it names them, and the check of its items). A float field also
    takes an int. The items are unchecked (None), all checked by one such
    pair (the items of a list or tuple, the values of a dict), or checked
    by position against a list of pairs (a fixed-length tuple)."""
    origin, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        arms = list(map(_json_types, args))
        items = [arm_items for _, arm_items in arms if arm_items is not None]
        return (tuple(dict.fromkeys(kind for kinds, _ in arms for kind in kinds)),
                items[0] if len(items) == 1 else None)
    if hint is Any:
        return tuple(_JSON_KINDS), None
    if hint is TokenScores:  # columns, or the rows of earlier releases
        return (dict, list, tuple), None
    if dataclasses.is_dataclass(hint):
        return (dict,), None
    if origin is dict:
        return (dict,), _items(args[1:])
    if origin is tuple and args and args[-1] is not Ellipsis:
        return (list, tuple), list(map(_json_types, args))
    if origin in (list, tuple):
        return (list, tuple), _items(args[:1])
    return ((int, float) if hint is float else (hint,)), None


def _items(args: tuple[Any, ...]) -> tuple[tuple[type, ...], Any] | None:
    return _json_types(args[0]) if args and args[0] is not Any else None


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
    if origin is dict and len(args) == 2 and dataclasses.is_dataclass(args[1]):
        load = functools.partial(from_dict, args[1])
        return ((lambda v: {key: to_dict(item) for key, item in v.items()}),
                (lambda v: {key: load(item) for key, item in _object(v).items()}))
    return None, (tuple if origin is tuple else None)


@functools.cache
def _plan(cls: type) -> tuple[tuple[Any, ...], ...]:
    """(name, encode, decode, required, plain types, JSON types) per field, once
    per class. A value of a plain type needs no further check; a field whose
    items are checked has none, so that its every value is checked in full,
    and an int is not plain where a float is taken: a double must hold it."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        kinds, items = schema = _json_types(hints[f.name])
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plain = () if items is not None else tuple(
            kind for kind in kinds if kind is not int or float not in kinds)
        plan.append((f.name, *_converters(hints[f.name]), required, plain, schema))
    return tuple(plan)


def to_dict(record: Any) -> dict[str, Any]:
    doc = {}
    for name, encode, _, _, _, _ in _plan(type(record)):
        value = getattr(record, name)
        doc[name] = value if encode is None or value is None else encode(value)
    return doc


def _kind(value: Any) -> str:
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _expected(kinds: tuple[type, ...]) -> str:
    names = {**_JSON_KINDS, int: "a number" if float in kinds else "an integer"}
    return " or ".join(dict.fromkeys(names[kind] for kind in kinds))


def _object(raw: Any) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise TypeError(f"expected a JSON object, got {_kind(raw)}")
    return raw


def _check(value: Any, schema: tuple[tuple[type, ...], Any], where: str) -> None:
    """TypeError naming `where` (and the item) unless `value` and its items
    are of the JSON types of `schema`, a pair from `_json_types`."""
    kinds, items = schema
    if type(value) not in kinds:
        raise TypeError(f"{where}: expected {_expected(kinds)}, got {_kind(value)}")
    if type(value) is int and float in kinds:
        try:
            float(value)
        except OverflowError as exc:
            raise TypeError(f"{where}: expected a number, got an integer too large "
                            "for a double") from exc
    if items is None or value is None:
        return
    if isinstance(items, list):  # a fixed-length tuple
        if len(value) != len(items):
            raise TypeError(f"{where}: expected {len(items)} items, got {len(value)}")
        for i, (item, item_schema) in enumerate(zip(value, items)):
            _check(item, item_schema, f"{where}[{i}]")
    else:
        for key, item in value.items() if type(value) is dict else enumerate(value):
            _check(item, items, f"{where}[{key!r}]")


def from_dict(cls: type[R], raw: dict[str, Any]) -> R:
    _object(raw)
    kwargs = {}
    for name, _, decode, required, plain, schema in _plan(cls):
        if name in raw:
            value = raw[name]
            if type(value) not in plain:
                _check(value, schema, f"key {name!r}")
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
        return decode(_object(decode_json(text)))
    except (*_FAULTS, error) as exc:
        raise error(f"{path}: {_reason(exc)}") from exc


def read_jsonl(path: str | Path, decode: Callable[[dict[str, Any]], R],
               error: type[CrossModelError] = DataError) -> list[R]:
    """decode applied to the JSON object on every non-blank line, streamed;
    a fault is one `error` naming `path:line`."""
    records = []
    with _text(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = decode_json(line)
                records.append(decode(doc if type(doc) is dict else _object(doc)))
            except (*_FAULTS, error) as exc:
                raise error(f"{path}:{lineno}: {_reason(exc)}") from exc
    return records
