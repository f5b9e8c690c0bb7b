"""JSON encoding of every persisted record: cached backend values, answer
and signal files, eval reports, run manifests and routing policies.

`to_dict` walks a dataclass's own fields: nested records (alone, in a
sequence, or as dict values) are encoded in turn and every other value
is passed through uncopied; JSON writes tuples as arrays. `from_dict` is
its inverse, driven by the field types: it rebuilds nested records and
turns arrays back into tuples where the field is a tuple. Absent keys
take the field default (a required field raises KeyError) and unknown
keys are ignored.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Callable, TypeVar

from .backend.types import GeneratedAnswer, ScoredSequence, TokenScore

R = TypeVar("R")
Convert = Callable[[Any], Any]


# The per-token path of every cached sequence, in both directions: one
# direct dict or constructor call instead of a walk over the field plan.


def _token_score_dict(ts: TokenScore) -> dict[str, Any]:
    return {"token_text": ts.token_text, "logprob": ts.logprob, "entropy": ts.entropy,
            "char_span": ts.char_span}


def _token_score(raw: dict[str, Any]) -> TokenScore:
    return TokenScore(raw["token_text"], raw["logprob"], raw.get("entropy"),
                      tuple(raw["char_span"]))


def _dumper(cls: type) -> Convert:
    return _token_score_dict if cls is TokenScore else to_dict


def _loader(cls: type) -> Convert:
    return _token_score if cls is TokenScore else functools.partial(from_dict, cls)


def _converters(hint: Any) -> tuple[Convert | None, Convert | None]:
    """(encode, decode) of a non-null value of one field type; None
    passes the value through."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        non_null = [a for a in args if a is not type(None)]
        return _converters(non_null[0]) if len(non_null) == 1 else (None, None)
    if dataclasses.is_dataclass(hint):
        return _dumper(hint), _loader(hint)
    if origin is tuple and args and dataclasses.is_dataclass(args[0]):
        dump, load = _dumper(args[0]), _loader(args[0])
        return (lambda v: list(map(dump, v))), (lambda v: tuple(map(load, v)))
    if origin is dict and len(args) == 2 and dataclasses.is_dataclass(args[1]):
        dump, load = _dumper(args[1]), _loader(args[1])
        return ((lambda v: {key: dump(item) for key, item in v.items()}),
                (lambda v: {key: load(item) for key, item in v.items()}))
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


def from_dict(cls: type[R], raw: dict[str, Any]) -> R:
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
