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
from operator import itemgetter, methodcaller
from typing import Any, Callable, TypeVar

from .backend.types import GeneratedAnswer, ScoredSequence, TokenScores

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
