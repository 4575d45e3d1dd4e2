"""The one JSON reader: configs, matrix files, corpus lines, record logs and chat
replies are decoded as strict RFC 8259 JSON, and a JSON object is read into a config
dataclass field by field, each value checked by the type rules of configs built in code.
Strings are strict text: one holding a lone surrogate, which UTF-8 cannot encode, is refused.
"""

import contextlib
import functools
import json
import re
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Invalid backend or run configuration."""


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_SURROGATE = re.compile("[\ud800-\udfff]")


def has_surrogate(text: str) -> bool:
    """Whether text holds a surrogate code point, which UTF-8 cannot encode."""
    return _SURROGATE.search(text) is not None


def loads(document: str | bytes):
    """One JSON document, str or bytes as ``json.loads`` takes it. NaN, the infinities
    and nesting past the recursion limit are ValueErrors, as malformed JSON is."""
    if isinstance(document, (bytes, bytearray)):
        document = document.decode(json.detect_encoding(document), "surrogatepass")
    try:
        return _DECODER.decode(document)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def config_from_json(cls, data, what: str):
    """The config dataclass cls read from parsed JSON, named what in errors.

    Each key must name a field, and each value have its field's JSON type;
    a nested config is read the same way. cls's own checks then run.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(data)}")
    hints, required = _schema(cls)
    unknown = data.keys() - hints
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigError(f"{what} requires {missing}")
    return cls(**{key: _from_json(hints[key], value, what, key) for key, value in data.items()})


@functools.cache
def _schema(cls) -> tuple[dict, list]:
    """cls's field types, and the fields without a default; once per class, as
    get_type_hints costs more than reading a corpus record."""
    return get_type_hints(cls), [f.name for f in fields(cls)
                                 if f.default is MISSING and f.default_factory is MISSING]


def check_fields(obj, error: type[Exception], what: str) -> None:
    """The config obj's fields checked by the reader's type rules; a wrong type raises error."""
    for key, hint in _schema(type(obj))[0].items():
        check_value(hint, getattr(obj, key), error, what, key)


def check_value(hint, value, error: type[Exception], what: str, key: str) -> None:
    """value checked, as built in code, by the reader's rules for a field key of type hint;
    a wrong type raises error."""
    try:
        _from_json(hint, value, what, key, read=False)
    except ConfigError as exc:
        raise error(str(exc)) from None


def _from_json(hint, value, what: str, key: str, read: bool = True, nullable: bool = False):
    """value read as field key of type hint; with read False, checked as built in code, so a
    tuple (or a list, for a list hint) for an array, a config for an object, and no 2.0 for an
    int. Else a ConfigError."""
    if hint is str and isinstance(value, str):  # most fields, tested first
        if has_surrogate(value):
            raise ConfigError(f"{what} {key!r} holds a lone surrogate, not UTF-8")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int and number and (isinstance(value, int) or read and value.is_integer()):
        return int(value)
    if hint is float and number:
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            return float(value)
    if type(value) is hint:  # a nested config, or TextSample.extra's dict, built in code
        return value
    args = get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _from_json(args[0], value, what, key, read, True)
    if read and is_dataclass(hint):
        return config_from_json(hint, value, key)
    sequence = get_origin(hint)
    if sequence in (tuple, list):
        if isinstance(value, list if read else sequence) and value:
            return sequence(_from_json(args[0], item, what, f"{key}[{i}]", read)
                            for i, item in enumerate(value))
        items = "objects" if is_dataclass(args[0]) else "strings" if args[0] is str else "numbers"
        expected = f"a non-empty {'array' if read else sequence.__name__} of {items}"
    else:
        expected = {str: "a string", int: "int", float: "a number"}.get(hint, f"a {hint.__name__}")
    # reprlib bounds the depth shown, where repr could pass the recursion limit
    raise ConfigError(f"{what} {key!r} must be {expected}{' or null' if nullable else ''}, "
                      f"got {reprlib.repr(value)}")
