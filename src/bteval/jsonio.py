"""The one JSON reader: configs, matrix files, corpus lines, record logs and chat
replies are decoded as strict RFC 8259 JSON, and a JSON object is read into a
config dataclass field by field, each value checked against its field's type.
"""

import functools
import json
import reprlib
from dataclasses import MISSING, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from .segmentation import has_surrogate


class ConfigError(ValueError):
    """Invalid backend or run configuration."""


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


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


_JSON_TYPES = {str: "a string", int: "int", float: "a number"}


def _from_json(hint, value, what: str, key: str, nullable: bool = False):
    """value read as field key of type hint; a value of another JSON type is a ConfigError."""
    if hint is str and isinstance(value, str):  # most fields, tested first
        if has_surrogate(value):
            raise ConfigError(f"{what} {key!r} holds a lone surrogate, not UTF-8")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if hint is float and number:
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    args = get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _from_json(args[0], value, what, key, True)
    if is_dataclass(hint):
        return config_from_json(hint, value, key)
    if get_origin(hint) is tuple:
        if isinstance(value, list) and value:
            return tuple(_from_json(args[0], item, what, f"{key}[{i}]")
                         for i, item in enumerate(value))
        expected = f"a non-empty array of {'objects' if is_dataclass(args[0]) else 'numbers'}"
    else:
        expected = _JSON_TYPES[hint]
    # reprlib bounds the depth shown, where repr could pass the recursion limit
    raise ConfigError(f"{what} {key!r} must be {expected}{' or null' if nullable else ''}, "
                      f"got {reprlib.repr(value)}")
