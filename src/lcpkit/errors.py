"""Exception types shared across the toolkit, the input decoding every
parser shares, and the check every config class runs on its values.

The CLI maps these onto exit codes through one table, ``cli._EXIT_CODES``.
"""

from __future__ import annotations

import numbers
from dataclasses import fields
from typing import IO


class LcpkitError(Exception):
    """Base class for toolkit errors."""


class DataError(LcpkitError):
    """Malformed or invalid input data (bad rows, out-of-range values, format mismatches)."""


class ResourceError(LcpkitError):
    """A required external resource (lexicon file, tagger, dataset) is missing or unusable."""


def decode_utf8(source: IO[bytes] | bytes, prefix: str) -> str:
    """The text of a byte string or binary stream. Bytes that are not UTF-8
    raise DataError reading ``"{prefix} not valid UTF-8: ..."``."""
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{prefix} not valid UTF-8: {exc}") from None


def check_config(config, **minimum: int) -> None:
    """Raise ValueError unless each ``bool`` field of the frozen dataclass
    ``config`` holds a bool and each ``int`` (or ``int | None``) field a
    ``numbers.Integral`` other than a bool, stored back as a plain int so
    that the model and schema files can write it; then unless each field
    that ``minimum`` names, in field order, is at least its minimum (or None,
    in an ``int | None`` field)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"config {f.name} must be true or false, got {value!r}")
        if f.type == "int" or (f.type == "int | None" and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"config {f.name} must be an integer, got {value!r}")
            object.__setattr__(config, f.name, int(value))
    for f in fields(config):
        value, least = getattr(config, f.name), minimum.get(f.name)
        if least is not None and value is not None and value < least:
            allowed = "None or >=" if f.type == "int | None" else ">="
            raise ValueError(f"{f.name} must be {allowed} {least}, got {value}")
