"""Exception types shared across the toolkit, and the input decoding every
parser shares.

The CLI maps these onto exit codes through one table, ``cli._EXIT_CODES``.
"""

from __future__ import annotations

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
