"""Exception types shared across the pipeline, mapped to CLI exit codes."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO


class PatchscaleError(Exception):
    """Base class for all library errors."""


class DataError(PatchscaleError):
    """Malformed or unusable input data (CLI exit code 2)."""


class NumericalError(PatchscaleError):
    """Degenerate data or a failed estimator (CLI exit code 3)."""


def utf8_lines(path: str | Path, handle: TextIO) -> Iterator[str]:
    """The lines of a UTF-8 text handle; bytes that do not decode raise DataError."""
    try:
        yield from handle
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _utf8_error(path: str | Path) -> DataError:
    """The error naming the first line of the file at path that is not valid UTF-8."""
    with open(path, "rb") as raw:
        for line_no, line in enumerate(raw, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(
                    f"{path}: line {line_no}: not valid UTF-8 (byte {line[exc.start]:#04x} "
                    f"at column {exc.start + 1})"
                )
    return DataError(f"{path}: not valid UTF-8")
