"""The text files the CLI reads: 'key = value' simulation configs and
channel specs, and its own CSVs."""

from __future__ import annotations

from .errors import ParameterError


def read_text(path: str, newline: str | None = None) -> str:
    """A UTF-8 text file's contents, read with ``open``'s ``newline``; an
    unreadable file is a ParameterError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None


def read_key_values(path: str) -> dict[str, tuple[int, str]]:
    """The 'key = value' lines of a text file as key -> (line number, value);
    '#' starts a comment.  An unreadable file, a line without '=' and a
    repeated key are each a ParameterError."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in entries:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, val)
    return entries


def parse_value(path: str, key: str, lineno: int, parse, text: str):
    """``parse(text)``, with a ValueError reported at the key's line."""
    try:
        return parse(text)
    except ParameterError:
        raise
    except ValueError as exc:
        raise ParameterError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
