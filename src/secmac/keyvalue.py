"""The text the CLI reads: 'key = value' configs and channel specs, the
sidecars it reads back before it writes them, and its own CSVs."""

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


def key_values(text: str, source: str) -> dict[str, tuple[int, str]]:
    """The 'key = value' lines of ``text``, its line breaks read as a text
    file's, as key -> (line number, value); '#' starts a comment.  A line
    without '=' and a repeated key are each a ParameterError at ``source``."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{source}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in entries:
            raise ParameterError(f"{source}:{lineno}: duplicate key {key!r}")
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
