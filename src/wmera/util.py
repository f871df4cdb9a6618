"""Small shared helpers: canonical JSON, SHA-256 hashing, and the one file
boundary, through which every input is read, every output directory made and
every whole output written."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ArgumentError, FormatError


def canonical_json(obj) -> str:
    """Stable JSON encoding used for fingerprints: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_int(v) -> bool:
    return type(v) is int  # JSON integers load as int, true/false as bool


def read_file(path, error, message: str | None = None, text: bool = False):
    """The bytes of ``path``, or with ``text`` its UTF-8 text.

    A path that is absent, not a regular file or unreadable raises ``error``
    with ``message``, or reads as None when ``error`` is None. Bytes that are
    not UTF-8 are a FormatError naming the first of them.
    """
    path = Path(path)
    try:
        if path.is_file():
            return path.read_text(encoding="utf-8") if text else path.read_bytes()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    except OSError:
        pass
    if error is None:
        return None
    raise error(message or f"{path}: not a readable file")


def read_json(path, error, message: str | None = None):
    """The JSON value in the text of ``path``; text that is not JSON is a
    FormatError."""
    text = read_file(path, error, message, text=True)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def make_dir(path) -> Path:
    """Directory ``path``, made with its parents when absent; one that cannot
    be made, as where a file is in the way, is an ArgumentError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ArgumentError(f"cannot create directory {path}: {exc.strerror}") from None
    return Path(path)


@contextmanager
def atomic_write(path, text: bool = False):
    """A stream onto ``<path>.partial`` that replaces ``path`` whole once the
    block ends; a block that raises leaves ``path`` as it was."""
    partial = f"{path}.partial"
    with open(partial, "w" if text else "wb", encoding="utf-8" if text else None) as f:
        yield f
    os.replace(partial, path)
