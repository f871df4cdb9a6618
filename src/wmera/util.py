"""Small shared helpers: canonical JSON and SHA-256 hashing."""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj) -> str:
    """Stable JSON encoding used for fingerprints: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

