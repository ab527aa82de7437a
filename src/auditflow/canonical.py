"""Canonical serialization and content hashing for audit documents.

The canonical form is compact JSON with recursively sorted keys, UTF-8
encoded. Hashing always runs over canonical bytes, so logically equal
documents hash identically regardless of key order or whitespace in the
source file.
"""

from __future__ import annotations

import hashlib
import json


# One encoder for every call: ``json.dumps`` with these arguments builds a new
# one each time, and gives the same text.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def canonical_bytes(value) -> bytes:
    """Serialize a JSON-compatible value to its canonical byte form."""
    return _ENCODER.encode(value).encode("utf-8")


def hash_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def content_hash(value) -> str:
    """SHA-256 hex digest of a value's canonical serialization."""
    return hash_bytes(canonical_bytes(value))
