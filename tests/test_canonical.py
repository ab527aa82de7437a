from __future__ import annotations

import random

from auditflow.canonical import canonical_bytes, content_hash, hash_bytes

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_body_hashes_like_empty_string():
    assert hash_bytes(b"") == SHA256_EMPTY


def test_key_order_does_not_change_digest():
    a = {"b": 1, "a": {"y": [1, 2], "x": "t"}}
    b = {"a": {"x": "t", "y": [1, 2]}, "b": 1}
    assert content_hash(a) == content_hash(b)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_whitespace_is_normalized_away():
    assert canonical_bytes({"a": 1}) == b'{"a":1}'


def test_single_field_mutations_produce_distinct_digests():
    # collision-absence oracle at desk scale: 100 documents, one field
    # mutated in each, checked pairwise by brute force
    rng = random.Random(20260310)
    base = {f"field_{i}": f"value_{i}" for i in range(10)}
    digests = []
    for i in range(100):
        doc = dict(base)
        key = f"field_{rng.randrange(10)}"
        doc[key] = f"mutated_{i}_{rng.randrange(10 ** 6)}"
        digests.append(content_hash(doc))
    digests.append(content_hash(base))
    for i in range(len(digests)):
        for j in range(i + 1, len(digests)):
            assert digests[i] != digests[j]
