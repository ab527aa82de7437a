from __future__ import annotations

import random
import zlib

import pytest

from auditflow.artifacts import ArtifactKind, parse_artifact, serialize_artifact, validate_artifact
from auditflow.diagnostics import CODES, Severity, format_lines

from .genutil import SAMPLE_PRINCIPLES, random_artifact

# A quick per-kind round for the regular development loop; the full
# 1000-per-kind sweep runs in the acceptance module.
ROUNDS = 200


@pytest.mark.parametrize("kind", list(ArtifactKind), ids=lambda k: k.value)
def test_parse_serialize_round_trip(kind):
    rng = random.Random(zlib.crc32(kind.value.encode()))
    for _ in range(ROUNDS):
        doc = random_artifact(kind, rng)
        assert parse_artifact(serialize_artifact(doc)) == doc


@pytest.mark.parametrize("kind", list(ArtifactKind), ids=lambda k: k.value)
def test_validation_is_deterministic(kind):
    rng = random.Random(zlib.crc32(kind.value.encode()))
    for _ in range(50):
        doc = random_artifact(kind, rng)
        first = format_lines(validate_artifact(doc, SAMPLE_PRINCIPLES))
        second = format_lines(validate_artifact(doc, SAMPLE_PRINCIPLES))
        assert first == second


def test_every_emitted_code_is_registered():
    rng = random.Random(99)
    for kind in ArtifactKind:
        for _ in range(30):
            doc = random_artifact(kind, rng)
            for d in validate_artifact(doc, SAMPLE_PRINCIPLES):
                assert d.code in CODES
                assert d.severity is CODES[d.code][0]


def test_error_codes_start_with_e_and_warnings_with_w():
    for code, (severity, _) in CODES.items():
        if severity is Severity.ERROR:
            assert code.startswith("E_"), code
        elif severity is Severity.WARNING:
            assert code.startswith("W_"), code
