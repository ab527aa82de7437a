"""Random writes through two snapshots of one repository.

A snapshot keeps what it parsed of ``trail.log`` and, on a write, parses
only the lines after it. Each write here goes through one of two long-lived
snapshots of one repository and, beside it, through a freshly loaded
snapshot of a twin repository kept in step. The outcome of every write and
the trail bytes after it must be the same on both sides.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from auditflow.artifacts import ArtifactKind, Stage, make_artifact
from auditflow.diagnostics import AuditError
from auditflow.repository import TRAIL_NAME, AuditRepository, init_repository

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

T0 = "2026-01-01T00:00:00+00:00"
KINDS = ("new", "bump", "same-version", "rollback", "stage-move")

steps = st.lists(
    st.tuples(
        st.integers(0, 1),  # which long-lived snapshot writes
        st.sampled_from(KINDS),
        st.sampled_from(("a", "b")),  # artifact id
        st.integers(0, 2),  # content variant
        st.booleans(),  # final or draft
    ),
    min_size=1,
    max_size=14,
)


def _outcome(repo: AuditRepository, doc):
    try:
        repo.write_artifact(doc)
    except AuditError as exc:
        return exc.code, exc.message
    return "ok"


def _doc(kind: str, artifact_id: str, top: int, variant: int, final: bool, stage: Stage):
    version = {"new": 1, "bump": top + 1, "same-version": max(top, 1), "rollback": max(top - 1, 1)}.get(kind, top + 1)
    if kind == "stage-move":
        stage = Stage.SCOPING if stage is Stage.MAPPING else Stage.MAPPING
    body = {"interviews": [{"role": "operator", "transcript_ref": "t", "findings": [f"finding {variant}"]}]}
    return make_artifact(
        ArtifactKind.FIELD_STUDY_REPORT,
        artifact_id,
        body,
        version=version,
        status="final" if final else "draft",
        stage=stage,
        created_at=T0,
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(steps)
def test_interleaved_writes_through_two_snapshots_act_as_fresh_loads(plan):
    with tempfile.TemporaryDirectory() as scratch:
        kept, fresh = Path(scratch) / "kept", Path(scratch) / "fresh"
        init_repository(kept, now=T0)
        init_repository(fresh, now=T0)
        assert (kept / TRAIL_NAME).read_bytes() == (fresh / TRAIL_NAME).read_bytes()
        writers = [AuditRepository.load(kept), AuditRepository.load(kept)]
        top = {"a": 0, "b": 0}
        stage = {"a": Stage.MAPPING, "b": Stage.MAPPING}
        for who, kind, artifact_id, variant, final in plan:
            doc = _doc(kind, artifact_id, top[artifact_id], variant, final, stage[artifact_id])
            expected = _outcome(AuditRepository.load(fresh), doc)
            assert _outcome(writers[who], doc) == expected
            assert (kept / TRAIL_NAME).read_bytes() == (fresh / TRAIL_NAME).read_bytes()
            if expected == "ok":
                top[artifact_id] = max(top[artifact_id], doc.meta.version)
                stage[artifact_id] = doc.meta.stage
