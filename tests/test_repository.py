from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from auditflow import clock
from auditflow.artifacts import ArtifactKind, Stage, make_artifact, serialize_artifact
from auditflow.cli import main
from auditflow.diagnostics import AuditError
from auditflow.repository import LOCK_NAME, TRAIL_NAME, AuditRepository, Manifest, TrailRecord, init_repository

T0 = "2026-01-01T00:00:00+00:00"
T1 = "2026-01-02T00:00:00+00:00"


def _study(aid, *, version=1, status="draft", finding="", created_at=T0):
    body = {"interviews": [{"role": "operator", "transcript_ref": "t", "findings": [finding] if finding else []}]}
    return make_artifact(
        ArtifactKind.FIELD_STUDY_REPORT, aid, body, version=version, status=status, created_at=created_at
    )


def _put(repo_path, doc):
    """Place a document on disk without recording it, as a hand edit would."""
    (repo_path / "artifacts" / doc.meta.stage.value / f"{doc.id}.json").write_bytes(serialize_artifact(doc))
    return doc


# -- trail sync ------------------------------------------------------------------

def test_one_sync_records_created_updated_finalized_and_skips_jumps_and_rollbacks(tmp_path):
    path = tmp_path / "audit"
    repo = init_repository(path, now=T0)
    repo.write_artifact(_study("c-updated"))
    repo.write_artifact(_study("d-finalized"))
    repo.write_artifact(_study("e-jump"))
    repo.write_artifact(_study("f-rollback", version=2))
    repo.write_artifact(_study("g-unchanged"))
    repo.write_artifact(_study("h-updated-final"))
    before = (path / TRAIL_NAME).read_text()

    new = {
        "a-created": _put(path, _study("a-created", created_at=T1)),
        "b-created-final": _put(path, _study("b-created-final", status="final", created_at=T1)),
        "c-updated": _put(path, _study("c-updated", version=2, finding="x", created_at=T1)),
        "d-finalized": _put(path, _study("d-finalized", status="final", created_at=T1)),
        "e-jump": _put(path, _study("e-jump", version=3, finding="x", created_at=T1)),
        "f-rollback": _put(path, _study("f-rollback", version=1, created_at=T1)),
        "h-updated-final": _put(path, _study("h-updated-final", version=2, status="final", finding="x", created_at=T1)),
    }

    def rec(event, aid, version, status):
        return TrailRecord(T1, event, aid, version, new[aid].meta.content_hash, status)

    expected = [
        rec("created", "a-created", 1, "draft"),
        rec("created", "b-created-final", 1, "final"),
        rec("finalized", "b-created-final", 1, "final"),
        rec("updated", "c-updated", 2, "draft"),
        rec("finalized", "d-finalized", 1, "final"),
        rec("updated", "h-updated-final", 2, "final"),
        rec("finalized", "h-updated-final", 2, "final"),
    ]
    repo = AuditRepository.load(path)
    assert repo.sync_trail() == expected
    appended = (path / TRAIL_NAME).read_text()[len(before):]
    assert [TrailRecord.from_dict(json.loads(line)) for line in appended.splitlines()] == expected
    assert repo.trail() == repo.trail_records()
    assert repo.sync_trail() == []
    assert AuditRepository.load(path).sync_trail() == []


# -- write ordering ----------------------------------------------------------------

def test_version_reuse_under_a_held_lock_is_refused_by_the_lock_and_changes_nothing(tmp_path):
    path = tmp_path / "audit"
    repo = init_repository(path, now=T0)
    repo.write_artifact(_study("study"))
    artifact = path / "artifacts" / "mapping" / "study.json"
    files = (artifact.read_bytes(), (path / TRAIL_NAME).read_bytes())
    (path / LOCK_NAME).write_text("4242")
    with pytest.raises(AuditError) as exc:
        repo.write_artifact(_study("study", finding="different content"))
    assert exc.value.code == "E_LOCKED"
    assert (artifact.read_bytes(), (path / TRAIL_NAME).read_bytes()) == files
    (path / LOCK_NAME).unlink()
    with pytest.raises(AuditError) as exc:
        repo.write_artifact(_study("study", finding="different content"))
    assert exc.value.code == "E_VERSION_REUSED"
    assert not (path / LOCK_NAME).exists()


# -- one trail read per command ----------------------------------------------------

@pytest.fixture
def trail_reads(monkeypatch):
    calls = []
    original = AuditRepository.trail_records

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(AuditRepository, "trail_records", counted)
    return calls


def test_trace_reads_the_trail_once(smile_copy, trail_reads, capsys):
    assert main(["--repo", str(smile_copy), "trace"]) == 0
    assert len(trail_reads) == 1


def test_report_that_rewrites_nothing_reads_the_trail_once(smile_copy, trail_reads, monkeypatch, capsys):
    monkeypatch.setenv(clock.ENV_NOW, "2026-03-02T19:00:00+00:00")
    assert main(["--repo", str(smile_copy), "report"]) == 0
    trail = (smile_copy / TRAIL_NAME).read_bytes()
    trail_reads.clear()
    assert main(["--repo", str(smile_copy), "report"]) == 0
    assert len(trail_reads) == 1
    assert (smile_copy / TRAIL_NAME).read_bytes() == trail


# -- one read of each artifact file ------------------------------------------------

@pytest.mark.parametrize("command", ["trace", "report"])
def test_trace_and_report_read_each_artifact_file_once(smile_copy, monkeypatch, capsys, command):
    reads = Counter()
    read_bytes = Path.read_bytes

    def counted(self):
        reads[self] += 1
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    files = sorted((smile_copy / "artifacts").rglob("*.json"))
    assert main(["--repo", str(smile_copy), command]) == 0
    assert [reads[file] for file in files] == [1] * len(files)
    assert max(reads.values()) == 1


def test_repo_hash_after_each_write_equals_the_hash_of_a_fresh_load(tmp_path):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    (path / "artifacts" / "mapping" / "broken.json").write_bytes(b"{ not a document")
    repo = AuditRepository.load(path)
    assert repo.parse_failures
    moved = make_artifact(
        ArtifactKind.FIELD_STUDY_REPORT, "study", _study("study").body, version=3, stage=Stage.SCOPING, created_at=T0
    )
    hashes = {repo.repo_content_hash()}
    for doc in (_study("study"), _study("study", version=2, finding="x"), moved):  # new, bumped, moved
        repo.write_artifact(doc)
        hashes.add(repo.repo_content_hash())
        assert repo.repo_content_hash() == AuditRepository.load(path).repo_content_hash()
    assert not (path / "artifacts" / "mapping" / "study.json").exists()
    assert len(hashes) == 4


def test_register_is_parsed_once_per_snapshot_and_dropped_by_a_write(smile_repo):
    register = smile_repo.risk_register()
    assert smile_repo.risk_register() is register
    doc = smile_repo.register_doc()
    smile_repo.write_artifact(
        make_artifact(doc.kind, doc.id, doc.body, status=doc.meta.status, version=doc.meta.version + 1, created_at=T1)
    )
    assert smile_repo.risk_register() is not register
    assert smile_repo.risk_register() == register


def test_by_kind_reads_one_index_per_snapshot_and_a_write_rebuilds_it(smile_repo):
    reports = smile_repo.by_kind(ArtifactKind.ADVERSARIAL_TESTING_REPORT)
    assert [d.id for d in reports] == ["adversarial-tests"]
    reports.clear()  # callers get a fresh list each time
    assert [d.id for d in smile_repo.by_kind(ArtifactKind.ADVERSARIAL_TESTING_REPORT)] == ["adversarial-tests"]
    assert smile_repo.by_kind(ArtifactKind.AUDIT_SUMMARY_REPORT) == []
    smile_repo.write_artifact(_study("a-study", created_at=T1))
    assert [d.id for d in smile_repo.by_kind(ArtifactKind.FIELD_STUDY_REPORT)] == ["a-study", "field-study"]
    for kind in ArtifactKind:
        expected = sorted((d for d in smile_repo.artifacts.values() if d.kind is kind), key=lambda d: d.id)
        assert smile_repo.by_kind(kind) == expected


# -- closed question verbs ----------------------------------------------------------

def _set_manifest(path, **fields):
    manifest = path / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw.update(fields)
    manifest.write_text(json.dumps(raw))


def _closed_question_paths(repo):
    return [d.path for d in repo.validate_repository() if d.code == "W_CLOSED_QUESTION"]


def test_manifest_closed_question_verbs_reach_the_checklist_lint(smile_copy):
    assert _closed_question_paths(AuditRepository.load(smile_copy)) == []
    _set_manifest(smile_copy, closed_question_verbs=["Describe"])
    assert _closed_question_paths(AuditRepository.load(smile_copy)) == [
        "body.items[0].prompt",
        "body.items[1].prompt",
        "body.items[4].prompt",
    ]


@pytest.mark.parametrize("verbs", ["describe", [1, 2], ["is", None], {"is": 1}])
def test_closed_question_verbs_must_be_a_list_of_strings(verbs, smile_copy, capsys):
    with pytest.raises(AuditError) as exc:
        Manifest.from_dict({"audit_id": "a", "closed_question_verbs": verbs})
    assert exc.value.code == "E_CONFIG"
    _set_manifest(smile_copy, closed_question_verbs=verbs)
    assert main(["--repo", str(smile_copy), "validate"]) == 2
    assert "E_CONFIG" in capsys.readouterr().err


# -- stage requirement overrides ------------------------------------------------------

@pytest.mark.parametrize(
    "entries",
    [
        [{"kind": "EthicalReview", "producer": "nobody"}],
        [{"kind": "EthicalReview", "min_status": "approved"}],
        3,
        [["EthicalReview"]],
    ],
    ids=["unknown-producer", "unknown-min-status", "entries-not-a-list", "entry-not-an-object"],
)
def test_bad_stage_requirement_entries_are_config_errors(entries, smile_copy, capsys):
    with pytest.raises(AuditError) as exc:
        Manifest.from_dict({"audit_id": "a", "stage_requirements": {"scoping": entries}})
    assert exc.value.code == "E_CONFIG"
    _set_manifest(smile_copy, stage_requirements={"scoping": entries})
    assert main(["--repo", str(smile_copy), "status"]) == 2
    assert "E_CONFIG" in capsys.readouterr().err


def test_workflow_config_is_resolved_once_per_manifest(smile_repo):
    config = smile_repo.workflow_config()
    assert config is smile_repo.workflow_config() is smile_repo.manifest.workflow
    assert config.profile == smile_repo.manifest.profile
