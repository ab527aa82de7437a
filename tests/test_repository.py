from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from auditflow import artifacts, clock, repository
from auditflow.artifacts import ArtifactKind, Stage, make_artifact, serialize_artifact
from auditflow.cli import main
from auditflow.diagnostics import AuditError
from auditflow.repository import (
    ARTIFACT_SUFFIXES,
    LOCK_NAME,
    TRAIL_NAME,
    AuditRepository,
    Manifest,
    TrailRecord,
    init_repository,
)

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
    assert "4242" in exc.value.message
    assert (artifact.read_bytes(), (path / TRAIL_NAME).read_bytes()) == files
    (path / LOCK_NAME).unlink()
    with pytest.raises(AuditError) as exc:
        repo.write_artifact(_study("study", finding="different content"))
    assert exc.value.code == "E_VERSION_REUSED"
    assert not (path / LOCK_NAME).exists()


@pytest.mark.parametrize(
    "content, says", [(b"", "lock file is empty"), (b"\xff", "lock file cannot be read"), (b"me", "names no process id")]
)
def test_a_lock_without_a_readable_holder_says_so_and_stays(tmp_path, content, says):
    repo = init_repository(tmp_path / "audit", now=T0)
    (repo.path / LOCK_NAME).write_bytes(content)
    with pytest.raises(AuditError) as exc:
        repo.write_artifact(_study("study"))
    assert exc.value.code == "E_LOCKED"
    assert says in exc.value.message
    assert (repo.path / LOCK_NAME).read_bytes() == content


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


def test_load_parses_each_artifact_file_once_in_path_order(smile_copy, monkeypatch):
    art = smile_copy / "artifacts"
    # "a" sorts before "a-b" by path parts, though "a-b/" comes before "a/" as text
    (art / "a").mkdir()
    (art / "a" / "b.json").write_bytes(b"{ broken")
    (art / "a-b").mkdir()
    (art / "a-b" / "c.yaml").write_bytes(b"- a list")
    (art / "scoping" / "notes.txt").write_text("not an artifact")
    (art / "scoping" / ".json").write_text("{}")  # Path.suffix sees no suffix here
    (art / "z-link").symlink_to(art / "scoping", target_is_directory=True)  # rglob does not enter it
    files = [f for f in sorted(art.rglob("*")) if f.is_file() and f.suffix in ARTIFACT_SUFFIXES]
    parsed, hashed = [], []
    parse, digest = repository.parse_artifact, artifacts.content_hash

    def counted_parse(raw):
        parsed.append(raw)
        return parse(raw)

    def counted_hash(value):
        hashed.append(value)
        return digest(value)

    # the names the benchmark's spans wrap: load parses through the repository
    # module's name, and each clean parse hashes through the artifacts module's
    monkeypatch.setattr(repository, "parse_artifact", counted_parse)
    monkeypatch.setattr(artifacts, "content_hash", counted_hash)
    repo = AuditRepository.load(smile_copy)
    assert parsed == [file.read_bytes() for file in files]
    assert len(hashed) == len(repo.artifacts) == len(files) - 2
    assert [d.line() for _, diags in repo.parse_failures for d in diags] == [
        "ERROR E_PARSE - artifacts/a/b.json document is not a structured object",
        "ERROR E_PARSE - artifacts/a-b/c.yaml document is not a structured object",
    ]


def test_a_relative_repo_path_loads_as_the_absolute_one(smile_copy, monkeypatch, capsys):
    (smile_copy / "artifacts" / "mapping" / "broken.json").write_bytes(b"{ not json")
    absolute = AuditRepository.load(smile_copy)
    assert main(["--repo", str(smile_copy), "--format", "machine", "validate"]) == 1
    expected = capsys.readouterr().out
    assert "ERROR E_PARSE - artifacts/mapping/broken.json document is not a structured object" in expected.splitlines()
    for cwd, repo_arg in ((smile_copy, "."), (smile_copy.parent, smile_copy.name)):
        monkeypatch.chdir(cwd)
        relative = AuditRepository.load(repo_arg)
        assert relative.parse_failures == absolute.parse_failures
        assert relative.artifacts == absolute.artifacts
        assert relative.repo_content_hash() == absolute.repo_content_hash()
        assert main(["--repo", repo_arg, "--format", "machine", "validate"]) == 1
        assert capsys.readouterr().out == expected


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


def test_a_body_edited_in_place_before_a_write_is_validated_as_written(tmp_path):
    path = tmp_path / "audit"
    repo = init_repository(path, now=T0)
    doc = make_artifact(ArtifactKind.MODEL_CARD, "card", {"intended_use": "triage"}, created_at=T0)
    doc.body["intended_use"] = " "
    repo.write_artifact(doc)
    expected = ["ERROR E_MC_INTENDED_USE card body.intended_use model card must state the intended use"]
    assert [d.line() for d in repo.artifact_errors("card")] == expected
    assert [d.line() for d in AuditRepository.load(path).artifact_errors("card")] == expected


# -- closed question verbs ----------------------------------------------------------

def _set_manifest(path, **fields):
    manifest = path / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw.update(fields)
    manifest.write_text(json.dumps(raw))


@pytest.mark.parametrize("name", ["skew_threshold", "fraction_tolerance"])
def test_a_null_threshold_stands_for_its_default(smile_copy, name):
    expected = [d.line() for d in AuditRepository.load(smile_copy).validate_repository()]
    _set_manifest(smile_copy, **{name: None})
    repo = AuditRepository.load(smile_copy)
    assert getattr(repo.manifest, name) == getattr(Manifest("audit"), name)
    assert [d.line() for d in repo.validate_repository()] == expected


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


# -- writes parse only the trail lines they have not seen ---------------------------

def _outcome(repo, doc):
    """What a write does: ``"ok"``, or the code and message it was refused with."""
    try:
        repo.write_artifact(doc)
    except AuditError as exc:
        return exc.code, exc.message
    return "ok"


def _twin(path, tmp_path):
    """A copy of the repository as it is on disk now."""
    twin = tmp_path / "twin"
    shutil.rmtree(twin, ignore_errors=True)
    return shutil.copytree(path, twin)


def test_thirty_writes_through_one_snapshot_parse_the_whole_trail_once(tmp_path, trail_reads):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    trail_reads.clear()
    repo = AuditRepository.load(path)
    for version in range(1, 31):
        repo.write_artifact(_study("study", version=version, finding=str(version)))
    assert len(trail_reads) == 1
    assert repo.trail() == AuditRepository.load(path).trail_records()


def test_a_write_sees_what_another_snapshot_appended(tmp_path, trail_reads):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    first, second = AuditRepository.load(path), AuditRepository.load(path)
    first.write_artifact(_study("study"))
    second.write_artifact(_study("study", version=2, finding="theirs"))
    second.write_artifact(_study("other"))
    trail = (path / TRAIL_NAME).read_bytes()
    trail_reads.clear()
    assert _outcome(first, _study("study", version=2, finding="mine")) == (
        "E_VERSION_REUSED", "study v2 already recorded with different content"
    )
    assert _outcome(first, _study("other", version=1, finding="mine")) == (
        "E_VERSION_REUSED", "other v1 already recorded with different content"
    )
    assert (path / TRAIL_NAME).read_bytes() == trail
    assert _outcome(first, _study("study", version=3, finding="mine")) == "ok"
    assert _outcome(first, _study("study", version=4, finding="mine")) == "ok"
    assert trail_reads == []  # the other snapshot's lines were parsed on their own
    assert [rec.version for rec in first.trail_records() if rec.artifact_id == "study"] == [1, 2, 3, 4]


def _drop_last_line(data):
    return data[: data.rstrip(b"\n").rfind(b"\n") + 1]


def _last_with_another_hash(data):
    record = json.loads(data.splitlines()[-1])
    record["hash"] = "0" * 64
    return json.dumps(record, sort_keys=True).encode() + b"\n"


TRAIL_REWRITES = {
    "truncated": _drop_last_line,
    "empty": lambda data: b"",
    "hash-rewritten": lambda data: _drop_last_line(data) + _last_with_another_hash(data),
    "version-recorded-twice": lambda data: data + _last_with_another_hash(data),
    "torn-record": lambda data: data + b'{"artifact_id": "study", "event": "upd',
    "record-without-newline": lambda data: data + _last_with_another_hash(data).rstrip(b"\n"),
    "no-final-newline": lambda data: data[:-1],
}


@pytest.mark.parametrize("rewrite", TRAIL_REWRITES.values(), ids=TRAIL_REWRITES)
@pytest.mark.parametrize(
    "doc",
    [_study("study", version=2, finding="x"), _study("study", version=2, finding="y"), _study("study", version=3)],
    ids=["v2-as-recorded", "v2-other-content", "v3"],
)
def test_a_write_after_the_trail_was_rewritten_acts_as_a_fresh_load(tmp_path, rewrite, doc):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    repo = AuditRepository.load(path)
    repo.write_artifact(_study("study"))
    repo.write_artifact(_study("study", version=2, finding="x"))
    trail = path / TRAIL_NAME
    trail.write_bytes(rewrite(trail.read_bytes()))
    twin = _twin(path, tmp_path)
    for write in (doc, _study("study", version=4)):  # the second write reads what the first appended
        assert _outcome(repo, write) == _outcome(AuditRepository.load(twin), write)
        assert trail.read_bytes() == (twin / TRAIL_NAME).read_bytes()


def test_a_rewrite_past_the_first_block_of_a_long_trail_is_seen(tmp_path):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    repo = AuditRepository.load(path)
    for version in range(1, 401):
        repo.write_artifact(_study("study", version=version, finding=str(version)))
    trail = path / TRAIL_NAME
    data = trail.read_bytes()
    assert len(data) > 65536  # past the first block of the compare
    trail.write_bytes(TRAIL_REWRITES["hash-rewritten"](data))
    assert _outcome(repo, _study("study", version=400, finding="400")) == (
        "E_VERSION_REUSED", "study v400 already recorded with different content"
    )


def test_a_version_recorded_with_two_hashes_refuses_every_content(tmp_path):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    repo = AuditRepository.load(path)
    repo.write_artifact(_study("study"))
    trail = path / TRAIL_NAME
    trail.write_bytes(trail.read_bytes() + _last_with_another_hash(trail.read_bytes()))
    for doc in (_study("study"), _study("study", finding="x")):
        assert _outcome(repo, doc) == ("E_VERSION_REUSED", "study v1 already recorded with different content")


def test_a_lower_version_appended_by_hand_leaves_the_highest_version_recorded(tmp_path):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    repo = AuditRepository.load(path)
    repo.write_artifact(_study("study"))
    repo.write_artifact(_study("study", version=2, finding="x"))
    trail = path / TRAIL_NAME
    first = trail.read_bytes().splitlines(keepends=True)[-2]
    assert json.loads(first)["version"] == 1
    trail.write_bytes(trail.read_bytes() + first)
    assert _outcome(repo, _study("study")) == ("E_VERSION_REUSED", "study v1 is older than the recorded v2")


@pytest.mark.parametrize(
    "line", [b'{"not": "a record"}\n', b"{ not json\n", b"\xff\xfe\n", b"[1]\n"], ids=["no-fields", "not-json", "not-utf8", "list"]
)
def test_a_bad_line_appended_by_another_writer_is_named_as_a_fresh_load_names_it(tmp_path, line):
    path = tmp_path / "audit"
    init_repository(path, now=T0)
    repo = AuditRepository.load(path)
    repo.write_artifact(_study("study"))
    with (path / TRAIL_NAME).open("ab") as fh:
        fh.write(line)
    fresh = _outcome(AuditRepository.load(path), _study("study", version=2))
    assert fresh[0] == "E_TRAIL_INVALID"
    assert _outcome(repo, _study("study", version=2)) == fresh
    number = len((path / TRAIL_NAME).read_bytes().splitlines())
    assert "not UTF-8" in fresh[1] or f"line {number} " in fresh[1]


def test_ingest_parses_the_trail_once(smile_copy, trail_reads, capsys):
    assert main(["--repo", str(smile_copy), "risk", "--ingest-tests", "adversarial-tests"]) == 0
    assert len(trail_reads) == 1
    assert AuditRepository.load(smile_copy).sync_trail() == []
