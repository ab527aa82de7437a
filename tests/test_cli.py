from __future__ import annotations

import json

import pytest

from auditflow import clock
from auditflow.artifacts import ArtifactKind, make_artifact, serialize_artifact
from auditflow.cli import main
from auditflow.fixtures import (
    smile_init,
    smile_ingest_tests,
    smile_write_collection,
    smile_write_mapping,
    smile_write_reflection,
    smile_write_scoping,
    smile_write_testing,
)
from auditflow.repository import AuditRepository


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_init_creates_stage_directories(tmp_path, capsys):
    repo = tmp_path / "audit"
    code, out, _ = run(capsys, "--repo", str(repo), "init", "--profile", "full")
    assert code == 0
    for stage in ("scoping", "mapping", "artifact_collection", "testing", "reflection"):
        assert (repo / "artifacts" / stage).is_dir()
    assert (repo / "manifest.json").is_file()
    assert (repo / "state.lock").is_file()


def test_init_into_nonempty_directory_fails(tmp_path, capsys):
    repo = tmp_path / "audit"
    repo.mkdir()
    (repo / "junk.txt").write_text("x")
    code, _, err = run(capsys, "--repo", str(repo), "init")
    assert code == 2
    assert "E_EXISTS" in err


def test_init_light_profile_drops_field_study(tmp_path, capsys):
    repo = tmp_path / "audit"
    code, _, _ = run(capsys, "--repo", str(repo), "init", "--profile", "light")
    assert code == 0
    loaded = AuditRepository.load(repo)
    from auditflow.artifacts import ArtifactKind, Stage
    from auditflow.workflow import required_artifacts

    kinds = {r.kind for r in required_artifacts(Stage.MAPPING, loaded.workflow_config())}
    assert ArtifactKind.FIELD_STUDY_REPORT not in kinds
    assert ArtifactKind.SYSTEM_MAP not in kinds


def test_status_on_fresh_repo(tmp_path, capsys):
    repo = tmp_path / "audit"
    run(capsys, "--repo", str(repo), "init")
    code, out, _ = run(capsys, "--repo", str(repo), "status")
    assert code == 0
    assert "* Scoping (0/4 artifacts final)" in out
    assert "current stage: Scoping" in out


def test_validate_pristine_fixture_exits_zero(smile_copy, capsys):
    code, out, _ = run(capsys, "--repo", str(smile_copy), "validate")
    assert code == 0


def test_validate_reports_empty_intended_use(smile_copy, capsys):
    from auditflow.canonical import content_hash

    path = smile_copy / "artifacts" / "artifact_collection" / "model-card-smile.json"
    raw = json.loads(path.read_text())
    raw["body"]["intended_use"] = ""
    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "--repo", str(smile_copy), "validate")
    assert code == 2
    lines = [l for l in out.splitlines() if "E_MC_INTENDED_USE" in l]
    assert len(lines) == 1
    assert lines[0].startswith("ERROR E_MC_INTENDED_USE model-card-smile body.intended_use")


def test_validate_corruption_sweep_exits_one(smile_copy, capsys):
    targets = sorted((smile_copy / "artifacts").rglob("*.json"))
    assert targets
    for victim in targets:
        backup = victim.read_bytes()
        victim.write_bytes(b"{ this is not a document")
        code, _, _ = run(capsys, "--repo", str(smile_copy), "validate")
        assert code == 1, victim
        victim.write_bytes(backup)



@pytest.mark.parametrize(
    "value, version, expected",
    [
        (10**400, "1", "ERROR E_FIELD_VALUE card body.performance_by_group[0].value value must be finite"),
        (0.5, "9" * 5000, "ERROR E_PARSE - artifacts/artifact_collection/card.json an integer has more than 4300 digits"),
    ],
    ids=["real-past-the-float-range", "version-past-the-int-digit-limit"],
)
def test_validate_maps_an_oversized_integer_to_a_diagnostic(tmp_path, capsys, value, version, expected):
    repo = tmp_path / "audit"
    run(capsys, "--repo", str(repo), "init")
    body = {"intended_use": "triage", "performance_by_group": [{"group": "all", "metric_name": "auc", "value": value}]}
    text = serialize_artifact(make_artifact(ArtifactKind.MODEL_CARD, "card", body)).decode()
    assert text.count('"version": 1\n') == 1
    card = repo / "artifacts" / "artifact_collection" / "card.json"
    card.write_text(text.replace('"version": 1\n', f'"version": {version}\n'))
    code, out, _ = run(capsys, "--repo", str(repo), "--format", "machine", "validate")
    assert code == 1
    assert expected in out.splitlines()


_MISSING_META = ("content_hash", "created_at", "id", "producer", "stage", "status", "version")


@pytest.mark.parametrize(
    "name, text, expected",
    [
        ("deep.json", "[" * 100_000 + "]" * 100_000, ["ERROR E_PARSE - artifacts/mapping/deep.json document nests too deeply"]),
        ("deep.yaml", "a: " + "[" * 5_000, ["ERROR E_PARSE - artifacts/mapping/deep.yaml document nests too deeply"]),
        (
            "big.yaml",
            "meta:\n  version: " + "9" * 5_000 + "\n",
            ["ERROR E_PARSE - artifacts/mapping/big.yaml an integer has more than 4300 digits"],
        ),
        (
            "date.yaml",
            "meta:\n  created_at: 2026-13-45\n",
            ["ERROR E_PARSE - artifacts/mapping/date.yaml document is not a structured object"],
        ),
        (
            "nometa.json",
            '{"meta": 1, "body": {}}',
            ["ERROR E_PARSE - artifacts/mapping/nometa.json:meta document has no meta object"],
        ),
        (
            "noid.json",
            '{"meta": {"kind": "SystemMap"}, "body": {}}',
            [f"ERROR E_FIELD_MISSING - artifacts/mapping/noid.json:meta.{f} meta field {f!r} is required" for f in _MISSING_META],
        ),
    ],
    ids=[
        "deep-json",
        "deep-yaml",
        "yaml-integer-past-the-digit-limit",
        "yaml-date-out-of-range",
        "meta-not-an-object",
        "meta-without-id",
    ],
)
def test_an_artifact_that_does_not_parse_is_named_by_its_file(tmp_path, capsys, name, text, expected):
    repo = tmp_path / "audit"
    run(capsys, "--repo", str(repo), "init")
    (repo / "artifacts" / "mapping" / name).write_text(text)
    code, out, _ = run(capsys, "--repo", str(repo), "--format", "machine", "validate")
    assert code == 1
    assert [line for line in out.splitlines() if f"/{name}" in line] == expected


def _manifest_with(**fields):
    def corrupt(repo):
        raw = json.loads((repo / "manifest.json").read_text())
        raw.update(fields)
        (repo / "manifest.json").write_text(json.dumps(raw))

    return corrupt


def _replace(name, data):
    return lambda repo: (repo / name).write_bytes(data)


def _append_trail(line):
    return lambda repo: (repo / "trail.log").write_bytes((repo / "trail.log").read_bytes() + line + b"\n")


# (id, corruption, command that reads the file, expected code)
REPO_FILE_CORRUPTIONS = [
    ("trail-not-json", _append_trail(b"{ not json"), "trace", "E_TRAIL_INVALID"),
    ("trail-empty-object", _append_trail(b"{}"), "trace", "E_TRAIL_INVALID"),
    ("trail-list", _append_trail(b"[1]"), "trace", "E_TRAIL_INVALID"),
    ("trail-not-utf8", _append_trail(b"\xff\xfe"), "trace", "E_TRAIL_INVALID"),
    (
        "trail-field-type",
        _append_trail(b'{"timestamp": 1, "event": "created", "artifact_id": "x", "version": 1, "hash": "h"}'),
        "trace",
        "E_TRAIL_INVALID",
    ),
    ("state-unknown-stage", _replace("state.lock", b'{"current_stage": "nope"}'), "status", "E_STATE_INVALID"),
    ("state-list", _replace("state.lock", b"[1]"), "status", "E_STATE_INVALID"),
    ("state-empty-gate-entry", _replace("state.lock", b'{"gate_log": [{}]}'), "status", "E_STATE_INVALID"),
    (
        "state-field-type",
        _replace("state.lock", b'{"gate_log": [{"stage": "mapping", "timestamp": 1, "result": "pass", "diagnostics_hash": "h"}]}'),
        "trace",
        "E_STATE_INVALID",
    ),
    ("state-stage-without-gates", _replace("state.lock", b'{"current_stage": "reflection", "gate_log": []}'), "status", "E_STATE_INVALID"),
    (
        "state-skipped-gate",
        _replace(
            "state.lock",
            b'{"current_stage": "testing", "gate_log": ['
            b'{"stage": "mapping", "timestamp": "t", "result": "pass", "diagnostics_hash": "h"}, '
            b'{"stage": "testing", "timestamp": "t", "result": "pass", "diagnostics_hash": "h"}]}',
        ),
        "status",
        "E_STATE_INVALID",
    ),
    ("matrix-string", _manifest_with(risk_matrix={"high_min_score": "x"}), "validate", "E_CONFIG"),
    ("skew-string", _manifest_with(skew_threshold="abc"), "validate", "E_CONFIG"),
    ("skew-list", _manifest_with(skew_threshold=[1]), "validate", "E_CONFIG"),
    ("role-overrides-list", _manifest_with(role_overrides=[1]), "validate", "E_CONFIG"),
    ("stage-requirements-list", _manifest_with(stage_requirements=[1]), "validate", "E_CONFIG"),
    ("principles-ref-list", _manifest_with(principles_ref=[1]), "validate", "E_CONFIG"),
    ("manifest-not-utf8", _replace("manifest.json", b"\xff\xfe"), "validate", "E_CONFIG"),
]


@pytest.mark.parametrize(
    "corrupt, command, expected", [case[1:] for case in REPO_FILE_CORRUPTIONS], ids=[case[0] for case in REPO_FILE_CORRUPTIONS]
)
def test_corrupted_manifest_state_or_trail_exits_two_with_its_code(smile_copy, capsys, corrupt, command, expected):
    corrupt(smile_copy)
    code, _, err = run(capsys, "--repo", str(smile_copy), command)
    assert code == 2
    assert err.startswith(f"error: {expected} ")


def test_validate_machine_format_is_sorted_lines_only(smile_copy, capsys):
    from auditflow.canonical import content_hash

    path = smile_copy / "artifacts" / "artifact_collection" / "model-card-smile.json"
    raw = json.loads(path.read_text())
    raw["body"]["intended_use"] = ""
    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "--repo", str(smile_copy), "--format", "machine", "validate")
    lines = out.splitlines()
    assert all(line.split()[0] in ("ERROR", "WARNING", "INFO") for line in lines)
    assert lines == sorted(lines, key=lambda l: (l.split()[2], l.split()[3], l.split()[1]))


def test_gate_without_advance_does_not_mutate_state(smile_copy, capsys):
    state_before = (smile_copy / "state.lock").read_bytes()
    trail_before = (smile_copy / "trail.log").read_bytes()
    code, _, _ = run(capsys, "--repo", str(smile_copy), "gate", "reflection")
    assert code == 0
    assert (smile_copy / "state.lock").read_bytes() == state_before
    assert (smile_copy / "trail.log").read_bytes() == trail_before


def test_gate_failure_exit_code(tmp_path, capsys):
    repo = tmp_path / "audit"
    run(capsys, "--repo", str(repo), "init")
    code, out, _ = run(capsys, "--repo", str(repo), "gate", "mapping")
    assert code == 2
    assert "FAIL" in out


def test_usage_errors_exit_three(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--repo", str(tmp_path), "gate", "not-a-stage"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["--repo", str(tmp_path), "frobnicate"])
    assert exc.value.code == 3


def test_stage_names_accept_both_spellings(smile_copy, capsys):
    code1, _, _ = run(capsys, "--repo", str(smile_copy), "gate", "ArtifactCollection")
    code2, _, _ = run(capsys, "--repo", str(smile_copy), "gate", "artifact_collection")
    assert code1 == code2 == 0


def test_full_scripted_session_reaches_conditional_greenlight(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(clock.ENV_NOW, "2026-03-02T16:00:00+00:00")
    repo = str(tmp_path / "session")

    smile_init(repo)
    smile_write_scoping(repo)
    code, _, _ = run(capsys, "--repo", repo, "gate", "mapping", "--advance")
    assert code == 0

    # gates cannot be skipped ahead
    code, _, err = run(capsys, "--repo", repo, "gate", "reflection", "--advance")
    assert code == 2

    smile_write_mapping(repo)
    code, _, _ = run(capsys, "--repo", repo, "gate", "artifact_collection", "--advance")
    assert code == 0

    smile_write_collection(repo)
    code, _, _ = run(capsys, "--repo", repo, "gate", "testing", "--advance")
    assert code == 0

    smile_write_testing(repo)
    code, out, _ = run(capsys, "--repo", repo, "risk", "--ingest-tests", "adversarial-tests")
    assert code == 0
    assert "FM-SMILE-BIAS mid→high" in out

    # chart generated from the ingested register
    from auditflow.artifacts import ArtifactKind, make_artifact
    from auditflow.risk import RiskRegister, generate_chart_rows

    loaded = AuditRepository.load(repo)
    register = RiskRegister.from_artifact(loaded.register_doc())
    loaded.write_artifact(
        make_artifact(
            ArtifactKind.ETHICAL_RISK_CHART,
            "risk-chart",
            {"rows": generate_chart_rows(register, loaded.risk_matrix())},
            status="final",
            created_at="2026-03-02T16:20:00+00:00",
        )
    )

    code, _, _ = run(capsys, "--repo", repo, "gate", "reflection", "--advance")
    assert code == 0

    smile_write_reflection(repo)
    code, out, _ = run(capsys, "--repo", repo, "report")
    assert code == 0
    assert "verdict conditional_greenlight" in out

    final = AuditRepository.load(repo)
    assert final.state.current_stage.value == "reflection"
    assert len(final.state.gate_log) == 4
    assert (tmp_path / "session" / "audit_report.txt").is_file()
    summary = final.get("audit-summary")
    assert summary is not None and summary.body["verdict"] == "conditional_greenlight"


def test_risk_lists_prioritized_register(smile_copy, capsys):
    code, out, _ = run(capsys, "--repo", str(smile_copy), "risk")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("FM-")]
    assert lines[0].startswith("FM-FACE-RETAIN")  # severity 4, likelihood 5


def test_risk_ingest_unknown_target_exits_two(smile_copy, capsys, monkeypatch):
    monkeypatch.setenv(clock.ENV_NOW, "2026-03-02T17:00:00+00:00")
    from auditflow.artifacts import ArtifactKind, make_artifact, serialize_artifact

    bad = make_artifact(
        ArtifactKind.ADVERSARIAL_TESTING_REPORT,
        "bad-tests",
        {"test_cases": [{"id": "t", "target": "FM-GHOST", "trials": 1, "failures": 0}]},
        created_at="2026-03-02T17:00:00+00:00",
    )
    path = smile_copy / "bad-tests.json"
    path.write_bytes(serialize_artifact(bad))
    code, _, err = run(capsys, "--repo", str(smile_copy), "risk", "--ingest-tests", str(path))
    assert code == 2
    assert "E_UNKNOWN_FMEA_ID" in err


def test_trace_writes_graph_and_prints_tab_separated_trail(smile_copy, capsys, monkeypatch):
    monkeypatch.setenv(clock.ENV_NOW, "2026-03-02T18:00:00+00:00")
    code, out, _ = run(capsys, "--repo", str(smile_copy), "trace")
    assert code == 0
    assert (smile_copy / "adhf.graph").is_file()
    rows = [l.split("\t") for l in out.splitlines() if "\t" in l]
    assert rows and all(len(r) == 5 for r in rows)


def test_report_command_is_idempotent(smile_copy, capsys, monkeypatch):
    monkeypatch.setenv(clock.ENV_NOW, "2026-03-02T19:00:00+00:00")
    code, _, _ = run(capsys, "--repo", str(smile_copy), "report")
    assert code == 0
    first_report = (smile_copy / "audit_report.txt").read_bytes()
    first_summary = (smile_copy / "artifacts" / "reflection" / "audit-summary.json").read_bytes()
    code, _, _ = run(capsys, "--repo", str(smile_copy), "report")
    assert code == 0
    assert (smile_copy / "audit_report.txt").read_bytes() == first_report
    assert (smile_copy / "artifacts" / "reflection" / "audit-summary.json").read_bytes() == first_summary


@pytest.mark.parametrize("command, output", [("trace", "adhf.graph"), ("report", "audit_report.txt")])
def test_an_output_path_that_cannot_be_written_exits_two_naming_it(smile_copy, capsys, command, output):
    (smile_copy / output).mkdir()
    code, _, err = run(capsys, "--repo", str(smile_copy), command)
    assert code == 2
    assert err.startswith("error: E_IO ")
    assert str(smile_copy / output) in err
