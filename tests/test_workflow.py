from __future__ import annotations

import json
import os
import re

import pytest

from auditflow.artifacts import ArtifactKind, ArtifactStatus, ProducerRole, Stage, make_artifact
from auditflow.cli import main
from auditflow.diagnostics import AuditError
from auditflow.repository import AuditRepository, init_repository
from auditflow.workflow import (
    RequiredArtifact,
    WorkflowConfig,
    WorkflowState,
    advance_stage,
    check_gate,
    check_requirements,
    required_artifacts,
    validate_config,
)

STAGES = list(Stage)


def _status_done(repo_path, capsys) -> dict[Stage, int]:
    """Per-stage done counts from the ``status`` command's stage lines."""
    capsys.readouterr()
    assert main(["--repo", str(repo_path), "status"]) == 0
    done = {}
    for line in capsys.readouterr().out.splitlines():
        m = re.match(r"[* ] (\w+) \((\d+)/\d+ artifacts final\)$", line)
        if m:
            done[next(s for s in Stage if s.display == m.group(1))] = int(m.group(2))
    return done


def test_scoping_defaults_include_ethical_review_as_auditor_final():
    reqs = required_artifacts(Stage.SCOPING)
    assert (
        RequiredArtifact(ArtifactKind.ETHICAL_REVIEW, ProducerRole.AUDITOR, ArtifactStatus.FINAL) in reqs
    )


def test_reflection_defaults_include_joint_remediation_plan():
    reqs = required_artifacts(Stage.REFLECTION)
    assert (
        RequiredArtifact(ArtifactKind.REMEDIATION_PLAN, ProducerRole.JOINT, ArtifactStatus.FINAL) in reqs
    )


def test_register_is_draft_at_mapping_final_at_reflection():
    mapping = {r.kind: r.min_status for r in required_artifacts(Stage.MAPPING)}
    reflection = {r.kind: r.min_status for r in required_artifacts(Stage.REFLECTION)}
    assert mapping[ArtifactKind.FMEA_REGISTER] is ArtifactStatus.DRAFT
    assert reflection[ArtifactKind.FMEA_REGISTER] is ArtifactStatus.FINAL


def test_conflicting_stage_requirements_rejected():
    cfg = WorkflowConfig(
        stage_requirements={
            Stage.MAPPING: [
                RequiredArtifact(ArtifactKind.MODEL_CARD, ProducerRole.PRODUCT_TEAM, ArtifactStatus.FINAL)
            ]
        }
    )
    with pytest.raises(AuditError) as exc:
        validate_config(cfg)
    assert exc.value.code == "E_CONFIG"


def test_light_profile_drops_field_study_and_system_map():
    full = {r.kind for r in required_artifacts(Stage.MAPPING, WorkflowConfig(profile="full"))}
    light = {r.kind for r in required_artifacts(Stage.MAPPING, WorkflowConfig(profile="light"))}
    assert full - light == {ArtifactKind.FIELD_STUDY_REPORT, ArtifactKind.SYSTEM_MAP}


def test_fresh_repo_passes_the_scoping_gate(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    result = check_gate(repo, Stage.SCOPING)
    assert result.passed and result.diagnostics == ()


def test_fresh_repo_fails_the_mapping_gate(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    result = check_gate(repo, Stage.MAPPING)
    assert not result.passed
    # templates are drafts, the auditor documents are missing entirely
    codes = {d.code for d in result.diagnostics}
    assert codes == {"E_GATE_STATUS", "E_GATE_MISSING"}


def test_stage_skip_rejected(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    with pytest.raises(AuditError) as exc:
        advance_stage(repo, Stage.TESTING)
    assert exc.value.code == "E_STAGE_SKIP"


def test_failed_gate_blocks_advance(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    with pytest.raises(AuditError) as exc:
        advance_stage(repo, Stage.MAPPING)
    assert exc.value.code == "E_GATE_FAILED"
    assert any(d.code == "E_GATE_MISSING" for d in exc.value.diagnostics)


def test_full_replay_reaches_reflection_with_four_pass_entries(smile_repo):
    assert smile_repo.state.current_stage is Stage.REFLECTION
    log = smile_repo.state.gate_log
    assert len(log) == 4
    assert [e.stage for e in log] == [
        Stage.MAPPING,
        Stage.ARTIFACT_COLLECTION,
        Stage.TESTING,
        Stage.REFLECTION,
    ]
    assert all(e.result == "pass" for e in log)


def test_missing_datasheet_fails_the_testing_gate(smile_copy):
    os.unlink(smile_copy / "artifacts" / "artifact_collection" / "datasheet-celeba.json")
    repo = AuditRepository.load(smile_copy)
    result = check_gate(repo, Stage.TESTING)
    assert not result.passed
    assert any(d.code == "E_GATE_MISSING" and "Datasheet" in d.message for d in result.diagnostics)


# Independent statement of the full-profile stage map, frozen before the
# sweep: deleting an artifact must fail exactly the gates strictly after its
# stage and no others.
EXPECTED_STAGE = {
    "principles": Stage.SCOPING,
    "product-requirements": Stage.SCOPING,
    "ethical-review": Stage.SCOPING,
    "social-impact": Stage.SCOPING,
    "stakeholders": Stage.MAPPING,
    "system-map": Stage.MAPPING,
    "design-history-review": Stage.MAPPING,
    "field-study": Stage.MAPPING,
    "fmea-register": Stage.MAPPING,
    "design-checklist": Stage.ARTIFACT_COLLECTION,
    "model-card-smile": Stage.ARTIFACT_COLLECTION,
    "datasheet-celeba": Stage.ARTIFACT_COLLECTION,
    "adversarial-tests": Stage.TESTING,
    "risk-chart": Stage.TESTING,
    "remediation-plan": Stage.REFLECTION,
}


def test_every_gate_passes_on_the_complete_fixture(smile_repo):
    for target in STAGES:
        result = check_gate(smile_repo, target)
        assert result.passed, (target, [d.line() for d in result.diagnostics])


def test_exhaustive_single_deletion_fails_exactly_the_predicted_gates(smile_copy, capsys):
    for artifact_id, home in EXPECTED_STAGE.items():
        victim = None
        for stage_dir in (smile_copy / "artifacts").iterdir():
            candidate = stage_dir / f"{artifact_id}.json"
            if candidate.exists():
                victim = candidate
        assert victim is not None, artifact_id
        backup = victim.read_bytes()
        victim.unlink()
        repo = AuditRepository.load(smile_copy)
        for target in STAGES:
            expected_fail = home.order < target.order
            result = check_gate(repo, target)
            assert result.passed != expected_fail, (
                artifact_id,
                target,
                [d.line() for d in result.diagnostics],
            )
        met = {s: sum(not c.diagnostics for c in check_requirements(repo, s)) for s in STAGES}
        assert _status_done(smile_copy, capsys) == met, artifact_id
        victim.write_bytes(backup)


def test_gate_monotone_in_target(smile_copy):
    # if a gate passes for stage S it passes for every stage before S,
    # also on damaged repositories
    os.unlink(smile_copy / "artifacts" / "testing" / "adversarial-tests.json")
    repo = AuditRepository.load(smile_copy)
    passes = [check_gate(repo, s).passed for s in STAGES]
    for earlier, later in zip(passes, passes[1:]):
        assert earlier or not later


def test_wrong_producer_is_misattribution(smile_copy):
    path = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    raw = json.loads(path.read_text())
    raw["meta"]["producer"] = "product_team"
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    result = check_gate(repo, Stage.MAPPING)
    assert not result.passed
    assert any(d.code == "E_GATE_PRODUCER" for d in result.diagnostics)


def test_status_does_not_count_a_wrong_producer_as_done(smile_copy, capsys):
    assert _status_done(smile_copy, capsys)[Stage.SCOPING] == 4
    path = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    raw = json.loads(path.read_text())
    raw["meta"]["producer"] = "product_team"
    path.write_text(json.dumps(raw))
    assert _status_done(smile_copy, capsys)[Stage.SCOPING] == 3


def test_a_second_draft_instance_leaves_the_requirement_unmet(smile_copy, capsys):
    # every instance of a required kind must pass, not just one of them
    src = smile_copy / "artifacts" / "testing" / "adversarial-tests.json"
    raw = json.loads(src.read_text())
    raw["meta"]["id"] = "adversarial-tests-extra"
    raw["meta"]["status"] = "draft"
    (src.parent / "adversarial-tests-extra.json").write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    result = check_gate(repo, Stage.REFLECTION)
    assert not result.passed
    assert [(d.code, d.artifact_id) for d in result.diagnostics if d.code.startswith("E_GATE")] == [
        ("E_GATE_STATUS", "adversarial-tests-extra")
    ]
    assert _status_done(smile_copy, capsys)[Stage.TESTING] == 1


def test_draft_where_final_needed(smile_copy):
    path = smile_copy / "artifacts" / "scoping" / "social-impact.json"
    raw = json.loads(path.read_text())
    raw["meta"]["status"] = "draft"
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    result = check_gate(repo, Stage.MAPPING)
    assert not result.passed
    assert any(d.code == "E_GATE_STATUS" for d in result.diagnostics)


def test_incomplete_checklist_blocks_testing_and_can_be_waived(smile_copy):
    path = smile_copy / "artifacts" / "artifact_collection" / "design-checklist.json"
    raw = json.loads(path.read_text())
    raw["body"]["items"][2]["satisfied"] = "no"
    # recompute the content hash the way a dutiful editor would
    from auditflow.canonical import content_hash

    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)

    result = check_gate(repo, Stage.TESTING)
    assert not result.passed
    assert any(d.code == "E_GATE_CHECKLIST" for d in result.diagnostics)

    waived = check_gate(repo, Stage.TESTING, waive_checklist=True)
    assert waived.passed
    assert any(d.code == "W_GATE_CHECKLIST_WAIVED" for d in waived.diagnostics)


def test_waiver_is_recorded_in_the_gate_log(tmp_path, smile_copy):
    # rebuild state to Testing, then advance to Reflection with a waiver
    path = smile_copy / "artifacts" / "artifact_collection" / "design-checklist.json"
    raw = json.loads(path.read_text())
    raw["body"]["items"][2]["satisfied"] = "no"
    from auditflow.canonical import content_hash

    raw["meta"]["content_hash"] = content_hash(raw["body"])
    raw["meta"]["version"] = raw["meta"]["version"] + 1
    path.write_text(json.dumps(raw))
    state_path = smile_copy / "state.lock"
    state = json.loads(state_path.read_text())
    state["current_stage"] = "testing"
    state["gate_log"] = state["gate_log"][:3]
    state_path.write_text(json.dumps(state))

    repo = AuditRepository.load(smile_copy)
    new_state = advance_stage(repo, Stage.REFLECTION, waive_checklist=True, timestamp="2026-03-03T00:00:00+00:00")
    assert new_state.gate_log[-1].waived is True


def test_unscored_register_blocks_testing(smile_copy):
    path = smile_copy / "artifacts" / "mapping" / "fmea-register.json"
    raw = json.loads(path.read_text())
    del raw["body"]["entries"][0]["likelihood"]
    from auditflow.canonical import content_hash

    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    result = check_gate(repo, Stage.TESTING)
    assert not result.passed
    assert any(d.code == "E_RISK_UNSCORED" for d in result.diagnostics)
    # the mapping gate does not yet require scores
    assert check_gate(repo, Stage.ARTIFACT_COLLECTION).passed


def test_untested_high_risk_escalates_at_reflection_only(smile_copy):
    os.unlink(smile_copy / "artifacts" / "testing" / "adversarial-tests.json")
    repo = AuditRepository.load(smile_copy)
    reflection = check_gate(repo, Stage.REFLECTION)
    assert any(d.code == "E_UNTESTED_RISK" for d in reflection.diagnostics)
    testing = check_gate(repo, Stage.TESTING)
    assert not any(d.code == "E_UNTESTED_RISK" for d in testing.diagnostics)


def test_rationale_satisfies_the_reflection_escalation(smile_copy):
    os.unlink(smile_copy / "artifacts" / "testing" / "adversarial-tests.json")
    reg_path = smile_copy / "artifacts" / "mapping" / "fmea-register.json"
    raw = json.loads(reg_path.read_text())
    for entry in raw["body"]["entries"]:
        entry["rationale"] = "accepted residual risk, reviewed by the board"
    from auditflow.canonical import content_hash

    raw["meta"]["content_hash"] = content_hash(raw["body"])
    reg_path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    reflection = check_gate(repo, Stage.REFLECTION)
    assert not any(d.code == "E_UNTESTED_RISK" for d in reflection.diagnostics)


def test_gate_log_must_be_strictly_increasing():
    raw = {
        "current_stage": "mapping",
        "gate_log": [
            {"stage": "mapping", "timestamp": "t", "result": "pass", "diagnostics_hash": "x"},
            {"stage": "mapping", "timestamp": "t", "result": "pass", "diagnostics_hash": "x"},
        ],
    }
    with pytest.raises(AuditError) as exc:
        WorkflowState.from_dict(raw)
    assert exc.value.code == "E_STATE_INVALID"
