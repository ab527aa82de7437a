from __future__ import annotations

import json

import pytest

from auditflow.artifacts import ArtifactKind, make_artifact
from auditflow.canonical import content_hash
from auditflow.diagnostics import AuditError
from auditflow.report import compile_report, determine_verdict, render_text
from auditflow.repository import AuditRepository, init_repository
from auditflow.risk import FmeaEntry, RiskRegister


def _entry(eid, s, l, status="open"):
    return FmeaEntry(
        id=eid,
        failure_mode="f",
        effect="e",
        cause="c",
        severity=s,
        likelihood=l,
        threatened_principles=("privacy",),
        status=status,
    )


def _plan(items):
    return make_artifact(ArtifactKind.REMEDIATION_PLAN, "plan", {"items": items})


def _item(iid, fmea_id, status="planned"):
    return {"id": iid, "fmea_id": fmea_id, "action": f"act on {fmea_id}", "owner": "o", "status": status, "notes": ""}


def test_empty_register_and_no_gaps_is_greenlight():
    assert determine_verdict(RiskRegister(), [], None) == "greenlight"
    assert determine_verdict(None, [], None) == "greenlight"


def test_open_high_risk_without_any_plan_raises():
    register = RiskRegister((_entry("FM-1", 5, 4),))
    with pytest.raises(AuditError) as exc:
        determine_verdict(register, [], None)
    assert exc.value.code == "E_MISSING_REMEDIATION"


def test_open_high_risk_without_item_stalls():
    register = RiskRegister((_entry("FM-1", 5, 4), _entry("FM-2", 4, 4)))
    plan = _plan([_item("i1", "FM-2")])
    assert determine_verdict(register, [], plan) == "stall"


def test_infeasible_item_cancels():
    register = RiskRegister((_entry("FM-1", 5, 4),))
    plan = _plan([_item("i1", "FM-1", status="infeasible")])
    assert determine_verdict(register, [], plan) == "cancel"


def test_planned_items_for_all_high_risks_is_conditional():
    register = RiskRegister((_entry("FM-1", 5, 4), _entry("FM-2", 4, 4)))
    plan = _plan([_item("i1", "FM-1"), _item("i2", "FM-2")])
    assert determine_verdict(register, [], plan) == "conditional_greenlight"


def test_mitigated_risks_do_not_block():
    register = RiskRegister((_entry("FM-1", 5, 4, status="mitigated"),))
    assert determine_verdict(register, [], None) == "greenlight"


def test_error_level_gaps_block_a_clean_greenlight():
    from auditflow.diagnostics import make

    gaps = [make("E_ORPHAN_REQUIREMENT", "no evidence", None, "requirement:r1")]
    assert determine_verdict(RiskRegister(), gaps, None) == "conditional_greenlight"


def test_verdict_monotone_under_added_risk_and_added_mitigation():
    base = RiskRegister((_entry("FM-1", 4, 4),))
    plan = _plan([_item("i1", "FM-1")])
    order = {"greenlight": 0, "conditional_greenlight": 1, "stall": 2, "cancel": 3}
    before = determine_verdict(base, [], plan)
    worse = RiskRegister(base.entries + (_entry("FM-9", 5, 5),))
    assert order[determine_verdict(worse, [], plan)] >= order[before]
    better = _plan([_item("i1", "FM-1"), _item("i2", "FM-9")])
    assert order[determine_verdict(worse, [], better)] <= order[determine_verdict(worse, [], plan)]


def test_smile_report_has_high_privacy_and_justice_findings(smile_repo):
    report, _ = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    by_id = {f.principle_id: f for f in report.principle_findings}
    assert by_id["privacy"].risk_class == "high"
    assert by_id["justice-fairness-non-discrimination"].risk_class == "high"
    assert report.verdict == "conditional_greenlight"
    assert "FM-SMILE-BIAS" in by_id["justice-fairness-non-discrimination"].fmea_ids
    rendered = render_text(report, smile_repo)
    assert "Privacy: high" in rendered
    assert "Justice, Fairness & Non-Discrimination: high" in rendered


def test_screening_report_stalls_and_shows_a_banner(screening_repo):
    report, _ = compile_report(screening_repo, generated_at="2026-04-06T15:00:00+00:00")
    assert report.verdict == "stall"
    rendered = render_text(report, screening_repo)
    assert "LAUNCH STALL" in rendered


def test_zero_risk_repo_greenlights_with_unexamined_principles(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    report, _ = compile_report(repo, generated_at="2026-01-01T01:00:00+00:00")
    assert report.verdict == "greenlight"
    assert all(f.unexamined for f in report.principle_findings)
    assert {d.code for d in report.gap_summary} == {"W_UNEXAMINED_PRINCIPLE"}


def test_compile_is_deterministic_given_identical_bytes(smile_repo):
    r1, g1 = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    r2, g2 = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    assert content_hash(r1.to_artifact_body()) == content_hash(r2.to_artifact_body())
    assert render_text(r1, smile_repo) == render_text(r2, smile_repo)
    assert g1.graph_hash() == g2.graph_hash()
    assert r1.adhf_hash == g1.graph_hash()


def test_conditions_come_from_the_remediation_plan(smile_repo):
    report, _ = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    joined = " ".join(report.conditions)
    assert "Retrain the smile model" in joined
    assert "opt-in" in joined
    assert "privacy disclaimer" in joined


def test_report_sections_render_in_fixed_order(smile_repo):
    report, _ = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    rendered = render_text(report, smile_repo)
    positions = [rendered.index(f"[{name}]") for name in ("scope", "stakeholders", "risks", "tests", "gaps", "verdict", "conditions")]
    assert positions == sorted(positions)


def test_deleting_the_plan_makes_compilation_raise(smile_copy):
    (smile_copy / "artifacts" / "reflection" / "remediation-plan.json").unlink()
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError) as exc:
        compile_report(repo, generated_at="2026-03-02T15:00:00+00:00")
    assert exc.value.code == "E_MISSING_REMEDIATION"


def test_readiness_lines_show_a_wrong_producer_remediation_plan(smile_copy):
    path = smile_copy / "artifacts" / "reflection" / "remediation-plan.json"
    raw = json.loads(path.read_text())
    raw["meta"]["producer"] = "auditor"
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    report, _ = compile_report(repo, generated_at="2026-03-02T20:00:00+00:00")
    assert [(d.code, d.artifact_id, d.path) for d in report.readiness] == [
        ("E_GATE_PRODUCER", "remediation-plan", "meta.producer")
    ]
    rendered = render_text(report, repo)
    gaps = rendered[rendered.index("[gaps]") : rendered.index("[verdict]")]
    assert report.readiness[0].line() in gaps.splitlines()


def test_summary_artifact_body_round_trips(smile_repo):
    from auditflow.artifacts import parse_artifact, serialize_artifact

    report, _ = compile_report(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    doc = make_artifact(
        ArtifactKind.AUDIT_SUMMARY_REPORT,
        "audit-summary",
        report.to_artifact_body(),
        status="final",
        created_at="2026-03-02T15:00:00+00:00",
    )
    assert parse_artifact(serialize_artifact(doc)) == doc
