"""Audit summary report: verdict derivation and deterministic rendering.

The verdict is a four-level launch recommendation derived from the open
risk register and the remediation plan:

* ``cancel``: some open blocking risk is marked infeasible to mitigate
* ``stall``: some open blocking risk has no remediation item at all
* ``conditional_greenlight``: every open blocking risk has a remediation
  item, but not all are verified (or non-blocking gaps remain)
* ``greenlight``: no open blocking risks and no error-level trace gaps

"Blocking" defaults to class high and can be tightened through the
manifest's ``verdict_blocking_class``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import clock
from .artifacts import ArtifactDocument, ArtifactKind, Stage
from .diagnostics import AuditError, Diagnostic, has_errors
from .risk import (
    FmeaEntry,
    PrincipleThreat,
    RiskMatrix,
    RiskRegister,
    assess_principle_threats,
    class_rank,
    prioritize_risks,
)
from .trace import TraceGraph, build_graph, find_gaps
from .workflow import check_requirements

if TYPE_CHECKING:
    from .repository import AuditRepository


def determine_verdict(
    register: RiskRegister | None,
    gaps: list[Diagnostic],
    remediation: ArtifactDocument | None,
    matrix: RiskMatrix | None = None,
    blocking_class: str = "high",
) -> str:
    """Derive the launch verdict from open risks and mitigation coverage.

    Raises with code ``E_MISSING_REMEDIATION`` when blocking risks are open
    but no remediation plan exists at all.
    """
    blocking_rank = class_rank(blocking_class)
    open_blocking: list[FmeaEntry] = []
    if register is not None:
        for e in register.open_entries():
            if e.scored and class_rank(e.risk_class(matrix)) >= blocking_rank:
                open_blocking.append(e)

    items_by_risk: dict[str, list[dict]] = {}
    if remediation is not None:
        for item in remediation.body.get("items", []):
            fid = item.get("fmea_id", "")
            if fid:
                items_by_risk.setdefault(fid, []).append(item)

    if open_blocking and remediation is None:
        raise AuditError(
            "E_MISSING_REMEDIATION",
            f"{len(open_blocking)} open {blocking_class} risk(s) but no remediation plan",
        )
    for e in open_blocking:
        if any(i.get("status") == "infeasible" for i in items_by_risk.get(e.id, [])):
            return "cancel"
    for e in open_blocking:
        if not items_by_risk.get(e.id):
            return "stall"
    if open_blocking:
        return "conditional_greenlight"
    if has_errors(gaps):
        return "conditional_greenlight"
    return "greenlight"


@dataclass(frozen=True)
class SummaryReport:
    audit_id: str
    product_name: str
    stage: Stage
    generated_at: str
    principle_findings: tuple[PrincipleThreat, ...]
    gap_summary: tuple[Diagnostic, ...]
    readiness: tuple[Diagnostic, ...]
    checklist_completeness: Optional[float]
    verdict: str
    conditions: tuple[str, ...]
    adhf_hash: str

    def to_artifact_body(self) -> dict:
        body: dict = {
            "principle_findings": [
                {
                    "principle": f.principle_id,
                    "risk_class": f.risk_class,
                    "unexamined": f.unexamined,
                    "fmea_ids": list(f.fmea_ids),
                }
                for f in self.principle_findings
            ],
            "gap_summary": [
                {
                    "severity": d.severity.value,
                    "code": d.code,
                    "artifact_id": d.artifact_id or "",
                    "path": d.path,
                    "message": d.message,
                }
                for d in self.gap_summary
            ],
            "verdict": self.verdict,
            "conditions": list(self.conditions),
            "adhf_hash": self.adhf_hash,
        }
        if self.checklist_completeness is not None:
            body["checklist_completeness"] = self.checklist_completeness
        return body


def compile_report(repo: "AuditRepository", *, generated_at: str | None = None) -> tuple[SummaryReport, TraceGraph]:
    """Assemble the summary report from the register, graph, and checklist.

    Compilation is deterministic given repository bytes and the injected
    clock; dangling references surface as ``E_DANGLING_REF``.
    """
    stamp = generated_at or clock.now_iso()
    principles = repo.principles()
    register = repo.risk_register()
    matrix = repo.risk_matrix()
    graph = build_graph(repo, generated_at=stamp)
    gaps = find_gaps(graph, register, matrix)

    remediation_docs = repo.by_kind(ArtifactKind.REMEDIATION_PLAN)
    remediation = remediation_docs[0] if remediation_docs else None
    verdict = determine_verdict(
        register, gaps, remediation, matrix, repo.manifest.verdict_blocking_class
    )

    threats = assess_principle_threats(register or RiskRegister(), principles, matrix)
    findings = tuple(threats[p.id] for p in principles)

    completeness: Optional[float] = None
    checklists = repo.by_kind(ArtifactKind.DESIGN_CHECKLIST)
    if checklists:
        report = repo.checklist_report(checklists[0].id)
        if report is not None:
            completeness = report.completeness

    # completeness of the Reflection stage's own outputs, this report excluded
    readiness = [
        d
        for c in check_requirements(repo, Stage.REFLECTION)
        if c.requirement.kind is not ArtifactKind.AUDIT_SUMMARY_REPORT
        for d in c.diagnostics
    ]

    conditions: list[str] = []
    if remediation is not None:
        for item in remediation.body.get("items", []):
            if item.get("status") != "verified" and item.get("action"):
                conditions.append(item["action"])

    return (
        SummaryReport(
            audit_id=repo.manifest.audit_id,
            product_name=repo.manifest.product_name,
            stage=repo.state.current_stage,
            generated_at=stamp,
            principle_findings=findings,
            gap_summary=tuple(gaps),
            readiness=tuple(readiness),
            checklist_completeness=completeness,
            verdict=verdict,
            conditions=tuple(conditions),
            adhf_hash=graph.graph_hash(),
        ),
        graph,
    )


def render_text(report: SummaryReport, repo: "AuditRepository") -> str:
    """Fixed-order text rendering: scope, stakeholders, risks, tests, gaps,
    verdict, conditions."""
    principles = {p.id: p for p in repo.principles()}
    register = repo.risk_register()
    matrix = repo.risk_matrix()
    lines: list[str] = []
    bar = "=" * 64

    lines.append(bar)
    lines.append("AUDIT SUMMARY REPORT")
    lines.append(bar)
    lines.append(f"audit:      {report.audit_id}")
    lines.append(f"product:    {report.product_name or '-'}")
    lines.append(f"stage:      {report.stage.display}")
    lines.append(f"generated:  {report.generated_at}")
    lines.append(f"adhf hash:  {report.adhf_hash}")
    if report.checklist_completeness is not None:
        lines.append(f"checklist:  {report.checklist_completeness:.3f} complete")
    if report.verdict in ("stall", "cancel"):
        lines.append("")
        lines.append(f"*** LAUNCH {report.verdict.upper()}: unresolved blocking risks remain ***")
    lines.append("")

    lines.append("[scope]")
    reviews = repo.by_kind(ArtifactKind.ETHICAL_REVIEW)
    if reviews and reviews[0].body.get("use_case"):
        lines.append(f"use case: {reviews[0].body['use_case']}")
    for p in repo.principles():
        lines.append(f"principle {p.id}: {p.name}")
    lines.append("")

    lines.append("[stakeholders]")
    for doc in repo.by_kind(ArtifactKind.STAKEHOLDER_MAP):
        for person in doc.body.get("stakeholders", []):
            name = person.get("name", "-")
            role = person.get("role", "-")
            contribution = person.get("contribution", "")
            lines.append(f"- {name} ({role}) {contribution}".rstrip())
    lines.append("")

    lines.append("[risks]")
    for f in report.principle_findings:
        label = principles[f.principle_id].name if f.principle_id in principles else f.principle_id
        if f.unexamined:
            lines.append(f"{label}: unexamined")
        else:
            refs = ", ".join(f.fmea_ids)
            lines.append(f"{label}: {f.risk_class} ({refs})")
    if register is not None and register.entries:
        lines.append("register by priority:")
        for e in prioritize_risks(register, matrix):
            lines.append(
                f"  {e.id} severity={e.severity} likelihood={e.likelihood} "
                f"class={e.risk_class(matrix)} status={e.status} {e.failure_mode}"
            )
    lines.append("")

    lines.append("[tests]")
    for doc in repo.by_kind(ArtifactKind.ADVERSARIAL_TESTING_REPORT):
        for case in doc.body.get("test_cases", []):
            trials = case.get("trials", 0) or 0
            failures = case.get("failures", 0) or 0
            rate = failures / trials if trials else 0.0
            lines.append(
                f"- {case.get('id', '-')} target={case.get('target', '-')} "
                f"trials={trials} failures={failures} rate={rate:.3f}"
            )
    lines.append("")

    lines.append("[gaps]")
    for d in report.gap_summary:
        lines.append(d.line())
    for d in report.readiness:
        lines.append(d.line())
    lines.append("")

    lines.append("[verdict]")
    lines.append(report.verdict)
    lines.append("")

    lines.append("[conditions]")
    for i, condition in enumerate(report.conditions, start=1):
        lines.append(f"{i}. {condition}")
    lines.append("")
    return "\n".join(lines)
