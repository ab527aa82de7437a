"""Five-stage audit workflow with gated transitions.

A gate for a target stage demands that every stage strictly before it has
its required artifacts present, at the required status, authored by the
required role, and free of validation errors. ``check_requirements`` is the
one evaluator of that rule; the gate, ``status`` and the report's readiness
lines all read it. Passing gates are recorded in an append-only log inside
``state.lock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import clock
from .artifacts import (
    ArtifactDocument,
    ArtifactKind,
    ArtifactStatus,
    DEFAULT_PRODUCERS,
    KIND_HOME_STAGE,
    ProducerRole,
    STAGES,
    Stage,
    successor,
)
from .canonical import content_hash
from .diagnostics import AuditError, Diagnostic, format_lines, has_errors, make, sort_diagnostics

if TYPE_CHECKING:
    from .repository import AuditRepository


@dataclass(frozen=True)
class RequiredArtifact:
    kind: ArtifactKind
    producer: ProducerRole
    min_status: ArtifactStatus


@dataclass(frozen=True)
class WorkflowConfig:
    """Effective workflow settings resolved from the manifest."""

    profile: str = "full"
    stage_requirements: dict = field(default_factory=dict)  # Stage -> list[RequiredArtifact]
    role_overrides: dict = field(default_factory=dict)  # ArtifactKind -> ProducerRole


def _req(kind: ArtifactKind, status: ArtifactStatus = ArtifactStatus.FINAL) -> RequiredArtifact:
    return RequiredArtifact(kind=kind, producer=DEFAULT_PRODUCERS[kind], min_status=status)


_FULL_REQUIREMENTS: dict[Stage, tuple[RequiredArtifact, ...]] = {
    Stage.SCOPING: (
        _req(ArtifactKind.PRINCIPLES_DECLARATION),
        _req(ArtifactKind.PRODUCT_REQUIREMENTS_DOC),
        _req(ArtifactKind.ETHICAL_REVIEW),
        _req(ArtifactKind.SOCIAL_IMPACT_ASSESSMENT),
    ),
    Stage.MAPPING: (
        _req(ArtifactKind.STAKEHOLDER_MAP),
        _req(ArtifactKind.SYSTEM_MAP),
        _req(ArtifactKind.DESIGN_HISTORY_REVIEW),
        _req(ArtifactKind.FIELD_STUDY_REPORT),
        _req(ArtifactKind.FMEA_REGISTER, ArtifactStatus.DRAFT),
    ),
    Stage.ARTIFACT_COLLECTION: (
        _req(ArtifactKind.DESIGN_CHECKLIST),
        _req(ArtifactKind.MODEL_CARD),
        _req(ArtifactKind.DATASHEET),
    ),
    Stage.TESTING: (
        _req(ArtifactKind.ADVERSARIAL_TESTING_REPORT),
        _req(ArtifactKind.ETHICAL_RISK_CHART),
    ),
    Stage.REFLECTION: (
        _req(ArtifactKind.FMEA_REGISTER),
        _req(ArtifactKind.REMEDIATION_PLAN),
        _req(ArtifactKind.AUDIT_SUMMARY_REPORT),
    ),
}

# The lighter-weight formulation drops the field study and system map.
_LIGHT_DROPS = frozenset({ArtifactKind.FIELD_STUDY_REPORT, ArtifactKind.SYSTEM_MAP})

PROFILES = ("full", "light")


def required_artifacts(stage: Stage, config: WorkflowConfig | None = None) -> list[RequiredArtifact]:
    """Required (kind, producer, min_status) triples for one stage (a table lookup)."""
    cfg = config or WorkflowConfig()
    if stage in cfg.stage_requirements:
        reqs = list(cfg.stage_requirements[stage])
    else:
        reqs = list(_FULL_REQUIREMENTS[stage])
        if cfg.profile == "light":
            reqs = [r for r in reqs if r.kind not in _LIGHT_DROPS]
    out = []
    for r in reqs:
        producer = cfg.role_overrides.get(r.kind, r.producer)
        out.append(RequiredArtifact(kind=r.kind, producer=producer, min_status=r.min_status))
    return out


def validate_config(cfg: WorkflowConfig) -> None:
    """Reject contradictory requirement tables.

    A kind may be required in at most one stage; the risk register alone is
    allowed its draft-at-Mapping, final-at-Reflection double appearance.
    """
    if cfg.profile not in PROFILES:
        raise AuditError("E_CONFIG", f"unknown profile {cfg.profile!r}")
    stages_by_kind: dict[ArtifactKind, list[Stage]] = {}
    for stage in STAGES:
        for r in required_artifacts(stage, cfg):
            stages_by_kind.setdefault(r.kind, []).append(stage)
    for kind, stages in stages_by_kind.items():
        limit = 2 if kind is ArtifactKind.FMEA_REGISTER else 1
        if len(stages) > limit:
            raise AuditError(
                "E_CONFIG",
                f"{kind.value} required in more than {limit} stage(s): "
                + ", ".join(s.value for s in stages),
            )


def effective_home_stages(config: WorkflowConfig | None = None) -> dict[ArtifactKind, Stage]:
    """Stage each kind belongs to: the earliest stage that requires it."""
    cfg = config or WorkflowConfig()
    homes = dict(KIND_HOME_STAGE)
    seen: dict[ArtifactKind, Stage] = {}
    for stage in STAGES:
        for r in required_artifacts(stage, cfg):
            seen.setdefault(r.kind, stage)
    homes.update(seen)
    return homes


@dataclass(frozen=True)
class GateLogEntry:
    stage: Stage
    timestamp: str
    result: str
    diagnostics_hash: str
    waived: bool = False

    def to_dict(self) -> dict:
        return {
            "stage": self.stage.value,
            "timestamp": self.timestamp,
            "result": self.result,
            "diagnostics_hash": self.diagnostics_hash,
            "waived": self.waived,
        }

    @staticmethod
    def from_dict(raw: dict) -> "GateLogEntry":
        entry = GateLogEntry(
            stage=Stage(raw["stage"]),
            timestamp=raw["timestamp"],
            result=raw["result"],
            diagnostics_hash=raw["diagnostics_hash"],
            waived=bool(raw.get("waived", False)),
        )
        if not all(isinstance(v, str) for v in (entry.timestamp, entry.result, entry.diagnostics_hash)):
            raise TypeError("gate log timestamp, result and diagnostics_hash must be strings")
        return entry


@dataclass(frozen=True)
class WorkflowState:
    current_stage: Stage = Stage.SCOPING
    gate_log: tuple[GateLogEntry, ...] = ()

    def to_dict(self) -> dict:
        return {
            "current_stage": self.current_stage.value,
            "gate_log": [e.to_dict() for e in self.gate_log],
        }

    @staticmethod
    def from_dict(raw: dict) -> "WorkflowState":
        state = WorkflowState(
            current_stage=Stage(raw.get("current_stage", Stage.SCOPING.value)),
            gate_log=tuple(GateLogEntry.from_dict(e) for e in raw.get("gate_log", [])),
        )
        passed = tuple(e.stage for e in state.gate_log if e.result == "pass")
        if passed != STAGES[1 : len(passed) + 1]:
            raise AuditError("E_STATE_INVALID", "gate log must pass the gates in stage order, each once, from Mapping")
        if state.current_stage is not (passed[-1] if passed else Stage.SCOPING):
            raise AuditError("E_STATE_INVALID", f"current stage {state.current_stage.value!r} is not the last gate passed")
        return state


@dataclass(frozen=True)
class GateResult:
    target: Stage
    passed: bool
    diagnostics: tuple[Diagnostic, ...]

    def diagnostics_hash(self) -> str:
        return content_hash(format_lines(self.diagnostics))


@dataclass(frozen=True)
class RequirementCheck:
    """One stage requirement against the repository: the documents of its
    kind and what is wrong with them; no diagnostics means it is met."""

    requirement: RequiredArtifact
    docs: tuple[ArtifactDocument, ...]
    diagnostics: tuple[Diagnostic, ...]


def check_requirements(repo: "AuditRepository", stage: Stage) -> list[RequirementCheck]:
    """Evaluate each requirement of ``stage``: the kind is present, and every
    instance has the minimum status, the required producer and no
    validation errors."""
    out: list[RequirementCheck] = []
    for req in required_artifacts(stage, repo.workflow_config()):
        docs = tuple(repo.by_kind(req.kind))
        diags: list[Diagnostic] = []
        if not docs:
            diags.append(
                make(
                    "E_GATE_MISSING",
                    f"{req.kind.value} required for {stage.display} is absent",
                    None,
                    f"stage.{stage.value}",
                )
            )
        for doc in docs:
            if req.min_status is ArtifactStatus.FINAL and doc.meta.status is ArtifactStatus.DRAFT:
                diags.append(
                    make(
                        "E_GATE_STATUS",
                        f"{req.kind.value} must be {req.min_status.value}, found {doc.meta.status.value}",
                        doc.id,
                        "meta.status",
                    )
                )
            if doc.meta.producer is not req.producer:
                diags.append(
                    make(
                        "E_GATE_PRODUCER",
                        f"{req.kind.value} must come from {req.producer.value}, found {doc.meta.producer.value}",
                        doc.id,
                        "meta.producer",
                    )
                )
            errors = repo.artifact_errors(doc.id)
            if errors:
                diags.append(
                    make("E_GATE_INVALID", f"{req.kind.value} has {len(errors)} validation error(s)", doc.id, "")
                )
        out.append(RequirementCheck(req, docs, tuple(diags)))
    return out


def check_gate(repo: "AuditRepository", target: Stage, *, waive_checklist: bool = False) -> GateResult:
    """Evaluate whether the repository may enter ``target``.

    Checks the requirements of every stage strictly before the target. Two
    cross-cutting rules apply as well: the design checklist must be complete
    before Testing (waivable), and at the Reflection gate every open high
    risk must carry either a covering test case or a written rationale.
    """
    diags: list[Diagnostic] = []
    for stage in STAGES[: target.order]:
        for check in check_requirements(repo, stage):
            diags.extend(check.diagnostics)

    if target.order > Stage.ARTIFACT_COLLECTION.order:
        diags.extend(_checklist_rule(repo, waive_checklist))
        diags.extend(_scored_rule(repo))
    if target is Stage.REFLECTION:
        diags.extend(_untested_high_risk_rule(repo))

    ordered = tuple(sort_diagnostics(diags))
    return GateResult(target=target, passed=not has_errors(ordered), diagnostics=ordered)


def _checklist_rule(repo: "AuditRepository", waived: bool) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for doc in repo.by_kind(ArtifactKind.DESIGN_CHECKLIST):
        report = repo.checklist_report(doc.id)
        if report is None:
            continue
        if report.completeness < 1.0:
            code = "W_GATE_CHECKLIST_WAIVED" if waived else "E_GATE_CHECKLIST"
            out.append(
                make(
                    code,
                    f"checklist completeness {report.completeness:.3f} of required 1.000",
                    doc.id,
                    "body.items",
                )
            )
        out.extend(report.diagnostics)
    return out


def _scored_rule(repo: "AuditRepository") -> list[Diagnostic]:
    out: list[Diagnostic] = []
    register = repo.risk_register()
    if register is None:
        return out
    doc = repo.register_doc()
    for e in register.entries:
        if not e.scored:
            out.append(
                make(
                    "E_RISK_UNSCORED",
                    f"entry {e.id} needs severity and likelihood before Testing",
                    doc.id if doc else None,
                    f"body.entries.{e.id}",
                )
            )
    return out


def _untested_high_risk_rule(repo: "AuditRepository") -> list[Diagnostic]:
    out: list[Diagnostic] = []
    register = repo.risk_register()
    if register is None:
        return out
    doc = repo.register_doc()
    covered = repo.tested_risk_ids()
    matrix = repo.risk_matrix()
    for e in register.open_entries():
        if not e.scored or e.risk_class(matrix) != "high":
            continue
        if e.id not in covered and not e.rationale.strip():
            out.append(
                make(
                    "E_UNTESTED_RISK",
                    f"open high risk {e.id} has no covering test case and no rationale",
                    doc.id if doc else None,
                    f"body.entries.{e.id}",
                )
            )
    return out


def advance_stage(
    repo: "AuditRepository",
    target: Stage,
    *,
    waive_checklist: bool = False,
    timestamp: str | None = None,
) -> WorkflowState:
    """Move the workflow to ``target`` if it is next and its gate passes."""
    state = repo.state
    expected = successor(state.current_stage)
    if expected is None or target is not expected:
        raise AuditError(
            "E_STAGE_SKIP",
            f"cannot advance from {state.current_stage.display} to {target.display}",
        )
    result = check_gate(repo, target, waive_checklist=waive_checklist)
    if not result.passed:
        raise AuditError(
            "E_GATE_FAILED",
            f"gate for {target.display} failed with "
            f"{sum(1 for d in result.diagnostics if d.severity.value == 'error')} error(s)",
            result.diagnostics,
        )
    entry = GateLogEntry(
        stage=target,
        timestamp=timestamp or clock.now_iso(),
        result="pass",
        diagnostics_hash=result.diagnostics_hash(),
        waived=waive_checklist,
    )
    new_state = WorkflowState(current_stage=target, gate_log=state.gate_log + (entry,))
    repo.save_state(new_state)
    return new_state
