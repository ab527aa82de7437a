"""Typed audit artifact documents.

An artifact file is a JSON (or YAML) object with two top-level sections:
``meta`` (shared header fields) and ``body`` (a kind-specific schema).
Parsing is strict: unknown fields, bad types, out-of-domain values, and
content-hash mismatches are all rejected with stable diagnostic codes.
Validation is a separate, pure pass that reports semantic violations as
diagnostics instead of failing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum
from typing import Any, Optional

import json

import yaml

from . import clock
from .canonical import content_hash
from .diagnostics import (
    ArtifactParseError,
    Diagnostic,
    make,
    sort_diagnostics,
)


class Stage(str, Enum):
    """The five audit stages, totally ordered by ``order``; members compare
    as their string values, so compare ``order`` instead."""

    SCOPING = "scoping"
    MAPPING = "mapping"
    ARTIFACT_COLLECTION = "artifact_collection"
    TESTING = "testing"
    REFLECTION = "reflection"

    @property
    def order(self) -> int:
        return _STAGE_ORDER[self]

    @property
    def display(self) -> str:
        return _STAGE_DISPLAY[self]


STAGES: tuple[Stage, ...] = (
    Stage.SCOPING,
    Stage.MAPPING,
    Stage.ARTIFACT_COLLECTION,
    Stage.TESTING,
    Stage.REFLECTION,
)
_STAGE_ORDER = {s: i for i, s in enumerate(STAGES)}
_STAGE_DISPLAY = {
    Stage.SCOPING: "Scoping",
    Stage.MAPPING: "Mapping",
    Stage.ARTIFACT_COLLECTION: "ArtifactCollection",
    Stage.TESTING: "Testing",
    Stage.REFLECTION: "Reflection",
}


def successor(stage: Stage) -> Optional[Stage]:
    i = stage.order + 1
    return STAGES[i] if i < len(STAGES) else None


class ArtifactKind(str, Enum):
    PRINCIPLES_DECLARATION = "PrinciplesDeclaration"
    PRODUCT_REQUIREMENTS_DOC = "ProductRequirementsDoc"
    ETHICAL_REVIEW = "EthicalReview"
    SOCIAL_IMPACT_ASSESSMENT = "SocialImpactAssessment"
    STAKEHOLDER_MAP = "StakeholderMap"
    FIELD_STUDY_REPORT = "FieldStudyReport"
    SYSTEM_MAP = "SystemMap"
    DESIGN_HISTORY_REVIEW = "DesignHistoryReview"
    DESIGN_CHECKLIST = "DesignChecklist"
    MODEL_CARD = "ModelCard"
    DATASHEET = "Datasheet"
    FMEA_REGISTER = "FmeaRegister"
    ADVERSARIAL_TESTING_REPORT = "AdversarialTestingReport"
    ETHICAL_RISK_CHART = "EthicalRiskChart"
    REMEDIATION_PLAN = "RemediationPlan"
    AUDIT_SUMMARY_REPORT = "AuditSummaryReport"


class ProducerRole(str, Enum):
    AUDITOR = "auditor"
    PRODUCT_TEAM = "product_team"
    JOINT = "joint"


class ArtifactStatus(str, Enum):
    DRAFT = "draft"
    FINAL = "final"


# Which role authors each kind by default. Overridable per repository.
DEFAULT_PRODUCERS: dict[ArtifactKind, ProducerRole] = {
    ArtifactKind.PRINCIPLES_DECLARATION: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.PRODUCT_REQUIREMENTS_DOC: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.ETHICAL_REVIEW: ProducerRole.AUDITOR,
    ArtifactKind.SOCIAL_IMPACT_ASSESSMENT: ProducerRole.AUDITOR,
    ArtifactKind.STAKEHOLDER_MAP: ProducerRole.AUDITOR,
    ArtifactKind.FIELD_STUDY_REPORT: ProducerRole.AUDITOR,
    ArtifactKind.SYSTEM_MAP: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.DESIGN_HISTORY_REVIEW: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.DESIGN_CHECKLIST: ProducerRole.AUDITOR,
    ArtifactKind.MODEL_CARD: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.DATASHEET: ProducerRole.PRODUCT_TEAM,
    ArtifactKind.FMEA_REGISTER: ProducerRole.AUDITOR,
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: ProducerRole.AUDITOR,
    ArtifactKind.ETHICAL_RISK_CHART: ProducerRole.AUDITOR,
    ArtifactKind.REMEDIATION_PLAN: ProducerRole.JOINT,
    ArtifactKind.AUDIT_SUMMARY_REPORT: ProducerRole.AUDITOR,
}

# Stage where each kind is authored. FmeaRegister is additionally required
# in final status at Reflection; its file lives under its Mapping home.
KIND_HOME_STAGE: dict[ArtifactKind, Stage] = {
    ArtifactKind.PRINCIPLES_DECLARATION: Stage.SCOPING,
    ArtifactKind.PRODUCT_REQUIREMENTS_DOC: Stage.SCOPING,
    ArtifactKind.ETHICAL_REVIEW: Stage.SCOPING,
    ArtifactKind.SOCIAL_IMPACT_ASSESSMENT: Stage.SCOPING,
    ArtifactKind.STAKEHOLDER_MAP: Stage.MAPPING,
    ArtifactKind.FIELD_STUDY_REPORT: Stage.MAPPING,
    ArtifactKind.SYSTEM_MAP: Stage.MAPPING,
    ArtifactKind.DESIGN_HISTORY_REVIEW: Stage.MAPPING,
    ArtifactKind.FMEA_REGISTER: Stage.MAPPING,
    ArtifactKind.DESIGN_CHECKLIST: Stage.ARTIFACT_COLLECTION,
    ArtifactKind.MODEL_CARD: Stage.ARTIFACT_COLLECTION,
    ArtifactKind.DATASHEET: Stage.ARTIFACT_COLLECTION,
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: Stage.TESTING,
    ArtifactKind.ETHICAL_RISK_CHART: Stage.TESTING,
    ArtifactKind.REMEDIATION_PLAN: Stage.REFLECTION,
    ArtifactKind.AUDIT_SUMMARY_REPORT: Stage.REFLECTION,
}

# Kinds that may appear at most once per repository.
SINGLETON_KINDS = frozenset(
    k
    for k in ArtifactKind
    if k
    not in (
        ArtifactKind.FIELD_STUDY_REPORT,
        ArtifactKind.MODEL_CARD,
        ArtifactKind.DATASHEET,
        ArtifactKind.ADVERSARIAL_TESTING_REPORT,
    )
)

_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


# ---------------------------------------------------------------------------
# schema mini-language

@dataclass(frozen=True)
class Str:
    pass


@dataclass(frozen=True)
class Flag:
    pass


@dataclass(frozen=True)
class Count:
    lo: Optional[int] = None
    hi: Optional[int] = None


@dataclass(frozen=True)
class Real:
    lo: Optional[float] = None
    hi: Optional[float] = None


@dataclass(frozen=True)
class Choice:
    values: tuple[str, ...]


@dataclass(frozen=True)
class Seq:
    item: "Node"


@dataclass(frozen=True)
class Map:
    fields: dict[str, "Node"]


Node = Any  # Str | Flag | Count | Real | Choice | Seq | Map

TRISTATE = Choice(("yes", "no", "unknown"))
ORDINAL = Count(1, 5)

IMPACT_CATEGORIES = (
    "ways_of_life",
    "culture",
    "community",
    "political_systems",
    "environment",
    "health_wellbeing",
    "rights",
    "experiences",
)

# Cross-reference fields shared by every kind: covers_requirements evidences
# requirements from the product requirements doc; supersedes points at a
# replaced artifact id.
_COMMON_FIELDS: dict[str, Node] = {
    "covers_requirements": Seq(Str()),
    "supersedes": Str(),
}


def _schema(fields: dict[str, Node]) -> Map:
    merged = dict(fields)
    merged.update(_COMMON_FIELDS)
    return Map(merged)


SCHEMAS: dict[ArtifactKind, Map] = {
    ArtifactKind.PRINCIPLES_DECLARATION: _schema(
        {
            "principles": Seq(
                Map({"id": Str(), "name": Str(), "description": Str(), "comment": Str()})
            )
        }
    ),
    ArtifactKind.PRODUCT_REQUIREMENTS_DOC: _schema(
        {
            "product_name": Str(),
            "requirements": Seq(Map({"id": Str(), "text": Str(), "derives_from": Seq(Str())})),
        }
    ),
    ArtifactKind.ETHICAL_REVIEW: _schema(
        {
            "use_case": Str(),
            "impacted_groups": Seq(Map({"group": Str(), "impact": Str()})),
            "reviewers": Seq(Map({"name": Str(), "affiliation": Str(), "standpoint": Str()})),
            "board_decision": Choice(("approve", "approve_with_conditions", "reject")),
            "conditions": Seq(Str()),
        }
    ),
    ArtifactKind.SOCIAL_IMPACT_ASSESSMENT: _schema(
        {
            "impact_entries": Seq(
                Map(
                    {
                        "category": Choice(IMPACT_CATEGORIES),
                        "description": Str(),
                        "severity": ORDINAL,
                    }
                )
            ),
            "overall_severity": ORDINAL,
        }
    ),
    ArtifactKind.STAKEHOLDER_MAP: _schema(
        {
            "stakeholders": Seq(
                Map({"name": Str(), "role": Str(), "contact": Str(), "contribution": Str()})
            )
        }
    ),
    ArtifactKind.FIELD_STUDY_REPORT: _schema(
        {
            "interviews": Seq(
                Map({"role": Str(), "transcript_ref": Str(), "findings": Seq(Str())})
            )
        }
    ),
    ArtifactKind.SYSTEM_MAP: _schema(
        {
            "components": Seq(Map({"id": Str(), "name": Str(), "description": Str()})),
            "data_flows": Seq(Map({"source": Str(), "target": Str(), "description": Str()})),
        }
    ),
    ArtifactKind.DESIGN_HISTORY_REVIEW: _schema(
        {
            "documents_reviewed": Seq(Map({"title": Str(), "ref": Str(), "notes": Str()})),
            "gaps_identified": Seq(Str()),
        }
    ),
    ArtifactKind.DESIGN_CHECKLIST: _schema(
        {
            "items": Seq(
                Map(
                    {
                        "id": Str(),
                        "prompt": Str(),
                        "expected_artifact": Str(),
                        "response": Str(),
                        "satisfied": Choice(("yes", "no", "n/a")),
                        "justification": Str(),
                    }
                )
            )
        }
    ),
    ArtifactKind.MODEL_CARD: _schema(
        {
            "model_name": Str(),
            "intended_use": Str(),
            "out_of_scope_uses": Seq(Str()),
            "evaluation_data": Str(),
            "performance_by_group": Seq(
                Map({"group": Str(), "metric_name": Str(), "value": Real()})
            ),
            "limitations": Str(),
        }
    ),
    ArtifactKind.DATASHEET: _schema(
        {
            "dataset_name": Str(),
            "collection_process": Str(),
            "ethical_review_conducted": TRISTATE,
            "relates_to_people": TRISTATE,
            "demographic_breakdown": Seq(
                Map(
                    {
                        "axis": Str(),
                        "groups": Seq(Map({"label": Str(), "fraction": Real(0.0, 1.0)})),
                    }
                )
            ),
        }
    ),
    ArtifactKind.FMEA_REGISTER: _schema(
        {
            "entries": Seq(
                Map(
                    {
                        "id": Str(),
                        "failure_mode": Str(),
                        "effect": Str(),
                        "cause": Str(),
                        "severity": ORDINAL,
                        "likelihood": ORDINAL,
                        "detection": ORDINAL,
                        "threatened_principles": Seq(Str()),
                        "status": Choice(("open", "mitigated", "accepted")),
                        "evidence_refs": Seq(Str()),
                        "rationale": Str(),
                    }
                )
            )
        }
    ),
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: _schema(
        {
            "test_cases": Seq(
                Map(
                    {
                        "id": Str(),
                        "target": Str(),
                        "description": Str(),
                        "trials": Count(0),
                        "failures": Count(0),
                        "notes": Str(),
                        "new_entry": Map(
                            {
                                "id": Str(),
                                "failure_mode": Str(),
                                "effect": Str(),
                                "cause": Str(),
                                "severity": ORDINAL,
                                "likelihood": ORDINAL,
                                "threatened_principles": Seq(Str()),
                            }
                        ),
                    }
                )
            )
        }
    ),
    ArtifactKind.ETHICAL_RISK_CHART: _schema(
        {
            "rows": Seq(
                Map(
                    {
                        "fmea_id": Str(),
                        "severity": ORDINAL,
                        "likelihood": ORDINAL,
                        "risk_class": Choice(("low", "mid", "high")),
                        "rationale": Str(),
                    }
                )
            )
        }
    ),
    ArtifactKind.REMEDIATION_PLAN: _schema(
        {
            "items": Seq(
                Map(
                    {
                        "id": Str(),
                        "fmea_id": Str(),
                        "action": Str(),
                        "owner": Str(),
                        "status": Choice(("planned", "in_progress", "verified", "infeasible")),
                        "notes": Str(),
                    }
                )
            )
        }
    ),
    ArtifactKind.AUDIT_SUMMARY_REPORT: _schema(
        {
            "principle_findings": Seq(
                Map(
                    {
                        "principle": Str(),
                        "risk_class": Choice(("low", "mid", "high")),
                        "unexamined": Flag(),
                        "fmea_ids": Seq(Str()),
                    }
                )
            ),
            "gap_summary": Seq(
                Map(
                    {
                        "severity": Choice(("error", "warning", "info")),
                        "code": Str(),
                        "artifact_id": Str(),
                        "path": Str(),
                        "message": Str(),
                    }
                )
            ),
            "checklist_completeness": Real(0.0, 1.0),
            "verdict": Choice(("greenlight", "conditional_greenlight", "stall", "cancel")),
            "conditions": Seq(Str()),
            "adhf_hash": Str(),
        }
    ),
}


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class ArtifactMeta:
    id: str
    kind: ArtifactKind
    producer: ProducerRole
    stage: Stage
    version: int
    created_at: str
    content_hash: str
    status: ArtifactStatus

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind.value,
            "producer": self.producer.value,
            "stage": self.stage.value,
            "version": self.version,
            "created_at": self.created_at,
            "content_hash": self.content_hash,
            "status": self.status.value,
        }


@dataclass(frozen=True)
class ArtifactDocument:
    meta: ArtifactMeta
    body: dict

    @property
    def id(self) -> str:
        return self.meta.id

    @property
    def kind(self) -> ArtifactKind:
        return self.meta.kind


@dataclass(frozen=True)
class Principle:
    id: str
    name: str
    description: str = ""
    comment: str = ""


def principles_from(doc: ArtifactDocument) -> list[Principle]:
    """Extract the declared principles from a PrinciplesDeclaration."""
    out = []
    for raw in doc.body.get("principles", []):
        out.append(
            Principle(
                id=raw.get("id", ""),
                name=raw.get("name", ""),
                description=raw.get("description", ""),
                comment=raw.get("comment", ""),
            )
        )
    return out


# ---------------------------------------------------------------------------
# parsing

_META_FIELDS = ("id", "kind", "producer", "stage", "version", "created_at", "content_hash", "status")


def _walk(value, node: Node, path: str, diags: list[Diagnostic], artifact_id: str | None) -> Any:
    if isinstance(node, Str):
        if not isinstance(value, str):
            diags.append(make("E_FIELD_TYPE", f"expected a string, got {type(value).__name__}", artifact_id, path))
            return None
        return value
    if isinstance(node, Flag):
        if not isinstance(value, bool):
            diags.append(make("E_FIELD_TYPE", f"expected a boolean, got {type(value).__name__}", artifact_id, path))
            return None
        return value
    if isinstance(node, Count):
        if isinstance(value, bool) or not isinstance(value, int):
            diags.append(make("E_FIELD_TYPE", f"expected an integer, got {type(value).__name__}", artifact_id, path))
            return None
        if (node.lo is not None and value < node.lo) or (node.hi is not None and value > node.hi):
            diags.append(make("E_FIELD_VALUE", f"{value} outside [{node.lo}, {node.hi}]", artifact_id, path))
            return None
        return value
    if isinstance(node, Real):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            diags.append(make("E_FIELD_TYPE", f"expected a number, got {type(value).__name__}", artifact_id, path))
            return None
        out = float(value)
        if not math.isfinite(out):
            diags.append(make("E_FIELD_VALUE", "value must be finite", artifact_id, path))
            return None
        if (node.lo is not None and out < node.lo) or (node.hi is not None and out > node.hi):
            diags.append(make("E_FIELD_VALUE", f"{out} outside [{node.lo}, {node.hi}]", artifact_id, path))
            return None
        return value
    if isinstance(node, Choice):
        if not isinstance(value, str):
            diags.append(make("E_FIELD_TYPE", f"expected a string, got {type(value).__name__}", artifact_id, path))
            return None
        if value not in node.values:
            diags.append(make("E_FIELD_VALUE", f"{value!r} not one of {sorted(node.values)}", artifact_id, path))
            return None
        return value
    if isinstance(node, Seq):
        if not isinstance(value, list):
            diags.append(make("E_FIELD_TYPE", f"expected a list, got {type(value).__name__}", artifact_id, path))
            return None
        return [_walk(v, node.item, f"{path}[{i}]", diags, artifact_id) for i, v in enumerate(value)]
    if isinstance(node, Map):
        if not isinstance(value, dict):
            diags.append(make("E_FIELD_TYPE", f"expected an object, got {type(value).__name__}", artifact_id, path))
            return None
        out: dict = {}
        for key in value:
            kpath = f"{path}.{key}" if path else key
            if not isinstance(key, str) or key not in node.fields:
                diags.append(make("E_UNKNOWN_FIELD", f"field {key!r} is not in the schema", artifact_id, kpath))
                continue
            out[key] = _walk(value[key], node.fields[key], kpath, diags, artifact_id)
        return out
    raise TypeError(f"bad schema node: {node!r}")


def _parse_meta(raw: dict, diags: list[Diagnostic]) -> Optional[ArtifactMeta]:
    artifact_id = raw.get("id") if isinstance(raw.get("id"), str) else None
    for key in raw:
        if key not in _META_FIELDS:
            diags.append(make("E_UNKNOWN_FIELD", f"field {key!r} is not in the schema", artifact_id, f"meta.{key}"))
    missing = [k for k in _META_FIELDS if k not in raw]
    for k in missing:
        diags.append(make("E_FIELD_MISSING", f"meta field {k!r} is required", artifact_id, f"meta.{k}"))
    if missing:
        return None

    ok = True

    def _bad(code: str, msg: str, key: str) -> None:
        nonlocal ok
        ok = False
        diags.append(make(code, msg, artifact_id, f"meta.{key}"))

    if not isinstance(raw["id"], str):
        _bad("E_FIELD_TYPE", "id must be a string", "id")
    elif not _ID_RE.match(raw["id"]):
        _bad("E_FIELD_VALUE", f"id {raw['id']!r} is not a safe identifier", "id")
    try:
        kind = ArtifactKind(raw["kind"])
    except ValueError:
        _bad("E_FIELD_VALUE", f"unknown artifact kind {raw.get('kind')!r}", "kind")
    try:
        producer = ProducerRole(raw["producer"])
    except ValueError:
        _bad("E_FIELD_VALUE", f"unknown producer role {raw.get('producer')!r}", "producer")
    try:
        stage = Stage(raw["stage"])
    except ValueError:
        _bad("E_FIELD_VALUE", f"unknown stage {raw.get('stage')!r}", "stage")
    if isinstance(raw["version"], bool) or not isinstance(raw["version"], int):
        _bad("E_FIELD_TYPE", "version must be an integer", "version")
    elif raw["version"] < 1:
        _bad("E_FIELD_VALUE", "version must be >= 1", "version")
    if not isinstance(raw["created_at"], str):
        _bad("E_FIELD_TYPE", "created_at must be a string", "created_at")
    else:
        try:
            datetime.fromisoformat(raw["created_at"])
        except ValueError:
            _bad("E_FIELD_VALUE", f"created_at is not ISO-8601: {raw['created_at']!r}", "created_at")
    if not isinstance(raw["content_hash"], str):
        _bad("E_FIELD_TYPE", "content_hash must be a string", "content_hash")
    elif not re.fullmatch(r"[0-9a-f]{64}", raw["content_hash"]):
        _bad("E_FIELD_VALUE", "content_hash must be a 64-char lowercase hex digest", "content_hash")
    try:
        status = ArtifactStatus(raw["status"])
    except ValueError:
        _bad("E_FIELD_VALUE", f"unknown status {raw.get('status')!r}", "status")

    if not ok:
        return None
    return ArtifactMeta(
        id=raw["id"],
        kind=kind,
        producer=producer,
        stage=stage,
        version=raw["version"],
        created_at=raw["created_at"],
        content_hash=raw["content_hash"],
        status=status,
    )


def _load_raw(raw_document: bytes | str) -> Any:
    if isinstance(raw_document, bytes):
        try:
            text = raw_document.decode("utf-8")
        except UnicodeDecodeError:
            return None
    else:
        text = raw_document
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return None


def parse_artifact(raw_document: bytes | str, expected_kind: ArtifactKind | None = None) -> ArtifactDocument:
    """Parse one document into a typed artifact, verifying its content hash.

    Raises :class:`ArtifactParseError` carrying one diagnostic per problem.
    JSON is the canonical on-disk encoding; YAML input is accepted and
    canonicalized before hashing.
    """
    data = _load_raw(raw_document)
    if not isinstance(data, dict):
        raise ArtifactParseError([make("E_PARSE", "document is not a structured object")])

    diags: list[Diagnostic] = []
    meta_raw = data.get("meta")
    probe_id = None
    if isinstance(meta_raw, dict) and isinstance(meta_raw.get("id"), str):
        probe_id = meta_raw["id"]
    for key in data:
        if key not in ("meta", "body"):
            diags.append(make("E_UNKNOWN_FIELD", f"field {key!r} is not in the schema", probe_id, key))
    if not isinstance(meta_raw, dict):
        diags.append(make("E_PARSE", "document has no meta object", probe_id, "meta"))
        raise ArtifactParseError(sort_diagnostics(diags))

    meta = _parse_meta(meta_raw, diags)
    if meta is None:
        raise ArtifactParseError(sort_diagnostics(diags))

    if expected_kind is not None and meta.kind is not expected_kind:
        diags.append(
            make(
                "E_KIND_MISMATCH",
                f"expected {expected_kind.value}, found {meta.kind.value}",
                meta.id,
                "meta.kind",
            )
        )

    body_raw = data.get("body", {})
    body = _walk(body_raw, SCHEMAS[meta.kind], "body", diags, meta.id)
    if isinstance(body, dict):
        actual = content_hash(body)
        if actual != meta.content_hash:
            diags.append(
                make(
                    "E_HASH_MISMATCH",
                    f"content hash is {actual}, header says {meta.content_hash}",
                    meta.id,
                    "meta.content_hash",
                )
            )
    if diags:
        raise ArtifactParseError(sort_diagnostics(diags))
    return ArtifactDocument(meta=meta, body=body)


def serialize_artifact(doc: ArtifactDocument) -> bytes:
    """Render an artifact to its on-disk JSON form (stable key order)."""
    payload = {"meta": doc.meta.to_dict(), "body": doc.body}
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")


def make_artifact(
    kind: ArtifactKind,
    artifact_id: str,
    body: dict,
    *,
    stage: Stage | None = None,
    producer: ProducerRole | None = None,
    status: ArtifactStatus | str = ArtifactStatus.DRAFT,
    version: int = 1,
    created_at: str | None = None,
) -> ArtifactDocument:
    """Assemble an artifact with a computed content hash and role defaults."""
    meta = ArtifactMeta(
        id=artifact_id,
        kind=kind,
        producer=producer or DEFAULT_PRODUCERS[kind],
        stage=stage or KIND_HOME_STAGE[kind],
        version=version,
        created_at=created_at or clock.now_iso(),
        content_hash=content_hash(body),
        status=ArtifactStatus(status),
    )
    return ArtifactDocument(meta=meta, body=body)


def rehash(doc: ArtifactDocument) -> ArtifactDocument:
    """Return the document with its content hash recomputed from the body."""
    return ArtifactDocument(meta=replace(doc.meta, content_hash=content_hash(doc.body)), body=doc.body)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ValidationConfig:
    """Tunable thresholds for semantic checks, set from the manifest."""

    skew_threshold: float = 4.0
    fraction_tolerance: float = 0.02


DEFAULT_VALIDATION = ValidationConfig()


def _axis_is_skewed(fractions: list[float], threshold: float) -> bool:
    """Skew test on the odds ratio between the largest and smallest group.

    Degenerate axes (fewer than two groups) always count as skewed. The
    comparison is cross-multiplied so zero and one fractions need no special
    casing.
    """
    if len(fractions) < 2:
        return True
    fmax, fmin = max(fractions), min(fractions)
    return fmax * (1.0 - fmin) > threshold * fmin * (1.0 - fmax)


def validate_artifact(
    artifact: ArtifactDocument,
    principles: list[Principle],
    config: ValidationConfig | None = None,
) -> list[Diagnostic]:
    """Pure semantic validation of one parsed artifact.

    Returns every invariant violation as a diagnostic, sorted by
    (artifact_id, path, code). Cross-artifact invariants (chart versus
    register, checklist claims, reference resolution) are handled at the
    repository and trace layers, not here.
    """
    cfg = config or DEFAULT_VALIDATION
    known = {p.id for p in principles}
    body = artifact.body
    aid = artifact.id
    out: list[Diagnostic] = []

    def check_principle_refs(ids, path_fmt):
        for i, pid in enumerate(ids):
            if pid not in known:
                out.append(make("E_PRINCIPLE_UNKNOWN", f"principle {pid!r} is not declared", aid, path_fmt.format(i=i)))

    kind = artifact.kind
    if kind is ArtifactKind.PRINCIPLES_DECLARATION:
        entries = body.get("principles", [])
        if not entries:
            out.append(make("E_PD_NO_PRINCIPLES", "declare at least one principle", aid, "body.principles"))
        seen: set[str] = set()
        for i, p in enumerate(entries):
            pid = p.get("id", "")
            if not pid:
                out.append(make("E_PD_PRINCIPLE_ID", "principle needs an id", aid, f"body.principles[{i}].id"))
            elif pid in seen:
                out.append(make("E_PD_DUP_PRINCIPLE", f"principle id {pid!r} repeats", aid, f"body.principles[{i}].id"))
            else:
                seen.add(pid)
            if not p.get("name"):
                out.append(make("E_PD_PRINCIPLE_NAME", "principle needs a name", aid, f"body.principles[{i}].name"))

    elif kind is ArtifactKind.PRODUCT_REQUIREMENTS_DOC:
        seen = set()
        for i, req in enumerate(body.get("requirements", [])):
            rid = req.get("id", "")
            if not rid:
                out.append(make("E_PRD_REQ_ID", "requirement needs an id", aid, f"body.requirements[{i}].id"))
            elif rid in seen:
                out.append(make("E_PRD_DUP_REQ", f"requirement id {rid!r} repeats", aid, f"body.requirements[{i}].id"))
            else:
                seen.add(rid)
            if not req.get("text"):
                out.append(make("E_PRD_REQ_TEXT", "requirement has no text", aid, f"body.requirements[{i}].text"))
            check_principle_refs(req.get("derives_from", []), f"body.requirements[{i}].derives_from[{{i}}]")

    elif kind is ArtifactKind.ETHICAL_REVIEW:
        if not body.get("impacted_groups"):
            out.append(make("E_ER_NO_IMPACTED_GROUPS", "record who is impacted and how", aid, "body.impacted_groups"))
        decision = body.get("board_decision")
        if decision is None:
            out.append(make("E_ER_NO_DECISION", "record the review board decision", aid, "body.board_decision"))
        elif decision == "approve":
            standpoints = {r.get("standpoint", "") for r in body.get("reviewers", [])} - {""}
            if len(standpoints) < 2:
                out.append(
                    make(
                        "E_ER_STANDPOINTS",
                        "approval needs reviewers from at least two distinct standpoints",
                        aid,
                        "body.reviewers",
                    )
                )

    elif kind is ArtifactKind.SOCIAL_IMPACT_ASSESSMENT:
        entries = body.get("impact_entries", [])
        if not entries:
            out.append(make("E_SIA_NO_ENTRIES", "assess at least one impact", aid, "body.impact_entries"))
        severities = []
        for i, e in enumerate(entries):
            sev = e.get("severity")
            if sev is None:
                out.append(make("E_SIA_SEVERITY", "impact entry needs a severity", aid, f"body.impact_entries[{i}].severity"))
            else:
                severities.append(sev)
        if entries and len(severities) == len(entries):
            expected = max(severities)
            if body.get("overall_severity") != expected:
                out.append(
                    make(
                        "E_SIA_OVERALL_MAX",
                        f"overall severity must be {expected}",
                        aid,
                        "body.overall_severity",
                    )
                )

    elif kind is ArtifactKind.MODEL_CARD:
        if not body.get("intended_use", "").strip():
            out.append(make("E_MC_INTENDED_USE", "model card must state the intended use", aid, "body.intended_use"))

    elif kind is ArtifactKind.DATASHEET:
        if not body.get("collection_process", "").strip():
            out.append(make("E_DS_COLLECTION", "describe how the data was collected", aid, "body.collection_process"))
        for i, axis in enumerate(body.get("demographic_breakdown", [])):
            fractions = [g.get("fraction", 0.0) for g in axis.get("groups", [])]
            name = axis.get("axis", f"axis {i}")
            if fractions:
                total = sum(fractions)
                if abs(total - 1.0) > cfg.fraction_tolerance + 1e-12:
                    out.append(
                        make(
                            "E_DS_FRACTION_SUM",
                            f"axis {name!r} fractions sum to {total:.3f}",
                            aid,
                            f"body.demographic_breakdown[{i}]",
                        )
                    )
            if fractions and _axis_is_skewed(fractions, cfg.skew_threshold):
                out.append(
                    make(
                        "W_DS_SKEW",
                        f"axis {name!r} is heavily skewed",
                        aid,
                        f"body.demographic_breakdown[{i}]",
                    )
                )

    elif kind is ArtifactKind.DESIGN_CHECKLIST:
        seen = set()
        for i, item in enumerate(body.get("items", [])):
            iid = item.get("id", "")
            if iid and iid in seen:
                out.append(make("E_CL_DUP_ID", f"item id {iid!r} repeats", aid, f"body.items[{i}].id"))
            seen.add(iid)
            if not item.get("prompt", "").strip():
                out.append(make("E_CL_PROMPT_EMPTY", "item needs a prompt", aid, f"body.items[{i}].prompt"))
            if item.get("satisfied") == "n/a" and not item.get("justification", "").strip():
                out.append(
                    make(
                        "E_CL_NA_JUSTIFICATION",
                        "n/a items need a justification",
                        aid,
                        f"body.items[{i}].justification",
                    )
                )
            expected = item.get("expected_artifact")
            if expected is not None and expected not in {k.value for k in ArtifactKind}:
                out.append(
                    make(
                        "E_CL_BAD_KIND",
                        f"{expected!r} is not an artifact kind",
                        aid,
                        f"body.items[{i}].expected_artifact",
                    )
                )

    elif kind is ArtifactKind.FMEA_REGISTER:
        seen = set()
        for i, e in enumerate(body.get("entries", [])):
            eid = e.get("id", "")
            if not eid:
                out.append(make("E_FMEA_ENTRY_ID", "risk entry needs an id", aid, f"body.entries[{i}].id"))
            elif eid in seen:
                out.append(make("E_FMEA_DUP_ID", f"entry id {eid!r} repeats", aid, f"body.entries[{i}].id"))
            else:
                seen.add(eid)
            threatened = e.get("threatened_principles", [])
            if not threatened:
                out.append(
                    make(
                        "E_FMEA_NO_PRINCIPLES",
                        "name at least one threatened principle",
                        aid,
                        f"body.entries[{i}].threatened_principles",
                    )
                )
            check_principle_refs(threatened, f"body.entries[{i}].threatened_principles[{{i}}]")

    elif kind is ArtifactKind.ADVERSARIAL_TESTING_REPORT:
        for i, case in enumerate(body.get("test_cases", [])):
            if not case.get("id"):
                out.append(make("E_ATR_CASE_ID", "test case needs an id", aid, f"body.test_cases[{i}].id"))
            target = case.get("target", "")
            if not target:
                out.append(make("E_ATR_NO_TARGET", "test case needs a target risk id or 'new'", aid, f"body.test_cases[{i}].target"))
            trials = case.get("trials", 0)
            failures = case.get("failures", 0)
            if trials is not None and trials < 1:
                out.append(make("E_ATR_NO_TRIALS", "run at least one trial", aid, f"body.test_cases[{i}].trials"))
            if trials is not None and failures is not None and failures > trials:
                out.append(make("E_ATR_COUNTS", f"{failures} failures in {trials} trials", aid, f"body.test_cases[{i}].failures"))
            if target == "new":
                new = case.get("new_entry")
                if not new or not new.get("id") or new.get("severity") is None or not new.get("threatened_principles"):
                    out.append(
                        make(
                            "E_ATR_NEW_ENTRY",
                            "new-risk cases need an entry with id, severity, and threatened principles",
                            aid,
                            f"body.test_cases[{i}].new_entry",
                        )
                    )
                elif new.get("threatened_principles"):
                    check_principle_refs(new["threatened_principles"], f"body.test_cases[{i}].new_entry.threatened_principles[{{i}}]")

    elif kind is ArtifactKind.ETHICAL_RISK_CHART:
        for i, row in enumerate(body.get("rows", [])):
            if not row.get("fmea_id"):
                out.append(make("E_RC_ROW_ID", "row needs a risk entry id", aid, f"body.rows[{i}].fmea_id"))
            if row.get("severity") is None or row.get("likelihood") is None or row.get("risk_class") is None:
                out.append(
                    make(
                        "E_RC_ROW_INCOMPLETE",
                        "row needs severity, likelihood, and risk_class",
                        aid,
                        f"body.rows[{i}]",
                    )
                )

    elif kind is ArtifactKind.REMEDIATION_PLAN:
        seen = set()
        for i, item in enumerate(body.get("items", [])):
            iid = item.get("id", "")
            if not iid:
                out.append(make("E_RP_ITEM_ID", "remediation item needs an id", aid, f"body.items[{i}].id"))
            elif iid in seen:
                out.append(make("E_RP_DUP_ID", f"item id {iid!r} repeats", aid, f"body.items[{i}].id"))
            else:
                seen.add(iid)
            if not item.get("fmea_id"):
                out.append(make("E_RP_NO_TARGET", "item must name the risk it mitigates", aid, f"body.items[{i}].fmea_id"))
            if not item.get("action", "").strip():
                out.append(make("E_RP_NO_ACTION", "item needs an action", aid, f"body.items[{i}].action"))

    elif kind is ArtifactKind.AUDIT_SUMMARY_REPORT:
        if body.get("verdict") is None:
            out.append(make("E_SR_NO_VERDICT", "summary report needs a verdict", aid, "body.verdict"))
        for i, finding in enumerate(body.get("principle_findings", [])):
            pid = finding.get("principle", "")
            if pid and pid not in known:
                out.append(make("E_PRINCIPLE_UNKNOWN", f"principle {pid!r} is not declared", aid, f"body.principle_findings[{i}].principle"))

    return sort_diagnostics(out)
