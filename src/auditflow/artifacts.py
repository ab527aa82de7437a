"""Typed audit artifact documents.

An artifact file is a JSON (or YAML) object with two top-level sections:
``meta`` (shared header fields) and ``body`` (a kind-specific schema).
Parsing is strict: unknown fields, bad types, out-of-domain values, and
content-hash mismatches are all rejected with stable diagnostic codes. The
schema is checked on the decoded body in place, and the content hash only
on a body that fits the schema, so a misfit value is not reported again as
a hash mismatch. Validation is a separate, pure pass that reports semantic
violations as diagnostics instead of failing. Its single-field rules are
annotations on the schema: ``need`` (the field is present and not blank),
``unique`` (no two list items share an id) and ``ref`` (the value names a
declared principle), found by the walk that checks the body and kept on the
document; the few rules that relate several fields are one function per kind.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum
from functools import cached_property
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
#
# A schema is a tree of nodes. Parsing checks types, domains and unknown
# fields against it: each node builds its ``check`` once, and ``check(value,
# parent, key, misfits, findings)`` tests one decoded value in place, calling
# the checks of its children. It appends each misfit as (code, message,
# parent, key) and builds no diagnostic. ``parent`` and ``key`` place the
# value without rendering its path: ``key`` is "body" at the root, ".name"
# for a field and an int for a list position, and ``parent`` is the (parent,
# key) pair of the value holding it (None at the root). ``_render_path`` gives
# the path text, so only a diagnostic renders one. Three annotations carry the
# generic validation rules; the walk appends their findings in the same shape:
#   need=(code, message)  on Str, Count, Choice and Seq: the field must be
#                         present and not None, [] or blank after strip();
#   unique=(code, label)  on a Seq of Maps: no two items share a non-blank id;
#   ref=True              on Str: the value names a declared principle (its
#                         finding has code None and the value as message).
# Rules that relate several fields live in ``_CROSS_FIELD_RULES``.

Rule = Optional[tuple[str, str]]  # (diagnostic code, message or label)
Where = Optional[tuple]  # (parent, key) of a value holding another, None above the root
Misfit = tuple[str, str, Where, "str | int"]  # (code, message, parent, key)
Finding = tuple[Optional[str], str, Where, "str | int"]


def _render_path(parent: Where, key: str | int) -> str:
    """The path text of the value at ``key`` under ``parent``, e.g. ``body.items[0].id``.

    A field's key is already ".name", an integer YAML key's too (".1"), so an
    int key is always a list position and renders as "[i]".
    """
    parts = []
    while parent is not None:
        parts.append(key if isinstance(key, str) else f"[{key}]")
        parent, key = parent
    parts.append(key)
    return "".join(reversed(parts))


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _blank(value) -> bool:
    """Absent, None, [] or blank after strip(): what a ``need`` rule rejects."""
    return not value.strip() if isinstance(value, str) else value is None or value == []


def _mistyped(expected: str, value, parent: Where, key: str | int, misfits: list[Misfit]) -> None:
    misfits.append(("E_FIELD_TYPE", f"expected {expected}, got {type(value).__name__}", parent, key))


@dataclass(frozen=True)
class Str:
    need: Rule = None
    ref: bool = False

    @cached_property
    def check(self):
        ref = self.ref

        def check(value, parent, key, misfits, findings):
            if not isinstance(value, str):
                _mistyped("a string", value, parent, key, misfits)
            elif ref:
                findings.append((None, value, parent, key))

        return check


@dataclass(frozen=True)
class Flag:
    @cached_property
    def check(self):
        def check(value, parent, key, misfits, findings):
            if not isinstance(value, bool):
                _mistyped("a boolean", value, parent, key, misfits)

        return check


@dataclass(frozen=True)
class Count:
    lo: Optional[int] = None
    hi: Optional[int] = None
    need: Rule = None

    @cached_property
    def check(self):
        lo, hi = self.lo, self.hi

        def check(value, parent, key, misfits, findings):
            if isinstance(value, bool) or not isinstance(value, int):
                _mistyped("an integer", value, parent, key, misfits)
            elif (lo is not None and value < lo) or (hi is not None and value > hi):
                misfits.append(("E_FIELD_VALUE", f"{value} outside [{lo}, {hi}]", parent, key))

        return check


@dataclass(frozen=True)
class Real:
    lo: Optional[float] = None
    hi: Optional[float] = None

    @cached_property
    def check(self):
        lo, hi = self.lo, self.hi

        def check(value, parent, key, misfits, findings):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                _mistyped("a number", value, parent, key, misfits)
            elif not _finite(value):
                misfits.append(("E_FIELD_VALUE", "value must be finite", parent, key))
            elif (lo is not None and value < lo) or (hi is not None and value > hi):
                misfits.append(("E_FIELD_VALUE", f"{float(value)} outside [{lo}, {hi}]", parent, key))

        return check


@dataclass(frozen=True)
class Choice:
    values: tuple[str, ...]
    need: Rule = None

    @cached_property
    def check(self):
        values, allowed = frozenset(self.values), sorted(self.values)

        def check(value, parent, key, misfits, findings):
            if not isinstance(value, str):
                _mistyped("a string", value, parent, key, misfits)
            elif value not in values:
                misfits.append(("E_FIELD_VALUE", f"{value!r} not one of {allowed}", parent, key))

        return check


@dataclass(frozen=True)
class Seq:
    item: "Node"
    need: Rule = None
    unique: Rule = None

    @cached_property
    def check(self):
        check_item, unique = self.item.check, self.unique

        def check(value, parent, key, misfits, findings):
            if not isinstance(value, list):
                _mistyped("a list", value, parent, key, misfits)
                return
            here = (parent, key)
            for i, item in enumerate(value):
                check_item(item, here, i, misfits, findings)
            if unique:
                seen: set[str] = set()
                for i, item in enumerate(value):  # a misfit item or id takes no part
                    iid = item.get("id") if isinstance(item, dict) else None
                    if isinstance(iid, str) and iid.strip():
                        if iid in seen:
                            findings.append((unique[0], f"{unique[1]} {iid!r} repeats", (here, i), ".id"))
                        seen.add(iid)

        return check


@dataclass(frozen=True)
class Map:
    fields: dict[str, "Node"]

    @cached_property
    def check(self):
        fields = {name: (node.check, "." + name) for name, node in self.fields.items()}
        needs = [(name, "." + name, node.need) for name, node in self.fields.items() if getattr(node, "need", None)]

        def check(value, parent, key, misfits, findings):
            if not isinstance(value, dict):
                _mistyped("an object", value, parent, key, misfits)
                return
            here = (parent, key)
            for name, item in value.items():
                child = fields.get(name)
                if child is None:  # an integer YAML key too renders as ".1"
                    misfits.append(("E_UNKNOWN_FIELD", f"field {name!r} is not in the schema", here, f".{name}"))
                else:
                    child[0](item, here, child[1], misfits, findings)
            for name, dotted, (code, message) in needs:
                if _blank(value.get(name)):
                    findings.append((code, message, here, dotted))

        return check


Node = Any  # Str | Flag | Count | Real | Choice | Seq | Map

TRISTATE = Choice(("yes", "no", "unknown"))
ORDINAL = Count(1, 5)
PRINCIPLE_REF = Str(ref=True)

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
                Map(
                    {
                        "id": Str(need=("E_PD_PRINCIPLE_ID", "principle needs an id")),
                        "name": Str(need=("E_PD_PRINCIPLE_NAME", "principle needs a name")),
                        "description": Str(),
                        "comment": Str(),
                    }
                ),
                need=("E_PD_NO_PRINCIPLES", "declare at least one principle"),
                unique=("E_PD_DUP_PRINCIPLE", "principle id"),
            )
        }
    ),
    ArtifactKind.PRODUCT_REQUIREMENTS_DOC: _schema(
        {
            "product_name": Str(),
            "requirements": Seq(
                Map(
                    {
                        "id": Str(need=("E_PRD_REQ_ID", "requirement needs an id")),
                        "text": Str(need=("E_PRD_REQ_TEXT", "requirement has no text")),
                        "derives_from": Seq(PRINCIPLE_REF),
                    }
                ),
                unique=("E_PRD_DUP_REQ", "requirement id"),
            ),
        }
    ),
    ArtifactKind.ETHICAL_REVIEW: _schema(
        {
            "use_case": Str(),
            "impacted_groups": Seq(
                Map({"group": Str(), "impact": Str()}),
                need=("E_ER_NO_IMPACTED_GROUPS", "record who is impacted and how"),
            ),
            "reviewers": Seq(Map({"name": Str(), "affiliation": Str(), "standpoint": Str()})),
            "board_decision": Choice(
                ("approve", "approve_with_conditions", "reject"),
                need=("E_ER_NO_DECISION", "record the review board decision"),
            ),
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
                        "severity": Count(1, 5, need=("E_SIA_SEVERITY", "impact entry needs a severity")),
                    }
                ),
                need=("E_SIA_NO_ENTRIES", "assess at least one impact"),
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
                        "prompt": Str(need=("E_CL_PROMPT_EMPTY", "item needs a prompt")),
                        "expected_artifact": Str(),
                        "response": Str(),
                        "satisfied": Choice(("yes", "no", "n/a")),
                        "justification": Str(),
                    }
                ),
                unique=("E_CL_DUP_ID", "item id"),
            )
        }
    ),
    ArtifactKind.MODEL_CARD: _schema(
        {
            "model_name": Str(),
            "intended_use": Str(need=("E_MC_INTENDED_USE", "model card must state the intended use")),
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
            "collection_process": Str(need=("E_DS_COLLECTION", "describe how the data was collected")),
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
                        "id": Str(need=("E_FMEA_ENTRY_ID", "risk entry needs an id")),
                        "failure_mode": Str(),
                        "effect": Str(),
                        "cause": Str(),
                        "severity": ORDINAL,
                        "likelihood": ORDINAL,
                        "detection": ORDINAL,
                        "threatened_principles": Seq(
                            PRINCIPLE_REF,
                            need=("E_FMEA_NO_PRINCIPLES", "name at least one threatened principle"),
                        ),
                        "status": Choice(("open", "mitigated", "accepted")),
                        "evidence_refs": Seq(Str()),
                        "rationale": Str(),
                    }
                ),
                unique=("E_FMEA_DUP_ID", "entry id"),
            )
        }
    ),
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: _schema(
        {
            "test_cases": Seq(
                Map(
                    {
                        "id": Str(need=("E_ATR_CASE_ID", "test case needs an id")),
                        "target": Str(need=("E_ATR_NO_TARGET", "test case needs a target risk id or 'new'")),
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
                        "fmea_id": Str(need=("E_RC_ROW_ID", "row needs a risk entry id")),
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
                        "id": Str(need=("E_RP_ITEM_ID", "remediation item needs an id")),
                        "fmea_id": Str(need=("E_RP_NO_TARGET", "item must name the risk it mitigates")),
                        "action": Str(need=("E_RP_NO_ACTION", "item needs an action")),
                        "owner": Str(),
                        "status": Choice(("planned", "in_progress", "verified", "infeasible")),
                        "notes": Str(),
                    }
                ),
                unique=("E_RP_DUP_ID", "item id"),
            )
        }
    ),
    ArtifactKind.AUDIT_SUMMARY_REPORT: _schema(
        {
            "principle_findings": Seq(
                Map(
                    {
                        "principle": PRINCIPLE_REF,
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
            "verdict": Choice(
                ("greenlight", "conditional_greenlight", "stall", "cancel"),
                need=("E_SR_NO_VERDICT", "summary report needs a verdict"),
            ),
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
    findings: list[Finding] = field(compare=False, repr=False)  # of ``body`` when its hash was fixed

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


# The members of each meta enum by value: ``Enum(value)`` finds a member only
# for a string equal to its value, and a lookup here costs less.
_KINDS = {k.value: k for k in ArtifactKind}
_PRODUCERS = {r.value: r for r in ProducerRole}
_STAGES = {s.value: s for s in Stage}
_STATUSES = {s.value: s for s in ArtifactStatus}
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def _member(members: dict, value):
    return members.get(value) if isinstance(value, str) else None


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

    found = len(diags)

    def _bad(code: str, msg: str, key: str) -> None:
        diags.append(make(code, msg, artifact_id, f"meta.{key}"))

    if not isinstance(raw["id"], str):
        _bad("E_FIELD_TYPE", "id must be a string", "id")
    elif not _ID_RE.match(raw["id"]):
        _bad("E_FIELD_VALUE", f"id {raw['id']!r} is not a safe identifier", "id")
    kind = _member(_KINDS, raw["kind"])
    if kind is None:
        _bad("E_FIELD_VALUE", f"unknown artifact kind {raw['kind']!r}", "kind")
    producer = _member(_PRODUCERS, raw["producer"])
    if producer is None:
        _bad("E_FIELD_VALUE", f"unknown producer role {raw['producer']!r}", "producer")
    stage = _member(_STAGES, raw["stage"])
    if stage is None:
        _bad("E_FIELD_VALUE", f"unknown stage {raw['stage']!r}", "stage")
    version = raw["version"]
    if isinstance(version, bool) or not isinstance(version, int):
        _bad("E_FIELD_TYPE", "version must be an integer", "version")
    elif version < 1:
        _bad("E_FIELD_VALUE", "version must be >= 1", "version")
    created_at = raw["created_at"]
    if not isinstance(created_at, str):
        _bad("E_FIELD_TYPE", "created_at must be a string", "created_at")
    else:
        try:
            datetime.fromisoformat(created_at)
        except ValueError:
            _bad("E_FIELD_VALUE", f"created_at is not ISO-8601: {created_at!r}", "created_at")
    digest = raw["content_hash"]
    if not isinstance(digest, str):
        _bad("E_FIELD_TYPE", "content_hash must be a string", "content_hash")
    elif not _DIGEST_RE.fullmatch(digest):
        _bad("E_FIELD_VALUE", "content_hash must be a 64-char lowercase hex digest", "content_hash")
    status = _member(_STATUSES, raw["status"])
    if status is None:
        _bad("E_FIELD_VALUE", f"unknown status {raw['status']!r}", "status")

    if len(diags) > found:
        return None
    return ArtifactMeta(raw["id"], kind, producer, stage, version, created_at, digest, status)


class _YamlLoader(yaml.SafeLoader):
    """PyYAML's safe loader, giving up on a deep flow collection early.

    The scanner's cost per token grows with the number of open flow
    collections, so a few KB of ``[`` take about a second to reject. The
    composer runs out of stack near 490 levels anyway, so no document past
    ``MAX_FLOW_DEPTH`` could load; the loader raises the composer's
    ``RecursionError`` there without scanning further.
    """

    MAX_FLOW_DEPTH = 500

    def fetch_flow_collection_start(self, TokenClass):
        if self.flow_level >= self.MAX_FLOW_DEPTH:
            raise RecursionError(f"more than {self.MAX_FLOW_DEPTH} nested flow collections")
        super().fetch_flow_collection_start(TokenClass)


def _load_raw(raw_document: bytes | str) -> Any:
    """The decoded document; None when it is neither UTF-8 JSON nor YAML."""
    if isinstance(raw_document, bytes):
        try:
            text = raw_document.decode("utf-8")
        except UnicodeDecodeError:
            return None
    else:
        text = raw_document
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:  # not JSON
            pass
        try:
            return yaml.load(text, Loader=_YamlLoader)
        except yaml.YAMLError:
            return None
    except RecursionError:
        raise ArtifactParseError([make("E_PARSE", "document nests too deeply")]) from None
    except ValueError as exc:
        if "int_max_str_digits" not in str(exc):  # e.g. a YAML timestamp naming no real date
            return None
        limit = sys.get_int_max_str_digits()
        raise ArtifactParseError([make("E_PARSE", f"an integer has more than {limit} digits")]) from None


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

    body = data.get("body", {})
    misfits, findings = _walk(meta.kind, body)
    for code, message, parent, key in misfits:
        diags.append(make(code, message, meta.id, _render_path(parent, key)))
    if not misfits:  # hash only a body that fits the schema
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
    return ArtifactDocument(meta, body, findings)


def _walk(kind: ArtifactKind, body: Any) -> tuple[list[Misfit], list[Finding]]:
    misfits: list[Misfit] = []
    findings: list[Finding] = []
    SCHEMAS[kind].check(body, None, "body", misfits, findings)
    return misfits, findings


def serialize_artifact(doc: ArtifactDocument) -> bytes:
    """Render an artifact to its on-disk JSON form (stable key order)."""
    return (_pretty({"meta": doc.meta.to_dict(), "body": doc.body}, "", {}) + "\n").encode("utf-8")


# The on-disk form is ``json.dumps(value, **_ON_DISK)``. With an indent, json
# encodes through its pure-Python generator, one call per token; ``_pretty``
# gives the same text and hands every string to json's C quoting function.
_ON_DISK = {"indent": 2, "sort_keys": True, "ensure_ascii": False, "allow_nan": False}
_quote = json.encoder.encode_basestring  # what json quotes with when not ensure_ascii
_int_text = int.__repr__
_float_text = float.__repr__


def _pretty(value: Any, pad: str, labels: dict[str, str]) -> str:
    """``value`` in its on-disk form, nested under the indent ``pad``.

    ``labels`` keeps each key's rendered ``"key": `` for the whole document,
    since the entries of a list share their keys.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if kind is dict:
            items = []
            for key in sorted(value):
                try:
                    label = labels[key]
                except KeyError:
                    if type(key) is not str:
                        return _pretty_by_json(value, pad)
                    label = labels[key] = _quote(key) + ": "
                item = value[key]
                of = type(item)  # the two commonest leaves, rendered without a recursive call
                if of is str:
                    items.append(label + _quote(item))
                elif of is int:
                    items.append(label + _int_text(item))
                else:
                    items.append(label + _pretty(item, inner, labels))
            return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
        try:
            text = sep.join(map(_quote, value))
        except TypeError:  # not a list of strings
            text = sep.join([_pretty(item, inner, labels) for item in value])
        return "[\n" + inner + text + "\n" + pad + "]"
    if kind is int:
        return _int_text(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if kind is float and math.isfinite(value):
        return _float_text(value)
    return _pretty_by_json(value, pad)


def _pretty_by_json(value: Any, pad: str) -> str:
    """What ``_pretty`` leaves to json (tuples, subclasses, keys that are not
    strings, NaN): json's own text, re-indented. It is exact because a
    rendered string never holds a raw newline, and it raises what json raises."""
    return json.dumps(value, **_ON_DISK).replace("\n", "\n" + pad)


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
    return ArtifactDocument(meta, body, _walk(kind, body)[1])


def rehash(doc: ArtifactDocument) -> ArtifactDocument:
    """Return the document with its content hash, and its findings if the body was edited, recomputed."""
    digest = content_hash(doc.body)
    if digest == doc.meta.content_hash:
        return doc
    return ArtifactDocument(replace(doc.meta, content_hash=digest), doc.body, _walk(doc.kind, doc.body)[1])


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


def _review_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    if body.get("board_decision") == "approve":
        standpoints = {r.get("standpoint") for r in body.get("reviewers", [])}
        if len([s for s in standpoints if not _blank(s)]) < 2:
            message = "approval needs reviewers from at least two distinct standpoints"
            out.append(make("E_ER_STANDPOINTS", message, aid, "body.reviewers"))


def _impact_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    severities = [e.get("severity") for e in body.get("impact_entries", [])]
    if severities and None not in severities:
        expected = max(severities)
        if body.get("overall_severity") != expected:
            out.append(make("E_SIA_OVERALL_MAX", f"overall severity must be {expected}", aid, "body.overall_severity"))


def _datasheet_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    for i, axis in enumerate(body.get("demographic_breakdown", [])):
        fractions = [g.get("fraction", 0.0) for g in axis.get("groups", [])]
        if not fractions:
            continue
        name = axis.get("axis", f"axis {i}")
        path = f"body.demographic_breakdown[{i}]"
        total = sum(fractions)
        if abs(total - 1.0) > cfg.fraction_tolerance + 1e-12:
            out.append(make("E_DS_FRACTION_SUM", f"axis {name!r} fractions sum to {total:.3f}", aid, path))
        if _axis_is_skewed(fractions, cfg.skew_threshold):
            out.append(make("W_DS_SKEW", f"axis {name!r} is heavily skewed", aid, path))


_KIND_NAMES = frozenset(k.value for k in ArtifactKind)


def _checklist_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    for i, item in enumerate(body.get("items", [])):
        if item.get("satisfied") == "n/a" and _blank(item.get("justification")):
            out.append(
                make("E_CL_NA_JUSTIFICATION", "n/a items need a justification", aid, f"body.items[{i}].justification")
            )
        expected = item.get("expected_artifact")
        if expected is not None and expected not in _KIND_NAMES:
            out.append(
                make("E_CL_BAD_KIND", f"{expected!r} is not an artifact kind", aid, f"body.items[{i}].expected_artifact")
            )


def _testing_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    for i, case in enumerate(body.get("test_cases", [])):
        path = f"body.test_cases[{i}]"
        trials = case.get("trials", 0)
        failures = case.get("failures", 0)
        if trials is not None and trials < 1:
            out.append(make("E_ATR_NO_TRIALS", "run at least one trial", aid, f"{path}.trials"))
        if trials is not None and failures is not None and failures > trials:
            out.append(make("E_ATR_COUNTS", f"{failures} failures in {trials} trials", aid, f"{path}.failures"))
        if case.get("target") != "new":
            continue
        new = case.get("new_entry")
        if not new or _blank(new.get("id")) or new.get("severity") is None or not new.get("threatened_principles"):
            out.append(
                make(
                    "E_ATR_NEW_ENTRY",
                    "new-risk cases need an entry with id, severity, and threatened principles",
                    aid,
                    f"{path}.new_entry",
                )
            )
        else:  # refs only when the target is "new", so the schema walk cannot find them
            for j, ref in enumerate(new["threatened_principles"]):
                if ref not in known:
                    message = f"principle {ref!r} is not declared"
                    out.append(make("E_PRINCIPLE_UNKNOWN", message, aid, f"{path}.new_entry.threatened_principles[{j}]"))


def _chart_rules(body: dict, aid: str, cfg: ValidationConfig, known: set[str], out: list[Diagnostic]) -> None:
    for i, row in enumerate(body.get("rows", [])):
        if row.get("severity") is None or row.get("likelihood") is None or row.get("risk_class") is None:
            out.append(
                make("E_RC_ROW_INCOMPLETE", "row needs severity, likelihood, and risk_class", aid, f"body.rows[{i}]")
            )


# Rules that relate several fields of one body; the single-field rules are
# annotations on SCHEMAS.
_CROSS_FIELD_RULES = {
    ArtifactKind.ETHICAL_REVIEW: _review_rules,
    ArtifactKind.SOCIAL_IMPACT_ASSESSMENT: _impact_rules,
    ArtifactKind.DATASHEET: _datasheet_rules,
    ArtifactKind.DESIGN_CHECKLIST: _checklist_rules,
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: _testing_rules,
    ArtifactKind.ETHICAL_RISK_CHART: _chart_rules,
}


def validate_artifact(
    artifact: ArtifactDocument,
    principles: list[Principle],
    config: ValidationConfig | None = None,
) -> list[Diagnostic]:
    """Pure semantic validation of one parsed artifact.

    Returns every invariant violation as a diagnostic, sorted by
    (artifact_id, path, code): the document's need / unique / ref findings,
    each ref resolved against ``principles``, then the kind's cross-field
    rules. Cross-artifact invariants (chart versus register, checklist
    claims, reference resolution) are handled at the repository and trace
    layers, not here.
    """
    known = {p.id for p in principles}
    out: list[Diagnostic] = []
    for code, message, parent, key in artifact.findings:
        if code is None:  # a principle ref
            if message in known:
                continue
            code, message = "E_PRINCIPLE_UNKNOWN", f"principle {message!r} is not declared"
        out.append(make(code, message, artifact.id, _render_path(parent, key)))
    rules = _CROSS_FIELD_RULES.get(artifact.kind)
    if rules is not None:
        rules(artifact.body, artifact.id, config or DEFAULT_VALIDATION, known, out)
    return sort_diagnostics(out)
