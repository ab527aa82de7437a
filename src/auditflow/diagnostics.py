"""Machine-readable findings and the published diagnostic code registry.

Every validation pass in the tool reports problems as :class:`Diagnostic`
values rather than raising, so callers can render, count, or gate on them.
Codes are stable strings drawn from :data:`CODES`; the line format is

    SEVERITY CODE artifact_id path message

sorted by (artifact_id, path, code), newline-terminated, UTF-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


# code -> (severity, short description)
CODES: dict[str, tuple[Severity, str]] = {
    # document parsing
    "E_PARSE": (Severity.ERROR, "document is not well formed"),
    "E_KIND_MISMATCH": (Severity.ERROR, "document kind differs from the expected kind"),
    "E_UNKNOWN_FIELD": (Severity.ERROR, "field is not part of the schema"),
    "E_FIELD_MISSING": (Severity.ERROR, "required field is absent"),
    "E_FIELD_TYPE": (Severity.ERROR, "field has the wrong type"),
    "E_FIELD_VALUE": (Severity.ERROR, "field value is outside its domain"),
    "E_HASH_MISMATCH": (Severity.ERROR, "content hash does not match the body"),
    # artifact validation
    "E_PD_NO_PRINCIPLES": (Severity.ERROR, "principles declaration has no principles"),
    "E_PD_DUP_PRINCIPLE": (Severity.ERROR, "duplicate principle id"),
    "E_PD_PRINCIPLE_ID": (Severity.ERROR, "principle is missing an id"),
    "E_PD_PRINCIPLE_NAME": (Severity.ERROR, "principle is missing a display name"),
    "E_PRD_REQ_ID": (Severity.ERROR, "requirement is missing an id"),
    "E_PRD_DUP_REQ": (Severity.ERROR, "duplicate requirement id"),
    "E_PRD_REQ_TEXT": (Severity.ERROR, "requirement has no text"),
    "E_ER_NO_IMPACTED_GROUPS": (Severity.ERROR, "ethical review lists no impacted groups"),
    "E_ER_NO_DECISION": (Severity.ERROR, "ethical review records no board decision"),
    "E_ER_STANDPOINTS": (Severity.ERROR, "approval requires reviewers from at least two standpoints"),
    "E_SIA_NO_ENTRIES": (Severity.ERROR, "social impact assessment has no entries"),
    "E_SIA_SEVERITY": (Severity.ERROR, "impact entry has no severity"),
    "E_SIA_OVERALL_MAX": (Severity.ERROR, "overall severity must equal the maximum entry severity"),
    "E_MC_INTENDED_USE": (Severity.ERROR, "model card has an empty intended use"),
    "E_DS_COLLECTION": (Severity.ERROR, "datasheet does not describe the collection process"),
    "E_DS_FRACTION_SUM": (Severity.ERROR, "axis fractions do not sum to 1.0 within tolerance"),
    "W_DS_SKEW": (Severity.WARNING, "axis demographic breakdown is heavily skewed"),
    "E_CL_PROMPT_EMPTY": (Severity.ERROR, "checklist item has an empty prompt"),
    "E_CL_NA_JUSTIFICATION": (Severity.ERROR, "item marked n/a without a justification"),
    "E_CL_BAD_KIND": (Severity.ERROR, "expected_artifact names an unknown artifact kind"),
    "E_CL_DUP_ID": (Severity.ERROR, "duplicate checklist item id"),
    "E_FMEA_ENTRY_ID": (Severity.ERROR, "risk entry is missing an id"),
    "E_FMEA_DUP_ID": (Severity.ERROR, "duplicate risk entry id"),
    "E_FMEA_NO_PRINCIPLES": (Severity.ERROR, "risk entry threatens no principle"),
    "E_PRINCIPLE_UNKNOWN": (Severity.ERROR, "referenced principle id is not declared"),
    "E_ATR_CASE_ID": (Severity.ERROR, "test case is missing an id"),
    "E_ATR_NO_TARGET": (Severity.ERROR, "test case names no target risk"),
    "E_ATR_NO_TRIALS": (Severity.ERROR, "test case ran zero trials"),
    "E_ATR_COUNTS": (Severity.ERROR, "failures exceed trials"),
    "E_ATR_NEW_ENTRY": (Severity.ERROR, "new-risk test case lacks a usable entry payload"),
    "E_RC_ROW_ID": (Severity.ERROR, "risk chart row names no risk entry"),
    "E_RC_ROW_INCOMPLETE": (Severity.ERROR, "risk chart row lacks severity, likelihood, or class"),
    "E_RC_CLASS_MISMATCH": (Severity.ERROR, "risk chart class disagrees with the classification matrix"),
    "E_RC_MISSING_ROW": (Severity.ERROR, "open risk entry has no chart row"),
    "E_RC_STALE_ROW": (Severity.ERROR, "risk chart row disagrees with the current register"),
    "E_RC_UNKNOWN_ENTRY": (Severity.ERROR, "risk chart row references an unknown register entry"),
    "E_RP_ITEM_ID": (Severity.ERROR, "remediation item is missing an id"),
    "E_RP_DUP_ID": (Severity.ERROR, "duplicate remediation item id"),
    "E_RP_NO_TARGET": (Severity.ERROR, "remediation item names no risk entry"),
    "E_RP_NO_ACTION": (Severity.ERROR, "remediation item has no action"),
    "E_SR_NO_VERDICT": (Severity.ERROR, "summary report records no verdict"),
    # repository level
    "E_DUP_ID": (Severity.ERROR, "artifact id used by more than one document"),
    "E_DUP_KIND": (Severity.ERROR, "more than one artifact of a single-instance kind"),
    "E_STAGE_MISMATCH": (Severity.ERROR, "artifact stage differs from the kind's assigned stage"),
    "E_PATH_MISMATCH": (Severity.ERROR, "artifact stored under the wrong stage directory"),
    "E_NO_PRINCIPLES": (Severity.ERROR, "no principles declaration found in the repository"),
    "E_CHECKLIST_FALSE_CLAIM": (Severity.ERROR, "item claimed satisfied but the expected artifact is missing or invalid"),
    "W_EMPTY_CHECKLIST": (Severity.WARNING, "checklist has no items"),
    "W_CLOSED_QUESTION": (Severity.WARNING, "prompt opens with a yes/no verb"),
    # workflow gates
    "E_GATE_MISSING": (Severity.ERROR, "required artifact is absent"),
    "E_GATE_STATUS": (Severity.ERROR, "required artifact has not reached the required status"),
    "E_GATE_PRODUCER": (Severity.ERROR, "artifact produced by the wrong role"),
    "E_GATE_INVALID": (Severity.ERROR, "required artifact fails validation"),
    "E_GATE_CHECKLIST": (Severity.ERROR, "design checklist is incomplete"),
    "W_GATE_CHECKLIST_WAIVED": (Severity.WARNING, "incomplete checklist waived for this gate"),
    "E_RISK_UNSCORED": (Severity.ERROR, "risk entry has no severity or likelihood score"),
    "E_UNTESTED_RISK": (Severity.ERROR, "open high risk has neither a covering test nor a rationale"),
    "E_GATE_FAILED": (Severity.ERROR, "gate check did not pass"),
    "E_STAGE_SKIP": (Severity.ERROR, "target stage is not the immediate successor"),
    "E_STATE_INVALID": (Severity.ERROR, "workflow state file is inconsistent"),
    # traceability
    "E_DANGLING_REF": (Severity.ERROR, "reference to an id that does not exist"),
    "E_TRACE_CYCLE": (Severity.ERROR, "supersedes chain forms a cycle"),
    "W_UNTESTED_RISK": (Severity.WARNING, "open high risk has no covering test case"),
    "W_UNMITIGATED_FAILURE": (Severity.WARNING, "failed test case has no mitigation path"),
    "W_UNEXAMINED_PRINCIPLE": (Severity.WARNING, "principle has no incident risk or requirement edges"),
    "E_ORPHAN_REQUIREMENT": (Severity.ERROR, "requirement has no evidencing artifact"),
    "E_HISTORY_GAP": (Severity.ERROR, "artifact content changed without a recorded version"),
    "E_TRAIL_INVALID": (Severity.ERROR, "trail log line is not a trail record"),
    # reporting
    "E_MISSING_REMEDIATION": (Severity.ERROR, "no remediation plan for open high risks"),
    # configuration and lifecycle
    "E_CONFIG": (Severity.ERROR, "manifest configuration is contradictory or malformed"),
    "E_EXISTS": (Severity.ERROR, "target path already contains files"),
    "E_RANGE": (Severity.ERROR, "ordinal value outside 1..5"),
    "E_UNKNOWN_FMEA_ID": (Severity.ERROR, "test case targets an unknown risk entry"),
    "E_VERSION_REUSED": (Severity.ERROR, "artifact version rewritten with different content"),
    "E_LOCKED": (Severity.ERROR, "repository is locked by another writer"),
    "E_REPO": (Severity.ERROR, "path is not an audit repository"),
    "E_IO": (Severity.ERROR, "file could not be read or written"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a location, and a human message."""

    code: str
    severity: Severity
    message: str
    artifact_id: Optional[str] = None
    path: str = ""

    def sort_key(self) -> tuple:
        return (self.artifact_id or "", self.path, self.code, self.message)

    def line(self) -> str:
        return " ".join(
            (
                self.severity.value.upper(),
                self.code,
                self.artifact_id or "-",
                self.path or "-",
                self.message,
            )
        )


def make(code: str, message: str, artifact_id: str | None = None, path: str = "") -> Diagnostic:
    """Build a diagnostic, taking the severity from the code registry."""
    if code not in CODES:
        raise KeyError(f"diagnostic code not registered: {code}")
    return Diagnostic(code=code, severity=CODES[code][0], message=message, artifact_id=artifact_id, path=path)


def sort_diagnostics(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def format_lines(diags: Iterable[Diagnostic]) -> str:
    """Render diagnostics in the sorted machine line format."""
    return "".join(d.line() + "\n" for d in sort_diagnostics(diags))


def has_errors(diags: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


class AuditError(Exception):
    """Operation failure carrying a stable code and optional diagnostics."""

    def __init__(self, code: str, message: str, diagnostics: Sequence[Diagnostic] = ()):
        if code not in CODES:
            raise KeyError(f"diagnostic code not registered: {code}")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.diagnostics = list(diagnostics)


class ArtifactParseError(AuditError):
    """Raised when a document cannot be parsed into a typed artifact."""

    def __init__(self, diagnostics: Sequence[Diagnostic], message: str = "document failed to parse"):
        first = diagnostics[0].code if diagnostics else "E_PARSE"
        super().__init__(first, message, diagnostics)
