"""Design checklist operations: inventory verification and question lint."""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .artifacts import ArtifactDocument
from .diagnostics import Diagnostic, make, sort_diagnostics

if TYPE_CHECKING:
    from .repository import AuditRepository

# First tokens that mark a prompt as a closed (yes/no) question. A
# heuristic, not a grammar: configurable through the manifest.
CLOSED_QUESTION_VERBS = frozenset(
    {
        "is", "are", "was", "were",
        "do", "does", "did",
        "can", "could", "will", "would", "should",
        "has", "have", "had",
    }
)


@dataclass(frozen=True)
class ChecklistItem:
    id: str
    prompt: str
    expected_artifact: Optional[str] = None
    response: str = ""
    satisfied: str = "no"
    justification: str = ""

    @staticmethod
    def from_record(rec: dict) -> "ChecklistItem":
        return ChecklistItem(
            id=rec.get("id", ""),
            prompt=rec.get("prompt", ""),
            expected_artifact=rec.get("expected_artifact"),
            response=rec.get("response", ""),
            satisfied=rec.get("satisfied", "no"),
            justification=rec.get("justification", ""),
        )


@dataclass(frozen=True)
class ChecklistReport:
    total: int
    satisfied_count: int
    na_count: int
    completeness: float
    diagnostics: tuple[Diagnostic, ...]
    lint_findings: tuple[Diagnostic, ...]


def items_from(doc: ArtifactDocument) -> list[ChecklistItem]:
    return [ChecklistItem.from_record(r) for r in doc.body.get("items", [])]


def _first_token(prompt: str) -> str:
    parts = prompt.strip().split(None, 1)
    if not parts:
        return ""
    return parts[0].strip(string.punctuation).lower()


def lint_questions(
    doc: ArtifactDocument,
    verbs: frozenset[str] | set[str] = CLOSED_QUESTION_VERBS,
) -> list[Diagnostic]:
    """Flag prompts that open with a yes/no verb, in prompt order."""
    out = []
    for i, item in enumerate(items_from(doc)):
        if _first_token(item.prompt) in verbs:
            out.append(
                make(
                    "W_CLOSED_QUESTION",
                    f"rephrase {item.prompt.strip()!r} as an open question",
                    doc.id,
                    f"body.items[{i}].prompt",
                )
            )
    return out


def verify_inventory(
    doc: ArtifactDocument,
    repo: "AuditRepository",
    verbs: frozenset[str] | set[str] = CLOSED_QUESTION_VERBS,
) -> ChecklistReport:
    """Check the documentation inventory claims against the repository.

    Items that expect an artifact kind count as satisfied only when they are
    claimed satisfied and at least one artifact of that kind is present and
    free of validation errors. A claimed `yes` without such an artifact is a
    false claim. Prompts are linted against ``verbs``.
    """
    items = items_from(doc)
    diags: list[Diagnostic] = []
    satisfied = 0
    na = 0
    for i, item in enumerate(items):
        if item.satisfied == "n/a":
            na += 1
            continue
        ok = item.satisfied == "yes"
        if item.expected_artifact is not None:
            present = repo.kind_is_satisfied(item.expected_artifact)
            if item.satisfied == "yes" and not present:
                diags.append(
                    make(
                        "E_CHECKLIST_FALSE_CLAIM",
                        f"claimed satisfied but no valid {item.expected_artifact} exists",
                        doc.id,
                        f"body.items[{i}]",
                    )
                )
            ok = ok and present
        if ok:
            satisfied += 1
    total = len(items)
    if total == 0:
        diags.append(make("W_EMPTY_CHECKLIST", "checklist has no items", doc.id, "body.items"))
        completeness = 1.0
    elif total == na:
        completeness = 1.0
    else:
        completeness = satisfied / (total - na)
    return ChecklistReport(
        total=total,
        satisfied_count=satisfied,
        na_count=na,
        completeness=completeness,
        diagnostics=tuple(sort_diagnostics(diags)),
        lint_findings=tuple(lint_questions(doc, verbs)),
    )
