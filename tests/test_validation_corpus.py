"""Behaviour lock for per-artifact validation: a mutation corpus.

For each kind a few seeded random bodies are mutated at every position: the
key is deleted; a string is set to ``""``, ``"  "``, an undeclared id, a
declared principle id, ``"approve"``, ``"new"`` or ``"n/a"``; an integer to 0,
1, 2 or 99; a list to ``[]`` or to itself with its first item duplicated.
Each mutant goes through ``serialize_artifact``/``parse_artifact`` as a file
on disk would, and is recorded as its parse codes or as the lines of
``validate_artifact``. ``tests/golden/validation_corpus.txt`` holds the
expected record, so any change in what validation reports on these inputs
fails here.

Regenerate after an intended change with
``PYTHONPATH=src python -m tests.test_validation_corpus`` and review the diff.
"""

from __future__ import annotations

import copy
import difflib
import random
import zlib
from pathlib import Path

from auditflow.artifacts import (
    ArtifactKind,
    make_artifact,
    parse_artifact,
    rehash,
    serialize_artifact,
    validate_artifact,
)
from auditflow.diagnostics import ArtifactParseError, format_lines

from .genutil import SAMPLE_PRINCIPLES, random_body

GOLDEN = Path(__file__).resolve().parent / "golden" / "validation_corpus.txt"

# Bodies per kind: the fewest seeded bodies whose mutants show every code
# the kind can emit (kinds with no body rules keep one body).
BODIES = {
    ArtifactKind.PRINCIPLES_DECLARATION: 2,
    ArtifactKind.PRODUCT_REQUIREMENTS_DOC: 2,
    ArtifactKind.ETHICAL_REVIEW: 1,
    ArtifactKind.SOCIAL_IMPACT_ASSESSMENT: 1,
    ArtifactKind.STAKEHOLDER_MAP: 1,
    ArtifactKind.FIELD_STUDY_REPORT: 1,
    ArtifactKind.SYSTEM_MAP: 1,
    ArtifactKind.DESIGN_HISTORY_REVIEW: 1,
    ArtifactKind.DESIGN_CHECKLIST: 1,
    ArtifactKind.MODEL_CARD: 1,
    ArtifactKind.DATASHEET: 4,
    ArtifactKind.FMEA_REGISTER: 2,
    ArtifactKind.ADVERSARIAL_TESTING_REPORT: 4,
    ArtifactKind.ETHICAL_RISK_CHART: 1,
    ArtifactKind.REMEDIATION_PLAN: 2,
    ArtifactKind.AUDIT_SUMMARY_REPORT: 1,
}

# Every code validate_artifact can emit.
VALIDATION_CODES = {
    "E_PD_NO_PRINCIPLES", "E_PD_PRINCIPLE_ID", "E_PD_DUP_PRINCIPLE", "E_PD_PRINCIPLE_NAME",
    "E_PRD_REQ_ID", "E_PRD_DUP_REQ", "E_PRD_REQ_TEXT", "E_PRINCIPLE_UNKNOWN",
    "E_ER_NO_IMPACTED_GROUPS", "E_ER_NO_DECISION", "E_ER_STANDPOINTS",
    "E_SIA_NO_ENTRIES", "E_SIA_SEVERITY", "E_SIA_OVERALL_MAX",
    "E_MC_INTENDED_USE",
    "E_DS_COLLECTION", "E_DS_FRACTION_SUM", "W_DS_SKEW",
    "E_CL_DUP_ID", "E_CL_PROMPT_EMPTY", "E_CL_NA_JUSTIFICATION", "E_CL_BAD_KIND",
    "E_FMEA_ENTRY_ID", "E_FMEA_DUP_ID", "E_FMEA_NO_PRINCIPLES",
    "E_ATR_CASE_ID", "E_ATR_NO_TARGET", "E_ATR_NO_TRIALS", "E_ATR_COUNTS", "E_ATR_NEW_ENTRY",
    "E_RC_ROW_ID", "E_RC_ROW_INCOMPLETE",
    "E_RP_ITEM_ID", "E_RP_DUP_ID", "E_RP_NO_TARGET", "E_RP_NO_ACTION",
    "E_SR_NO_VERDICT",
}

STRINGS = ("", "  ", "undeclared-id", "privacy", "approve", "new", "n/a")
INTS = (0, 1, 2, 99)
DELETE = object()


def _path_text(path: tuple) -> str:
    out = "body"
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}"
    return out


def _positions(value, path: tuple = ()):
    """(path, value) for every position below ``value``, parents first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for step, child in items:
        yield path + (step,), child
        yield from _positions(child, path + (step,))


def _mutations(path: tuple, value):
    if isinstance(path[-1], str):
        yield "del", DELETE
    if isinstance(value, str):
        for text in STRINGS:
            yield f"={text!r}", text
    elif isinstance(value, int) and not isinstance(value, bool):
        for number in INTS:
            yield f"={number}", number
    elif isinstance(value, list):
        yield "=[]", []
        if value:
            yield "dup", [value[0]] + value


def _mutant(body: dict, path: tuple, new) -> dict:
    out = copy.deepcopy(body)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)
    return out


def _record(kind: ArtifactKind, body: dict) -> list[str]:
    doc = make_artifact(kind, "art-x", body, created_at="2026-01-01T00:00:00+00:00")
    try:
        parsed = parse_artifact(serialize_artifact(doc))
    except ArtifactParseError as exc:
        return ["parse " + " ".join(d.code for d in exc.diagnostics)]
    return format_lines(validate_artifact(parsed, SAMPLE_PRINCIPLES)).splitlines() or ["-"]


def corpus_cases():
    """(kind, body number, label, body) for each seeded body and each of its mutants."""
    for kind, count in BODIES.items():
        rng = random.Random(zlib.crc32(kind.value.encode()))
        for b in range(count):
            body = random_body(kind, rng)
            yield kind, b, "base", body
            for path, value in _positions(body):
                for label, new in _mutations(path, value):
                    yield kind, b, f"{_path_text(path)} {label}", _mutant(body, path, new)


def corpus_lines() -> list[str]:
    out = []
    for kind, b, label, body in corpus_cases():
        out.extend(f"{kind.value} #{b} {label}\t{line}" for line in _record(kind, body))
    return out


def test_corpus_matches_golden_and_shows_every_validation_code():
    lines = corpus_lines()
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    diff = list(difflib.unified_diff(expected, lines, "golden", "now", n=0, lineterm=""))
    assert not diff, "\n".join(diff[:40])
    results = [line.split("\t", 1)[1].split() for line in lines]
    seen = {result[1] for result in results if result[0] in ("ERROR", "WARNING")}
    assert seen == VALIDATION_CODES


def test_each_corpus_body_validates_alike_from_parse_make_and_rehash():
    for kind, b, label, body in corpus_cases():
        made = make_artifact(kind, "art-x", body, created_at="2026-01-01T00:00:00+00:00")
        try:
            parsed = parse_artifact(serialize_artifact(made))
        except ArtifactParseError:
            continue
        edited = make_artifact(kind, "art-x", {}, created_at="2026-01-01T00:00:00+00:00")
        edited.body.update(copy.deepcopy(body))  # in place, after the findings were taken
        lines = [format_lines(validate_artifact(doc, SAMPLE_PRINCIPLES)) for doc in (parsed, made, rehash(edited))]
        assert lines[1:] == lines[:1] * 2, f"{kind.value} #{b} {label}"


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(corpus_lines()) + "\n", encoding="utf-8")
