"""FMEA risk register: scales, classification, prioritization, test intake.

Severity and likelihood are 1..5 ordinals. The classification matrix maps a
(severity, likelihood) pair to a low/mid/high class and is monotone in both
axes; the matrix parameters can be overridden per repository as long as the
override stays monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .artifacts import ArtifactDocument, ArtifactKind, Principle
from .diagnostics import AuditError, Diagnostic, make, sort_diagnostics

RISK_CLASSES = ("low", "mid", "high")
_CLASS_RANK = {c: i for i, c in enumerate(RISK_CLASSES)}


def class_rank(risk_class: str) -> int:
    return _CLASS_RANK[risk_class]


@dataclass(frozen=True)
class RiskMatrix:
    """Parameters of the default classification rule.

    high when severity*likelihood >= high_min_score or severity >=
    high_min_severity; low when the score is at most low_max_score and the
    severity at most low_max_severity; mid otherwise. A catastrophic
    severity is classified high regardless of likelihood.
    """

    high_min_score: int = 15
    high_min_severity: int = 5
    low_max_score: int = 4
    low_max_severity: int = 2

    def classify(self, severity: int, likelihood: int) -> str:
        if not (1 <= severity <= 5) or not (1 <= likelihood <= 5):
            raise AuditError("E_RANGE", f"severity/likelihood must be 1..5, got ({severity}, {likelihood})")
        score = severity * likelihood
        if score >= self.high_min_score or severity >= self.high_min_severity:
            return "high"
        if score <= self.low_max_score and severity <= self.low_max_severity:
            return "low"
        return "mid"

    def is_monotone(self) -> bool:
        for s in range(1, 6):
            for l in range(1, 6):
                c = class_rank(self.classify(s, l))
                if s < 5 and class_rank(self.classify(s + 1, l)) < c:
                    return False
                if l < 5 and class_rank(self.classify(s, l + 1)) < c:
                    return False
        return True


DEFAULT_MATRIX = RiskMatrix()


def classify_risk(severity: int, likelihood: int, matrix: RiskMatrix | None = None) -> str:
    return (matrix or DEFAULT_MATRIX).classify(severity, likelihood)


@dataclass(frozen=True)
class FmeaEntry:
    id: str
    failure_mode: str = ""
    effect: str = ""
    cause: str = ""
    severity: Optional[int] = None
    likelihood: Optional[int] = None
    detection: Optional[int] = None
    threatened_principles: tuple[str, ...] = ()
    status: str = "open"
    evidence_refs: tuple[str, ...] = ()
    rationale: str = ""

    @property
    def scored(self) -> bool:
        return self.severity is not None and self.likelihood is not None

    @property
    def score(self) -> int:
        if not self.scored:
            raise AuditError("E_RANGE", f"entry {self.id} has no severity/likelihood")
        return self.severity * self.likelihood  # type: ignore[operator]

    def risk_class(self, matrix: RiskMatrix | None = None) -> str:
        if not self.scored:
            raise AuditError("E_RANGE", f"entry {self.id} has no severity/likelihood")
        return classify_risk(self.severity, self.likelihood, matrix)  # type: ignore[arg-type]

    def to_record(self) -> dict:
        rec: dict = {
            "id": self.id,
            "failure_mode": self.failure_mode,
            "effect": self.effect,
            "cause": self.cause,
            "threatened_principles": list(self.threatened_principles),
            "status": self.status,
            "evidence_refs": list(self.evidence_refs),
            "rationale": self.rationale,
        }
        if self.severity is not None:
            rec["severity"] = self.severity
        if self.likelihood is not None:
            rec["likelihood"] = self.likelihood
        if self.detection is not None:
            rec["detection"] = self.detection
        return rec

    @staticmethod
    def from_record(rec: dict) -> "FmeaEntry":
        return FmeaEntry(
            id=rec.get("id", ""),
            failure_mode=rec.get("failure_mode", ""),
            effect=rec.get("effect", ""),
            cause=rec.get("cause", ""),
            severity=rec.get("severity"),
            likelihood=rec.get("likelihood"),
            detection=rec.get("detection"),
            threatened_principles=tuple(rec.get("threatened_principles", [])),
            status=rec.get("status", "open"),
            evidence_refs=tuple(rec.get("evidence_refs", [])),
            rationale=rec.get("rationale", ""),
        )


@dataclass(frozen=True)
class RiskRegister:
    entries: tuple[FmeaEntry, ...] = ()

    @staticmethod
    def from_artifact(doc: ArtifactDocument) -> "RiskRegister":
        if doc.kind is not ArtifactKind.FMEA_REGISTER:
            raise AuditError("E_KIND_MISMATCH", f"{doc.id} is a {doc.kind.value}, not a FmeaRegister")
        return RiskRegister(tuple(FmeaEntry.from_record(r) for r in doc.body.get("entries", [])))

    def to_body(self) -> dict:
        return {"entries": [e.to_record() for e in self.entries]}

    @cached_property
    def _by_id(self) -> dict[str, FmeaEntry]:
        index: dict[str, FmeaEntry] = {}
        for e in self.entries:
            index.setdefault(e.id, e)  # the first entry of a duplicated id wins
        return index

    def get(self, entry_id: str) -> Optional[FmeaEntry]:
        return self._by_id.get(entry_id)

    def open_entries(self) -> tuple[FmeaEntry, ...]:
        return tuple(e for e in self.entries if e.status == "open")


def prioritize_risks(register: RiskRegister, matrix: RiskMatrix | None = None) -> list[FmeaEntry]:
    """Order entries by descending (class, severity*likelihood, severity).

    Ties break on entry id ascending. Every entry must be scored.
    """
    def key(e: FmeaEntry):
        return (-class_rank(e.risk_class(matrix)), -e.score, -(e.severity or 0), e.id)

    return sorted(register.entries, key=key)


# Likelihood re-estimation buckets over the observed failure rate. A clean
# run decays the prior by one step instead of jumping to a fixed level.
def likelihood_from_failure_rate(rate: float, prior: int) -> int:
    if rate < 0 or rate > 1:
        raise AuditError("E_RANGE", f"failure rate must be in [0, 1], got {rate}")
    if rate == 0:
        return max(1, prior - 1)
    if rate <= 0.01:
        return 2
    if rate <= 0.1:
        return 3
    if rate <= 0.5:
        return 4
    return 5


@dataclass(frozen=True)
class RiskDelta:
    fmea_id: str
    old_class: Optional[str]
    new_class: str

    def line(self) -> str:
        return f"{self.fmea_id} {self.old_class or 'new'}→{self.new_class}"


def update_fmea_with_tests(
    register: RiskRegister,
    report: ArtifactDocument,
    matrix: RiskMatrix | None = None,
) -> tuple[RiskRegister, list[RiskDelta]]:
    """Fold adversarial test outcomes into the register.

    Each test case targets an existing entry id or ``new``. Likelihoods are
    re-estimated from the aggregated failure rate per target; ``new`` cases
    append open entries. Entries are never removed. Returns the updated
    register plus one delta per touched entry, ordered by id.
    """
    if report.kind is not ArtifactKind.ADVERSARIAL_TESTING_REPORT:
        raise AuditError("E_KIND_MISMATCH", f"{report.id} is a {report.kind.value}, not an AdversarialTestingReport")

    entries = {e.id: e for e in register.entries}
    order = [e.id for e in register.entries]
    created: dict[str, FmeaEntry] = {}
    trials: dict[str, int] = {}
    failures: dict[str, int] = {}

    for i, case in enumerate(report.body.get("test_cases", [])):
        target = case.get("target", "")
        if target == "new":
            new = case.get("new_entry") or {}
            nid = new.get("id", "")
            if not nid or new.get("severity") is None:
                raise AuditError(
                    "E_ATR_NEW_ENTRY",
                    f"test case {case.get('id', i)} creates a risk without id or severity",
                )
            if nid in entries or nid in created:
                raise AuditError("E_FMEA_DUP_ID", f"new risk id {nid!r} already exists in the register")
            created[nid] = FmeaEntry(
                id=nid,
                failure_mode=new.get("failure_mode", ""),
                effect=new.get("effect", ""),
                cause=new.get("cause", ""),
                severity=new.get("severity"),
                likelihood=new.get("likelihood", 1),
                threatened_principles=tuple(new.get("threatened_principles", [])),
                status="open",
                evidence_refs=(report.id,),
            )
            target = nid
        elif target not in entries and target not in created:
            raise AuditError("E_UNKNOWN_FMEA_ID", f"test case targets unknown risk entry {target!r}")
        trials[target] = trials.get(target, 0) + int(case.get("trials", 0) or 0)
        failures[target] = failures.get(target, 0) + int(case.get("failures", 0) or 0)

    for nid, entry in created.items():
        entries[nid] = entry
        order.append(nid)

    deltas: list[RiskDelta] = []
    for target in sorted(trials):
        entry = entries[target]
        old_class = entry.risk_class(matrix) if entry.scored and target not in created else None
        n = trials[target]
        rate = (failures[target] / n) if n else 0.0
        prior = entry.likelihood if entry.likelihood is not None else 1
        updated = replace(entry, likelihood=likelihood_from_failure_rate(rate, prior))
        entries[target] = updated
        deltas.append(RiskDelta(fmea_id=target, old_class=old_class, new_class=updated.risk_class(matrix)))

    return RiskRegister(tuple(entries[i] for i in order)), deltas


@dataclass(frozen=True)
class PrincipleThreat:
    principle_id: str
    risk_class: str
    unexamined: bool
    fmea_ids: tuple[str, ...]


def assess_principle_threats(
    register: RiskRegister,
    principles: list[Principle],
    matrix: RiskMatrix | None = None,
) -> dict[str, PrincipleThreat]:
    """Worst open-risk class per principle.

    A principle nothing open refers to maps to low and is flagged
    unexamined.
    """
    out: dict[str, PrincipleThreat] = {}
    for p in principles:
        referencing = [e for e in register.open_entries() if p.id in e.threatened_principles and e.scored]
        if not referencing:
            out[p.id] = PrincipleThreat(p.id, "low", True, ())
            continue
        worst = max(class_rank(e.risk_class(matrix)) for e in referencing)
        ids = tuple(sorted(e.id for e in referencing if class_rank(e.risk_class(matrix)) == worst))
        out[p.id] = PrincipleThreat(p.id, RISK_CLASSES[worst], False, ids)
    return out


def generate_chart_rows(register: RiskRegister, matrix: RiskMatrix | None = None) -> list[dict]:
    """Chart rows for every open entry, sorted by entry id.

    Regeneration from the same register is byte-identical.
    """
    rows = []
    for e in sorted(register.open_entries(), key=lambda e: e.id):
        if not e.scored:
            raise AuditError("E_RANGE", f"entry {e.id} has no severity/likelihood")
        rows.append(
            {
                "fmea_id": e.id,
                "severity": e.severity,
                "likelihood": e.likelihood,
                "risk_class": e.risk_class(matrix),
                "rationale": e.effect or e.failure_mode,
            }
        )
    return rows


def validate_chart(
    chart: ArtifactDocument,
    register: RiskRegister,
    matrix: RiskMatrix | None = None,
) -> list[Diagnostic]:
    """Cross-check a risk chart against the register it summarizes."""
    out: list[Diagnostic] = []
    rows = chart.body.get("rows", [])
    by_id: dict[str, dict] = {}
    for i, row in enumerate(rows):
        fid = row.get("fmea_id", "")
        if not fid:
            continue
        by_id[fid] = row
        entry = register.get(fid)
        if entry is None:
            out.append(
                make("E_RC_UNKNOWN_ENTRY", f"row references unknown entry {fid!r}", chart.id, f"body.rows[{i}].fmea_id")
            )
            continue
        s, l, cls = row.get("severity"), row.get("likelihood"), row.get("risk_class")
        if s is None or l is None or cls is None:
            continue  # structural incompleteness reported by validate_artifact
        if classify_risk(s, l, matrix) != cls:
            out.append(
                make(
                    "E_RC_CLASS_MISMATCH",
                    f"({s}, {l}) classifies as {classify_risk(s, l, matrix)}, row says {cls}",
                    chart.id,
                    f"body.rows[{i}].risk_class",
                )
            )
        if entry.scored and (entry.severity, entry.likelihood) != (s, l):
            out.append(
                make(
                    "E_RC_STALE_ROW",
                    f"register scores ({entry.severity}, {entry.likelihood}) differ from row ({s}, {l})",
                    chart.id,
                    f"body.rows[{i}]",
                )
            )
    for e in register.open_entries():
        if e.id not in by_id:
            out.append(make("E_RC_MISSING_ROW", f"open entry {e.id!r} has no chart row", chart.id, "body.rows"))
    return sort_diagnostics(out)
