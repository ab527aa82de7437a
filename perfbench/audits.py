"""Seeded audits for the benchmark workloads, and the record of what was written.

Every workload starts from the smile-booth demo audit
(``fixtures.build_smile_repo``) and grows it through
``AuditRepository.write_artifact``. The generator keeps its own record of
every document (``Model``); ``expect.py`` derives the expected command
outputs from that record, never from the program's own results.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta
from pathlib import Path

from auditflow.artifacts import ArtifactDocument, ArtifactKind, make_artifact
from auditflow.fixtures import build_smile_repo
from auditflow.repository import AuditRepository

import expect

# Pinned through AUDITFLOW_NOW for every command the benchmark runs.
NOW = "2026-03-03T09:00:00+00:00"
# Growth writes are stamped after the smile audit's last write (14:00).
GROWTH_START = datetime.fromisoformat("2026-03-02T15:00:00+00:00")

# Small smile artifacts that version bumps rewrite, with the text field each
# bump edits. None of these fields feeds the trace graph or a gate.
BUMP_FIELDS = {
    "stakeholders": ("stakeholders", 0, "contribution"),
    "system-map": ("components", 0, "description"),
    "design-history-review": ("documents_reviewed", 0, "notes"),
    "field-study": ("interviews", 0, "transcript_ref"),
    "model-card-smile": ("limitations",),
    "datasheet-celeba": ("collection_process",),
}

# Bumps visit the small artifacts in turn, so every seed writes the same mix.
BUMP_ORDER = sorted(BUMP_FIELDS)

WORDS = (
    "booth", "camera", "model", "consent", "group", "capture", "record",
    "policy", "signal", "trigger", "audit", "trail", "impact", "probe",
    "owner", "scope", "frame", "sensor", "review", "sample",
)


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's audit."""

    entries: int = 0  # FMEA entries added to the smile register, all scored and open
    entry_reports: int = 0  # testing reports holding one test case per added entry
    register_steps: int = 1  # register versions the added entries arrive in
    untested: int = 0  # added high entries left without a test case, with a rationale
    model_cards: int = 0
    datasheets: int = 0
    field_studies: int = 0
    small_reports: int = 0  # testing reports with one or two test cases
    history: int = 0  # version bumps of small artifacts made during set-up

    def scaled(self, factor: float) -> "Shape":
        """The same audit with every count multiplied by ``factor`` (at least 1)."""
        return replace(
            self,
            **{f.name: max(1, round(getattr(self, f.name) * factor)) if getattr(self, f.name) else 0
               for f in fields(self)},
        )


SHAPES = {
    "big-register": Shape(entries=1200, entry_reports=40, register_steps=40, untested=12),
    "many-docs": Shape(entries=24, entry_reports=2, untested=1,
                       model_cards=150, datasheets=150, field_studies=150, small_reports=150),
    "long-trail": Shape(history=800),
}


@dataclass
class Doc:
    kind: str
    stage: str
    status: str
    version: int
    body: dict


@dataclass
class Model:
    """What the audit holds, kept by the generator as it writes."""

    docs: dict[str, Doc]
    gate_stages: list[str]  # stages whose gate passed, in order
    trail_len: int  # records in trail.log
    generated: set[str] = field(default_factory=set)  # ids the generator created
    skewed_axes: int = 0  # datasheet axes the generator made skewed
    ingest_report: str = ""  # the testing report every ``risk --ingest-tests`` folds in
    summary_written: bool = False

    def of_kind(self, kind: str) -> list[str]:
        """Ids of the documents of one kind (a kind name or an ``ArtifactKind``), sorted."""
        return sorted(i for i, d in self.docs.items() if d.kind == kind)

    def register(self) -> Doc:
        return self.docs[self.of_kind(ArtifactKind.FMEA_REGISTER)[0]]

    def record(self, doc: ArtifactDocument) -> list[str]:
        """Enter a document about to be written; return the trail events it adds."""
        return self.enter(doc.id, Doc(doc.kind.value, doc.meta.stage.value, doc.meta.status.value,
                                      doc.meta.version, doc.body))

    def enter(self, artifact_id: str, doc: Doc) -> list[str]:
        old = self.docs.get(artifact_id)
        self.docs[artifact_id] = doc
        events = ["created" if old is None else "updated"]
        if doc.status == "final" and (old is None or old.status != "final"):
            events.append("finalized")
        self.trail_len += len(events)
        return events


def baseline(path: Path) -> Model:
    """Build the smile audit at ``path`` and read back what it holds, as plain JSON."""
    build_smile_repo(path)
    docs = {}
    for file in sorted((path / "artifacts").rglob("*.json")):
        raw = json.loads(file.read_text(encoding="utf-8"))
        meta = raw["meta"]
        docs[meta["id"]] = Doc(meta["kind"], meta["stage"], meta["status"], meta["version"], raw["body"])
    state = json.loads((path / "state.lock").read_text(encoding="utf-8"))
    passed = [e["stage"] for e in state["gate_log"] if e["result"] == "pass"]
    trail = (path / "trail.log").read_text(encoding="utf-8").splitlines()
    return Model(docs=docs, gate_stages=passed, trail_len=sum(1 for line in trail if line.strip()))


def build(path: Path, writes: list[ArtifactDocument]) -> AuditRepository:
    """The timed set-up: smile audit, growth writes, then a fresh load."""
    repo = build_smile_repo(path)
    for doc in writes:
        repo.write_artifact(doc)
    return AuditRepository.load(path)


def _text(rng: random.Random, lo: int = 3, hi: int = 8) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def grow(model: Model, rng: random.Random, shape: Shape) -> list[ArtifactDocument]:
    """Plan the growth writes for ``shape`` and enter them into ``model``."""
    writes: list[ArtifactDocument] = []
    stamps = ((GROWTH_START + timedelta(seconds=k)).isoformat() for k in itertools.count(1))

    def write(kind, artifact_id, body, version=1):
        doc = make_artifact(kind, artifact_id, body, status="final", version=version, created_at=next(stamps))
        model.record(doc)
        writes.append(doc)
        if version == 1:
            model.generated.add(artifact_id)

    principle_ids = [p["id"] for p in model.docs["principles"].body["principles"]]
    register_id = model.of_kind(ArtifactKind.FMEA_REGISTER)[0]
    entries = [dict(e) for e in model.register().body["entries"]]

    if shape.entries:
        added = []
        for i in range(shape.entries):
            added.append({
                "id": f"FM-G{i:05d}",
                "failure_mode": _text(rng),
                "effect": _text(rng),
                "cause": _text(rng),
                "severity": rng.randint(1, 5),
                "likelihood": rng.randint(1, 5),
                "detection": rng.randint(1, 5),
                "threatened_principles": sorted(rng.sample(principle_ids, rng.randint(1, 2))),
                "status": "open",
                "evidence_refs": [],
                "rationale": "",
            })
        highs = [e["id"] for e in added if expect.risk_class(e["severity"], e["likelihood"]) == "high"]
        untested = set(rng.sample(highs, min(shape.untested, len(highs))))
        tested = [e for e in added if e["id"] not in untested]
        failing = {e["id"] for e in rng.sample(tested, round(0.15 * len(tested)))}
        for e in added:
            if e["id"] in untested:
                e["rationale"] = "accepted for launch pending field data: " + _text(rng)
        # The register grows in steps, each new version following the testing
        # reports that cover its new entries.
        reports = 0
        for step in range(shape.register_steps):
            chunk = added[step * len(added) // shape.register_steps: (step + 1) * len(added) // shape.register_steps]
            chunk_tested = [e for e in chunk if e["id"] not in untested]
            count = (step + 1) * shape.entry_reports // shape.register_steps - reports
            for j in range(count):
                rid = f"tests-entries-{reports + j:03d}"
                cases = []
                for e in chunk_tested[j * len(chunk_tested) // count: (j + 1) * len(chunk_tested) // count]:
                    trials = rng.randint(20, 200)
                    cases.append({
                        "id": f"TC-G{e['id'][4:]}",
                        "target": e["id"],
                        "description": _text(rng),
                        "trials": trials,
                        "failures": rng.randint(1, trials) if e["id"] in failing else 0,
                        "notes": "",
                    })
                    e["evidence_refs"] = [rid]
                write(ArtifactKind.ADVERSARIAL_TESTING_REPORT, rid, {"test_cases": cases})
            reports += count
            entries.extend(chunk)
            write(ArtifactKind.FMEA_REGISTER, register_id, {"entries": list(entries)}, model.register().version + 1)

        chart_id = model.of_kind(ArtifactKind.ETHICAL_RISK_CHART)[0]
        rows = [
            {
                "fmea_id": e["id"],
                "severity": e["severity"],
                "likelihood": e["likelihood"],
                "risk_class": expect.risk_class(e["severity"], e["likelihood"]),
                "rationale": e["effect"] or e["failure_mode"],
            }
            for e in sorted(entries, key=lambda e: e["id"])
            if e["status"] == "open"
        ]
        write(ArtifactKind.ETHICAL_RISK_CHART, chart_id, {"rows": rows}, model.docs[chart_id].version + 1)

        # Each added high risk gets a remediation item and part of the others
        # do. One seeded scenario then decides the launch verdict: an
        # infeasible item (cancel), a high risk left without one (stall), or
        # neither (conditional greenlight).
        plan_id = model.of_kind(ArtifactKind.REMEDIATION_PLAN)[0]
        items = list(model.docs[plan_id].body["items"])
        scenario = rng.choice(("cancel", "stall", "conditional_greenlight"))
        marked = rng.choice(highs) if highs else None
        high_ids = set(highs)
        for i, e in enumerate(added):
            if e["id"] == marked and scenario == "stall":
                continue
            if e["id"] not in high_ids and rng.random() >= 0.3:
                continue
            status = rng.choice(("planned", "in_progress", "verified"))
            if e["id"] == marked and scenario == "cancel":
                status = "infeasible"
            items.append({
                "id": f"RM-G{i:05d}",
                "fmea_id": e["id"],
                "action": _text(rng),
                "owner": rng.choice(("ml-team", "product-team", "ops")),
                "status": status,
                "notes": "",
            })
        write(ArtifactKind.REMEDIATION_PLAN, plan_id, {"items": items}, model.docs[plan_id].version + 1)

    for i in range(shape.model_cards):
        write(ArtifactKind.MODEL_CARD, f"model-card-{i:04d}", {
            "model_name": f"model-{i:04d}",
            "intended_use": _text(rng),
            "out_of_scope_uses": [_text(rng, 1, 3) for _ in range(rng.randint(1, 3))],
            "evaluation_data": _text(rng),
            "performance_by_group": [
                {"group": f"group-{g}", "metric_name": "recall", "value": round(rng.uniform(0.5, 1.0), 3)}
                for g in range(rng.randint(2, 3))
            ],
            "limitations": _text(rng),
        })
    for i in range(shape.datasheets):
        axes = []
        for a in range(rng.randint(1, 3)):
            axes.append({"axis": f"axis-{a}", "groups": _fractions(rng, model)})
        write(ArtifactKind.DATASHEET, f"datasheet-{i:04d}", {
            "dataset_name": f"dataset-{i:04d}",
            "collection_process": _text(rng),
            "ethical_review_conducted": rng.choice(("yes", "no", "unknown")),
            "relates_to_people": "yes",
            "demographic_breakdown": axes,
        })
    for i in range(shape.field_studies):
        write(ArtifactKind.FIELD_STUDY_REPORT, f"field-study-{i:04d}", {
            "interviews": [
                {"role": _text(rng, 1, 2), "transcript_ref": f"interviews/{i:04d}-{k}",
                 "findings": [_text(rng) for _ in range(rng.randint(1, 3))]}
                for k in range(rng.randint(1, 2))
            ],
        })
    entry_ids = [e["id"] for e in model.register().body["entries"]]
    for i in range(shape.small_reports):
        cases = []
        for k in range(rng.randint(1, 2)):
            trials = rng.randint(10, 100)
            cases.append({
                "id": f"TC-S{i:04d}-{k}",
                "target": rng.choice(entry_ids),
                "description": _text(rng),
                "trials": trials,
                "failures": rng.randint(1, trials) if rng.random() < 0.15 else 0,
                "notes": "",
            })
        rid = f"tests-small-{i:04d}"
        write(ArtifactKind.ADVERSARIAL_TESTING_REPORT, rid, {"test_cases": cases})

    for k in range(shape.history):
        writes.append(bump(model, BUMP_ORDER[k % len(BUMP_ORDER)], rng, next(stamps))[0])

    reports = model.of_kind(ArtifactKind.ADVERSARIAL_TESTING_REPORT)
    model.ingest_report = next((r for r in reports if r in model.generated), reports[0])
    return writes


def _fractions(rng: random.Random, model: Model) -> list[dict]:
    """Group fractions of one datasheet axis, balanced or skewed by construction.

    Balanced axes keep every group near an equal share; skewed ones give one
    of two groups about nine tenths. Neither comes near the skew threshold.
    """
    if rng.random() < 0.3:
        model.skewed_axes += 1
        big = round(rng.uniform(0.88, 0.95), 3)
        shares = [big, round(1 - big, 3)]
    elif rng.random() < 0.5:
        a = round(rng.uniform(0.42, 0.58), 3)
        shares = [a, round(1 - a, 3)]
    else:
        a, b = round(rng.uniform(0.28, 0.38), 3), round(rng.uniform(0.28, 0.38), 3)
        shares = [a, b, round(1 - a - b, 3)]
    return [{"label": f"group-{g}", "fraction": f} for g, f in enumerate(shares)]


def bump(model: Model, artifact_id: str, rng: random.Random, created_at: str) -> tuple[ArtifactDocument, list[str]]:
    """Next version of a small artifact with one text field rewritten.

    The version is entered into ``model``; returns it with the trail events it adds.
    """
    old = model.docs[artifact_id]
    body = copy.deepcopy(old.body)
    *path, key = BUMP_FIELDS[artifact_id]
    holder = body
    for step in path:
        holder = holder[step]
    version = old.version + 1
    holder[key] = f"{holder[key].split(' (rev ')[0]} (rev {version}: {rng.choice(WORDS)})"
    doc = make_artifact(
        ArtifactKind(old.kind), artifact_id, body, status=old.status, version=version, created_at=created_at
    )
    return doc, model.record(doc)
