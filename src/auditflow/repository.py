"""Audit repository on disk.

Layout::

    <repo>/
      manifest.json         audit id, profile, thresholds, overrides
      state.lock            workflow state and append-only gate log
      trail.log             append-only artifact observations (JSON lines)
      artifacts/<stage>/<id>.json
      adhf.graph            written by the trace command
      audit_report.txt      written by the report command

Artifacts are hand-edited documents; the tool observes them. Writers
serialize through a lock file. Every tool-side write and every write
command records (id, version, hash, status) observations in ``trail.log``
so the audit trail can be reconstructed and tampering detected.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from . import clock
from .artifacts import (
    ArtifactDocument,
    ArtifactKind,
    ArtifactStatus,
    DEFAULT_PRODUCERS,
    Principle,
    ProducerRole,
    SINGLETON_KINDS,
    Stage,
    ValidationConfig,
    make_artifact,
    parse_artifact,
    principles_from,
    rehash,
    serialize_artifact,
    validate_artifact,
)
from .canonical import content_hash, hash_bytes
from .checklist import CLOSED_QUESTION_VERBS, ChecklistReport, verify_inventory
from .diagnostics import (
    ArtifactParseError,
    AuditError,
    Diagnostic,
    has_errors,
    make,
    sort_diagnostics,
)
from .risk import RiskMatrix, RiskRegister, validate_chart
from .workflow import WorkflowConfig, WorkflowState, RequiredArtifact, validate_config

MANIFEST_NAME = "manifest.json"
STATE_NAME = "state.lock"
TRAIL_NAME = "trail.log"
LOCK_NAME = ".lock"
ARTIFACT_DIR = "artifacts"
ARTIFACT_SUFFIXES = (".json", ".yaml", ".yml")

_MANIFEST_FIELDS = {
    "audit_id",
    "product_name",
    "profile",
    "principles_ref",
    "role_overrides",
    "stage_requirements",
    "risk_matrix",
    "skew_threshold",
    "fraction_tolerance",
    "closed_question_verbs",
    "risk_acceptance_threshold",
    "verdict_blocking_class",
}

_MATRIX_FIELDS = {"high_min_score", "high_min_severity", "low_max_score", "low_max_severity"}

TEMPLATE_PRINCIPLES = [
    {
        "id": "transparency",
        "name": "Transparency",
        "description": "System behavior, data use, and decisions can be explained to those affected.",
        "comment": "",
    },
    {
        "id": "justice-fairness-non-discrimination",
        "name": "Justice, Fairness & Non-Discrimination",
        "description": "The system avoids creating or reinforcing unfair bias across user groups.",
        "comment": "sometimes spelled 'Fariness' in source principle surveys",
    },
    {
        "id": "safety-non-maleficence",
        "name": "Safety & Non-Maleficence",
        "description": "The system does not endanger or harm its users or third parties.",
        "comment": "",
    },
    {
        "id": "responsibility-accountability",
        "name": "Responsibility & Accountability",
        "description": "A named owner answers for system behavior and its impacts.",
        "comment": "",
    },
    {
        "id": "privacy",
        "name": "Privacy",
        "description": "Personal and biometric data is collected and retained only with consent.",
        "comment": "",
    },
]


@dataclass(frozen=True)
class Manifest:
    audit_id: str
    product_name: str = ""
    profile: str = "full"
    principles_ref: str = "principles"
    role_overrides: dict = field(default_factory=dict)  # kind name -> role name
    stage_requirements: dict = field(default_factory=dict)  # stage name -> [requirement dicts]
    risk_matrix: dict = field(default_factory=dict)
    skew_threshold: float = 4.0
    fraction_tolerance: float = 0.02
    closed_question_verbs: Optional[list] = None
    risk_acceptance_threshold: Optional[float] = None
    verdict_blocking_class: str = "high"

    def to_dict(self) -> dict:
        return {
            "audit_id": self.audit_id,
            "product_name": self.product_name,
            "profile": self.profile,
            "principles_ref": self.principles_ref,
            "role_overrides": self.role_overrides,
            "stage_requirements": self.stage_requirements,
            "risk_matrix": self.risk_matrix,
            "skew_threshold": self.skew_threshold,
            "fraction_tolerance": self.fraction_tolerance,
            "closed_question_verbs": self.closed_question_verbs,
            "risk_acceptance_threshold": self.risk_acceptance_threshold,
            "verdict_blocking_class": self.verdict_blocking_class,
        }

    @staticmethod
    def from_dict(raw: dict) -> "Manifest":
        if not isinstance(raw, dict):
            raise AuditError("E_CONFIG", "manifest must be an object")
        unknown = set(raw) - _MANIFEST_FIELDS
        if unknown:
            raise AuditError("E_CONFIG", f"unknown manifest fields: {sorted(unknown)}")
        if "audit_id" not in raw or not isinstance(raw["audit_id"], str) or not raw["audit_id"]:
            raise AuditError("E_CONFIG", "manifest needs a non-empty audit_id")
        matrix = raw.get("risk_matrix") or {}
        bad = set(matrix) - _MATRIX_FIELDS
        if bad:
            raise AuditError("E_CONFIG", f"unknown risk_matrix fields: {sorted(bad)}")
        verbs = raw.get("closed_question_verbs")
        if verbs is not None and (not isinstance(verbs, list) or not all(isinstance(v, str) for v in verbs)):
            raise AuditError("E_CONFIG", "closed_question_verbs must be a list of strings")
        manifest = Manifest(
            audit_id=raw["audit_id"],
            product_name=raw.get("product_name", "") or "",
            profile=raw.get("profile", "full") or "full",
            principles_ref=raw.get("principles_ref", "principles") or "principles",
            role_overrides=raw.get("role_overrides") or {},
            stage_requirements=raw.get("stage_requirements") or {},
            risk_matrix=matrix,
            skew_threshold=float(raw.get("skew_threshold", 4.0)),
            fraction_tolerance=float(raw.get("fraction_tolerance", 0.02)),
            closed_question_verbs=verbs,
            risk_acceptance_threshold=raw.get("risk_acceptance_threshold"),
            verdict_blocking_class=raw.get("verdict_blocking_class", "high") or "high",
        )
        # fail fast on contradictory or non-monotone configuration
        validate_config(manifest.workflow_config())
        matrix_obj = manifest.matrix()
        if not matrix_obj.is_monotone():
            raise AuditError("E_CONFIG", "risk_matrix override is not monotone in severity and likelihood")
        if manifest.verdict_blocking_class not in ("low", "mid", "high"):
            raise AuditError("E_CONFIG", f"bad verdict_blocking_class {manifest.verdict_blocking_class!r}")
        return manifest

    def workflow_config(self) -> WorkflowConfig:
        roles = {}
        for kind_name, role_name in self.role_overrides.items():
            try:
                roles[ArtifactKind(kind_name)] = ProducerRole(role_name)
            except ValueError:
                raise AuditError("E_CONFIG", f"bad role override {kind_name!r}: {role_name!r}")
        stage_reqs = {}
        for stage_name, entries in self.stage_requirements.items():
            try:
                stage = Stage(stage_name)
            except ValueError:
                raise AuditError("E_CONFIG", f"unknown stage {stage_name!r} in stage_requirements")
            if not isinstance(entries, list):
                raise AuditError("E_CONFIG", f"stage_requirements for {stage_name!r} must be a list")
            reqs = []
            for entry in entries:
                if isinstance(entry, str):
                    entry = {"kind": entry}
                try:
                    kind = ArtifactKind(entry["kind"])
                    producer = ProducerRole(entry.get("producer", DEFAULT_PRODUCERS[kind].value))
                    min_status = ArtifactStatus(entry.get("min_status", "final"))
                except (KeyError, ValueError, TypeError, AttributeError):
                    raise AuditError("E_CONFIG", f"bad entry in stage_requirements: {entry!r}")
                reqs.append(RequiredArtifact(kind=kind, producer=producer, min_status=min_status))
            stage_reqs[stage] = reqs
        return WorkflowConfig(profile=self.profile, stage_requirements=stage_reqs, role_overrides=roles)

    def matrix(self) -> RiskMatrix:
        return RiskMatrix(**self.risk_matrix) if self.risk_matrix else RiskMatrix()

    def validation_config(self) -> ValidationConfig:
        return ValidationConfig(
            skew_threshold=self.skew_threshold,
            fraction_tolerance=self.fraction_tolerance,
        )

    def closed_verbs(self) -> frozenset:
        if self.closed_question_verbs is None:
            return CLOSED_QUESTION_VERBS
        return frozenset(v.lower() for v in self.closed_question_verbs)


@dataclass(frozen=True)
class TrailRecord:
    timestamp: str
    event: str  # created | updated | finalized
    artifact_id: str
    version: int
    hash: str
    status: str

    def to_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "event": self.event,
            "artifact_id": self.artifact_id,
            "version": self.version,
            "hash": self.hash,
            "status": self.status,
        }

    @staticmethod
    def from_dict(raw: dict) -> "TrailRecord":
        return TrailRecord(
            timestamp=raw["timestamp"],
            event=raw["event"],
            artifact_id=raw["artifact_id"],
            version=int(raw["version"]),
            hash=raw["hash"],
            status=raw.get("status", "draft"),
        )


class AuditRepository:
    """A loaded snapshot of an audit repository."""

    def __init__(
        self,
        path: Path,
        manifest: Manifest,
        state: WorkflowState,
        artifacts: dict[str, ArtifactDocument],
        parse_failures: list[tuple[str, list[Diagnostic]]],
        load_diagnostics: list[Diagnostic],
    ):
        self.path = Path(path)
        self.manifest = manifest
        self.state = state
        self.artifacts = artifacts
        self.parse_failures = parse_failures
        self._load_diagnostics = load_diagnostics
        self._validation: Optional[dict[str, list[Diagnostic]]] = None
        self._cross: Optional[list[Diagnostic]] = None
        self._checklist_reports: dict[str, ChecklistReport] = {}
        self._register: Optional[RiskRegister] = None
        self._trail: Optional[list[TrailRecord]] = None
        self._by_kind: Optional[dict[ArtifactKind, list[ArtifactDocument]]] = None

    # -- loading ------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "AuditRepository":
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise AuditError("E_REPO", f"{root} has no {MANIFEST_NAME}")
        try:
            manifest = Manifest.from_dict(json.loads(manifest_path.read_text(encoding="utf-8")))
        except json.JSONDecodeError as exc:
            raise AuditError("E_CONFIG", f"manifest is not valid JSON: {exc}")

        state = WorkflowState()
        state_path = root / STATE_NAME
        if state_path.is_file():
            try:
                state = WorkflowState.from_dict(json.loads(state_path.read_text(encoding="utf-8")))
            except json.JSONDecodeError as exc:
                raise AuditError("E_STATE_INVALID", f"{STATE_NAME} is not valid JSON: {exc}")

        artifacts: dict[str, ArtifactDocument] = {}
        parse_failures: list[tuple[str, list[Diagnostic]]] = []
        load_diags: list[Diagnostic] = []
        art_root = root / ARTIFACT_DIR
        if art_root.is_dir():
            for file in sorted(art_root.rglob("*")):
                if not file.is_file() or file.suffix not in ARTIFACT_SUFFIXES:
                    continue
                rel = file.relative_to(root).as_posix()
                try:
                    doc = parse_artifact(file.read_bytes())
                except ArtifactParseError as exc:
                    parse_failures.append((rel, list(exc.diagnostics)))
                    continue
                if doc.id in artifacts:
                    load_diags.append(
                        make("E_DUP_ID", f"artifact id also used by another document ({rel})", doc.id, "meta.id")
                    )
                    continue
                dir_stage = file.parent.name
                if dir_stage != doc.meta.stage.value:
                    load_diags.append(
                        make(
                            "E_PATH_MISMATCH",
                            f"stored under {dir_stage!r} but meta.stage is {doc.meta.stage.value!r}",
                            doc.id,
                            "meta.stage",
                        )
                    )
                artifacts[doc.id] = doc
        return cls(root, manifest, state, artifacts, parse_failures, load_diags)

    # -- simple accessors ----------------------------------------------------

    def by_kind(self, kind: ArtifactKind) -> list[ArtifactDocument]:
        """Documents of one kind sorted by id, from a map built once per snapshot."""
        if self._by_kind is None:
            index: dict[ArtifactKind, list[ArtifactDocument]] = {}
            for doc in sorted(self.artifacts.values(), key=lambda d: d.id):
                index.setdefault(doc.kind, []).append(doc)
            self._by_kind = index
        return list(self._by_kind.get(kind, ()))

    def get(self, artifact_id: str) -> Optional[ArtifactDocument]:
        return self.artifacts.get(artifact_id)

    def principles(self) -> list[Principle]:
        doc = self.artifacts.get(self.manifest.principles_ref)
        if doc is None or doc.kind is not ArtifactKind.PRINCIPLES_DECLARATION:
            docs = self.by_kind(ArtifactKind.PRINCIPLES_DECLARATION)
            doc = docs[0] if docs else None
        return principles_from(doc) if doc else []

    def workflow_config(self) -> WorkflowConfig:
        return self.manifest.workflow_config()

    def risk_matrix(self) -> RiskMatrix:
        return self.manifest.matrix()

    def register_doc(self) -> Optional[ArtifactDocument]:
        docs = self.by_kind(ArtifactKind.FMEA_REGISTER)
        return docs[0] if docs else None

    def risk_register(self) -> Optional[RiskRegister]:
        """The register parsed once per snapshot; writes drop it."""
        if self._register is None:
            doc = self.register_doc()
            self._register = RiskRegister.from_artifact(doc) if doc else None
        return self._register

    def tested_risk_ids(self) -> set[str]:
        covered: set[str] = set()
        for doc in self.by_kind(ArtifactKind.ADVERSARIAL_TESTING_REPORT):
            for case in doc.body.get("test_cases", []):
                target = case.get("target", "")
                if target == "new":
                    new = case.get("new_entry") or {}
                    if new.get("id"):
                        covered.add(new["id"])
                elif target:
                    covered.add(target)
        return covered

    def repo_content_hash(self) -> str:
        """Hash of manifest plus artifact files, excluding the summary report.

        The summary report distills the repository, so including it would
        make report compilation self-referential and unstable.
        """
        entries: list[tuple[str, str]] = []
        manifest_path = self.path / MANIFEST_NAME
        entries.append((MANIFEST_NAME, hash_bytes(manifest_path.read_bytes())))
        art_root = self.path / ARTIFACT_DIR
        summary_ids = {d.id for d in self.by_kind(ArtifactKind.AUDIT_SUMMARY_REPORT)}
        if art_root.is_dir():
            for file in sorted(art_root.rglob("*")):
                if not file.is_file() or file.suffix not in ARTIFACT_SUFFIXES:
                    continue
                if file.stem in summary_ids:
                    continue
                entries.append((file.relative_to(self.path).as_posix(), hash_bytes(file.read_bytes())))
        return content_hash(entries)

    # -- validation -----------------------------------------------------------

    def _ensure_validated(self) -> None:
        if self._validation is not None:
            return
        principles = self.principles()
        vcfg = self.manifest.validation_config()
        per: dict[str, list[Diagnostic]] = {}
        for doc in self.artifacts.values():
            per[doc.id] = validate_artifact(doc, principles, vcfg)
        self._validation = per

        cross: list[Diagnostic] = list(self._load_diagnostics)
        homes = None
        try:
            from .workflow import effective_home_stages

            homes = effective_home_stages(self.workflow_config())
        except AuditError:
            pass
        if homes:
            for doc in self.artifacts.values():
                expected = homes.get(doc.kind)
                if expected is not None and doc.meta.stage is not expected:
                    cross.append(
                        make(
                            "E_STAGE_MISMATCH",
                            f"{doc.kind.value} belongs to stage {expected.value!r}",
                            doc.id,
                            "meta.stage",
                        )
                    )
        for kind in sorted(SINGLETON_KINDS, key=lambda k: k.value):
            docs = self.by_kind(kind)
            for extra in docs[1:]:
                cross.append(
                    make("E_DUP_KIND", f"{kind.value} may appear only once per audit", extra.id, "meta.kind")
                )
        if not self.by_kind(ArtifactKind.PRINCIPLES_DECLARATION):
            cross.append(make("E_NO_PRINCIPLES", "repository declares no principles", None, ""))

        register = self.risk_register()
        if register is not None:
            for chart in self.by_kind(ArtifactKind.ETHICAL_RISK_CHART):
                cross.extend(validate_chart(chart, register, self.risk_matrix()))
        for doc in self.by_kind(ArtifactKind.DESIGN_CHECKLIST):
            report = self.checklist_report(doc.id)
            if report:
                cross.extend(report.diagnostics)
                cross.extend(report.lint_findings)
        self._cross = sort_diagnostics(cross)

    def validate_repository(self) -> list[Diagnostic]:
        """All diagnostics: parse failures, per-artifact, and cross-artifact."""
        self._ensure_validated()
        out: list[Diagnostic] = []
        for _, diags in self.parse_failures:
            out.extend(diags)
        for diags in self._validation.values():  # type: ignore[union-attr]
            out.extend(diags)
        out.extend(self._cross or [])
        return sort_diagnostics(out)

    def artifact_errors(self, artifact_id: str) -> list[Diagnostic]:
        """Error-severity diagnostics attached to one artifact."""
        self._ensure_validated()
        attached = list(self._validation.get(artifact_id, []))  # type: ignore[union-attr]
        attached.extend(d for d in (self._cross or []) if d.artifact_id == artifact_id)
        return [d for d in attached if d.severity.value == "error"]

    def kind_is_satisfied(self, kind_name: str) -> bool:
        """At least one artifact of the kind exists and validates cleanly.

        Per-artifact validation only, so checklist claims do not depend on
        cross-artifact findings about other documents.
        """
        try:
            kind = ArtifactKind(kind_name)
        except ValueError:
            return False
        self._ensure_validated()
        for doc in self.by_kind(kind):
            per = self._validation.get(doc.id, [])  # type: ignore[union-attr]
            if not has_errors(per):
                return True
        return False

    def checklist_report(self, artifact_id: str) -> Optional[ChecklistReport]:
        if artifact_id in self._checklist_reports:
            return self._checklist_reports[artifact_id]
        doc = self.get(artifact_id)
        if doc is None or doc.kind is not ArtifactKind.DESIGN_CHECKLIST:
            return None
        self._ensure_validated()
        report = verify_inventory(doc, self, self.manifest.closed_verbs())
        self._checklist_reports[artifact_id] = report
        return report

    def _invalidate(self) -> None:
        self._validation = None
        self._cross = None
        self._checklist_reports = {}
        self._register = None
        self._by_kind = None

    # -- locking and writes ----------------------------------------------------

    @contextmanager
    def lock(self) -> Iterator[None]:
        lock_path = self.path / LOCK_NAME
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise AuditError("E_LOCKED", f"repository is locked ({lock_path})")
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            try:
                lock_path.unlink()
            except FileNotFoundError:
                pass

    def save_state(self, state: WorkflowState) -> None:
        with self.lock():
            (self.path / STATE_NAME).write_text(
                json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        self.state = state

    def artifact_path(self, doc: ArtifactDocument) -> Path:
        return self.path / ARTIFACT_DIR / doc.meta.stage.value / f"{doc.id}.json"

    def trail_records(self) -> list[TrailRecord]:
        """Read and parse ``trail.log``; the only reader of the file."""
        trail_path = self.path / TRAIL_NAME
        if not trail_path.is_file():
            return []
        records = []
        for line in trail_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                records.append(TrailRecord.from_dict(json.loads(line)))
        return records

    def trail(self) -> list[TrailRecord]:
        """The recorded trail, read once per snapshot and kept in step with
        the snapshot's own appends. Callers must not modify the list."""
        if self._trail is None:
            self._trail = self.trail_records()
        return self._trail

    def _append_trail(self, records: list[TrailRecord]) -> None:
        if not records:
            return
        with (self.path / TRAIL_NAME).open("a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
        if self._trail is not None:
            self._trail.extend(records)

    def _observation_events(self, doc: ArtifactDocument, last: Optional[TrailRecord]) -> list[TrailRecord]:
        """Events that record ``doc`` given the artifact's last trail record."""
        body_hash = doc.meta.content_hash
        status = doc.meta.status.value
        ts = doc.meta.created_at
        out: list[TrailRecord] = []
        if last is None:
            out.append(TrailRecord(ts, "created", doc.id, doc.meta.version, body_hash, status))
            if status == "final":
                out.append(TrailRecord(ts, "finalized", doc.id, doc.meta.version, body_hash, status))
            return out
        if doc.meta.version == last.version:
            if body_hash == last.hash and status == "final" and last.status != "final":
                out.append(TrailRecord(ts, "finalized", doc.id, doc.meta.version, body_hash, status))
            return out  # same-version content changes are left for reconstruction to flag
        if doc.meta.version == last.version + 1:
            out.append(TrailRecord(ts, "updated", doc.id, doc.meta.version, body_hash, status))
            if status == "final" and last.status != "final":
                out.append(TrailRecord(ts, "finalized", doc.id, doc.meta.version, body_hash, status))
        return out  # version jumps and rollbacks are likewise left as gaps

    def sync_trail(self) -> list[TrailRecord]:
        """Record unseen artifact versions. Call under the writer lock path."""
        last = {rec.artifact_id: rec for rec in self.trail()}
        new: list[TrailRecord] = []
        for doc in sorted(self.artifacts.values(), key=lambda d: d.id):
            new.extend(self._observation_events(doc, last.get(doc.id)))
        self._append_trail(new)
        return new

    def write_artifact(self, doc: ArtifactDocument) -> ArtifactDocument:
        """Serialize an artifact into the repository and record the trail.

        The content hash is recomputed from the body. Rewriting an existing
        version with different content is rejected; bump the version instead.
        """
        doc = rehash(doc)
        with self.lock():
            recorded = [r for r in self.trail_records() if r.artifact_id == doc.id]
            for rec in recorded:
                if rec.version == doc.meta.version and rec.hash != doc.meta.content_hash:
                    raise AuditError(
                        "E_VERSION_REUSED",
                        f"{doc.id} v{doc.meta.version} already recorded with different content",
                    )
            if recorded and doc.meta.version < max(r.version for r in recorded):
                raise AuditError(
                    "E_VERSION_REUSED",
                    f"{doc.id} v{doc.meta.version} is older than the recorded v{max(r.version for r in recorded)}",
                )
            path = self.artifact_path(doc)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(serialize_artifact(doc))
            self._append_trail(self._observation_events(doc, recorded[-1] if recorded else None))
        stale = self.artifacts.get(doc.id)
        if stale is not None and stale.meta.stage is not doc.meta.stage:
            old_path = self.artifact_path(stale)
            if old_path.exists():
                old_path.unlink()
        self.artifacts[doc.id] = doc
        self._invalidate()
        return doc


def init_repository(
    path: str | Path,
    profile: str = "full",
    *,
    audit_id: str | None = None,
    product_name: str = "",
    now: str | None = None,
) -> AuditRepository:
    """Scaffold a fresh repository with stage directories and input templates."""
    root = Path(path)
    if root.exists() and any(root.iterdir()):
        raise AuditError("E_EXISTS", f"{root} already contains files")
    if profile not in ("full", "light"):
        raise AuditError("E_CONFIG", f"unknown profile {profile!r}")
    root.mkdir(parents=True, exist_ok=True)
    for stage in Stage:
        (root / ARTIFACT_DIR / stage.value).mkdir(parents=True, exist_ok=True)

    manifest = Manifest(
        audit_id=audit_id or (root.name or "audit"),
        product_name=product_name,
        profile=profile,
    )
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (root / STATE_NAME).write_text(
        json.dumps(WorkflowState().to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (root / TRAIL_NAME).write_text("", encoding="utf-8")

    repo = AuditRepository.load(root)
    now = now or clock.now_iso()
    repo.write_artifact(
        make_artifact(
            ArtifactKind.PRINCIPLES_DECLARATION,
            "principles",
            {"principles": TEMPLATE_PRINCIPLES},
            created_at=now,
        )
    )
    repo.write_artifact(
        make_artifact(
            ArtifactKind.PRODUCT_REQUIREMENTS_DOC,
            "product-requirements",
            {"product_name": product_name, "requirements": []},
            created_at=now,
        )
    )
    return repo
