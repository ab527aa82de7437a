"""Design history traceability.

Builds a typed graph over principles, requirements, risks, test cases,
mitigations, artifacts, and gate decisions; reconstructs the chronological
audit trail from the repository ledger; and reports coverage gaps.

Node ids are namespaced (``principle:privacy``, ``risk:FM-1``, ...) so ids
from different artifact families cannot collide. The summary report is the
distillation of this graph and is deliberately not part of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import clock
from .artifacts import STAGES, ArtifactKind, Stage
from .canonical import content_hash
from .diagnostics import AuditError, Diagnostic, make, sort_diagnostics
from .risk import RiskMatrix, RiskRegister
from .workflow import GateLogEntry, WorkflowState, required_artifacts

if TYPE_CHECKING:
    from .repository import AuditRepository


# Graph records are tuples, so hashing and sorting them runs in C: node ids
# are unique, and an edge's field order is its sort order.
class TraceNode(NamedTuple):
    id: str
    node_kind: str
    source_artifact: str
    created_at: str
    flags: tuple[str, ...] = ()


class TraceEdge(NamedTuple):
    src: str
    edge_kind: str
    dst: str


@dataclass(frozen=True)
class TraceGraph:
    nodes: tuple[TraceNode, ...]
    edges: tuple[TraceEdge, ...]
    generated_at: str
    repo_hash: str

    def graph_hash(self) -> str:
        """Hash of nodes, edges, and repo hash; the timestamp is excluded."""
        return content_hash({"nodes": self.nodes, "edges": self.edges, "repo_hash": self.repo_hash})

    def serialize(self) -> bytes:
        lines = [
            "adhf-graph 1",
            f"repo-hash {self.repo_hash}",
            f"graph-hash {self.graph_hash()}",
            f"generated-at {self.generated_at}",
            f"nodes {len(self.nodes)}",
        ]
        for n in self.nodes:
            flags = ",".join(n.flags) if n.flags else "-"
            lines.append("\t".join(("node", n.id, n.node_kind, n.source_artifact or "-", n.created_at, flags)))
        lines.append(f"edges {len(self.edges)}")
        for e in self.edges:
            lines.append("\t".join(("edge", e.src, e.edge_kind, e.dst)))
        return ("\n".join(lines) + "\n").encode("utf-8")


def _ordered(nodes: dict[str, TraceNode], edges: set[TraceEdge]) -> tuple[tuple[TraceNode, ...], tuple[TraceEdge, ...]]:
    return tuple(sorted(nodes.values())), tuple(sorted(edges))


def build_graph(repo: "AuditRepository", *, generated_at: str | None = None) -> TraceGraph:
    """Derive the traceability graph from the repository's cross-references.

    Raises with code ``E_DANGLING_REF`` if any artifact references an id
    that does not exist.
    """
    nodes: dict[str, TraceNode] = {}
    edges: set[TraceEdge] = set()
    problems: list[Diagnostic] = []

    def add_node(node: TraceNode) -> None:
        if node.id in nodes:
            problems.append(
                make("E_DANGLING_REF", f"trace node id {node.id!r} is not unique", node.source_artifact or None)
            )
            return
        nodes[node.id] = node

    docs = [d for d in repo.artifacts.values() if d.kind is not ArtifactKind.AUDIT_SUMMARY_REPORT]
    docs.sort(key=lambda d: d.id)
    artifact_ids = {d.id for d in docs}

    for doc in docs:
        add_node(TraceNode(f"artifact:{doc.id}", "artifact", doc.id, doc.meta.created_at))

    principle_ids: set[str] = set()
    for doc in docs:
        if doc.kind is ArtifactKind.PRINCIPLES_DECLARATION:
            for p in doc.body.get("principles", []):
                pid = p.get("id", "")
                if pid:
                    principle_ids.add(pid)
                    add_node(TraceNode(f"principle:{pid}", "principle", doc.id, doc.meta.created_at))

    requirement_ids: set[str] = set()
    for doc in docs:
        if doc.kind is ArtifactKind.PRODUCT_REQUIREMENTS_DOC:
            for req in doc.body.get("requirements", []):
                rid = req.get("id", "")
                if not rid:
                    continue
                requirement_ids.add(rid)
                add_node(TraceNode(f"requirement:{rid}", "requirement", doc.id, doc.meta.created_at))

    risk_ids: set[str] = set()
    register_doc = repo.register_doc()
    if register_doc is not None and register_doc.kind is not ArtifactKind.AUDIT_SUMMARY_REPORT:
        for rec in register_doc.body.get("entries", []):
            rid = rec.get("id", "")
            if not rid:
                continue
            risk_ids.add(rid)
            flags = (rec.get("status", "open"),)
            add_node(TraceNode(f"risk:{rid}", "risk", register_doc.id, register_doc.meta.created_at, flags))

    # second pass: reference edges
    def require(target_id: str, pool: set[str], owner: str, path: str, label: str) -> bool:
        if target_id in pool:
            return True
        problems.append(make("E_DANGLING_REF", f"{label} {target_id!r} does not exist", owner, path))
        return False

    for doc in docs:
        for i, rid in enumerate(doc.body.get("covers_requirements", [])):
            if require(rid, requirement_ids, doc.id, f"body.covers_requirements[{i}]", "requirement"):
                edges.add(TraceEdge(f"artifact:{doc.id}", "evidences", f"requirement:{rid}"))
        sup = doc.body.get("supersedes")
        if sup is not None:
            if sup == doc.id:
                problems.append(make("E_DANGLING_REF", "artifact cannot supersede itself", doc.id, "body.supersedes"))
            elif require(sup, artifact_ids, doc.id, "body.supersedes", "artifact"):
                edges.add(TraceEdge(f"artifact:{doc.id}", "supersedes", f"artifact:{sup}"))

        if doc.kind is ArtifactKind.PRODUCT_REQUIREMENTS_DOC:
            for i, req in enumerate(doc.body.get("requirements", [])):
                rid = req.get("id", "")
                for j, pid in enumerate(req.get("derives_from", [])):
                    if rid and require(pid, principle_ids, doc.id, f"body.requirements[{i}].derives_from[{j}]", "principle"):
                        edges.add(TraceEdge(f"requirement:{rid}", "derives_from", f"principle:{pid}"))

        elif doc.kind is ArtifactKind.FMEA_REGISTER and doc is register_doc:
            for i, rec in enumerate(doc.body.get("entries", [])):
                rid = rec.get("id", "")
                if not rid:
                    continue
                for j, pid in enumerate(rec.get("threatened_principles", [])):
                    if require(pid, principle_ids, doc.id, f"body.entries[{i}].threatened_principles[{j}]", "principle"):
                        edges.add(TraceEdge(f"risk:{rid}", "threatens", f"principle:{pid}"))
                for j, ref in enumerate(rec.get("evidence_refs", [])):
                    if require(ref, artifact_ids, doc.id, f"body.entries[{i}].evidence_refs[{j}]", "artifact"):
                        edges.add(TraceEdge(f"artifact:{ref}", "evidences", f"risk:{rid}"))

        elif doc.kind is ArtifactKind.ADVERSARIAL_TESTING_REPORT:
            for i, case in enumerate(doc.body.get("test_cases", [])):
                cid = case.get("id", "")
                if not cid:
                    continue
                trials = case.get("trials", 0) or 0
                failures = case.get("failures", 0) or 0
                flags = ("failed",) if failures > 0 else ()
                add_node(TraceNode(f"test:{cid}", "test_case", doc.id, doc.meta.created_at, flags))
                target = case.get("target", "")
                if target == "new":
                    target = (case.get("new_entry") or {}).get("id", "")
                if target and require(target, risk_ids, doc.id, f"body.test_cases[{i}].target", "risk entry"):
                    edges.add(TraceEdge(f"test:{cid}", "exercises", f"risk:{target}"))

        elif doc.kind is ArtifactKind.REMEDIATION_PLAN:
            for i, item in enumerate(doc.body.get("items", [])):
                iid = item.get("id", "")
                if not iid:
                    continue
                add_node(TraceNode(f"mitigation:{iid}", "mitigation", doc.id, doc.meta.created_at, (item.get("status", "planned"),)))
                fid = item.get("fmea_id", "")
                if fid and require(fid, risk_ids, doc.id, f"body.items[{i}].fmea_id", "risk entry"):
                    edges.add(TraceEdge(f"mitigation:{iid}", "mitigates", f"risk:{fid}"))

    # gate decisions, evidenced by the artifacts present in prior stages
    cfg = repo.workflow_config()
    required = [required_artifacts(stage, cfg) for stage in STAGES]
    for entry in repo.state.gate_log:
        if entry.result != "pass":
            continue
        did = f"decision:gate:{entry.stage.value}"
        add_node(TraceNode(did, "decision", "", entry.timestamp))
        for reqs in required[: entry.stage.order]:
            for req in reqs:
                for doc in repo.by_kind(req.kind):
                    if doc.kind is ArtifactKind.AUDIT_SUMMARY_REPORT:
                        continue
                    edges.add(TraceEdge(f"artifact:{doc.id}", "evidences", did))

    # supersedes chains must not loop
    follow = {e.src: e.dst for e in edges if e.edge_kind == "supersedes"}
    for start in follow:
        seen = {start}
        cur = start
        while cur in follow:
            cur = follow[cur]
            if cur in seen:
                problems.append(make("E_TRACE_CYCLE", f"supersedes cycle through {start}", None))
                break
            seen.add(cur)

    if problems:
        raise AuditError("E_DANGLING_REF", "repository has unresolved references", sort_diagnostics(problems))

    ordered_nodes, ordered_edges = _ordered(nodes, edges)
    return TraceGraph(
        nodes=ordered_nodes,
        edges=ordered_edges,
        generated_at=generated_at or clock.now_iso(),
        repo_hash=repo.repo_content_hash(),
    )


def find_gaps(graph: TraceGraph, register: RiskRegister | None, matrix: RiskMatrix | None = None) -> list[Diagnostic]:
    """Coverage gaps: untested high risks, unmitigated failures, unexamined
    principles, and requirements without evidencing artifacts."""
    out: list[Diagnostic] = []
    exercised: set[str] = set()
    risks_of_test: dict[str, list[str]] = {}
    mitigated: set[str] = set()
    threatened_or_derived: set[str] = set()
    evidenced: set[str] = set()
    for e in graph.edges:
        if e.edge_kind == "exercises":
            exercised.add(e.dst)
            risks_of_test.setdefault(e.src, []).append(e.dst)
        elif e.edge_kind == "mitigates":
            mitigated.add(e.dst)
        elif e.edge_kind in ("threatens", "derives_from"):
            threatened_or_derived.add(e.dst)
        elif e.edge_kind == "evidences":
            evidenced.add(e.dst)

    if register is not None:
        for entry in register.open_entries():
            if not entry.scored or entry.risk_class(matrix) != "high":
                continue
            if f"risk:{entry.id}" not in exercised:
                out.append(
                    make(
                        "W_UNTESTED_RISK",
                        f"open high risk {entry.id} has no covering test case",
                        None,
                        f"risk:{entry.id}",
                    )
                )

    for node in graph.nodes:
        if node.node_kind == "test_case" and "failed" in node.flags:
            if not any(r in mitigated for r in risks_of_test.get(node.id, ())):
                out.append(
                    make(
                        "W_UNMITIGATED_FAILURE",
                        f"failed test {node.id.split(':', 1)[1]} has no mitigation path",
                        node.source_artifact,
                        node.id,
                    )
                )
        elif node.node_kind == "principle" and node.id not in threatened_or_derived:
            out.append(
                make(
                    "W_UNEXAMINED_PRINCIPLE",
                    f"principle {node.id.split(':', 1)[1]} has no risk or requirement edges",
                    node.source_artifact,
                    node.id,
                )
            )
        elif node.node_kind == "requirement" and node.id not in evidenced:
            out.append(
                make(
                    "E_ORPHAN_REQUIREMENT",
                    f"requirement {node.id.split(':', 1)[1]} has no evidencing artifact",
                    node.source_artifact,
                    node.id,
                )
            )
    return sort_diagnostics(out)


def exercised_by_test(graph: TraceGraph, test_node_id: str) -> list[str]:
    """Risk node ids a test node exercises, in edge order."""
    return [e.dst for e in graph.edges if e.edge_kind == "exercises" and e.src == test_node_id]


# ---------------------------------------------------------------------------
# trail reconstruction

_EVENT_RANK = {"created": 0, "updated": 1, "finalized": 2, "gate_passed": 3}


@dataclass(frozen=True)
class TrailEvent:
    timestamp: str
    event: str
    ref: str  # artifact id, or stage value for gate events
    version: Optional[int]
    hash: str

    def line(self) -> str:
        return "\t".join(
            (
                self.timestamp,
                self.event,
                self.ref,
                str(self.version) if self.version is not None else "-",
                self.hash,
            )
        )


def reconstruct_trail(repo: "AuditRepository") -> list[TrailEvent]:
    """Chronological audit trail, verified against current artifact hashes.

    Raises with code ``E_HISTORY_GAP`` when an artifact's content changed
    without a recorded version bump, when versions jump or roll back, or
    when a current artifact has no recorded history at all.
    """
    problems: list[Diagnostic] = []
    records = repo.trail()
    by_artifact: dict[str, list] = {}
    for rec in records:
        by_artifact.setdefault(rec.artifact_id, []).append(rec)

    for aid, recs in by_artifact.items():
        versions = [r.version for r in recs if r.event in ("created", "updated")]
        for a, b in zip(versions, versions[1:]):
            if b != a + 1:
                problems.append(
                    make("E_HISTORY_GAP", f"recorded versions jump from v{a} to v{b}", aid)
                )

    for doc in sorted(repo.artifacts.values(), key=lambda d: d.id):
        recs = by_artifact.get(doc.id)
        if not recs:
            problems.append(make("E_HISTORY_GAP", "artifact has no recorded history", doc.id))
            continue
        last = recs[-1]
        if doc.meta.version != last.version:
            problems.append(
                make(
                    "E_HISTORY_GAP",
                    f"file is v{doc.meta.version} but v{last.version} is the last recorded version",
                    doc.id,
                )
            )
        elif doc.meta.content_hash != last.hash:
            problems.append(
                make(
                    "E_HISTORY_GAP",
                    f"content changed without a version bump (recorded {last.hash[:12]}, found {doc.meta.content_hash[:12]})",
                    doc.id,
                )
            )

    if problems:
        raise AuditError("E_HISTORY_GAP", "audit trail does not match repository contents", sort_diagnostics(problems))

    events = [
        TrailEvent(rec.timestamp, rec.event, rec.artifact_id, rec.version, rec.hash) for rec in records
    ]
    for entry in repo.state.gate_log:
        events.append(
            TrailEvent(entry.timestamp, "gate_passed", entry.stage.value, None, entry.diagnostics_hash)
        )
    events.sort(key=lambda e: (e.timestamp, _EVENT_RANK.get(e.event, 9), e.ref, e.version or 0))
    return events


def replay_workflow_state(events: list[TrailEvent]):
    """Fold gate events back into a workflow state (round-trip check)."""
    entries = tuple(
        GateLogEntry(stage=Stage(e.ref), timestamp=e.timestamp, result="pass", diagnostics_hash=e.hash)
        for e in events
        if e.event == "gate_passed"
    )
    current = entries[-1].stage if entries else Stage.SCOPING
    return WorkflowState(current_stage=current, gate_log=entries)
