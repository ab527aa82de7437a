from __future__ import annotations

import json

import pytest

from auditflow.artifacts import Stage
from auditflow.canonical import content_hash
from auditflow.diagnostics import AuditError
from auditflow.repository import AuditRepository, init_repository
from auditflow.risk import FmeaEntry, RiskRegister
from auditflow.trace import (
    TraceEdge,
    TraceGraph,
    TraceNode,
    build_graph,
    find_gaps,
    reconstruct_trail,
    replay_workflow_state,
)


def _rehash_file(path):
    raw = json.loads(path.read_text())
    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    return raw


def test_smile_graph_contains_the_biometric_privacy_threat_edge(smile_repo):
    graph = build_graph(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    assert TraceEdge("risk:FM-FACE-RETAIN", "threatens", "principle:privacy") in graph.edges


def test_principles_only_repo_yields_isolated_principle_nodes(tmp_path):
    repo = init_repository(tmp_path / "fresh", "full", now="2026-01-01T00:00:00+00:00")
    graph = build_graph(repo, generated_at="2026-01-01T01:00:00+00:00")
    principle_nodes = [n for n in graph.nodes if n.node_kind == "principle"]
    assert len(principle_nodes) == 5
    assert graph.edges == ()


def test_node_count_matches_independent_recount(smile_repo):
    graph = build_graph(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    docs = [d for d in smile_repo.artifacts.values() if d.kind.value != "AuditSummaryReport"]
    principles = sum(len(d.body.get("principles", [])) for d in docs)
    requirements = sum(len(d.body.get("requirements", [])) for d in docs)
    risks = len(smile_repo.register_doc().body["entries"])
    tests = sum(len(d.body.get("test_cases", [])) for d in docs)
    mitigations = sum(
        len(d.body.get("items", [])) for d in docs if d.kind.value == "RemediationPlan"
    )
    decisions = len(smile_repo.state.gate_log)
    expected = len(docs) + principles + requirements + risks + tests + mitigations + decisions
    assert len(graph.nodes) == expected


def test_graph_is_deterministic_and_hash_ignores_timestamp(smile_repo):
    g1 = build_graph(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    g2 = build_graph(smile_repo, generated_at="2026-03-02T15:00:00+00:00")
    assert g1.serialize() == g2.serialize()
    g3 = build_graph(smile_repo, generated_at="2026-03-09T09:09:09+00:00")
    assert g1.graph_hash() == g3.graph_hash()
    assert g1.serialize() != g3.serialize()


def test_dangling_reference_rejected(smile_copy):
    path = smile_copy / "artifacts" / "artifact_collection" / "model-card-smile.json"
    raw = json.loads(path.read_text())
    raw["body"]["covers_requirements"] = ["R-NOT-A-REQUIREMENT"]
    _rehash = content_hash(raw["body"])
    raw["meta"]["content_hash"] = _rehash
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError) as exc:
        build_graph(repo, generated_at="2026-03-02T15:00:00+00:00")
    assert exc.value.code == "E_DANGLING_REF"


def test_supersedes_cycle_rejected(smile_copy):
    a = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    b = smile_copy / "artifacts" / "scoping" / "social-impact.json"
    raw_a = json.loads(a.read_text())
    raw_b = json.loads(b.read_text())
    raw_a["body"]["supersedes"] = "social-impact"
    raw_b["body"]["supersedes"] = "ethical-review"
    raw_a["meta"]["content_hash"] = content_hash(raw_a["body"])
    raw_b["meta"]["content_hash"] = content_hash(raw_b["body"])
    a.write_text(json.dumps(raw_a))
    b.write_text(json.dumps(raw_b))
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError) as exc:
        build_graph(repo, generated_at="2026-03-02T15:00:00+00:00")
    assert any(d.code == "E_TRACE_CYCLE" for d in exc.value.diagnostics)


# --- gap analysis over a fully wired toy graph -------------------------------

TOY_NODES = (
    TraceNode("artifact:a1", "artifact", "a1", "2026-01-01T00:00:00+00:00"),
    TraceNode("mitigation:m1", "mitigation", "plan", "2026-01-01T00:00:00+00:00", ("planned",)),
    TraceNode("principle:p1", "principle", "principles", "2026-01-01T00:00:00+00:00"),
    TraceNode("requirement:r1", "requirement", "prd", "2026-01-01T00:00:00+00:00"),
    TraceNode("risk:k1", "risk", "register", "2026-01-01T00:00:00+00:00", ("open",)),
    TraceNode("test:t1", "test_case", "atr", "2026-01-01T00:00:00+00:00", ("failed",)),
)

TOY_EDGES = {
    "exercises": TraceEdge("test:t1", "exercises", "risk:k1"),
    "mitigates": TraceEdge("mitigation:m1", "mitigates", "risk:k1"),
    "threatens": TraceEdge("risk:k1", "threatens", "principle:p1"),
    "evidences": TraceEdge("artifact:a1", "evidences", "requirement:r1"),
}

TOY_REGISTER = RiskRegister(
    (
        FmeaEntry(
            id="k1",
            failure_mode="toy failure",
            effect="toy effect",
            cause="toy cause",
            severity=5,
            likelihood=5,
            threatened_principles=("p1",),
        ),
    )
)

# expected diagnostics per deleted edge, frozen ahead of the sweep
DELETION_ORACLE = {
    "exercises": {"W_UNTESTED_RISK", "W_UNMITIGATED_FAILURE"},
    "mitigates": {"W_UNMITIGATED_FAILURE"},
    "threatens": {"W_UNEXAMINED_PRINCIPLE"},
    "evidences": {"E_ORPHAN_REQUIREMENT"},
}


def _toy_graph(edges):
    return TraceGraph(
        nodes=TOY_NODES,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.edge_kind, e.dst))),
        generated_at="2026-01-01T00:00:00+00:00",
        repo_hash="0" * 64,
    )


def test_fully_covered_toy_graph_has_no_gaps():
    assert find_gaps(_toy_graph(TOY_EDGES.values()), TOY_REGISTER) == []


def test_each_edge_deletion_yields_exactly_the_predicted_diagnostics():
    for name, expected in DELETION_ORACLE.items():
        edges = [e for key, e in TOY_EDGES.items() if key != name]
        got = {d.code for d in find_gaps(_toy_graph(edges), TOY_REGISTER)}
        assert got == expected, name


def test_adding_coverage_never_creates_new_gaps():
    full = {(d.code, d.path) for d in find_gaps(_toy_graph(TOY_EDGES.values()), TOY_REGISTER)}
    for name in TOY_EDGES:
        edges = [e for key, e in TOY_EDGES.items() if key != name]
        partial = {(d.code, d.path) for d in find_gaps(_toy_graph(edges), TOY_REGISTER)}
        assert full <= partial


def test_screening_fixture_reports_unmitigated_false_negative(screening_repo):
    graph = build_graph(screening_repo, generated_at="2026-04-06T15:00:00+00:00")
    gaps = find_gaps(graph, screening_repo.risk_register(), screening_repo.risk_matrix())
    assert any(d.code == "W_UNMITIGATED_FAILURE" and "TC-PROFILES" in d.message for d in gaps)


# --- trail reconstruction ------------------------------------------------------

def test_empty_repo_has_an_empty_trail(tmp_path):
    root = tmp_path / "bare"
    (root / "artifacts").mkdir(parents=True)
    (root / "manifest.json").write_text(json.dumps({"audit_id": "bare"}))
    (root / "trail.log").write_text("")
    repo = AuditRepository.load(root)
    assert reconstruct_trail(repo) == []


def test_full_fixture_trail_interleaves_gates_in_stage_order(smile_repo):
    events = reconstruct_trail(smile_repo)
    gates = [e for e in events if e.event == "gate_passed"]
    assert [g.ref for g in gates] == ["mapping", "artifact_collection", "testing", "reflection"]
    # every gate event comes after the artifact events of the prior stage
    order = [e.event for e in events]
    assert order.count("gate_passed") == 4
    assert events == sorted(events, key=lambda e: e.timestamp)


def test_trail_round_trips_the_workflow_state(smile_repo):
    events = reconstruct_trail(smile_repo)
    assert replay_workflow_state(events) == smile_repo.state


def test_trail_hashes_match_current_artifacts(smile_repo):
    events = reconstruct_trail(smile_repo)
    last_hash = {}
    for e in events:
        if e.event in ("created", "updated"):
            last_hash[e.ref] = e.hash
    for doc in smile_repo.artifacts.values():
        assert last_hash[doc.id] == doc.meta.content_hash


def test_body_edit_without_version_bump_is_a_history_gap(smile_copy):
    path = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    raw = json.loads(path.read_text())
    raw["body"]["use_case"] = raw["body"]["use_case"] + " (edited after the fact)"
    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError) as exc:
        reconstruct_trail(repo)
    assert exc.value.code == "E_HISTORY_GAP"


def test_version_jump_is_a_history_gap(smile_copy):
    path = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    raw = json.loads(path.read_text())
    raw["meta"]["version"] = raw["meta"]["version"] + 2
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    repo.sync_trail()  # a jump must not be silently adopted
    with pytest.raises(AuditError) as exc:
        reconstruct_trail(repo)
    assert exc.value.code == "E_HISTORY_GAP"


def test_version_rollback_is_a_history_gap(smile_copy):
    path = smile_copy / "artifacts" / "mapping" / "fmea-register.json"
    raw = json.loads(path.read_text())
    raw["meta"]["version"] = 1
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError) as exc:
        reconstruct_trail(repo)
    assert exc.value.code == "E_HISTORY_GAP"


def test_unrecorded_artifact_is_a_gap_until_synced(smile_copy, tmp_path):
    from auditflow.artifacts import ArtifactKind, make_artifact, serialize_artifact

    doc = make_artifact(
        ArtifactKind.FIELD_STUDY_REPORT,
        "field-study-extra",
        {"interviews": []},
        created_at="2026-03-02T16:00:00+00:00",
    )
    (smile_copy / "artifacts" / "mapping" / "field-study-extra.json").write_bytes(serialize_artifact(doc))
    repo = AuditRepository.load(smile_copy)
    with pytest.raises(AuditError):
        reconstruct_trail(repo)
    repo.sync_trail()
    events = reconstruct_trail(repo)
    assert any(e.ref == "field-study-extra" and e.event == "created" for e in events)


def test_honest_version_bump_is_recorded_by_sync(smile_copy):
    path = smile_copy / "artifacts" / "scoping" / "ethical-review.json"
    raw = json.loads(path.read_text())
    raw["body"]["use_case"] = raw["body"]["use_case"] + " v2"
    raw["meta"]["version"] = raw["meta"]["version"] + 1
    raw["meta"]["created_at"] = "2026-03-02T18:00:00+00:00"
    raw["meta"]["content_hash"] = content_hash(raw["body"])
    path.write_text(json.dumps(raw))
    repo = AuditRepository.load(smile_copy)
    repo.sync_trail()
    events = reconstruct_trail(repo)
    assert any(e.ref == "ethical-review" and e.event == "updated" and e.version == 2 for e in events)


def test_failed_test_over_two_risks_is_covered_when_one_is_mitigated():
    nodes = TOY_NODES + (TraceNode("risk:k2", "risk", "register", "2026-01-01T00:00:00+00:00", ("open",)),)
    edges = list(TOY_EDGES.values()) + [
        TraceEdge("test:t1", "exercises", "risk:k2"),
        TraceEdge("risk:k2", "threatens", "principle:p1"),
    ]

    def graph(edges):
        return TraceGraph(
            nodes=tuple(sorted(nodes, key=lambda n: n.id)),
            edges=tuple(sorted(edges, key=lambda e: (e.src, e.edge_kind, e.dst))),
            generated_at="2026-01-01T00:00:00+00:00",
            repo_hash="0" * 64,
        )

    assert find_gaps(graph(edges), TOY_REGISTER) == []
    gaps = find_gaps(graph([e for e in edges if e.edge_kind != "mitigates"]), TOY_REGISTER)
    assert [(d.code, d.path) for d in gaps] == [("W_UNMITIGATED_FAILURE", "test:t1")]
