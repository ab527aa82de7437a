"""Expected command outputs, derived apart from the program.

Each rule here is written from the audit's specification (risk matrix,
verdict ladder, likelihood buckets, stage requirements, graph shape) and
applied to the generator's ``Model``. The ``check_*`` functions compare one
command's output with those derivations and raise ``Mismatch`` on the first
difference.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

from auditflow.artifacts import parse_artifact


class Mismatch(Exception):
    """A command's output differs from what the model says it must be."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def canonical_hash(value) -> str:
    """SHA-256 of compact, key-sorted UTF-8 JSON: the documented content hash."""
    data = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


# -- the audit's rules ---------------------------------------------------------

def risk_class(severity: int, likelihood: int) -> str:
    """Default matrix: high if s*l >= 15 or s = 5; low if s*l <= 4 and s <= 2."""
    score = severity * likelihood
    if score >= 15 or severity == 5:
        return "high"
    if score <= 4 and severity <= 2:
        return "low"
    return "mid"


_CLASS_ORDER = {"high": 0, "mid": 1, "low": 2}


def priority(entries: list[dict]) -> list[str]:
    """Entry ids by class, then s*l, then severity (all descending), then id."""
    def key(e):
        s, l = e["severity"], e["likelihood"]
        return (_CLASS_ORDER[risk_class(s, l)], -s * l, -s, e["id"])

    return [e["id"] for e in sorted(entries, key=key)]


def likelihood_bucket(rate: float, prior: int) -> int:
    """Re-estimated likelihood: a clean run decays the prior by one step."""
    if rate == 0:
        return max(1, prior - 1)
    for limit, level in ((0.01, 2), (0.1, 3), (0.5, 4)):
        if rate <= limit:
            return level
    return 5


STAGE_DISPLAY = {
    "scoping": "Scoping",
    "mapping": "Mapping",
    "artifact_collection": "ArtifactCollection",
    "testing": "Testing",
    "reflection": "Reflection",
}

# Full-profile stage requirements, in the order the stages run.
REQUIRED = {
    "scoping": ("PrinciplesDeclaration", "ProductRequirementsDoc", "EthicalReview", "SocialImpactAssessment"),
    "mapping": ("StakeholderMap", "SystemMap", "DesignHistoryReview", "FieldStudyReport", "FmeaRegister"),
    "artifact_collection": ("DesignChecklist", "ModelCard", "Datasheet"),
    "testing": ("AdversarialTestingReport", "EthicalRiskChart"),
    "reflection": ("FmeaRegister", "RemediationPlan", "AuditSummaryReport"),
}


def _bodies(model, kind: str) -> list[dict]:
    return [d.body for _, d in sorted(model.docs.items()) if d.kind == kind]


def _entries(model) -> list[dict]:
    return model.register().body["entries"]


def graph_counts(model) -> tuple[Counter, Counter]:
    """Node and edge counts by kind of the ADHF graph the documents imply."""
    nodes: Counter = Counter()
    edges: set[tuple[str, str, str]] = set()
    docs = {i: d for i, d in model.docs.items() if d.kind != "AuditSummaryReport"}
    nodes["artifact"] = len(docs)
    for body in _bodies(model, "PrinciplesDeclaration"):
        nodes["principle"] += len(body["principles"])
    for body in _bodies(model, "ProductRequirementsDoc"):
        for req in body["requirements"]:
            nodes["requirement"] += 1
            edges.update((f"requirement:{req['id']}", "derives_from", f"principle:{p}") for p in req["derives_from"])
    for e in _entries(model):
        nodes["risk"] += 1
        edges.update((f"risk:{e['id']}", "threatens", f"principle:{p}") for p in e["threatened_principles"])
        edges.update((f"artifact:{a}", "evidences", f"risk:{e['id']}") for a in e["evidence_refs"])
    for body in _bodies(model, "AdversarialTestingReport"):
        for case in body["test_cases"]:
            nodes["test_case"] += 1
            edges.add((f"test:{case['id']}", "exercises", f"risk:{case['target']}"))
    for body in _bodies(model, "RemediationPlan"):
        for item in body["items"]:
            nodes["mitigation"] += 1
            edges.add((f"mitigation:{item['id']}", "mitigates", f"risk:{item['fmea_id']}"))
    for artifact_id, doc in docs.items():
        edges.update(
            (f"artifact:{artifact_id}", "evidences", f"requirement:{r}") for r in doc.body.get("covers_requirements", [])
        )
    stages = list(REQUIRED)
    for gate in model.gate_stages:
        nodes["decision"] += 1
        for stage in stages[: stages.index(gate)]:
            for kind in REQUIRED[stage]:
                edges.update(
                    (f"artifact:{i}", "evidences", f"decision:{gate}") for i, d in docs.items() if d.kind == kind
                )
    return nodes, Counter(kind for _, kind, _ in edges)


def gap_counts(model) -> tuple[int, int]:
    """(open high risks with no test case, failed tests whose risk has no mitigation)."""
    cases = [c for body in _bodies(model, "AdversarialTestingReport") for c in body["test_cases"]]
    exercised = {c["target"] for c in cases}
    untested = sum(
        1 for e in _entries(model)
        if e["status"] == "open" and risk_class(e["severity"], e["likelihood"]) == "high" and e["id"] not in exercised
    )
    mitigated = {item["fmea_id"] for body in _bodies(model, "RemediationPlan") for item in body["items"]}
    unmitigated = sum(1 for c in cases if c["failures"] > 0 and c["target"] not in mitigated)
    return untested, unmitigated


def verdict(model) -> str:
    """Launch verdict: cancel, stall, conditional greenlight or greenlight."""
    blocking = [
        e["id"] for e in _entries(model)
        if e["status"] == "open" and risk_class(e["severity"], e["likelihood"]) == "high"
    ]
    items: dict[str, list[str]] = {}
    for body in _bodies(model, "RemediationPlan"):
        for item in body["items"]:
            items.setdefault(item["fmea_id"], []).append(item["status"])
    if any("infeasible" in items.get(e, []) for e in blocking):
        return "cancel"
    if any(e not in items for e in blocking):
        return "stall"
    if blocking:
        return "conditional_greenlight"
    covered = {r for d in model.docs.values() for r in d.body.get("covers_requirements", [])}
    orphans = [r for body in _bodies(model, "ProductRequirementsDoc") for r in body["requirements"]
               if r["id"] not in covered]
    return "conditional_greenlight" if orphans else "greenlight"


# -- output checks ---------------------------------------------------------------

def _diag_lines(out: str) -> list[list[str]]:
    return [line.split(" ", 4) for line in out.splitlines() if line.startswith(("ERROR ", "WARNING ", "INFO "))]


def check_validate(model, code: int, out: str) -> None:
    require(code == 0, f"validate exited {code}")
    diags = _diag_lines(out)
    errors = [d for d in diags if d[1].startswith("E_")]
    require(not errors, f"validate reported {len(errors)} error(s), first: {' '.join(errors[0]) if errors else ''}")
    require(out.splitlines()[-1].startswith("0 error(s), "), "validate summary line does not report 0 errors")
    on_generated = [d for d in diags if d[2] in model.generated]
    require(
        all(d[1] == "W_DS_SKEW" for d in on_generated) and len(on_generated) == model.skewed_axes,
        f"validate flags {len(on_generated)} generated axes, {model.skewed_axes} were generated skewed",
    )


_STAGE_LINE = re.compile(r"^([* ]) (\w+) \((\d+)/(\d+) artifacts final\)$")


def check_status(model, code: int, out: str) -> None:
    require(code == 0, f"status exited {code}")
    lines = out.splitlines()
    require(lines[-1] == "current stage: Reflection", f"status ends with {lines[-1]!r}")
    headers = [(i, _STAGE_LINE.match(line)) for i, line in enumerate(lines)]
    headers = [(i, m) for i, m in headers if m]
    require([m.group(2) for _, m in headers] == list(STAGE_DISPLAY.values()), "status lists the wrong stages")
    for (i, m), stage in zip(headers, REQUIRED):
        kinds = REQUIRED[stage]
        missing = 0 if model.summary_written or stage != "reflection" else 1
        require(m.group(1) == ("*" if stage == "reflection" else " "), f"status marks {stage} wrongly")
        require((int(m.group(3)), int(m.group(4))) == (len(kinds) - missing, len(kinds)),
                f"status shows {m.group(3)}/{m.group(4)} done for {stage}")
        for kind, row in zip(kinds, lines[i + 1: i + 1 + len(kinds)]):
            cols = row.split()
            ids = ["audit-summary"] if kind == "AuditSummaryReport" and model.summary_written else model.of_kind(kind)
            require(cols[0] == kind and cols[-1] == (",".join(ids) or "-"),
                    f"status row for {kind} lists {cols[-1][:60]!r}")


def check_gate(code: int, out: str) -> None:
    require(code == 0, f"gate exited {code}")
    require(out.splitlines()[-1] == "gate Reflection: PASS", "gate reflection did not pass")
    require(not any(d[0] == "ERROR" for d in _diag_lines(out)), "gate reported errors")


_RISK_LINE = re.compile(r"^(\S+)\s+severity=(\d) likelihood=(\d) class=(\w+) status=(\w+) ")


def check_risk_lines(model, lines: list[str]) -> None:
    entries = {e["id"]: e for e in _entries(model)}
    require(len(lines) == len(entries), f"risk lists {len(lines)} entries, the register has {len(entries)}")
    order = priority(list(entries.values()))
    for line, expected_id in zip(lines, order):
        m = _RISK_LINE.match(line)
        require(m is not None, f"unreadable risk line {line[:80]!r}")
        rid, s, l, cls, status = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4), m.group(5)
        require(rid == expected_id, f"risk lists {rid} where {expected_id} belongs")
        e = entries[rid]
        require((s, l, status) == (e["severity"], e["likelihood"], e["status"]), f"risk shows stale scores for {rid}")
        require(cls == risk_class(s, l), f"risk classes {rid} ({s}, {l}) as {cls}")


def check_risk(model, code: int, out: str) -> None:
    require(code == 0, f"risk exited {code}")
    check_risk_lines(model, out.splitlines())


def check_trace(model, code: int, out: str, repo: Path) -> str:
    """Check ``trace`` and return the graph hash it wrote."""
    require(code == 0, f"trace exited {code}")
    lines = out.splitlines()
    nodes, edges = graph_counts(model)
    events = len(lines) - 1
    require(events == model.trail_len + len(model.gate_stages),
            f"trace printed {events} events, expected {model.trail_len + len(model.gate_stages)}")
    tail = f"({sum(nodes.values())} nodes, {sum(edges.values())} edges)"
    require(lines[-1].endswith(tail), f"trace summary {lines[-1]!r} does not end with {tail}")
    graph = (repo / "adhf.graph").read_text(encoding="utf-8").splitlines()
    found_nodes = Counter(line.split("\t")[2] for line in graph if line.startswith("node\t"))
    found_edges = Counter(line.split("\t")[2] for line in graph if line.startswith("edge\t"))
    require(found_nodes == nodes, f"adhf.graph nodes {dict(found_nodes)} != {dict(nodes)}")
    require(found_edges == edges, f"adhf.graph edges {dict(found_edges)} != {dict(edges)}")
    return next(line.split(" ", 1)[1] for line in graph if line.startswith("graph-hash "))


def _section(text: str, name: str) -> list[str]:
    lines = text.splitlines()
    start = lines.index(f"[{name}]") + 1
    end = lines.index("", start)
    return lines[start:end]


def check_report(model, code: int, out: str, repo: Path) -> bytes:
    """Check ``report`` and return the bytes of audit_report.txt."""
    require(code == 0, f"report exited {code}")
    expected = verdict(model)
    require(out.splitlines()[0] == f"verdict {expected}", f"report says {out.splitlines()[0]!r}, expected {expected}")
    data = (repo / "audit_report.txt").read_bytes()
    text = data.decode("utf-8")
    require(_section(text, "verdict") == [expected], "audit_report.txt [verdict] differs")
    codes = Counter(line.split(" ")[1] for line in _section(text, "gaps"))
    untested, unmitigated = gap_counts(model)
    require((codes["W_UNTESTED_RISK"], codes["W_UNMITIGATED_FAILURE"]) == (untested, unmitigated),
            f"[gaps] has {codes['W_UNTESTED_RISK']} untested / {codes['W_UNMITIGATED_FAILURE']} unmitigated, "
            f"expected {untested} / {unmitigated}")
    return data


def _artifact_file(repo: Path, model, artifact_id: str) -> Path:
    return repo / "artifacts" / model.docs[artifact_id].stage / f"{artifact_id}.json"


def _check_file(model, repo: Path, artifact_id: str) -> str:
    doc = model.docs[artifact_id]
    raw = _artifact_file(repo, model, artifact_id).read_bytes()
    data = json.loads(raw)
    expected = canonical_hash(doc.body)
    require(data["body"] == doc.body, f"{artifact_id} on disk differs from what was written")
    require(data["meta"]["version"] == doc.version, f"{artifact_id} is v{data['meta']['version']}, not v{doc.version}")
    require(canonical_hash(data["body"]) == data["meta"]["content_hash"] == expected,
            f"{artifact_id} content hash does not match its body")
    require(parse_artifact(raw).meta.content_hash == expected, f"{artifact_id} re-parses to another hash")
    return expected


def check_write(model, artifact_id: str, events: list[str], repo: Path, trail_offset: int) -> None:
    """One version bump: the file re-parses to its hash and the trail gained exactly ``events``."""
    digest = _check_file(model, repo, artifact_id)
    doc = model.docs[artifact_id]
    with (repo / "trail.log").open("rb") as fh:
        fh.seek(trail_offset)
        added = [json.loads(line) for line in fh.read().splitlines() if line.strip()]
    wanted = [
        {"artifact_id": artifact_id, "event": e, "version": doc.version, "hash": digest, "status": doc.status}
        for e in events
    ]
    require([{k: r[k] for k in wanted[0]} for r in added] == wanted, f"write of {artifact_id} appended {added}")


def ingest_expectation(model, report_id: str) -> dict[str, int]:
    """New likelihood of each entry the report's test cases touch."""
    trials: dict[str, int] = {}
    failures: dict[str, int] = {}
    for case in model.docs[report_id].body["test_cases"]:
        trials[case["target"]] = trials.get(case["target"], 0) + case["trials"]
        failures[case["target"]] = failures.get(case["target"], 0) + case["failures"]
    prior = {e["id"]: e["likelihood"] for e in _entries(model)}
    return {t: likelihood_bucket(failures[t] / trials[t] if trials[t] else 0.0, prior[t]) for t in sorted(trials)}


def check_ingest(model, report_id: str, code: int, out: str, repo: Path) -> None:
    """``risk --ingest-tests``: deltas, the re-ranked register, and the new register version.

    Enters the register version the command should have written into ``model``.
    """
    new_likelihood = ingest_expectation(model, report_id)
    register_id = model.of_kind("FmeaRegister")[0]
    old = model.docs[register_id]
    old_entries = {e["id"]: e for e in old.body["entries"]}
    body = {"entries": [dict(e, likelihood=new_likelihood.get(e["id"], e["likelihood"])) for e in old.body["entries"]]}
    model.enter(register_id, replace(old, version=old.version + 1, body=body))
    require(code == 0, f"risk --ingest-tests exited {code}")
    lines = out.splitlines()
    deltas = [
        f"{t} {risk_class(old_entries[t]['severity'], old_entries[t]['likelihood'])}"
        f"→{risk_class(old_entries[t]['severity'], l)}"
        for t, l in new_likelihood.items()
    ]
    require(lines[: len(deltas)] == deltas, f"ingest deltas {lines[:len(deltas)][:3]} differ from {deltas[:3]}")
    check_risk_lines(model, lines[len(deltas):])
    _check_file(model, repo, register_id)


def check_trail(model, repo: Path) -> None:
    """The whole trail: one consecutive version history per artifact, ending at its current file."""
    records = [json.loads(line) for line in (repo / "trail.log").read_text(encoding="utf-8").splitlines() if line]
    require(len(records) == model.trail_len, f"trail.log holds {len(records)} records, expected {model.trail_len}")
    versions: dict[str, list[int]] = {}
    last: dict[str, dict] = {}
    for rec in records:
        if rec["event"] in ("created", "updated"):
            versions.setdefault(rec["artifact_id"], []).append(rec["version"])
        last[rec["artifact_id"]] = rec
    for artifact_id, seen in versions.items():
        require(seen == list(range(1, len(seen) + 1)), f"{artifact_id} versions run {seen[:5]}...")
    known = set(model.docs) | ({"audit-summary"} if model.summary_written else set())
    require(set(last) == known, f"trail covers {len(last)} artifacts, the audit holds {len(known)}")
    for artifact_id, doc in model.docs.items():
        rec = last[artifact_id]
        require((rec["version"], rec["hash"]) == (doc.version, canonical_hash(doc.body)),
                f"last trail record of {artifact_id} does not match its current version")
