"""In-memory spans around the program's layer functions, for the traced run.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds every name
under which an ``auditflow`` module holds it (modules bind with
``from .x import y``, so patching the defining module alone would miss most
calls). A span records name, start, end, parent span and operation id; an
optional count rides along. Self times are computed afterwards from the
parent links.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

import auditflow
from auditflow import artifacts, canonical, checklist, cli, report, repository, risk, trace, workflow

# span name -> (owner, attribute, what to count from the result)
LAYERS = {
    "repository.load": (repository.AuditRepository, "load", None),
    "repository.validate": (repository.AuditRepository, "validate_repository", None),
    "repository.by_kind": (repository.AuditRepository, "by_kind", None),
    "repository.artifact_errors": (repository.AuditRepository, "artifact_errors", None),
    "repository.repo_hash": (repository.AuditRepository, "repo_content_hash", None),
    "repository.trail_read": (repository.AuditRepository, "trail_records", len),
    "repository.sync_trail": (repository.AuditRepository, "sync_trail", None),
    "repository.write": (repository.AuditRepository, "write_artifact", None),
    "artifacts.parse": (artifacts, "parse_artifact", None),
    "artifacts.validate": (artifacts, "validate_artifact", None),
    "artifacts.serialize": (artifacts, "serialize_artifact", None),
    "risk.register_build": (risk.RiskRegister, "from_artifact", None),
    "risk.get": (risk.RiskRegister, "get", None),
    "risk.validate_chart": (risk, "validate_chart", None),
    "risk.prioritize": (risk, "prioritize_risks", None),
    "risk.update_fmea": (risk, "update_fmea_with_tests", None),
    "checklist.verify": (checklist, "verify_inventory", None),
    "workflow.check_gate": (workflow, "check_gate", None),
    "trace.build_graph": (trace, "build_graph", None),
    "trace.find_gaps": (trace, "find_gaps", None),
    "trace.exercised_by_test": (trace, "exercised_by_test", None),
    "trace.reconstruct_trail": (trace, "reconstruct_trail", None),
    "report.compile": (report, "compile_report", None),
    "report.render": (report, "render_text", None),
    "canonical.hash": (canonical, "content_hash", None),
    "cli": (cli, "main", None),
}

MODULES = (auditflow, artifacts, canonical, checklist, cli, report, repository, risk, trace, workflow)

# per-layer metric -> (span name, what to total per round)
#   "self": self time in ms; "calls": number of spans; "count": sum of counts;
#   "under:<parent span>": number of spans whose parent is that span.
METRICS = {
    "repository.load_ms": ("repository.load", "self"),
    "repository.files_loaded": ("artifacts.parse", "under:repository.load"),
    "artifacts.parse_ms": ("artifacts.parse", "self"),
    "artifacts.validate_ms": ("artifacts.validate", "self"),
    "risk.validate_chart_ms": ("risk.validate_chart", "self"),
    "risk.get_calls": ("risk.get", "calls"),
    "risk.register_builds": ("risk.register_build", "calls"),
    "risk.register_build_ms": ("risk.register_build", "self"),
    "risk.prioritize_ms": ("risk.prioritize", "self"),
    "risk.update_fmea_ms": ("risk.update_fmea", "self"),
    "checklist.verify_ms": ("checklist.verify", "self"),
    "workflow.check_gate_ms": ("workflow.check_gate", "self"),
    "repository.by_kind_calls": ("repository.by_kind", "calls"),
    "repository.by_kind_ms": ("repository.by_kind", "self"),
    "repository.artifact_errors_ms": ("repository.artifact_errors", "self"),
    "repository.repo_hash_ms": ("repository.repo_hash", "self"),
    "repository.sync_trail_ms": ("repository.sync_trail", "self"),
    "repository.trail_read_ms": ("repository.trail_read", "self"),
    "repository.trail_records_read": ("repository.trail_read", "count"),
    "repository.write_self_ms": ("repository.write", "self"),
    "artifacts.serialize_ms": ("artifacts.serialize", "self"),
    "trace.build_graph_ms": ("trace.build_graph", "self"),
    "trace.find_gaps_ms": ("trace.find_gaps", "self"),
    "trace.exercised_by_test_calls": ("trace.exercised_by_test", "calls"),
    "trace.reconstruct_trail_ms": ("trace.reconstruct_trail", "self"),
    "report.compile_ms": ("report.compile", "self"),
    "report.render_ms": ("report.render", "self"),
    "canonical.hash_calls": ("canonical.hash", "calls"),
    "canonical.hash_ms": ("canonical.hash", "self"),
    "cli.self_ms": ("cli", "self"),
}


class Tracer:
    def __init__(self):
        # span: (name, start_ns, end_ns, parent index or -1, operation id, count or None)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A tuple of plain values drops out of the collector's view,
                # so a long run's spans do not slow every collection.
                spans[index] = (name, start, clock(), parent, self.op, None)
                stack.pop()
            if count is not None:
                spans[index] = spans[index][:5] + (count(result),)
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr, count) in LAYERS.items():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(name, raw.__func__, count))
                else:
                    patched = self._wrap(name, raw, count)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def per_layer(self, rounds: list[list[int]]) -> dict[str, float]:
        """Per-layer totals over each group of operation ids; the median over the groups."""
        group_of = {op: g for g, ops in enumerate(rounds) for op in ops}
        totals = {m: [0.0] * len(rounds) for m in METRICS}
        by_span: dict[str, list[tuple[str, str]]] = {}
        for metric, (span_name, how) in METRICS.items():
            by_span.setdefault(span_name, []).append((metric, how))
        own = self.self_times()
        for i, (name, _, _, parent, op, count) in enumerate(self.spans):
            g = group_of.get(op)
            if g is None or name not in by_span:
                continue
            for metric, how in by_span[name]:
                if how == "self":
                    totals[metric][g] += own[i] / 1e6
                elif how == "calls":
                    totals[metric][g] += 1
                elif how == "count":
                    totals[metric][g] += count
                elif parent >= 0 and self.spans[parent][0] == how.split(":", 1)[1]:
                    totals[metric][g] += 1
        return {m: statistics.median(v) for m, v in totals.items()}

    def dump(self, path: Path, ops: list[dict]) -> None:
        """Write the operations and spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for op in ops:
                fh.write(json.dumps({"op": op}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
