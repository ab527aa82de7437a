"""Command line interface.

Commands: ``init``, ``validate``, ``status``, ``gate``, ``risk``,
``trace``, ``report``. All take ``--repo`` (default ``.``) and most accept
``--format {text,machine}`` where machine output is the sorted diagnostic
line format. Exit codes: 0 success/pass, 1 parse failure (validate), 2
failure or error, 3 usage. Read commands never take the repository lock and
never write; write actions are opt-in flags (``--advance``,
``--ingest-tests``) or the ``trace``/``report`` output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import clock
from .artifacts import (
    ArtifactKind,
    ArtifactStatus,
    Stage,
    make_artifact,
    parse_artifact,
)
from .canonical import content_hash
from .diagnostics import AuditError, Severity, format_lines, has_errors
from .report import compile_report, render_text
from .repository import AuditRepository, init_repository
from .risk import prioritize_risks, update_fmea_with_tests
from .trace import build_graph, reconstruct_trail
from .workflow import advance_stage, check_gate, check_requirements

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_FAIL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 on usage problems
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _stage_arg(value: str) -> Stage:
    norm = value.strip().lower().replace("-", "_")
    for stage in Stage:
        if norm in (stage.value, stage.display.lower()):
            return stage
    raise argparse.ArgumentTypeError(
        f"unknown stage {value!r}; expected one of {', '.join(s.display for s in Stage)}"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="auditflow", description="Stage-gated audit repository tool")
    parser.add_argument("--repo", default=".", help="repository path (default: current directory)")
    parser.add_argument(
        "--format",
        choices=("text", "machine"),
        default="text",
        help="output style; machine emits sorted diagnostic lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="scaffold a new audit repository")
    p_init.add_argument("--profile", choices=("full", "light"), default="full")
    p_init.add_argument("--audit-id", default=None)
    p_init.add_argument("--product", default="")

    sub.add_parser("validate", help="parse and validate every artifact")
    sub.add_parser("status", help="current stage and per-stage artifact table")

    p_gate = sub.add_parser("gate", help="check (and optionally pass) a stage gate")
    p_gate.add_argument("stage", type=_stage_arg)
    p_gate.add_argument("--advance", action="store_true", help="advance the workflow when the gate passes")
    p_gate.add_argument(
        "--waive-checklist",
        action="store_true",
        help="let an incomplete checklist through; the waiver is recorded in the gate log",
    )

    p_risk = sub.add_parser("risk", help="show the prioritized register; optionally ingest test results")
    p_risk.add_argument(
        "--ingest-tests",
        metavar="REPORT",
        default=None,
        help="artifact id (or file path) of an adversarial testing report to fold in",
    )

    sub.add_parser("trace", help="write adhf.graph and print the audit trail")
    sub.add_parser("report", help="compile audit_report.txt and the summary artifact")
    return parser


def _load(args) -> AuditRepository:
    return AuditRepository.load(Path(args.repo))


def _print_diags(diags, fmt: str) -> None:
    sys.stdout.write(format_lines(diags))
    if fmt == "text":
        errors = sum(1 for d in diags if d.severity is Severity.ERROR)
        warnings = sum(1 for d in diags if d.severity is Severity.WARNING)
        print(f"{errors} error(s), {warnings} warning(s)")


def cmd_init(args) -> int:
    repo = init_repository(
        Path(args.repo), args.profile, audit_id=args.audit_id, product_name=args.product
    )
    print(f"initialized audit repository at {repo.path} (profile {args.profile})")
    return EXIT_OK


def cmd_validate(args) -> int:
    repo = _load(args)
    diags = repo.validate_repository()
    _print_diags(diags, args.format)
    if repo.parse_failures:
        return EXIT_PARSE
    if has_errors(diags):
        return EXIT_FAIL
    return EXIT_OK


def cmd_status(args) -> int:
    repo = _load(args)
    current = repo.state.current_stage
    for stage in Stage:
        checks = check_requirements(repo, stage)
        done = sum(1 for c in checks if not c.diagnostics)
        marker = "*" if stage is current else " "
        print(f"{marker} {stage.display} ({done}/{len(checks)} artifacts final)")
        for c in checks:
            req = c.requirement
            if not c.docs:
                state = "missing"
            elif any(d.meta.status is ArtifactStatus.FINAL for d in c.docs):
                state = "final"
            else:
                state = "draft"
            ids = ",".join(d.id for d in c.docs) or "-"
            print(f"    {req.kind.value:<26} {req.producer.value:<12} {req.min_status.value:<6} {state:<8} {ids}")
    print(f"current stage: {current.display}")
    return EXIT_OK


def cmd_gate(args) -> int:
    repo = _load(args)
    result = check_gate(repo, args.stage, waive_checklist=args.waive_checklist)
    _print_diags(result.diagnostics, args.format)
    if not result.passed:
        print(f"gate {args.stage.display}: FAIL")
        return EXIT_FAIL
    if args.advance:
        repo.sync_trail()
        advance_stage(repo, args.stage, waive_checklist=args.waive_checklist)
        print(f"gate {args.stage.display}: PASS (advanced)")
    else:
        print(f"gate {args.stage.display}: PASS")
    return EXIT_OK


def _resolve_test_report(repo: AuditRepository, ref: str):
    doc = repo.get(ref)
    if doc is not None:
        return doc
    path = Path(ref)
    if path.is_file():
        return parse_artifact(path.read_bytes(), ArtifactKind.ADVERSARIAL_TESTING_REPORT)
    raise AuditError("E_UNKNOWN_FMEA_ID", f"no adversarial testing report at {ref!r}")


def cmd_risk(args) -> int:
    repo = _load(args)
    register_doc = repo.register_doc()
    if register_doc is None:
        print("no risk register in this repository", file=sys.stderr)
        return EXIT_FAIL
    register = repo.risk_register()
    matrix = repo.risk_matrix()

    if args.ingest_tests:
        report = _resolve_test_report(repo, args.ingest_tests)
        register, deltas = update_fmea_with_tests(register, report, matrix)
        repo.write_artifact(
            make_artifact(
                ArtifactKind.FMEA_REGISTER,
                register_doc.id,
                register.to_body(),
                status=register_doc.meta.status,
                version=register_doc.meta.version + 1,
                created_at=clock.now_iso(),
                producer=register_doc.meta.producer,
                stage=register_doc.meta.stage,
            )
        )
        repo.sync_trail()
        for delta in deltas:
            print(delta.line())

    for e in prioritize_risks(register, matrix):
        if args.format == "machine":
            print("\t".join((e.id, str(e.severity), str(e.likelihood), e.risk_class(matrix), e.status)))
        else:
            print(
                f"{e.id:<16} severity={e.severity} likelihood={e.likelihood} "
                f"class={e.risk_class(matrix)} status={e.status} {e.failure_mode}"
            )
    return EXIT_OK


def cmd_trace(args) -> int:
    repo = _load(args)
    repo.sync_trail()
    graph = build_graph(repo)
    (repo.path / "adhf.graph").write_bytes(graph.serialize())
    events = reconstruct_trail(repo)
    for event in events:
        print(event.line())
    if args.format == "text":
        print(f"wrote {repo.path / 'adhf.graph'} ({len(graph.nodes)} nodes, {len(graph.edges)} edges)")
    return EXIT_OK


def cmd_report(args) -> int:
    repo = _load(args)
    repo.sync_trail()
    report, _graph = compile_report(repo)
    (repo.path / "audit_report.txt").write_text(render_text(report, repo), encoding="utf-8")

    body = report.to_artifact_body()
    existing = repo.get("audit-summary")
    if existing is None or existing.meta.content_hash != content_hash(body):
        version = existing.meta.version + 1 if existing is not None else 1
        repo.write_artifact(
            make_artifact(
                ArtifactKind.AUDIT_SUMMARY_REPORT,
                "audit-summary",
                body,
                status="final",
                version=version,
                created_at=clock.now_iso(),
            )
        )
    print(f"verdict {report.verdict}")
    if args.format == "text":
        print(f"wrote {repo.path / 'audit_report.txt'}")
    return EXIT_OK


_COMMANDS = {
    "init": cmd_init,
    "validate": cmd_validate,
    "status": cmd_status,
    "gate": cmd_gate,
    "risk": cmd_risk,
    "trace": cmd_trace,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AuditError as exc:
        if exc.diagnostics:
            sys.stdout.write(format_lines(exc.diagnostics))
        print(f"error: {exc.code} {exc.message}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
