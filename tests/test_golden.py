"""Golden snapshots of the CLI's outputs on the two demo audits.

Each audit is built from its fixture and driven through a fixed session
with the clock pinned: ``--format machine validate``, ``status``,
``gate reflection``, ``trace``, ``report`` and a second ``report``. The
files under ``tests/golden/<audit>/`` hold the expected bytes, so any
refactor that changes a diagnostic line, the stage table, the gate verdict,
the ADHF graph, the trail or the rendered report fails here.

Regenerate after an intended change of output with
``PYTHONPATH=src python -m tests.test_golden`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from auditflow import clock
from auditflow.cli import main
from auditflow.fixtures import build_screening_repo, build_smile_repo

GOLDEN = Path(__file__).resolve().parent / "golden"
NOW = "2026-03-02T20:00:00+00:00"
BUILDERS = {"smile": build_smile_repo, "screening": build_screening_repo}


def _cli(repo: Path, *argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--repo", str(repo), "--format", "machine", *argv])
    return f"exit {code}\n{out.getvalue()}"


def session_outputs(repo: Path) -> dict[str, bytes]:
    """Run the fixed session on a built audit; file name -> bytes."""
    out = {"validate.out": _cli(repo, "validate").encode()}
    out["status.out"] = _cli(repo, "status").encode()
    out["gate.out"] = _cli(repo, "gate", "reflection").encode()
    out["trace.out"] = _cli(repo, "trace").encode()
    out["trace.adhf.graph"] = (repo / "adhf.graph").read_bytes()
    out["trace.trail.log"] = (repo / "trail.log").read_bytes()
    out["report.out"] = _cli(repo, "report").encode()
    out["report.audit_report.txt"] = (repo / "audit_report.txt").read_bytes()
    out["report.trail.log"] = (repo / "trail.log").read_bytes()
    out["report2.out"] = _cli(repo, "report").encode()
    out["report2.trail.log"] = (repo / "trail.log").read_bytes()
    return out


@pytest.mark.parametrize("audit", sorted(BUILDERS))
def test_session_matches_golden_snapshot(audit, request, tmp_path, monkeypatch):
    monkeypatch.setenv(clock.ENV_NOW, NOW)
    repo = tmp_path / audit
    shutil.copytree(request.getfixturevalue(f"{audit}_repo_dir"), repo)
    outputs = session_outputs(repo)
    expected = {p.name: p.read_bytes() for p in (GOLDEN / audit).iterdir()}
    assert sorted(outputs) == sorted(expected)
    for name, data in outputs.items():
        assert data == expected[name], f"{audit}/{name} differs from its golden snapshot"
    assert outputs["report2.trail.log"] == outputs["report.trail.log"]  # a second report records nothing


def regenerate() -> None:
    os.environ[clock.ENV_NOW] = NOW
    with tempfile.TemporaryDirectory() as tmp:
        for audit in sorted(BUILDERS):
            target = GOLDEN / audit
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            repo = Path(tmp) / audit
            BUILDERS[audit](repo)
            for name, data in session_outputs(repo).items():
                (target / name).write_bytes(data)
            print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
