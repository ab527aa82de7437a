"""Static checks over the package source.

Modules talk to each other through public names only, and the per-requirement
gate diagnostics come from one evaluator, so ``gate``, ``status`` and the
report's readiness lines cannot drift apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "auditflow"
GATE_REQUIREMENT_CODES = {"E_GATE_MISSING", "E_GATE_STATUS", "E_GATE_PRODUCER", "E_GATE_INVALID"}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_module_imports_a_private_name_from_another():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.extend(
                    f"{name}:{node.lineno} from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert found == []


def test_gate_requirement_diagnostics_are_made_only_by_check_requirements():
    uses = []
    evaluator = None
    for name, tree in _modules():
        if name == "diagnostics.py":  # the code registry
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in GATE_REQUIREMENT_CODES:
                uses.append((name, node.lineno))
            if name == "workflow.py" and isinstance(node, ast.FunctionDef) and node.name == "check_requirements":
                evaluator = range(node.lineno, node.end_lineno + 1)
    assert evaluator is not None
    assert uses and all(name == "workflow.py" and line in evaluator for name, line in uses), uses
