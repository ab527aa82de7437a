"""Static checks over the package source.

Modules talk to each other through public names only and import each other
at module level, the per-requirement gate diagnostics come from one
evaluator, so ``gate``, ``status`` and the report's readiness lines cannot
drift apart, the diagnostic code registry matches the codes the source
uses, ``AuditRepository.load`` is the one reader of the artifact tree,
``AuditRepository.write_artifact`` leaves the whole-trail parse to the index,
and validation reads the findings of the parse's schema walk instead of
walking the schema again.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from auditflow.diagnostics import CODES

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


def test_every_code_in_the_source_is_registered_and_every_registered_code_is_used():
    used = set()
    for name, tree in _modules():
        if name == "diagnostics.py":  # the code registry
            continue
        used.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[EW]_[A-Z0-9_]+", node.value)
        )
    assert sorted(used - set(CODES)) == []
    assert sorted(set(CODES) - used) == []


def test_no_function_imports_a_sibling_module():
    found = set()
    for name, tree in _modules():
        type_checking = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
            for inner in ast.walk(node)
        }
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in type_checking
                )
    assert sorted(found) == []


def test_only_load_walks_the_artifact_tree():
    tree = ast.parse((PACKAGE / "repository.py").read_text(encoding="utf-8"))
    repo_class = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AuditRepository")
    load = next(n for n in repo_class.body if isinstance(n, ast.FunctionDef) and n.name == "load")
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "rglob(" in line and not (path.name == "repository.py" and load.lineno <= number <= load.end_lineno)
    ]
    assert found == []


def test_write_artifact_does_not_parse_the_whole_trail_itself():
    tree = ast.parse((PACKAGE / "repository.py").read_text(encoding="utf-8"))
    repo_class = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "AuditRepository")
    write = next(n for n in repo_class.body if isinstance(n, ast.FunctionDef) and n.name == "write_artifact")
    found = [
        f"repository.py:{node.lineno}"
        for node in ast.walk(write)
        if isinstance(node, ast.Attribute) and node.attr == "trail_records"
    ]
    assert found == []


def test_validation_names_no_schema():
    tree = ast.parse((PACKAGE / "artifacts.py").read_text(encoding="utf-8"))
    rules = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_CROSS_FIELD_RULES" for t in node.targets)
    )
    validators = {"validate_artifact"} | {value.id for value in rules.values}
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in validators]
    assert len(funcs) == len(validators)
    schema_names = {"SCHEMAS", "Map", "Seq", "Str", "PRINCIPLE_REF", "_walk"}
    found = [
        f"{func.name}:{node.lineno} {node.id}"
        for func in funcs
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id in schema_names
    ]
    assert found == []
