"""The benchmark's own tests: every workload at a tiny size with every check
on, and each check shown to reject a deliberately wrong output.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from auditflow.repository import AuditRepository  # noqa: E402

import audits  # noqa: E402
import expect  # noqa: E402
import script  # noqa: E402
import spans  # noqa: E402

TINY = 0.03


@pytest.fixture(autouse=True)
def _pinned_clock(monkeypatch):
    monkeypatch.setenv("AUDITFLOW_NOW", audits.NOW)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", sorted(audits.SHAPES))
def test_workload_runs_clean_at_tiny_size(workload, seed, tmp_path):
    bench = script.Script(workload, seed, audits.SHAPES[workload].scaled(TINY), tmp_path / "work")
    bench.run(0.0)
    assert (bench.attempted, bench.failed, bench.mismatches) == (len(bench.ops), 0, 0)
    values = bench.end_to_end()
    assert set(values) == set(script.END_TO_END_UNITS)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", sorted(audits.SHAPES))
def test_traced_run_yields_every_per_layer_metric(workload, tmp_path):
    bench = script.Script(
        workload, 1, audits.SHAPES[workload].scaled(TINY), tmp_path / "work", tracer=spans.Tracer()
    )
    bench.run(0.0)
    assert bench.failed == 0
    layers = bench.per_layer()
    assert set(layers) == set(spans.METRICS)
    for name in ("repository.load_ms", "repository.files_loaded", "canonical.hash_calls", "cli.self_ms",
                 "repository.write_self_ms", "repository.trail_records_read"):
        assert layers[name] > 0, name


def test_tracer_restores_every_function(tmp_path):
    from auditflow import cli, repository, trace

    before = (cli.build_graph, trace.exercised_by_test, repository.AuditRepository.__dict__["load"])
    tracer = spans.Tracer()
    tracer.install()
    assert cli.build_graph is not before[0]
    tracer.uninstall()
    assert (cli.build_graph, trace.exercised_by_test, repository.AuditRepository.__dict__["load"]) == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans.extend([["a", 0, 100, -1, 0, None], ["b", 10, 40, 0, 0, None], ["c", 50, 60, 0, 0, None],
                         ["d", 15, 20, 1, 0, None]])
    assert tracer.self_times() == [60, 25, 10, 5]


def test_matrix_rule_and_buckets():
    assert [expect.risk_class(s, l) for s, l in ((5, 1), (3, 5), (4, 4), (3, 4), (2, 2), (1, 4), (2, 3), (1, 5))] == [
        "high", "high", "high", "mid", "low", "low", "mid", "mid"]
    assert [expect.likelihood_bucket(r, 3) for r in (0.0, 0.01, 0.05, 0.3, 0.6)] == [2, 2, 3, 4, 5]
    assert expect.likelihood_bucket(0.0, 1) == 1


# -- each check rejects a wrong output --------------------------------------------

@pytest.fixture(scope="module")
def ready(tmp_path_factory):
    """A tiny big-register audit, set up, with the report already written once."""
    os.environ["AUDITFLOW_NOW"] = audits.NOW
    bench = script.Script("big-register", 3, audits.SHAPES["big-register"].scaled(TINY),
                          tmp_path_factory.mktemp("ready"))
    bench.setup()
    code, out = bench.command("report")
    bench.model.summary_written = True
    bench.model.trail_len += 2
    expect.check_report(bench.model, code, out, bench.repo)
    return bench


def _rejects(check, *args):
    with pytest.raises(expect.Mismatch):
        check(*args)


def test_validate_check_rejects_an_error_line(ready):
    code, out = ready.command("validate")
    expect.check_validate(ready.model, code, out)
    _rejects(expect.check_validate, ready.model, code, "ERROR E_FIELD_TYPE fmea-register body.x bad\n" + out)


def test_status_check_rejects_an_incomplete_stage(ready):
    code, out = ready.command("status")
    expect.check_status(ready.model, code, out)
    _rejects(expect.check_status, ready.model, code, out.replace("(4/4 artifacts final)", "(3/4 artifacts final)"))


def test_gate_check_rejects_a_failed_gate(ready):
    code, out = ready.command("gate", "reflection")
    expect.check_gate(code, out)
    _rejects(expect.check_gate, code, out.replace("PASS", "FAIL"))


def test_risk_check_rejects_a_wrong_class_and_a_wrong_order(ready):
    code, out = ready.command("risk")
    expect.check_risk(ready.model, code, out)
    lines = out.splitlines()
    wrong_class = lines[0].replace("class=high", "class=mid")
    _rejects(expect.check_risk, ready.model, code, "\n".join([wrong_class, *lines[1:]]))
    _rejects(expect.check_risk, ready.model, code, "\n".join([lines[-1], *lines[1:-1], lines[0]]))


def test_trace_check_rejects_an_off_by_one_edge_count(ready):
    code, out = ready.command("trace")
    expect.check_trace(ready.model, code, out, ready.repo)
    graph = ready.repo / "adhf.graph"
    original = graph.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    dropped = next(i for i, line in enumerate(lines) if line.startswith("edge\t"))
    try:
        graph.write_text("".join(lines[:dropped] + lines[dropped + 1:]), encoding="utf-8")
        _rejects(expect.check_trace, ready.model, code, out, ready.repo)
    finally:
        graph.write_text(original, encoding="utf-8")


def test_report_check_rejects_a_flipped_verdict_and_a_lost_gap(ready):
    code, out = ready.command("report")
    expect.check_report(ready.model, code, out, ready.repo)
    verdict = expect.verdict(ready.model)
    flipped = "greenlight" if verdict != "greenlight" else "stall"
    _rejects(expect.check_report, ready.model, code, out.replace(f"verdict {verdict}", f"verdict {flipped}"), ready.repo)
    report = ready.repo / "audit_report.txt"
    original = report.read_text(encoding="utf-8")
    lines = original.splitlines(keepends=True)
    gap = next(i for i, line in enumerate(lines) if " W_UNMITIGATED_FAILURE " in line)
    try:
        report.write_text("".join(lines[:gap] + lines[gap + 1:]), encoding="utf-8")
        _rejects(expect.check_report, ready.model, code, out, ready.repo)
    finally:
        report.write_text(original, encoding="utf-8")


def test_ingest_and_write_checks_reject_wrong_results(tmp_path):
    bench = script.Script("big-register", 5, audits.SHAPES["big-register"].scaled(TINY), tmp_path / "work")
    bench.setup()
    model, repo = bench.model, bench.repo
    report_id = model.ingest_report

    untouched = copy.deepcopy(model)
    code, out = bench.command("risk", "--ingest-tests", report_id)
    expect.check_ingest(copy.deepcopy(untouched), report_id, code, out, repo)
    target = next(iter(expect.ingest_expectation(untouched, report_id)))
    lines = out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(target + " ") and "likelihood=" in line)
    likelihood = lines[row].split("likelihood=")[1][0]
    lines[row] = lines[row].replace(f"likelihood={likelihood}", f"likelihood={int(likelihood) % 5 + 1}")
    _rejects(expect.check_ingest, copy.deepcopy(untouched), report_id, code, "\n".join(lines), repo)

    doc, events = audits.bump(model, "stakeholders", random.Random(0), audits.NOW)
    trail = repo / "trail.log"
    offset = trail.stat().st_size
    AuditRepository.load(repo).write_artifact(doc)
    expect.check_write(model, doc.id, events, repo, offset)
    previous = trail.read_bytes()[: offset - 1].rfind(b"\n") + 1
    _rejects(expect.check_write, model, doc.id, events, repo, previous)  # one record too many

    path = repo / "artifacts" / "mapping" / "stakeholders.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["body"]["stakeholders"][0]["contribution"] += " edited by hand"
    path.write_text(json.dumps(data), encoding="utf-8")
    _rejects(expect.check_write, model, doc.id, events, repo, offset)


def test_trail_check_rejects_a_version_jump(tmp_path):
    bench = script.Script("long-trail", 2, audits.SHAPES["long-trail"].scaled(TINY), tmp_path / "work")
    bench.setup()
    model, repo = bench.model, bench.repo
    expect.check_trail(model, repo)
    record = {"artifact_id": "stakeholders", "event": "updated", "hash": "0" * 64, "status": "final",
              "timestamp": audits.NOW, "version": model.docs["stakeholders"].version + 2}
    with (repo / "trail.log").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    model.trail_len += 1
    _rejects(expect.check_trail, model, repo)


@pytest.mark.parametrize("wrong", [False, True])
def test_a_run_prints_a_result_only_when_every_output_is_right(wrong, monkeypatch, capsys):
    import run

    monkeypatch.setenv("PYTHONHASHSEED", run.HASH_SEED)  # no re-exec
    monkeypatch.setitem(audits.SHAPES, "long-trail", audits.SHAPES["long-trail"].scaled(TINY))
    if wrong:
        def check_risk(*args):
            raise expect.Mismatch("wrong on purpose")

        monkeypatch.setattr(expect, "check_risk", check_risk)
    code = run.run_once(run.parse_args(["--workload", "long-trail", "--seconds", "0"]))
    out = capsys.readouterr().out
    if wrong:
        assert (code, out) == (1, "")
    else:
        result = json.loads(out.splitlines()[-1])
        assert (code, result["correct"], result["failed"]) == (0, True, 0)
        assert set(result["metrics"]) == set(script.END_TO_END_UNITS)
