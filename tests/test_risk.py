from __future__ import annotations

import random

import pytest

from auditflow.artifacts import ArtifactKind, make_artifact
from auditflow.canonical import canonical_bytes
from auditflow.diagnostics import AuditError
from auditflow.risk import (
    FmeaEntry,
    RiskMatrix,
    RiskRegister,
    assess_principle_threats,
    classify_risk,
    generate_chart_rows,
    likelihood_from_failure_rate,
    prioritize_risks,
    update_fmea_with_tests,
    validate_chart,
)

from .genutil import SAMPLE_PRINCIPLES

# Brute-forced from the classification rule before the implementation was
# written: rows are severity 1..5, columns likelihood 1..5. Exact match,
# zero tolerance.
ORACLE_TABLE = {
    1: ["low", "low", "low", "low", "mid"],
    2: ["low", "low", "mid", "mid", "mid"],
    3: ["mid", "mid", "mid", "mid", "high"],
    4: ["mid", "mid", "mid", "high", "high"],
    5: ["high", "high", "high", "high", "high"],
}

_RANK = {"low": 0, "mid": 1, "high": 2}


def test_classification_matches_frozen_oracle_exactly():
    for s in range(1, 6):
        for l in range(1, 6):
            assert classify_risk(s, l) == ORACLE_TABLE[s][l - 1], (s, l)


def test_classification_monotone_in_both_axes():
    for s in range(1, 6):
        for l in range(1, 6):
            c = _RANK[classify_risk(s, l)]
            if s < 5:
                assert _RANK[classify_risk(s + 1, l)] >= c
            if l < 5:
                assert _RANK[classify_risk(s, l + 1)] >= c


def test_corner_cases():
    assert classify_risk(5, 5) == "high"
    assert classify_risk(1, 1) == "low"


def test_out_of_range_raises():
    for s, l in ((0, 3), (3, 0), (6, 3), (3, 6)):
        with pytest.raises(AuditError) as exc:
            classify_risk(s, l)
        assert exc.value.code == "E_RANGE"


def test_matrix_override_monotonicity_checkable():
    assert RiskMatrix().is_monotone()
    assert RiskMatrix(high_min_score=20, low_max_score=6, low_max_severity=3).is_monotone()


def _entry(eid, s, l, status="open", principles=("privacy",), rationale=""):
    return FmeaEntry(
        id=eid,
        failure_mode=f"mode {eid}",
        effect=f"effect {eid}",
        cause="cause",
        severity=s,
        likelihood=l,
        threatened_principles=tuple(principles),
        status=status,
        rationale=rationale,
    )


def _oracle_order(entries):
    """Independent O(n^2) selection sort using the frozen class table."""

    def beats(a, b):
        ka = (_RANK[ORACLE_TABLE[a.severity][a.likelihood - 1]], a.severity * a.likelihood, a.severity)
        kb = (_RANK[ORACLE_TABLE[b.severity][b.likelihood - 1]], b.severity * b.likelihood, b.severity)
        if ka != kb:
            return ka > kb
        return a.id < b.id

    remaining = list(entries)
    ordered = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            if beats(cand, best):
                best = cand
        remaining.remove(best)
        ordered.append(best)
    return ordered


def test_prioritization_matches_independent_sort_oracle():
    rng = random.Random(42)
    entries = [_entry(f"FM-{i:03d}", rng.randint(1, 5), rng.randint(1, 5)) for i in range(50)]
    register = RiskRegister(tuple(entries))
    assert prioritize_risks(register) == _oracle_order(entries)


def test_prioritize_empty_register():
    assert prioritize_risks(RiskRegister()) == []


# Frozen bucket expectations: representative failure rates x priors 1..5.
BUCKET_ORACLE = {
    0.0: [1, 1, 2, 3, 4],
    0.005: [2, 2, 2, 2, 2],
    0.01: [2, 2, 2, 2, 2],
    0.05: [3, 3, 3, 3, 3],
    0.1: [3, 3, 3, 3, 3],
    0.3: [4, 4, 4, 4, 4],
    0.5: [4, 4, 4, 4, 4],
    0.51: [5, 5, 5, 5, 5],
    1.0: [5, 5, 5, 5, 5],
}


def test_likelihood_buckets_match_oracle_for_every_prior():
    for rate, expected in BUCKET_ORACLE.items():
        for prior in range(1, 6):
            assert likelihood_from_failure_rate(rate, prior) == expected[prior - 1], (rate, prior)


def _report_doc(cases):
    return make_artifact(ArtifactKind.ADVERSARIAL_TESTING_REPORT, "atr", {"test_cases": cases})


def test_update_with_empty_report_is_a_no_op():
    register = RiskRegister((_entry("FM-1", 3, 2),))
    updated, deltas = update_fmea_with_tests(register, _report_doc([]))
    assert updated == register
    assert deltas == []


def test_update_reestimates_likelihood_from_failure_rate():
    register = RiskRegister((_entry("FM-BIAS", 4, 2, principles=("justice",)),))
    report = _report_doc(
        [{"id": "TC-1", "target": "FM-BIAS", "trials": 200, "failures": 60, "description": "slices"}]
    )
    updated, deltas = update_fmea_with_tests(register, report)
    entry = updated.get("FM-BIAS")
    assert entry.likelihood == 4  # observed rate 0.3
    assert entry.risk_class() == "high"
    assert "justice" in entry.threatened_principles
    assert [(d.fmea_id, d.old_class, d.new_class) for d in deltas] == [("FM-BIAS", "mid", "high")]
    assert deltas[0].line() == "FM-BIAS mid→high"


def test_update_aggregates_multiple_cases_per_target():
    register = RiskRegister((_entry("FM-1", 3, 5),))
    report = _report_doc(
        [
            {"id": "a", "target": "FM-1", "trials": 50, "failures": 0},
            {"id": "b", "target": "FM-1", "trials": 50, "failures": 0},
        ]
    )
    updated, _ = update_fmea_with_tests(register, report)
    assert updated.get("FM-1").likelihood == 4  # clean run decays the prior by one


def test_update_creates_new_entries_open():
    register = RiskRegister((_entry("FM-1", 2, 2),))
    report = _report_doc(
        [
            {
                "id": "TC-N",
                "target": "new",
                "trials": 10,
                "failures": 8,
                "new_entry": {
                    "id": "FM-NEW",
                    "failure_mode": "found in probing",
                    "effect": "bad",
                    "cause": "unknown",
                    "severity": 4,
                    "threatened_principles": ["privacy"],
                },
            }
        ]
    )
    updated, deltas = update_fmea_with_tests(register, report)
    new = updated.get("FM-NEW")
    assert new is not None and new.status == "open"
    assert new.likelihood == 5  # rate 0.8
    assert [(d.fmea_id, d.old_class) for d in deltas] == [("FM-NEW", None)]
    assert deltas[0].line().startswith("FM-NEW new")


def test_update_unknown_target_rejected():
    register = RiskRegister((_entry("FM-1", 2, 2),))
    with pytest.raises(AuditError) as exc:
        update_fmea_with_tests(register, _report_doc([{"id": "t", "target": "FM-MISSING", "trials": 1, "failures": 0}]))
    assert exc.value.code == "E_UNKNOWN_FMEA_ID"


def test_update_never_shrinks_the_register():
    rng = random.Random(11)
    for _ in range(25):
        entries = tuple(_entry(f"FM-{i}", rng.randint(1, 5), rng.randint(1, 5)) for i in range(rng.randint(0, 6)))
        register = RiskRegister(entries)
        cases = []
        for i, e in enumerate(entries):
            if rng.random() < 0.6:
                trials = rng.randint(1, 50)
                cases.append({"id": f"t{i}", "target": e.id, "trials": trials, "failures": rng.randint(0, trials)})
        updated, _ = update_fmea_with_tests(register, _report_doc(cases))
        assert len(updated.entries) >= len(register.entries)
        # final likelihood depends only on the observed rate, except the
        # zero-failure decay
        for case in cases:
            rate = case["failures"] / case["trials"]
            entry = updated.get(case["target"])
            if rate > 0:
                assert entry.likelihood == likelihood_from_failure_rate(rate, 1)


def test_principle_threats_match_brute_force():
    rng = random.Random(5)
    principle_ids = [p.id for p in SAMPLE_PRINCIPLES]
    for _ in range(30):
        entries = []
        for i in range(rng.randint(0, 8)):
            refs = tuple(rng.sample(principle_ids, rng.randint(1, len(principle_ids))))
            entries.append(
                _entry(f"FM-{i}", rng.randint(1, 5), rng.randint(1, 5), status=rng.choice(("open", "mitigated", "accepted")), principles=refs)
            )
        register = RiskRegister(tuple(entries))
        result = assess_principle_threats(register, SAMPLE_PRINCIPLES)
        for pid in principle_ids:
            classes = [
                _RANK[ORACLE_TABLE[e.severity][e.likelihood - 1]]
                for e in entries
                if e.status == "open" and pid in e.threatened_principles
            ]
            if classes:
                assert _RANK[result[pid].risk_class] == max(classes)
                assert not result[pid].unexamined
            else:
                assert result[pid].risk_class == "low"
                assert result[pid].unexamined


def test_all_mitigated_register_maps_principles_low_unexamined():
    register = RiskRegister((_entry("FM-1", 5, 5, status="mitigated"),))
    result = assess_principle_threats(register, SAMPLE_PRINCIPLES)
    for threat in result.values():
        assert threat.risk_class == "low"
        assert threat.unexamined


def test_chart_regeneration_is_idempotent_and_byte_identical():
    register = RiskRegister((_entry("FM-2", 4, 4), _entry("FM-1", 2, 1), _entry("FM-3", 3, 3, status="mitigated")))
    rows1 = generate_chart_rows(register)
    rows2 = generate_chart_rows(register)
    assert canonical_bytes(rows1) == canonical_bytes(rows2)
    assert [r["fmea_id"] for r in rows1] == ["FM-1", "FM-2"]  # open entries only, sorted


def test_validate_chart_cross_checks():
    register = RiskRegister((_entry("FM-1", 4, 4), _entry("FM-2", 2, 2)))
    ok_rows = generate_chart_rows(register)
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": ok_rows})
    assert validate_chart(chart, register) == []

    bad_class = [dict(r) for r in ok_rows]
    bad_class[0]["risk_class"] = "low"
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": bad_class})
    assert "E_RC_CLASS_MISMATCH" in [d.code for d in validate_chart(chart, register)]

    missing = [dict(r) for r in ok_rows[1:]]
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": missing})
    assert "E_RC_MISSING_ROW" in [d.code for d in validate_chart(chart, register)]

    unknown = [dict(r) for r in ok_rows] + [
        {"fmea_id": "FM-GHOST", "severity": 3, "likelihood": 3, "risk_class": "mid", "rationale": "x"}
    ]
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": unknown})
    assert "E_RC_UNKNOWN_ENTRY" in [d.code for d in validate_chart(chart, register)]

    stale = [dict(r) for r in ok_rows]
    stale[0]["severity"], stale[0]["likelihood"] = 2, 2
    stale[0]["risk_class"] = "low"
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": stale})
    assert "E_RC_STALE_ROW" in [d.code for d in validate_chart(chart, register)]


def test_duplicate_register_id_resolves_to_its_first_entry():
    first, second = _entry("FM-1", 3, 3), _entry("FM-1", 5, 5)
    register = RiskRegister((first, second, _entry("FM-2", 2, 2)))
    assert register.get("FM-1") is first
    assert register.get("FM-GHOST") is None

    rows = [
        {"fmea_id": "FM-1", "severity": 3, "likelihood": 3, "risk_class": "mid", "rationale": "x"},
        {"fmea_id": "FM-2", "severity": 2, "likelihood": 2, "risk_class": "low", "rationale": "x"},
    ]
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": rows})
    assert validate_chart(chart, register) == []

    rows[0].update(severity=5, likelihood=5, risk_class="high")
    chart = make_artifact(ArtifactKind.ETHICAL_RISK_CHART, "chart", {"rows": rows})
    assert [(d.code, d.path) for d in validate_chart(chart, register)] == [("E_RC_STALE_ROW", "body.rows[0]")]
