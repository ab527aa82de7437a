from __future__ import annotations

import json
import random
import time
import zlib

import pytest

from auditflow import artifacts
from auditflow.artifacts import (
    ArtifactKind,
    DEFAULT_PRODUCERS,
    KIND_HOME_STAGE,
    SCHEMAS,
    ValidationConfig,
    make_artifact,
    parse_artifact,
    serialize_artifact,
    validate_artifact,
)
from auditflow.diagnostics import ArtifactParseError, format_lines
from auditflow.repository import TEMPLATE_PRINCIPLES

from .genutil import SAMPLE_PRINCIPLES, gen_value, random_artifact

PRINCIPLES = [
    {"id": p["id"], "name": p["name"], "description": p["description"], "comment": p["comment"]}
    for p in TEMPLATE_PRINCIPLES
]


def _doc_dict(doc) -> dict:
    return json.loads(serialize_artifact(doc))


def _parse_dict(raw: dict, **kwargs):
    return parse_artifact(json.dumps(raw).encode(), **kwargs)


def _codes(exc_info) -> list[str]:
    return [d.code for d in exc_info.value.diagnostics]


def test_minimal_principles_declaration_parses_clean():
    doc = make_artifact(
        ArtifactKind.PRINCIPLES_DECLARATION,
        "principles",
        {"principles": TEMPLATE_PRINCIPLES},
        created_at="2026-01-05T00:00:00+00:00",
    )
    parsed = parse_artifact(serialize_artifact(doc))
    assert parsed == doc
    assert len(parsed.body["principles"]) == 5
    assert validate_artifact(parsed, []) == []


def test_empty_document_is_a_parse_error():
    with pytest.raises(ArtifactParseError) as exc:
        parse_artifact(b"")
    assert _codes(exc) == ["E_PARSE"]


def test_non_object_document_is_a_parse_error():
    with pytest.raises(ArtifactParseError):
        parse_artifact(b"[1, 2, 3]")


def test_yaml_document_is_accepted_and_hashes_identically():
    doc = make_artifact(
        ArtifactKind.MODEL_CARD,
        "mc",
        {"model_name": "m", "intended_use": "demo"},
        created_at="2026-01-05T00:00:00+00:00",
    )
    as_yaml = (
        "meta:\n"
        + "".join(f"  {k}: {json.dumps(v)}\n" for k, v in doc.meta.to_dict().items())
        + "body:\n  model_name: m\n  intended_use: demo\n"
    )
    parsed = parse_artifact(as_yaml.encode())
    assert parsed == doc


def test_kind_mismatch():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {"intended_use": "x"})
    with pytest.raises(ArtifactParseError) as exc:
        parse_artifact(serialize_artifact(doc), expected_kind=ArtifactKind.DATASHEET)
    assert "E_KIND_MISMATCH" in _codes(exc)


def test_hash_mismatch_detected():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {"intended_use": "x"})
    raw = _doc_dict(doc)
    raw["body"]["intended_use"] = "tampered"
    with pytest.raises(ArtifactParseError) as exc:
        _parse_dict(raw)
    assert _codes(exc) == ["E_HASH_MISMATCH"]


@pytest.mark.parametrize("severity, code", [("high", "E_FIELD_TYPE"), (99, "E_FIELD_VALUE")])
def test_misfit_body_with_a_matching_hash_reports_only_the_misfit(severity, code):
    body = {"entries": [{"id": "r1", "severity": severity, "threatened_principles": ["privacy"]}]}
    doc = make_artifact(ArtifactKind.FMEA_REGISTER, "fmea", body)  # the header hash fits the body as written
    with pytest.raises(ArtifactParseError) as exc:
        parse_artifact(serialize_artifact(doc))
    assert _codes(exc) == [code]


def test_missing_meta_fields_reported_each():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {})
    raw = _doc_dict(doc)
    del raw["meta"]["version"]
    del raw["meta"]["status"]
    with pytest.raises(ArtifactParseError) as exc:
        _parse_dict(raw)
    assert _codes(exc).count("E_FIELD_MISSING") == 2


def test_unknown_kind_string_rejected():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {})
    raw = _doc_dict(doc)
    raw["meta"]["kind"] = "RiskLedger"
    with pytest.raises(ArtifactParseError) as exc:
        _parse_dict(raw)
    assert "E_FIELD_VALUE" in _codes(exc)


def test_wrong_types_and_out_of_domain_values():
    doc = make_artifact(
        ArtifactKind.SOCIAL_IMPACT_ASSESSMENT,
        "sia",
        {"impact_entries": [{"category": "rights", "description": "d", "severity": 3}], "overall_severity": 3},
    )
    raw = _doc_dict(doc)
    raw["body"]["overall_severity"] = 9
    raw["body"]["impact_entries"][0]["description"] = 42
    with pytest.raises(ArtifactParseError) as exc:
        _parse_dict(raw)
    codes = _codes(exc)
    assert "E_FIELD_VALUE" in codes and "E_FIELD_TYPE" in codes


# --- unknown-field injection oracle -----------------------------------------

def _insertion_points(raw: dict, max_depth: int = 3):
    """Yield (container, human path) for every dict at nesting depth <= max_depth."""

    def walk(value, path, depth):
        if depth > max_depth or not isinstance(value, dict):
            return
        yield value, path
        for key, child in value.items():
            if isinstance(child, dict):
                yield from walk(child, f"{path}.{key}", depth + 1)
            elif isinstance(child, list):
                for i, item in enumerate(child):
                    yield from walk(item, f"{path}.{key}[{i}]", depth + 1)

    yield from walk(raw, "", 0)


FUZZ_KINDS = (
    ArtifactKind.MODEL_CARD,
    ArtifactKind.DATASHEET,
    ArtifactKind.ETHICAL_REVIEW,
    ArtifactKind.FMEA_REGISTER,
    ArtifactKind.ADVERSARIAL_TESTING_REPORT,
)


@pytest.mark.parametrize("kind", FUZZ_KINDS, ids=lambda k: k.value)
def test_unknown_field_injection_yields_exactly_one_diagnostic_each(kind):
    rng = random.Random(zlib.crc32(kind.value.encode()))
    doc = random_artifact(kind, rng)
    raw = _doc_dict(doc)
    points = list(_insertion_points(raw))
    assert points, "fuzz oracle needs at least one insertion point"
    for container, path in points:
        container["zz_unknown_field"] = "injected"
        with pytest.raises(ArtifactParseError) as exc:
            _parse_dict(raw)
        codes = _codes(exc)
        assert codes == ["E_UNKNOWN_FIELD"], f"at {path or '<top>'}: {codes}"
        del container["zz_unknown_field"]

    # all at once: one diagnostic per injected field
    for container, _ in points:
        container["zz_unknown_field"] = "injected"
    with pytest.raises(ArtifactParseError) as exc:
        _parse_dict(raw)
    assert _codes(exc) == ["E_UNKNOWN_FIELD"] * len(points)


# --- validation semantics -----------------------------------------------------

def test_model_card_empty_intended_use():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {"model_name": "m", "intended_use": ""})
    diags = validate_artifact(doc, [])
    assert [d.code for d in diags] == ["E_MC_INTENDED_USE"]


def _datasheet(breakdown) -> object:
    return make_artifact(
        ArtifactKind.DATASHEET,
        "ds",
        {"dataset_name": "d", "collection_process": "scraped", "demographic_breakdown": breakdown},
    )


def test_datasheet_gender_axis_passes_and_skin_type_warns():
    doc = _datasheet(
        [
            {"axis": "gender", "groups": [{"label": "female", "fraction": 0.581}, {"label": "male", "fraction": 0.42}]},
            {"axis": "skin type", "groups": [{"label": "lighter", "fraction": 0.142}, {"label": "darker", "fraction": 0.858}]},
        ]
    )
    codes = [(d.code, d.path) for d in validate_artifact(doc, [])]
    assert ("E_DS_FRACTION_SUM", "body.demographic_breakdown[0]") not in codes
    assert all(code != "E_DS_FRACTION_SUM" for code, _ in codes)
    assert codes == [("W_DS_SKEW", "body.demographic_breakdown[1]")]


def test_datasheet_single_group_axis_passes_sum_and_warns_skew():
    doc = _datasheet([{"axis": "region", "groups": [{"label": "all", "fraction": 1.0}]}])
    codes = [d.code for d in validate_artifact(doc, [])]
    assert codes == ["W_DS_SKEW"]


def test_datasheet_sum_violation_yields_exactly_one_diagnostic_per_axis():
    doc = _datasheet(
        [
            {"axis": "a", "groups": [{"label": "x", "fraction": 0.5}, {"label": "y", "fraction": 0.3}]},
            {"axis": "b", "groups": [{"label": "x", "fraction": 0.9}, {"label": "y", "fraction": 0.2}]},
        ]
    )
    codes = [d.code for d in validate_artifact(doc, [])]
    assert codes.count("E_DS_FRACTION_SUM") == 2


def test_datasheet_tolerance_absorbs_rounding():
    doc = _datasheet([{"axis": "age", "groups": [{"label": "0-45", "fraction": 0.778}, {"label": "46+", "fraction": 0.221}]}])
    codes = [d.code for d in validate_artifact(doc, [])]
    assert "E_DS_FRACTION_SUM" not in codes


def test_datasheet_empty_collection_process():
    doc = make_artifact(ArtifactKind.DATASHEET, "ds", {"dataset_name": "d", "collection_process": " "})
    assert [d.code for d in validate_artifact(doc, [])] == ["E_DS_COLLECTION"]


def test_skew_threshold_is_configurable():
    doc = _datasheet(
        [{"axis": "gender", "groups": [{"label": "f", "fraction": 0.581}, {"label": "m", "fraction": 0.42}]}]
    )
    strict = ValidationConfig(skew_threshold=1.5)
    assert [d.code for d in validate_artifact(doc, [], strict)] == ["W_DS_SKEW"]


def test_ethical_review_needs_two_standpoints_for_approval():
    body = {
        "use_case": "x",
        "impacted_groups": [{"group": "users", "impact": "y"}],
        "reviewers": [
            {"name": "a", "affiliation": "af", "standpoint": "privacy"},
            {"name": "b", "affiliation": "af", "standpoint": "privacy"},
        ],
        "board_decision": "approve",
        "conditions": [],
    }
    doc = make_artifact(ArtifactKind.ETHICAL_REVIEW, "er", body)
    assert [d.code for d in validate_artifact(doc, [])] == ["E_ER_STANDPOINTS"]
    body["reviewers"][1]["standpoint"] = "fairness"
    doc = make_artifact(ArtifactKind.ETHICAL_REVIEW, "er", body)
    assert validate_artifact(doc, []) == []


def test_blank_standpoint_does_not_count_toward_approval():
    reviewers = [{"name": "a", "standpoint": "privacy"}, {"name": "b", "standpoint": "  "}]
    body = {"impacted_groups": [{"group": "users"}], "reviewers": reviewers, "board_decision": "approve"}
    doc = make_artifact(ArtifactKind.ETHICAL_REVIEW, "er", body)
    assert [d.code for d in validate_artifact(doc, [])] == ["E_ER_STANDPOINTS"]


def test_new_risk_case_with_a_blank_entry_id_is_incomplete():
    new_entry = {"id": "  ", "severity": 3, "threatened_principles": ["privacy"]}
    case = {"id": "t1", "target": "new", "trials": 5, "failures": 1, "new_entry": new_entry}
    doc = make_artifact(ArtifactKind.ADVERSARIAL_TESTING_REPORT, "atr", {"test_cases": [case]})
    assert [d.code for d in validate_artifact(doc, SAMPLE_PRINCIPLES)] == ["E_ATR_NEW_ENTRY"]


def test_ethical_review_requires_impacted_groups():
    doc = make_artifact(ArtifactKind.ETHICAL_REVIEW, "er", {"use_case": "x", "board_decision": "reject"})
    assert [d.code for d in validate_artifact(doc, [])] == ["E_ER_NO_IMPACTED_GROUPS"]


def test_social_impact_overall_must_be_max():
    body = {
        "impact_entries": [
            {"category": "rights", "description": "a", "severity": 4},
            {"category": "culture", "description": "b", "severity": 2},
        ],
        "overall_severity": 2,
    }
    doc = make_artifact(ArtifactKind.SOCIAL_IMPACT_ASSESSMENT, "sia", body)
    assert [d.code for d in validate_artifact(doc, [])] == ["E_SIA_OVERALL_MAX"]


def test_unknown_principle_reference_flagged():
    body = {
        "entries": [
            {
                "id": "FM-1",
                "failure_mode": "x",
                "effect": "y",
                "cause": "z",
                "severity": 3,
                "likelihood": 3,
                "threatened_principles": ["nonexistent"],
                "status": "open",
                "evidence_refs": [],
                "rationale": "",
            }
        ]
    }
    doc = make_artifact(ArtifactKind.FMEA_REGISTER, "reg", body)
    assert [d.code for d in validate_artifact(doc, SAMPLE_PRINCIPLES)] == ["E_PRINCIPLE_UNKNOWN"]


# A required field holding only whitespace is blank, as it is for every
# other required field.
WHITESPACE_REQUIRED = [
    (ArtifactKind.PRINCIPLES_DECLARATION, {"principles": [{"id": "  ", "name": "n"}]}, "E_PD_PRINCIPLE_ID", "body.principles[0].id"),
    (ArtifactKind.PRINCIPLES_DECLARATION, {"principles": [{"id": "p", "name": " "}]}, "E_PD_PRINCIPLE_NAME", "body.principles[0].name"),
    (ArtifactKind.PRODUCT_REQUIREMENTS_DOC, {"requirements": [{"id": "\t", "text": "t"}]}, "E_PRD_REQ_ID", "body.requirements[0].id"),
    (ArtifactKind.PRODUCT_REQUIREMENTS_DOC, {"requirements": [{"id": "r", "text": "  "}]}, "E_PRD_REQ_TEXT", "body.requirements[0].text"),
    (ArtifactKind.FMEA_REGISTER, {"entries": [{"id": " ", "threatened_principles": ["privacy"]}]}, "E_FMEA_ENTRY_ID", "body.entries[0].id"),
    (ArtifactKind.ADVERSARIAL_TESTING_REPORT, {"test_cases": [{"id": " ", "target": "FM-1", "trials": 1}]}, "E_ATR_CASE_ID", "body.test_cases[0].id"),
    (ArtifactKind.ADVERSARIAL_TESTING_REPORT, {"test_cases": [{"id": "t", "target": " ", "trials": 1}]}, "E_ATR_NO_TARGET", "body.test_cases[0].target"),
    (ArtifactKind.ETHICAL_RISK_CHART, {"rows": [{"fmea_id": " ", "severity": 1, "likelihood": 1, "risk_class": "low"}]}, "E_RC_ROW_ID", "body.rows[0].fmea_id"),
    (ArtifactKind.REMEDIATION_PLAN, {"items": [{"id": " ", "fmea_id": "FM-1", "action": "a"}]}, "E_RP_ITEM_ID", "body.items[0].id"),
    (ArtifactKind.REMEDIATION_PLAN, {"items": [{"id": "i", "fmea_id": " ", "action": "a"}]}, "E_RP_NO_TARGET", "body.items[0].fmea_id"),
]


@pytest.mark.parametrize("kind, body, code, path", WHITESPACE_REQUIRED, ids=[row[2] for row in WHITESPACE_REQUIRED])
def test_whitespace_only_required_field_is_blank(kind, body, code, path):
    doc = make_artifact(kind, "x", body)
    assert [(d.code, d.path) for d in validate_artifact(doc, SAMPLE_PRINCIPLES)] == [(code, path)]


def test_blank_ids_take_no_part_in_the_repeat_check():
    reqs = make_artifact(ArtifactKind.PRODUCT_REQUIREMENTS_DOC, "prd", {"requirements": [{"id": " ", "text": "t"}] * 2})
    assert [d.code for d in validate_artifact(reqs, [])] == ["E_PRD_REQ_ID", "E_PRD_REQ_ID"]
    checklist = make_artifact(ArtifactKind.DESIGN_CHECKLIST, "cl", {"items": [{"id": " ", "prompt": "p"}] * 2})
    assert validate_artifact(checklist, []) == []


def test_blank_summary_finding_principle_is_undeclared():
    finding = {"principle": "", "risk_class": "low", "unexamined": False, "fmea_ids": []}
    doc = make_artifact(ArtifactKind.AUDIT_SUMMARY_REPORT, "sr", {"principle_findings": [finding], "verdict": "stall"})
    assert [(d.code, d.path) for d in validate_artifact(doc, SAMPLE_PRINCIPLES)] == [
        ("E_PRINCIPLE_UNKNOWN", "body.principle_findings[0].principle")
    ]


def test_every_kind_has_schema_producer_and_home_stage():
    for kind in ArtifactKind:
        assert kind in SCHEMAS
        assert kind in DEFAULT_PRODUCERS
        assert kind in KIND_HOME_STAGE


def test_validation_is_pure_and_deterministic():
    rng = random.Random(7)
    for _ in range(25):
        doc = random_artifact(rng.choice(tuple(ArtifactKind)), rng)
        first = format_lines(validate_artifact(doc, SAMPLE_PRINCIPLES))
        second = format_lines(validate_artifact(doc, SAMPLE_PRINCIPLES))
        assert first == second


def test_diagnostics_sorted_by_artifact_path_code():
    doc = make_artifact(
        ArtifactKind.DESIGN_CHECKLIST,
        "cl",
        {
            "items": [
                {"id": "b", "prompt": "", "response": "", "satisfied": "n/a", "justification": ""},
                {"id": "a", "prompt": "", "response": "", "satisfied": "yes", "justification": ""},
            ]
        },
    )
    diags = validate_artifact(doc, [])
    assert [d.sort_key() for d in diags] == sorted(d.sort_key() for d in diags)


# -- the schema check's paths ----------------------------------------------------

def _parse_lines(raw: bytes) -> list[str]:
    with pytest.raises(ArtifactParseError) as exc:
        parse_artifact(raw)
    return [d.line() for d in exc.value.diagnostics]


# (kind, field) of each list whose items must not share an id; all are top-level body fields
UNIQUE_LISTS = [
    (kind, name) for kind, schema in SCHEMAS.items() for name, node in schema.fields.items() if getattr(node, "unique", None)
]


@pytest.mark.parametrize("kind, name", UNIQUE_LISTS, ids=[f"{kind.value}.{name}" for kind, name in UNIQUE_LISTS])
def test_a_misfit_item_or_id_in_a_unique_list_gives_only_its_schema_misfits(kind, name):
    item = dict(gen_value(SCHEMAS[kind].fields[name].item, random.Random(1)), id="a")
    body = {name: [item, 1, dict(item, id=["a"]), item, "b"]}
    assert _parse_lines(serialize_artifact(make_artifact(kind, "x", body))) == [
        f"ERROR E_FIELD_TYPE x body.{name}[1] expected an object, got int",
        f"ERROR E_FIELD_TYPE x body.{name}[2].id expected a string, got list",
        f"ERROR E_FIELD_TYPE x body.{name}[4] expected an object, got str",
    ]


def test_an_integer_yaml_key_under_a_list_item_renders_as_a_field():
    doc = make_artifact(ArtifactKind.MODEL_CARD, "mc", {"intended_use": "x"}, created_at="2026-01-05T00:00:00+00:00")
    as_yaml = (
        "meta:\n"
        + "".join(f"  {k}: {json.dumps(v)}\n" for k, v in doc.meta.to_dict().items())
        + "body:\n  intended_use: x\n  performance_by_group:\n    - group: all\n      1: one\n"
    )
    assert _parse_lines(as_yaml.encode()) == [
        "ERROR E_UNKNOWN_FIELD mc body.performance_by_group[0].1 field 1 is not in the schema"
    ]


@pytest.mark.parametrize(
    "depth, message", [(300, "document has no meta object"), (5_000, "document nests too deeply")]
)
def test_deep_yaml_flow_nesting_is_rejected_quickly(depth, message):
    start = time.perf_counter()
    with pytest.raises(ArtifactParseError) as exc_info:
        parse_artifact("meta: " + "[" * depth + "]" * depth)
    assert time.perf_counter() - start < 0.5  # the scanner's cost grows with depth squared
    assert [(d.code, d.message) for d in exc_info.value.diagnostics] == [("E_PARSE", message)]


def test_a_misfit_three_levels_down_renders_its_whole_path():
    body = {
        "collection_process": "x",
        "demographic_breakdown": [
            {"axis": "age", "groups": [{"label": "all", "fraction": 1.0}]},
            {"axis": "sex", "groups": [{"label": "f", "fraction": "half"}, {"label": "m", "fraction": 1.5}]},
        ],
    }
    doc = make_artifact(ArtifactKind.DATASHEET, "ds", body)
    assert _parse_lines(serialize_artifact(doc)) == [
        "ERROR E_FIELD_TYPE ds body.demographic_breakdown[1].groups[0].fraction expected a number, got str",
        "ERROR E_FIELD_VALUE ds body.demographic_breakdown[1].groups[1].fraction 1.5 outside [0.0, 1.0]",
    ]


def _register(entries: int):
    body = {
        "entries": [
            {
                "id": f"risk-{i}",
                "failure_mode": "mode",
                "effect": "effect",
                "cause": "cause",
                "severity": 1 + i % 5,
                "likelihood": 1 + i % 3,
                "detection": 2,
                "threatened_principles": ["privacy", "fairness"],
                "status": ("open", "mitigated", "accepted")[i % 3],
                "evidence_refs": [f"test-{i}"],
                "rationale": "why",
            }
            for i in range(entries)
        ]
    }
    return make_artifact(ArtifactKind.FMEA_REGISTER, "fmea", body)


def test_a_body_that_fits_renders_no_path(smile_repo_dir, screening_repo_dir, monkeypatch):
    def no_render(parent, key):
        raise AssertionError("a path was rendered for a body that fits")

    monkeypatch.setattr(artifacts, "_render_path", no_render)
    files = sorted((smile_repo_dir / "artifacts").rglob("*.json")) + sorted(
        (screening_repo_dir / "artifacts").rglob("*.json")
    )
    documents = [file.read_bytes() for file in files] + [serialize_artifact(_register(50))]
    assert len(files) > 20
    for raw in documents:
        parse_artifact(raw)
