from __future__ import annotations

import json
import random
import zlib

import pytest

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

from .genutil import SAMPLE_PRINCIPLES, random_artifact

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
