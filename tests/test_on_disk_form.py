"""The on-disk form of an artifact is ``json.dumps`` with a two-space indent,
sorted keys and unescaped unicode; ``serialize_artifact`` must give those
bytes, and raise what json raises, for any value it is handed."""

from __future__ import annotations

import enum
import json
from pathlib import Path

import pytest

from auditflow.artifacts import ArtifactDocument, ArtifactKind, Stage, make_artifact, parse_artifact, serialize_artifact

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 5


class Label(str):
    pass


META = make_artifact(ArtifactKind.SYSTEM_MAP, "system-map", {}).meta

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**310)
    | st.floats()  # NaN and infinity included: json refuses them
    | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 5e-324])
    | st.text()
    | st.text(alphabet=st.characters(max_codepoint=0x20))  # control characters
    | st.sampled_from(list(Level) + list(Stage))
    | st.text().map(Label)
)
keys = st.text() | st.text(max_size=3).map(Label)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(keys, inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.none() | st.floats(), inner, max_size=3)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=3),  # mixed keys cannot be sorted
    max_leaves=20,
)


def _outcome(render):
    try:
        return render()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _by_json(body) -> bytes:
    payload = {"meta": META.to_dict(), "body": body}
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n").encode("utf-8")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values)
def test_serialize_gives_the_bytes_and_errors_of_json_dumps(body):
    doc = ArtifactDocument(META, body, [])
    assert _outcome(lambda: serialize_artifact(doc)) == _outcome(lambda: _by_json(body))


@pytest.mark.parametrize(
    "body, error",
    [
        ({"x": [1.0, float("nan")]}, ValueError),
        ({"x": {"y": float("inf")}}, ValueError),
        ({"x": [{1, 2}]}, TypeError),
        ({"x": object()}, TypeError),
        ({"x": {1: "a", "b": 2}}, TypeError),
    ],
    ids=["nan", "infinity", "set", "object", "mixed-keys"],
)
def test_serialize_raises_what_json_raises(body, error):
    with pytest.raises(error):
        serialize_artifact(ArtifactDocument(META, body, []))


@pytest.mark.parametrize("audit", ["smile_repo_dir", "screening_repo_dir"])
def test_every_demo_artifact_file_round_trips_byte_for_byte(audit, request):
    files = sorted(Path(request.getfixturevalue(audit), "artifacts").rglob("*.json"))
    assert files
    for path in files:
        data = path.read_bytes()
        assert serialize_artifact(parse_artifact(data)) == data, path
