import json

import pytest

from ehrhart import (
    ParseError,
    catalog,
    dumps_polytope,
    load_polytope,
    loads_polytope,
    polytope_to_json_dict,
    serialization,
)


def test_round_trip_is_bit_exact(fixtures):
    for name, P in fixtures.items():
        assert loads_polytope(dumps_polytope(P)) == P, name


def test_document_shape():
    doc = polytope_to_json_dict(catalog()["seg_mhalf_third"])
    assert doc == {"dim": 1, "vertices": [["-1/2"], ["1/3"]]}


def test_integer_coordinates_serialize_without_denominator():
    doc = polytope_to_json_dict(catalog()["square2"])
    assert doc["vertices"][0] == ["-1", "-1"]


def test_load_path(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(dumps_polytope(catalog()["diamond2"]))
    assert load_polytope(path) == catalog()["diamond2"]


def test_load_reads_no_more_than_the_cap(tmp_path, monkeypatch):
    # Trailing blanks pad the document to exactly the cap, then one over.
    text = dumps_polytope(catalog()["diamond2"])
    monkeypatch.setattr(serialization, "MAX_FILE_BYTES", len(text) + 10)
    path = tmp_path / "poly.json"
    path.write_text(text + " " * 10)
    assert load_polytope(path) == catalog()["diamond2"]
    path.write_text(text + " " * 11)
    with pytest.raises(ParseError, match=f"more than {len(text) + 10} bytes"):
        load_polytope(path)


def test_redundant_points_are_dropped_on_load():
    text = json.dumps({"dim": 1, "vertices": [["-1"], ["0"], ["2"]]})
    assert len(loads_polytope(text).vertices) == 2


@pytest.mark.parametrize("payload", [
    '{"dim": 1, "vertices": [[0.5], ["1"]]}',       # float coordinate
    '{"dim": 1, "vertices": [["-1"], ["2.0"]]}',    # decimal string
    '{"dim": 1, "vertices": [[1], ["2"]]}',         # bare int coordinate
    '{"dim": 1, "vertices": [["1/0"], ["2"]]}',     # zero denominator
    '{"dim": 1, "vertices": [["1/-2"], ["2"]]}',    # negative denominator
    '{"dim": 1, "vertices": [["01"], ["2"]]}',      # leading zero
    '{"dim": 1, "vertices": [[" 1"], ["2"]]}',      # stray whitespace
    '{"dim": 1, "vertices": [["1e2"], ["2"]]}',     # exponent notation
])
def test_bad_coordinates_rejected(payload):
    with pytest.raises(ParseError):
        loads_polytope(payload)


@pytest.mark.parametrize("payload", [
    '[]',
    '{"vertices": [["1"]]}',
    '{"dim": 1}',
    '{"dim": true, "vertices": [["1"], ["2"]]}',
    '{"dim": 0, "vertices": [["1"], ["2"]]}',
    '{"dim": 2, "vertices": [["1"], ["2"]]}',       # wrong arity
    '{"dim": 1, "vertices": []}',
    '{"dim": 1, "vertices": [["1"], ["2"]], "note": "hi"}',
])
def test_bad_documents_rejected(payload):
    with pytest.raises(ParseError):
        loads_polytope(payload)


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as excinfo:
        loads_polytope('{"dim": 1,\n  "vertices": [["1"], }')
    assert "line 2" in str(excinfo.value)


def test_nan_rejected():
    with pytest.raises(ParseError):
        loads_polytope('{"dim": 1, "vertices": [[NaN], ["2"]]}')
