"""JSON file formats: exact scalars, systems, certificates, report envelopes."""

import json
import math
import re
from fractions import Fraction

import pytest

from hoffman import (
    Certificate,
    InequalitySystem,
    SystemFileError,
    Vec,
    certificate_to_data,
    digest_of,
    exact_field,
    load_certificate,
    load_system,
    make_report,
    parse_certificate_data,
    parse_scalar_value,
    parse_system_data,
    save_certificate,
    save_system,
    sqrt_approx,
    system_to_data,
)

TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])


# -- scalars ---------------------------------------------------------------------


def test_scalars_accept_ints_and_exact_strings():
    assert parse_scalar_value(3) == 3
    assert parse_scalar_value("-2/7") == Fraction(-2, 7)
    assert parse_scalar_value("0.25") == Fraction(1, 4)


def test_scalars_reject_floats_with_guidance():
    with pytest.raises(SystemFileError, match=r'write exact scalars as strings, e\.g\. "0\.25"'):
        parse_scalar_value(0.25)


def test_scalars_reject_bools_and_garbage():
    with pytest.raises(SystemFileError):
        parse_scalar_value(True)
    with pytest.raises(SystemFileError):
        parse_scalar_value(None)
    with pytest.raises(SystemFileError):
        parse_scalar_value("1/0")
    with pytest.raises(SystemFileError):
        parse_scalar_value("abc")


def test_a_long_non_scalar_is_quoted_in_part_with_its_length():
    with pytest.raises(SystemFileError) as short:
        parse_scalar_value([1, 2])
    assert str(short.value) == "cannot interpret [1, 2] as an exact rational"
    with pytest.raises(SystemFileError) as long:
        parse_scalar_value([1] * 3000)
    message = str(long.value)
    assert len(message) < 120
    assert message.startswith("cannot interpret [1, 1, 1")
    assert message.endswith(f"... ({len(repr([1] * 3000))} characters) as an exact rational")


# -- systems ----------------------------------------------------------------------


def test_system_round_trip(tmp_path):
    path = tmp_path / "system.json"
    save_system(TRIANGLE, path)
    loaded, digest = load_system(path)
    assert loaded == TRIANGLE
    assert re.fullmatch(r"sha256:[0-9a-f]{64}", digest)


def test_digest_tracks_the_raw_bytes(tmp_path):
    path = tmp_path / "system.json"
    save_system(TRIANGLE, path)
    _, digest = load_system(path)
    assert digest == digest_of(path.read_bytes())
    path.write_text(path.read_text() + "\n")
    _, changed = load_system(path)
    assert changed != digest


def test_system_serialization_uses_exact_strings():
    data = system_to_data(InequalitySystem.of([[Fraction(1, 3)]], [Fraction(-2, 5)]))
    assert data == {"A": [["1/3"]], "b": ["-2/5"]}


def test_system_parsing_errors():
    with pytest.raises(SystemFileError, match="JSON object"):
        parse_system_data([1, 2])
    with pytest.raises(SystemFileError, match="missing fields"):
        parse_system_data({"A": [["1"]]})
    with pytest.raises(SystemFileError, match="nonempty"):
        parse_system_data({"A": [], "b": []})
    with pytest.raises(SystemFileError, match="rectangular"):
        parse_system_data({"A": [["1", "2"], ["3"]], "b": ["0", "0"]})
    with pytest.raises(SystemFileError):
        parse_system_data({"A": [["1"]], "b": ["0", "0"]})
    with pytest.raises(SystemFileError, match="float"):
        parse_system_data({"A": [[0.5]], "b": ["0"]})


def test_load_system_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemFileError, match="not valid JSON"):
        load_system(path)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"A": [[' + b"1" * 5000 + b']], "b": ["0"]}',  # past the interpreter's 4300-digit limit
        b'{"A": [["1"]], "b": ["\xff"]}',  # not UTF-8
    ],
    ids=["long-integer", "not-utf8"],
)
def test_undecodable_json_is_a_system_file_error(tmp_path, raw):
    path = tmp_path / "undecodable.json"
    path.write_bytes(raw)
    with pytest.raises(SystemFileError, match="cannot decode JSON") as error:
        load_system(path)
    # The package never changes the interpreter's limit on digits, so it does
    # not pass on the interpreter's advice to raise it.
    assert "set_int_max_str_digits" not in str(error.value)
    with pytest.raises(SystemFileError, match="cannot decode JSON"):
        load_certificate(path)


# -- certificates -----------------------------------------------------------------


def test_certificate_round_trip(tmp_path):
    certificate = Certificate(
        point=Vec.of([0]),
        active=(1, 2),
        hull_multipliers=Vec.of([Fraction(1, 2), Fraction(1, 2)]),
    )
    path = tmp_path / "cert.json"
    save_certificate(certificate, path)
    assert load_certificate(path) == certificate


def test_certificate_serialization_shape():
    certificate = Certificate(Vec.of([0]), (1, 2), Vec.of(["1/2", "1/2"]))
    assert certificate_to_data(certificate) == {
        "point": ["0"],
        "active": [1, 2],
        "hull_multipliers": ["1/2", "1/2"],
    }


def test_certificate_parsing_errors():
    good = {"point": ["0"], "active": [1, 2], "hull_multipliers": ["1/2", "1/2"]}
    with pytest.raises(SystemFileError, match="JSON object"):
        parse_certificate_data("cert")
    with pytest.raises(SystemFileError, match="missing fields"):
        parse_certificate_data({"point": ["0"]})
    with pytest.raises(SystemFileError, match="1-based"):
        parse_certificate_data({**good, "active": []})
    with pytest.raises(SystemFileError, match="1-based"):
        parse_certificate_data({**good, "active": [True, 2]})
    with pytest.raises(SystemFileError):
        parse_certificate_data({**good, "active": [0, 1]})
    with pytest.raises(SystemFileError):
        parse_certificate_data({**good, "hull_multipliers": ["1"]})


# -- report helpers ------------------------------------------------------------------


def test_exact_field_carries_both_renderings():
    assert exact_field(Fraction(1, 2)) == {"exact": "1/2", "approx": 0.5}


def test_sqrt_approx():
    assert sqrt_approx(Fraction(1, 2)) == pytest.approx(math.sqrt(0.5))
    assert sqrt_approx(None) is None


def test_float_annotations_past_float_range_are_none():
    assert exact_field(Fraction(10**400)) == {"exact": "1" + "0" * 400, "approx": None}
    assert exact_field(Fraction(-(10**400), 3))["approx"] is None
    assert sqrt_approx(Fraction(10**400)) == 1e200
    assert sqrt_approx(Fraction(10**400, 7)) == pytest.approx(1e200 / math.sqrt(7))
    assert sqrt_approx(Fraction(10**700)) is None
    assert sqrt_approx(Fraction(1, 10**400)) == pytest.approx(1e-200, abs=0)
    assert sqrt_approx(Fraction(1, 10**700)) == 0.0
    assert sqrt_approx(Fraction(2**2048 - 1)) is None


def test_make_report_envelope_is_json_serializable():
    report = make_report("check-eb", "sha256:" + "0" * 64, 12.3456, {"ok": True})
    assert report["command"] == "check-eb"
    assert report["timing_ms"] == 12.346
    assert report["result"] == {"ok": True}
    json.dumps(report)
