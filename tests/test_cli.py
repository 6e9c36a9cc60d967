import json

import pytest

from elliptica.cli import dispatch


def run_json(argv):
    status, payload = dispatch(argv)
    assert status == 0, payload
    return json.loads(payload)


def test_lattice_report():
    doc = run_json(["lattice", "--omega1", "2,0", "--omega2", "2,2"])
    assert doc["class"]["kind"] == "square"
    assert doc["class"]["automorphism_count"] == 4
    assert abs(doc["tau"][0]) < 1e-12 and abs(doc["tau"][1] - 1.0) < 1e-12


def test_exact_scan_special_and_generic():
    doc = run_json(["hesse-scan", "--t", "6,0", "--exact"])
    assert len(doc["concurrent_triples"]) == 3
    doc = run_json(["hesse-scan", "--t", "0,6", "--exact"])  # t = 6 eps
    assert len(doc["concurrent_triples"]) == 3
    doc = run_json(["hesse-scan", "--t", "1,0"])
    assert doc["concurrent_triples"] == []


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        dispatch(["not-a-command"])
    assert exc.value.code == 2


def test_missing_lattice_is_domain_error(capsys):
    status, payload = dispatch(["wp", "--z", "0.2,0.3"])
    assert status == 1
    doc = json.loads(payload)
    assert "error" in doc


def test_determinism_bytes():
    argv = ["fiber", "--tau", "0.3,1.4", "--q", "1,0", "0.3,0.2", "0.1,-0.05"]
    s1, p1 = dispatch(argv)
    s2, p2 = dispatch(argv)
    assert s1 == s2 == 0
    assert p1 == p2


def test_fiber_multiplicities_sum_to_six():
    doc = run_json(
        ["fiber", "--tau", "0.3,1.4", "--q", "1,0", "0.3,0.2", "0.1,-0.05"]
    )
    assert sum(e["multiplicity"] for e in doc["entries"]) == 6
    assert doc["total"] == 6


def test_inflections_csv_has_nine_rows():
    status, payload = dispatch(["inflections", "--t", "2,0", "--format", "csv"])
    assert status == 0
    lines = payload.decode().strip().split("\n")
    assert len(lines) == 10  # header + 9


def test_zeros_round_trip_through_build(tmp_path):
    argv = [
        "build-fn",
        "--tau", "0.3,1.4",
        "--zeros", "0.21,0.51,1", "--zeros", "0.69,0.95,1", "--zeros=-0.9,-1.46,1",
        "--poles", "0.11,0.2,1", "--poles", "0.5,1.1,1", "--poles=-0.61,-1.3,1",
    ]
    status, payload = dispatch(argv)
    assert status == 0
    fn_file = tmp_path / "fn.json"
    fn_file.write_bytes(payload)
    doc = run_json(["zeros", "--tau", "0.3,1.4", "--fn", str(fn_file)])
    assert doc["abel_defect"] < 1e-6
    assert len(doc["zeros"]) == 3 and len(doc["poles"]) == 3


def test_zeros_of_wp():
    doc = run_json(["zeros", "--tau", "0,2", "--wp"])
    assert sum(m for _, _, m in doc["poles"]) == 2
    assert sum(m for _, _, m in doc["zeros"]) == 2


def test_wp_at_pole_reports_infinity():
    doc = run_json(["wp", "--tau", "0,2", "--z", "0,0"])
    assert doc["p"] == "inf" and doc["pprime"] == "inf"


def test_svg_unsupported_for_scalar():
    status, payload = dispatch(
        ["theta", "--tau", "0,2", "--z", "0.1,0.1", "--format", "svg"]
    )
    assert status == 1
    assert json.loads(payload)["error"]["operation"] == "render_report"


def test_svg_cubic_renders():
    status, payload = dispatch(["cubic", "--tau", "0,1.5", "--format", "svg"])
    assert status == 0
    assert payload.startswith(b"<svg")


def test_abel_violation_error_surface():
    status, payload = dispatch(
        [
            "build-fn",
            "--tau", "0,2",
            "--zeros", "0.2,0.3,1", "--zeros", "0.5,0.5,1",
            "--poles", "0.1,0.1,1", "--poles", "0.3,0.9,1",
        ]
    )
    assert status == 1
    err = json.loads(payload)["error"]
    assert err["operation"] == "build_from_divisors"


def test_decompose2_cli():
    doc = run_json(
        [
            "decompose2",
            "--tau", "0,2",
            "--zeros", "0.25,0.5,1", "--zeros", "0.75,1.5,1",
            "--poles", "0.1,0.9,1", "--poles", "0.9,1.1,1",
        ]
    )
    assert "mobius" in doc and "t" in doc


def test_out_writes_file(tmp_path):
    from elliptica.cli import main

    out = tmp_path / "report.json"
    status = main(["lattice", "--tau", "0,1", "--out", str(out)])
    assert status == 0
    assert json.loads(out.read_bytes())["class"]["kind"] == "square"


@pytest.mark.parametrize(
    "argv, operation",
    [
        (["fiber", "--tau", "0.3,1.4", "--q", "0,0", "0,0", "0,0"], "parse_arguments"),
        (["hesse-scan", "--t", "1/0,0", "--exact"], "parse_arguments"),
        (["hesse-scan", "--t", "1,2,3"], "parse_arguments"),
        (["lattice", "--tau", "nan,1"], "make_lattice"),
        # theta overflows for Im tau this large: the NaN must not print as "inf"
        (["wp", "--tau", "0,1e6", "--z", "0.3,0.2"], "render_report"),
        (["theta", "--tau", "0.3,1.4", "--z", "0.1,500"], "render_report"),
    ],
)
def test_bad_input_or_nonfinite_result_is_domain_error(argv, operation):
    status, payload = dispatch(argv)
    assert status == 1, payload
    assert json.loads(payload)["error"]["operation"] == operation


def test_options_only_where_read():
    for argv in (["lattice", "--tau", "0,1", "--trunc", "5"],
                 ["lattice", "--tau", "0,1", "--tol", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
    assert run_json(["theta", "--tau", "0,2", "--z", "0.3,0.2", "--trunc", "8"])["value"]
    doc = run_json(["hesse-scan", "--t", "6,0", "--tol", "1e-8"])
    assert len(doc["concurrent_triples"]) == 3
