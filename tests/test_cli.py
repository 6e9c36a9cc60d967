import cmath
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import elliptica
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


def main_error(argv, capsys):
    """The error document of a CLI run that must fail with exit status 1
    and print exactly one JSON document, on stderr only."""
    from elliptica.cli import main

    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    return json.loads(err)["error"]


def test_missing_fn_file_is_argument_error(tmp_path, capsys):
    err = main_error(["zeros", "--tau", "0.3,1.4", "--fn", str(tmp_path / "none.json")], capsys)
    assert err["operation"] == "parse_arguments"


def test_malformed_fn_file_is_argument_error(tmp_path, capsys):
    fn_file = tmp_path / "fn.json"
    fn_file.write_text('{"lattice": 3}')
    err = main_error(["zeros", "--tau", "0.3,1.4", "--fn", str(fn_file)], capsys)
    assert err["operation"] == "parse_arguments"


def _readme_fn_file(tmp_path):
    # the README's build-fn example: a degree-3 function on tau = 0.3+1.4i
    status, payload = dispatch([
        "build-fn", "--tau", "0.3,1.4", "--zeros", "0.2,0.3,1", "--zeros", "0.5,1.0,1",
        "--zeros=-0.7,-1.3,1", "--poles", "0.1,0.1,1", "--poles", "0.6,1.0,1", "--poles=-0.7,-1.1,1",
    ])
    assert status == 0, payload
    fn_file = tmp_path / "fn.json"
    fn_file.write_bytes(payload)
    return str(fn_file)


@pytest.mark.parametrize("command", ["zeros", "branch-divisors"])
def test_fn_file_on_another_lattice_is_argument_error(command, tmp_path, capsys):
    # the function lives on tau = 0.3+1.4i; locating it on Z + iZ gave
    # degree-2 divisors with abel_defect 0.5 and exit status 0
    fn_file = _readme_fn_file(tmp_path)
    for lattice in (["--tau", "0,1"], ["--omega1", "2,0", "--omega2", "0.6,2.8"]):
        err = main_error([command, *lattice, "--fn", fn_file], capsys)
        assert err["operation"] == "parse_arguments"
        assert err["details"]["fn_omega2"] == [0.3, 1.4]
    # another basis of the same lattice is the same lattice
    doc = run_json(["zeros", "--omega1", "1,0", "--omega2", "1.3,1.4", "--fn", fn_file])
    assert len(doc["zeros"]) == 3 and len(doc["poles"]) == 3 and doc["abel_defect"] < 1e-9


def test_out_into_missing_directory_is_argument_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    err = main_error(["lattice", "--tau", "0,1", "--out", str(out)], capsys)
    assert err["operation"] == "parse_arguments"
    assert not out.parent.exists()


@pytest.mark.parametrize("mult", ["0", "-1"])
def test_non_positive_multiplicity_is_usage_error(mult):
    argv = ["zeros", "--tau", "0.3,1.4", "--zeros", f"0.2,0.3,{mult}", "--poles", "0.1,0.1,1"]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2


def test_monodromy_json_solves_the_basepoint_fiber_once(monkeypatch):
    from elliptica import covering

    calls = []
    solve = covering.lambda_fiber

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(covering, "lambda_fiber", counted)
    run_json(["monodromy", "--tau", "0.3,1.4"])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, operation",
    [
        (["fiber", "--tau", "0.3,1.4", "--q", "0,0", "0,0", "0,0"], "parse_arguments"),
        (["hesse-scan", "--t", "1/0,0", "--exact"], "parse_arguments"),
        (["hesse-scan", "--t", "1,2,3"], "parse_arguments"),
        (["lattice", "--tau", "nan,1"], "make_lattice"),
        # the quasi-period factor of theta exceeds double range on both sides
        (["theta", "--tau", "0.3,1.4", "--z=0.1,-500"], "render_report"),
        (["theta", "--tau", "0.3,1.4", "--z", "0.1,500"], "render_report"),
        (["hesse-scan", "--grid=-1"], "parse_arguments"),
        (["hesse-scan", "--t", "6,0", "--tol", "5"], "parse_arguments"),
        (["hesse-scan", "--t", "6,0", "--tol", "nan"], "parse_arguments"),
        (["hesse-scan", "--t", "6,0", "--tol=-1"], "parse_arguments"),
        (["hesse-scan", "--grid", "3", "--exact"], "parse_arguments"),
        (["hesse-scan", "--grid", "3", "--t", "6,0"], "parse_arguments"),
        (["hesse-scan"], "parse_arguments"),
        (["hesse-scan", "--grid", "3", "--radius", "nan"], "parse_arguments"),
        (["hesse-scan", "--grid", "3", "--radius", "inf"], "parse_arguments"),
        (["hesse-scan", "--grid", "3", "--radius=-6"], "parse_arguments"),
        (["monodromy", "--tau", "0.3,1.4", "--circle-samples", "0"], "parse_arguments"),
        (["monodromy", "--tau", "0.3,1.4", "--circle-samples=-3"], "parse_arguments"),
        (["hesse-scan", "--t", "6,0", "--radius", "3"], "parse_arguments"),
        (["theta", "--tau", "0,1", "--z", "0,1", "--trunc=-2"], "parse_arguments"),
        (["lattice", "--tau", "0,1", "--omega1", "1,0", "--omega2", "0,1"], "parse_arguments"),
        (["lattice", "--omega1", "1,0"], "parse_arguments"),
        (["lattice"], "parse_arguments"),
        (["build-fn", "--tau", "0.3,1.4"], "parse_arguments"),
        # options that would drop one another's input; fn.json is the
        # README's function on tau = 0.3+1.4i
        (["cubic", "--t", "2,0", "--tau", "0,1"], "parse_arguments"),
        (["inflections", "--t", "2,0", "--omega1", "1,0", "--omega2", "0,1"], "parse_arguments"),
        (["fiber", "--t", "2,0", "--tau", "0,1", "--q", "1,0", "0.3,0.2", "0.1,-0.05"],
         "parse_arguments"),
        (["zeros", "--tau", "0.3,1.4", "--wp", "--zeros", "0.2,0.3,1", "--poles", "0.1,0.1,1"],
         "parse_arguments"),
        (["zeros", "--tau", "0.3,1.4", "--wp", "--fn", "fn.json"], "parse_arguments"),
        (["zeros", "--tau", "0.3,1.4", "--fn", "fn.json", "--zeros", "0.2,0.3,1",
          "--poles", "0.1,0.1,1"], "parse_arguments"),
        (["branch-divisors", "--tau", "0.3,1.4", "--fn", "fn.json", "--poles", "0.1,0.1,1"],
         "parse_arguments"),
        (["hesse-scan", "--t", "6,0", "--exact", "--tol", "0.5"], "parse_arguments"),
        # non-finite points, which would fail inside the library
        (["wp", "--tau", "0,1", "--z", "nan,0"], "parse_arguments"),
        (["theta", "--tau", "0,1", "--z", "0,inf"], "parse_arguments"),
        (["zeros", "--tau", "0,1", "--zeros", "nan,0,1", "--poles", "0.4,0.1,1"], "parse_arguments"),
        (["build-fn", "--tau", "0,1", "--zeros", "0.2,0.3,1", "--poles", "0.4,inf,1"],
         "parse_arguments"),
        (["fiber", "--t", "nan,0", "--q", "1,0", "0.3,0.2", "0.1,-0.05"], "parse_arguments"),
        (["inflections", "--t", "nan,0"], "parse_arguments"),
        (["cubic", "--t", "nan,0"], "parse_arguments"),
        (["hesse-scan", "--t", "inf,0"], "parse_arguments"),
        # omega1 = 1e-160: wp is past double range (its scale factor
        # omega1^-2 overflows), and no grid of wp's zeros resolves; at 1e160
        # omega1^-2 is below double range; none raises an overflow
        (["wp", "--omega1", "1e-160,0", "--omega2", "0,1e-160", "--z", "3e-161,2e-161"], "render_report"),
        (["zeros", "--omega1", "1e-160,0", "--omega2", "0,1e-160", "--wp"], "locate_zeros"),
        (["wp", "--omega1", "1e160,0", "--omega2", "0,1e160", "--z", "3e159,2e159"], "render_report"),
    ],
)
def test_bad_input_or_nonfinite_result_is_domain_error(argv, operation, tmp_path):
    if "fn.json" in argv:
        argv = [_readme_fn_file(tmp_path) if a == "fn.json" else a for a in argv]
    status, payload = dispatch(argv)
    assert status == 1, payload
    assert json.loads(payload)["error"]["operation"] == operation


def test_negative_real_parts_need_no_equals_sign():
    from elliptica.cli import build_parser

    argv = ["--tau", "0.3,1.4", "--q", "1,0", "-0.3,0.2", "0.1,0"]
    doc = run_json(["fiber", *argv])
    assert doc["base"][1] == [-0.3, 0.2] and doc["total"] == 6
    args = build_parser().parse_args(["monodromy", *argv, "--circle-samples", "-3"])
    assert args.q == [1, -0.3 + 0.2j, 0.1] and args.circle_samples == -3


@pytest.mark.parametrize("exc", [ValueError("bad"), ZeroDivisionError("division by zero"),
                                 np.linalg.LinAlgError("Singular matrix"),
                                 OverflowError("cannot convert float infinity to integer")])
def test_library_fault_is_one_structured_internal_error(exc, monkeypatch, capsys):
    from elliptica import cli

    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_lattice", handler)
    assert cli.main(["lattice", "--tau", "0,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    doc = json.loads(err)["error"]  # exactly one JSON document
    assert doc["operation"] == "internal"
    assert doc["details"] == {"exception": type(exc).__name__}


def test_infinite_argument_is_one_structured_error():
    # refused as bad input before math.floor(inf) in the torus reduction
    # could raise OverflowError
    src = os.path.dirname(os.path.dirname(elliptica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elliptica", "wp", "--tau", "0,1", "--z", "inf,0"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == b""
    doc = json.loads(proc.stderr)["error"]  # exactly one JSON document
    assert doc["operation"] == "parse_arguments"
    assert doc["message"].startswith("--z ")


def test_wp_at_large_im_tau_matches_trigonometric_limit():
    # as Im tau -> oo with omega1 = 1, wp(z) -> pi^2/sin^2(pi z) - pi^2/3
    doc = run_json(["wp", "--tau", "0,1e6", "--z", "0.3,0.2"])
    z = 0.3 + 0.2j
    ref = cmath.pi ** 2 / cmath.sin(cmath.pi * z) ** 2 - cmath.pi ** 2 / 3.0
    assert abs(complex(*doc["p"]) - ref) <= 1e-8 * abs(ref)


def test_overflow_error_is_the_only_stderr_output():
    src = os.path.dirname(os.path.dirname(elliptica.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elliptica", "theta", "--tau", "0.3,1.4", "--z", "0.1,500"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["operation"] == "render_report"


def test_zeros_imports_neither_numpy_ma_nor_numpy_random():
    # both cost tens of milliseconds per process; only those modules that
    # `import numpy` itself loads (numpy 1.x loads both) may be present
    src = os.path.dirname(os.path.dirname(elliptica.__file__))
    code = (
        "import sys, numpy\n"
        "heavy = ('numpy.ma', 'numpy.random')\n"
        "before = {m for m in heavy if m in sys.modules}\n"
        "from elliptica.cli import main\n"
        "assert main(['zeros', '--tau', '0.3,1.4', '--wp']) == 0\n"
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=60, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_options_only_where_read():
    for argv in (["lattice", "--tau", "0,1", "--trunc", "5"],
                 ["lattice", "--tau", "0,1", "--tol", "1e-6"],
                 ["hesse-scan", "--tau", "0,1", "--t", "6,0"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 2
    assert run_json(["theta", "--tau", "0,2", "--z", "0.3,0.2", "--trunc", "8"])["value"]
    doc = run_json(["hesse-scan", "--t", "6,0", "--tol", "1e-8"])
    assert len(doc["concurrent_triples"]) == 3


@pytest.mark.parametrize("argv", [
    ["monodromy", "--t", "0,1.5"],  # was read as --tau
    ["zeros", "--tau", "0,1", "--w"],
    ["monodromy", "--tau", "0.3,1.4", "--circle", "3"],
    ["build-fn", "--tau", "0,1", "--zero", "0.2,0.3,1", "--pole", "0.4,0.1,1"],
], ids=["monodromy-t", "zeros-w", "monodromy-circle", "build-fn-zero-pole"])
def test_options_are_never_abbreviated(argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 2


# a valid call of each of the 11 subcommands that draw nothing at random
NO_SEED_ARGV = [
    ["lattice", "--tau", "0,1"],
    ["theta", "--tau", "0,1", "--z", "0.3,0.2"],
    ["wp", "--tau", "0,1", "--z", "0.3,0.2"],
    ["build-fn", "--tau", "0,1", "--zeros", "0.2,0.3,1", "--poles", "0.4,0.1,1"],
    ["decompose2", "--tau", "0,1", "--zeros", "0.2,0.3,1", "--poles", "0.4,0.1,1"],
    ["zeros", "--tau", "0,1", "--wp"],
    ["cubic", "--tau", "0,1"],
    ["inflections", "--t", "2,0"],
    ["hesse-scan", "--t", "6,0"],
    ["fiber", "--t", "2,0", "--q", "1,0", "0.3,0.2", "0.1,-0.05"],
    ["branch-divisors", "--tau", "0,1", "--zeros", "0.2,0.3,1", "--poles", "0.4,0.1,1"],
]


@pytest.mark.parametrize("argv", NO_SEED_ARGV, ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_nothing_is_random(argv):
    from elliptica.cli import build_parser

    build_parser().parse_args(argv)  # valid as it is
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + ["--seed", "1"])
    assert exc.value.code == 2


def test_fiber_over_a_point_of_the_cubic_is_refused(capsys):
    # [0:0:1] is the embedded half period (1+i)/2 of the square lattice; g3
    # comes out about -1e-13 rather than 0, and F there is only g3, so its
    # first-order distance from the cubic is about 5e-16
    err = main_error(["fiber", "--tau", "0,1", "--q", "0,0", "0,0", "1,0"], capsys)
    assert err["operation"] == "polar_conic"
    assert re.fullmatch(r"base point .* lies on the cubic", err["message"])


def test_error_details_are_strict_json():
    status, payload = dispatch(["theta", "--tau", "0.3,1.4", "--z", "0.1,500"])
    assert status == 1
    assert json.loads(payload)["error"]["details"]["field"] == "value[0]"

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    status, payload = dispatch(["lattice", "--tau", "nan,1"])
    assert status == 1
    details = json.loads(payload, parse_constant=refuse)["error"]["details"]
    assert details == {"w1": [1, 0], "w2": "(nan+1j)"}


def _readme_examples():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in re.findall(r"^elliptica .*$", text, flags=re.MULTILINE)]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_examples(argv, tmp_path):
    if "fn.json" in argv:
        # the function file comes from the README's own build-fn example
        build = next(a for a in _readme_examples() if a[0] == "build-fn")
        status, payload = dispatch(build)
        assert status == 0, payload
        (tmp_path / "fn.json").write_bytes(payload)
        argv[argv.index("fn.json")] = str(tmp_path / "fn.json")
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / os.path.basename(argv[i]))
    status, payload = dispatch(argv)
    assert status == 0, payload


def test_monodromy_refuses_a_basepoint_on_an_inflectional_tangent():
    # [1:0:0] lies on the inflectional tangent z = 0 at the flex [0:1:0]
    # (tangent 0 of the square lattice's cubic); its fiber is not simple
    status, payload = dispatch(["monodromy", "--tau", "0,1", "--q", "1,0", "0,0", "0,0"])
    assert status == 1
    err = json.loads(payload)["error"]
    assert err["operation"] == "parse_arguments"
    assert "[0]" in err["message"]


def test_monodromy_seed_2_draws_a_loop_direction_off_its_basepoint():
    # the default basepoint and the loop library's first direction are the
    # same first draw of seed 2, which projects off the basepoint to exactly
    # 0; the library must draw again rather than pass NaN on
    doc = run_json(["monodromy", "--tau", "0.3,1.4", "--seed", "2"])
    assert doc["group_order"] == 720
    assert doc["transitive"] is True


def test_monodromy_reports_the_certified_covering_group():
    # tau = i seed 4: the nine tangent lassos alone generate a group of
    # order 48; with the three lassos around the loop line's points of the
    # cubic the twelve are transpositions whose product in the reported
    # (angular) order is the identity, and they generate S_6
    doc = run_json(["monodromy", "--tau", "0,1", "--seed", "4"])
    assert len(doc["generators"]) == 12
    assert sorted(doc["kinds"], key=str) == list(range(9)) + ["cubic"] * 3
    product = list(range(6))
    for images in doc["generators"]:
        assert sum(i != j for i, j in enumerate(images)) == 2
        product = [images[j] for j in product]
    assert product == list(range(6))
    assert doc["group_order"] == 720
    assert doc["transitive"] is True


def test_monodromy_tails_keep_a_deep_halving_floor():
    # tau = i seed 12: a one-segment lasso tail ends near the branch point
    # its circle goes around, where the tracker halves its step below
    # 2^-14 of the segment; the generators and kinds are the ones that
    # uniformly sampled tails give
    doc = run_json(["monodromy", "--tau", "0,1", "--seed", "12"])
    assert doc["generators"] == [
        [0, 1, 2, 5, 4, 3], [2, 1, 0, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 3, 2, 1, 4, 5],
        [0, 4, 2, 3, 1, 5], [0, 2, 1, 3, 4, 5], [0, 5, 2, 3, 4, 1], [1, 0, 2, 3, 4, 5],
        [4, 1, 2, 3, 0, 5], [0, 3, 2, 1, 4, 5], [0, 1, 4, 3, 2, 5], [0, 1, 3, 2, 4, 5]]
    assert doc["kinds"] == [8, 4, "cubic", 3, 0, 6, 2, "cubic", 1, 5, 7, "cubic"]
    assert doc["group_order"] == 720 and doc["transitive"] is True


def test_monodromy_svg_draws_twelve_loops_and_the_basepoint_fiber():
    argv = ["monodromy", "--tau", "0.3,1.4", "--format", "svg"]
    status, payload = dispatch(argv)
    assert status == 0, payload
    svg = payload.decode()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # one orange polyline per lasso; circles for the basepoint and its six
    # fiber points
    assert svg.count('stroke="darkorange"') == 12
    assert svg.count("<circle") == 7
    assert dispatch(argv) == (0, payload)


def test_zeros_of_wp_at_huge_im_tau_are_refused():
    # at Im tau = 1000 the grids that resolve find 0 zeros and 0 poles,
    # which agree with each other but not with wp's degree 2, and the other
    # grids fail past the depth limit
    status, payload = dispatch(["zeros", "--tau", "0.2,1000", "--wp"])
    assert status == 1, payload
    assert json.loads(payload)["error"]["operation"] == "locate_zeros"


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _numbers(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _numbers(v)]
    return [doc]


@pytest.mark.parametrize("argv", [
    [command, "--omega1", f"{s},0", "--omega2", f"0,{s}"]
    for command, scales in [("lattice", ["1e-60", "1e60"]),
                            ("cubic", ["1e-60", "1e60", "1e-40", "1e-27"]),
                            ("inflections", ["1e-60", "1e60", "1e-40", "1e-27"])]
    for s in scales], ids=lambda argv: f"{argv[0]}-{argv[2][:-2]}")
def test_extreme_lattice_scales_are_refused_or_finite(argv):
    # the invariants scale as omega1^-4 and omega1^-6 and leave double range
    status, payload = dispatch(argv)
    doc = json.loads(payload)
    if status == 0:
        values = _numbers(doc)
        assert all(math.isfinite(x) for x in values if isinstance(x, float)), doc
        assert "inf" not in values and "nan" not in values, doc
    else:
        assert status == 1
        assert doc["error"]["operation"] != "internal", doc


FIBER_Q = ["--q", "1,0", "0.3,0.2", "0.1,-0.05"]


@pytest.mark.parametrize("argv", [
    # far from unit scale the fiber points crowd toward [0:1:0] or [0:0:1],
    # within COLLISION_THRESHOLD: a smooth cubic has no hyperflex, so a
    # cluster of three or more is refused, not reported as one tangency
    *(["fiber", "--omega1", f"{s},0", "--omega2", f"0,{s}", *FIBER_Q]
      for s in ("1e-27", "1e-10", "1e10")),
    # the polish of the fiber points gives NaN, which the gates refuse
    *(["fiber", "--t", f"{t},0", *FIBER_Q] for t in ("1e100", "1e200")),
], ids=["omega-1e-27", "omega-1e-10", "omega-1e10", "t-1e100", "t-1e200"])
def test_fibers_that_do_not_solve_are_refused(argv):
    status, payload = dispatch(argv)
    assert status == 1, payload
    assert json.loads(payload)["error"]["operation"] == "lambda_fiber"


def test_cubic_at_a_huge_hesse_parameter_is_smooth():
    assert run_json(["cubic", "--t", "1e200,0"])["smooth"] is True
    status, payload = dispatch(["cubic", "--t", "1e200,0", "--format", "svg"])
    assert status == 0 and payload.startswith(b"<svg"), payload


# nan, +-inf, 0, a moderate float, or +-m 10^k with |k| <= 300
_float = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0]),
    st.floats(-3.0, 3.0),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(-9.99, 9.99), st.integers(-300, 300)),
)
_pair = st.builds(lambda a, b: f"{a!r},{b!r}", _float, _float)


@st.composite
def _lattice(draw):
    """--tau, raw generators, or omega1 = 10^k e^(i theta) and omega2 =
    omega1 tau: a rotated lattice at any scale, parallel when Im tau = 0."""
    form = draw(st.sampled_from(["tau", "raw", "scaled"]))
    if form == "tau":
        return [f"--tau={draw(_pair)}"]
    if form == "raw":
        return [f"--omega1={draw(_pair)}", f"--omega2={draw(_pair)}"]
    w1 = 10.0 ** draw(st.integers(-300, 300)) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    w2 = w1 * complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-3.0, 3.0)))
    return [f"--omega1={w1.real!r},{w1.imag!r}", f"--omega2={w2.real!r},{w2.imag!r}"]


@st.composite
def _divisors(draw, degree):
    """--zeros and --poles of the given degree, the last pole closing the
    zero sum, so that finite moderate points pass the Abel test."""
    zeros = [draw(st.builds(complex, _float, _float)) for _ in range(degree)]
    poles = [draw(st.builds(complex, _float, _float)) for _ in range(degree - 1)]
    poles.append(sum(zeros) - sum(poles))
    return ([f"--zeros={z.real!r},{z.imag!r},1" for z in zeros]
            + [f"--poles={p.real!r},{p.imag!r},1" for p in poles])


# argparse reads a token such as "-inf,0" as an option, so the three
# values of --q, which cannot take "=", never start with "-inf"
_q_value = _pair.filter(lambda s: not s.startswith("-inf"))
_cubic_source = st.one_of(_lattice(), _pair.map(lambda t: [f"--t={t}"]))
_fuzz_argv = st.one_of(
    _lattice().map(lambda lat: ["lattice", *lat]),
    st.builds(lambda cmd, lat, z: [cmd, *lat, f"--z={z}"], st.sampled_from(["theta", "wp"]), _lattice(), _pair),
    st.builds(lambda cmd, src: [cmd, *src], st.sampled_from(["cubic", "inflections"]), _cubic_source),
    st.builds(lambda src, q: ["fiber", *src, "--q", *q], _cubic_source, st.lists(_q_value, min_size=3, max_size=3)),
    _lattice().map(lambda lat: ["zeros", *lat, "--wp"]),
    st.builds(lambda lat, d: ["build-fn", *lat, *d], _lattice(), st.integers(1, 3).flatmap(_divisors)),
    st.builds(lambda lat, d: ["decompose2", *lat, *d], _lattice(), _divisors(2)),
    _pair.map(lambda t: ["hesse-scan", f"--t={t}"]),
)


def _finite_float(text):
    value = float(text)
    assert math.isfinite(value), text
    return value


def _no_constant(name):
    raise AssertionError(f"non-finite number {name} in a report")


@settings(derandomize=True, database=None, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_fuzz_argv)
# contour moments of wp are NaN on this rotated lattice: a NaN count was rounded
@example(["zeros", "--omega1=1e104,1e103", "--omega2=-1e103,1e104", "--wp"])
# |omega2 / omega1| overflows: an infinite tau was rounded
@example(["lattice", "--omega1=4.948250808406389e-114,6.8440747461889164e+283",
          "--omega2=1.0368362845775685e-277,-9.330225752308354e-208"])
def test_every_argv_ends_in_a_finite_report_or_a_named_refusal(argv):
    # monodromy and branch-divisors are left out: a run takes up to seconds
    status, payload = dispatch(argv)
    doc = json.loads(payload, parse_float=_finite_float, parse_constant=_no_constant)
    assert status in (0, 1), (argv, doc)
    if status == 1:
        assert doc["error"]["operation"] != "internal", (argv, doc)
