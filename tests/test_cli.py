import json
import os
import subprocess
import sys

import pytest

import superpds
from superpds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "t^2", "tau^2")
    assert code == 0
    assert out.strip() == "-4*t*tau"


def test_bracket_json_matches_text(capsys):
    code, out, _ = run(capsys, "bracket", "--json", "t^2", "tau^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "-4*t*tau"
    assert doc["engine"] == "poisson"


def test_bracket_quantized(capsys):
    code, out, _ = run(capsys, "bracket", "--quantized", "tau", "t")
    assert code == 0
    assert out.strip() == "1"


@pytest.mark.parametrize("argv,operand", [(["tau^-1", "t"], "a"), (["t", "t + tau^-1"], "b")],
                         ids=["a", "b"])
def test_bracket_quantized_refuses_negative_tau(capsys, argv, operand):
    # the star product keeps no tau < 0 monomial: a usage error naming the
    # operand and the term, not a failure inside the kernel
    code, out, err = run(capsys, "bracket", "--quantized", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: operand %s term tau^-1 has tau < 0; the star product computes "
                   "in P+ only\n" % operand)


def test_basis_specialized(capsys):
    code, out, _ = run(capsys, "basis", "--alpha", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"]["F1"] == "tau^2"
    assert doc["elements"]["E1"] == "t^2"


def test_verify_commands(capsys):
    for check in ("embedding", "iso", "jacobi", "virasoro"):
        code, out, _ = run(capsys, "verify", check)
        assert code == 0, check
        assert "pass" in out


def test_h1_single_block_json(capsys):
    code, out, _ = run(capsys, "h1", "--target", "K4'", "--k", "2", "--n", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_dim"] == 1
    block = doc["blocks"][0]
    assert (block["dim_cocycles"], block["dim_coboundaries"], block["dim_h1"]) == (4, 3, 1)


def test_h1_window_flag(capsys):
    code, out, _ = run(capsys, "h1", "--target", "K4'", "--window", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_dim"] == 1
    assert [b["block"]["n"] for b in doc["blocks"]] == [0]


def test_h1_negative_window_is_usage_error(capsys):
    code, out, err = run(capsys, "h1", "--target", "P", "--window", "-3")
    assert code == 2
    assert not out
    assert err.strip() == "h1: window must be nonnegative, got -3"


@pytest.mark.parametrize("target", ["P", "K4", "K4'"])
def test_h1_quantized_needs_target_p_plus(capsys, target):
    # the star engine drops every tau < 0 monomial: these would be P+ scans
    code, out, err = run(capsys, "h1", "--target", target, "--quantized", "--window", "2")
    assert (code, out) == (2, "")
    assert err == "error: h1 --quantized computes target P+ only, got %s\n" % target


@pytest.mark.parametrize("target", ["P", "K4", "K4'"])
def test_solve_obstruction_quantized_needs_target_p_plus(tmp_path, capsys, target):
    # the same refusal as h1: a star solution would be labelled with the wrong target
    f = tmp_path / "h1.json"
    f.write_text(json.dumps({"images": {"H1": "1"}, "block": {"k": 0, "n": 0, "target": "P"}}))
    code, out, err = run(capsys, "solve-obstruction", str(f), "--k", "-2", "--target", target,
                         "--quantized")
    assert (code, out) == (2, "")
    assert err == "error: solve-obstruction --quantized computes target P+ only, got %s\n" % target
    # with no --target the quantized block is P+, whatever block the file names
    code, out, _ = run(capsys, "solve-obstruction", str(f), "--k", "0", "--quantized", "--json")
    assert code == 0
    assert json.loads(out)["block"] == {"k": 0, "n": 0, "target": "P+"}


def test_h1_specialized(capsys):
    code, out, _ = run(
        capsys, "h1", "--target", "P", "--k", "0", "--n", "0", "--specialize", "-1", "--json"
    )
    assert code == 0
    assert json.loads(out)["total_dim"] == 2


@pytest.mark.parametrize(
    "argv,option,value",
    [(["h1", "--target", "P+", "--quantized", "--window", "2", "--json"], "--specialize", "-1/2"),
     (["basis", "--json"], "--alpha", "-3/2")],
    ids=["specialize", "alpha"],
)
def test_negative_rational_option_values(capsys, argv, option, value):
    # the space form parses as the = form does
    code, out, err = run(capsys, *argv, option, value)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "%s=%s" % (option, value)) == (0, out, "")


def test_cocycle_named(capsys):
    code, out, _ = run(capsys, "cocycle", "theta1")
    assert code == 0
    assert "cocycle" in out


def test_cocycle_quantized(capsys):
    code, out, _ = run(capsys, "cocycle", "thetabar1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_cocycle"] is True
    assert doc["images"]["F1"] == "2*t^-1*tau + (alpha - 1)*t^-2*h"


def test_cocycle_file_and_failure(tmp_path, capsys):
    good = tmp_path / "theta1.json"
    good.write_text(
        json.dumps(
            {
                "block": {"k": 0, "n": 0, "target": "P+"},
                "images": {
                    "D1": "t^-1*xi1",
                    "D2": "t^-1*xi2",
                    "D3": "t^-1*eta1",
                    "D4": "t^-1*eta2",
                    "F1": "2*t^-1*tau",
                    "H1": "1",
                },
            }
        )
    )
    code, out, _ = run(capsys, "cocycle", "--file", str(good))
    assert code == 0

    bad = tmp_path / "broken.json"
    bad.write_text(
        json.dumps(
            {
                "block": {"k": 0, "n": 0, "target": "P+"},
                "images": {"D1": "t^-1*xi1", "H1": "1"},
            }
        )
    )
    code, out, _ = run(capsys, "cocycle", "--file", str(bad))
    assert code == 1
    assert "NOT a cocycle" in out


# h * theta1 is closed, but no cochain of the Poisson block carries h
H_THETA1_FILE = {
    "block": {"k": 0, "n": 0, "target": "P+"},
    "images": {
        "D1": "h*t^-1*xi1",
        "D2": "h*t^-1*xi2",
        "D3": "h*t^-1*eta1",
        "D4": "h*t^-1*eta2",
        "F1": "2*h*t^-1*tau",
        "H1": "h",
    },
}
H_THETA1_VIOLATION = "D1 image term t^-1*xi1*h is not a slot of block (k=0, n=0, P+)"


def test_cocycle_file_outside_its_block(tmp_path, capsys):
    path = tmp_path / "h_theta1.json"
    path.write_text(json.dumps(H_THETA1_FILE))
    code, out, _ = run(capsys, "cocycle", "--file", str(path))
    assert code == 1
    assert out.startswith("%s: cocycle\n" % path)
    assert [line for line in out.splitlines() if "violation" in line] == [
        "  violation: " + H_THETA1_VIOLATION
    ]
    code, out, _ = run(capsys, "cocycle", "--file", str(path), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["is_cocycle"] is True
    assert doc["block_violations"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cup", "h_theta1.json", "theta1.json"],
        ["cup", "theta1.json", "h_theta1.json", "--json"],
        ["solve-obstruction", "h_theta1.json", "--k", "-2"],
        ["deform", "verify", "--file", "deformation.json"],
    ],
    ids=["cup-first", "cup-second", "solve-obstruction", "deformation"],
)
def test_cochain_file_outside_its_block_is_usage_error(tmp_path, capsys, argv):
    # every command that reads a cochain file rejects one outside its block
    # before computing with it, as one line naming the file
    (tmp_path / "theta1.json").write_text(json.dumps(THETA1_FILE))
    (tmp_path / "h_theta1.json").write_text(json.dumps(H_THETA1_FILE))
    (tmp_path / "deformation.json").write_text(
        json.dumps({"engine": "poisson", "orders": ["theta1.json", "h_theta1.json"]})
    )
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (tmp_path / "h_theta1.json", H_THETA1_VIOLATION)


TAU_NEG_FILE = {"images": {"T3": "tau^-1*xi1"}}
TAU_NEG_MESSAGE = "T3 image term tau^-1*xi1 has tau < 0; the star engine computes in P+ only"


@pytest.mark.parametrize(
    "argv,source",
    [
        (["cocycle", "theta2", "--quantized"], "theta2"),
        (["cup", "F.json", "F.json", "--quantized"], "F.json"),
        (["solve-obstruction", "F.json", "--k", "-2", "--quantized"], "F.json"),
        (["deform", "verify", "--file", "star.json"], "F.json"),
    ],
    ids=["cocycle", "cup", "solve-obstruction", "deformation"],
)
def test_star_engine_refuses_negative_tau(tmp_path, capsys, argv, source):
    # the star product keeps no tau < 0 monomial: a usage error naming the
    # source and the term, not a failure inside the kernel
    (tmp_path / "F.json").write_text(json.dumps(TAU_NEG_FILE))
    (tmp_path / "star.json").write_text(json.dumps({"engine": "star", "orders": ["F.json"]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    if source.endswith(".json"):
        source = str(tmp_path / source)
    assert err == "error: %s: %s\n" % (source, TAU_NEG_MESSAGE)
    # the Poisson engine computes with the same cochain
    assert run(capsys, "cup", str(tmp_path / "F.json"), str(tmp_path / "F.json"))[0] == 0


def test_h1_block_mode_refuses_a_window(monkeypatch, capsys):
    code, out, err = run(capsys, "h1", "--target", "P", "--k", "0", "--n", "0", "--window", "2")
    assert (code, out) == (2, "")
    assert err == "h1: --window scans a window, not the block of --k and --n\n"
    # SUPERPDS_WINDOW is a default, not an argument: block mode ignores it
    monkeypatch.setenv("SUPERPDS_WINDOW", "abc")
    code, out, _ = run(capsys, "h1", "--target", "K4'", "--k", "2", "--n", "0", "--json")
    assert (code, json.loads(out)["blocks_scanned"]) == (0, 1)


def test_cup_command(tmp_path, capsys):
    theta1 = {
        "block": {"k": 0, "n": 0, "target": "P+"},
        "images": {
            "D1": "t^-1*xi1",
            "D2": "t^-1*xi2",
            "D3": "t^-1*eta1",
            "D4": "t^-1*eta2",
            "F1": "2*t^-1*tau",
            "H1": "1",
        },
    }
    f = tmp_path / "theta1.json"
    f.write_text(json.dumps(theta1))
    code, out, _ = run(capsys, "cup", str(f), str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["zero"] is False
    assert doc["pairs"]["(D1,D3)"] == "2*t^-2"


def test_solve_obstruction_command(tmp_path, capsys):
    theta1 = {
        "block": {"k": 0, "n": 0, "target": "P+"},
        "images": {
            "D1": "t^-1*xi1",
            "D2": "t^-1*xi2",
            "D3": "t^-1*eta1",
            "D4": "t^-1*eta2",
            "F1": "2*t^-1*tau",
            "H1": "1",
        },
    }
    f = tmp_path / "theta1.json"
    f.write_text(json.dumps(theta1))
    code, out, _ = run(capsys, "solve-obstruction", str(f), "--k", "-2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solvable"] is True
    assert doc["solution"] == {"F1": "t^-2"}


def test_solve_obstruction_zero_solution(tmp_path, capsys):
    f = tmp_path / "h1.json"
    f.write_text(json.dumps({"images": {"H1": "1"}, "block": {"k": 0, "n": 0, "target": "P"}}))
    code, out, _ = run(capsys, "solve-obstruction", str(f), "--k", "0")
    assert (code, out) == (0, "solution:\n")
    code, out, _ = run(capsys, "solve-obstruction", str(f), "--k", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["solvable"], doc["solution"]) == (True, {})


def test_deform_verify_cases(capsys):
    for case in ("cor42", "thm43", "thm45"):
        code, out, _ = run(capsys, "deform", "verify", case)
        assert code == 0, case
        assert "pass" in out


def test_deform_verify_file(tmp_path, capsys):
    theta1 = {
        "block": {"k": 0, "n": 0, "target": "P+"},
        "images": {
            "D1": "t^-1*xi1",
            "D2": "t^-1*xi2",
            "D3": "t^-1*eta1",
            "D4": "t^-1*eta2",
            "F1": "2*t^-1*tau",
            "H1": "1",
        },
    }
    rho2 = {"block": {"k": -2, "n": 0, "target": "P+"}, "images": {"F1": "t^-2"}}
    (tmp_path / "rho1.json").write_text(json.dumps(theta1))
    (tmp_path / "rho2.json").write_text(json.dumps(rho2))
    desc = tmp_path / "deformation.json"
    desc.write_text(json.dumps({"engine": "poisson", "orders": ["rho1.json", "rho2.json"]}))
    code, out, _ = run(capsys, "deform", "verify", "--file", str(desc))
    assert code == 0
    assert "pass" in out

    # dropping rho2 must fail at beta^2 with exit code 1
    desc2 = tmp_path / "broken.json"
    desc2.write_text(json.dumps({"engine": "poisson", "orders": ["rho1.json"]}))
    code, out, _ = run(capsys, "deform", "verify", "--file", str(desc2), "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert {f["beta_power"] for f in doc["failures"]} == {2}


THETA1_FILE = {
    "block": {"k": 0, "n": 0, "target": "P+"},
    "images": {"D1": "t^-1*xi1", "H1": "1"},
}


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1, 2], "expected a JSON object, got list"),
        ({"images": {"D1": 5}}, "image of D1 must be an expression string, got int"),
        ({"images": {"Q9": "t"}}, "unknown basis name 'Q9'"),
        ({"block": {"k": 0, "target": "P"}, "images": {}}, "block field 'n' must be int, got nothing"),
        ({"block": {"k": 0, "n": "0", "target": "P"}}, "block field 'n' must be int, got str"),
        ({"block": {"k": 0, "n": 0, "target": "P", "weight_zero": False}},
         "unknown block field 'weight_zero'"),
        ({"block": {"k": 0, "n": 0, "target": "Q"}},
         "target must be one of ('P', 'P+', 'K4', \"K4'\")"),
        ({"block": {"k": 0, "n": 0, "target": "K4"}}, "K4-valued blocks require k = 2"),
        ({"block": {"k": 1, "n": 0, "target": "K4'"}}, "K4-valued blocks require k = 2"),
    ],
    ids=["list", "image", "name", "block-n", "block-n-str", "block-extra", "block-target", "block-K4",
         "block-K4prime"],
)
def test_malformed_cochain_file_is_usage_error(tmp_path, capsys, doc, message):
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cocycle", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (path, message)


def test_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cochain.json"
    path.write_text('{"images": ')
    code, out, err = run(capsys, "cocycle", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: not valid JSON: " % path)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "doc,message",
    [
        ([{"orders": []}], "expected a JSON object, got list"),
        ({"orders": ["rho1.json", 7]}, "orders must name cochain files, got int"),
        ({"orders": "rho1.json"}, "orders must be a list, got str"),
        ({"engine": "bogus", "orders": ["rho1.json"]}, "unknown engine 'bogus'"),
    ],
    ids=["list", "entry", "orders", "engine"],
)
def test_malformed_deformation_file_is_usage_error(tmp_path, capsys, doc, message):
    (tmp_path / "rho1.json").write_text(json.dumps(THETA1_FILE))
    path = tmp_path / "deformation.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "deform", "verify", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (path, message)


def test_window_variable_is_read_by_h1_only(monkeypatch, capsys):
    monkeypatch.setenv("SUPERPDS_WINDOW", "abc")
    code, out, err = run(capsys, "h1", "--target", "K4'")
    assert (code, out) == (2, "")
    assert err == "h1: SUPERPDS_WINDOW must be an integer, got 'abc'\n"
    # an explicit window needs no variable
    code, _, _ = run(capsys, "h1", "--target", "K4'", "--window", "0")
    assert code == 0
    # nor does any other command, including at import
    src = os.path.dirname(os.path.dirname(superpds.__file__))
    env = dict(os.environ, SUPERPDS_WINDOW="abc", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "superpds.cli", "verify", "jacobi"],
        env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setenv("SUPERPDS_WINDOW", "1")
    code, out, _ = run(capsys, "h1", "--target", "K4'", "--json")
    assert (code, json.loads(out)["blocks_scanned"]) == (0, 3)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["h1", "--target", "P", "--specialize", "abc"],
         "invalid rational 'abc': Invalid literal for Fraction: 'abc'"),
        (["basis", "--alpha", "1/0"], "invalid rational '1/0': Fraction(1, 0)"),
        (["h1", "--target", "K4", "--k", "0", "--n", "0"], "K4-valued blocks require k = 2"),
    ],
    ids=["specialize", "alpha", "K4-k"],
)
def test_bad_argument_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s\n" % message


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cocycle", "theta1"], "cocycle: give a name or --file, not both"),
        (["cocycle", "thetabar1"], "cocycle: give a name or --file, not both"),
        (["deform", "verify", "cor42"], "deform verify: give a case name or --file, not both"),
    ],
    ids=["cocycle", "cocycle-star", "deform"],
)
def test_name_with_file_is_usage_error(tmp_path, capsys, argv, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(THETA1_FILE))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--file", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: %s\n" % message)


def test_solve_obstruction_bad_block_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rho1.json"
    path.write_text(json.dumps(THETA1_FILE))
    code, out, err = run(capsys, "solve-obstruction", str(path), "--k", "0", "--target", "Q")
    assert (code, out) == (2, "")
    assert err.startswith("error: target must be one of")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "bracket", "xi1^2", "t")
    assert code == 1
    assert "exterior" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["h1"])  # missing required --target
    assert exc.value.code == 2
