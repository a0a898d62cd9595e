"""Command line layer: schema ingestion, exit codes, bundled defaults,
and byte-stable reports."""

import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

from epsilon_lab import cli as cli_mod
from epsilon_lab import coeff as coeff_mod
from epsilon_lab import epsilon as epsilon_mod
from epsilon_lab.cli import main
from epsilon_lab.gf import fq_build
from epsilon_lab.localfield import SERIES_CAP

DATA = resources.files("epsilon_lab").joinpath("data")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def run_child(argv, timeout):
    """The CLI in a child process, killed after timeout seconds: the
    finished process and its report."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "epsilon_lab.cli"] + argv, capture_output=True, text=True, env=env, timeout=timeout
    )
    return done, json.loads(done.stdout)


def test_gauss_basic(capsys):
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "3", "--c", "1"])
    assert code == 0 and report["ok"]
    assert report["ell"] == 7 and report["value"] == 5
    assert math.isclose(report["complex"]["abs"], math.sqrt(3), rel_tol=1e-9)
    assert "timings" not in report and "seed" not in report


def test_gauss_ell_pin(capsys):
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "3", "--c", "2", "--ell", "13"])
    assert code == 0 and report["ell"] == 13
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "3", "--c", "2", "--ell", "10"])
    assert code == 3 and report["field"] == "ell"


def test_gauss_rejects_non_power(capsys):
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "10", "--c", "1"])
    assert code == 3 and report["field"] == "q"
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "3", "--c", "0"])
    assert code == 3 and report["field"] == "c"
    # a list of integers longer than the degree is refused as too long
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "9", "--c", "2,0,1"])
    assert (code, report["field"], report["error"]) == (3, "c", "c must be a list of at most 2 integers")
    # no power of p below 2 ever reaches q
    for p in ("0", "1", "-1"):
        code, report = run(capsys, ["gauss", "--p", p, "--q", "9", "--c", "1"])
        assert code == 3 and report["field"] == "p"
    # the constant exists in odd characteristic only, so p = 2 names p
    code, report = run(capsys, ["gauss", "--p", "2", "--q", "4", "--c", "1"])
    assert (code, report["field"], report["error"]) == (3, "p", "the quadratic constant needs odd characteristic")


def test_eps_local_bundled_quadratic(capsys):
    code, report = run(capsys, ["eps-local"])
    assert code == 0
    assert report["ell"] == 73
    assert report["value"] == 43
    assert report["a"] == 1 and report["a_omega"] == 0
    # the two pushforward kinds agree on a ramified character
    code, star = run(capsys, ["eps-local", "--kind", "j*"])
    assert code == 0 and star["value"] == 43


def test_eps_local_punctual(capsys, tmp_path):
    path = tmp_path / "punct.json"
    path.write_text(json.dumps({"coeff": {"p": 3, "orders": [8]}, "eigenvalues": [2, 3]}))
    code, report = run(capsys, ["eps-local", "--char", str(path), "--kind", "punctual"])
    assert code == 0
    assert report["value"] == pow(6, -1, 73)
    assert report["a"] == -2
    for eigen in ([0], ["x"], 5):
        path.write_text(json.dumps({"coeff": {"p": 3, "orders": [8]}, "eigenvalues": eigen}))
        code, report = run(capsys, ["eps-local", "--char", str(path), "--kind", "punctual"])
        assert code == 3 and report["error"] and not report["ok"]


def test_deep_wild_datum_is_reduced_not_refused(capsys, tmp_path):
    # 200 poles over F_4, reduced to swan 199: the walk's cap refuses it
    # under auto, and the closed form answers
    field = fq_build(2, 2).to_json()
    wild = {"v": -200, "coeffs": [[0, 1]] * 200}
    char = tmp_path / "char.json"
    record = {"field": field, "c_pi": 1, "tame_e": 0, "wild_h": wild}
    char.write_text(json.dumps({"char": record, "coeff": {"p": 2, "orders": [3]}}))
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"field": field, "v": 0, "prec": 250, "coeffs": [[1]] + [[0]] * 249}))
    argv = ["eps-local", "--char", str(char), "--form", str(form)]
    code, report = run(capsys, argv)
    assert code == 4 and "unit sum would exceed" in report["error"]
    code, report = run(capsys, argv + ["--method", "closed"])
    assert code == 0 and report["ok"]
    assert report["a"] == report["a_omega"] == 200 and report["method"] == "closed_form"


def test_eps_local_bad_kind(capsys):
    code, report = run(capsys, ["eps-local", "--kind", "bogus"])
    assert code == 3 and report["field"] == "kind"
    # the long spellings are no kind of the CLI
    for kind in ("shriek", "star"):
        code, report = run(capsys, ["eps-local", "--kind", kind])
        assert code == 3 and report["field"] == "kind"


def test_eps_local_refuses_an_unknown_method(capsys, tmp_path):
    # an unramified character once answered "unramified" under any --method
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"char": {"field": fq_build(3, 1).to_json(), "c_pi": 2, "tame_e": 0}}))
    code, report = run(capsys, ["eps-local", "--char", str(path)])
    assert code == 0 and report["method"] == "unramified"
    code, report = run(capsys, ["eps-local", "--char", str(path), "--method", "bogus"])
    assert code == 3 and not report["ok"] and "bogus" in report["error"]


def test_product_check_refuses_an_unknown_method(capsys, tmp_path):
    # everywhere unramified data reads no engine, and once took any --method
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"p": 3, "n": 1, "unram": 2}))
    code, report = run(capsys, ["product-check", "--spec", str(path), "--method", "bogus"])
    assert code == 3 and not report["ok"] and "bogus" in report["error"]


@pytest.mark.parametrize("method", ["auto", "tate_slow", "closed"])
def test_eps_local_refuses_a_coefficient_field_of_another_characteristic(capsys, tmp_path, method):
    # zeta_5**t is no additive character of F_3: refused as product-check
    # refuses such a spec, not priced
    field = {"p": 3, "n": 1, "modulus": [0, 1], "generator": [2]}
    char = {"field": field, "c_pi": 1, "tame_e": 1, "wild_h": {"v": -1, "coeffs": [[1]]}}
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"coeff": {"p": 5, "orders": [2]}, "char": char}))
    code, report = run(capsys, ["eps-local", "--char", str(path), "--method", method])
    assert code == 3 and report["field"] == "p" and not report["ok"]
    path.write_text(json.dumps({"coeff": {"p": 3, "orders": [2]}, "char": char}))
    code, report = run(capsys, ["eps-local", "--char", str(path), "--method", method])
    assert code == 0 and report["ell"] == 7 and report["value"] == 1


def test_eps_global_on_bundled_spec(capsys):
    code, report = run(capsys, ["eps-global", "--spec", str(DATA / "product_spec.json")])
    assert code == 0 and report["ok"]
    assert report["degree"] == 1
    assert report["audit"]["leading_nonzero"] and report["audit"]["power_sum_consistent"]
    assert len(report["l_polynomial"]) == 2


def test_product_check_bundled_with_second_ell(capsys):
    code, report = run(capsys, ["product-check", "--second-ell"])
    assert code == 0 and report["ok"]
    assert report["report"]["ok"] and report["second"]["ok"]
    assert report["report"]["mode"] == "determinant"
    assert report["second"]["ell"] != report["report"]["ell"]


def test_product_check_closed_method_refuses_tame_point(capsys):
    code, report = run(capsys, ["product-check", "--method", "closed"])
    assert code == 3 and report["error"] == "closed form needs a wild character"


def test_product_check_scaled_degree_eleven(capsys, tmp_path):
    # wild t^11, Kummer t, punctures {0, infinity} and the bundled dt/t
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec["wild"] = {"num": [[0]] * 11 + [[1]], "den": [[1]]}
    path = tmp_path / "deg11.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["product-check", "--spec", str(path), "--second-ell"])
    assert code == 0 and report["ok"]
    for side in ("report", "second"):
        assert report[side]["ok"] and report[side]["degree"] == 11
    assert report["second"]["ell"] != report["report"]["ell"]


def _bundled_spec(tmp_path, k=1, unram=1):
    """The bundled product spec with wild t^k and the given scaling: wild
    t^k, Kummer t, punctures {0, infinity}, so degree k."""
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec["wild"] = {"num": [[0]] * k + [[1]], "den": [[1]]}
    spec["unram"] = unram
    path = tmp_path / ("deg%d-unram%d.json" % (k, unram))
    path.write_text(json.dumps(spec))
    return str(path)


def test_eps_global_default_prime_does_not_depend_on_the_degree(capsys, tmp_path):
    path = _bundled_spec(tmp_path, k=5)
    code, report = run(capsys, ["eps-global", "--spec", path])
    assert code == 0 and report["ok"]
    assert report["ell"] == 7 and report["degree"] == 5
    for ell in (7, 13):
        code, report = run(capsys, ["eps-global", "--spec", path, "--ell", str(ell)])
        assert code == 0 and report["ok"] and report["ell"] == ell


def test_default_prime_skips_a_divisor_of_the_scaling(capsys, tmp_path):
    path = _bundled_spec(tmp_path, unram=7)
    for argv in (["eps-global", "--spec", path], ["product-check", "--spec", path]):
        code, report = run(capsys, argv)
        assert code == 0 and report["ok"] and report["ell"] == 13
        code, report = run(capsys, argv + ["--ell", "7"])
        assert code == 3 and report["field"] == "ell"


def test_induction_check_skips_a_divisor_of_the_variants_scaling(capsys, tmp_path):
    spec = json.loads((DATA / "induction_spec.json").read_text())
    for variant in spec["variants"]:
        variant["global"]["unram"] = variant["local"]["unram"] = 7
    path = tmp_path / "unram7.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["induction-check", "--spec", str(path)])
    assert code == 0 and report["ok"] and report["ell"] == 13
    code, report = run(capsys, ["induction-check", "--spec", str(path), "--ell", "7"])
    assert code == 3 and report["field"] == "ell"


def test_second_ell_skips_a_divisor_of_the_scaling(capsys, tmp_path):
    path = _bundled_spec(tmp_path, k=5, unram=13)
    code, report = run(capsys, ["product-check", "--spec", path, "--second-ell"])
    assert code == 0 and report["ok"]
    assert (report["report"]["ell"], report["second"]["ell"]) == (7, 19)


def test_induction_check_bundled(capsys):
    code, report = run(capsys, ["induction-check"])
    assert code == 0 and report["ok"]
    assert report["all_equal"] and report["conductor_ok"]
    # degree-2 power cover at ell = 7: the factor is the quadratic constant
    # at -2 over the field size
    assert report["ell"] == 7 and report["lambdas"] == [4, 4]
    assert report["degrees"] == [2, 2]


def test_induction_check_refuses_an_empty_variants_list(capsys, tmp_path):
    spec = json.loads((DATA / "induction_spec.json").read_text())
    spec["variants"] = []
    path = tmp_path / "novariants.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["induction-check", "--spec", str(path)])
    assert (code, report["field"], report["ok"]) == (3, "variants", False)
    assert report["error"] == "cover audit needs a nonempty variants list"


def test_twisted_check(capsys):
    code, report = run(capsys, ["twisted-check", "--trials", "3", "--seed", "9"])
    assert code == 0 and report["ok"]
    counts = report["report"]["counts"]
    assert counts["randomized"] == 3 and counts["exhaustive_pairs"] >= 80


def test_twisted_check_runs_zero_trials(capsys):
    code, report = run(capsys, ["twisted-check", "--trials", "0", "--seed", "9"])
    assert code == 0 and report["ok"]
    assert report["report"]["counts"]["randomized"] == 0


def _with_true(name):
    """A command, the flag naming its input file, and the bundled input
    with one integer set to JSON true."""
    if name in ("tame_e", "c_pi", "wild_h", "wild_h_v"):
        obj = json.loads((DATA / "char_quadratic.json").read_text())
        if name == "wild_h":
            obj["char"]["wild_h"] = {"v": -1, "coeffs": [[True]]}
        elif name == "wild_h_v":
            obj["char"]["wild_h"] = {"v": True, "coeffs": [[1]]}
        else:
            obj["char"][name] = True
        return ["eps-local"], "--char", obj
    if name in ("form", "form_v", "form_prec"):
        obj = json.loads((DATA / "form_dlog.json").read_text())
        if name == "form":
            obj["coeffs"][0] = [True]
        else:
            obj[name[len("form_"):]] = True
        return ["eps-local"], "--form", obj
    if name == "eigenvalues":
        return ["eps-local", "--kind", "punctual"], "--char", {"coeff": {"p": 3, "orders": [8]}, "eigenvalues": [2, True]}
    obj = json.loads((DATA / "product_spec.json").read_text())
    if name == "unram":
        obj["unram"] = True
    elif name == "kummer_exponent":
        obj["kummer"][0][1] = True
    elif name == "wild_num":
        obj["wild"]["num"] = [[0], [True]]
    else:
        obj["punctures"][0]["minpoly"] = [0, True]
    return ["product-check" if name in ("unram", "kummer_exponent") else "eps-global"], "--spec", obj


COEFFICIENT_CASES = ["wild_num", "minpoly", "wild_h", "form"]
# a series' valuation and precision, the form's and the character's wild datum's
WINDOW_CASES = {"form_v": "v", "form_prec": "prec", "wild_h_v": "v"}


@pytest.mark.parametrize(
    "name", ["kummer_exponent", "unram", "tame_e", "c_pi", "eigenvalues"] + COEFFICIENT_CASES + sorted(WINDOW_CASES)
)
def test_json_true_is_not_an_integer(capsys, tmp_path, name):
    # true == 1 in Python, so an isinstance(x, int) check lets it pass
    argv, flag, obj = _with_true(name)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, report = run(capsys, argv + [flag, str(path)])
    assert code == 3 and not report["ok"] and report["error"]
    if name in COEFFICIENT_CASES:
        assert report["field"] == "coefficient"
    if name in WINDOW_CASES:
        assert report["field"] == WINDOW_CASES[name]


def test_malformed_spec_points_at_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"spec": {"p": 3}}))
    code, report = run(capsys, ["eps-global", "--spec", str(path)])
    assert code == 3 and report["field"] == "n"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, report = run(capsys, ["eps-global", "--spec", str(garbled)])
    assert code == 3

    for obj, field in (({"p": "3", "n": 1}, "p"), ([1, 2], "spec")):
        path.write_text(json.dumps(obj))
        code, report = run(capsys, ["eps-global", "--spec", str(path)])
        assert code == 3 and report["field"] == field

    # wrong JSON types and a zero denominator
    bundled = json.loads((DATA / "product_spec.json").read_text())
    for key, bad in (
        ("punctures", 5),
        ("wild", {"num": "x", "den": [[1]]}),
        ("wild", {"num": [[0], [1]], "den": []}),
    ):
        path.write_text(json.dumps(dict(bundled, **{key: bad})))
        code, report = run(capsys, ["eps-global", "--spec", str(path)])
        assert code == 3 and report["error"] and not report["ok"]


@pytest.mark.parametrize("command", ["eps-global", "product-check"])
def test_reducible_puncture_is_refused(capsys, tmp_path, command):
    # t^2 - 1 = (t - 1)(t + 1) over F_3 is no closed point; read as one,
    # its two rational roots were walked as points of the domain
    bundled = json.loads((DATA / "product_spec.json").read_text())
    spec = dict(bundled, kummer=[], punctures=[{"type": "finite", "minpoly": [2, 0, 1]}, {"type": "infinity"}])
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, [command, "--spec", str(path)])
    assert code == 3 and report["field"] == "minpoly" and not report["ok"]


@pytest.mark.parametrize("kind", ["foo", "Infinity", "", None])
def test_point_type_is_finite_or_infinity(capsys, tmp_path, kind):
    # any other type was read as a finite point, and "Infinity" then missed
    # its minpoly
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec["punctures"][0]["type"] = kind
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["eps-global", "--spec", str(path)])
    assert code == 3 and report["field"] == "type" and not report["ok"]


_T = {"num": [[0], [1]], "den": [[1]]}  # the function t
# JSON values of every type but integer
_NO_INTEGER = [None, True, 1.5, "x", [], {}]


@pytest.mark.parametrize("kummer", [[[_T]], [[_T, 1, 2]], [5], 5] + [[[_T, bad]] for bad in _NO_INTEGER])
def test_kummer_entry_is_a_pair(capsys, tmp_path, kummer):
    # an entry that is no [function, exponent] pair failed to unpack, and
    # an exponent that is no integer was refused with no field
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec["kummer"] = kummer
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["eps-global", "--spec", str(path)])
    assert code == 3 and report["field"] == "kummer" and not report["ok"]


@pytest.mark.parametrize("unram", _NO_INTEGER)
def test_unram_of_another_type_names_its_input(capsys, tmp_path, unram):
    # it was refused with no field
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec["unram"] = unram
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["product-check", "--spec", str(path)])
    assert code == 3 and report["field"] == "unram" and not report["ok"]


@pytest.mark.parametrize(
    "key, bad",
    [("punctures", [[0, 1]]), ("wild", [[0], [1]]), ("kummer", [[[[0], [1]], 1]])],
    ids=["puncture", "wild", "kummer-function"],
)
def test_record_that_is_no_object_names_its_input(capsys, tmp_path, key, bad):
    # a point or function given as a list was indexed by a key and failed
    # with a bare TypeError
    spec = json.loads((DATA / "product_spec.json").read_text())
    spec[key] = bad
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["eps-global", "--spec", str(path)])
    assert code == 3 and report["field"] == key and not report["ok"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["gauss", "--p", "4", "--q", "16", "--c", "1"], "p"),
        (["twisted-check", "--p", "4", "--trials", "1"], "p"),
        (["gauss", "--p", "3", "--q", "3", "--c", "1", "--orders", "3"], "orders"),
        (["twisted-check", "--trials", "-1"], "trials"),
    ],
    ids=["gauss-p", "twisted-p", "orders", "trials-negative"],
)
def test_refused_option_names_its_input(capsys, argv, field):
    code, report = run(capsys, argv)
    assert code == 3 and report["field"] == field and not report["ok"]
    assert epsilon_mod.TATE_CAP == 1 << 22


def test_induction_check_refuses_a_reducible_point(capsys, tmp_path):
    spec = json.loads((DATA / "induction_spec.json").read_text())
    spec["point"] = {"type": "finite", "minpoly": [2, 0, 1]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run(capsys, ["induction-check", "--spec", str(path)])
    assert code == 3 and report["field"] == "minpoly"


def test_product_check_on_everywhere_unramified_data(capsys, tmp_path):
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"p": 3, "n": 1, "wild": None, "kummer": [], "punctures": [], "unram": 2}))
    code, report = run(capsys, ["product-check", "--spec", str(path), "--second-ell"])
    assert code == 0 and report["ok"]
    assert report["report"]["mode"] == "constant" and report["report"]["degree"] is None
    assert report["second"]["mode"] == "constant" and report["second"]["ok"]


def test_reports_byte_identical_across_reruns(capsys, tmp_path):
    first = tmp_path / "first.json"
    rerun = tmp_path / "rerun.json"
    code1, _ = run(capsys, ["product-check", "--json-out", str(first)])
    code2, _ = run(capsys, ["product-check", "--json-out", str(rerun)])
    assert code1 == code2 == 0
    assert rerun.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        # the unit-sum cap is a constant, not an option
        ["product-check", "--cap", "2"],
        ["eps-local", "--method", "tate", "--cap", "2"],
        # only twisted-check draws randomized cases
        ["gauss", "--p", "3", "--q", "3", "--c", "1", "--seed", "1"],
        ["eps-global", "--spec", str(DATA / "product_spec.json"), "--seed", "1"],
        ["gauss", "--p", "3"],
        ["twisted-check", "--trials", "x"],
        # evaluation is sequential: there is no thread count to set
        ["product-check", "--threads", "1"],
    ],
    ids=["cap", "cap-tate", "seed-gauss", "seed-eps-global", "missing", "not-an-int", "threads"],
)
def test_refused_command_line_exits_3_with_a_report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3 and not report["ok"] and report["error"]
    assert report["caps"] == {"field": 1 << 24, "unit_sum": 1 << 22}
    assert "Traceback" not in captured.err and "usage:" not in captured.err
    assert epsilon_mod.TATE_CAP == 1 << 22


@pytest.mark.parametrize(
    "argv, field, command",
    [
        (["eps-local", "--method", "bogus"], "method", "eps-local"),
        (["gauss", "--p", "x", "--q", "3", "--c", "1"], "p", "gauss"),
        (["eps-global"], "spec", "eps-global"),
        (["bogus"], "command", None),
        # argparse names no option for a word it does not know
        (["product-check", "--threads", "1"], None, "product-check"),
    ],
    ids=["choice", "not-an-int", "required", "unknown-command", "unknown-option"],
)
def test_bad_command_line_names_its_option(capsys, argv, field, command):
    code, report = run(capsys, argv)
    assert code == 3 and not report["ok"]
    assert report.get("field") == field and report.get("command") == command


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["gauss", "--help"])
    assert stop.value.code == 0 and "--p" in capsys.readouterr().out


def test_every_option_is_read_by_its_command():
    # each subcommand option's dest is read as args.<dest> in its cmd_*
    # function; only --json-out is read in main
    def reads(func):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }

    (sub,) = [a for a in cli_mod._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    in_main = reads(main) & {"json_out"}
    unread = []
    for name, parser in sub.choices.items():
        used = reads(cli_mod._COMMANDS[name]) | in_main
        unread += [
            "%s %s" % (name, action.option_strings[0])
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction) and action.dest not in used
        ]
    assert not unread, "options no command reads: %s" % ", ".join(unread)


@pytest.mark.parametrize(
    "ell",
    [
        # ell - 1 = 6 * P with P a prime near 2^56
        pytest.param(432345564227568679, id="6P"),
        # ell - 1 = 6 * 268435459 * 268436167, two primes near 2^28
        pytest.param(432346714205073919, id="6PQ"),
    ],
)
def test_pinned_prime_with_large_primes_in_ell_minus_one_answers(ell):
    done, report = run_child(["gauss", "--p", "3", "--q", "3", "--c", "1", "--ell", str(ell)], timeout=20)
    assert done.returncode == 0 and report["ok"] and report["ell"] == ell


def test_malformed_character_record_points_at_field(capsys, tmp_path):
    path = tmp_path / "char.json"
    for char, field in (([1], "char"), ({"field": [3]}, "field"), ({"field": {"p": "3"}}, "p")):
        path.write_text(json.dumps({"char": char, "coeff": {"p": 3, "orders": [8]}}))
        code, report = run(capsys, ["eps-local", "--char", str(path)])
        assert code == 3 and report["field"] == field

    # wrong JSON types inside an otherwise well-formed record
    bundled = json.loads((DATA / "char_quadratic.json").read_text())
    for key, bad in (
        ("tame_e", "x"),
        ("c_pi", "a"),
        ("wild_h", {"coeffs": 7, "v": 0}),
        ("wild_h", {"coeffs": [], "v": "z"}),
    ):
        path.write_text(json.dumps(dict(bundled, char=dict(bundled["char"], **{key: bad}))))
        code, report = run(capsys, ["eps-local", "--char", str(path)])
        assert code == 3 and report["error"] and not report["ok"]


F9 = {"p": 3, "n": 2, "modulus": [1, 0, 1], "generator": [1, 1]}


@pytest.mark.parametrize(
    "field",
    [
        dict(F9, modulus=[0, 0, 1], generator=[0, 1]),  # x^2 is reducible
        dict(F9, generator=[2, 0]),  # 2 has order 2, not 8
        dict(F9, generator=[True, 1]),  # JSON true is no integer
        {"p": 2, "n": 17, "modulus": [0] * 17 + [1], "generator": [0, 1] + [0] * 15},  # past the table line
    ],
)
def test_field_descriptor_that_names_no_field_is_refused(capsys, tmp_path, field):
    # the generator must have order q - 1, which also proves the modulus
    # irreducible; an unramified character over these read as a field
    large = field["n"] == 17
    char = {"field": field, "c_pi": 1 if large else 2, "tame_e": 0}
    if large:
        char["wild_h"] = {"v": -3, "coeffs": [[1], [0], [1]]}
    form = {"field": field, "v": 0, "prec": 4 if large else 3, "coeffs": [[1], [0, 1], [1]]}
    coeff = {"p": field["p"], "orders": [field["p"] ** field["n"] - 1 if large else 8]}
    (tmp_path / "char.json").write_text(json.dumps({"char": char, "coeff": coeff}))
    (tmp_path / "form.json").write_text(json.dumps(form))
    argv = ["eps-local", "--char", str(tmp_path / "char.json"), "--form", str(tmp_path / "form.json")]
    code, report = run(capsys, argv + (["--method", "closed"] if large else []))
    assert code == 3 and not report["ok"] and report["field"] == "generator"


def test_malformed_cover_field_points_at_field(capsys, tmp_path):
    cover = json.loads((DATA / "induction_cover.json").read_text())
    path = tmp_path / "cover.json"
    for bad in ([3], None, {"p": "3"}):
        cover["field"] = bad
        path.write_text(json.dumps(cover))
        code, report = run(capsys, ["induction-check", "--cover", str(path)])
        assert code == 3 and report["field"] == ("p" if isinstance(bad, dict) else "field")


def _edited(data, path, bad):
    """The bundled input data with the entry at path set to bad."""
    obj = json.loads((DATA / data).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    return obj


@pytest.mark.parametrize(
    "command, data, path, bad, field",
    [
        ("eps-global", "product_spec.json", ("n",), 0, "n"),
        ("eps-global", "product_spec.json", ("n",), -1, "n"),
        ("eps-local", "char_quadratic.json", ("char", "field", "n"), 0, "n"),
        ("eps-global", "product_spec.json", ("punctures", 0, "minpoly"), [1], "minpoly"),
        ("eps-global", "product_spec.json", ("punctures", 0, "minpoly"), [], "minpoly"),
        ("eps-global", "product_spec.json", ("p",), 0, "p"),
        ("eps-global", "product_spec.json", ("p",), -3, "p"),
    ],
    ids=["spec-n-zero", "spec-n-negative", "char-n-zero", "minpoly-constant", "minpoly-empty", "spec-p-zero", "spec-p-negative"],
)
def test_bad_degree_names_its_input(capsys, tmp_path, command, data, path, bad, field):
    # a field degree below 1 failed inside the modulus scan, on the float
    # p ** n or in FieldDesc, a p below 2 in the same scan, and a constant
    # minpoly with a plain ValueError: none of them named its input
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_edited(data, path, bad)))
    code, report = run(capsys, [command, "--char" if command == "eps-local" else "--spec", str(inp)])
    assert code == 3 and report["field"] == field and not report["ok"]


@pytest.mark.parametrize(
    "field, key",
    [
        (dict(F9, modulus=[1, 0, 2]), "modulus"),  # not monic
        (dict(F9, generator=[1]), "generator"),  # one coefficient short
    ],
    ids=["modulus-not-monic", "generator-short"],
)
def test_descriptor_shape_error_names_its_input(capsys, tmp_path, field, key):
    char = {"field": field, "c_pi": 2, "tame_e": 0}
    (tmp_path / "char.json").write_text(json.dumps({"char": char, "coeff": {"p": 3, "orders": [8]}}))
    code, report = run(capsys, ["eps-local", "--char", str(tmp_path / "char.json")])
    assert code == 3 and not report["ok"] and report["field"] == key


def test_gauss_walks_the_log_table_once(capsys, monkeypatch):
    # one gamma_counts walk serves both the residue and the complex block
    calls = []
    plain = epsilon_mod.gamma_counts

    def counted(field, c):
        calls.append(field.q)
        return plain(field, c)

    monkeypatch.setattr(epsilon_mod, "gamma_counts", counted)
    monkeypatch.setattr(cli_mod, "gamma_counts", counted)
    code, report = run(capsys, ["gauss", "--p", "7", "--q", "49", "--c", "3"])
    assert code == 0 and report["ok"]
    assert calls == [49]


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--p", "3", "--q", "9", "--c", "1", "--orders", "-8"],
        ["gauss", "--p", "3", "--q", "9", "--c", "1", "--orders", "0"],
        ["twisted-check", "--orders", "-8", "--trials", "1"],
    ],
    ids=["gauss-negative", "gauss-zero", "twisted-negative"],
)
def test_non_positive_orders_are_refused(capsys, argv):
    code, report = run(capsys, argv)
    assert code == 3 and report["field"] == "orders" and not report["ok"]


@pytest.mark.parametrize("orders", ["", " ", ","], ids=["empty", "blank", "comma"])
@pytest.mark.parametrize(
    "argv",
    [["gauss", "--p", "3", "--q", "9", "--c", "1"], ["twisted-check", "--trials", "0"]],
    ids=["gauss", "twisted"],
)
def test_orders_that_name_no_integer_are_refused(capsys, argv, orders):
    # "" once took the default, and " " or "," an empty list of orders
    code, report = run(capsys, argv + ["--orders", orders])
    assert code == 3 and report["field"] == "orders" and not report["ok"]


def test_non_positive_orders_in_the_input_are_refused(capsys, tmp_path):
    spec = json.loads((DATA / "product_spec.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"spec": spec, "coeff": {"orders": [0]}}))
    code, report = run(capsys, ["eps-global", "--spec", str(path)])
    assert code == 3 and report["field"] == "orders" and not report["ok"]


def test_json_out_is_opened_before_the_command_runs(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "report.json"
    code, report = run(capsys, ["gauss", "--p", "3", "--q", "3", "--c", "1", "--json-out", str(missing)])
    assert code == 3 and report["field"] == "json-out" and not report["ok"]
    assert "value" not in report
    # an input named as the output is read whole, then replaced by the report
    spec = tmp_path / "spec.json"
    spec.write_text((DATA / "product_spec.json").read_text())
    code = main(["eps-global", "--spec", str(spec), "--json-out", str(spec)])
    assert code == 0
    assert json.loads(spec.read_text()) == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "command, flag, data, path, bad, field",
    [
        ("eps-global", "--spec", "product_spec.json", ("punctures",), 5, "punctures"),
        ("eps-global", "--spec", "product_spec.json", ("punctures", 0, "minpoly"), 3, "minpoly"),
        ("eps-global", "--spec", "product_spec.json", ("wild", "num"), 3, "num"),
        ("product-check", "--omega", "product_omega.json", ("num",), 3, "num"),
        ("eps-local", "--char", "char_quadratic.json", ("char", "wild_h"), 5, "wild_h"),
        ("eps-local", "--char", "char_quadratic.json", ("char", "wild_h", "coeffs"), 5, "coeffs"),
        ("eps-local", "--form", "form_dlog.json", ("field",), 5, "field"),
        ("eps-local", "--form", "form_dlog.json", ("coeffs",), 3, "coeffs"),
        ("eps-local", "--char", "char_quadratic.json", ("char",), 0, "char"),
        ("eps-local", "--char", "char_quadratic.json", ("char",), False, "char"),
        ("eps-local", "--char", "char_quadratic.json", ("char",), "", "char"),
        ("eps-local", "--form", "form_dlog.json", ("prec",), -2, "prec"),
    ],
    ids=[
        "spec-punctures", "point-minpoly", "wild-num", "omega-num", "char-wild_h", "wild_h-coeffs", "form-field",
        "form-coeffs", "char-zero", "char-false", "char-empty-string", "form-prec-below-v",
    ],
)
def test_shape_error_names_its_input(capsys, tmp_path, command, flag, data, path, bad, field):
    # a number where a list or an object belongs was iterated or indexed
    # and failed with a bare TypeError that named no input; a falsy char
    # was first read as a missing one
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_edited(data, path, bad)))
    code, report = run(capsys, [command, flag, str(inp)])
    assert code == 3 and report.get("field") == field and not report["ok"]


@pytest.mark.parametrize("bad", [0, False, "", [], None], ids=["zero", "false", "empty-string", "empty-list", "null"])
@pytest.mark.parametrize(
    "command, flag, data, path, field",
    [
        ("eps-local", "--char", "char_quadratic.json", ("coeff",), "coeff"),
        ("eps-local", "--char", "char_quadratic.json", ("char", "wild_h"), "wild_h"),
        ("eps-local", "--char", "char_quadratic.json", ("char", "field"), "field"),
        ("product-check", "--spec", None, ("coeff",), "coeff"),
        ("induction-check", "--spec", "induction_spec.json", ("coeff",), "coeff"),
    ],
    ids=["char-coeff", "wild_h", "char-field", "spec-wrapper-coeff", "induction-coeff"],
)
def test_falsy_record_is_refused_not_read_as_missing(capsys, tmp_path, command, flag, data, path, field, bad):
    # a falsy record was read as a missing one and took the default: a
    # "coeff": 0 ran under the default coefficient field, a "wild_h": 0
    # made the character tame
    if data is None:
        obj = {"spec": json.loads((DATA / "product_spec.json").read_text()), "coeff": bad}
    else:
        obj = _edited(data, path, bad)
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(obj))
    code, report = run(capsys, [command, flag, str(inp)])
    assert code == 3 and report.get("field") == field and not report["ok"]


BIG_P = 2 ** 61 - 1  # a prime: trial division up to its square root never ends


@pytest.mark.parametrize(
    "command, flag, data, path, bad",
    [
        ("eps-global", "--spec", "product_spec.json", ("n",), 10 ** 9),
        ("eps-local", "--char", "char_quadratic.json", ("char", "field", "n"), 10 ** 9),
        ("eps-local", "--char", "char_quadratic.json", ("char", "field", "p"), BIG_P),
        ("eps-local", "--char", "char_quadratic.json", ("coeff", "p"), BIG_P),
        ("eps-local", "--form", "form_dlog.json", ("field", "n"), 10 ** 9),
        ("eps-local", "--form", "form_dlog.json", ("field", "p"), BIG_P),
        ("twisted-check", "--p", None, None, BIG_P),
    ],
    ids=["spec-n", "char-n", "char-p", "coeff-p", "form-n", "form-p", "twisted-p"],
)
def test_past_the_field_cap_is_refused_before_any_arithmetic(tmp_path, command, flag, data, path, bad):
    # p ** n and trial division up to the square root of p ran until
    # killed; a child process with a timeout keeps the test bounded
    arg = str(bad)
    if data is not None:
        arg = str(tmp_path / "input.json")
        Path(arg).write_text(json.dumps(_edited(data, path, bad)))
    done, report = run_child([command, flag, arg], timeout=5)
    assert done.returncode == 4 and not report["ok"]
    assert "exceeds cap %d" % report["caps"]["field"] in report["error"]


GAUSS = ["gauss", "--p", "3", "--q", "3", "--c", "1"]


@pytest.mark.parametrize(
    "argv, limit",
    [
        (GAUSS + ["--ell", str(BIG_P)], coeff_mod.ELL_CAP),
        (GAUSS + ["--orders", str(10 ** 21 + 1)], coeff_mod.FIELD_CAP - 1),
        (["twisted-check", "--ell", str(BIG_P)], coeff_mod.ELL_CAP),
        (["twisted-check", "--orders", str(10 ** 21 + 1)], coeff_mod.FIELD_CAP - 1),
    ],
    ids=["gauss-ell", "gauss-orders", "twisted-ell", "twisted-orders"],
)
def test_coefficient_prime_past_its_cap_is_refused_before_any_primality_test(argv, limit):
    # a pinned prime of 2^61 - 1, or a character order whose smallest
    # admissible prime is that large, was trial-divided until killed
    done, report = run_child(argv, timeout=5)
    assert done.returncode == 4 and not report["ok"]
    assert str(limit) in report["error"]


def test_coefficient_prime_of_an_in_cap_field_is_not_refused(capsys):
    # the default order q - 1 over F_65537 puts the smallest admissible
    # prime past 2^32; one in-cap character's prime stays under ELL_CAP
    code, report = run(capsys, ["gauss", "--p", "65537", "--q", "65537", "--c", "1"])
    assert code == 0 and report["ok"]
    assert 1 << 32 < report["ell"] < coeff_mod.ELL_CAP
    assert abs(report["complex"]["abs"] ** 2 - 65537) < 1e-3


def test_punctual_factor_under_a_large_coefficient_prime_answers_at_once(tmp_path):
    # ell = 51514444789 and p*M = 12,878,611,197: the report may take no
    # step per root of unity of order p*M
    eigen = 44255210297
    path = tmp_path / "char.json"
    path.write_text(json.dumps({"coeff": {"p": 3, "orders": [65521, 65519]}, "eigenvalues": [eigen]}))
    done, report = run_child(["eps-local", "--kind", "punctual", "--char", str(path)], timeout=20)
    assert done.returncode == 0 and report["ok"] and "complex" not in report
    assert report["ell"] == 51514444789 and report["value"] * eigen % report["ell"] == 1


@pytest.mark.parametrize(
    "flag, data, path, bad, field",
    [
        ("--form", "form_dlog.json", ("v",), -(10 ** 30), "v"),
        ("--form", "form_dlog.json", ("prec",), 10 ** 30, "prec"),
        ("--form", "form_dlog.json", ("v",), -SERIES_CAP - 1, "v"),
        ("--char", "char_quadratic.json", ("char", "wild_h"), {"v": -(10 ** 30), "coeffs": [[1]]}, "v"),
    ],
    ids=["form-v-huge", "form-prec-huge", "form-v-past-the-bound", "wild_h-v-huge"],
)
def test_series_window_past_its_bound_is_refused(capsys, tmp_path, flag, data, path, bad, field):
    # the zero padding of a window with v = -10**30 raised OverflowError
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(_edited(data, path, bad)))
    code, report = run(capsys, ["eps-local", flag, str(inp)])
    assert code == 3 and report["field"] == field and not report["ok"]
    assert str(SERIES_CAP) in report["error"]


def test_series_window_at_its_bound_is_read(capsys, tmp_path):
    inp = tmp_path / "form.json"
    inp.write_text(json.dumps(_edited("form_dlog.json", ("v",), -SERIES_CAP)))
    code, report = run(capsys, ["eps-local", "--form", str(inp)])
    assert code == 0 and report["ok"]
