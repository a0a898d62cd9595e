"""Pinned CLI output: every subcommand on its bundled input prints exactly
the bytes stored under tests/data."""

from importlib import resources
from pathlib import Path

import pytest

from epsilon_lab.cli import main

DATA = resources.files("epsilon_lab").joinpath("data")
GOLDEN = Path(__file__).parent / "data"

CASES = {
    "gauss": ["gauss", "--p", "3", "--q", "3", "--c", "1"],
    "eps_local": ["eps-local"],
    "eps_global": ["eps-global", "--spec", str(DATA / "product_spec.json")],
    "product_check": ["product-check", "--second-ell"],
    # infinity in the domain: it is a closed point of degree 1 like any other
    "product_check_infinity": ["product-check", "--second-ell", "--spec", str(GOLDEN / "infinity_spec.json")],
    "eps_global_infinity": ["eps-global", "--spec", str(GOLDEN / "infinity_spec.json")],
    "induction_check": ["induction-check"],
    "twisted_check": ["twisted-check", "--trials", "3", "--seed", "9"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.delenv("EPSILON_LAB_CAP", raising=False)
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / ("%s.out.json" % name)).read_bytes()
