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
    # over F_9, whose modulus has no root 0, with a puncture of degree 2:
    # the embeddings scan for a root, and a point has a residue field of its own
    "product_check_f9": ["product-check", "--second-ell", "--spec", str(GOLDEN / "f9_spec.json")],
    "eps_global_f9": ["eps-global", "--spec", str(GOLDEN / "f9_spec.json")],
    "induction_check": ["induction-check"],
    "twisted_check": ["twisted-check", "--trials", "3", "--seed", "9"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_are_pinned(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / ("%s.out.json" % name)).read_bytes()
