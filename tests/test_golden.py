"""Pinned CLI output: every subcommand on its bundled input prints exactly
the bytes stored under tests/data."""

import pytest

from epsilon_lab.cli import main
from golden_cases import CASES, GOLDEN


def _pinned(argv, name, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / ("%s.out.json" % name)).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_are_pinned(name, capsys):
    _pinned(CASES[name], name, capsys)


@pytest.mark.parametrize("method", ["tate", "tate_slow"])
@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][0] == "product-check"))
def test_product_check_bytes_do_not_depend_on_the_unit_sum_route(name, method, capsys):
    # the report names no method, so either unit sum prints the same bytes
    _pinned(CASES[name] + ["--method", method], name, capsys)
