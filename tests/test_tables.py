"""The table engine against the polynomial arithmetic of FqElem: LogField's
exp/log/Zech/trace tables, the amount of FqElem work a table build may
do, and one build per field."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import epsilon_lab
from epsilon_lab import gf
from epsilon_lab.gf import FieldDesc, LogField, fq_build, residue_field, trace


def _oracle_fields():
    f9 = fq_build(3, 2)
    # x is not primitive in F_9 (x^2 = -1), so the walk by x needs cosets
    assert f9.elem([0, 1]) ** 4 == f9.one()
    big, _emb = residue_field(fq_build(3, 1), 4)
    over_f4, _emb = residue_field(fq_build(2, 2), 3)
    # F_64 again, as a tower over F_4: its own id keeps fq_build(2, 6)'s
    over_f4 = pytest.param(over_f4, id="FieldDesc(p=2, n=6) over F_4")
    return [fq_build(2, 1), fq_build(7, 1), f9, fq_build(2, 6), fq_build(5, 3), big, over_f4]


@pytest.mark.parametrize("field", _oracle_fields(), ids=repr)
def test_log_field_tables_match_elem_arithmetic(field):
    lf = LogField(field)
    g = field.gen()
    cur = field.one()
    for e in range(field.q - 1):
        assert lf.exp[e] == cur.index()
        assert lf.log[cur.index()] == e
        succ = cur + 1
        assert lf.zech[e] == (-1 if succ.is_zero() else lf.log[succ.index()])
        cur = cur * g
    assert cur == field.one() and lf.log[0] == -1
    assert len(lf.trace) == field.q - 1
    for e in range(field.q - 1):
        assert lf.trace[e] == trace(field.from_index(lf.exp[e]))


@pytest.mark.parametrize("field", _oracle_fields() + [fq_build(3, 7)], ids=repr)
def test_table_build_folds_no_frobenius_orbit(monkeypatch, field):
    # the trace table comes from the reduction rows, not from the fold
    # that audits it
    def refuse(*args):
        raise AssertionError("a table build folded a Frobenius orbit")

    monkeypatch.setattr(gf, "trace", refuse)
    monkeypatch.setattr(gf, "frobenius", refuse)
    LogField(field)


@pytest.mark.parametrize(
    "p, n, modulus, generator",
    [
        (3, 2, (1, 0, 1), (0, 1)),  # x has order 4 in F_9
        (3, 2, (1, 0, 1), (1, 0)),  # 1
        (3, 2, (1, 0, 1), (0, 0)),  # 0
        (7, 1, (0, 1), (2,)),  # 2 has order 3 mod 7
        (3, 1, (0, 1), (0,)),
        (2, 4, (1, 1, 0, 0, 1), (1, 1, 1, 1)),  # order 5 in F_16
    ],
)
def test_generator_without_full_order_is_refused(p, n, modulus, generator):
    with pytest.raises(ValueError, match="full order"):
        LogField(FieldDesc(p, n, modulus, generator))


@pytest.mark.parametrize("p, n", [(3, 10), (2, 16)])
def test_table_build_makes_few_elem_products(monkeypatch, p, n):
    f = fq_build(p, n)
    calls = []
    plain = gf.FqElem.__mul__

    def counting(self, other):
        calls.append(1)
        return plain(self, other)

    # only _exp_table's coset leaders, one per coset of the powers of x
    order = f.q - 1
    for r in gf._prime_factors(order):
        while order % r == 0 and f.elem([0, 1]) ** (order // r) == f.one():
            order //= r
    monkeypatch.setattr(gf.FqElem, "__mul__", counting)
    LogField(f)
    assert len(calls) == (f.q - 1) // order


_COUNT_BUILDS = textwrap.dedent(
    """
    import contextlib, io, json
    from epsilon_lab import cli, gf

    builds = {}
    plain = gf.LogField.__init__

    def counting(self, field):
        key = json.dumps(field.to_json())
        builds[key] = builds.get(key, 0) + 1
        plain(self, field)

    gf.LogField.__init__ = counting
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["product-check", "--second-ell"])
    print(json.dumps({"code": code, "builds": builds}))
    """
)


def test_each_field_table_is_built_once():
    """product_formula_check on the bundled spec, twice (two coefficient
    primes), in a fresh interpreter so that no earlier test has filled a
    cache: every field's LogField is built exactly once."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(epsilon_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_BUILDS], env=env, capture_output=True, text=True, check=True
    ).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["code"] == 0
    builds = [(json.loads(k), n) for k, n in got["builds"].items()]
    assert any(f["p"] == 3 and f["n"] == 1 for f, _n in builds)
    assert [(f, n) for f, n in builds if n != 1] == []
