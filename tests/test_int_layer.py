"""The polynomial layer on packed indices against FqElem.

Poly and LaurentSeries hold packed indices and compute through
gf.int_ops.  Here each kernel (division with remainder, factoring, the
expansion at a point, series products and quotients) is checked against a
schoolbook reference written on FqElem coefficient lists.  Further tests
pin which engine runs: none of these kernels multiplies FqElems once its
field has a table, no warm local engine or product check builds one, and
a field past the table line never gets a table.
"""

import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epsilon_lab import gf
from epsilon_lab.chars import LocalCharacter
from epsilon_lab.coeff import coeff_setup
from epsilon_lab.curve import SheafSpec, product_formula_check
from epsilon_lab.epsilon import eps_local
from epsilon_lab.gf import fq_build
from epsilon_lab.localfield import (
    Form,
    LaurentSeries,
    Point,
    Poly,
    RationalFunction,
    expand_at,
    factor_poly,
)
import polys
from polys import monic_irreducibles
from uniformizer import same

FIELDS = [fq_build(3, 1), fq_build(2, 2), fq_build(3, 2), fq_build(5, 2)]


# ---------------------------------------------------------------------------
# the FqElem reference, coefficient lists low degree first


def elems(field, ks):
    return [field.from_index(k) for k in ks]


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_mul(a, b):
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def ref_divmod(a, b):
    a, b = trim(a), trim(b)
    zero = b[-1].field.zero()
    rem = list(a)
    quo = [zero] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    for k in range(len(a) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv
        quo[k] = c
        for i, y in enumerate(b):
            rem[i + k] = rem[i + k] + (-(c * y))
    return trim(quo), trim(rem[: len(b) - 1])


def ref_quotient(a, b, n):
    """n coefficients of a / b for b[0] != 0: out[k] = (a[k] - sum over
    j >= 1 of b[j] out[k - j]) / b[0]."""
    zero = b[0].field.zero()
    a = list(a) + [zero] * n
    b = list(b) + [zero] * n
    out = []
    for k in range(n):
        acc = a[k]
        for j in range(1, k + 1):
            acc = acc + (-(b[j] * out[k - j]))
        out.append(acc / b[0])
    return out


def ref_shift(coeffs, alpha):
    """The coefficients of f(alpha + pi), by Horner on polynomials in pi."""
    acc = [alpha.field.zero()]
    for c in reversed(coeffs):
        acc = ref_mul(acc, [alpha, alpha.field.one()])
        acc[0] = acc[0] + c
    return acc


def ref_expansion(num, den, point, n):
    """(valuation, n coefficients past it) of num/den at the point."""
    big, emb, alpha = point.residue_data()
    parts = []
    for f in (num, den):
        cs = elems(f.field, f.coeffs)
        if point.at_infinity:
            # t = 1/pi: f(1/pi) = pi**-deg times the reversed coefficients
            parts.append((-(len(cs) - 1), cs[::-1]))
        else:
            shifted = ref_shift([emb.embed(c) for c in cs], big.from_index(alpha))
            v = next(i for i, c in enumerate(shifted) if not c.is_zero())
            parts.append((v, shifted[v:]))
    (va, a), (vb, b) = parts
    return va - vb, ref_quotient(a, b, n)


def indices(field, min_size=0, max_size=6):
    return st.lists(st.integers(0, field.q - 1), min_size=min_size, max_size=max_size)


def nonzero_poly(data, field, max_size=6):
    ks = data.draw(indices(field, 1, max_size).filter(any))
    return Poly.of(field, ks)


# ---------------------------------------------------------------------------
# paired: each kernel against the reference


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divmod_matches_the_schoolbook_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a = Poly.of(field, data.draw(indices(field, 0, 9)))
    b = nonzero_poly(data, field, 5)
    quo, rem = a.divmod(b)
    want_quo, want_rem = ref_divmod(elems(field, a.coeffs), elems(field, b.coeffs))
    assert elems(field, quo.coeffs) == want_quo
    assert elems(field, rem.coeffs) == want_rem


def _roots(f):
    field = f.field
    return [x for x in map(field.from_index, range(field.q)) if f.evaluate(x).is_zero()]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_factor_poly_matches_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    f = nonzero_poly(data, field, 6)
    factors = factor_poly(f)
    # the factors times their multiplicities and the leading coefficient
    # give f back
    prod = [field.from_index(f.coeffs[-1])]
    for g, m in factors:
        for _ in range(m):
            prod = ref_mul(prod, elems(field, g.coeffs))
    assert trim(prod) == elems(field, f.coeffs)
    degrees = [g.degree() for g, _m in factors]
    assert degrees == sorted(degrees) and len(set(factors)) == len(factors)
    for g, _m in factors:
        assert g.coeffs[-1] == 1
        # at degree <= 3, irreducible means no root in the field
        if g.degree() <= 3:
            assert g.degree() == 1 or not _roots(g)


def _point(data, field):
    d = data.draw(st.sampled_from([0, 1, 2, 3]))
    if d == 0:
        return Point.infinity(field)
    # an irreducible of degree <= 3 is one with no root in the field
    ks = data.draw(st.lists(st.integers(0, field.q - 1), min_size=d, max_size=d))
    f = Poly.of(field, ks + [1])
    if d > 1 and _roots(f):
        return Point.rational(field, field.from_index(ks[0]))
    return Point(field, f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_expand_at_matches_the_reference_taylor_shift(data):
    field = data.draw(st.sampled_from(FIELDS))
    point = _point(data, field)
    num = nonzero_poly(data, field)
    den = nonzero_poly(data, field)
    n = data.draw(st.integers(1, 5))
    big, emb, alpha = point.residue_data()
    if not point.at_infinity:
        # the root the int scan found is a root
        assert point.minpoly.evaluate(big.from_index(alpha), emb).is_zero()
    got = expand_at(RationalFunction(num, den), point, n)
    v, want = ref_expansion(num, den, point, n)
    assert (got.v, got.prec) == (v, v + n)
    assert [got.coeff(k) for k in range(v, v + n)] == want


def series(data, field):
    v = data.draw(st.integers(-3, 3))
    ks = data.draw(indices(field, 1, 7))
    return LaurentSeries.of(field, v, ks, v + len(ks))


def window(s):
    return [s.coeff(k) for k in range(s.v, s.prec)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_series_product_and_quotient_match_the_reference(data):
    field = data.draw(st.sampled_from(FIELDS))
    a, b = series(data, field), series(data, field)
    if not a.coeffs or not b.coeffs:
        return
    prod = a * b
    prec = min(a.v + b.prec, b.v + a.prec)
    full = ref_mul(window(a), window(b))[: prec - a.v - b.v]
    want = LaurentSeries.make(field, a.v + b.v, full, prec)
    assert (prod.v, prod.prec) == (want.v, want.prec) and window(prod) == window(want)
    quo = a / b
    n = min(a.prec - a.v, b.prec - b.v)
    assert (quo.v, quo.prec) == (a.v - b.v, a.v - b.v + n)
    assert [quo.coeff(k) for k in range(quo.v, quo.prec)] == ref_quotient(window(a), window(b), n)


# ---------------------------------------------------------------------------
# the engine that runs


def test_tabled_field_kernels_make_no_element_product(monkeypatch):
    field = fq_build(3, 2)
    x = polys.x(field)
    quad = monic_irreducibles(field, 2)[-1]
    f = quad * quad * (x + 2) * (x * x * x + x + field.gen()) * (x + 1)
    r = RationalFunction(f, x * x * x + 2 * x + 1)

    def run():
        factors = factor_poly(f)
        pts = [Point(field, quad), Point.rational(field, 1), Point.infinity(field)]
        return factors, [expand_at(r, pt, 6) for pt in pts]

    warm = run()
    calls = []
    original = gf.FqElem.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(gf.FqElem, "__mul__", counted)
    monkeypatch.setattr(gf.FqElem, "__rmul__", counted)
    factors, expansions = run()
    assert factors == warm[0] and all(map(same, expansions, warm[1]))
    assert not calls


def test_warm_engines_build_no_field_element(monkeypatch):
    # inside the engines an F_q value is a packed index or a log: once the
    # tables are warm, no local engine and no product check on a freshly
    # read spec builds an FqElem
    f9, f7, f3 = fq_build(3, 2), fq_build(7, 1), fq_build(3, 1)
    c9, c7, c3 = coeff_setup(3, [8]), coeff_setup(7, [6]), coeff_setup(3, [2])
    # tame exponent 3 and swan 2: the closed form reads a log and a Gauss constant
    wild = LocalCharacter(f9, c9, 5, 3, LaurentSeries.of(f9, -2, [4, 7], 1))
    form9 = Form(LaurentSeries.of(f9, -1, [2, 0, 5, 1], 3))
    cases = [(wild, form9, method) for method in ("auto", "closed", "tate")]
    cases.append((LocalCharacter(f7, c7, 3, 2), Form(LaurentSeries.of(f7, 0, [3, 1], 2)), "auto"))
    cases.append((LocalCharacter(f3, c3, 2, 0), Form(LaurentSeries.of(f3, 1, [1], 2)), "auto"))
    data = resources.files("epsilon_lab").joinpath("data")

    def bundled():
        spec = SheafSpec.from_json(json.loads((data / "product_spec.json").read_text()))
        return spec, RationalFunction.from_json(spec.base, json.loads((data / "product_omega.json").read_text()))

    warm = [eps_local(chi, form, "shriek", method) for chi, form, method in cases]
    spec, omega = bundled()
    report = product_formula_check(spec, c3, omega)
    spec, omega = bundled()

    def refused(self, field, coeffs):
        raise AssertionError("an FqElem was built")

    monkeypatch.setattr(gf.FqElem, "__init__", refused)
    assert [eps_local(chi, form, "shriek", method) for chi, form, method in cases] == warm
    assert [res.method for res in warm] == ["closed_form", "closed_form", "tate", "tate", "unramified"]
    assert product_formula_check(spec, c3, omega) == report and report["ok"]


def test_warm_tower_builds_no_field_element(monkeypatch):
    # a point of degree 2 crosses the tower F_q in F_(q^2): each coefficient
    # is a read of the embedding's table of images and the root scan starts
    # from the generator's digits, so with the tables warm a product check
    # on a freshly read spec builds no FqElem.  f9_spec.json as it stands
    # (wild t^3) keeps the single-element Frobenius of as_reduce
    f9 = json.loads((Path(__file__).parent / "data" / "f9_spec.json").read_text())
    f9["wild"] = {"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}
    quad = {"num": [1, 0, 1], "den": [1]}
    f3 = {"p": 3, "n": 1, "wild": {"num": [0, 1], "den": [1]}, "kummer": [[quad, 1]]}
    f3["punctures"] = [{"type": "finite", "minpoly": [1, 0, 1]}, {"type": "infinity"}]
    omega = json.loads(resources.files("epsilon_lab").joinpath("data", "product_omega.json").read_text())
    cases = [(f9, coeff_setup(3, [8, 80])), (f3, coeff_setup(3, [2, 8]))]

    def read(obj, coeff):
        spec = SheafSpec.from_json(obj)
        return spec, coeff, RationalFunction.from_json(spec.base, omega)

    reports = [product_formula_check(*read(*case)) for case in cases]
    fresh = [read(*case) for case in cases]

    def refused(self, field, coeffs):
        raise AssertionError("an FqElem was built")

    monkeypatch.setattr(gf.FqElem, "__init__", refused)
    for args, report in zip(fresh, reports):
        assert max(pt.degree() for pt in args[0].punctures) == 2
        assert product_formula_check(*args) == report and report["ok"]


def test_no_table_past_the_line():
    # a wild character with tame exponent 0 over F_(2^17): the closed form
    # divides and multiplies series through FqElem and builds no table
    field = fq_build(2, 17)
    assert field.q > gf.TABLE_LINE
    coeff = coeff_setup(2, [field.q - 1])
    h = LaurentSeries.of(field, -3, [5, 0, 7], 1)
    chi = LocalCharacter(field, coeff, 1, 0, h)
    form = Form(LaurentSeries.of(field, 0, [3, 1, 4, 1, 5], 5))
    res = eps_local(chi, form, "shriek", method="closed")
    assert (res.method, res.conductor_a, res.conductor_a_omega) == ("closed_form", 4, 4)
    assert field not in gf._TABLE_CACHE


def test_int_ops_reads_the_tables_the_cache_holds(monkeypatch):
    # the table kernels live with the LogField: after a reset of the table
    # cache the next int_ops builds the tables once and computes on them
    field = fq_build(3, 2)
    gf.int_ops(field)
    built = []
    init = gf.LogField.__init__

    def recorded(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(gf, "_TABLE_CACHE", {})
    monkeypatch.setattr(gf.LogField, "__init__", recorded)
    ops = gf.int_ops(field)
    assert built == [field]
    logs = gf.log_field(field)
    assert built == [field] and ops.mul(1, 1) == 1
    # a product is read off the lists log_field returns (this LogField is
    # dropped with the patched cache)
    logs.exp[0] = 5
    assert ops.mul(1, 1) == 5


@pytest.mark.parametrize("field", FIELDS)
def test_int_ops_agree_with_elements(field):
    # the two routes of int_ops: on the tables and through FqElem
    tabled, plain = gf.int_ops(field), gf.IntOps(field)
    ks = range(field.q)
    for a in ks:
        assert tabled.neg(a) == plain.neg(a) and tabled.trace(a) == plain.trace(a)
        if a:
            assert tabled.inv(a) == plain.inv(a)
        for b in ks:
            assert tabled.add(a, b) == plain.add(a, b) == (field.from_index(a) + field.from_index(b)).index()
            assert tabled.mul(a, b) == plain.mul(a, b)
            assert tabled.fma(a, b, (a + b) % field.q) == plain.fma(a, b, (a + b) % field.q)
