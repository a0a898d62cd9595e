"""Laurent series, forms, rational functions and expansions at points."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from epsilon_lab import gf
from epsilon_lab.coeff import coeff_setup
from epsilon_lab.gf import fq_build, frobenius, norm, trace
from epsilon_lab.localfield import (
    LaurentSeries,
    Point,
    Poly,
    PrecisionError,
    RationalFunction,
    dlog,
    expand_at,
    expand_form_at,
    factor_poly,
    poly_is_irreducible,
    residue,
)
import polys
from polys import monic_irreducibles
from uniformizer import add, compose, reversion, same

F3 = fq_build(3, 1)
F5 = fq_build(5, 1)
F9 = fq_build(3, 2)
F4 = fq_build(2, 2)

SMALL_FIELDS = [fq_build(2, 1), F3, F4, F9, F5]


def random_series(rng, field, vmin=-3, vmax=3, width=6, unit=False):
    v = 0 if unit else rng.randrange(vmin, vmax + 1)
    coeffs = [rng.randrange(field.q) for _ in range(width)]
    coeffs[0] = rng.randrange(1, field.q)
    return LaurentSeries.make(field, v, [field.from_index(c) for c in coeffs], v + width)


# ---------------------------------------------------------------------------
# series arithmetic


def test_make_trims_and_pads():
    s = LaurentSeries.make(F3, -2, [0, 0, 1, 2], 4)
    assert s.v == 0 and s.prec == 4
    assert s.coeffs == (1, 2, 0, 0)


def test_a_window_ending_before_v_holds_no_coefficient():
    # of once sliced the coefficients from the end and kept some past prec
    for prec in (3, 5):
        s = LaurentSeries.of(F3, 5, [1, 0, 0, 0], prec)
        assert not s.coeffs and s.v == s.prec == prec
        assert same(s, LaurentSeries.zero(F3, prec))
    record = {"field": F3.to_json(), "v": 0, "prec": 2, "coeffs": [[1], [2]]}
    with pytest.raises(gf.Unsupported) as err:
        LaurentSeries.from_json(dict(record, v=5, prec=3))
    assert err.value.field == "prec"
    # a window that ends at v is the zero series to that precision
    assert same(LaurentSeries.from_json(dict(record, v=3, prec=3)), LaurentSeries.zero(F3, 3))


def test_simple_product():
    one_plus = LaurentSeries.make(F3, 0, [1, 1], 5)
    one_minus = LaurentSeries.make(F3, 0, [1, 2], 5)
    prod = one_plus * one_minus
    assert same(prod, LaurentSeries.make(F3, 0, [1, 0, 2], 5))


def test_precision_rules():
    a = LaurentSeries.make(F3, 1, [1, 1], 6)
    b = LaurentSeries.make(F3, -1, [2], 2)
    assert add(a, b).prec == 2
    assert (a * b).prec == min(1 + 2, -1 + 6)


def test_inverse_roundtrip():
    rng = random.Random(7)
    for field in SMALL_FIELDS:
        for _ in range(10):
            u = random_series(rng, field)
            prod = u * u.inverse()
            for k in range(prod.v, prod.prec):
                want = 1 if k == 0 else 0
                assert prod.coeff(k) == field.elem(want)


def test_division_window_and_roundtrip():
    # the window of a * b.inverse(): b**-1 is known on [-v(b), prec(b) - 2 v(b))
    rng = random.Random(16)
    for field in SMALL_FIELDS:
        for _ in range(40):
            a = random_series(rng, field, width=rng.randrange(1, 8))
            b = random_series(rng, field, width=rng.randrange(1, 8))
            # sparse divisors too: the division loops over the nonzero terms
            b = LaurentSeries.of(field, b.v, [c if j == 0 or rng.random() < 0.5 else 0 for j, c in enumerate(b.coeffs)], b.prec)
            got = a / b
            assert (got.v, got.prec) == (a.v - b.v, min(a.v + b.prec - 2 * b.v, a.prec - b.v))
            back = got * b
            assert same(back, a) and back.prec - back.v >= min(a.prec - a.v, b.prec - b.v)
            inv = b.inverse()
            assert (inv.v, inv.prec) == (-b.v, b.prec - 2 * b.v)
            zero = LaurentSeries.zero(field, a.prec) / b
            assert not zero.coeffs and zero.prec == a.prec - b.v


def test_division_by_zero_to_precision_raises():
    a = LaurentSeries.make(F5, 0, [1, 2], 4)
    for z in (LaurentSeries.zero(F5, 3), LaurentSeries.make(F5, 0, [0, 0, 0], 3)):
        with pytest.raises(ZeroDivisionError):
            a / z
        with pytest.raises(ZeroDivisionError):
            z.inverse()


def test_coeff_window_guard():
    s = LaurentSeries.make(F3, 0, [1], 3)
    assert s.coeff(-5).is_zero()
    with pytest.raises(PrecisionError):
        s.coeff(3)
    z = LaurentSeries.zero(F3, 2)
    with pytest.raises(PrecisionError):
        z.valuation()


def test_equal_series_are_unhashable():
    # equal on the common window, which a hash of the stored window cannot
    # respect, so a series has no hash at all
    a = LaurentSeries.make(F3, 0, [1], 2)
    b = LaurentSeries.make(F3, 0, [1, 0, 1], 3)
    assert same(a, b)
    with pytest.raises(TypeError):
        {a, b}


@pytest.mark.parametrize("field", [F3, coeff_setup(3, [8])], ids=["FqElem", "CoeffElem"])
def test_elements_equal_to_ints_are_unhashable(field):
    # an FqElem equals the int that names it, and no hash of the element
    # can equal the int's for every field, so an element has no hash at
    # all; a CoeffElem equals no int, and has no hash either
    one = field.elem(1)
    assert (one == 1) is (field is F3)
    with pytest.raises(TypeError):
        {one}


def test_json_roundtrip():
    s = LaurentSeries.make(F9, -1, [F9.elem((1, 2)), F9.one()], 4)
    back = LaurentSeries.from_json({"field": F9.to_json(), "v": -1, "prec": 4, "coeffs": [[1, 2], [1]]})
    assert same(back, s) and back.v == s.v and back.prec == s.prec


# ---------------------------------------------------------------------------
# derivatives, residues, dlog


def test_residue_exact_rules():
    w = LaurentSeries.make(F3, -2, [1, 2, 1], 2)
    assert residue(w) == F3.elem(2)
    assert residue(LaurentSeries.make(F3, 0, [1], 1)).is_zero()
    with pytest.raises(PrecisionError):
        residue(LaurentSeries.make(F3, -4, [1], -2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(SMALL_FIELDS) - 1), st.integers(0, 2 ** 30), st.integers(-4, 4))
def test_dlog_residue_is_valuation(fi, seed, m):
    field = SMALL_FIELDS[fi]
    rng = random.Random(seed)
    u = random_series(rng, field, unit=True).shift(m)
    assert residue(dlog(u)) == field.elem(m)
    assert residue(u.derivative()).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(SMALL_FIELDS) - 1), st.integers(0, 2 ** 30))
def test_derivative_leibniz(fi, seed):
    field = SMALL_FIELDS[fi]
    rng = random.Random(seed)
    f = random_series(rng, field)
    g = random_series(rng, field)
    assert same((f * g).derivative(), add(f.derivative() * g, f * g.derivative()))


def test_dlog_multiplicative():
    rng = random.Random(11)
    for field in (F3, F4):
        u = random_series(rng, field, unit=True)
        w = random_series(rng, field, unit=True)
        lhs = dlog(u * w)
        rhs = add(dlog(u), dlog(w))
        assert same(lhs, rhs)


# ---------------------------------------------------------------------------
# composition and reversion


def test_compose_hand_value():
    s = LaurentSeries.make(F5, 1, [1, 1], 6)
    ss = compose(s, s)
    assert ss.coeff(1) == F5.elem(1)
    assert ss.coeff(2) == F5.elem(2)
    assert ss.coeff(3) == F5.elem(2)
    assert ss.coeff(4) == F5.elem(1)


def test_reversion_inverts():
    rng = random.Random(3)
    for field in SMALL_FIELDS:
        for _ in range(6):
            u = random_series(rng, field, unit=True, width=7)
            s = u.shift(1)
            t = reversion(s)
            back = compose(s, t)
            for k in range(1, min(back.prec, 6)):
                want = field.one() if k == 1 else field.zero()
                assert back.coeff(k) == want


def test_reversion_needs_valuation_one():
    with pytest.raises(ValueError):
        reversion(LaurentSeries.make(F3, 2, [1], 5))


# ---------------------------------------------------------------------------
# tame norms


def norm_tame(u, e=1, emb=None):
    """Norm of u along a tame extension of local fields.

    e > 1: totally tame Kummer layer pi = pi'**e (u lives in the pi'
    variable, the result in pi); requires gcd(e, p) = 1 and the e-th roots
    of unity in the coefficient field.  emb: unramified layer given by a
    TowerEmbedding, Galois orbit product under the coefficientwise
    Frobenius, coefficients descend along emb.  Both together compose the
    two layers (Kummer first).  Wild requests raise ValueError.
    """
    out = u
    if e > 1:
        field = out.field
        if e % field.p == 0:
            raise ValueError("wildly ramified extensions are not supported")
        if (field.q - 1) % e != 0:
            raise ValueError("need the %d-th roots of unity in F_%d" % (e, field.q))
        zeta = out.field.gen() ** ((field.q - 1) // e)
        acc = None
        for i in range(e):
            z = zeta ** i
            twisted = LaurentSeries.make(
                field,
                out.v,
                [out.coeff(k) * (z ** (k % (field.q - 1))) for k in range(out.v, out.prec)],
                out.prec,
            )
            acc = twisted if acc is None else acc * twisted
        # the product is invariant under pi' -> zeta pi', so only exponents
        # divisible by e survive
        coeffs = []
        if acc.coeffs:
            if acc.v % e:
                raise ValueError("Kummer norm produced a stray valuation, broken invariant")
            for k in range(acc.v, acc.prec):
                c = acc.coeff(k)
                if k % e == 0:
                    coeffs.append(c)
                elif not c.is_zero():
                    raise ValueError("Kummer norm left a non invariant term, broken invariant")
            out = LaurentSeries.make(field, acc.v // e, coeffs, acc.v // e + len(coeffs))
        else:
            out = LaurentSeries.zero(field, acc.prec // e)
    if emb is not None:
        big, small = emb.big, emb.small
        if out.field != big:
            raise ValueError("series does not live in the big field of emb")
        d = big.n // small.n
        acc = out
        cur = out
        for _ in range(d - 1):
            cur = LaurentSeries.make(big, cur.v, [frobenius(cur.coeff(k), small.n) for k in range(cur.v, cur.prec)], cur.prec)
            acc = acc * cur
        out = LaurentSeries.make(small, acc.v, [emb.section(acc.coeff(k)) for k in range(acc.v, acc.prec)], acc.prec)
    return out


def test_kummer_norm_of_uniformizer_is_minus_pi():
    u = LaurentSeries.make(F3, 1, [1], 5)
    n = norm_tame(u, e=2)
    assert same(n, LaurentSeries.make(F3, 1, [-1], 3))


def test_kummer_norm_of_constant():
    c = F5.elem(3)
    u = LaurentSeries.make(F5, 0, [c], 4)
    n = norm_tame(u, e=4)
    assert n.coeff(0) == c ** 4


def test_kummer_norm_multiplicative():
    rng = random.Random(19)
    for field, e in ((F3, 2), (F5, 4), (F9, 8), (F4, 3)):
        a = random_series(rng, field, width=8)
        b = random_series(rng, field, width=8)
        lhs = norm_tame(a * b, e=e)
        rhs = norm_tame(a, e=e) * norm_tame(b, e=e)
        assert same(lhs, rhs)


def test_kummer_norm_wild_refused():
    u = LaurentSeries.make(F3, 1, [1], 5)
    with pytest.raises(ValueError):
        norm_tame(u, e=3)
    with pytest.raises(ValueError):
        norm_tame(LaurentSeries.make(F4, 1, [1], 5), e=4)


def test_unramified_norm():
    from epsilon_lab.gf import find_embedding

    emb = find_embedding(F3, F9)
    c = F9.gen()
    u = LaurentSeries.make(F9, 0, [c], 4)
    n = norm_tame(u, emb=emb)
    assert n.field == F3
    assert n.coeff(0) == norm(c, emb)
    pi = LaurentSeries.make(F9, 1, [1], 5)
    assert same(norm_tame(pi, emb=emb), LaurentSeries.make(F3, 2, [1], 6))


def test_unramified_norm_multiplicative():
    from epsilon_lab.gf import find_embedding

    emb = find_embedding(F3, F9)
    rng = random.Random(23)
    a = random_series(rng, F9, width=6)
    b = random_series(rng, F9, width=6)
    assert same(norm_tame(a * b, emb=emb), norm_tame(a, emb=emb) * norm_tame(b, emb=emb))


# ---------------------------------------------------------------------------
# polynomials


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(SMALL_FIELDS) - 1),
    st.lists(st.integers(0, 24), min_size=0, max_size=6),
    st.lists(st.integers(0, 24), min_size=1, max_size=4),
)
def test_poly_divmod_property(fi, acoeffs, bcoeffs):
    field = SMALL_FIELDS[fi]
    a = Poly(field, [field.from_index(c % field.q) for c in acoeffs])
    b = Poly(field, [field.from_index(c % field.q) for c in bcoeffs])
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree() < b.degree()


def test_poly_gcd_and_multiplicity():
    x = polys.x(F3)
    f = (x - 1) * (x - 1) * (x + 1)
    g = (x - 1) * x
    assert f.gcd(g) == (x - 1)
    # multiplicities are orders at rational points
    assert expand_at(RationalFunction.from_poly(f), Point.rational(F3, 1), 1).v == 2
    assert expand_at(RationalFunction.from_poly(f), Point.rational(F3, 0), 1).v == 0


def test_poly_evaluate():
    x = polys.x(F5)
    f = x * x + 2 * x + 3
    for a in map(F5.from_index, range(F5.q)):
        assert f.evaluate(a) == a * a + F5.elem(2) * a + F5.elem(3)


def _mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _scan(field, d):
    """Every monic polynomial of degree d over field, constant coefficient
    scanning fastest."""
    q = field.q
    for k in range(q ** d):
        yield Poly(field, [field.from_index(k // q ** i % q) for i in range(d)] + [field.one()])


def test_irreducibility_and_counts():
    x = polys.x(F3)
    assert poly_is_irreducible(x * x + 1)
    assert not poly_is_irreducible(x * x - 1)
    assert len(monic_irreducibles(F3, 2)) == 3
    assert len(monic_irreducibles(F3, 3)) == 8
    assert len(monic_irreducibles(F4, 2)) == 6
    # the int-list route of fq_build and the Poly route agree everywhere
    for field, top in ((fq_build(2, 1), 8), (F3, 5), (F5, 3)):
        for d in range(1, top + 1):
            for f in _scan(field, d):
                ints = list(f.coeffs)
                assert gf._is_irreducible(ints, field.p) == poly_is_irreducible(f), ints
    # Gauss's count of monic irreducibles of degree d over F_q
    for field, top in ((fq_build(2, 1), 8), (F3, 5), (F5, 3), (F4, 3), (F9, 3)):
        for d in range(1, top + 1):
            q = field.q
            count = sum(_mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
            assert len(monic_irreducibles(field, d)) == count, (q, d)


@pytest.mark.parametrize("p,top", [(2, 15), (3, 10), (5, 7)])
def test_fq_build_modulus_is_first_irreducible_in_scan(p, top):
    """The modulus of F_{p^n} is the first candidate of the scan that
    factor_poly leaves whole, for every degree the cold CLI ops build."""
    prime = fq_build(p, 1)
    for n in range(1, top + 1):
        first = next(f for f in _scan(prime, n) if factor_poly(f) == [(f, 1)])
        assert fq_build(p, n).modulus == first.coeffs, (p, n)


def test_factor_roundtrip():
    rng = random.Random(5)
    for field in (F3, F4, F5):
        for _ in range(8):
            parts = []
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 3)
                parts.append(
                    (rng.choice(monic_irreducibles(field, d)), rng.randrange(1, 3))
                )
            f = Poly(field, [field.from_index(rng.randrange(1, field.q))])
            for p, m in parts:
                for _ in range(m):
                    f = f * p
            factors = factor_poly(f)
            rebuilt = Poly(field, [field.from_index(f.coeffs[-1])])
            for p, m in factors:
                assert poly_is_irreducible(p)
                for _ in range(m):
                    rebuilt = rebuilt * p
            assert rebuilt == f


def test_factoring_a_monic_product_takes_no_power(monkeypatch):
    # every divisor is monic, so no inverse costs an exponentiation
    f = Poly(F9, [F9.one()])
    for d in (1, 2, 3):
        for g in monic_irreducibles(F9, d)[:2]:
            f = f * g
    calls = []
    power = gf.FqElem.__pow__

    def counted(self, e):
        calls.append(e)
        return power(self, e)

    monkeypatch.setattr(gf.FqElem, "__pow__", counted)
    factors = factor_poly(f)
    assert sum(m * g.degree() for g, m in factors) == 12
    assert calls == []


# ---------------------------------------------------------------------------
# rational functions


def test_rational_reduction():
    x = polys.x(F3)
    r = RationalFunction((x * x - 1) * 2, (x - 1) * 2)
    assert r.num == x + 1 and r.den.degree() == 0
    assert r.den.field.from_index(r.den.coeffs[-1]) == F3.one()


def test_equal_rational_functions_hash_alike():
    # num/den is reduced and den monic, so unreduced inputs meet in one key
    x = polys.x(F3)
    r = RationalFunction((x * x - 1) * 2, (x - 1) * 2)
    s = RationalFunction((x * x + 2 * x + 1) * (x + 2), (x + 1) * (x - 1))
    assert r == s and hash(r) == hash(s)
    assert {r: 1}[s] == 1
    assert hash(RationalFunction(x * 2, x * x * 2)) == hash(RationalFunction(Poly(F3, [1]), x))


def test_rational_evaluate():
    x = polys.x(F5)
    r = RationalFunction(x * x + 1, x - 1)
    a = F5.elem(2)
    assert r.evaluate(a) == (a * a + F5.one()) / (a + (-F5.one()))
    with pytest.raises(ZeroDivisionError):
        r.evaluate(F5.one())


def test_rational_derivative_matches_series():
    rng = random.Random(13)
    x = polys.x(F3)
    for _ in range(6):
        num = Poly(F3, [F3.from_index(rng.randrange(3)) for _ in range(4)])
        den = (x - 2) * (x * x + 1)
        if num.is_zero():
            continue
        r = RationalFunction(num, den)
        pt = Point.rational(F3, 0)
        lhs = expand_at(r.derivative(), pt, 4)
        rhs = expand_at(r, pt, 5).derivative()
        assert same(lhs, rhs)


# ---------------------------------------------------------------------------
# points and expansion


def test_expand_geometric_series():
    x = polys.x(F3)
    r = RationalFunction(Poly(F3, [1]), Poly(F3, [1]) - x)
    s = expand_at(r, Point.rational(F3, 0), 5)
    assert same(s, LaurentSeries.make(F3, 0, [1, 1, 1, 1, 1], 5))


def test_expand_at_infinity():
    x = polys.x(F3)
    inf = Point.infinity(F3)
    s = expand_at(RationalFunction.from_poly(x), inf, 4)
    assert s.valuation() == -1 and s.coeff(-1) == F3.one()
    s2 = expand_at(RationalFunction(Poly(F3, [1]), x), inf, 4)
    assert s2.valuation() == 1


def _order_by_division(r, f):
    """Order of r at the zeros of the monic irreducible f: how often f
    divides the numerator, less how often it divides the denominator."""

    def count(g):
        k = 0
        while True:
            quo, rem = g.divmod(f)
            if not rem.is_zero():
                return k
            g, k = quo, k + 1

    return count(r.num) - count(r.den)


def test_ord_matches_expansion_valuation():
    # an expansion finds its own order: repeated division at finite points
    # of degree 1 to 3, the degree difference at infinity
    x = polys.x(F3)
    quad = x * x + 1
    cases = [(F3, RationalFunction(quad * (x - 1), x * x))]
    rng = random.Random(29)
    for field in (F3, F4):
        irr = [f for d in (1, 2, 3) for f in monic_irreducibles(field, d)]
        for _ in range(6):
            num, den = Poly(field, [field.from_index(rng.randrange(1, field.q))]), Poly(field, [1])
            for f in rng.sample(irr, 3):
                for _ in range(rng.randrange(1, 3)):
                    num = num * f
            for f in rng.sample(irr, 3):
                for _ in range(rng.randrange(1, 3)):
                    den = den * f
            cases.append((field, RationalFunction(num, den)))
    for field, r in cases:
        for f in [f for d in (1, 2, 3) for f in monic_irreducibles(field, d)]:
            assert expand_at(r, Point(field, f), 1).v == _order_by_division(r, f)
        assert expand_at(r, Point.infinity(field), 1).v == r.den.degree() - r.num.degree()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_expansions_hold_exactly_n_coefficients(n):
    # n counts past the valuation, infinity included, where dt's shift by
    # -2 keeps the count; a longer window agrees on the shorter one
    x = polys.x(F3)
    quad = x * x + 1
    r = RationalFunction(quad * (x - 1), x * x * (x + 1))
    cubic = monic_irreducibles(F3, 3)[0]
    pts = [Point.rational(F3, a) for a in range(3)] + [Point(F3, quad), Point(F3, cubic), Point.infinity(F3)]
    for pt in pts:
        s = expand_at(r, pt, n)
        assert len(s.coeffs) == s.prec - s.v == n
        assert same(s, expand_at(r, pt, n + 3))
        w = expand_form_at(r, pt, n).w
        assert len(w.coeffs) == w.prec - w.v == n
        assert w.v == s.v - (2 if pt.at_infinity else 0)


def test_degree_two_point_data():
    x = polys.x(F3)
    quad = x * x + 1
    pt = Point(F3, quad)
    big, emb, alpha = pt.residue_data()
    assert big.q == 9
    assert quad.evaluate(big.from_index(alpha), emb).is_zero()
    s = expand_at(RationalFunction.from_poly(quad), pt, 4)
    assert s.valuation() == 1


@pytest.mark.parametrize("base, d", [(F3, 2), (F3, 3), (fq_build(2, 2), 2), (fq_build(2, 2), 3), (F9, 2), (F5, 2)])
def test_residue_data_root_has_the_least_log(base, d):
    # the expansions at a point depend on this choice: the root G**k of
    # the minimal polynomial with the least k, G the residue field's generator
    big, emb = gf.residue_field(base, d)
    exp = gf.log_field(big).exp
    for f in monic_irreducibles(base, d):
        want = next(k for k in exp if f.evaluate(big.from_index(k), emb).is_zero())
        assert Point(base, f).residue_data()[2] == want


def test_form_at_infinity_sign():
    # d(t) pulled back through t = 1/pi is -pi**-2 dpi
    one = RationalFunction.from_poly(Poly(F3, [1]))
    w = expand_form_at(one, Point.infinity(F3), 3)
    assert w.w.valuation() == -2
    assert w.w.coeff(-2) == F3.elem(-1)


def _residue_sum(w, points, prec=3):
    total = fq_build(w.field.p, 1).zero()
    for pt in points:
        big, emb, _ = pt.residue_data()
        res = residue(expand_form_at(w, pt, prec).w)
        total = total + trace(res)
    return total


def test_residue_theorem_hand_case():
    # 1/(t**2 + 1) dt has residues only at the degree 2 point and infinity
    x = polys.x(F3)
    w = RationalFunction(Poly(F3, [1]), x * x + 1)
    pts = [Point(F3, x * x + 1), Point.infinity(F3)]
    assert _residue_sum(w, pts).is_zero()


def test_residue_theorem_randomized():
    rng = random.Random(31)
    for field in (F3, F4, F5):
        x = polys.x(field)
        lin = monic_irreducibles(field, 1)
        quad = monic_irreducibles(field, 2)
        for _ in range(6):
            den = Poly(field, [1])
            pts = [Point.infinity(field)]
            for p in rng.sample(lin, 2) + [rng.choice(quad)]:
                m = rng.randrange(1, 3)
                for _ in range(m):
                    den = den * p
                pts.append(Point(field, p))
            num = Poly(field, [field.from_index(rng.randrange(field.q)) for _ in range(4)])
            if num.is_zero():
                continue
            w = RationalFunction(num, den)
            assert _residue_sum(w, pts, prec=3).is_zero()


def test_point_json_roundtrip():
    x = polys.x(F3)
    for pt in (Point.infinity(F3), Point.rational(F3, 2), Point(F3, x * x + 1)):
        assert Point.from_json(F3, pt.to_json()) == pt
