"""Global checks on the projective line: trace sums against pointwise
evaluation, determinant polynomials, the point by point factorization of
the global determinant, and transfer factors of small covers."""

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from epsilon_lab import curve as curve_mod
from epsilon_lab import epsilon as epsilon_mod
from epsilon_lab import gf as gf_mod
from epsilon_lab import localfield as localfield_mod
from epsilon_lab.coeff import coeff_setup, second_ell
from epsilon_lab.curve import (
    GlobalComputation,
    SheafSpec,
    conductor_profile,
    divisor_points,
    local_character_at,
    product_formula_check,
    transfer_constants,
    verify_gos,
)
from epsilon_lab.epsilon import eps_local, gamma_psi
from epsilon_lab.gf import CapExceeded, Unsupported, dlog, fq_build, log_field, norm, residue_field
from epsilon_lab.localfield import (
    Point,
    Poly,
    RationalFunction,
    expand_at,
    expand_form_at,
)
from covers import induction_power_cover, induction_wild_cover
import polys
from polys import monic_irreducibles

F3 = fq_build(3, 1)
F5 = fq_build(5, 1)
F7 = fq_build(7, 1)
F4 = fq_build(2, 2)

C73 = coeff_setup(3, [8])
C5 = coeff_setup(5, [4])
C7 = coeff_setup(7, [6])
C4 = coeff_setup(2, [3])


def rat(field, num, den=(1,)):
    return RationalFunction(Poly(field, list(num)), Poly(field, list(den)))


def pointwise_sum(spec, coeff, m):
    big, _emb = residue_field(spec.base, m)
    total = 0
    for x in map(big.from_index, range(big.q)):
        try:
            total += spec.trace_at(coeff, m, x)
        except ValueError:
            continue
    if spec.infinity_in_domain():
        total += spec.trace_at(coeff, m, None)
    return total % coeff.ell


def gm_quadratic():
    return SheafSpec(
        F3,
        wild=rat(F3, [0, 1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3)],
    )


def deg2_puncture_spec(unram=1):
    pt = Point(F3, Poly(F3, [1, 0, 1]))
    return SheafSpec(
        F3,
        kummer=[(rat(F3, [1, 0, 1]), 1)],
        punctures=[pt, Point.infinity(F3)],
        unram=unram,
    )


def test_divisor_points():
    r = rat(F3, [0, 0, 1], [-1, 1])
    pts = dict(divisor_points(r))
    assert pts[Point.rational(F3, 0)] == 2
    assert pts[Point.rational(F3, 1)] == -1
    assert pts[Point.infinity(F3)] == -1
    with pytest.raises(ValueError):
        divisor_points(rat(F3, []))


def test_divisor_points_trust_factor_poly(monkeypatch):
    # (t^2 + 1)(t^3 - t + 1) / t: every factor comes out of factor_poly
    # irreducible, so no point is tested again
    t = polys.x(F3)
    quad, cubic = t * t + 1, t * t * t - t + 1
    r = RationalFunction(quad * cubic, t)
    expected = divisor_points(r)
    calls = []
    test = localfield_mod.poly_is_irreducible

    def counted(f):
        calls.append(f)
        return test(f)

    monkeypatch.setattr(localfield_mod, "poly_is_irreducible", counted)
    got = divisor_points(r)
    assert calls == []
    assert got == expected
    assert dict(got) == {Point(F3, quad): 1, Point(F3, cubic): 1, Point.rational(F3, 0): -1, Point.infinity(F3): -4}
    # the public constructor still tests
    assert len(calls) == 2


def test_a_point_refuses_a_reducible_minpoly():
    # t^2 - 1 = (t - 1)(t + 1) over F_3
    for make in (
        lambda: Point(F3, Poly(F3, [2, 0, 1])),
        lambda: Point.from_json(F3, {"type": "finite", "minpoly": [2, 0, 1]}),
    ):
        with pytest.raises(Unsupported) as err:
            make()
        assert err.value.field == "minpoly"


def test_spec_validation():
    y = rat(F3, [0, 1])
    inf = Point.infinity(F3)
    with pytest.raises(ValueError):
        SheafSpec(F3, wild=rat(F3, [1], [0, 1]), punctures=[inf])
    with pytest.raises(ValueError):
        SheafSpec(F3, kummer=[(y, 1)], punctures=[inf])
    with pytest.raises(ValueError):
        SheafSpec(F3, punctures=[inf, inf])
    with pytest.raises(ValueError):
        SheafSpec(F3, kummer=[(rat(F3, []), 1)], punctures=[inf])
    with pytest.raises(ValueError):
        SheafSpec(F3, unram=0)
    with pytest.raises(ValueError):
        SheafSpec(F3, wild=rat(F5, [0, 1]), punctures=[inf])


def test_trace_sum_matches_pointwise_exponential():
    spec = SheafSpec(F3, wild=rat(F3, [0, 1]), punctures=[Point.infinity(F3)])
    for m in (1, 2, 3):
        assert spec.trace_sum(C73, m) == pointwise_sum(spec, C73, m)


def test_trace_sum_matches_pointwise_mixed():
    spec = SheafSpec(
        F3,
        wild=rat(F3, [1], [0, 1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3)],
    )
    for m in (1, 2, 3):
        assert spec.trace_sum(C73, m) == pointwise_sum(spec, C73, m)


def test_trace_sum_matches_pointwise_f4():
    spec = SheafSpec(
        F4,
        kummer=[(rat(F4, [0, 1]), 1), (rat(F4, [1, 1]), 2)],
        punctures=[Point.rational(F4, 0), Point.rational(F4, F4.one()), Point.infinity(F4)],
    )
    for m in (1, 2):
        assert spec.trace_sum(C4, m) == pointwise_sum(spec, C4, m)


T = rat(F3, [0, 1])
T5 = rat(F5, [0, 1])
T5_T5_MINUS_1 = rat(F5, [0, -1, 1])
F5_0_1_INF = [Point.rational(F5, 0), Point.rational(F5, 1), Point.infinity(F5)]


@pytest.mark.parametrize(
    "make_spec, coeff, degrees",
    [
        pytest.param(deg2_puncture_spec, C73, (1, 2), id="kummer-at-deg2-puncture"),
        # a degree 2 puncture with no datum: no points at odd degree
        pytest.param(
            lambda: SheafSpec(
                F3,
                wild=T,
                kummer=[(T, 1)],
                punctures=[Point(F3, Poly(F3, [1, 0, 1])), Point.rational(F3, 0), Point.infinity(F3)],
            ),
            C73,
            (1, 2, 3),
            id="bare-deg2-puncture",
        ),
        # t enters both data: exponent 2 + 1 at 0, 1 at 1
        pytest.param(
            lambda: SheafSpec(F5, kummer=[(rat(F5, [0, 2]), 2), (T5_T5_MINUS_1, 1)], punctures=F5_0_1_INF),
            C5,
            (1, 2),
            id="kummer-shared-factor",
        ),
        # exponents 3 - 3 cancel at 0, which stays punctured
        pytest.param(
            lambda: SheafSpec(F5, wild=T5, kummer=[(T5, 3), (T5_T5_MINUS_1, -3)], punctures=F5_0_1_INF),
            C5,
            (1, 2),
            id="kummer-cancels-at-puncture",
        ),
        # 2 (t^2 + t + 2) / t vanishes at a degree 2 point off the punctures
        pytest.param(
            lambda: SheafSpec(
                F3,
                wild=rat(F3, [1, 2, 2], [0, 1]),
                kummer=[(T, 1)],
                punctures=[Point.rational(F3, 0), Point.infinity(F3)],
            ),
            C73,
            (1, 2, 3),
            id="additive-deg2-zero",
        ),
    ],
)
def test_trace_sum_matches_pointwise_factored(make_spec, coeff, degrees):
    spec = make_spec()
    for m in degrees:
        assert spec.trace_sum(coeff, m) == pointwise_sum(spec, coeff, m)


def test_trace_sum_deg2_puncture_over_extension_base():
    # A degree 2 point whose minimal polynomial has coefficients outside
    # the prime subfield, walked two levels up: the punctured points must
    # be excluded through the canonical base embedding, not through an
    # arbitrary embedding of the residue field.
    F9 = fq_build(3, 2)
    fpol = next(
        f
        for f in monic_irreducibles(F9, 2)
        if any(c ** 3 != c for c in map(F9.from_index, f.coeffs[:-1]))
    )
    spec = SheafSpec(
        F9,
        wild=RationalFunction(Poly(F9, [1]), fpol),
        kummer=[(RationalFunction.from_poly(fpol), 1)],
        punctures=[Point(F9, fpol), Point.infinity(F9)],
    )
    coeff = coeff_setup(3, [8, 80])
    for m in (2, 4):
        assert spec.trace_sum(coeff, m) == pointwise_sum(spec, coeff, m)


def test_trace_sum_matches_pointwise_unram_scaled():
    spec = SheafSpec(
        F5,
        wild=rat(F5, [0, 0, 1]),
        kummer=[(rat(F5, [0, 1]), 2)],
        punctures=[Point.rational(F5, 0), Point.infinity(F5)],
        unram=2,
    )
    for m in (1, 2):
        assert spec.trace_sum(C5, m) == pointwise_sum(spec, C5, m)


def leading(f):
    """The leading coefficient of the polynomial f, as an element."""
    return f.field.from_index(f.coeffs[-1])


def brute_histogram(spec, m):
    """The full-field walk: every divisor row is evaluated on FqElem at
    every element of F_{q^m}, one Python step per point; infinity takes its
    keys from local_data, scaled by m."""
    big, emb = residue_field(spec.base, m)
    logs = log_field(big)
    p, red = spec.base.p, spec.base.q - 1

    def lead_log(r):
        return logs.log[emb.embed(leading(r.num) / leading(r.den)).index()]

    lk0 = sum(e * lead_log(g) for g, e in spec.kummer)
    no_wild = spec.wild is None
    lw0 = 0 if no_wild else lead_log(spec.wild)
    hist = {}
    for x in map(big.from_index, range(big.q)):
        lk, lw, wild_zero = lk0, lw0, no_wild
        for f, k, w, punct in spec._divisor:
            v = f.evaluate(x, emb)
            if not v.is_zero():
                lv = logs.log[v.index()]
                lk += k * lv
                lw += w * lv
            elif punct:
                break
            else:
                wild_zero = True
        else:
            key = (0 if wild_zero else logs.trace[lw % logs.order], lk % red)
            hist[key] = hist.get(key, 0) + 1
    if spec.infinity_in_domain():
        _big, _tame, _wild, ke, pe = spec.local_data(Point.infinity(spec.base))
        key = (pe * m % p, ke * m % red)
        hist[key] = hist.get(key, 0) + 1
    return hist


def histogram(spec, m):
    """The same counts from the walk: a closed point of degree e | m stands
    for e rational points of degree m, with its keys scaled by m/e."""
    p, red = spec.base.p, spec.base.q - 1
    hist = {}
    for e in range(1, m + 1):
        if m % e == 0:
            for (pe, ke), n in spec._closed_point_counts(e).items():
                key = (pe * (m // e) % p, ke * (m // e) % red)
                hist[key] = hist.get(key, 0) + e * n
    return hist


F2 = fq_build(2, 1)
F9 = fq_build(3, 2)
F2_CUBIC = Poly(F2, [1, 1, 0, 1])
F4_CONIC = monic_irreducibles(F4, 2)[0]
# a degree 2 point over F_9 whose minimal polynomial is not over F_3
F9_CONIC = next(f for f in monic_irreducibles(F9, 2) if any(c ** 3 != c for c in map(F9.from_index, f.coeffs[:-1])))

HISTOGRAM_SPECS = [
    # q - 1 = 1: every Kummer key is 0; a degree 3 puncture; m = 2, 4 with
    # p | m / e
    pytest.param(
        lambda: SheafSpec(
            F2,
            wild=rat(F2, [0, 1, 0, 1]),
            kummer=[(RationalFunction.from_poly(F2_CUBIC), 1)],
            punctures=[Point(F2, F2_CUBIC), Point.infinity(F2)],
        ),
        id="f2-deg3-puncture",
    ),
    # 2 (t^2 + t + 2) / t vanishes at a degree 2 point off the punctures;
    # the degree 3 puncture carries no datum
    pytest.param(
        lambda: SheafSpec(
            F3,
            wild=rat(F3, [1, 2, 2], [0, 1]),
            kummer=[(T, 1)],
            punctures=[Point.rational(F3, 0), Point(F3, Poly(F3, [1, 2, 0, 1])), Point.infinity(F3)],
        ),
        id="f3-additive-zero-bare-puncture",
    ),
    # t enters both Kummer data; m = 3, 6 with p | m / e
    pytest.param(
        lambda: SheafSpec(
            F3,
            wild=rat(F3, [0, 0, 0, 0, 1]),
            kummer=[(T, 1), (rat(F3, [0, -1, 1]), 1)],
            punctures=[Point.rational(F3, 0), Point.rational(F3, 1), Point.infinity(F3)],
        ),
        id="f3-kummer-shared-factor",
    ),
    # infinity in the domain, a degree 2 puncture
    pytest.param(
        lambda: SheafSpec(
            F3,
            wild=rat(F3, [1], [0, 0, 1, 0, 1]),
            kummer=[(rat(F3, [0, 0, 1], [1, 0, 1]), 1)],
            punctures=[Point.rational(F3, 0), Point(F3, Poly(F3, [1, 0, 1]))],
        ),
        id="f3-infinity-in-domain",
    ),
    pytest.param(
        lambda: SheafSpec(
            F4,
            wild=rat(F4, [0, 0, 0, 1]),
            kummer=[(RationalFunction.from_poly(F4_CONIC), 1)],
            punctures=[Point(F4, F4_CONIC), Point.infinity(F4)],
        ),
        id="f4-deg2-puncture",
    ),
    pytest.param(
        lambda: SheafSpec(
            F9,
            wild=RationalFunction(Poly(F9, [1]), F9_CONIC),
            kummer=[(RationalFunction.from_poly(F9_CONIC), 1)],
            punctures=[Point(F9, F9_CONIC), Point.infinity(F9)],
        ),
        id="f9-deg2-puncture",
    ),
]


@pytest.mark.parametrize("make_spec", HISTOGRAM_SPECS)
def test_point_histogram_matches_full_field_walk(make_spec):
    spec = make_spec()
    d = conductor_profile(spec)[1]
    for m in range(1, d + 2):
        assert histogram(spec, m) == brute_histogram(spec, m), m


@pytest.mark.parametrize("make_spec", HISTOGRAM_SPECS[:4])
def test_first_histogram_at_degree_six(make_spec):
    # no smaller degree asked first: the closed points of degree 1, 2, 3
    # are counted on demand
    assert histogram(make_spec(), 6) == brute_histogram(make_spec(), 6)


@pytest.mark.parametrize("make_spec", HISTOGRAM_SPECS)
def test_point_counts_add_up(make_spec):
    spec = make_spec()
    q = spec.base.q
    finite = [pt.degree() for pt in spec.punctures if not pt.at_infinity]
    for m in range(1, conductor_profile(spec)[1] + 2):
        expected = q ** m + spec.infinity_in_domain() - sum(deg for deg in finite if m % deg == 0)
        assert sum(histogram(spec, m).values()) == expected
        # monic_irreducibles trial-divides all q**m monic polynomials
        if q ** m <= 1024:
            closed = sum(spec._closed_point_counts(m).values())
            infinity = m == 1 and spec.infinity_in_domain()
            assert closed == len(monic_irreducibles(spec.base, m)) - finite.count(m) + infinity


def test_trace_at_does_not_count_closed_points(monkeypatch):
    spec = HISTOGRAM_SPECS[2].values[0]()
    expected = [spec.trace_sum(C73, m) for m in (1, 2)]
    monkeypatch.setattr(SheafSpec, "_closed_point_counts", _no_point_walk)
    assert [pointwise_sum(spec, C73, m) for m in (1, 2)] == expected


def test_reducible_minpoly_is_no_point():
    # t^2 - 1 = (t - 1)(t + 1) over F_3: taken as a closed point, it made
    # the walk count three points of degree 1 where the domain has one (x = 0)
    with pytest.raises(Unsupported) as err:
        SheafSpec(F3, wild=rat(F3, [0, 1]), punctures=[Point(F3, Poly(F3, [2, 0, 1])), Point.infinity(F3)])
    assert err.value.field == "minpoly"


def test_trace_at_rejects_punctured_points():
    spec = gm_quadratic()
    with pytest.raises(ValueError):
        spec.trace_at(C73, 1, F3.zero())
    with pytest.raises(ValueError):
        spec.trace_at(C73, 1, None)


def test_gm_quadratic_calibration():
    spec = gm_quadratic()
    for coeff in (C73, second_ell(C73)):
        g = (coeff.psi(1) - coeff.psi(2)) % coeff.ell
        glob = GlobalComputation(spec, coeff)
        cs = glob.cs
        assert len(cs) == 2
        assert cs[0] == 1
        assert cs[1] == g
        assert (cs[-1], glob.degree) == (g, 1)
        check = product_formula_check(spec, coeff, rat(F3, [1]))
        assert check["ok"]
        assert check["degree"] == 1
        assert check["lhs"] == g
        assert sorted(row["sign"] for row in check["per_point"]) == [-1, 1]


def test_exponential_infinity_factor_is_inverse_q():
    spec = SheafSpec(F3, wild=rat(F3, [0, -1]), punctures=[Point.infinity(F3)])
    chi = local_character_at(spec, C73, Point.infinity(F3))
    assert chi.swan() == 1
    form = expand_form_at(rat(F3, [1]), Point.infinity(F3), 6)
    res = eps_local(chi, form, "shriek")
    assert res.value == C73.elem(3) ** -1
    assert res.conductor_a == 2
    assert res.conductor_a_omega == 0
    check = product_formula_check(spec, C73, rat(F3, [1]))
    assert check["ok"]
    assert check["degree"] == 0
    assert check["lhs"] == 1


def test_deg2_puncture_product_formula():
    spec = deg2_puncture_spec()
    pt = spec.punctures[0]
    chi_pt = local_character_at(spec, C73, pt)
    assert chi_pt.tame_e == 4
    chi_inf = local_character_at(spec, C73, Point.infinity(F3))
    assert not chi_inf.is_ramified()
    cs = GlobalComputation(spec, C73).cs
    assert cs[1] == C73.ell - 1
    check = product_formula_check(spec, C73, rat(F3, [1]))
    assert check["ok"]
    assert check["degree"] == 1
    by_deg = {row["residue_degree"]: row["sign"] for row in check["per_point"]}
    assert by_deg == {2: -1, 1: -1}


def test_unramified_twist_keeps_product_formula():
    plain = deg2_puncture_spec()
    twisted = deg2_puncture_spec(unram=2)
    check = product_formula_check(twisted, C73, rat(F3, [1]))
    assert check["ok"]
    lhs_plain = GlobalComputation(plain, C73).cs[1]
    assert check["lhs"] == 2 * lhs_plain % C73.ell


def test_everywhere_unramified_product_formula():
    for unram in (1, 2):
        spec = SheafSpec(F3, unram=unram)
        for w in (rat(F3, [1]), rat(F3, [1, 0, 1])):
            check = product_formula_check(spec, C73, w)
            assert check["mode"] == "constant"
            assert check["ok"]


def test_unramified_with_punctures_is_refused():
    spec = SheafSpec(F3, punctures=[Point.infinity(F3)])
    with pytest.raises(ValueError):
        GlobalComputation(spec, C73)
    with pytest.raises(ValueError):
        product_formula_check(spec, C73, rat(F3, [1]))


def test_small_ell_serves_a_degree_above_it():
    # degree 8 at ell = 7: the Euler product divides by nothing
    spec = SheafSpec(F4, wild=rat(F4, [0] * 9 + [1]), punctures=[Point.infinity(F4)])
    assert C4.ell == 7
    rep = verify_gos(spec, C4)
    assert rep["degree"] == 8 and rep["ok"]
    for coeff in (C4, second_ell(C4)):
        check = product_formula_check(spec, coeff, rat(F4, [1]))
        assert check["ok"] and check["degree"] == 8


def newton_l_polynomial(spec, coeff, d):
    """Newton's identities on the trace sums up to degree d: an independent
    route to the determinant polynomial, as ints mod ell.  It divides by
    m <= d, so the coefficient prime must exceed d."""
    ell = coeff.ell
    psums = [0] + [-spec.trace_sum(coeff, m) for m in range(1, d + 1)]
    es = [1]
    for m in range(1, d + 1):
        acc = sum(es[m - i] * psums[i] * (-1) ** (i - 1) for i in range(1, m + 1))
        es.append(acc * pow(m, -1, ell) % ell)
    return [(-1) ** m * es[m] % ell for m in range(d + 1)]


@pytest.mark.parametrize(
    "make_spec",
    HISTOGRAM_SPECS
    + [
        pytest.param(gm_quadratic, id="gm-quadratic"),
        pytest.param(lambda: deg2_puncture_spec(unram=2), id="deg2-puncture-unram"),
        # 0 is an unramified puncture with Kummer key 2: the exponents 3 - 3
        # cancel there, each leading symbol taken with the sign (-1)^1
        pytest.param(
            lambda: SheafSpec(
                F5, wild=rat(F5, [0] * 4 + [1]), kummer=[(T5, 3), (T5_T5_MINUS_1, -3)], punctures=F5_0_1_INF
            ),
            id="unramified-puncture-kummer-key",
        ),
        # infinity is an unramified puncture with additive key 1
        pytest.param(
            lambda: SheafSpec(
                F3,
                wild=rat(F3, [2, 0, 2, 0, 1], [1, 0, 2, 0, 1]),
                kummer=[(rat(F3, [1, 0, 1]), 1)],
                punctures=[Point(F3, Poly(F3, [1, 0, 1])), Point.infinity(F3)],
                unram=2,
            ),
            id="unramified-infinity",
        ),
    ],
)
def test_euler_product_matches_newton(make_spec):
    # duality stops the walk at about half the degree: no closed point above
    # counted is walked, and the coefficients known both ways agree
    probe = make_spec()
    d = conductor_profile(probe)[1]
    first = coeff_setup(probe.base.p, [probe.base.q - 1], d_max=d + 2)
    for coeff in (first, second_ell(first)):
        spec = make_spec()
        glob = GlobalComputation(spec, coeff)
        assert glob.counted <= (d + 1) // 2 and max(spec._closed, default=0) == glob.counted
        assert glob.dual_ok and glob.audit()["ok"]
        assert glob.cs == newton_l_polynomial(spec, coeff, d)


@pytest.mark.parametrize("k", [5, 7])
def test_frobenius_sparse_data_counts_to_the_degree(k):
    # psi(t^k) over F_3 has L = 1 + c_d T^d, d = k - 1: the c^dual_i with
    # 0 < i < d vanish, so no degree below d fixes eps and the walk counts
    # to d; at k = 7 and ell = 7 the audit then walks degree d + 2
    spec = SheafSpec(F3, wild=rat(F3, [0] * k + [1]), punctures=[Point.infinity(F3)])
    first = coeff_setup(3, [2])
    for coeff in (first, second_ell(first)):
        glob = GlobalComputation(spec, coeff)
        assert glob.degree == glob.counted == k - 1
        assert not any(glob.cs[1 : k - 1])
        assert glob.dual_ok and glob.audit()["ok"]
        assert glob.cs == newton_l_polynomial(spec, coeff, k - 1)


def baseline_spec(k):
    """Wild t^k, Kummer t, punctures {0, infinity} over F_3: degree k."""
    return SheafSpec(
        F3,
        wild=rat(F3, [0] * k + [1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3)],
    )


def _drop_one_point(monkeypatch, degree):
    counts = SheafSpec._closed_point_counts

    def dropped(self, e):
        out = dict(counts(self, e))
        if e == degree:
            key = min(out)
            out[key] -= 1
        return out

    monkeypatch.setattr(SheafSpec, "_closed_point_counts", dropped)


def test_audit_bites_below_the_degree(monkeypatch):
    # ell = 7 at degree 13: a point of degree counted + 1 dropped from the
    # walk breaks the power sum the polynomial forces
    coeff = coeff_setup(3, [2])
    assert coeff.ell == 7
    counted = GlobalComputation(baseline_spec(13), coeff).counted
    assert counted == 7
    _drop_one_point(monkeypatch, counted + 1)
    rep = verify_gos(baseline_spec(13), coeff)
    assert rep["degree"] == 13 and rep["leading_nonzero"]
    assert not rep["power_sum_consistent"] and not rep["ok"]


def test_audit_steps_past_a_degree_the_prime_divides(monkeypatch):
    # ell = 7 at degree 11 counts to 6, but a point of degree 7 counts
    # 7 a = 0 in the trace sum there, so the audit walks degree 8
    coeff = coeff_setup(3, [2])
    assert GlobalComputation(baseline_spec(11), coeff).counted == 6
    full = baseline_spec(11).trace_sum(coeff, 7)
    _drop_one_point(monkeypatch, 7)
    assert baseline_spec(11).trace_sum(coeff, 7) == full
    _drop_one_point(monkeypatch, 8)
    assert not verify_gos(baseline_spec(11), coeff)["ok"]


@pytest.mark.parametrize("shift", [-1, 0, 1], ids=["overlap", "eps", "above-counted"])
def test_corrupted_duality_is_caught(monkeypatch, shift):
    # one dual coefficient off by one, at degree 11 and ell = 7 (k = 6):
    # c^dual_(d - k + 1) only mirrors the counted c_(k - 1), so only the
    # overlap check sees it; c^dual_(d - k) fixes eps, which the overlap
    # check and the product formula both see; c^dual_(d - k - 1) fixes
    # c_(k + 1), which only the audit reads
    solve = curve_mod._functional_equation

    def corrupted(mid, dual, d, q, ell):
        i = d - (len(mid) - 1) - shift
        return solve(mid, dual[:i] + [(dual[i] + 1) % ell] + dual[i + 1 :], d, q, ell)

    monkeypatch.setattr(curve_mod, "_functional_equation", corrupted)
    coeff = coeff_setup(3, [2])
    glob = GlobalComputation(baseline_spec(11), coeff)
    assert glob.counted == 6 and glob.dual_ok == (shift == 1)
    assert not glob.audit()["ok"]
    check = product_formula_check(baseline_spec(11), coeff, rat(F3, [1], [0, 1]))
    assert check["ok"] == (shift == 1)


def test_degree_thirteen_walks_no_field_above_half(monkeypatch):
    # wild t^13, Kummer t: the audit's field 3^8 is the largest built
    built = []
    init = gf_mod.LogField.__init__

    def recorded(self, field):
        built.append(field.q)
        init(self, field)

    monkeypatch.setattr(gf_mod, "_TABLE_CACHE", {})
    monkeypatch.setattr(gf_mod, "_RESIDUE_CACHE", {})
    monkeypatch.setattr(gf_mod.LogField, "__init__", recorded)
    first = coeff_setup(3, [2])
    for coeff in (first, second_ell(first)):
        rep = verify_gos(baseline_spec(13), coeff)
        assert rep["degree"] == 13 and rep["ok"]
    assert max(built) == 3 ** 8


def test_walk_past_the_field_cap_is_refused_before_any_count(monkeypatch):
    # degree 40 counts to degree 20 first: every table up to 3^15 would be
    # built before the walk reached 3^16, past the cap
    monkeypatch.setattr(SheafSpec, "_closed_point_counts", _no_point_walk)
    with pytest.raises(CapExceeded, match="field size 43046721 exceeds cap 16777216"):
        GlobalComputation(baseline_spec(40), C73)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_lisse_puncture_is_priced_at_its_degree(k):
    # the lisse puncture t^2 + 1 under the scaling 2 is priced 2**2: a
    # price of 2**1 breaks the product formula under both primes
    spec = SheafSpec(
        F3,
        wild=rat(F3, [0] * k + [1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3), Point(F3, Poly(F3, [1, 0, 1]))],
        unram=2,
    )
    first = coeff_setup(3, [8])
    for coeff in (first, second_ell(first)):
        assert product_formula_check(spec, coeff, rat(F3, [1], [0, 1]))["ok"]
        assert verify_gos(spec, coeff)["ok"]


def test_product_formula_bites_below_the_degree(monkeypatch):
    # the same, with a point of degree 5 <= d dropped from the Euler product
    coeff = coeff_setup(3, [2])
    omega = rat(F3, [1], [0, 1])
    assert product_formula_check(baseline_spec(11), coeff, omega)["ok"]
    _drop_one_point(monkeypatch, 5)
    check = product_formula_check(baseline_spec(11), coeff, omega)
    assert check["degree"] == 11 and not check["ok"]


BUNDLED = resources.files("epsilon_lab").joinpath("data")
F9_SPEC = Path(__file__).parent / "data" / "f9_spec.json"
INFINITY_SPEC = Path(__file__).parent / "data" / "infinity_spec.json"
FORM_OMEGA = Path(__file__).parent / "data" / "form_omega.json"


def _product_check_input(path):
    """The spec at path, the bundled form on its base, and the coefficient
    field of its residue fields."""
    spec = SheafSpec.from_json(json.loads(path.read_text()))
    omega = RationalFunction.from_json(spec.base, json.loads((BUNDLED / "product_omega.json").read_text()))
    q = spec.base.q
    orders = sorted({q - 1} | {q ** pt.degree() - 1 for pt in spec.punctures})
    return spec, omega, coeff_setup(spec.base.p, orders)


def test_product_check_report_keys():
    spec, omega, coeff = _product_check_input(BUNDLED / "product_spec.json")
    report = product_formula_check(spec, coeff, omega)
    assert set(report) == {"mode", "ok", "degree", "lhs", "rhs", "per_point", "ell"}


@pytest.mark.parametrize("path", [BUNDLED / "product_spec.json", F9_SPEC], ids=["bundled", "f9"])
def test_product_formula_bites_on_one_doubled_local_factor(monkeypatch, path):
    # the local-side counterpart of test_product_formula_bites_below_the_degree:
    # the first unit-sum factor of each run is doubled, every other
    # factor and the determinant are left alone
    spec, omega, first = _product_check_input(path)
    coeffs = (first, second_ell(first))
    assert all(product_formula_check(spec, coeff, omega)["ok"] for coeff in coeffs)
    walk = epsilon_mod.eps_tate
    for coeff in coeffs:
        calls = []

        def doubled(chi, form):
            res = walk(chi, form)
            calls.append(res)
            if len(calls) == 1:
                res = res._replace(value=res.value * res.value.field.elem(2))
            return res

        monkeypatch.setattr(epsilon_mod, "eps_tate", doubled)
        check = product_formula_check(spec, coeff, omega)
        assert calls and not check["ok"] and check["lhs"] != check["rhs"]


def test_verify_gos_exponential_and_quadratic():
    line = SheafSpec(F3, wild=rat(F3, [0, 1]), punctures=[Point.infinity(F3)])
    rep = verify_gos(line, C73)
    assert rep["degree"] == 0
    assert rep["ok"]
    rep = verify_gos(gm_quadratic(), C73)
    assert rep["degree"] == 1
    assert rep["leading_nonzero"]
    assert rep["power_sum_consistent"]
    assert rep["ok"]


def test_gos_degree_counts():
    assert conductor_profile(gm_quadratic())[1] == 1
    line = SheafSpec(F3, wild=rat(F3, [0, 1]), punctures=[Point.infinity(F3)])
    assert conductor_profile(line)[1] == 0
    assert conductor_profile(deg2_puncture_spec())[1] == 1


def test_local_side_is_read_once_per_spec(monkeypatch):
    # the README quick-tour spec: one expansion per datum and puncture, on
    # the first check only, whatever the coefficient prime
    calls = []
    expand = curve_mod.expand_at

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(curve_mod, "expand_at", counted)
    spec = gm_quadratic()
    coeff = coeff_setup(3, [2])
    assert product_formula_check(spec, coeff, rat(F3, [1]))["ok"]
    assert len(calls) == 4
    assert product_formula_check(spec, second_ell(coeff, d_max=3), rat(F3, [1]))["ok"]
    assert verify_gos(spec, coeff)["ok"]
    assert len(calls) == 4


def test_spec_from_json_scans_its_base_once(monkeypatch):
    # fq_build keeps each descriptor it builds: a second spec over the same
    # base runs no modulus scan and gets the same descriptor
    obj = json.loads((Path(__file__).parent / "data" / "f9_spec.json").read_text())
    first = SheafSpec.from_json(obj)
    scans = []
    irreducible = gf_mod._is_irreducible

    def counted(f, p):
        scans.append(f)
        return irreducible(f, p)

    monkeypatch.setattr(gf_mod, "_is_irreducible", counted)
    again = SheafSpec.from_json(obj)
    assert scans == [] and again.base is first.base


def test_form_is_read_once_per_spec(monkeypatch):
    # t / (t^2 + 1): a zero at the puncture 0, a pole at a point of degree 2
    # off the punctures, and a pole at infinity with dt.  Its divisor and
    # expansions do not depend on the coefficient prime, so the second prime
    # and the audit read none of them again
    divisors, expansions = [], []
    divisor, expand = curve_mod.divisor_points, curve_mod.expand_form_at

    def counted_divisor(r):
        divisors.append(r)
        return divisor(r)

    def counted_expand(w, point, n):
        expansions.append((point, n))
        return expand(w, point, n)

    spec = gm_quadratic()
    omega = rat(F3, [0, 1], [1, 0, 1])
    monkeypatch.setattr(curve_mod, "divisor_points", counted_divisor)
    monkeypatch.setattr(curve_mod, "expand_form_at", counted_expand)
    coeff = coeff_setup(3, [2])
    first = product_formula_check(spec, coeff, omega)
    twin = product_formula_check(spec, second_ell(coeff, d_max=3), omega)
    assert first["ok"] and twin["ok"] and first["ell"] != twin["ell"]
    assert verify_gos(spec, coeff)["ok"]
    assert divisors == [omega]
    points = [Point.rational(F3, 0), Point.infinity(F3), Point(F3, Poly(F3, [1, 0, 1]))]
    assert len(expansions) == len(set(expansions)) == 3
    assert {pt for pt, _n in expansions} == set(points)


def _kummer_key_by_norm(spec, point):
    """The Kummer key of local_data by its definition: the log in the base
    of the norm of each powered sign-twisted leading symbol."""
    _big, emb, _alpha = point.residue_data()
    key = 0
    for g, e in spec.kummer:
        gx = expand_at(g, point, 1)
        lead = gx.coeff(gx.v)
        key += e * dlog(spec.base, norm(-lead if gx.v % 2 else lead, emb).index())
    return key % (spec.base.q - 1)


def _golden_specs_and_points():
    """Each golden spec with its punctures and the zeros and poles of its
    data and of the golden forms."""
    induction = json.loads((BUNDLED / "induction_spec.json").read_text())
    records = [json.loads(path.read_text()) for path in (BUNDLED / "product_spec.json", F9_SPEC, INFINITY_SPEC)]
    records += [v[side] for v in induction["variants"] for side in ("global", "local")]
    forms = [json.loads(path.read_text()) for path in (BUNDLED / "product_omega.json", FORM_OMEGA)]
    for record in records:
        spec = SheafSpec.from_json(record)
        funcs = [g for g, _e in spec.kummer] + [spec.wild] * (spec.wild is not None)
        funcs += [RationalFunction.from_json(spec.base, w) for w in forms]
        points = list(spec.punctures)
        for r in funcs:
            points += [pt for pt, _m in divisor_points(r) if pt not in points]
        yield spec, points


def _seeded_specs_and_points():
    """Specs whose Kummer data vanish at seeded points of degree 2 and 3,
    with those points and a few lisse ones of the same degrees."""
    rng = random.Random("kummer keys")
    for base in (F3, F4, F5):
        degree_points = {d: list(monic_irreducibles(base, d)) for d in (2, 3)}
        zeros = [rng.choice(degree_points[d]) for d in (2, 3)]
        kummer = [
            (RationalFunction(zeros[0], Poly(base, [1])), rng.randrange(1, 5)),
            (RationalFunction(Poly(base, [base.from_index(rng.randrange(1, base.q))]), zeros[1]), rng.randrange(1, 5)),
        ]
        punctures = [Point(base, f) for f in zeros] + [Point.infinity(base)]
        spec = SheafSpec(base, kummer=kummer, punctures=punctures)
        lisse = [Point(base, f) for d in (2, 3) for f in rng.sample(degree_points[d], 3) if f not in zeros]
        yield spec, punctures + lisse


@pytest.mark.parametrize("line", ["tables", "norm"])
def test_kummer_key_is_the_log_of_the_norm(monkeypatch, line):
    # the residue field's generator has the base generator as its norm, so
    # the key read off the residue field's log table is the log of the
    # norm; with the table line at 1 every key takes the norm route
    if line == "norm":
        monkeypatch.setattr(curve_mod, "TABLE_LINE", 1)
    degrees = set()
    for spec, points in [*_golden_specs_and_points(), *_seeded_specs_and_points()]:
        for pt in points:
            assert spec.local_data(pt)[3] == _kummer_key_by_norm(spec, pt), (spec.base, pt)
            degrees.add(pt.degree())
    assert degrees >= {1, 2, 3}


def test_local_character_matches_pointwise_trace_off_the_punctures():
    # at a point where the data is lisse, the local character's value at
    # the parameter is the trace there: the expansion route and trace_at
    # must agree; infinity is left unpunctured on purpose
    spec = SheafSpec(
        F3,
        wild=rat(F3, [1, 0, 2], [0, -1, 1]),
        kummer=[(rat(F3, [0, 2], [-1, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.rational(F3, 1)],
        unram=2,
    )
    points = [Point(F3, f) for deg in (1, 2, 3) for f in monic_irreducibles(F3, deg)]
    points = [pt for pt in points if pt not in spec.punctures]
    assert len(points) == 12
    for coeff in (C73, second_ell(C73)):
        for pt in points:
            big, _emb, alpha = pt.residue_data()
            assert local_character_at(spec, coeff, pt).c_pi.value == spec.trace_at(
                coeff, pt.degree(), big.from_index(alpha)
            )
        inf = Point.infinity(F3)
        assert local_character_at(spec, coeff, inf).c_pi.value == spec.trace_at(coeff, 1, None)


class PushforwardSpec:
    """Direct image of rank-1 data along a nonconstant rational self-map of
    the line: the downstream trace value at a point is the sum of the
    upstairs trace values over its fiber."""

    __slots__ = ("cover", "upstairs")

    def __init__(self, cover, upstairs):
        if cover.field != upstairs.base:
            raise ValueError("cover lives over the wrong field")
        if max(cover.num.degree(), cover.den.degree()) < 1:
            raise ValueError("cover must be nonconstant")
        self.cover = cover
        self.upstairs = upstairs

    def degree(self):
        return max(self.cover.num.degree(), self.cover.den.degree())

    def fiber(self, m, x):
        """Points of the degree m extension over x (None for infinity),
        upstairs punctures dropped; returns (finite points, infinity flag)."""
        spec = self.upstairs
        base = spec.base
        big, emb = residue_field(base, m)
        num = Poly.of(big, [emb.embed_index(c) for c in self.cover.num.coeffs])
        den = Poly.of(big, [emb.embed_index(c) for c in self.cover.den.coeffs])
        dn, dd = num.degree(), den.degree()
        if x is None:
            inf_in_fiber = dn > dd
            finite = [y for y in map(big.from_index, range(big.q)) if den.evaluate(y).is_zero()]
        else:
            target = num - Poly.const(big, x) * den
            if dn > dd:
                inf_in_fiber = False
            elif dn < dd:
                inf_in_fiber = x.is_zero()
            else:
                inf_in_fiber = (leading(num) / leading(den)) == x
            finite = [
                y
                for y in map(big.from_index, range(big.q))
                if target.evaluate(y).is_zero() and not den.evaluate(y).is_zero()
            ]
        kept = []
        for y in finite:
            over_puncture = False
            for pt in spec.punctures:
                if not pt.at_infinity and pt.minpoly.evaluate(y, emb).is_zero():
                    over_puncture = True
                    break
            if not over_puncture:
                kept.append(y)
        if inf_in_fiber and not spec.infinity_in_domain():
            inf_in_fiber = False
        return kept, inf_in_fiber

    def downstream_trace(self, coeff, m, x):
        """Fiber sum of the upstairs trace function over the point x of the
        degree m extension (None for infinity)."""
        finite, has_inf = self.fiber(m, x)
        acc = sum(self.upstairs.trace_at(coeff, m, y) for y in finite)
        if has_inf:
            acc += self.upstairs.trace_at(coeff, m, None)
        return acc % coeff.ell

    def trace_sum(self, coeff, m):
        """Sum of the downstream trace over every point of the projective
        line; fibers partition the upstairs domain, so this must agree
        with the upstairs trace sum."""
        base = self.upstairs.base
        big, _emb = residue_field(base, m)
        acc = self.downstream_trace(coeff, m, None)
        for x in map(big.from_index, range(big.q)):
            acc += self.downstream_trace(coeff, m, x)
        return acc % coeff.ell



def test_pushforward_square_cover():
    up = gm_quadratic()
    push = PushforwardSpec(rat(F3, [0, 0, 1]), up)
    assert push.degree() == 2
    finite, has_inf = push.fiber(1, F3.zero())
    assert finite == [] and not has_inf
    finite, has_inf = push.fiber(1, None)
    assert finite == [] and not has_inf
    for m in (1, 2):
        assert push.trace_sum(C73, m) == up.trace_sum(C73, m)


def test_pushforward_rational_covers():
    up = SheafSpec(
        F5,
        wild=rat(F5, [0, 1]),
        kummer=[(rat(F5, [0, 1]), 1)],
        punctures=[Point.rational(F5, 0), Point.infinity(F5)],
    )
    push = PushforwardSpec(rat(F5, [1, 1, 0, 1], [2, 1]), up)
    assert push.trace_sum(C5, 1) == up.trace_sum(C5, 1)
    up3 = SheafSpec(F3, wild=rat(F3, [0, 1]), punctures=[Point.infinity(F3)])
    push3 = PushforwardSpec(rat(F3, [1], [1, 0, 1]), up3)
    for m in (1, 2):
        assert push3.trace_sum(C73, m) == up3.trace_sum(C73, m)


def test_induction_identity_cover_is_normalization_anchor():
    rep = induction_power_cover(C5, F5, 1)
    assert rep["all_equal"]
    assert rep["conductor_ok"]
    assert rep["matches_prediction"]
    assert rep["lambdas"] == [1] * 4
    assert rep["ok"]


def test_induction_square_cover_matches_quadratic_constant():
    for coeff, base in ((C73, F3), (C5, F5)):
        rep = induction_power_cover(coeff, base, 2)
        assert rep["ok"]
        assert len(rep["lambdas"]) == base.q - 1
        predicted = gamma_psi(coeff, base, base.elem(-2).index()) * pow(base.q, -1, coeff.ell) % coeff.ell
        assert rep["predicted"] == predicted


def test_induction_cube_cover_gives_inverse_q():
    rep = induction_power_cover(C5, F5, 3)
    assert rep["ok"]
    assert rep["predicted"] == (C5.elem(5) ** -1).value


def test_induction_wild_cover_transfer_factor_is_stable():
    rep = induction_wild_cover(C73, 3)
    assert len(rep["lambdas"]) == 4
    assert rep["all_equal"]
    assert rep["conductor_ok"]
    assert rep["ok"]


def test_wild_route_identity_cover():
    inf = Point.infinity(F3)
    pts = [Point.rational(F3, 0), inf]
    y = rat(F3, [0, 1])
    for k in (0, 1):
        twisted = SheafSpec(F3, wild=rat(F3, [-1], [0, 1]), kummer=[(y, k)], punctures=pts)
        glob = GlobalComputation(twisted, C73)
        d = glob.degree
        down = (-1) ** d * glob.cs[d] % C73.ell
        sheaf = SheafSpec(F3, kummer=[(y, k)], punctures=pts)
        chi = local_character_at(sheaf, C73, inf)
        form = expand_form_at(rat(F3, [-1], [0, 0, 1]), inf, chi.artin_a("shriek") + 5)
        up = eps_local(chi, form, "shriek")
        assert up.conductor_a_omega == d
        assert down == up.value.value


def test_sheafspec_json_roundtrip():
    spec = SheafSpec(
        F3,
        wild=rat(F3, [1], [0, 1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3)],
        unram=2,
    )
    back = SheafSpec.from_json(
        {
            "p": 3,
            "n": 1,
            "wild": {"num": [[1]], "den": [[0], [1]]},
            "kummer": [[{"num": [[0], [1]], "den": [[1]]}, 1]],
            "punctures": [{"type": "finite", "minpoly": [0, 1]}, {"type": "infinity"}],
            "unram": 2,
        }
    )
    assert back.base == spec.base
    assert back.wild == spec.wild
    assert back.kummer == spec.kummer
    assert back.punctures == spec.punctures
    assert back.unram == spec.unram
    assert back.trace_sum(C73, 2) == spec.trace_sum(C73, 2)


def _no_point_walk(self, m):
    raise AssertionError("point walk at degree %d" % m)


def test_local_refusal_comes_before_the_point_walk(monkeypatch):
    # swan 13 at infinity: the unit sum at infinity needs 3**14 > 2**22
    # terms, so the local side refuses
    spec = SheafSpec(
        F3,
        wild=rat(F3, [0] * 13 + [1]),
        kummer=[(rat(F3, [0, 1]), 1)],
        punctures=[Point.rational(F3, 0), Point.infinity(F3)],
    )
    monkeypatch.setattr(SheafSpec, "_closed_point_counts", _no_point_walk)
    with pytest.raises(CapExceeded):
        product_formula_check(spec, C73, rat(F3, [1]))


def test_transfer_constants_price_local_factors_first(monkeypatch):
    data = json.loads(resources.files("epsilon_lab").joinpath("data", "induction_spec.json").read_text())
    pairs = [(SheafSpec.from_json(v["global"]), SheafSpec.from_json(v["local"])) for v in data["variants"]]
    point = Point.from_json(F3, data["point"])
    # 2y dy is the pullback of the bundled form dt along the cover t = y**2
    form = rat(F3, [0, 2])
    monkeypatch.setattr(SheafSpec, "_closed_point_counts", _no_point_walk)
    monkeypatch.setattr(epsilon_mod, "TATE_CAP", 2)
    with pytest.raises(CapExceeded):
        transfer_constants(C73, pairs, point, form)



def test_product_formula_over_f2_at_a_degree_two_puncture():
    # a Kummer datum is trivial over F_2, so its tame exponent at a
    # puncture of degree 2 must carry the norm index (4 - 1) / (2 - 1)
    f2 = fq_build(2, 1)
    conic = Poly(f2, [f2.elem(1)] * 3)
    spec = SheafSpec(
        f2,
        wild=rat(f2, [1, 1, 0, 1]),
        kummer=[(RationalFunction(conic, Poly(f2, [f2.elem(1)])), 1)],
        punctures=[Point(f2, conic), Point.infinity(f2)],
    )
    # dt / t: a simple pole at 0
    omega = rat(f2, [1], [0, 1])
    coeff = coeff_setup(2, [3], d_max=6)
    for c in (coeff, second_ell(coeff, d_max=6)):
        check = product_formula_check(spec, c, omega)
        assert check["ok"], check
        assert check["degree"] == 4


def test_one_global_computation_per_spec_and_prime(monkeypatch):
    # the spec holds its determinant per coefficient field: the product
    # formula and the audit under one prime read one, a second prime builds
    # a second
    builds = []
    plain = GlobalComputation.__init__

    def counted(self, spec, coeff):
        builds.append(coeff.ell)
        plain(self, spec, coeff)

    monkeypatch.setattr(GlobalComputation, "__init__", counted)
    spec = gm_quadratic()
    twin = second_ell(C73)
    assert product_formula_check(spec, C73, rat(F3, [1]))["ok"]
    assert verify_gos(spec, C73)["ok"]
    assert builds == [C73.ell]
    assert product_formula_check(spec, twin, rat(F3, [1]))["ok"]
    assert verify_gos(spec, twin)["ok"]
    assert builds == [C73.ell, twin.ell]
