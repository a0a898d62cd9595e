"""End-to-end acceptance runs, one test per headline guarantee.

Every test states its contract and budget in its docstring and runs at the
full advertised size; randomized trials are seeded so reruns reproduce the
same cases.  `pytest -v tests/test_acceptance.py` prints one pass/fail line
per guarantee.
"""

import json
import math
import random
import time

from epsilon_lab.chars import LocalCharacter
from epsilon_lab.cli import main as cli_main
from epsilon_lab.coeff import coeff_setup, root_sum, second_ell
from epsilon_lab.curve import (
    GlobalComputation,
    SheafSpec,
    divisor_points,
    product_formula_check,
    verify_gos,
)
from epsilon_lab.epsilon import (
    eps_closed_form,
    eps_local,
    eps_punctual,
    eps_tate,
    gamma_counts,
    gamma_psi,
)
from epsilon_lab.gf import dlog, fq_build, trace
from epsilon_lab.localfield import (
    Form,
    LaurentSeries,
    Point,
    Poly,
    RationalFunction,
)
from epsilon_lab.twisted import run_twisted_suite
from covers import induction_power_cover, induction_wild_cover
from local_props import check_change_of_form, check_exact_sequence, check_unramified_twist, eps_virtual
from polys import monic_irreducibles

F3 = fq_build(3, 1)
F4 = fq_build(2, 2)
F5 = fq_build(5, 1)
F7 = fq_build(7, 1)
F9 = fq_build(3, 2)

C73 = coeff_setup(3, [8])
C4 = coeff_setup(2, [3])
C5 = coeff_setup(5, [4])
C7 = coeff_setup(7, [6])

FIELDS = [(F3, C73), (F4, C4), (F5, C5), (F9, C73), (F7, C7)]


def series(field, v, coeffs, prec=None):
    return LaurentSeries.make(
        field, v, [field.elem(c) if isinstance(c, int) else c for c in coeffs], prec
    )


def form(field, v, coeffs, prec):
    return Form(series(field, v, coeffs, prec))


def random_char(rng, field, coeff, swan=None, tame=None):
    c_pi = coeff.elem(rng.randrange(1, coeff.ell))
    if tame is None:
        tame = rng.randrange(field.q - 1) if field.q > 2 else 0
    n = rng.randrange(0, 4) if swan is None else swan
    if n:
        coeffs = [field.from_index(rng.randrange(1, field.q))] + [
            field.from_index(rng.randrange(field.q)) for _ in range(n - 1)
        ]
        h = LaurentSeries.make(field, -n, coeffs, 1)
    else:
        h = LaurentSeries.zero(field, 1)
    return LocalCharacter(field, coeff, c_pi, tame, h)


def random_form(rng, field, rel, vmin=-2, vmax=2):
    v = rng.randrange(vmin, vmax + 1)
    coeffs = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(rel - 1)]
    return form(field, v, [field.from_index(c) for c in coeffs], v + rel)


def rat(field, num, den=(1,)):
    return RationalFunction(Poly(field, list(num)), Poly(field, list(den)))


# ---------------------------------------------------------------------------
# 1. Gauss-sum calibration


def test_01_gauss_sum_calibration():
    """Quadratic character times the additive character on the punctured
    line, for q = 3, 5, 7: the global product formula holds exactly under
    two independent coefficient primes, and the degree-1 determinant
    coefficient equals the plainly summed character sum (no extra sign).
    Budget: under a second per base field."""
    for p in (3, 5, 7):
        start = time.perf_counter()
        field = fq_build(p, 1)
        q = field.q
        t = rat(field, [0, 1])
        spec = SheafSpec(
            field,
            wild=t,
            kummer=[(t, (q - 1) // 2)],
            punctures=[Point.rational(field, 0), Point.infinity(field)],
        )
        omega = rat(field, [1])
        coeff = coeff_setup(p, [q - 1])
        twin = second_ell(coeff, d_max=4)
        assert twin.ell != coeff.ell
        for cf in (coeff, twin):
            report = product_formula_check(spec, cf, omega)
            assert report["ok"], (p, cf.ell, report)
            assert report["degree"] == 1
            cs = GlobalComputation(spec, cf).cs
            direct = 0
            for u in map(field.from_index, range(field.q)):
                if u.is_zero():
                    continue
                direct += cf.psi(trace(u)) * cf.kummer_chi((q - 1) // 2, dlog(field, u.index()), q - 1)
            assert cs[1] == direct % cf.ell, (p, cf.ell)
        assert time.perf_counter() - start < 1.0, p


# ---------------------------------------------------------------------------
# 2. closed form against the unit-sum oracle


def test_02_closed_form_matches_unit_sum_oracle():
    """200 random wild characters and forms across q in {3, 4, 5, 7, 9},
    pole order up to 6 (even orders only where p is odd), tame exponent
    at most half the pole order: the stationary-phase closed form equals
    the unit-sum route exactly.  Budget: under a minute.

    The unit-sum enumeration is capped at 2**22 terms, so the form's
    valuation is clamped where q**(order + 1 + v) would cross the cap."""
    rng = random.Random(20260816)
    start = time.perf_counter()
    max_levels = {3: 13, 4: 11, 5: 9, 7: 7, 9: 6}
    done = 0
    seen_even = seen_max = False
    while done < 200:
        field, coeff = FIELDS[done % len(FIELDS)]
        cap_nu = max_levels[field.q]
        if field.p == 2:
            n = rng.choice([1, 3, 5])
        else:
            n = rng.randrange(1, min(6, cap_nu - 1) + 1)
        tame = rng.randrange(0, math.ceil(n / 2) + 1)
        chi = random_char(rng, field, coeff, swan=n, tame=tame)
        vmax = min(2, cap_nu - 1 - n)
        omega = random_form(rng, field, n + 4, vmin=-2, vmax=vmax)
        closed = eps_closed_form(chi, omega)
        sum_route = eps_tate(chi, omega)
        assert closed.value == sum_route.value, (field.q, n, done)
        assert closed.conductor_a_omega == sum_route.conductor_a_omega
        seen_even = seen_even or n % 2 == 0
        seen_max = seen_max or n == 6
        done += 1
    assert seen_even and seen_max
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3. change of 1-form


def test_03_change_of_form_identity():
    """Rescaling the form by any invertible series multiplies the factor
    by the character of the scale times q to its valuation: 100 random
    (character, form, scale) triples, ramified and unramified included."""
    rng = random.Random(31)
    ram = unram = 0
    for trial in range(100):
        field, coeff = FIELDS[trial % len(FIELDS)]
        if trial % 3 == 0:
            chi = LocalCharacter(field, coeff, coeff.elem(rng.randrange(1, coeff.ell)), 0)
        else:
            chi = random_char(rng, field, coeff)
        rel = chi.swan() + 4
        omega = random_form(rng, field, rel)
        va = rng.randrange(-2, 3)
        acoeffs = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(rel + 4)]
        alpha = series(field, va, [field.from_index(c) for c in acoeffs], va + rel + 5)
        kind = "star" if not chi.is_ramified() and rng.randrange(2) else "shriek"
        assert check_change_of_form(chi, omega, alpha, kind), (field.q, trial)
        if chi.is_ramified():
            ram += 1
        else:
            unram += 1
    assert ram >= 20 and unram >= 20


# ---------------------------------------------------------------------------
# 4. unramified twist


def test_04_unramified_twist_identity():
    """Twisting by an unramified character scales the factor by the twist
    value raised to the form-adjusted conductor: 100 random cases."""
    rng = random.Random(41)
    for trial in range(100):
        field, coeff = FIELDS[trial % len(FIELDS)]
        if trial % 4 == 0:
            chi = LocalCharacter(field, coeff, coeff.elem(rng.randrange(1, coeff.ell)), 0)
        else:
            chi = random_char(rng, field, coeff)
        omega = random_form(rng, field, chi.swan() + 3)
        c = coeff.elem(rng.randrange(1, coeff.ell))
        kind = "star" if not chi.is_ramified() and rng.randrange(2) else "shriek"
        assert check_unramified_twist(chi, omega, c, kind), (field.q, trial)


# ---------------------------------------------------------------------------
# 5. multiplicativity over direct sums


def test_05_direct_sum_multiplicativity():
    """Factors of formal direct sums multiply and conductors add: 50
    random mixes of generic characters (both extensions) and punctual
    parts with positive and negative multiplicities.  Each unramified
    piece is also split exactly — full extension against extension by
    zero plus the point stalk — and the split must not move the total."""
    rng = random.Random(51)
    for trial in range(50):
        field, coeff = FIELDS[trial % len(FIELDS)]
        parts = []
        split_parts = []
        for _ in range(rng.randrange(1, 3)):
            chi = random_char(rng, field, coeff)
            omega = random_form(rng, field, chi.swan() + 3)
            assert check_exact_sequence(chi, omega), (field.q, trial)
            m = rng.choice([-2, -1, 1, 2])
            res = eps_local(chi, omega, "shriek")
            parts.append((res, m))
            split_parts.append((res, m))
        for _ in range(rng.randrange(1, 3)):
            c_pi = coeff.elem(rng.randrange(1, coeff.ell))
            chi = LocalCharacter(field, coeff, c_pi, 0)
            omega = random_form(rng, field, 4)
            assert check_exact_sequence(chi, omega), (field.q, trial)
            m = rng.choice([-2, -1, 1, 2])
            parts.append((eps_local(chi, omega, "star"), m))
            split_parts.append((eps_local(chi, omega, "shriek"), m))
            split_parts.append((eps_punctual(coeff, [c_pi.value]), m))
        for _ in range(rng.randrange(0, 3)):
            eigs = [rng.randrange(1, coeff.ell) for _ in range(rng.randrange(1, 4))]
            m = rng.choice([-2, -1, 1, 2])
            parts.append((eps_punctual(coeff, eigs), m))
            split_parts.append((eps_punctual(coeff, eigs), m))
        total = eps_virtual(parts)
        value = coeff.one()
        a = aw = 0
        for res, m in parts:
            value = value * res.value ** m
            a += m * res.conductor_a
            aw += m * res.conductor_a_omega
        assert total.value == value and total.conductor_a == a
        assert total.conductor_a_omega == aw
        shuffled = parts[:]
        rng.shuffle(shuffled)
        again = eps_virtual(shuffled)
        assert again.value == total.value and again.conductor_a == total.conductor_a
        split = eps_virtual(split_parts)
        assert split.value == total.value, (field.q, trial)
        assert split.conductor_a == total.conductor_a
        assert split.conductor_a_omega == total.conductor_a_omega


# ---------------------------------------------------------------------------
# 6. randomized product-formula corpus


def _random_product_case(rng, p, n):
    """One random additive-times-multiplicative spec on the line with a
    finite puncture of degree up to 3, infinity always punctured, and a
    1-form with zeros and poles at points of degree up to 2."""
    base = fq_build(p, n)
    q = base.q
    max_deg = 3 if q <= 5 else 2
    dd = rng.randrange(1, max_deg + 1)
    fpol = rng.choice(monic_irreducibles(base, dd))
    finite = Point(base, fpol)
    punctures = [finite, Point.infinity(base)]
    fq_rat = RationalFunction.from_poly(fpol)
    if rng.randrange(2):
        k = rng.choice([1, 3] if p == 2 else [1, 2])
        wcoeffs = [base.from_index(rng.randrange(q)) for _ in range(k)]
        wcoeffs.append(base.from_index(rng.randrange(1, q)))
        wild = rat(base, wcoeffs)
    else:
        wild = rat(base, [base.from_index(rng.randrange(1, q))]) / fq_rat
    e = rng.randrange(1, q - 1)
    spec = SheafSpec(
        base,
        wild=wild,
        kummer=[(fq_rat, e)],
        punctures=punctures,
        unram=rng.choice([1, 1, 2, 3]),
    )
    omega = rat(base, [base.from_index(rng.randrange(1, q))])
    for _ in range(rng.randrange(1, 3)):
        g = rng.choice(monic_irreducibles(base, rng.randrange(1, 3)))
        ex = rng.choice([-2, -1, 1, 2])
        piece = RationalFunction.from_poly(g)
        for _ in range(abs(ex)):
            omega = omega * piece if ex > 0 else omega / piece
    degrees = {pt.degree() for pt in punctures}
    degrees.update(pt.degree() for pt, _m in divisor_points(omega))
    orders = sorted({q ** d - 1 for d in degrees})
    return spec, omega, orders, dd


def test_06_product_formula_corpus():
    """20 seeded random specs over q in {3, 4, 5, 7, 9}: the product
    formula and the determinant-degree audit pass exactly under two
    independent coefficient primes each.  Corpus covers finite ramified
    points of degrees 1 through 3 and always ramifies infinity.
    Budget: under five minutes."""
    rng = random.Random(61)
    start = time.perf_counter()
    bases = [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]
    deg_seen = set()
    for case in range(20):
        p, n = bases[case % len(bases)]
        spec, omega, orders, dd = _random_product_case(rng, p, n)
        deg_seen.add(dd)
        coeff = coeff_setup(p, orders, d_max=12)
        twin = second_ell(coeff, d_max=12)
        for cf in (coeff, twin):
            report = product_formula_check(spec, cf, omega)
            assert report["ok"], (p, n, case, cf.ell, report)
            audit = verify_gos(spec, cf)
            assert audit["ok"], (p, n, case, cf.ell, audit)
    assert deg_seen == {1, 2, 3}
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 7. transfer constants of covers


def test_07_cover_transfer_constants():
    """Pushforwards along y -> y**e and the degree-p additive cover: the
    transfer constant read off the global determinant is the same for
    at least five upstairs tame twists (three for the additive cover),
    the conductor matches the local prediction, and for e = 2 the
    constant is the quadratic Gauss constant over q."""
    C9 = coeff_setup(3, [8])
    C25 = coeff_setup(5, [24])
    C49 = coeff_setup(7, [48])
    F25 = fq_build(5, 2)
    F49 = fq_build(7, 2)
    cases = [
        (C9, F9, 2, list(range(8))),
        (C25, F25, 2, [0, 1, 2, 3, 5, 7]),
        (C49, F49, 2, [0, 1, 5, 11, 23, 31]),
        (C25, F25, 3, [0, 1, 2, 3, 5, 7]),
        (C7, F7, 3, [0, 1, 2, 3, 4, 5]),
    ]
    for coeff, base, e, exponents in cases:
        assert len(exponents) >= 5
        report = induction_power_cover(coeff, base, e, exponents=exponents)
        assert report["all_equal"], (base.q, e, report)
        assert report["conductor_ok"], (base.q, e)
        assert report["matches_prediction"], (base.q, e, report)
        assert report["ok"]
    wild = induction_wild_cover(C73, p=3)
    assert len(wild["variants"]) >= 3
    assert wild["all_equal"] and wild["conductor_ok"] and wild["ok"]


# ---------------------------------------------------------------------------
# 8. twisted-group transfer suite


def test_08_twisted_group_suite():
    """Cocycle, twisted-algebra, and transfer identities over the group
    zoo: exhaustive on every group of order up to 12, at least 100
    randomized cases on the groups of orders 13 through 24."""
    report = run_twisted_suite(C73, seed=816, min_randomized=100)
    assert report["ok"], report["failures"][:3]
    counts = report["counts"]
    assert counts["randomized"] >= 100
    assert counts["exhaustive_pairs"] >= 80
    assert counts["cocycles"] >= 19


# ---------------------------------------------------------------------------
# 9. quadratic Gauss constant


def test_09_quadratic_gauss_constant_properties():
    """For every odd prime power q up to 81 and every nonzero scale c:
    the ratio of quadratic Gauss constants is the quadratic character of
    c (exhaustive), and every complex embedding has modulus sqrt(q) to
    within 1e-9."""
    sizes = []
    for q in range(3, 82, 2):
        p = min(f for f in range(2, q + 1) if q % f == 0)
        n = 0
        m = q
        while m > 1:
            if m % p:
                break
            m //= p
            n += 1
        if m == 1 and n >= 1:
            sizes.append((q, p, n))
    assert len(sizes) == 26
    for q, p, n in sizes:
        field = fq_build(p, n)
        coeff = coeff_setup(p, [q - 1])
        base = gamma_psi(coeff, field, 1)
        e = (q - 1) // 2
        for c in range(1, field.q):
            assert gamma_psi(coeff, field, c) == coeff.kummer_chi(e, dlog(field, c), q - 1) * base % coeff.ell, (q, c)
            modulus = abs(root_sum([-k for k in gamma_counts(field, c)], p))
            assert abs(modulus - math.sqrt(q)) < 1e-9, (q, c)


# ---------------------------------------------------------------------------
# 10. deterministic reports


def test_10_deterministic_reports(tmp_path):
    """Re-running every report-producing command on the same input (and
    twisted-check at the same seed) gives byte-identical JSON across three
    reruns; no report carries a timing block, and only twisted-check's
    names a seed."""
    from importlib import resources

    bundled_spec = str(resources.files("epsilon_lab").joinpath("data", "product_spec.json"))
    commands = [
        ["gauss", "--p", "7", "--q", "7", "--c", "3"],
        ["eps-local", "--kind", "j!"],
        ["eps-global", "--spec", bundled_spec],
        ["product-check", "--second-ell"],
        ["induction-check"],
        ["twisted-check", "--trials", "25", "--seed", "9"],
    ]
    for idx, argv in enumerate(commands):
        outs = []
        for tag in "abc":
            path = tmp_path / f"report_{idx}_{tag}.json"
            code = cli_main(argv + ["--json-out", str(path)])
            assert code == 0, (argv, code)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2], argv
        report = json.loads(outs[0])
        assert "timings" not in report and ("seed" in report) == (argv[0] == "twisted-check"), argv
