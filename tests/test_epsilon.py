"""Local factors: frozen values, fast versus definitional, identities."""

import random

import pytest

from epsilon_lab.coeff import coeff_setup, root_sum, second_ell
from epsilon_lab.gf import CapExceeded, dlog, fq_build, log_field, trace
from epsilon_lab.chars import LocalCharacter
from epsilon_lab.epsilon import (
    TATE_CAP,
    EpsilonResult,
    eps_closed_form,
    eps_local,
    eps_punctual,
    eps_tate,
    eps_tate_slow,
    eps_unramified,
    gamma_psi,
    _unit_rows,
)
from epsilon_lab.localfield import Form, LaurentSeries, PrecisionError
from local_props import (
    check_change_of_form,
    check_exact_sequence,
    check_local_duality,
    check_unramified_twist,
    eps_virtual,
)
from uniformizer import add, transport, transport_form

F3 = fq_build(3, 1)
F4 = fq_build(2, 2)
F5 = fq_build(5, 1)
F7 = fq_build(7, 1)
F9 = fq_build(3, 2)

C73 = coeff_setup(3, [8])
C5 = coeff_setup(5, [4])
C4 = coeff_setup(2, [3])
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


# ---------------------------------------------------------------------------
# frozen values


def test_frozen_quadratic_tate_value():
    chi = LocalCharacter(F3, C73, C73.one(), 1)
    dpi_over_pi = form(F3, -1, [1], 3)
    res = eps_tate(chi, dpi_over_pi)
    assert res.value == C73.elem(43)
    assert res.conductor_a == 1 and res.conductor_a_omega == 0
    dpi = form(F3, 0, [1], 3)
    assert eps_tate(chi, dpi).value == C73.elem(56)


def test_frozen_value_slow_route_agrees():
    chi = LocalCharacter(F3, C73, C73.one(), 1)
    dpi_over_pi = form(F3, -1, [1], 3)
    assert eps_tate_slow(chi, dpi_over_pi).value == C73.elem(43)


def test_tame_sum_shape():
    # a tame character against dt gives minus c_pi times a Gauss sum
    chi = LocalCharacter(F3, C73, C73.elem(7), 1)
    dpi = form(F3, 0, [1], 3)
    ell = C73.ell
    g = sum(pow(C73.kummer_chi(chi.tame_e, dlog(F3, u), F3.q - 1), -1, ell) * C73.psi(u) for u in (1, 2))
    assert eps_tate(chi, dpi).value.value == -chi.c_pi.value * g % ell


# ---------------------------------------------------------------------------
# fast versus definitional, choice independence


def test_fast_matches_slow():
    rng = random.Random(101)
    for field, coeff in FIELDS:
        for _ in range(6):
            chi = random_char(rng, field, coeff)
            if not chi.is_ramified():
                chi = LocalCharacter(field, coeff, chi.c_pi, 1, chi.wild_h) if field.q > 2 else random_char(rng, field, coeff, swan=1)
            rel = chi.swan() + 3
            omega = random_form(rng, field, rel)
            fast = eps_tate(chi, omega)
            slow = eps_tate_slow(chi, omega)
            assert fast.value == slow.value
            assert fast.conductor_a == slow.conductor_a
            assert fast.conductor_a_omega == slow.conductor_a_omega


def test_sum_independent_of_normalizer():
    rng = random.Random(7)
    chi = random_char(rng, F3, C73, swan=2)
    omega = random_form(rng, F3, 6)
    want = eps_tate_slow(chi, omega).value
    for _ in range(10):
        width = 6
        coeffs = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(width - 1)]
        c_unit = series(F3, 0, [F3.from_index(c) for c in coeffs], width)
        assert eps_tate_slow(chi, omega, c_unit=c_unit).value == want


def test_unramified_rejected_by_sum():
    chi = LocalCharacter(F3, C73, C73.elem(5), 0)
    with pytest.raises(ValueError):
        eps_tate(chi, form(F3, 0, [1], 3))


def test_cap_guard():
    chi = LocalCharacter(F9, C73, C73.one(), 0, series(F9, -8, [1] + [0] * 7, 1))
    with pytest.raises(CapExceeded):
        eps_tate(chi, form(F9, 0, [1], 12))


# ---------------------------------------------------------------------------
# closed form for wild characters


def test_closed_form_matches_sum():
    # every swan a reduced datum can have with q**(swan + 1) <= 3**8, with
    # and without a tame part
    rng = random.Random(33)
    fields = [(fq_build(2, 1), C4), (F3, C73), (F4, C4), (F5, C5), (F7, C7), (F9, C73),
              (fq_build(2, 3), coeff_setup(2, [7])), (fq_build(2, 4), coeff_setup(2, [15])),
              (fq_build(5, 2), coeff_setup(5, [24])), (fq_build(3, 3), coeff_setup(3, [26]))]
    for field, coeff in fields:
        q = field.q
        for n in range(1, 12):
            if n % field.p == 0 or q ** (n + 1) > 3 ** 8:
                continue
            for tame in {0, rng.randrange(1, q - 1) if q > 2 else 0}:
                chi = random_char(rng, field, coeff, swan=n, tame=tame)
                assert chi.swan() == n
                omega = random_form(rng, field, n + 4)
                closed = eps_closed_form(chi, omega)
                sum_route = eps_tate(chi, omega)
                assert closed.value == sum_route.value, (q, n, tame)
                assert closed.conductor_a_omega == sum_route.conductor_a_omega


def test_closed_form_guards():
    tame = LocalCharacter(F3, C73, C73.one(), 1)
    with pytest.raises(ValueError):
        eps_closed_form(tame, form(F3, 0, [1], 4))
    # chi reads w / h' to swan + 1 coefficients past its valuation: a form
    # known to swan coefficients, or zero to precision, is refused with the
    # messages of LocalCharacter.__call__ and LaurentSeries.valuation
    chi = LocalCharacter(F5, C5, C5.one(), 1, series(F5, -2, [1, 3], 1))
    with pytest.raises(PrecisionError, match="^character needs 3 coefficients, series has 2$"):
        eps_closed_form(chi, form(F5, 1, [2, 4], 3))
    with pytest.raises(PrecisionError, match="^series is zero to precision 4, valuation unknown$"):
        eps_closed_form(chi, Form(LaurentSeries.zero(F5, 4)))


def test_a_zero_form_is_refused_alike_by_every_engine():
    # the refusal names the form's own window, whichever engine was asked,
    # not the window of w / h' that the closed form reads
    chi = LocalCharacter(F5, C5, C5.one(), 1, series(F5, -2, [1, 3], 1))
    messages = set()
    for method in ("auto", "tate", "tate_slow", "closed"):
        with pytest.raises(PrecisionError) as err:
            eps_local(chi, Form(LaurentSeries.zero(F5, 4)), "shriek", method)
        messages.add(str(err.value))
    assert messages == {"series is zero to precision 4, valuation unknown"}


def test_char_two_wild_reduces_to_odd_swan():
    # in characteristic 2 every even pole order is removable, so the even
    # branch of the closed form can never trigger on reduced data
    rng = random.Random(3)
    for field in (F4, fq_build(2, 1), fq_build(2, 3)):
        coeff = C4
        for _ in range(12):
            n = rng.randrange(1, 7)
            coeffs = [field.from_index(rng.randrange(1, field.q))] + [
                field.from_index(rng.randrange(field.q)) for _ in range(n - 1)
            ]
            h = LaurentSeries.make(field, -n, coeffs, 1)
            chi = LocalCharacter(field, coeff, coeff.one(), 0, h)
            assert chi.swan() % 2 == 1 or chi.swan() == 0


# ---------------------------------------------------------------------------
# unramified and punctual objects


def test_unramified_values():
    chi = LocalCharacter(F3, C73, C73.elem(5), 0)
    omega = form(F3, 2, [1, 1, 1], 6)
    star = eps_unramified(chi, omega, "star")
    shriek = eps_unramified(chi, omega, "shriek")
    assert star.value == (C73.elem(5) * C73.elem(3)) ** 2
    assert star.conductor_a == 0 and star.conductor_a_omega == 2
    assert shriek.value == C73.elem(5) ** 3 * C73.elem(3) ** 2
    assert shriek.conductor_a == 1 and shriek.conductor_a_omega == 3


def test_eps_local_refuses_an_unknown_kind_or_method():
    # checked before the dispatch: a ramified character once took any kind,
    # and an unramified one any method
    omega = form(F3, -1, [1], 3)
    for chi in (LocalCharacter(F3, C73, 5, 0), LocalCharacter(F3, C73, 1, 1)):
        with pytest.raises(ValueError, match="kind must be"):
            eps_local(chi, omega, "bogus")
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            eps_local(chi, omega, "shriek", "bogus")


def test_punctual_values():
    res = eps_punctual(C73, [5, 7])
    assert res.value == (C73.elem(5) * C73.elem(7)) ** -1
    assert res.conductor_a == -2 and res.conductor_a_omega == -2


def test_virtual_sum():
    a = eps_punctual(C73, [5])
    b = eps_punctual(C73, [7])
    both = eps_virtual([(a, 1), (b, 2)])
    assert both.value == a.value * b.value ** 2
    assert both.conductor_a == -3


# ---------------------------------------------------------------------------
# identities


@pytest.mark.parametrize("method", ["auto", "tate"])
def test_change_of_form_identity(method):
    rng = random.Random(55)
    for field, coeff in FIELDS:
        for _ in range(4):
            chi = random_char(rng, field, coeff)
            rel = chi.swan() + 4
            omega = random_form(rng, field, rel)
            va = rng.randrange(-2, 3)
            acoeffs = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(rel + 4)]
            alpha = series(field, va, [field.from_index(c) for c in acoeffs], va + rel + 5)
            kind = "star" if not chi.is_ramified() and rng.randrange(2) else "shriek"
            assert check_change_of_form(chi, omega, alpha, kind, method)


@pytest.mark.parametrize("method", ["auto", "tate"])
def test_unramified_twist_identity(method):
    rng = random.Random(77)
    for field, coeff in FIELDS:
        for _ in range(4):
            chi = random_char(rng, field, coeff)
            omega = random_form(rng, field, chi.swan() + 3)
            c = coeff.elem(rng.randrange(1, coeff.ell))
            kind = "star" if not chi.is_ramified() and rng.randrange(2) else "shriek"
            assert check_unramified_twist(chi, omega, c, kind, method)


@pytest.mark.parametrize("method", ["auto", "tate"])
def test_exact_sequence_multiplicativity(method):
    rng = random.Random(99)
    for field, coeff in FIELDS:
        unram = LocalCharacter(field, coeff, coeff.elem(rng.randrange(1, coeff.ell)), 0)
        omega = random_form(rng, field, 4)
        assert check_exact_sequence(unram, omega, method)
        ram = random_char(rng, field, coeff, swan=2)
        assert check_exact_sequence(ram, omega, method)


@pytest.mark.parametrize("method", ["tate", "tate_slow", "closed"])
def test_local_duality(method):
    # ramified characters, wild only for the closed form, each field under
    # two coefficient primes, v(omega) from -3 to 3
    rng = random.Random("duality " + method)
    cases = 0
    for field, coeff in FIELDS:
        for c in (coeff, second_ell(coeff)):
            for _ in range(8):
                chi = random_char(rng, field, c, swan=rng.randrange(method == "closed", 4))
                if not chi.swan() and (method == "closed" or not chi.is_ramified()):
                    continue
                if field.q ** (chi.swan() + 1) > 3000:
                    continue
                omega = random_form(rng, field, chi.swan() + 3, vmin=-3, vmax=3)
                assert check_local_duality(chi, omega, method), (field.q, c.ell, chi.swan(), omega.w.valuation())
                cases += 1
    assert cases >= 40


def test_dispatch_routes():
    chi = LocalCharacter(F3, C73, C73.one(), 1, series(F3, -1, [1], 1))
    omega = form(F3, 0, [1, 1, 2, 1], 5)
    values = {
        eps_local(chi, omega, method=m).value.value
        for m in ("auto", "tate", "tate_slow", "closed")
    }
    assert len(values) == 1
    # auto takes the closed form for every wild character and walks a tame
    # one, with the value of the walk and of the definitional sum
    rng = random.Random(130)
    F27 = fq_build(3, 3)
    C27 = coeff_setup(3, [26])
    cases = [(F3, C73, 0), (F9, C73, 0), (F7, C7, 0), (F3, C73, 1), (F27, C27, 1), (F4, C4, 1),
             (F3, C73, 2), (F7, C7, 2), (F9, C73, 2), (F4, C4, 3), (F5, C5, 3), (F3, C73, 4), (F3, C73, 5)]
    for field, coeff, swan in cases:
        chi = random_char(rng, field, coeff, swan=swan, tame=1)
        assert chi.swan() == swan
        omega = random_form(rng, field, swan + 4)
        auto = eps_local(chi, omega)
        walk = eps_local(chi, omega, method="tate")
        slow = eps_local(chi, omega, method="tate_slow")
        assert auto.method == ("closed_form" if swan else "tate"), (field.q, swan)
        for other in (walk, slow):
            assert (auto.value, auto.conductor_a_omega) == (other.value, other.conductor_a_omega)


def _window(omega, n):
    """The form cut to n coefficients past its valuation."""
    w = omega.w
    return Form(LaurentSeries.of(w.field, w.v, w.coeffs, w.v + n))


@pytest.mark.parametrize("method", ["tate", "tate_slow", "closed"])
def test_ramified_factor_reads_the_form_to_the_conductor(method):
    # change of form: eps(chi, w) depends on w only through its first
    # a(chi) coefficients, and every engine needs all of them
    rng = random.Random("window " + method)
    for field, coeff in FIELDS:
        # a reduced wild datum has no pole order divisible by p
        for swan in [s for s in range(1 if method == "closed" else 0, 4) if s % field.p or not s]:
            if field.q ** (swan + 1) > 729:
                break
            chi = random_char(rng, field, coeff, swan=swan)
            while not chi.is_ramified() or chi.swan() != swan:
                chi = random_char(rng, field, coeff, swan=swan)
            a = chi.artin_a("shriek")
            omega = random_form(rng, field, a + 3)
            want = eps_local(chi, omega, "shriek", method)
            got = eps_local(chi, _window(omega, a), "shriek", method)
            assert (got.value, got.conductor_a_omega) == (want.value, want.conductor_a_omega)
            with pytest.raises(PrecisionError):
                eps_local(chi, _window(omega, a - 1), "shriek", method)


@pytest.mark.parametrize("kind", ["star", "shriek"])
def test_unramified_factor_reads_the_valuation_alone(kind):
    rng = random.Random("window " + kind)
    for field, coeff in FIELDS:
        for _ in range(3):
            chi = LocalCharacter(field, coeff, coeff.elem(rng.randrange(1, coeff.ell)), 0)
            omega = random_form(rng, field, 4)
            want = eps_local(chi, omega, kind)
            got = eps_local(chi, _window(omega, 1), kind)
            assert (got.value, got.conductor_a_omega) == (want.value, want.conductor_a_omega)


# ---------------------------------------------------------------------------
# uniformizer independence


@pytest.mark.parametrize("method", ["auto", "tate"])
def test_epsilon_uniformizer_independent(method):
    rng = random.Random(202)
    done = 0
    while done < 20:
        field, coeff = FIELDS[rng.randrange(len(FIELDS))]
        chi = random_char(rng, field, coeff)
        rel = chi.swan() + 5
        omega = random_form(rng, field, rel)
        width = chi.swan() + abs(omega.w.valuation()) + 10
        ucoeffs = [rng.randrange(1, field.q)] + [rng.randrange(field.q) for _ in range(width - 1)]
        s = series(field, 1, [field.from_index(c) for c in ucoeffs], 1 + width)
        moved_chi = transport(chi, s)
        moved_omega = transport_form(omega, s)
        kind = "shriek" if chi.is_ramified() or rng.randrange(2) else "star"
        lhs = eps_local(chi, omega, kind, method)
        rhs = eps_local(moved_chi, moved_omega, kind, method)
        assert lhs.value == rhs.value
        assert lhs.conductor_a_omega == rhs.conductor_a_omega
        done += 1


# ---------------------------------------------------------------------------
# quadratic Gauss constant


def test_gamma_ratio_is_quadratic_character():
    for field, coeff in ((F3, C73), (F5, C5), (F7, C7), (F9, C73)):
        base = gamma_psi(coeff, field, 1)
        e = (field.q - 1) // 2
        for c in range(1, field.q):
            assert gamma_psi(coeff, field, c) == coeff.kummer_chi(e, dlog(field, c), field.q - 1) * base % coeff.ell


def test_gamma_square():
    for field, coeff in ((F3, C73), (F5, C5), (F7, C7)):
        g = gamma_psi(coeff, field, 1)
        e = (field.q - 1) // 2
        quad_minus = coeff.kummer_chi(e, dlog(field, field.elem(-1).index()), field.q - 1)
        assert g * g % coeff.ell == quad_minus * field.q % coeff.ell


def test_gamma_modulus_sqrt_q():
    from epsilon_lab.epsilon import gamma_counts

    for field in (F3, F5, F9, F7):
        for c in range(1, field.q):
            z = root_sum([-k for k in gamma_counts(field, c)], field.p)
            assert abs(abs(z) - field.q ** 0.5) < 1e-9


def test_gamma_guards():
    with pytest.raises(ValueError):
        gamma_psi(C4, F4, 1)
    with pytest.raises(ValueError):
        gamma_psi(C73, F3, 0)


# ---------------------------------------------------------------------------
# the unit sum on the field tables


def _extra_cases():
    """(p, n, swan, tame, v(omega)) over fields FIELDS lacks, with
    q**(swan + 1) <= 3000 so that the definitional sum stays quick."""
    out = []
    for p, n in ((2, 1), (2, 3), (2, 4), (5, 2), (3, 3), (7, 2)):
        q = p ** n
        for swan in range(4):
            if q ** (swan + 1) > 3000:
                break
            for tame in (0, 1) if q > 2 else (0,):
                if swan or tame:
                    out.extend((p, n, swan, tame, v) for v in (-1, 0, 2))
    return out


@pytest.mark.parametrize("p, n, swan, tame, v", _extra_cases())
def test_fast_matches_slow_on_more_fields(p, n, swan, tame, v):
    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    rng = random.Random("%d %d %d %d %d" % (p, n, swan, tame, v))
    if tame:
        tame = rng.randrange(1, field.q - 1)
    chi = random_char(rng, field, coeff, swan=swan, tame=tame)
    while not chi.is_ramified():  # an even pole in characteristic 2 can reduce away
        chi = random_char(rng, field, coeff, swan=swan, tame=tame)
    omega = random_form(rng, field, swan + 3, vmin=v, vmax=v)
    fast = eps_tate(chi, omega)
    slow = eps_tate_slow(chi, omega)
    assert fast.value == slow.value
    assert fast.conductor_a == slow.conductor_a
    assert fast.conductor_a_omega == slow.conductor_a_omega


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)])
def test_unit_rows_match_character_calls(p, n):
    # every level's row against the series route chi**-1(1 + G**f pi**i);
    # reduced swans are prime to p, and levels with p | i are rows of ones
    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    logs = log_field(field)
    psi_pow = [coeff.psi(t) for t in range(p)]
    rng = random.Random("rows %d %d" % (p, n))
    constant_levels = 0
    for swan in [s for s in range(1, 8) if s % p]:
        inv = random_char(rng, field, coeff, swan=swan).inverse()
        assert inv.swan() == swan
        nu = swan + 1
        rows = _unit_rows(inv, nu, logs, psi_pow)
        assert len(rows) == swan
        for i, row in enumerate(rows, 1):
            want = [
                inv(series(field, 0, [1] + [0] * (i - 1) + [field.from_index(logs.exp[f])], nu))
                for f in range(field.q - 1)
            ]
            assert row == want, (swan, i)
            if i % p == 0:
                assert set(row) == {1}
                constant_levels += 1
    assert constant_levels > 0 or p == 7  # at p = 7 the largest swan here is 6


def _rows_by_generator(inv, nu, logs, psi_pow):
    """_unit_rows entry by entry: the residue formula summed by a generator
    for each level i and each f."""
    log, tr, m = logs.log, logs.trace, logs.order
    h, p = inv.wild_h, inv.field.p
    T = []
    for i in range(1, nu):
        a = [(t, log[h.at(-i * t)], log[i * (-1) ** (t - 1) % p]) for t in range(1, (nu - 1) // i + 1)]
        a = [(t, (l + s) % m) for t, l, s in a if l >= 0 and s >= 0]
        T.append([psi_pow[sum(tr[(l + t * f) % m] for t, l in a) % p] for f in range(m)])
    return T


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (11, 1), (13, 2)])
def test_unit_rows_match_the_residue_formula(p, n):
    # the strided slices against the per-entry sum, swans to 11 and up to
    # the walk's 2^10 table line
    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    logs = log_field(field)
    psi_pow = [coeff.psi(t) for t in range(p)]
    rng = random.Random("slices %d %d" % (p, n))
    for swan in [s for s in range(1, 12) if s % p][:6]:
        inv = random_char(rng, field, coeff, swan=swan).inverse()
        assert _unit_rows(inv, swan + 1, logs, psi_pow) == _rows_by_generator(inv, swan + 1, logs, psi_pow), swan


def test_eps_tate_makes_no_character_calls(monkeypatch):
    # the rows come from the tables: no series is evaluated per unit
    rng = random.Random(15)
    chi = random_char(rng, F5, C5, swan=3, tame=2)
    omega = random_form(rng, F5, 6)
    want = eps_tate_slow(chi, omega).value
    calls = []
    plain = LocalCharacter.__call__

    def counted(self, x):
        calls.append(x)
        return plain(self, x)

    monkeypatch.setattr(LocalCharacter, "__call__", counted)
    assert eps_tate(chi, omega).value == want
    assert calls == []


@pytest.mark.parametrize("p, n", [(2, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 5)])
def test_swan_one_sum_is_one_correlation(monkeypatch, p, n):
    # at swan 1 the walk reads one entry of the last level's correlation,
    # W[0] the log of the second coefficient of omega: -1 (zero), 0 (one) or
    # random
    from epsilon_lab import epsilon

    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    rng = random.Random("swan1 %d %d" % (p, n))
    products = []
    plain = epsilon.mul

    def counted(x, y):
        products.append(1)
        return plain(x, y)

    monkeypatch.setattr(epsilon, "mul", counted)
    for second in (0, 1, None):
        for v in (-1, 0, 2):
            chi = random_char(rng, field, coeff, swan=1)
            omega = random_form(rng, field, 4, vmin=v, vmax=v)
            if second is not None:
                fix = field.elem(second) + (-omega.w.coeff(v + 1))
                omega = Form(add(omega.w, LaurentSeries.pi_power(field, v + 1, v + 4) * fix))
                assert omega.w.coeff(v + 1) == field.elem(second) and omega.w.valuation() == v
            del products[:]
            got = eps_tate(chi, omega)
            assert len(products) == field.q - 1
            want = eps_closed_form(chi, omega)
            assert got.value == want.value and got.conductor_a_omega == want.conductor_a_omega


def _refused_before_any_table(monkeypatch, chi, omega, message):
    """eps_local refuses chi with message, and builds no table first."""
    from epsilon_lab import gf
    from epsilon_lab.gf import _TABLE_CACHE

    builds = []
    plain = gf.LogField.__init__

    def counting(self, f):
        builds.append(f.q)
        plain(self, f)

    monkeypatch.setattr(gf.LogField, "__init__", counting)
    cached = len(_TABLE_CACHE)
    with pytest.raises(CapExceeded, match=message):
        eps_local(chi, omega)
    assert builds == [] and len(_TABLE_CACHE) == cached


@pytest.mark.parametrize("p, n", [(2, 11), (3, 7)])
def test_large_tame_refused_before_any_table(monkeypatch, p, n):
    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    chi = LocalCharacter(field, coeff, coeff.one(), 1)
    _refused_before_any_table(monkeypatch, chi, form(field, 0, [1], 3), r"tables for q=%d exceed 2\^10" % field.q)


@pytest.mark.parametrize("p, n, message", [
    (2, 11, r"tables for q=2048 exceed 2\^10"),
    (3, 7, r"unit sum would exceed %d terms" % TATE_CAP),
])
def test_large_wild_refused_before_any_table(monkeypatch, p, n, message):
    # auto refuses a wild character the walk would refuse, though the
    # closed form could answer it: q**2 is 2**22 over F_(2^11), at the unit
    # sum cap, and 3**14 is past it
    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    chi = LocalCharacter(field, coeff, coeff.one(), 1, series(field, -1, [1], 1))
    _refused_before_any_table(monkeypatch, chi, form(field, 0, [1, 0, 1], 4), message)


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
def test_gamma_counts_match_trace_count(p, n):
    from epsilon_lab.epsilon import gamma_counts

    field = fq_build(p, n)
    half = field.elem(pow(2, -1, p))
    for c in (field.one(), field.elem(-1), field.gen(), field.from_index(field.q - 2)):
        want = [0] * p
        for t in map(field.from_index, range(field.q)):
            want[trace(c * t * t * half)] += 1
        assert gamma_counts(field, c.index()) == tuple(want)


class _Untouchable:
    def __getitem__(self, key):
        raise AssertionError("the trace table was read again")


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_gamma_counts_are_kept_per_field(monkeypatch, p, n):
    # against the strided slice recounted per call, at every nonzero c; the
    # result is a tuple, and once the two per-parity tuples exist no call
    # reads the trace table again
    from collections import Counter

    from epsilon_lab.epsilon import gamma_counts

    field = fq_build(p, n)
    logs = log_field(field)
    for c in range(1, field.q):
        counts = Counter(logs.trace[(logs.log[c] - logs.log[2]) % 2 :: 2])
        got = gamma_counts(field, c)
        assert isinstance(got, tuple)
        assert got == tuple(2 * counts[e] + (e == 0) for e in range(p))
    kept = [gamma_counts(field, c) for c in range(1, field.q)]
    monkeypatch.setattr(logs, "trace", _Untouchable())
    assert [gamma_counts(field, c) for c in range(1, field.q)] == kept
