"""Coefficient field selection, character values, root-sum display."""

import cmath
import random

import pytest
from hypothesis import given, settings, strategies as st

from epsilon_lab.coeff import coeff_setup, pinned_ell, root_sum, second_ell
from epsilon_lab.gf import _is_prime, _prime_factors, dlog, fq_build, trace


def zeta_pM(field):
    """The pinned root of order p*M: p and M are coprime (M is a lcm of
    numbers q - 1 with q a p power), so zeta_p * zeta_M has that order."""
    return field.zeta_p * field.zeta_M % field.ell


def zeta(field, m):
    """A fixed primitive m-th root of unity, for m dividing p*M."""
    if m <= 0 or (field.p * field.M) % m != 0:
        raise ValueError("order %d is not tracked by this field" % m)
    return field.elem(pow(zeta_pM(field), (field.p * field.M) // m, field.ell))


def symbolic_value(counts, order, field):
    """The residue of a root sum under the field's pinned root zeta_pM."""
    if field.p * field.M != order:
        raise ValueError("symbolic order does not match the field")
    return field.elem(sum(c * pow(zeta_pM(field), e, field.ell) for e, c in enumerate(counts)))


def chi_at(c, e, x):
    """kummer_chi at the field element x, read through its log."""
    return c.kummer_chi(e, dlog(x.field, x.index()), x.field.q - 1)


def test_setup_examples():
    f = coeff_setup(3, [8], 10)
    assert f.ell == 73
    assert f.zeta_p == 8
    f2 = coeff_setup(2, [1], 4)
    assert f2.ell == 5
    # orders near the cap: ell is about 2^50, its primality a few modular powers
    f3 = coeff_setup(3, [16777213, 16777207])
    assert f3.ell == 1688848652304547 and f3.h == 2


def _trial_factors(n):
    """The distinct primes of n by plain trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _oracle_h(ell, fac=None):
    """The smallest primitive root mod ell, from fac, the primes of ell - 1,
    trial-divided when not given."""
    fac = fac or _trial_factors(ell - 1)
    return next(h for h in range(2, ell) if all(pow(h, (ell - 1) // r, ell) != 1 for r in fac))


# primes near 2^30 and 2^28, each checked by trial division below
P30, Q30 = 1073741827, 1073742851
P28, Q28 = 268435459, 268436167


def test_prime_factors_match_trial_division():
    assert all(_trial_factors(r) == [r] for r in (P30, Q30, P28, Q28))
    known = {
        1: [],
        41 ** 2: [41],
        41 ** 3: [41],
        1000003 ** 2: [1000003],
        561: [3, 11, 17],
        41041: [7, 11, 13, 41],
        2 ** 59 * 3: [2, 3],
        2 ** 61 - 1: [2 ** 61 - 1],
        (2 ** 31 - 1) ** 2: [2 ** 31 - 1],
        2 * P30 * Q30: [2, P30, Q30],
        6 * P28 * Q28: [2, 3, P28, Q28],
    }
    for n, primes in known.items():
        assert _prime_factors(n) == primes, n
    rng = random.Random(36)
    # products of two primes above 40 leave rho a composite to split
    for n in [rng.randrange(1, 1 << 32) for _ in range(300)] + [
        rng.randrange(41, 1 << 15) * rng.randrange(41, 1 << 15) for _ in range(300)
    ]:
        assert _prime_factors(n) == _trial_factors(n), n


def _pinned_6pq(rng, count):
    """(ell, [2, 3, P, Q]) with ell = 6 P Q + 1 prime and P < Q primes near
    2^28, found by _is_prime and checked by trial division; the first is
    432346714205073919."""
    out, P, Q = [], P28, Q28
    while len(out) < count:
        ell = 6 * P * Q + 1
        if _is_prime(ell):
            assert _trial_factors(P) == [P] and _trial_factors(Q) == [Q]
            out.append((ell, [2, 3, P, Q]))
        P = next(r for r in range(rng.randrange(1 << 28, (1 << 28) + (1 << 20)), 1 << 29) if _is_prime(r))
        Q = next(r for r in range(P + 1, 1 << 29) if _is_prime(r))
    return out


def test_primitive_root_matches_trial_division_on_a_seeded_sweep():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        orders = [o for o in (rng.randrange(1, 5000) for _ in range(rng.randrange(1, 3))) if o % p] or [1]
        f = coeff_setup(p, orders)
        g = second_ell(f)
        for field in (f, g, pinned_ell(f, g.ell)):
            assert field.h == _oracle_h(field.ell), (p, orders, field.ell)
    # ell - 1 = 24 * 16777199 * 16777213, orders near the cap
    f = coeff_setup(3, [16777213, 16777199])
    assert f.ell == 6755391387993289 and f.h == _oracle_h(f.ell, [2, 3, 16777199, 16777213]) == 11
    # pinned primes whose ell - 1 has two primes near 2^28 past 2 and 3
    base = coeff_setup(3, [2])
    pinned = _pinned_6pq(rng, 6)
    assert pinned[0][0] == 432346714205073919
    for ell, fac in pinned:
        assert pinned_ell(base, ell).h == _oracle_h(ell, fac), ell


def test_roots_have_exact_order():
    f = coeff_setup(3, [8], 10)
    assert pow(f.zeta_p, 3, f.ell) == 1 and f.zeta_p != 1
    assert pow(f.zeta_M, 8, f.ell) == 1
    for d in (2, 4):
        assert pow(f.zeta_M, d, f.ell) != 1
    z6 = zeta(f, 6)
    assert (z6 ** 6).value == 1 and (z6 ** 2).value != 1 and (z6 ** 3).value != 1


def test_second_ell_advances():
    f = coeff_setup(3, [8], 10)
    g = second_ell(f, 10)
    assert g.ell > f.ell and g.ell % 24 == 1
    assert g.p == 3 and g.M == 8


def test_psi_is_additive_character():
    f = coeff_setup(3, [2], 4)
    vals = [f.psi(t) for t in range(3)]
    assert vals[0] == 1 and vals[1] != 1
    for a in range(3):
        for b in range(3):
            assert f.psi(a) * f.psi(b) % f.ell == f.psi(a + b)


def test_psi_trace_on_extension():
    # psi of the absolute trace is an additive character of F_9, and not
    # the trivial one
    c = coeff_setup(3, [8], 4)
    f9 = fq_build(3, 2)
    elems = [f9.from_index(k) for k in range(9)]
    assert any(c.psi(trace(x)) != 1 for x in elems)
    for x in elems:
        for y in elems:
            assert c.psi(trace(x + y)) == c.psi(trace(x)) * c.psi(trace(y)) % c.ell


def test_kummer_chi_is_multiplicative():
    c = coeff_setup(3, [8], 4)
    f9 = fq_build(3, 2)
    for e in (1, 3, 5):
        for i in range(1, 9):
            for j in range(1, 9):
                a = f9.gen() ** i
                b = f9.gen() ** j
                assert chi_at(c, e, a * b) == chi_at(c, e, a) * chi_at(c, e, b) % c.ell


def test_kummer_chi_quadratic():
    c = coeff_setup(3, [8], 4)
    f9 = fq_build(3, 2)
    squares = {(x * x).coeffs for x in map(f9.from_index, range(f9.q)) if not x.is_zero()}
    for x in map(f9.from_index, range(f9.q)):
        if x.is_zero():
            continue
        want = 1 if x.coeffs in squares else c.ell - 1
        assert chi_at(c, 4, x) == want


def test_kummer_chi_order_not_tracked():
    c = coeff_setup(3, [2], 4)
    f9 = fq_build(3, 2)
    with pytest.raises(ValueError):
        c.kummer_chi(1, 1, f9.q - 1)


def test_norm_compatibility_of_kummer_chi():
    # kummer_chi(e, norm(x)) == kummer_chi(e * (q_x-1)/(q-1), x) thanks to
    # the norm compatible generator of the residue field
    from epsilon_lab.gf import norm, residue_field

    c = coeff_setup(3, [2, 8], 4)
    base = fq_build(3, 1)
    big, emb = residue_field(base, 2)
    for e in (1, 2):
        for k in range(1, 9):
            x = big.gen() ** k
            lhs = chi_at(c, e, norm(x, emb))
            rhs = chi_at(c, e * (big.q - 1) // (base.q - 1), x)
            assert lhs == rhs


def test_symbolic_roundtrip():
    c = coeff_setup(3, [8], 4)
    s = [0, 2, 0, 0, 0, -1]
    v = symbolic_value(s, 24, c)
    assert v.value == (2 * zeta(c, 24).value - (zeta(c, 24) ** 5).value) % c.ell
    z = cmath.exp(2j * cmath.pi / 24)
    want = 2 * z - z ** 5
    got = root_sum(s, 24)
    assert abs(got - want) < 1e-12


@given(st.integers(0, 72), st.integers(0, 72))
@settings(max_examples=50, deadline=None)
def test_elem_ring_ops(a, b):
    c = coeff_setup(3, [8], 10)
    x, y = c.elem(a), c.elem(b)
    assert (x * y).value == (a * b) % 73
    assert (x ** 3).value == pow(a, 3, 73)
    if b % 73:
        assert c.elem(x.value * pow(y.value, -1, 73)) * y == x


@pytest.mark.parametrize("p, orders", [(3, [8]), (2, [3, 7])])
def test_pinned_ell_accepts_exactly_the_chosen_primes(p, orders):
    f = coeff_setup(p, orders)
    chosen = [f.ell]
    for _ in range(2):
        f = second_ell(f)
        chosen.append(f.ell)
    for ell in range(chosen[-1] + 1):
        if ell in chosen:
            assert pinned_ell(f, ell).ell == ell
        else:
            with pytest.raises(ValueError, match="ell=%d is not admissible" % ell):
                pinned_ell(f, ell)
