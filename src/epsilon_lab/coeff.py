"""Coefficient fields F_ell with pinned roots of unity.

All character values live in F_ell for a prime ell chosen so that one fixed
primitive root h yields compatible roots of unity: zeta_p = h**((ell-1)/p)
for the wild (additive character) values and zeta_M = h**((ell-1)/M) for the
tame ones, M being the lcm of every multiplicative order q_x - 1 in play.
Verdicts never rest on a single ell; engines re-run with a second one.

Inside the library a value is a plain int mod ell, and a field keeps no
side table; kummer_chi reads an F_q value as its log, so no field element
reaches this module.  CoeffElem is the boundary type, as FqElem is gf's: a
caller hands one in as a character's c_pi and reads one off an
EpsilonResult.  For display only, root_sum reads an integer combination of roots of unity
as a complex number.
"""

from __future__ import annotations

import cmath
import math

from .gf import FIELD_CAP, CapExceeded, Unsupported, _check_size, _is_prime, _prime_factors

# coeff_setup refuses a character order past FIELD_CAP - 1, and p is below
# FIELD_CAP, so one in-cap character has a step p*M below FIELD_CAP**2 (2^48).
# ELL_CAP leaves 2^12 multiples of that step for the smallest prime 1 mod it
# (for the 20000 largest primes p below FIELD_CAP, order p - 1 needs at most
# 155).  It bounds that scan: a coefficient prime past it, chosen or
# pinned, is refused, as no in-cap character needs one.  It bounds no
# factoring, since _prime_factors splits any ell - 1 by Pollard's rho.
ELL_CAP = FIELD_CAP * FIELD_CAP << 12


class CoeffField:
    """F_ell together with the pinned roots zeta_p and zeta_M, powers of
    h, the smallest primitive root mod ell; p*M divides ell - 1."""

    __slots__ = ("ell", "p", "M", "h", "zeta_p", "zeta_M")

    def __init__(self, ell, p, M):
        self.ell = ell
        self.p = p
        self.M = M
        self.h = h = _smallest_primitive_root(ell)
        self.zeta_p = pow(h, (ell - 1) // p, ell)
        self.zeta_M = pow(h, (ell - 1) // M, ell)

    def elem(self, v):
        return CoeffElem(self, v)

    def one(self):
        return CoeffElem(self, 1)

    def psi(self, t):
        """Additive character of F_p: t (an int) -> zeta_p**t."""
        return pow(self.zeta_p, t % self.p, self.ell)

    def kummer_chi(self, e, log, m):
        """zeta_m**(e log): the multiplicative character of a field with
        q - 1 = m on the element whose log to the generator is log.
        Requires m | M; e = m/2 gives the quadratic character."""
        if m < 1 or self.M % m:
            raise ValueError("multiplicative order %d is not tracked" % m)
        return pow(self.zeta_M, self.M // m * (e * log % m), self.ell)

    def __repr__(self):
        return "CoeffField(ell=%d, p=%d, M=%d)" % (self.ell, self.p, self.M)


class CoeffElem:
    """Element of F_ell at the boundary (a character's c_pi, an
    EpsilonResult's value); it keeps a caller's values to their field."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value % field.ell

    def __mul__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("values from different coefficient fields")
        return CoeffElem(self.field, self.value * other.value)

    def __pow__(self, e):
        if e < 0 and self.value == 0:
            raise ZeroDivisionError("inverse of zero")
        return CoeffElem(self.field, pow(self.value, e, self.field.ell))

    def __eq__(self, other):
        if not isinstance(other, CoeffElem):
            return NotImplemented
        if other.field is not self.field:
            raise ValueError("values from different coefficient fields")
        return self.value == other.value

    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return "CoeffElem(%d mod %d)" % (self.value, self.field.ell)


def root_sum(counts, order):
    """The sum of counts[e] * exp(2 pi i e / order), e from 0 up: an
    integer combination of roots of unity read as a complex number, for
    display only."""
    acc = 0j
    for e, c in enumerate(counts):
        acc += c * cmath.exp(2j * cmath.pi * e / order)
    return acc


def coeff_setup(p, orders, d_max=1):
    """Choose the coefficient prime and roots.

    M = lcm(orders), then ell is the smallest prime with ell = 1 mod p*M and
    ell > max(d_max, p*M); h is the smallest primitive root mod ell.  d_max
    is a plain lower bound on ell; nothing in the library needs it.  An
    order past FIELD_CAP - 1 is refused, as no character of a field under
    the field cap has one.
    """
    _check_size(p, 1)
    M = 1
    for o in orders:
        if o < 1:
            raise Unsupported("orders must be positive", field="orders")
        if o > FIELD_CAP - 1:
            raise CapExceeded(
                "character order %d exceeds %d, the field cap %d less one" % (o, FIELD_CAP - 1, FIELD_CAP)
            )
        M = M * o // math.gcd(M, o)
    if M % p == 0:
        raise Unsupported("orders must be prime to p", field="orders")
    return CoeffField(_admissible_ell(p * M, d_max, math.inf), p, M)


def second_ell(field, d_max=1):
    """The next admissible field after the given one; d_max is a plain lower bound on ell."""
    step = field.p * field.M
    return CoeffField(_admissible_ell(step, max(field.ell, d_max), math.inf), field.p, field.M)


def pinned_ell(field, ell):
    """The given field's p and M at a prime ell chosen by the caller;
    ell must pass the rule coeff_setup applies: prime, ell = 1 mod p*M and
    ell > p*M."""
    step = field.p * field.M
    if _admissible_ell(step, ell - 1, ell) != ell:
        raise ValueError(
            "ell=%d is not admissible (needs a prime > %d with ell = 1 mod %d)" % (ell, step, step)
        )
    return CoeffField(ell, field.p, field.M)


def _admissible_ell(step, bound, limit):
    """The smallest prime ell = 1 mod step with max(bound, step) < ell,
    or None when it exceeds limit: the one rule for coefficient primes.
    A prime past ELL_CAP, chosen or pinned (limit), is refused before any
    primality test."""
    ell = max(bound, step) + 1
    ell += (1 - ell) % step
    while True:
        # a pinned prime past the cap is refused whether or not it is 1 mod step
        if min(ell, limit) > ELL_CAP:
            raise CapExceeded("coefficient prime %d exceeds cap %d" % (min(ell, limit), ELL_CAP))
        if ell > limit:
            return None
        if _is_prime(ell):
            return ell
        ell += step


def _smallest_primitive_root(ell):
    """The least generator of F_ell^*: the least h with h**((ell - 1) / r)
    != 1 for every prime r of ell - 1, all of them from _prime_factors."""
    fac = _prime_factors(ell - 1)
    for h in range(2, ell):
        if all(pow(h, (ell - 1) // r, ell) != 1 for r in fac):
            return h
    raise ValueError("no primitive root, ell is not prime")

