"""Polynomial helpers shared by the tests."""

from functools import lru_cache

from epsilon_lab.gf import _digits
from epsilon_lab.localfield import Poly, poly_is_irreducible


def x(field):
    """The polynomial x over field."""
    return Poly.of(field, [0, 1])


@lru_cache(maxsize=None)
def monic_irreducibles(field, d):
    """The monic irreducibles of degree d over field, in index order (the
    low coefficients are the base-q digits of the index), as the library's
    poly_is_irreducible finds them."""
    q = field.q
    monics = (Poly.of(field, _digits(idx, q, d) + [1]) for idx in range(q ** d))
    return tuple(f for f in monics if poly_is_irreducible(f))
