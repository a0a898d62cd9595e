"""Two small covers of the line, for the tests of transfer constants.

Each builder sets up the upstairs data of one cover and its pulled back
1-form, and reads the transfer constants off the library's
curve.transfer_constants, the routine the induction-check command calls.
The power cover's predictions for e = 1, 2, 3 are a hard-coded table; the
wild cover has none.
"""

from epsilon_lab.curve import SheafSpec, transfer_constants
from epsilon_lab.epsilon import gamma_psi
from epsilon_lab.gf import fq_build
from epsilon_lab.localfield import Point, Poly, RationalFunction

import polys


def induction_power_cover(coeff, base, e, exponents=None):
    """Transfer factors of the degree e power map at the origin, with the
    coordinate differential downstream.

    For each multiplicative exponent k, the downstream factor at the
    origin is the inverted determinant of Frobenius on the compact
    cohomology of the upstairs data twisted by the pulled back
    exponential, and the transfer factor is its ratio against the
    upstairs local factor at the point over the origin taken with the
    pulled back form.  The ratio must not depend on k; for e = 1 it is 1,
    for e = 2 it is the quadratic sum constant at -2 divided by q, and
    for e = 3 it is 1/q.
    """
    q = base.q
    if e < 1 or e % base.p == 0:
        raise ValueError("cover degree must be positive and prime to p")
    if exponents is None:
        exponents = list(range(q - 1))
    y = RationalFunction.from_poly(polys.x(base))
    pts = [Point.rational(base, 0), Point.infinity(base)]
    pullback = RationalFunction.from_poly(Poly(base, [0] * e + [-1]))
    # e y**(e-1) dy is the pullback of dt along t = y**e
    form = RationalFunction.from_poly(Poly(base, [0] * (e - 1) + [e]))
    variants = [
        (
            SheafSpec(base, wild=pullback, kummer=[(y, k)], punctures=pts),
            SheafSpec(base, kummer=[(y, k)], punctures=pts),
        )
        for k in exponents
    ]
    out = {"cover": "power", "e": e, "exponents": list(exponents)}
    out.update(transfer_constants(coeff, variants, pts[0], form))
    predicted = None
    if e == 1:
        predicted = 1
    elif e == 2:
        predicted = gamma_psi(coeff, base, base.elem(-2).index()) * pow(q, -1, coeff.ell) % coeff.ell
    elif e == 3:
        predicted = pow(q, -1, coeff.ell)
    if predicted is not None:
        out["predicted"] = predicted
        out["matches_prediction"] = all(v == predicted for v in out["lambdas"])
    out["ok"] = out["all_equal"] and out["conductor_ok"] and out.get("matches_prediction", True)
    return out


def induction_wild_cover(coeff, p=3, variants=None):
    """Transfer factors of the cover y**p - y = t at the point over
    infinity, with the differential of 1/t downstream.

    Variants are pairs (k, a): multiplicative exponent k on the coordinate
    and an extra additive datum a*y.  The downstream factor is again read
    off the global determinant of the upstairs data twisted by the pulled
    back exponential of 1/t, the upstairs factor is local at infinity with
    the pulled back form, and the ratio must not depend on the variant.
    """
    base = fq_build(p, 1)
    y = RationalFunction.from_poly(polys.x(base))
    cover_poly = Poly(base, [0, -1] + [0] * (p - 2) + [1])
    twist = RationalFunction(Poly.const(base, base.elem(-1)), cover_poly)
    # dy / (y**p - y)**2 is the pullback of d(1/t) along t = y**p - y
    wform = RationalFunction(Poly(base, [1]), cover_poly * cover_poly)
    pts = [Point.rational(base, b) for b in range(p)] + [Point.infinity(base)]
    if variants is None:
        variants = [(0, 0), (1, 0), (0, 1), (1, 1)]
    pairs = []
    for k, a in variants:
        extra = RationalFunction.from_poly(Poly(base, [0, a])) if a % p else None
        gw = twist if extra is None else twist + extra
        pairs.append(
            (
                SheafSpec(base, wild=gw, kummer=[(y, k)], punctures=pts),
                SheafSpec(base, wild=extra, kummer=[(y, k)], punctures=pts),
            )
        )
    out = {"cover": "wild", "p": p, "variants": [list(v) for v in variants]}
    out.update(transfer_constants(coeff, pairs, pts[-1], wform))
    out["ok"] = out["all_equal"] and out["conductor_ok"]
    return out
