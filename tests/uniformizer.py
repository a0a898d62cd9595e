"""A change of uniformizer, for the tests.

The library reads every local object in one fixed uniformizer pi.  These
helpers substitute series into series and rewrite a character and a
1-form in a new uniformizer pi' = s(pi), so that the tests can check that
a local factor does not depend on that choice.  Beside them sit the sum,
difference and comparison of series that the tests use and the library
does not define.
"""

from epsilon_lab.chars import LocalCharacter
from epsilon_lab.gf import int_ops
from epsilon_lab.localfield import Form, LaurentSeries, PrecisionError


def pad(s, prec):
    """The same exact Laurent polynomial, its window taken to prec with
    known zeros."""
    return LaurentSeries.of(s.field, s.v, s.coeffs, prec)


def add(a, b):
    """a + b, known on the common window."""
    prec = min(a.prec, b.prec)
    v = min(a.v if a.coeffs else prec, b.v if b.coeffs else prec)
    plus = int_ops(a.field).add
    out = [0] * max(prec - v, 0)
    for s in (a, b):
        for k, c in enumerate(s.coeffs[: prec - s.v], s.v - v):
            if c:
                out[k] = plus(out[k], c)
    return LaurentSeries.of(a.field, v, out, prec)


def sub(a, b):
    """a - b, known on the common window."""
    return add(a, -b)


def same(a, b):
    """Whether a and b, over one field, agree on their common window."""
    prec = min(a.prec, b.prec)
    lo = min(a.v if a.coeffs else prec, b.v if b.coeffs else prec)
    return a.field == b.field and all(a.at(k) == b.at(k) for k in range(lo, prec))


def compose(f, inner):
    """f(inner) for inner of valuation >= 1, computed by Horner to the
    available precision; f may have negative powers, since inner is then
    invertible (v >= 1 means nonzero)."""
    if inner.valuation() < 1:
        raise ValueError("composition wants an inner series of valuation >= 1")
    field = f.field
    prec = min(f.prec, inner.prec)
    acc = LaurentSeries.zero(field, prec + 1)
    # Horner from the top of the window
    for k in range(f.prec - 1, f.v - 1, -1):
        acc = add(acc * inner, LaurentSeries.of(field, 0, [f.at(k)], prec + 1))
    # then inner**v(f), one factor at a time
    if f.v:
        step = inner if f.v > 0 else inner.inverse()
        for _ in range(abs(f.v)):
            acc = acc * step
    return acc


def reversion(s):
    """Inverse of pi' = s(pi) under composition, for v(s) = 1.

    Returns t with s(t(pi')) = pi' to the available precision.
    """
    if s.valuation() != 1:
        raise ValueError("reversion wants valuation exactly 1")
    field = s.field
    prec = s.prec
    a1 = s.coeff(1)
    t = LaurentSeries.make(field, 1, [a1.inverse()], prec)
    for k in range(2, prec):
        r = sub(compose(s, t), LaurentSeries.pi_power(field, 1, prec))
        if not r.coeffs or r.valuation() > k:
            continue
        gamma = r.coeff(r.valuation())
        if r.valuation() < k:
            raise ValueError("reversion drifted, broken invariant")
        t = add(t, LaurentSeries.make(field, k, [-(gamma / a1)], prec))
    return t


def transport(chi, s):
    """The character chi presented in the uniformizer pi' = s(pi).

    s must be a unit times pi with enough precision; the new value at pi'
    is chi(s), the tame exponent is unchanged and the wild datum is
    rewritten through the inverse substitution.
    """
    if s.valuation() != 1:
        raise ValueError("a uniformizer has valuation 1")
    if s.prec < chi.swan() + 3:
        raise PrecisionError("uniformizer series too short to carry the wild datum")
    t = reversion(s)
    if chi.wild_h.coeffs:
        # the datum is an exact Laurent polynomial: pad it with known
        # zeros so composition keeps enough window
        new_h = compose(pad(chi.wild_h, s.prec), t)
    else:
        new_h = LaurentSeries.zero(chi.field, 1)
    return LocalCharacter(chi.field, chi.coeff, chi(s), chi.tame_e, new_h)


def transport_form(omega, s):
    """The form rewritten in the uniformizer pi' = s(pi): if t undoes s
    then w(pi) dpi becomes w(t(pi')) t'(pi') dpi'."""
    t = reversion(s)
    w = omega.w
    padded = pad(w, max(w.prec, s.prec)) if w.coeffs else w
    return Form(compose(padded, t) * t.derivative())
