"""Truncated Laurent series over finite fields, 1-forms and residues.

A LaurentSeries knows its field, its valuation window and its precision:
coefficients are exact for exponents in [v, prec) and unknown beyond.  A
1-form w dpi is handled through its series w: residue and dlog take and
return series, and Form is a plain record of the w of the form a local
factor is taken against (its valuation is w.valuation()).  RationalFunction and Point model functions on the
projective line and their expansions at closed points, including the point
at infinity and points of higher degree (expansion happens over the residue
field at a distinguished root of the point's minimal polynomial).
An expansion is asked for by the number n of coefficients wanted past its
valuation, which it finds itself: numerator and denominator are exact
Taylor shifts, padded with known zeros, and one division leaves exactly n.

Series and polynomials hold packed indices (0 the zero, 1 the one), and
their kernels (division, Taylor shifts, series products and quotients,
the root scan) compute with gf.int_ops: on the field's tables up to 2**16
elements, through FqElem above.  Building one and its valuation need no
table.  Elements are the boundary: make and Poly take them, coeff
returns them, and Poly.evaluate computes with them.  A point's root is a
packed index, and an expansion computes on indices alone.

Conventions:

* residue(w) is the residue of w dpi, the coefficient of pi**(-1) in w,
  defined only when the window proves it,
* dlog(u) is the series (du/dpi)/u, so residue(dlog(u)) = v(u) for any u,
* a / b is one pass of long division, known on the window that a times
  the inverse of b would have; inverse() is 1 / b.
"""

from __future__ import annotations

from collections import namedtuple

from .gf import FieldDesc, FqElem, Unsupported, _digits, _pack, first_root, int_ops, residue_field


# A series read from JSON has its v and prec within SERIES_CAP of 0.  The
# window and the long divisions over it stay small, and no swan the unit
# sum can reach under its cap comes near the bound.
SERIES_CAP = 1 << 10


class PrecisionError(ValueError):
    """A coefficient outside the known window was requested."""


def series_bound(obj, key, name):
    """obj[key], a series' v or prec read from JSON, as an int within
    SERIES_CAP of 0; else Unsupported naming key."""
    value = obj[key]
    # JSON true is no integer here, though Python takes it for 1
    if type(value) is not int:
        raise Unsupported("%s must be an integer" % name, field=key)
    if abs(value) > SERIES_CAP:
        raise Unsupported("%s must lie within %d of 0, got %d" % (name, SERIES_CAP, value), field=key)
    return value


# ---------------------------------------------------------------------------
# Laurent series


class LaurentSeries:
    """Sum of c_i pi**i for i in [v, prec), exact inside the window; the
    coefficients are packed indices of the field's elements.

    The zero-to-precision series is stored with an empty coefficient tuple
    and v == prec.  Leading zeros are always trimmed, so v is the true
    valuation whenever the series is nonzero.  Two windows that agree where
    both are known are one series, which no hash can respect: none is a key.
    """

    __slots__ = ("field", "v", "prec", "coeffs")
    __hash__ = None

    def __init__(self, field, v, prec, coeffs):
        self.field = field
        self.v = v
        self.prec = prec
        self.coeffs = coeffs

    @classmethod
    def make(cls, field, v, coeffs, prec):
        """The series from coefficients given as elements, ints naming
        elements of the prime field, or coefficient lists."""
        return cls.of(field, v, [field.index_of(c) for c in coeffs], prec)

    @classmethod
    def of(cls, field, v, coeffs, prec):
        """The series from packed indices, known to prec, leading zeros
        trimmed and the window padded with known zeros; a window that ends
        at or before v holds no coefficient, so the series is zero to
        prec."""
        if prec <= v:
            return cls.zero(field, prec)
        coeffs = coeffs[: prec - v]
        lo = next((i for i, c in enumerate(coeffs) if c), None)
        if lo is None:
            return cls(field, prec, prec, ())
        return cls(field, v + lo, prec, tuple(coeffs[lo:]) + (0,) * (prec - v - len(coeffs)))

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, prec, ())

    @classmethod
    def one(cls, field, prec):
        return cls.of(field, 0, [1], prec)

    @classmethod
    def pi_power(cls, field, k, prec):
        return cls.of(field, k, [1], prec)

    def valuation(self):
        if not self.coeffs:
            raise PrecisionError("series is zero to precision %d, valuation unknown" % self.prec)
        return self.v

    def at(self, k):
        """The packed index of the coefficient of pi**k."""
        if k < self.v:
            return 0
        if k >= self.prec:
            raise PrecisionError("coefficient at %d beyond precision %d" % (k, self.prec))
        return self.coeffs[k - self.v]

    def coeff(self, k):
        """The coefficient of pi**k, as an element."""
        return self.field.from_index(self.at(k))

    def shift(self, k):
        """Multiply by pi**k."""
        return LaurentSeries(self.field, self.v + k, self.prec + k, self.coeffs)

    def __neg__(self):
        return LaurentSeries(self.field, self.v, self.prec, tuple(map(int_ops(self.field).neg, self.coeffs)))

    def __mul__(self, other):
        if isinstance(other, (int, FqElem)):
            c, mul = self.field.index_of(other), int_ops(self.field).mul
            return LaurentSeries.of(self.field, self.v, [mul(a, c) for a in self.coeffs], self.prec)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            prec = min(
                (self.v if self.coeffs else self.prec) + other.prec,
                (other.v if other.coeffs else other.prec) + self.prec,
            )
            return LaurentSeries.zero(self.field, prec)
        prec = min(self.v + other.prec, other.v + self.prec)
        v = self.v + other.v
        return LaurentSeries.of(self.field, v, _product(self.field, self.coeffs, other.coeffs, prec - v), prec)

    __rmul__ = __mul__

    def inverse(self):
        return LaurentSeries.one(self.field, self.prec - self.v) / self

    def __truediv__(self, other):
        """Long division, one pass (quotient), of self by other shifted to
        valuation 0.  The window is the one of self times the inverse of
        other: prec - v is the shorter of the two known lengths."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        den = other.coeffs
        if not den:
            raise ZeroDivisionError("division by a series that is zero to precision")
        if not self.coeffs:
            return LaurentSeries.zero(self.field, self.prec - other.v)
        v = self.v - other.v
        n = min(len(self.coeffs), len(den))
        return LaurentSeries.of(self.field, v, quotient(int_ops(self.field), self.coeffs, den, n), v + n)

    def derivative(self):
        p, mul = self.field.p, int_ops(self.field).mul
        # k mod p is the packed index of the prime field element k
        out = [mul(c, k % p) for k, c in enumerate(self.coeffs, self.v)]
        return LaurentSeries.of(self.field, self.v - 1, out, self.prec - 1)

    @classmethod
    def from_json(cls, obj):
        """The series a JSON record names; a window that ends before v
        is refused, naming prec."""
        field = FieldDesc.from_json(obj["field"])
        v, prec = series_bound(obj, "v", "v"), series_bound(obj, "prec", "prec")
        if prec < v:
            raise Unsupported("prec must be at least v, got prec %d below v %d" % (prec, v), field="prec")
        return cls.make(field, v, field.json_elems(obj["coeffs"], "coeffs"), prec)

    def __repr__(self):
        if not self.coeffs:
            return "O(pi^%d)" % self.prec
        bits = ["%r*pi^%d" % (self.field.digits(c), k) for k, c in enumerate(self.coeffs, self.v) if c]
        return " + ".join(bits) + " + O(pi^%d)" % self.prec


# A 1-form w * dpi: the holder of the series w that a local factor reads.
Form = namedtuple("Form", "w")


def quotient(ops, num, den, n):
    """The first n coefficients of num / den, index sequences low first
    with den[0] nonzero, computed with ops: one pass of long division,
    out[k] = (num[k] - sum_j den[j] out[k - j]) / den[0] over the nonzero
    den[j], j >= 1.  Both hold at least n coefficients."""
    mul, fma = ops.mul, ops.fma
    lead = ops.inv(den[0])
    minus = ops.neg(lead)
    terms = [(j, mul(b, minus)) for j, b in enumerate(den[1:n], 1) if b]
    out = []
    for k, a in enumerate(num[:n]):
        acc = mul(a, lead)
        for j, b in terms:
            if j > k:
                break
            acc = fma(b, out[k - j], acc)
        out.append(acc)
    return out


def residue(w):
    """Residue of w dpi, the coefficient of pi**(-1) in the series w; needs
    the window to cover -1."""
    if w.coeffs and w.v > -1:
        return w.field.zero()
    if w.prec <= -1:
        raise PrecisionError("residue needs precision past pi^-1, have %d" % w.prec)
    return w.coeff(-1)


def dlog(u):
    """The series u'/u, so that dlog u = (u'/u) dpi."""
    return u.derivative() / u


# ---------------------------------------------------------------------------
# polynomials and rational functions over F_q


class Poly:
    """Dense polynomial over a FieldDesc, low degree first, no trailing
    zeros; the coefficients are packed indices.  The constructor takes
    elements or ints naming elements of the prime field; of takes packed
    indices."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = _trimmed([field.index_of(c) for c in coeffs])

    @classmethod
    def of(cls, field, coeffs):
        out = cls.__new__(cls)
        out.field, out.coeffs = field, _trimmed(list(coeffs))
        return out

    @classmethod
    def const(cls, field, c):
        return cls(field, [c])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def scale(self, c):
        """The polynomial times the element with packed index c."""
        mul = int_ops(self.field).mul
        return Poly.of(self.field, [mul(a, c) for a in self.coeffs])

    def monic(self):
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        return self.scale(int_ops(self.field).inv(self.coeffs[-1]))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = int_ops(self.field).add
        return Poly.of(self.field, list(map(add, a, b)) + list(a[len(b):]))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, FqElem)):
            return Poly(self.field, [other])
        raise TypeError("cannot coerce %r" % (other,))

    def __neg__(self):
        return Poly.of(self.field, map(int_ops(self.field).neg, self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        top = len(self.coeffs) + len(other.coeffs) - 1
        return Poly.of(self.field, _product(self.field, self.coeffs, other.coeffs, max(top, 0)))

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        m = len(other.coeffs)
        if len(rem) < m:
            return Poly.of(self.field, []), self
        ops = int_ops(self.field)
        mul, fma = ops.mul, ops.fma
        inv = ops.inv(other.coeffs[-1])
        # the top term cancels; the lower ones take c times minus the divisor
        low = [ops.neg(b) for b in other.coeffs[:-1]]
        quo = [0] * (len(rem) - m + 1)
        for k in range(len(rem) - m, -1, -1):
            c = rem[k + m - 1]
            if c:
                if inv != 1:
                    c = mul(c, inv)
                quo[k] = c
                for i, b in enumerate(low, k):
                    rem[i] = fma(c, b, rem[i])
        return Poly.of(self.field, quo), Poly.of(self.field, rem[: m - 1])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self):
        p, mul = self.field.p, int_ops(self.field).mul
        # i mod p is the packed index of the prime field element i
        return Poly.of(self.field, [mul(c, i % p) for i, c in enumerate(self.coeffs[1:], 1)])

    def evaluate(self, x, emb=None):
        """Value at the element x, by FqElem arithmetic; emb embeds the
        coefficients into x's field first."""
        acc = x.field.zero()
        for k in reversed(self.coeffs):
            c = self.field.from_index(k)
            acc = acc * x + (emb.embed(c) if emb is not None else c)
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "Poly(%r)" % ([self.field.digits(c) for c in self.coeffs],)

    def to_json(self):
        return [self.field.digits(c) for c in self.coeffs]


def _product(field, a, b, top):
    """The first top coefficients of the product of the index sequences a
    and b, low first."""
    fma = int_ops(field).fma
    out = [0] * top
    for i, x in enumerate(a[:top]):
        if x:
            for k, y in enumerate(b[: top - i], i):
                out[k] = fma(x, y, out[k])
    return out


def _trimmed(coeffs):
    """coeffs without trailing zeros, as a tuple."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class RationalFunction:
    """num/den over F_q, gcd reduced, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        inv = int_ops(den.field).inv(den.coeffs[-1])
        self.num, self.den = num.scale(inv), den.scale(inv)

    @classmethod
    def from_poly(cls, p):
        return cls(p, Poly(p.field, [1]))

    @property
    def field(self):
        return self.num.field if not self.num.is_zero() else self.den.field

    def is_zero(self):
        return self.num.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, FqElem)):
            return RationalFunction.from_poly(Poly(self.den.field, [other]))
        raise TypeError("cannot coerce %r" % (other,))

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x, emb=None):
        d = self.den.evaluate(x, emb)
        if d.is_zero():
            raise ZeroDivisionError("pole at the evaluation point")
        return self.num.evaluate(x, emb) / d

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # num/den is canonical, so equal functions hash alike
        return hash((self.num, self.den))

    def __repr__(self):
        return "RationalFunction(%r / %r)" % (self.num, self.den)

    @classmethod
    def from_json(cls, field, obj, name="function"):
        """The function a {"num": ..., "den": ...} record names; name is the
        input it came from, reported when the record is no JSON object."""
        if not isinstance(obj, dict):
            raise Unsupported("a rational function must be a JSON object with num and den", field=name)
        num = Poly(field, field.json_elems(obj["num"], "num"))
        den = Poly(field, field.json_elems(obj["den"], "den"))
        return cls(num, den)


def poly_is_irreducible(f):
    """f has positive degree and factor_poly leaves it whole."""
    return f.degree() >= 1 and factor_poly(f) == [(f.monic(), 1)]


def factor_poly(f):
    """Factor into monic irreducibles by escalating trial division.

    The monics of degree d are tried in index order once the factors of
    lower degree are divided out, so one that divides is irreducible.
    Returns [(irreducible, multiplicity), ...], the factors of f.monic(),
    sorted by degree, then index.  Fine for the small degrees this library
    works at.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    cur = f.monic()
    field, q = f.field, f.field.q
    out = []
    d = 1
    while cur.degree() > 0:
        if d > cur.degree() // 2:
            out.append((cur, 1))
            break
        for idx in range(q ** d):
            cand = Poly.of(field, _digits(idx, q, d) + [1])
            k = 0
            while True:
                quo, rem = cur.divmod(cand)
                if not rem.is_zero():
                    break
                cur = quo
                k += 1
            if k:
                out.append((cand, k))
            # whatever is left has no factor below degree d: below 2d it
            # is one irreducible, or 1
            if cur.degree() < 2 * d:
                break
        d += 1
    return out


# ---------------------------------------------------------------------------
# closed points of P^1 and expansion


class Point:
    """Closed point of P^1 over F_q: infinity, or a monic irreducible
    minimal polynomial.  Expansion data (residue field, embedding of F_q,
    distinguished root) is built lazily and cached."""

    __slots__ = ("base", "minpoly", "at_infinity", "_expansion")

    def __init__(self, base, minpoly=None, at_infinity=False):
        self.base = base
        self.at_infinity = at_infinity
        self._expansion = None
        if at_infinity:
            self.minpoly = None
        else:
            mp = minpoly.monic()
            if mp.degree() < 1:
                raise Unsupported("minimal polynomial must have positive degree", field="minpoly")
            if mp.degree() >= 2 and not poly_is_irreducible(mp):
                raise Unsupported("minpoly must be irreducible over the base field", field="minpoly")
            self.minpoly = mp

    @classmethod
    def infinity(cls, base):
        return cls(base, at_infinity=True)

    @classmethod
    def _from_factor(cls, base, factor):
        """The point of a monic factor from factor_poly, which is
        irreducible by construction, so it is not tested again."""
        pt = cls.__new__(cls)
        pt.base, pt.minpoly, pt.at_infinity, pt._expansion = base, factor, False, None
        return pt

    @classmethod
    def rational(cls, base, a):
        a = base.elem(a) if isinstance(a, int) else a
        return cls(base, Poly(base, [-a, 1]))

    def degree(self):
        return 1 if self.at_infinity else self.minpoly.degree()

    def residue_data(self):
        """(residue field, embedding of the base, distinguished root alpha),
        alpha a packed index.

        alpha is the root g**k of the minimal polynomial with the smallest
        exponent k; for degree 1 it is the rational point itself, and at
        infinity the residue field is the base with alpha unused (None).
        """
        if self._expansion is None:
            d = self.degree()
            big, emb = residue_field(self.base, d)
            if self.at_infinity:
                alpha = None
            elif d == 1:
                alpha = int_ops(big).neg(self.minpoly.coeffs[0])
            else:
                coeffs = [emb.embed_index(c) for c in self.minpoly.coeffs]
                alpha = first_root(int_ops(big), coeffs, _pack(big.generator, big.p), big.q - 1)
                if alpha is None:
                    raise ValueError("minimal polynomial has no root in its residue field")
            self._expansion = (big, emb, alpha)
        return self._expansion

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.at_infinity or other.at_infinity:
            return self.at_infinity == other.at_infinity and self.base == other.base
        return self.base == other.base and self.minpoly == other.minpoly

    def __hash__(self):
        return hash((self.base, self.at_infinity, self.minpoly))

    def __repr__(self):
        if self.at_infinity:
            return "Point(infinity)"
        return "Point(minpoly=%r)" % (self.minpoly.to_json(),)

    def to_json(self):
        if self.at_infinity:
            return {"type": "infinity"}
        # over a prime field an index is the coefficient itself
        return {"type": "finite", "minpoly": list(self.minpoly.coeffs) if self.base.n == 1 else self.minpoly.to_json()}

    @classmethod
    def from_json(cls, base, obj, name="point"):
        """The point a {"type": ...} record names; name is the input it came
        from, reported when the record is no JSON object."""
        if not isinstance(obj, dict):
            raise Unsupported("a point must be a JSON object with a type", field=name)
        kind = obj["type"]
        if kind == "infinity":
            return cls.infinity(base)
        if kind != "finite":
            raise Unsupported("a point's type must be finite or infinity", field="type")
        return cls(base, Poly(base, base.json_elems(obj["minpoly"], "minpoly")))


def _poly_series_at(poly, point, n, emb, alpha):
    """n coefficients of poly(t) past its valuation, in the local parameter
    at the point, alpha the packed index of its root.  The Taylor shift is
    exact, so past its top the window is known zeros."""
    if poly.is_zero():
        raise ValueError("the zero function has no valuation")
    field, v = emb.big, 0
    if point.at_infinity:
        # t = 1/pi: the leading coefficient comes first
        v = -poly.degree()
        out = poly.coeffs[::-1][:n]
    else:
        # t = alpha + pi, Taylor shift by synthetic division, stopped once
        # n coefficients past the first nonzero one are known
        fma = int_ops(field).fma
        rem = [emb.embed_index(c) for c in poly.coeffs]
        out = []
        while rem and len(out) < n:
            acc = 0
            newrem = []
            for c in reversed(rem):
                acc = fma(acc, alpha, c)
                newrem.append(acc)
            rem = newrem[-2::-1]
            if out or acc:
                out.append(acc)
            else:
                v += 1
    return LaurentSeries(field, v, v + n, tuple(out) + (0,) * (n - len(out)))


def expand_at(r, point, n):
    """Laurent expansion of a nonzero rational function at a closed point,
    to n coefficients past its valuation, which it finds itself.

    Over the residue field of the point; the local parameter is t - t(x)
    at finite points (t - alpha over the residue field in higher degree)
    and 1/t at infinity.
    """
    _big, emb, alpha = point.residue_data()
    return _poly_series_at(r.num, point, n, emb, alpha) / _poly_series_at(r.den, point, n, emb, alpha)


def expand_form_at(w, point, n):
    """Expansion of the global form w(t) dt at a point, as a local Form,
    to n coefficients past its valuation.

    At finite points dt = dpi; at infinity t = 1/pi gives dt = -pi**-2 dpi.
    """
    series = expand_at(w, point, n)
    return Form(-series.shift(-2) if point.at_infinity else series)
