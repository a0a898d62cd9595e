"""Rank one characters of a local field F_q((pi)) with values in F_ell.

A character is stored as three independent pieces relative to the chosen
uniformizer pi:

* c_pi, its value at pi (an invertible CoeffElem of coeff, or an int to wrap),
* tame_e, the exponent through which units act by the Kummer character of
  the residue field (taken mod q - 1),
* wild_h, an additive datum h with only negative pi-exponents; a unit u
  contributes psi(Tr(Res(h dlog u))).

wild_h is kept in a canonical reduced form: rewriting a pi**(-p*k) term
with coefficient a into a pi**(-k) term with coefficient a**(1/p) never
changes the character, and moving each term in one additive pass until
its exponent is prime to p makes the representative unique.  The Swan
conductor is then the pole order of the reduced datum, and negating the
datum, as the inverse character does, keeps it reduced.

A character is evaluated on packed ints: the tame part reads the log of
the unit's leading coefficient, the pairing Res(h dlog u) is the sum of
h_k (dlog u)_(-1-k) over the poles k of h, and its trace is read through
int_ops, on the field's tables up to TABLE_LINE.

unit_keys lists the unit residues mod pi**nu as coefficient index tuples;
the definitional unit sum walks them.  OracleCharacter, the brute-force
twin of a character (an explicit value table on those residues), lives in
tests/test_chars.py with the tests that check the engines against it,
together with the cap on its table.  The product of two characters, the
unramified twist and the rewriting of a character in another uniformizer
serve only the local property checks, and live with them in the tests.
"""

from __future__ import annotations

from .gf import Unsupported, _digits, dlog as field_log, frobenius, int_ops
from .localfield import LaurentSeries, PrecisionError, dlog, series_bound


def as_reduce(h):
    """Canonical representative of an additive wild datum.

    Drops exponents >= 0 (they never pair with a unit) and moves each term
    a pi**(-p**e m), p not dividing m, to a**(1/p**e) pi**(-m), adding the
    terms that land together.  The window of h must reach 0 so all
    negative terms are known.
    """
    field = h.field
    if h.prec < 0:
        raise PrecisionError("wild datum window must reach exponent 0")
    terms = {}
    for k, c in enumerate(h.coeffs, h.v):
        if k >= 0 or not c:
            continue
        m, e = -k, 0
        while m % field.p == 0:
            m, e = m // field.p, e + 1
        if e:
            # Frobenius on one element, so FqElem: no table for the field
            c = frobenius(field.from_index(c), -e % field.n).index()
        if m in terms:
            c = (field.from_index(terms[m]) + field.from_index(c)).index()
        terms[m] = c
    terms = {m: c for m, c in terms.items() if c}
    if not terms:
        return LaurentSeries.zero(field, 1)
    n = max(terms)
    return LaurentSeries.of(field, -n, [terms.get(n - i, 0) for i in range(n)], 1)


class LocalCharacter:
    """Multiplicative character of F_q((pi)) into the coefficient field."""

    __slots__ = ("field", "coeff", "c_pi", "tame_e", "wild_h")

    def __init__(self, field, coeff, c_pi, tame_e, wild_h=None):
        if coeff.p != field.p:
            raise Unsupported("coefficient field has the wrong residue characteristic", field="p")
        self.field = field
        self.coeff = coeff
        self.c_pi = c_pi if not isinstance(c_pi, int) else coeff.elem(c_pi)
        if self.c_pi.field is not coeff or not self.c_pi.value:
            raise ValueError("character value at pi must be invertible in the character's coefficient field")
        self.tame_e = tame_e % (field.q - 1)
        if wild_h is None:
            wild_h = LaurentSeries.zero(field, 1)
        if wild_h.field != field:
            raise ValueError("wild datum must live over the residue field")
        self.wild_h = as_reduce(wild_h)

    # -- structure ---------------------------------------------------------

    def swan(self):
        return -self.wild_h.v if self.wild_h.coeffs else 0

    def is_ramified(self):
        return self.tame_e != 0 or bool(self.wild_h.coeffs)

    def artin_a(self, kind):
        """Conductor exponent of the extension of this character across the
        point: kind "shriek" extends by zero, kind "star" by invariants."""
        if kind not in ("shriek", "star"):
            raise ValueError("kind must be 'shriek' or 'star'")
        if self.is_ramified():
            return 1 + self.swan()
        return 1 if kind == "shriek" else 0

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Value, an int mod ell, on a nonzero element given as a series.

        Needs the series known to swan + 1 coefficients past its valuation.
        """
        v = x.valuation()
        need = self.swan() + 1
        if x.prec - v < need:
            raise PrecisionError(
                "character needs %d coefficients, series has %d" % (need, x.prec - v)
            )
        field, coeff = self.field, self.coeff
        out = pow(self.c_pi.value, v, coeff.ell)
        if self.tame_e:
            out *= coeff.kummer_chi(self.tame_e, field_log(field, x.coeffs[0]), field.q - 1)
        h = self.wild_h
        if h.coeffs:
            ops = int_ops(field)
            # the unit part to need coefficients: (dlog u)_j, j < swan, reads no more
            fma, d = ops.fma, dlog(LaurentSeries.of(field, 0, x.coeffs, need))
            pairing = 0
            for k, c in enumerate(h.coeffs, h.v):
                if c:
                    pairing = fma(c, d.at(-1 - k), pairing)
            out *= coeff.psi(ops.trace(pairing))
        return out % coeff.ell

    # -- algebra -------------------------------------------------------------

    def inverse(self):
        """chi**-1: negating a reduced wild datum leaves it reduced, so it
        is not reduced again."""
        out = LocalCharacter.__new__(LocalCharacter)
        out.field, out.coeff = self.field, self.coeff
        out.c_pi = self.coeff.elem(pow(self.c_pi.value, -1, self.coeff.ell))
        out.tame_e = -self.tame_e % (self.field.q - 1)
        out.wild_h = -self.wild_h
        return out

    def __repr__(self):
        return "LocalCharacter(q=%d, c_pi=%d, tame_e=%d, swan=%d)" % (
            self.field.q,
            self.c_pi.value,
            self.tame_e,
            self.swan(),
        )

    @classmethod
    def from_json(cls, coeff, obj):
        from .gf import FieldDesc

        field = FieldDesc.from_json(obj["field"])
        for key in ("c_pi", "tame_e"):
            if type(obj[key]) is not int:
                raise Unsupported("%s must be an integer" % key, field=key)
        wild = obj.get("wild_h", {"v": 0, "coeffs": []})
        if not isinstance(wild, dict):
            raise Unsupported("wild_h must be a JSON object with v and coeffs", field="wild_h")
        v = series_bound(wild, "v", "wild_h.v")
        h = LaurentSeries.make(field, v, field.json_elems(wild["coeffs"], "coeffs"), 1)
        return cls(field, coeff, obj["c_pi"], obj["tame_e"], h)


def unit_keys(field, nu):
    """The unit residues mod pi**nu as tuples of nu coefficient indices,
    leading coefficient outermost and the rest counted base q, low first."""
    q = field.q
    for head in range(1, q):
        for tail in range(q ** (nu - 1)):
            yield (head, *_digits(tail, q, nu - 1))
