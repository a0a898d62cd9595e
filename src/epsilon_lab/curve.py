"""Rank-1 data on the projective line over a finite field.

A SheafSpec packages the global data of a rank-1 lisse sheaf on the
complement of finitely many closed points (the punctures): an additive
exponential twist by a rational function, multiplicative twists by
rational functions with integer character exponents, and a constant
unramified scaling.  The module computes trace sums of the data over
growing constant field extensions, the numerator polynomial of the
associated zeta function as an Euler product over closed points, the
determinant of Frobenius on compact cohomology, the restriction of the
data to the completed local field at any closed point, and the point by
point factorization of the global determinant into local factors
attached to a nonzero rational 1-form.  transfer_constants reads the
transfer constant of a cover as the ratio of a global determinant, the
downstairs factor, to a local factor at one upstairs point; the
induction-check command calls it on the cover its input describes.

A SheafSpec reads the divisor of its data once, when it is built, as one
row per irreducible factor.  The point walk then evaluates each factor
once per closed point, not once per rational point, and adds up logs,
since the log of a value is the log of its leading constant plus the
factors' exponents times their logs.  Infinity, when the data is lisse
there, is one more closed point of degree 1, read off the leading
constants.  Every global quantity is priced from these counts: the Euler
product directly, and a trace sum over the rational points of degree m
by letting a closed point of degree e | m stand for e of them, with its
keys rescaled by m/e.

The local data at a closed point is read once per spec and point, with no
coefficient field: the coefficient prime only prices it, and the conductors
do not depend on it.  So is a 1-form of the product formula: its divisor
and its expansions, to the conductors eps reads, are read once per spec and
form, and each coefficient prime prices the local factors from them.  The
Euler product runs in one place, GlobalComputation, and a spec holds one per
coefficient field, so every check under that field reads one determinant.
The functional equation of the middle extension fixes the top half of the
determinant from the bottom half, so the walk counts closed points to about
half the degree, and the audit one degree further.
"""

from math import comb

from .chars import LocalCharacter, as_reduce
from .epsilon import eps_local
from .gf import FIELD_CAP, TABLE_LINE, CapExceeded, Unsupported, dlog, fq_build, int_ops, log_field, norm, residue_field, trace
from .localfield import (
    LaurentSeries,
    Point,
    RationalFunction,
    expand_at,
    expand_form_at,
    factor_poly,
)

def _lyndon_logs(q, e):
    """One log per Frobenius orbit of exact size e >= 2 in F_{q^e}^*: the
    Lyndon words of length e over q letters (Duval's generator), read as
    base-q numbers, so each is the least log of its orbit."""
    top = q - 1
    w = [-1]
    while w:
        w[-1] += 1
        n = len(w)
        if n == e:
            v = 0
            for c in w:
                v = v * q + c
            yield v
        while len(w) < e:
            w.append(w[len(w) - n])
        while w and w[-1] == top:
            w.pop()


def divisor_points(r):
    """Zeros and poles of a nonzero rational function, as pairs of a closed
    point and the order there (positive for zeros)."""
    if r.is_zero():
        raise ValueError("the zero function has no divisor")
    base = r.field
    counts = {}
    for f, m in factor_poly(r.num):
        counts[f] = counts.get(f, 0) + m
    for f, m in factor_poly(r.den):
        counts[f] = counts.get(f, 0) - m
    # factor_poly's factors are irreducible already: no second test
    out = [(Point._from_factor(base, f), m) for f, m in counts.items() if m]
    v_inf = r.den.degree() - r.num.degree()
    if v_inf:
        out.append((Point.infinity(base), v_inf))
    return out


class SheafSpec:
    """Rank-1 data on the line minus a finite set of closed points.

    wild is a rational function f entering through psi(trace f(x)); each
    kummer entry (g, e) enters through the e-th power of the chosen
    multiplicative character at the norm of g(x); unram is a constant
    integer Frobenius scaling.  Poles of f and the whole divisor of every
    g must sit inside the punctures, so the data is lisse on the rest.
    """

    __slots__ = ("base", "wild", "kummer", "punctures", "unram", "_closed", "_local", "_forms", "_global", "_divisor")

    def __init__(self, base, wild=None, kummer=(), punctures=(), unram=1):
        self.base = base
        if wild is not None and wild.is_zero():
            wild = None
        if wild is not None and wild.field != base:
            raise ValueError("additive datum lives over the wrong field")
        self.wild = wild
        self.kummer = []
        for g, e in kummer:
            if type(e) is not int:
                raise Unsupported("character exponents must be integers", field="kummer")
            if g.is_zero():
                raise ValueError("multiplicative datum must be nonzero")
            if g.field != base:
                raise ValueError("multiplicative datum lives over the wrong field")
            self.kummer.append((g, e))
        pts = []
        for pt in punctures:
            if pt.base != base:
                raise ValueError("puncture lives over the wrong field")
            if pt in pts:
                raise ValueError("duplicate puncture")
            pts.append(pt)
        self.punctures = pts
        if type(unram) is not int or unram == 0:
            raise Unsupported("unramified scaling must be a nonzero integer", field="unram")
        self.unram = unram
        self._closed = {}
        self._local = {}
        self._forms = {}
        self._global = {}
        self._divisor = self._read_divisor()

    def _read_divisor(self):
        """One pass over the divisors of the data.  Refuses a pole of the
        additive datum or a zero or pole of a multiplicative datum off the
        punctures, and returns rows (monic minimal polynomial, summed Kummer
        exponent, additive exponent, is a puncture): one per finite puncture
        and one per other zero of the additive datum."""
        allowed = set(self.punctures)
        rows = {pt: [0, 0] for pt in self.punctures}
        for pt, mult in divisor_points(self.wild) if self.wild is not None else ():
            if mult < 0 and pt not in allowed:
                raise ValueError("additive datum has a pole off the punctures")
            rows.setdefault(pt, [0, 0])[1] += mult
        for g, e in self.kummer:
            for pt, mult in divisor_points(g):
                if pt not in allowed:
                    raise ValueError("multiplicative datum has a zero or pole off the punctures")
                rows[pt][0] += e * mult
        rows.pop(Point.infinity(self.base), None)
        return [(pt.minpoly, k, w, pt in allowed) for pt, (k, w) in rows.items()]

    def local_data(self, point):
        """(residue field, tame exponent, reduced wild datum, Kummer key,
        additive key) of the data at a closed point, read once, with no
        coefficient field.  The Kummer key is the log mod q - 1 of the
        powered sign-twisted leading symbols normed to the base, which is
        their log in the residue field, whose generator has the base
        generator as its norm: a table read up to TABLE_LINE, and past it
        the norm, so no table is built there.  The wild datum is the
        principal part of the additive datum's expansion, and the additive
        key the absolute trace of its constant term."""
        hit = self._local.get(point)
        if hit is not None:
            return hit
        if point.base != self.base:
            raise ValueError("point lives over the wrong field")
        base = self.base
        big, emb, _alpha = point.residue_data()
        rel = (big.q - 1) // (base.q - 1)
        tame = ke = pe = 0
        for g, e in self.kummer:
            gx = expand_at(g, point, 1)
            v, lead = gx.v, gx.at(gx.v)
            if v % 2:
                lead = int_ops(big).neg(lead)
            tame -= e * v * rel
            # expand_at builds big's tables below the line anyway
            ke += e * (dlog(big, lead) if big.q <= TABLE_LINE else dlog(base, norm(big.from_index(lead), emb).index()))
        wild_h = LaurentSeries.zero(big, 1)
        if self.wild is not None:
            # through the constant term, past the deepest pole there can be
            num, den = self.wild.num.degree(), self.wild.den.degree()
            fx = expand_at(self.wild, point, 1 + (max(num - den, 0) if point.at_infinity else den))
            if fx.v < 0:
                wild_h = as_reduce(LaurentSeries.of(big, fx.v, fx.coeffs[: -fx.v], 1))
            pe = int_ops(big).trace(fx.at(0))
        hit = self._local[point] = (big, tame % (big.q - 1), wild_h, ke % (base.q - 1), pe)
        return hit

    def form_data(self, omega):
        """(orders, expansions) of the form omega dt, read once per spec and
        form, with no coefficient field: the divisor and the expansions are
        exact data over the base, and every coefficient prime only prices
        them.  orders maps the zeros and poles of omega dt to their orders,
        the finite points in divisor order and then infinity, where dt adds
        its double pole; expansions holds the forms _local_factor expands,
        keyed by (point, coefficients past the valuation)."""
        hit = self._forms.get(omega)
        if hit is None:
            orders = dict(divisor_points(omega))
            inf = Point.infinity(self.base)
            orders[inf] = orders.get(inf, 0) - 2
            hit = self._forms[omega] = (orders, {})
        return hit

    def global_computation(self, coeff):
        """The one GlobalComputation of the data under coeff, built on first
        use and held, as gf.log_field holds one LogField per field."""
        if coeff not in self._global:
            self._global[coeff] = GlobalComputation(self, coeff)
        return self._global[coeff]

    def infinity_in_domain(self):
        return not any(pt.at_infinity for pt in self.punctures)

    def _closed_point_counts(self, e):
        """Counts of (additive key, Kummer key) over the closed points of
        exact degree e of the domain, infinity included at e = 1, in
        F_{q^e}: one evaluation per point.  Frobenius multiplies a log by q
        modulo q^e - 1, so a point of degree e >= 2 is one orbit of e logs,
        met once at its Lyndon word; at degree 1 every log is a point, and
        so is x = 0 (log -1), and so is infinity, keyed by the leading
        constants alone (additive key 0 unless num and den degrees agree).

        A key is read off the divisor rows: a value's log is the log of its
        leading constant plus the rows' exponents times the logs of their
        irreducible factors.  A factor is evaluated by Horner's rule on
        logs, where a + b is a + zech[b - a], from the logs of its lower
        coefficients (it is monic).  The additive key is the absolute trace
        of the additive datum, the Kummer key the log of the product of the
        powered multiplicative data reduced for the norm to the base."""
        hit = self._closed.get(e)
        if hit is not None:
            return hit
        q = self.base.q
        big, emb = residue_field(self.base, e)
        logs = log_field(big)
        order = logs.order
        red = q - 1
        log, zech, tr_table = logs.log, logs.zech, logs.trace

        def lead_log(r):
            # the denominator is monic
            return log[emb.embed_index(r.num.coeffs[-1])]

        lk0 = sum(k * lead_log(g) for g, k in self.kummer)
        no_wild = self.wild is None
        lw0 = 0 if no_wild else lead_log(self.wild)
        # a puncture that carries no datum only matters where it has points
        rows = [
            ([log[emb.embed_index(c)] for c in reversed(f.coeffs[:-1])], k, w, punct)
            for f, k, w, punct in self._divisor
            if k or w or f.degree() == e
        ]
        reps = range(-1, order) if e == 1 else _lyndon_logs(q, e)
        counts = {}
        if e == 1 and self.infinity_in_domain():
            flat = not no_wild and self.wild.num.degree() == self.wild.den.degree()
            counts[(tr_table[lw0] if flat else 0, lk0 % red)] = 1
        for lx in reps:
            lk, lw, wild_zero = lk0, lw0, no_wild
            for cs, k, w, punct in rows:
                v = 0
                for c in cs:
                    if v < 0 or lx < 0:
                        v = c
                    else:
                        v = (v + lx) % order
                        if c >= 0:
                            z = zech[(c - v) % order]
                            v = -1 if z < 0 else (v + z) % order
                if v >= 0:
                    lk += k * v
                    lw += w * v
                elif punct:
                    break
                else:
                    wild_zero = True
            else:
                key = (0 if wild_zero else tr_table[lw % order], lk % red)
                counts[key] = counts.get(key, 0) + 1
        self._closed[e] = counts
        return counts

    def _prices(self, coeff):
        """(psi_pow, zpow, c): a point key (pe, ke) of degree m is
        priced psi_pow[pe] * zpow[ke] * c**m modulo ell, as plain ints."""
        base = self.base
        if coeff.p != base.p:
            raise ValueError("coefficient field has the wrong residue characteristic")
        ell = coeff.ell
        c = self.unram % ell
        if c == 0:
            raise ValueError("unramified scaling is not invertible modulo ell")
        psi_pow = [coeff.psi(t) for t in range(base.p)]
        red = base.q - 1
        z = coeff.kummer_chi(1, 1, red)
        zpow = [1] * red
        for k in range(1, red):
            zpow[k] = (zpow[k - 1] * z) % ell
        return psi_pow, zpow, c

    def trace_sum(self, coeff, m):
        """Sum of the trace function over the degree m rational points of
        the domain, an int mod ell.

        A closed point of degree e | m stands for e rational points, with
        its keys scaled by m/e: on F_{q^e} the trace from F_{q^m} is m/e
        times the trace from F_{q^e}, and the norm is raised to the power
        m/e."""
        psi_pow, zpow, c = self._prices(coeff)
        p, red, ell = self.base.p, self.base.q - 1, coeff.ell
        acc = 0
        for e in range(1, m + 1):
            if m % e == 0:
                r = m // e
                for (pe, ke), count in self._closed_point_counts(e).items():
                    acc = (acc + e * count * psi_pow[pe * r % p] * zpow[ke * r % red]) % ell
        return acc * pow(c, m, ell) % ell

    def trace_at(self, coeff, m, x):
        """Trace value, an int mod ell, at one rational point of the degree
        m extension, given as an element of it or None for infinity.

        Pointwise route, independent of the histogram: the additive datum
        is evaluated and traced, each multiplicative datum is evaluated,
        normed down and fed to the character; infinity's keys are read off
        local_data, not off the walk's leading constants."""
        base, ell = self.base, coeff.ell
        big, emb = residue_field(base, m)
        val = pow(self.unram, m, ell)
        if x is None:
            if not self.infinity_in_domain():
                raise ValueError("infinity is punctured")
            _big, _tame, _wild, ke, pe = self.local_data(Point.infinity(base))
            return val * coeff.psi(pe * m) * coeff.kummer_chi(ke * m, 1, base.q - 1) % ell
        if x.field != big:
            raise ValueError("the point must live in the cached degree m extension")
        for pt in self.punctures:
            if not pt.at_infinity and pt.minpoly.evaluate(x, emb).is_zero():
                raise ValueError("the point is punctured")
        if self.wild is not None:
            val = val * coeff.psi(trace(self.wild.evaluate(x, emb))) % ell
        for g, e in self.kummer:
            val = val * coeff.kummer_chi(e, dlog(base, norm(g.evaluate(x, emb), emb).index()), base.q - 1) % ell
        return val

    @classmethod
    def from_json(cls, obj):
        base = fq_build(obj["p"], obj["n"])
        wild = RationalFunction.from_json(base, obj["wild"], "wild") if obj.get("wild") else None
        kummer = obj.get("kummer", [])
        if type(kummer) is not list or not all(type(k) is list and len(k) == 2 for k in kummer):
            raise Unsupported("kummer must be a list of [function, exponent] pairs", field="kummer")
        kummer = [(RationalFunction.from_json(base, g, "kummer"), e) for g, e in kummer]
        punctures = obj.get("punctures", [])
        if type(punctures) is not list:
            raise Unsupported("punctures must be a list of points", field="punctures")
        punctures = [Point.from_json(base, pt, "punctures") for pt in punctures]
        return cls(base, wild=wild, kummer=kummer, punctures=punctures, unram=obj.get("unram", 1))


def local_character_at(spec, coeff, point):
    """Restriction of the global data to the completed local field at a
    closed point: the spec's local_data priced in coeff, as trace_sum prices
    histogram keys, times the unramified scaling to the residue degree."""
    big, tame, wild_h, ke, pe = spec.local_data(point)
    c_pi = coeff.psi(pe) * pow(spec.unram, point.degree(), coeff.ell)
    if spec.kummer:
        c_pi = c_pi * coeff.kummer_chi(ke, 1, spec.base.q - 1)
    return LocalCharacter(big, coeff, c_pi, tame, wild_h)


def _local_factor(chi, omega, point, kind, method, expansions):
    """The factor of chi at the point with the global form omega dt.  By
    change of form eps reads the form only to a(chi) coefficients past its
    valuation, or its valuation alone when chi is unramified, so the form
    is expanded that far and no further.  expansions caches those forms
    for omega by (point, coefficients); the conductor does not depend on
    the coefficient prime, so one cache serves every prime."""
    key = (point, max(chi.artin_a(kind), 1))
    form = expansions.get(key)
    if form is None:
        form = expansions[key] = expand_form_at(omega, *key)
    return eps_local(chi, form, kind, method)


def conductor_profile(spec):
    """Per-puncture rows (point, is ramified, conductor exponent of the
    extension by zero), and the degree of the determinant they predict:
    twice the genus side is absent on the line, so the conductors alone
    decide."""
    rows = []
    for pt in spec.punctures:
        _big, tame, wild_h, _ke, _pe = spec.local_data(pt)
        swan = -wild_h.v if wild_h.coeffs else 0
        rows.append((pt, bool(tame or swan), 1 + swan))
    d = sum(pt.degree() * a for pt, _ram, a in rows) - 2
    return rows, d


def _euler_product(points, top, ell):
    """prod (1 - a T^e)^-n mod T^(top + 1) over the triples (e, a, n), on
    ints mod ell.  It divides by nothing, so any prime serves any degree."""
    cs = [1] + [0] * top
    for e, a, n in points:
        # (1 - a T^e)^-n = sum_j C(n + j - 1, j) a^j T^(ej)
        series = [comb(n + j - 1, j) * pow(a, j, ell) % ell for j in range(top // e + 1)]
        # top down, so each cs[m - ej] read is still the old one
        for m in range(top, e - 1, -1):
            cs[m] = sum(series[j] * cs[m - e * j] for j in range(m // e + 1)) % ell
    return cs


def _functional_equation(mid, dual, d, q, ell):
    """The degree d polynomial L with L(T) = eps T^d L^dual(1/(qT)), from L
    and L^dual expanded mod T^(k + 1), k = len(mid) - 1 >= d / 2.

    c_(d - i) = eps q^-i c^dual_i fixes eps at i = d - k and then every
    c_j above k.  Returns (c_0 .. c_d, whether the c_j with d - k <= j <= k
    agree both ways), or None when c^dual_(d - k) is not a unit."""
    k = len(mid) - 1
    if not dual[d - k]:
        return None
    qi = pow(q, -1, ell)
    eps = mid[k] * pow(q, d - k, ell) * pow(dual[d - k], -1, ell) % ell
    # the c_j for j = d - k .. d, read off the dual
    mirrored = [eps * pow(qi, d - j, ell) * dual[d - j] % ell for j in range(d - k, d + 1)]
    return mid + mirrored[2 * k - d + 1 :], mid[d - k :] == mirrored[: 2 * k - d + 1]


class GlobalComputation:
    """The determinant of Frobenius for one (spec, coeff), computed once
    and held by the spec: the conductor profile, the degree d it predicts,
    and cs, the coefficients of det(1 - T Frob) as ints mod ell, constant
    term first, from prod_x (1 - a_x T^deg x)^-1 over the closed points of
    the domain; cs[d] is the determinant of minus Frobenius, inverted.

    Duality halves the counts.  An unramified puncture x is a point where
    the middle extension j_* of the data is lisse, with stalk price a_x, so
    the determinant is L_* times (1 - a_x T^deg x) over those points, and
    L_* has degree d* = d - sum deg x.  Poincare duality on the line gives
    L_*(T) = eps T^d* L_*^dual(1/(qT)), the dual data priced by the
    inverses mod ell; so both Euler products mod T^(k + 1), from the
    closed points of degree at most k, fix L_* once c^dual_(d* - k) is a
    unit.  k starts at ceil(d*/2) and steps up past a vanishing one; at
    k = d* the dual's constant term 1 always serves, which counts L_*
    whole.  Where k > d* - k the coefficients known both ways must agree,
    and dual_ok says whether they do.  counted is that k; audit() walks
    one degree further, the only walk past the counts used.
    """

    __slots__ = ("spec", "coeff", "degree", "counted", "dual_ok", "cs")

    def __init__(self, spec, coeff):
        rows, d = conductor_profile(spec)
        if not spec.punctures:
            raise ValueError("the determinant route needs at least one puncture")
        if not any(ram for _pt, ram, _a in rows):
            raise ValueError("everywhere unramified data is geometrically constant")
        lisse = [pt for pt, ram, _a in rows if not ram]
        d_mid = d - sum(pt.degree() for pt in lisse)
        if d_mid < 0:
            raise ValueError("conductor bookkeeping went negative, broken data")
        ell = coeff.ell
        cs, k, dual_ok = [1], 0, True
        if d:
            q = spec.base.q
            # refuse before the walk builds every table below the cap
            if q ** ((d_mid + 1) // 2) > FIELD_CAP:
                e = next(e for e in range(1, d_mid + 1) if q ** e > FIELD_CAP)
                raise CapExceeded("field size %d exceeds cap %d" % (q ** e, FIELD_CAP))
            psi_pow, zpow, c = spec._prices(coeff)

            def price(e, key):
                return psi_pow[key[0]] * zpow[key[1]] * pow(c, e, ell) % ell

            # an unramified puncture is priced as local_character_at prices the parameter
            stalks = []
            for pt in lisse:
                _big, _tame, _wild, ke, pe = spec.local_data(pt)
                stalks.append((pt.degree(), price(pt.degree(), (pe, ke))))
            for k in range((d_mid + 1) // 2, d_mid + 1):
                points = [(e, a, 1) for e, a in stalks] + [
                    (e, price(e, key), n) for e in range(1, k + 1) for key, n in spec._closed_point_counts(e).items()
                ]
                mid = _euler_product(points, k, ell)
                dual = _euler_product([(e, pow(a, -1, ell), n) for e, a, n in points], k, ell)
                solved = _functional_equation(mid, dual, d_mid, q, ell)
                if solved:
                    break
            cs, dual_ok = solved
            for e, a in stalks:
                cs += [0] * e
                for m in range(len(cs) - 1, e - 1, -1):
                    cs[m] = (cs[m] - a * cs[m - e]) % ell
        self.spec = spec
        self.coeff = coeff
        self.degree = d
        self.counted = k
        self.dual_ok = dual_ok
        self.cs = cs

    def audit(self):
        """Degree and consistency audit of the determinant polynomial.

        Checks that the leading coefficient is a unit (full predicted
        degree), that the coefficients duality fixed agree with the counted
        ones where both are known, and that the power sum p_m one degree
        past the counts, which the polynomial forces by Newton's recurrence
        p_m = -(m c_m + sum_(i<m) c_(m-i) p_i) with no division, matches one
        more honestly computed trace sum.  Where ell divides counted + 1 that
        degree checks nothing new: both sides drop c_m and the points of
        degree m, which count m times.  The audit then takes m one higher."""
        coeff, d = self.coeff, self.degree
        ell = coeff.ell
        top = self.counted + 1
        if top % ell == 0:
            top += 1
        cs = self.cs + [0, 0]
        ps = [0]
        for m in range(1, top + 1):
            ps.append(-(m * cs[m] + sum(cs[m - i] * ps[i] for i in range(1, m))) % ell)
        leading = cs[d]
        consistent = ps[top] == -self.spec.trace_sum(coeff, top) % ell
        return {
            "degree": d,
            "leading": leading,
            "leading_nonzero": leading != 0,
            "power_sum_consistent": consistent,
            "ok": leading != 0 and consistent and self.dual_ok,
        }


def verify_gos(spec, coeff):
    """Degree and consistency audit of the spec's determinant polynomial
    under coeff; see GlobalComputation.audit."""
    return spec.global_computation(coeff).audit()


def product_formula_check(spec, coeff, omega, method="auto"):
    """Global determinant against the product of local factors.

    omega is the rational coefficient of dt in a nonzero global 1-form.
    Multiplies, over every puncture and every zero or pole of the form,
    the local factor twisted by the expanded form and the sign given by
    the parity of the conductor exponent; q times that product must be
    the inverted determinant of minus Frobenius, whose duality audit must
    also hold.

    Everywhere unramified data is taken on the full line only: both outer
    cohomology groups are lines, the determinant is (c**2 q)**-1 for the
    constant Frobenius scale c, no determinant degree is reported, and the
    local side only sees the form.
    """
    if omega.is_zero():
        raise ValueError("the 1-form must be nonzero")
    base, ell = spec.base, coeff.ell
    q = base.q
    contributing = [(pt, local_character_at(spec, coeff, pt)) for pt in spec.punctures]
    constant = not any(chi.is_ramified() for _pt, chi in contributing)
    if constant:
        if spec.punctures:
            raise ValueError("everywhere unramified data needs an empty puncture set here")
        scale = spec.trace_at(coeff, 1, base.zero())
        lhs = pow(scale * scale * q, -1, ell)
    punctured = set(spec.punctures)
    orders, expansions = spec.form_data(omega)
    contributing += [(pt, local_character_at(spec, coeff, pt)) for pt, v in orders.items() if v and pt not in punctured]
    rhs = q % ell
    per_point = []
    for pt, chi in contributing:
        kind = "shriek" if pt in punctured else "star"
        a = chi.artin_a(kind)
        res = _local_factor(chi, omega, pt, kind, method, expansions)
        sign = -1 if a % 2 else 1
        rhs = rhs * res.value.value * sign % ell
        per_point.append(
            {
                "point": pt.to_json(),
                "residue_degree": pt.degree(),
                "kind": kind,
                "conductor": a,
                "conductor_with_form": res.conductor_a_omega,
                "epsilon": res.value.value,
                "sign": sign,
            }
        )
    if not constant:
        # after the local factors: a local refusal costs no point walk
        glob = spec.global_computation(coeff)
        d = glob.degree
        lhs = glob.cs[d]
    return {
        "mode": "constant" if constant else "determinant",
        "ok": lhs == rhs and (constant or glob.dual_ok),
        "degree": None if constant else d,
        "lhs": lhs,
        "rhs": rhs,
        "per_point": per_point,
        "ell": coeff.ell,
    }


def transfer_constants(coeff, variants, point, form):
    """Transfer constants of a cover at one upstairs point.

    variants lists pairs (global spec, local spec) of upstairs data.  The
    global spec carries the pulled back exponential twist; its inverted
    determinant of minus Frobenius is the downstairs factor.  The local
    spec is the data itself; its factor at the point is taken with form,
    the rational coefficient of the pulled back 1-form.  The transfer
    constant of a variant is the ratio of the two, and it must not depend
    on the variant; the upstairs conductor with the form must match the
    determinant degree.
    """
    degrees = []
    lambdas = []
    conductor_ok = True
    ups = []
    expansions = {}
    # every local factor before any point walk: a local refusal is cheap
    for _gspec, lspec in variants:
        ups.append(_local_factor(local_character_at(lspec, coeff, point), form, point, "shriek", "auto", expansions))
    for (gspec, _lspec), up in zip(variants, ups):
        glob = gspec.global_computation(coeff)
        d = glob.degree
        down = (-1) ** d * glob.cs[d]
        if up.conductor_a_omega != d:
            conductor_ok = False
        degrees.append(d)
        lambdas.append(down * pow(up.value.value, -1, coeff.ell) % coeff.ell)
    return {
        "degrees": degrees,
        "lambdas": lambdas,
        "all_equal": all(v == lambdas[0] for v in lambdas),
        "conductor_ok": conductor_ok,
    }
