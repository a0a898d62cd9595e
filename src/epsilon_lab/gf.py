"""Finite field towers with explicit, serializable descriptors.

Fields F_{p^n} are described by a monic irreducible modulus over F_p and a
fixed multiplicative generator, so that two runs (or two programs) agree on
every element encoding.  Elements are coefficient vectors in the modulus
basis.  The absolute cap for any enumerated field is q**m <= 2**24.

The deterministic recipe:

* modulus: the lexicographically first monic irreducible polynomial of the
  requested degree, scanning constant coefficient fastest; a candidate of
  degree n is irreducible iff trial division by every monic polynomial of
  degree 1 .. n // 2 leaves a remainder,
* generator: the first element of multiplicative order q - 1, scanning the
  integer encodings 1, 2, ...; fq_build caches each descriptor it builds.

There is one arithmetic table engine, LogField: exp, log, Zech and
trace-to-F_p tables on the packed integer encoding (the coefficients as
base-p digits), exp, Zech and trace indexed by log to the generator.  The
exp table is filled by walking multiplication by x on packed ints, the
trace table from the basis traces read off the reduction rows.  Each field
has one LogField, built on first use and cached by log_field(field);
nothing else holds arithmetic tables.  Inner loops (the point walk, the
unit sum, the quadratic Gauss constant) read these tables directly,
elements as logs to the generator, and dlog(field, k) is a lookup of the
packed index k in the log table, so its only limit is the field cap.  An
embedding (TowerEmbedding) is a list of images and its reverse dict.

The polynomials and Laurent series of the local side hold packed indices
too and compute through int_ops(field), ints in and out: the IntOps that
the LogField of a field of at most TABLE_LINE = 2**16 elements keeps, and
IntOps(field), through FqElem (from_index, the operation, index()), above
the line, so no table is built past it and no second product is written.
FqElem multiplies by the schoolbook product of the coefficient vectors,
its high terms folded back through the reduction rows x**(n + k) mod
modulus that each FieldDesc computes once.  It is the boundary type (JSON,
the public API, single coefficients; the engines pass packed indices and
logs), it carries the seeds (generators, the root powers that span an
embedding's table, the few products a table build needs), traces and
Frobenius on single elements (as_reduce's among them), and it is the
oracle the tables are tested against.  Its trace(x) is the one Frobenius
fold, read by the audits (the definitional unit sum, the pointwise trace)
and by IntOps above the line, never by a table build.  Character
evaluation is no such single-element work: it reads the trace of its wild
pairing through int_ops, and the Kummer key of a spec's local data is a
log in the residue field, whose generator has the base generator as its
norm.
"""

from __future__ import annotations

import math

FIELD_CAP = 1 << 24
TABLE_LINE = 1 << 16


class CapExceeded(ValueError):
    """Raised when a requested enumeration would exceed the desk cap."""


class Unsupported(ValueError):
    """Input outside the supported domain; carries an optional field name."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p, coefficients as int lists, low degree
# first, no trailing zeros


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        k = len(a) - 1 - dm
        c = (a[-1] * inv) % p
        for i, cm in enumerate(m):
            a[i + k] = (a[i + k] - c * cm) % p
        _ptrim(a)
    return a


def _digits(k, base, n):
    """The n lowest digits of k in the given base, low first."""
    out = []
    for _ in range(n):
        k, d = divmod(k, base)
        out.append(d)
    return out


def _pack(digits, base):
    """The inverse of _digits: the integer with these digits, low first."""
    k = 0
    for d in reversed(digits):
        k = k * base + d
    return k


def _is_irreducible(f, p):
    """Trial division: f of degree n is irreducible over F_p iff no monic
    polynomial of degree 1 .. n // 2 divides it."""
    n = len(f) - 1
    if n <= 0:
        return False
    for e in range(1, n // 2 + 1):
        for k in range(p ** e):
            if not _pmod(f, _digits(k, p, e) + [1], p):
                return False
    return True


def _prime_factors(n):
    """The distinct primes of n >= 1, ascending: the primes below 40 by
    trial division, then Pollard's rho (x -> x * x + c from x = 2, with
    Floyd's cycle test) splits what is left until _is_prime accepts each
    part.  Rho finds a prime r of a composite in about sqrt(r) steps, so
    any n below 2^60 factors in tens of milliseconds at most."""
    out = [r for r in _SMALL_PRIMES if n % r == 0]
    for r in out:
        while n % r == 0:
            n //= r
    parts, large = [n] * (n > 1), set()
    while parts:
        m = parts.pop()
        if _is_prime(m):
            large.add(m)
            continue
        d, c = m, 0
        while d == m:  # the cycles modulo every prime of m closed at once: next c
            c += 1
            x, y, d = 2, 2, 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(x - y, m)
        parts += [d, m // d]
    return out + sorted(large)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Trial division by the primes below 40, then strong probable prime
    tests to each of them as base: exact below 3.3 * 10**24, far past any
    prime the caps let through."""
    if n < 41 or any(n % b == 0 for b in _SMALL_PRIMES):
        return n in _SMALL_PRIMES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    for b in _SMALL_PRIMES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def check_cap(p, n):
    """Refuse F_{p^n} past FIELD_CAP, before p is tested for primality.
    For p >= 2, p**n is past the cap once n reaches the cap's bit length,
    so a large n is refused without forming p**n; a p below 2 is left to
    the primality test."""
    if p < 2:
        return
    if n >= FIELD_CAP.bit_length():
        raise CapExceeded("field size %d^%d exceeds cap %d" % (p, n, FIELD_CAP))
    if p ** n > FIELD_CAP:
        raise CapExceeded("field size %d exceeds cap %d" % (p ** n, FIELD_CAP))


def _check_size(p, n):
    """Refuse an n that is no positive integer, then F_{p^n} past the cap,
    then a p that is not prime: before any field is scanned or built."""
    if type(n) is not int or n < 1:
        raise Unsupported("n must be a positive integer, got %r" % (n,), field="n")
    check_cap(p, n)
    if not _is_prime(p):
        raise Unsupported("p must be prime, got %r" % (p,), field="p")


# ---------------------------------------------------------------------------


def _reduction_rows(modulus, p):
    """rows[k] = the coefficients of x**(n + k) modulo the monic modulus of
    degree n, k = 0 .. n - 2: the high terms of a product fold back through
    them in one pass."""
    n = len(modulus) - 1
    first = [(-c) % p for c in modulus[:n]]
    rows = []
    row = first
    for _ in range(n - 1):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [(a + top * b) % p for a, b in zip(row, first)]
    return tuple(rows)


class FieldDesc:
    """Descriptor of F_{p^n}: modulus and generator pin all encodings.

    modulus is a tuple of n + 1 ints (ascending powers, monic), generator a
    tuple of n ints giving the coefficient vector of a fixed multiplicative
    generator.  q = p**n, the reduction rows of the modulus (_reduction_rows)
    and the hash are computed once.
    """

    __slots__ = ("p", "n", "q", "modulus", "generator", "rows", "_hash")

    def __init__(self, p, n, modulus, generator):
        _check_size(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise Unsupported("modulus must be monic of degree n", field="modulus")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self.generator = tuple(c % p for c in generator)
        if len(self.generator) != n:
            raise Unsupported("generator must have n coefficients", field="generator")
        self.rows = _reduction_rows(modulus, p)
        self._hash = hash((p, n, modulus, self.generator))

    def elem(self, coeffs):
        if isinstance(coeffs, int):
            return FqElem(self, (coeffs % self.p,) + (0,) * (self.n - 1))
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients")
        return FqElem(self, coeffs + (0,) * (self.n - len(coeffs)))

    def index_of(self, c):
        """The packed index of c: an element of this field, an int naming
        an element of the prime field, or a coefficient list low first."""
        if isinstance(c, FqElem) and c.field != self:
            raise ValueError("elements live in different fields")
        return (c if isinstance(c, FqElem) else self.elem(c)).index()

    def json_elems(self, items, name):
        """The elements a JSON list of coefficients names, each an integer
        or a list of integers low degree first; name is the input the list
        came from, reported when it is no list.  JSON true is no integer
        here, though Python takes it for 1."""
        if type(items) is not list:
            raise Unsupported("%s must be a list of coefficients" % name, field=name)
        for c in items:
            if not (type(c) is int or (type(c) is list and all(type(x) is int for x in c))):
                raise Unsupported("a coefficient must be an integer or a list of integers", field="coefficient")
        return [self.elem(c) for c in items]

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gen(self):
        return FqElem(self, self.generator)

    def digits(self, k):
        """The coefficient vector of the element with packed index k: the
        base-p digits of k, low first."""
        return _digits(k, self.p, self.n)

    def from_index(self, k):
        """Element whose coefficient vector is the base-p digits of k."""
        return FqElem(self, tuple(self.digits(k)))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldDesc)
            and (self.p, self.n, self.modulus, self.generator)
            == (other.p, other.n, other.modulus, other.generator)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FieldDesc(p=%d, n=%d)" % (self.p, self.n)

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "modulus": list(self.modulus),
            "generator": list(self.generator),
        }

    @classmethod
    def from_json(cls, obj):
        """The descriptor a JSON object names, checked where it is read:
        p, n and the modulus and generator entries are JSON integers, the
        constructor checks their shapes, and the generator has order
        q - 1, so F_p[x]/(modulus) is a field."""
        if not isinstance(obj, dict):
            raise Unsupported("a field descriptor must be a JSON object", field="field")
        for key in ("p", "n"):
            if type(obj[key]) is not int:
                raise Unsupported("%s must be an integer" % key, field=key)
        for key in ("modulus", "generator"):
            if type(obj[key]) is not list or any(type(c) is not int for c in obj[key]):
                raise Unsupported("%s must be a list of integers" % key, field=key)
        desc = cls(obj["p"], obj["n"], obj["modulus"], obj["generator"])
        if not _full_order(desc.gen()):
            raise Unsupported("generator must have order q - 1 over an irreducible modulus", field="generator")
        return desc


class FqElem:
    """Element of F_{p^n} as a coefficient vector in the modulus basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, int):
            return self.field.elem(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FqElem(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)),
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # schoolbook product, then the terms of degree n + k fold back
        # through rows[k]; one reduction mod p at the end
        f = self.field
        n = f.n
        out = [0] * (2 * n - 1)
        b = other.coeffs
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        for c, row in zip(out[n:], f.rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        p = f.p
        return FqElem(f, tuple([c % p for c in out[:n]]))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.coeffs[0] == 1 and not any(self.coeffs[1:]):
            return self
        # q - 2 exponentiation, fields here are small
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e):
        f = self.field
        if self.is_zero():
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return f.one() if e == 0 else f.zero()
        e %= f.q - 1
        out = f.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def index(self):
        """Integer encoding: base-p digits are the coefficients."""
        return _pack(self.coeffs, self.field.p)

    def __repr__(self):
        return "FqElem(%r, %r)" % (self.field, list(self.coeffs))


class TowerEmbedding:
    """Embedding F_{p^n} -> F_{p^{nm}} determined by a root of the small
    modulus in the big field, sum c_i x**i -> sum c_i root**i: a ring
    homomorphism, read off its table of images, which for a proper subfield
    of a field under the cap has at most 2**12 entries.  section inverts it
    on the image and raises off it."""

    __slots__ = ("small", "big", "root", "_table")

    def __init__(self, small, big, root):
        if small.p != big.p or big.n % small.n != 0:
            raise ValueError("not a subfield relation")
        self.small = small
        self.big = big
        self.root = root
        # from the prime field, or onto itself by x (packed index p), the
        # embedding keeps every packed index: no table, a range
        identity = small.n == 1 or (small == big and root.index() == big.p)
        self._table = (range(small.q),) * 2 if identity else None

    def _images(self):
        """(images, places), built on first use: images[k] the packed index
        of the image of packed index k (those below p**(i + 1) are those
        below p**i plus c root**i, c < p), places the reverse dict."""
        if self._table is None:
            p, power, vecs = self.big.p, self.big.one(), [(0,) * self.big.n]
            for _ in range(self.small.n):
                vecs = [tuple((a + c * b) % p for a, b in zip(v, power.coeffs)) for c in range(p) for v in vecs]
                power = power * self.root
            images = [_pack(v, p) for v in vecs]
            self._table = (images, {k: i for i, k in enumerate(images)})
        return self._table

    def embed(self, x):
        """The image of x, read off the table."""
        if x.field != self.small:
            raise ValueError("element not in the small field")
        return self.big.from_index(self.embed_index(x.index()))

    def embed_index(self, k):
        """embed on packed indices."""
        return self._images()[0][k]

    def section(self, y):
        """The x with embed(x) = y."""
        if y.field != self.big:
            raise ValueError("element not in the big field")
        places, k = self._images()[1], y.index()
        if k not in places:
            raise ValueError("element is not in the embedded subfield")
        return self.small.from_index(places[k])


def _full_order(x):
    """Whether x has multiplicative order q - 1, which in F_p[x]/(modulus)
    also proves the modulus irreducible: every nonzero element is a unit.
    With r the least prime factor of q - 1 and y = x**((q - 1) / r), that
    is y**r = 1 and no x**((q - 1) / s) = 1; y**r is taken as
    y**(r - 1) * y, since __pow__ reduces exponents mod q - 1."""
    one, order = x.field.one(), x.field.q - 1
    if order == 1:
        return x == one
    r, *rest = _prime_factors(order)
    y = x ** (order // r)
    return y != one and all(x ** (order // s) != one for s in rest) and y ** (r - 1) * y == one


_FIELD_CACHE = {}


def fq_build(p, n):
    """The canonical descriptor of F_{p^n}, built on first use and cached.

    The modulus is the first candidate in the lexicographic scan that trial
    division finds irreducible; the generator is the first element of full
    order in the scan of integer encodings 1, 2, ...
    """
    # 3.0 and True hash like 3: they skip the cache and fail below
    if type(p) is int and type(n) is int and (p, n) in _FIELD_CACHE:
        return _FIELD_CACHE[(p, n)]
    _check_size(p, n)
    for k in range(p ** n):
        modulus = _digits(k, p, n) + [1]
        if _is_irreducible(modulus, p):
            break
    else:
        raise ValueError("no irreducible polynomial found, impossible")
    desc = FieldDesc(p, n, modulus, (1,) + (0,) * (n - 1))
    for k in range(1, p ** n):
        x = desc.from_index(k)
        if _full_order(x):
            desc = _FIELD_CACHE[(p, n)] = FieldDesc(p, n, modulus, x.coeffs)
            return desc
    raise ValueError("no generator found, impossible")


def frobenius(x, i=1):
    """x -> x^(p^i), the i-th power of the absolute Frobenius."""
    return x ** (x.field.p ** i)


def trace(x):
    """Absolute trace of x to F_p, an int in [0, p): the sum of the
    Frobenius orbit of x.  The tables hold their own traces
    (_trace_table); this fold is the route that audits them."""
    acc = cur = x
    for _ in range(x.field.n - 1):
        cur = frobenius(cur)
        acc = acc + cur
    if any(acc.coeffs[1:]):
        raise ValueError("trace landed outside the prime field, broken field")
    return acc.coeffs[0]


def norm(x, emb):
    """Norm to the subfield given by emb: x**((Q - 1) / (q - 1)), Q and q
    the sizes of emb's big and small fields, read back in the small one."""
    return emb.section(x ** ((emb.big.q - 1) // (emb.small.q - 1)))


def dlog(field, k):
    """Log to the generator of the element with packed index k: a lookup
    in the field's one cached LogField, so the only limit is the field cap."""
    if not k:
        raise ValueError("dlog of zero")
    return log_field(field).log[k]


def first_root(ops, coeffs, step, count):
    """The first step**k, k < count, that is a root of sum coeffs[i] x**i,
    all packed indices computed with ops, or None."""
    fma, mul = ops.fma, ops.mul
    cur = 1
    for _ in range(count):
        acc = 0
        for c in reversed(coeffs):
            acc = fma(acc, cur, c)
        if not acc:
            return cur
        cur = mul(cur, step)
    return None


def find_embedding(small, big):
    """Embedding of small into big: locate a root of small.modulus among
    0 and the powers of a generator of the subfield of big of the right
    order (tiny scan, never the whole big field)."""
    if small.p != big.p or big.n % small.n != 0:
        raise ValueError("not a subfield relation")
    mod = small.modulus
    if mod[0] == 0:
        return TowerEmbedding(small, big, big.zero())
    q_small = small.q
    gen_sub = big.gen() ** ((big.q - 1) // (q_small - 1)) if q_small > 2 else big.one()
    # a seed computation: through FqElem, so it builds no table for big;
    # the modulus's coefficients lie in F_p, where an index is the value
    root = first_root(IntOps(big), mod, gen_sub.index(), q_small - 1)
    if root is None:
        raise ValueError("no root of the small modulus in the big field")
    return TowerEmbedding(small, big, big.from_index(root))


_RESIDUE_CACHE = {}


def residue_field(base, d):
    """Degree d extension of base with a norm compatible generator, built
    on first use and cached.

    The returned descriptor's generator G satisfies
    norm(G, emb) == base.generator, which makes multiplicative characters
    of the base compose with norms by plain exponent bookkeeping.  Returns
    (desc, emb) with emb the embedding of base.
    """
    got = _RESIDUE_CACHE.get((base, d))
    if got is None:
        got = _RESIDUE_CACHE[(base, d)] = _residue_field(base, d)
    return got


def _residue_field(base, d):
    if d == 1:
        return base, identity_embedding(base)
    big = fq_build(base.p, base.n * d)
    emb = find_embedding(base, big)
    q = base.q
    Q = big.q
    # G = big.gen()**k with k the inverse mod q - 1 of the dlog of
    # norm(big.gen()) in the small field, lifted to a unit mod Q - 1
    k = pow(dlog(base, norm(big.gen(), emb).index()), -1, q - 1) if q > 2 else 1
    while math.gcd(k, Q - 1) != 1:
        k += q - 1
    gen = big.gen() ** k
    desc = FieldDesc(big.p, big.n, big.modulus, gen.coeffs)
    # over desc the same modulus and root give the same indices: one table
    emb.big, emb.root = desc, FqElem(desc, emb.root.coeffs)
    return desc, emb


def identity_embedding(field):
    """The embedding of field onto itself by the root its modulus names: x,
    or the scalar -c0 in degree 1."""
    return TowerEmbedding(field, field, field.elem(-field.modulus[0] if field.n == 1 else [0, 1]))


def _x_orbit(field, start):
    """Packed indices of start * x**j for j = 0, 1, ... until the walk is
    back at start (at most q - 1 of them), x being the class of the
    variable modulo field.modulus, n >= 2.

    Multiplying by x shifts the base-p digits up one place.  The digit c
    pushed out of the top stands for c * x**n = -c * (modulus - x**n), so
    it is folded back digit by digit, without carries: one XOR for p = 2,
    one fix-up per nonzero low coefficient of the modulus for odd p.
    """
    p, n = field.p, field.n
    top = p ** (n - 1)
    q = top * p
    low = field.modulus[:n]
    out = []
    k = start
    if p == 2:
        mask = q | sum(1 << i for i, c in enumerate(low) if c)
        for _ in range(q - 1):
            out.append(k)
            k <<= 1
            if k & q:
                k ^= mask
            if k == start:
                break
        return out
    # fixes[c]: (place, bound, add, add - p * place) for each nonzero low
    # coefficient; the digit at place is below bound iff adding does not wrap
    fixes = [()]
    for c in range(1, p):
        row = []
        for i, m in enumerate(low):
            d = (-c * m) % p
            if d:
                place = p ** i
                row.append((place, p - d, d * place, (d - p) * place))
        fixes.append(tuple(row))
    for _ in range(q - 1):
        out.append(k)
        c, k = divmod(k, top)
        k *= p
        if c:
            for place, bound, up, wrap in fixes[c]:
                k += up if k // place % p < bound else wrap
        if k == start:
            break
    return out


def _exp_table(field):
    """exp[e] = index encoding of G**e, G the generator, on packed ints.

    In degree 1 this is a walk by the scalar G.  Otherwise x (the class of
    the variable) has order r = (q - 1) / s and G**s = x**u for some u, so
    G**(i + s t) = G**i * x**(u t): one walk by x per coset leader G**i,
    and only the s leaders cost FqElem products.
    """
    p, q = field.p, field.q
    if field.n == 1:
        g = field.generator[0]
        exp = [0] * (q - 1)
        k = 1
        for e in range(q - 1):
            exp[e] = k
            k = k * g % p
        if k != 1:
            raise ValueError("generator does not have full order")
        return exp
    walk = _x_orbit(field, 1)
    r = len(walk)
    s = (q - 1) // r
    g = field.gen()
    leaders = []
    cur = field.one()
    for _ in range(s):
        leaders.append(cur.index())
        cur = cur * g
    if r * s != q - 1 or cur.index() not in walk:
        raise ValueError("generator does not have full order")
    u = walk.index(cur.index())
    exp = [0] * (q - 1)
    for i, lead in enumerate(leaders):
        orbit = _x_orbit(field, lead) if i else walk
        exp[i::s] = [orbit[u * t % r] for t in range(r)]
    return exp


def _trace_table(field, exp):
    """tr[e] = absolute trace of G**e, an int in [0, p), from exp.

    Tr(x**i) is the trace of multiplication by x**i, whose column k is
    x**(i + k): n for i = 0, and for i >= 1 the sum of the diagonal
    entries rows[i + k - n][k], k >= n - i, of the reduction rows.  The
    trace is F_p-linear, so these n basis traces fill a table by packed
    index in place, digit by digit, which is then read out in log order."""
    p, n, rows = field.p, field.n, field.rows
    tr = [0] * field.q
    # the prime field: Tr(d) = n d
    tr[:p] = [d * n % p for d in range(p)]
    step = p
    for i in range(1, n):
        tb = sum(rows[i + k - n][k] for k in range(n - i, n)) % p
        for d in range(1, p):
            val = d * tb % p
            tr[d * step : (d + 1) * step] = [(t + val) % p for t in tr[:step]]
        step *= p
    return list(map(tr.__getitem__, exp))


class LogField:
    """The arithmetic tables of F_{p^n}, packed integer element encoding.

    exp[e] is the index encoding of G**e, log is its inverse permutation,
    zech[e] = log(1 + G**e) with -1 standing for log(0), and trace[e] is
    the absolute trace of G**e, an int in [0, p).
    On logs a product is a sum mod order and a + b is
    a + zech[(b - a) % order], so an inner loop runs on ints alone, and
    ops is the IntOps on them that int_ops returns.  gamma holds the two
    count tuples of epsilon.gamma_counts once it has built them, else None."""

    __slots__ = ("field", "q", "order", "exp", "log", "zech", "trace", "ops", "gamma")

    def __init__(self, field):
        q = field.q
        self.field = field
        self.q = q
        self.order = q - 1
        p = field.p
        exp = _exp_table(field)
        # before log and zech, so its index-ordered draft never adds to the peak
        self.trace = _trace_table(field, exp)
        log = [-1] * q
        for e, idx in enumerate(exp):
            if log[idx] != -1:
                raise ValueError("generator does not have full order")
            log[idx] = e
        # 1 + G**e only changes the low digit of G**e
        self.zech = [log[idx - idx % p + (idx + 1) % p] for idx in exp]
        self.exp = exp
        self.log = log
        self.ops = _table_ops(self)
        self.gamma = None


_TABLE_CACHE = {}


def log_field(field):
    """The one LogField of field, built on first use and cached."""
    got = _TABLE_CACHE.get(field)
    if got is None:
        got = _TABLE_CACHE[field] = LogField(field)
    return got


def _table_ops(logs):
    """The IntOps on the tables of logs, kept by that LogField: a product
    is a sum of logs, a sum a Zech lookup."""
    exp, log, zech, tr, m = logs.exp, logs.log, logs.zech, logs.trace, logs.order

    def mul(a, b):
        return exp[(log[a] + log[b]) % m] if a and b else 0

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return exp[-log[a] % m]

    def fma(a, b, c):
        if not a or not b:
            return c
        t = log[a] + log[b]
        if not c:
            return exp[t % m]
        # c + G**t = c (1 + G**(t - log c))
        lc = log[c]
        z = zech[(t - lc) % m]
        return exp[(lc + z) % m] if z >= 0 else 0

    def trace(a):
        return tr[log[a]] if a else 0

    ops = IntOps.__new__(IntOps)
    ops.mul, ops.inv, ops.fma, ops.trace = mul, inv, fma, trace
    # a + b = a * 1 + b, and -1 is the prime field element p - 1
    minus = logs.field.p - 1
    ops.add = lambda a, b: fma(a, 1, b)
    ops.neg = lambda a: mul(a, minus)
    return ops


class IntOps:
    """The arithmetic of one field on packed indices (0 is zero, 1 is one):
    mul(a, b), inv(a), fma(a, b, c) = a * b + c, add(a, b), neg(a) and the
    absolute trace(a) as an int in [0, p), each a plain function of ints.
    IntOps(field) goes through FqElem and holds no table; the route on a
    field's tables is its LogField's ops (_table_ops)."""

    __slots__ = ("mul", "inv", "fma", "trace", "add", "neg")

    def __init__(self, field):
        elem = field.from_index
        self.mul = lambda a, b: (elem(a) * elem(b)).index()
        self.inv = lambda a: elem(a).inverse().index()
        self.fma = lambda a, b, c: (elem(a) * elem(b) + elem(c)).index()
        self.add = lambda a, b: (elem(a) + elem(b)).index()
        self.neg = lambda a: (-elem(a)).index()
        self.trace = lambda a: trace(elem(a))


def int_ops(field):
    """The IntOps of field, ints in and out: its LogField's, built on first
    use up to TABLE_LINE elements; above the line, unless the tables exist,
    IntOps(field), which builds none.  A hit is one dict lookup."""
    got = _TABLE_CACHE.get(field)
    if got is not None:
        return got.ops
    return log_field(field).ops if field.q <= TABLE_LINE else IntOps(field)
