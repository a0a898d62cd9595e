"""Local characters: reduction of wild data, tables, conductors."""

import itertools
import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from epsilon_lab import gf
from epsilon_lab.coeff import coeff_setup
from epsilon_lab.gf import CapExceeded, fq_build, trace
from epsilon_lab.chars import LocalCharacter, as_reduce, unit_keys
from epsilon_lab.localfield import LaurentSeries, PrecisionError, dlog, residue
from local_props import char_product, twist_unramified
from uniformizer import add, compose, reversion, same, sub, transport

F3 = fq_build(3, 1)
F9 = fq_build(3, 2)
F5 = fq_build(5, 1)
F4 = fq_build(2, 2)
F2 = fq_build(2, 1)

C3 = coeff_setup(3, [2])
C9 = coeff_setup(3, [8])
C5 = coeff_setup(5, [4])
C4 = coeff_setup(2, [3])
C2 = coeff_setup(2, [1])

COEFF_FOR = {3: C3, 9: C9, 5: C5, 4: C4}


def series(field, v, coeffs, prec=None):
    return LaurentSeries.make(field, v, [field.elem(c) if isinstance(c, int) else c for c in coeffs], prec)


def same_char(a, b):
    """Whether two characters agree piece by piece, the datum on its window."""
    return (a.field, a.c_pi, a.tame_e) == (b.field, b.c_pi, b.tame_e) and same(a.wild_h, b.wild_h)


def random_char(rng, field, coeff, max_swan=3):
    c_pi = coeff.elem(rng.randrange(1, coeff.ell))
    tame = rng.randrange(field.q - 1) if field.q > 2 else 0
    n = rng.randrange(0, max_swan + 1)
    coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(n)]
    if n:
        coeffs[0] = field.from_index(rng.randrange(1, field.q))
    h = LaurentSeries.make(field, -n, coeffs, 1) if n else LaurentSeries.zero(field, 1)
    return LocalCharacter(field, coeff, c_pi, tame, h)


def random_nonzero_series(rng, field, width=8):
    v = rng.randrange(-3, 4)
    coeffs = [rng.randrange(field.q) for _ in range(width)]
    coeffs[0] = rng.randrange(1, field.q)
    return series(field, v, [field.from_index(c) for c in coeffs], v + width)


# ---------------------------------------------------------------------------
# additive reduction


def raw_wild_value(coeff, h, u):
    """Independent route: pair an arbitrary (unreduced) datum with a unit."""
    return coeff.psi(trace(residue(h * dlog(u))))


def test_reduce_canonical_support():
    rng = random.Random(2)
    for field in (F3, F9, F5, F4):
        for _ in range(20):
            n = rng.randrange(1, 7)
            coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(n)]
            h = LaurentSeries.make(field, -n, coeffs, 1)
            red = as_reduce(h)
            for i, c in enumerate(red.coeffs):
                k = red.v + i
                if c:
                    assert k < 0 and (-k) % field.p != 0
            assert same(as_reduce(red), red)


def test_reduce_kills_coboundaries():
    rng = random.Random(5)
    for field in (F3, F9, F5, F4):
        p = field.p
        for _ in range(15):
            n = rng.randrange(1, 4)
            coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(n)]
            g = LaurentSeries.make(field, -n, coeffs, p * n + 2)
            delta = sub(reduce(mul, [g] * p), g)
            assert not as_reduce(delta).coeffs


def test_reduce_exhaustive_against_raw_pairing():
    """Every wild datum with poles to order 4 over F_3, and to order 6 over
    F_2, evaluates identically before and after reduction, on every unit
    mod pi**(poles + 1)."""
    for field, coeff, poles in ((F3, C3, 4), (F2, C2, 6)):
        units = []
        for key in unit_keys(field, poles + 1):
            units.append(series(field, 0, [field.from_index(i) for i in key], poles + 1))
        for a in itertools.product(range(field.q), repeat=poles):
            h = LaurentSeries.make(field, -poles, [field.from_index(c) for c in reversed(a)], 1)
            red = as_reduce(h)
            for u in units:
                assert raw_wild_value(coeff, h, u) == raw_wild_value(coeff, red, u)


def test_reduce_is_canonical_and_additive_to_deep_poles():
    rng = random.Random(37)
    for field in (F2, F3, F4, F5, F9):
        p = field.p
        for _ in range(8):
            data = []
            for _ in range(2):
                n = rng.randrange(1, 301)
                coeffs = [rng.randrange(field.q) if rng.randrange(3) else 0 for _ in range(n)]
                data.append(LaurentSeries.of(field, -n, coeffs, 1))
            h1, h2 = data
            red = as_reduce(h1)
            assert all(c == 0 or k % p for k, c in enumerate(red.coeffs, red.v))
            assert same(as_reduce(red), red)
            assert same(as_reduce(add(h1, h2)), add(red, as_reduce(h2)))


def test_reduce_hand_example():
    # pi**-3 pairs like pi**-1 over F_3 since 1**(1/3) = 1
    h = series(F3, -3, [1, 0, 0], 1)
    assert same(as_reduce(h), series(F3, -1, [1], 1))


def test_reduce_needs_window():
    h = LaurentSeries.make(F3, -3, [1], -1)
    with pytest.raises(PrecisionError):
        as_reduce(h)


# ---------------------------------------------------------------------------
# evaluation


def test_tame_hand_values():
    chi = LocalCharacter(F3, C3, C3.elem(5), 1)
    # 2 generates the units of F_3, the quadratic character sends it to -1
    assert chi.coeff.kummer_chi(chi.tame_e, gf.dlog(F3, F3.elem(2).index()), F3.q - 1) == C3.ell - 1
    assert chi(series(F3, 1, [1, 0], 3)) == 5
    assert chi(series(F3, 1, [2, 0], 3)) == -5 % C3.ell


def test_c_pi_of_another_coefficient_field_is_refused():
    # 40 mod 73 is no value mod 7: the boundary type keeps it to its field
    with pytest.raises(ValueError):
        LocalCharacter(F3, coeff_setup(3, [2]), coeff_setup(3, [8]).elem(40), 0)


def test_wild_hand_value():
    chi = LocalCharacter(F3, C3, C3.one(), 0, series(F3, -1, [1], 1))
    got = chi(series(F3, 0, [1, 1, 0], 3))
    assert got == C3.psi(1)
    assert chi(series(F3, 0, [1, 2, 0], 3)) == C3.psi(2)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 30))
def test_eval_multiplicative(fi, seed):
    field = (F3, F9, F5, F4)[fi]
    coeff = COEFF_FOR[field.q]
    rng = random.Random(seed)
    chi = random_char(rng, field, coeff)
    x = random_nonzero_series(rng, field)
    y = random_nonzero_series(rng, field)
    assert chi(x * y) == chi(x) * chi(y) % coeff.ell


def test_eval_precision_guard():
    chi = LocalCharacter(F5, C5, C5.one(), 0, series(F5, -3, [1, 0, 0], 1))
    assert chi.swan() == 3
    with pytest.raises(PrecisionError):
        chi(series(F5, 0, [1, 1], 2))


TABLE_FREE_FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2)]


@pytest.mark.parametrize("p, n", TABLE_FREE_FIELDS)
def test_eval_reads_the_same_values_without_tables(monkeypatch, p, n):
    # the pairing and its trace go through int_ops: on the field's tables
    # by default, through FqElem with the table-free IntOps
    from epsilon_lab import chars, gf, localfield

    field = fq_build(p, n)
    coeff = coeff_setup(p, [field.q - 1])
    rng = random.Random("table free %d %d" % (p, n))
    cases = []
    for _ in range(12):
        chi = random_char(rng, field, coeff, max_swan=5)
        cases.append((chi, random_nonzero_series(rng, field)))
    want = [chi(x) for chi, x in cases]
    assert any(chi.swan() for chi, _x in cases)
    monkeypatch.setattr(chars, "int_ops", gf.IntOps)
    monkeypatch.setattr(localfield, "int_ops", gf.IntOps)
    assert [chi(x) for chi, x in cases] == want


def test_inverse_keeps_the_reduced_datum():
    rng = random.Random(33)
    for field in (F3, F9, F5, F4):
        coeff = COEFF_FOR[field.q]
        p = field.p
        for k in range(12):
            chi = random_char(rng, field, coeff)
            if k % 2:
                # a datum given with poles at multiples of p, reduced on the way in
                n = p * rng.randrange(1, 3) + rng.randrange(0, 2)
                coeffs = [field.from_index(rng.randrange(1, field.q))]
                coeffs += [field.from_index(rng.randrange(field.q)) for _ in range(n - 1)]
                chi = LocalCharacter(field, coeff, chi.c_pi, chi.tame_e, LaurentSeries.make(field, -n, coeffs, 1))
            inv = chi.inverse()
            want = LocalCharacter(field, coeff, chi.c_pi ** -1, -chi.tame_e, -chi.wild_h)
            assert same_char(inv, want)
            assert (inv.wild_h.v, inv.wild_h.prec, inv.wild_h.coeffs) == (
                want.wild_h.v, want.wild_h.prec, want.wild_h.coeffs,
            )
            assert inv.swan() == chi.swan()
            x = random_nonzero_series(rng, field, width=chi.swan() + 3)
            assert chi(x) * inv(x) % coeff.ell == 1


def test_character_algebra():
    rng = random.Random(9)
    for field in (F3, F5, F9):
        coeff = COEFF_FOR[field.q]
        ell = coeff.ell
        a = random_char(rng, field, coeff)
        b = random_char(rng, field, coeff)
        x = random_nonzero_series(rng, field)
        assert char_product(a, b)(x) == a(x) * b(x) % ell
        assert char_product(a, a.inverse())(x) == 1
        c = rng.randrange(1, ell)
        assert twist_unramified(a, c)(x) == a(x) * pow(c, x.valuation(), ell) % ell


def test_conductor_exponents():
    unram = LocalCharacter(F3, C3, C3.elem(5), 0)
    assert unram.artin_a("shriek") == 1 and unram.artin_a("star") == 0
    tame = LocalCharacter(F3, C3, C3.one(), 1)
    assert tame.artin_a("shriek") == 1 and tame.artin_a("star") == 1
    wild = LocalCharacter(F3, C3, C3.one(), 1, series(F3, -2, [1, 0], 1))
    assert wild.swan() == 2
    assert wild.artin_a("shriek") == 3 and wild.artin_a("star") == 3
    # the conductor shifted by the twist of a 1-form of valuation -2
    w = series(F3, -2, [1, 1, 1], 2)
    assert wild.artin_a("shriek") + w.valuation() == 1
    with pytest.raises(ValueError):
        unram.artin_a("middle")


# ---------------------------------------------------------------------------
# oracle tables


# the oracle's table has at most this many entries
ORACLE_CAP = 1 << 16


class OracleCharacter:
    """Value table of a character on unit residues mod pi**nu.

    The table is keyed by coefficient index tuples of length nu, and its
    values are ints mod ell.  On construction the multiplicative law is
    checked, exhaustively when the unit group is small and on a dense
    random sample otherwise.
    """

    __slots__ = ("field", "coeff", "nu", "c_pi", "table")

    def __init__(self, field, coeff, nu, c_pi, table):
        self.field = field
        self.coeff = coeff
        self.nu = nu
        self.c_pi = c_pi
        self.table = table
        self._verify()

    @classmethod
    def from_character(cls, chi, nu):
        field = chi.field
        if nu < chi.swan() + 1:
            raise ValueError("table depth %d below swan + 1 = %d" % (nu, chi.swan() + 1))
        if field.q ** nu > ORACLE_CAP:
            raise CapExceeded("oracle table would exceed %d entries" % ORACLE_CAP)
        table = {}
        for key in unit_keys(field, nu):
            u = LaurentSeries.make(field, 0, [field.from_index(i) for i in key], nu)
            table[key] = chi(u)
        return cls(field, chi.coeff, nu, chi.c_pi, table)

    def _mul_key(self, a, b):
        ea = [self.field.from_index(i) for i in a]
        eb = [self.field.from_index(i) for i in b]
        out = [self.field.zero()] * self.nu
        for i, x in enumerate(ea):
            if x.is_zero():
                continue
            for j, y in enumerate(eb):
                if i + j >= self.nu:
                    break
                out[i + j] = out[i + j] + x * y
        return tuple(c.index() for c in out)

    def _verify(self):
        keys = list(self.table)
        pairs = []
        if len(keys) <= 300:
            pairs = [(a, b) for a in keys for b in keys]
        else:
            rng = random.Random(0xC0FFEE)
            pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(200)]
        for a, b in pairs:
            ab = self._mul_key(a, b)
            if self.table[a] * self.table[b] % self.coeff.ell != self.table[ab]:
                raise ValueError("value table is not multiplicative at %r * %r" % (a, b))

    def __call__(self, x):
        v = x.valuation()
        if x.prec - v < self.nu:
            raise PrecisionError("oracle needs %d coefficients" % self.nu)
        u = x.shift(-v)
        key = tuple(u.coeff(i).index() for i in range(self.nu))
        return pow(self.c_pi.value, v, self.coeff.ell) * self.table[key] % self.coeff.ell

    def swan_by_definition(self):
        """Largest m >= 1 with the character nontrivial on 1 + pi**m O, by
        scanning the table; 0 if trivial on all principal units."""
        out = 0
        for m in range(1, self.nu):
            seen = False
            for c in range(1, self.field.q):
                key = [1] + [0] * (self.nu - 1)
                key[m] = c
                if self.table[tuple(key)] != 1:
                    seen = True
                    break
            if seen:
                out = m
        return out


def test_oracle_matches_character():
    rng = random.Random(17)
    for field, nu in ((F3, 4), (F5, 3), (F4, 3), (F9, 2)):
        coeff = COEFF_FOR[field.q]
        chi = random_char(rng, field, coeff, max_swan=nu - 1)
        oracle = OracleCharacter.from_character(chi, nu)
        for _ in range(12):
            x = random_nonzero_series(rng, field, width=nu + 1)
            assert oracle(x) == chi(x)


def test_oracle_swan_by_definition():
    rng = random.Random(29)
    for _ in range(10):
        chi = random_char(rng, F3, C3, max_swan=3)
        oracle = OracleCharacter.from_character(chi, max(chi.swan() + 1, 2))
        assert oracle.swan_by_definition() == chi.swan()


def test_oracle_guards():
    chi = LocalCharacter(F3, C3, C3.one(), 1, series(F3, -2, [1, 0], 1))
    with pytest.raises(ValueError):
        OracleCharacter.from_character(chi, 2)
    big = LocalCharacter(F9, C9, C9.one(), 1)
    with pytest.raises(CapExceeded):
        OracleCharacter.from_character(big, 12)


def test_oracle_catches_broken_table():
    chi = LocalCharacter(F3, C3, C3.one(), 1)
    oracle = OracleCharacter.from_character(chi, 2)
    bad = dict(oracle.table)
    key = next(iter(bad))
    bad[key] = bad[key] * 2 % C3.ell
    with pytest.raises(ValueError):
        OracleCharacter(F3, C3, 2, chi.c_pi, bad)


# ---------------------------------------------------------------------------
# uniformizer independence


def test_transport_preserves_values():
    rng = random.Random(41)
    for field in (F3, F5):
        coeff = COEFF_FOR[field.q]
        for _ in range(8):
            chi = random_char(rng, field, coeff, max_swan=3)
            width = 10
            ucoeffs = [rng.randrange(1, field.q)] + [
                rng.randrange(field.q) for _ in range(width - 1)
            ]
            s = series(field, 1, [field.from_index(c) for c in ucoeffs], 1 + width)
            moved = transport(chi, s)
            assert moved.swan() == chi.swan()
            assert moved.tame_e == chi.tame_e
            t = reversion(s)
            for _ in range(4):
                x = random_nonzero_series(rng, field, width=7)
                assert chi(x) == moved(compose(x, t))


def test_json_roundtrip():
    cases = [
        (
            C3,
            {"field": F3.to_json(), "c_pi": 2, "tame_e": 1, "wild_h": {"v": -2, "coeffs": [[1], [2]]}},
            LocalCharacter(F3, C3, 2, 1, series(F3, -2, [1, 2], 1)),
        ),
        (
            C9,
            {"field": F9.to_json(), "c_pi": 5, "tame_e": 3, "wild_h": {"v": -2, "coeffs": [[1, 2], [0, 1]]}},
            LocalCharacter(F9, C9, 5, 3, series(F9, -2, [F9.elem((1, 2)), F9.elem((0, 1))], 1)),
        ),
        # no wild_h: the character is tame
        (C3, {"field": F3.to_json(), "c_pi": 1, "tame_e": 0}, LocalCharacter(F3, C3, 1, 0)),
    ]
    for coeff, record, chi in cases:
        assert same_char(LocalCharacter.from_json(coeff, record), chi)
