"""Projective representations of finite groups with unit multipliers.

A multiplier is a unit valued function on pairs of group elements, kept
as the table d1 (the coboundary), *, ** or trivial built it: is_cocycle
checks the cocycle relation on every triple, so a broken table is a
verdict, never a raise (the twisted group algebra lives in the tests).  A
representation twisted by a multiplier composes up to it, which is_valid
checks on every pair and entry.  Induction from a subgroup is a block
construction with multiplier corrections; the determinant of an induced
representation is the coset signature times a transfer of the determinant
character, which a coset walk computes independently.  Every value is an
int mod ell, the prime of the coefficient field.

TwistedRep(...) and TwistedRep.regular take outside matrices and validate.
char_rep, twist, det_char and induce reduce each entry as written and
hand the record over as built: valid when its input is, so is_valid on it
audits the code that built it, and the suite reports that verdict as a
failure, never raises it.  A bad ambient or domain is refused in one
place, _pair: both must be subgroups, one inside the other.  A group
keeps one record per (ambient, subgroup) pair, its decomposition in
ascending scan order, coset walk and signature made together on first
use, and its is_subgroup verdicts.  Every map here is finite and exact.
"""

import itertools
import random

from .gf import CapExceeded

__all__ = [
    "FiniteGroup",
    "Multiplier",
    "TwistedRep",
    "char_rep",
    "check_ver_identities",
    "d1",
    "det",
    "delta_char",
    "induce",
    "is_cocycle",
    "run_twisted_suite",
    "verlagerung",
]

# randomized cases one suite runs at most; each costs about 1.2 ms
TRIALS_CAP = 10 ** 4


class FiniteGroup:
    """Finite group given by its multiplication table on indices 0..n-1,
    with 0 the identity; the axioms are verified on construction,
    associativity by Light's test on a greedy generating set.  memo
    holds two maps: "subgroup" takes a sorted member tuple to its
    is_subgroup verdict, and "pair" takes a pair (members, sub) of member
    tuples to its coset record (reps, coset_of, walk, sign) (see _pair)."""

    __slots__ = ("table", "n", "inv", "memo")

    def __init__(self, table):
        n = len(table)
        if n == 0:
            raise ValueError("a group has at least the identity")
        self.table = tuple(tuple(row) for row in table)
        self.n = n
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("multiplication table is not square over the index range")
        for g in range(n):
            if self.table[0][g] != g or self.table[g][0] != g:
                raise ValueError("index 0 is not an identity")
        for g in range(n):
            if len(set(self.table[g])) != n or len({self.table[h][g] for h in range(n)}) != n:
                raise ValueError("multiplication by %d is not a bijection" % g)
        self.inv = tuple(row.index(0) for row in self.table)
        self.memo = {"pair": {}, "subgroup": {}}
        # Light's test: the middles g with (ag)c == a(gc) for all a, c are
        # closed under the product, so a generating set of middles suffices
        t, gens, span = self.table, [], {0}
        for g in range(n):
            if g not in span:
                gens.append(g)
                span = set(self.closure(gens))
        for g in gens:
            tg = t[g]
            for a, ta in enumerate(t):
                if tuple(map(ta.__getitem__, tg)) != t[ta[g]]:
                    c = next(c for c in range(n) if t[ta[g]][c] != ta[tg[c]])
                    raise ValueError("table is not associative at (%d,%d,%d)" % (a, g, c))

    def elements(self):
        return range(self.n)

    def closure(self, gens):
        """Subgroup generated by the given indices, as a sorted tuple."""
        gens = set(gens) | {0}
        out = set(gens)
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = self.table[a][g]
                    if b not in out:
                        out.add(b)
                        nxt.append(b)
            frontier = nxt
            gens = set(out)
        return tuple(sorted(out))

    def subgroups(self):
        """All subgroups generated by up to two elements (every subgroup,
        for the groups built here)."""
        found = {(0,), tuple(range(self.n))}
        found.update(self.closure([g]) for g in range(self.n))
        for g in range(self.n):
            for h in range(g + 1, self.n):
                found.add(self.closure([g, h]))
        return sorted(found, key=lambda s: (len(s), s))

    def is_subgroup(self, members):
        ms = set(members)
        key = tuple(sorted(ms))
        verdicts = self.memo["subgroup"]
        found = verdicts.get(key)
        if found is None:
            t = self.table
            found = verdicts[key] = 0 in ms and all(
                ms.issuperset(map(t[a].__getitem__, ms)) for a in ms
            )
        return found

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def dihedral(cls, n):
        """Order 2n: rotations r, reflections rs, index = r + n*s."""
        def mul(a, b):
            r1, s1 = a % n, a // n
            r2, s2 = b % n, b // n
            r = (r1 + (r2 if s1 == 0 else -r2)) % n
            return r + n * ((s1 + s2) % 2)

        return cls([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])

    @classmethod
    def symmetric(cls, n):
        """The permutations of range(n) in lexicographic order; the product
        of p and q is i -> p[q[i]]."""
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        return cls([[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms])

    @classmethod
    def quaternion(cls):
        """The eight units 1, i, j, k and their negatives; index = u + 4s."""
        units = [
            [(0, 0), (1, 0), (2, 0), (3, 0)],
            [(1, 0), (0, 1), (3, 0), (2, 1)],
            [(2, 0), (3, 1), (0, 1), (1, 0)],
            [(3, 0), (2, 0), (1, 1), (0, 1)],
        ]

        def mul(a, b):
            u1, s1 = a % 4, a // 4
            u2, s2 = b % 4, b // 4
            u, s = units[u1][u2]
            return u + 4 * ((s1 + s2 + s) % 2)

        return cls([[mul(a, b) for b in range(8)] for a in range(8)])

    def __repr__(self):
        return "FiniteGroup(order=%d)" % self.n


def det(rows, ell):
    """Determinant mod ell of a square matrix of integer rows, by Gaussian elimination;
    a column whose pivot is its only nonzero entry costs one scan and no inverse."""
    rows = [list(r) for r in rows]
    n = len(rows)
    out = 1
    for col in range(n):
        below = [r for r in range(col, n) if rows[r][col] % ell]
        if not below:
            return 0
        piv = below[0]
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        top = rows[col]
        out = out * top[col] % ell
        if len(below) > 1:
            inv = pow(top[col], -1, ell)
            for r in below[1:]:
                f = rows[r][col] * inv % ell
                rows[r] = [(x - f * y) % ell for x, y in zip(rows[r], top)]
    return out


class Multiplier:
    """Unit valued function on pairs of group elements, normalized at the
    identity pair.  In a finite coefficient field every unit is a root of
    unity, so unit values are exactly the unitary ones.  The table is kept
    as built: a tuple of n tuples of units mod ell, 1 at the identity pair,
    as d1, *, ** and trivial make it; is_cocycle or is_valid, not a raise,
    says when a table is broken."""

    __slots__ = ("group", "coeff", "table")

    def __init__(self, group, coeff, table):
        self.group, self.coeff, self.table = group, coeff, table

    @classmethod
    def trivial(cls, group, coeff):
        return cls(group, coeff, ((1,) * group.n,) * group.n)

    def __mul__(self, other):
        if not isinstance(other, Multiplier) or other.group is not self.group:
            return NotImplemented
        ell = self.coeff.ell
        return Multiplier(
            self.group,
            self.coeff,
            tuple([
                tuple([x * y % ell for x, y in zip(r1, r2)])
                for r1, r2 in zip(self.table, other.table)
            ]),
        )

    def __pow__(self, m):
        """Entrywise m-th power: self at m = 1, else one pow per distinct value."""
        if m == 1:
            return self
        power = {v: pow(v, m, self.coeff.ell) for v in set().union(*self.table)}
        table = tuple([tuple(map(power.__getitem__, row)) for row in self.table])
        return Multiplier(self.group, self.coeff, table)

    def __repr__(self):
        return "Multiplier(order=%d, mod %d)" % (self.group.n, self.coeff.ell)


def d1(group, coeff, lam):
    """Coboundary of a unit scalar function: (x, y) -> lam(x) lam(y) / lam(xy).

    lam is indexed by group element and must take 1 at the identity."""
    ell = coeff.ell
    vals = [lam[g] % ell for g in range(group.n)]
    if vals[0] != 1:
        raise ValueError("scalar function must take 1 at the identity")
    if any(v == 0 for v in vals):
        raise ValueError("scalar function must take unit values")
    inv = [pow(v, -1, ell) for v in vals]
    table = tuple([
        tuple([va * vb * inv[k] % ell for vb, k in zip(vals, row)])
        for va, row in zip(vals, group.table)
    ])
    return Multiplier(group, coeff, table)


def is_cocycle(mult):
    """mu(x,y) mu(xy,z) == mu(x,yz) mu(y,z) on all triples."""
    gt, ell = mult.group.table, mult.coeff.ell
    t = mult.table
    for tx, gx in zip(t, gt):
        for y, (ty, gy) in enumerate(zip(t, gt)):
            a, txy = tx[y], t[gx[y]]
            for z, yz in enumerate(gy):
                if a * txy[z] % ell != tx[yz] * ty[z] % ell:
                    return False
    return True


class TwistedRep:
    """Matrices rho(h) over the coefficient field, indexed by a subgroup,
    with rho(g) rho(h) = mu(g,h) rho(gh) and rho(1) the identity.  Each
    matrix is stored as a tuple of integer row tuples reduced mod ell."""

    __slots__ = ("group", "sub", "mult", "mats", "rank")

    def __init__(self, group, sub, mult, mats):
        ell = mult.coeff.ell
        self.group = group
        self.sub = tuple(sorted(set(sub)))
        self.mult = mult
        self.mats = {
            g: tuple([tuple([v % ell for v in row]) for row in m]) for g, m in dict(mats).items()
        }
        if mult.group is not group:
            raise ValueError("multiplier lives on a different group")
        if 0 not in self.sub:
            raise ValueError("domain must contain the identity")
        if set(self.mats) != set(self.sub):
            raise ValueError("need exactly one matrix per domain element")
        self.rank = len(self.mats[0])
        if self.rank < 1:
            raise ValueError("rank must be positive")
        mats = self.mats.values()
        if {len(m) for m in mats} | {len(r) for m in mats for r in m} != {self.rank}:
            raise ValueError("matrices must be square and share one size")
        if not self.is_valid():
            raise ValueError("matrices do not satisfy the twisted composition rule")

    @classmethod
    def _built(cls, group, sub, mult, mats):
        """The rep on mats as given, unchecked and uncopied: sub sorted, one
        tuple of reduced int row tuples per element, all square of one size.
        sub need not be a subgroup, nor hold the identity: is_valid says."""
        rep = cls.__new__(cls)
        rep.group, rep.sub, rep.mult, rep.mats = group, sub, mult, mats
        rep.rank = len(next(iter(mats.values()), ()))
        return rep

    def is_valid(self):
        """Exhaustive check of the composition rule on the stored integer
        rows: (rho(g) rho(h))[i][j] == mu(g,h) rho(gh)[i][j] mod ell for
        every pair g, h of the domain and every entry i, j.  At rank 1 the
        products rho(g) rho(h) over all h are one list of scalars.  At
        higher rank row i of every product is built at once, over all h side
        by side, as the combination of the rows k of the rho(h) weighted by
        rho(g)[i][k]."""
        sub = self.sub
        if not self.group.is_subgroup(sub):
            return False
        rows, n = self.mats, self.rank
        if rows[0] != tuple(tuple(int(i == j) for j in range(n)) for i in range(n)):
            return False
        ell = self.mult.coeff.ell
        if n == 1:
            # a subgroup domain holds every gh, and there is one scalar per element
            val = {h: rows[h][0][0] for h in sub}
            vals = [val[h] for h in sub]
            for g in sub:
                mul_g, mu_g, a = self.group.table[g], self.mult.table[g], val[g]
                if [a * v % ell for v in vals] != [mu_g[h] * val[mul_g[h]] % ell for h in sub]:
                    return False
            return True
        side = [[v for h in sub for v in rows[h][k]] for k in range(n)]
        zero = [0] * len(side[0])
        for g in sub:
            mul_g, mu_g = self.group.table[g], self.mult.table[g]
            row_gh = [rows[mul_g[h]] for h in sub]
            for i, row in enumerate(rows[g]):
                acc = zero
                for a, s in zip(row, side):
                    if a:
                        acc = [x + a * y for x, y in zip(acc, s)]
                want = [mu_g[h] * v % ell for h, m in zip(sub, row_gh) for v in m[i]]
                if [x % ell for x in acc] != want:
                    return False
        return True

    def det_char(self):
        """Rank-1 determinant character, twisted by the rank-th power of
        the multiplier; handed over as built, so is_valid audits det."""
        ell = self.mult.coeff.ell
        mats = {h: ((det(m, ell),),) for h, m in self.mats.items()}
        return TwistedRep._built(self.group, self.sub, self.mult ** self.rank, mats)

    def twist(self, lam):
        """Scale by a unit scalar function, which shifts the multiplier by
        its coboundary; handed over as built, so is_valid audits d1."""
        ell = self.mult.coeff.ell
        mats = {h: tuple([tuple([lam[h] * v % ell for v in row]) for row in m]) for h, m in self.mats.items()}
        return TwistedRep._built(self.group, self.sub, self.mult * d1(self.group, self.mult.coeff, lam), mats)

    @classmethod
    def regular(cls, group, sub, coeff):
        """Permutation matrices of the subgroup acting on itself by left
        multiplication; trivial multiplier."""
        sub = tuple(sorted(set(sub)))
        pos = {h: i for i, h in enumerate(sub)}
        mats = {}
        for h in sub:
            rows = [[0] * len(sub) for _ in range(len(sub))]
            for hp in sub:
                rows[pos[group.table[h][hp]]][pos[hp]] = 1
            mats[h] = rows
        return cls(group, sub, Multiplier.trivial(group, coeff), mats)


def char_rep(group, sub, mult, values):
    """Rank-1 twisted representation from a scalar map on the subgroup,
    each value reduced mod ell; handed over as built, so a wrong value or
    multiplier shows in is_valid, not in a raise."""
    if mult.group is not group:
        raise ValueError("multiplier lives on a different group")
    sub, ell = tuple(sorted(set(sub))), mult.coeff.ell
    return TwistedRep._built(group, sub, mult, {h: ((values[h] % ell,),) for h in sub})


def _cosets(group, members, sub, order=None):
    """Left coset decomposition of members by sub, a pair that _pair admits:
    representatives (first come along the scan order, a permutation of
    members, default ascending) and the map from member to coset position."""
    coset_of = {}
    reps = []
    for g in members if order is None else order:
        if g not in coset_of:
            coset_of.update(dict.fromkeys(map(group.table[g].__getitem__, sub), len(reps)))
            reps.append(g)
    return reps, coset_of


def _pair(group, members, sub):
    """The record (reps, coset_of, walk, sign) of the tuple members by sub:
    the decomposition of _cosets in ascending scan order, the walk of _walk
    that the formula route reads, and the signature of _signature that the
    det route and delta_char read.  Built in full on first use and kept in
    group.memo["pair"] per (members, sub).  This is the one gate on a
    transfer's arguments: members and sub must be subgroups, sub inside
    members, else nothing is built or kept."""
    sub = tuple(sorted(set(sub)))
    records = group.memo["pair"]
    key = (members, sub)
    found = records.get(key)
    if found is None:
        if not group.is_subgroup(members):
            raise ValueError("ambient must be a subgroup")
        if not group.is_subgroup(sub):
            raise ValueError("domain must be a subgroup")
        if not set(members).issuperset(sub):
            raise ValueError("domain must sit inside the ambient subgroup")
        reps, coset_of = _cosets(group, members, sub)
        found = records[key] = (
            reps,
            coset_of,
            _walk(group, members, reps, coset_of),
            _signature(group, members, reps, coset_of),
        )
    return found


def _walk(group, members, reps, coset_of):
    """For each k of members, the triples (g_c, g_target, h), one per coset
    representative g_c, with k g_c = g_target h and h in the domain."""
    t, ginv = group.table, group.inv
    walk = {}
    for k in members:
        tk = t[k]
        triples = []
        for gc in reps:
            kg = tk[gc]
            g2 = reps[coset_of[kg]]
            triples.append((gc, g2, t[ginv[g2]][kg]))
        walk[k] = triples
    return walk


def _signature(group, members, reps, coset_of):
    """Sign of the permutation k induces on the cosets, for each k of members."""
    t = group.table
    return {k: _perm_sign([coset_of[t[k][gc]] for gc in reps]) for k in members}


def induce(rep, ambient=None):
    """Induced twisted representation on the ambient subgroup (default the
    full group): one block row and column per coset of the domain, the
    block at (target coset, source coset) of k carrying
    mu(k, g_c) mu(g_target, h)^{-1} rho(h) for h the conjugated element
    g_target^{-1} k g_c of the domain.  Entries are reduced as written and
    rows are tuples, so the result is handed over as built; see is_valid."""
    group, sub, mult = rep.group, rep.sub, rep.mult
    ell = mult.coeff.ell
    members = tuple(group.elements()) if ambient is None else tuple(sorted(set(ambient)))
    reps, coset_of = _pair(group, members, sub)[:2]
    r = rep.rank
    zeros = (0,) * (r * len(reps))
    # mu(g_target, h)^{-1} for each (target coset, domain element): every
    # pair meets each source coset once, so it is inverted once here
    mt, t, ginv = mult.table, group.table, group.inv
    inv = {(c2, h): pow(mt[g][h], -1, ell) for c2, g in enumerate(reps) for h in sub}
    mats = {}
    for k in members:
        tk, mk = t[k], mt[k]
        rows = [None] * len(zeros)
        for c, gc in enumerate(reps):
            kg = tk[gc]
            c2 = coset_of[kg]
            h = t[ginv[reps[c2]]][kg]
            s = mk[gc] * inv[(c2, h)] % ell
            left, right = zeros[: c * r], zeros[(c + 1) * r :]
            for i, src in enumerate(rep.mats[h]):
                rows[c2 * r + i] = left + tuple([s * v % ell for v in src]) + right
        mats[k] = tuple(rows)
    return TwistedRep._built(group, members, mult, mats)


def _perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def delta_char(group, sub, ambient=None):
    """Signature of the permutation action on the cosets of the subgroup,
    as a map from the ambient subgroup to {1, -1}: a fresh dict, so the
    record it is read from cannot be changed through it."""
    members = tuple(group.elements()) if ambient is None else tuple(sorted(set(ambient)))
    return dict(_pair(group, members, sub)[3])


def _transfer(rep, walk):
    """The formula route on a coset walk {k: triples} (see _walk): the
    value at k is the product over cosets of mu(k, g_c)^rank
    mu(g_target, h_c)^{-rank} det rho(h_c), where a rank-1 det rho(h) is
    its one entry."""
    mult, rk = rep.mult, rep.rank
    ell = mult.coeff.ell
    if rk == 1:
        dets = {h: rep.mats[h][0][0] for h in rep.sub}
    else:
        dets = {h: det(rep.mats[h], ell) for h in rep.sub}
    mt = mult.table
    out = {}
    for k, triples in walk.items():
        mk = mt[k]
        num = den = dprod = 1
        for gc, g2, h in triples:
            num = num * mk[gc] % ell
            den = den * mt[g2][h] % ell
            dprod = dprod * dets[h] % ell
        out[k] = pow(num, rk, ell) * pow(den, -rk, ell) * dprod % ell
    return out


def verlagerung(rep, ambient=None, route="formula"):
    """Transfer of the determinant of a twisted subgroup representation to
    the ambient subgroup, as a map to ints mod ell.

    The formula route reads the coset walk of the domain (see _transfer).
    The det route forms the induced representation, takes determinants,
    and strips the rank-th power of the coset signature, a sign, so the
    value is det * delta^rank.  Both routes agree; they are kept separate
    so each can audit the other, and share only the coset decomposition.
    """
    group, sub = rep.group, rep.sub
    members = tuple(group.elements()) if ambient is None else tuple(sorted(set(ambient)))
    if route == "det":
        ell, rk = rep.mult.coeff.ell, rep.rank
        ind = induce(rep, members)
        sign = _pair(group, members, sub)[3]
        return {k: det(ind.mats[k], ell) * sign[k] ** rk % ell for k in members}
    if route != "formula":
        raise ValueError("route must be 'formula' or 'det'")
    return _transfer(rep, _pair(group, members, sub)[2])


def check_ver_identities(group, mid, sub, coeff, seed=0):
    """Identity audit on a chain sub <= mid <= group.

    Checks, with a seeded random unit scalar twist: agreement of the two
    transfer routes at both stages, transfer through the chain equals the
    one-step transfer, the corresponding signature composition,
    independence of the choice of coset representatives, and is_valid on
    its characters chi, stage and inner.  The first transfer refuses a
    chain that is not one (see _pair).
    """
    rng = random.Random(seed)
    mid = tuple(sorted(set(mid)))
    sub = tuple(sorted(set(sub)))
    ell = coeff.ell
    lam = [1] + [rng.randrange(1, ell) for _ in range(group.n - 1)]
    mu = d1(group, coeff, lam)
    chi = char_rep(group, sub, mu, lam)

    routes_sub = verlagerung(chi, ambient=mid, route="formula")
    routes_sub_det = verlagerung(chi, ambient=mid, route="det")
    index_mid = len(mid) // len(sub)
    index_top = group.n // len(mid)
    stage = char_rep(group, mid, mu ** index_mid, routes_sub)
    via_mid = verlagerung(stage, route="formula")
    direct = verlagerung(chi, route="formula")
    direct_det = verlagerung(chi, route="det")

    # the formula route on representatives taken in a shuffled scan order
    whole = tuple(group.elements())
    shuffled = list(whole)
    rng.shuffle(shuffled)
    direct_other = _transfer(chi, _walk(group, whole, *_cosets(group, whole, sub, shuffled)))

    d_sub = delta_char(group, sub)
    d_mid = delta_char(group, mid)
    d_inner = delta_char(group, sub, ambient=mid)
    inner_rep = char_rep(group, mid, Multiplier.trivial(group, coeff), d_inner)
    moved = verlagerung(inner_rep, route="formula")
    delta_comp = all(d_sub[g] % ell == d_mid[g] ** index_mid * moved[g] % ell for g in group.elements())

    report = {
        "routes_agree_inner": routes_sub == routes_sub_det,
        "routes_agree_outer": direct == direct_det,
        "composition": via_mid == direct,
        "delta_composition": delta_comp,
        "representative_independent": direct_other == direct,
        "characters_valid": all([chi.is_valid(), stage.is_valid(), inner_rep.is_valid()]),
        "indices": (index_top, index_mid),
    }
    report["ok"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def _zoo():
    """The groups of the suite, orders up to 24: cyclic, dihedral, S3, Q8
    and S4, in that order."""
    groups = [FiniteGroup.cyclic(n) for n in range(1, 25)]
    groups += [FiniteGroup.dihedral(n) for n in range(2, 13)]
    return groups + [FiniteGroup.symmetric(3), FiniteGroup.quaternion(), FiniteGroup.symmetric(4)]


def run_twisted_suite(coeff, seed=0, min_randomized=100):
    """Identity suite over the group zoo: exhaustive over all subgroup
    chains for orders up to 12, randomized (at least min_randomized cases)
    on the larger groups up to order 24.

    Each case checks both transfer routes against each other, the
    determinant-character collapse of the transfer, the chain and
    signature compositions, representative independence, and is_valid on
    each character and twist it derives; a broken identity is a failure.
    min_randomized past TRIALS_CAP is refused before any group is built.
    """
    if min_randomized > TRIALS_CAP:
        raise CapExceeded("%d randomized trials exceed cap %d" % (min_randomized, TRIALS_CAP))
    rng = random.Random(seed)
    failures = []
    counts = {
        "exhaustive_chains": 0,
        "exhaustive_pairs": 0,
        "det_collapse": 0,
        "randomized": 0,
        "cocycles": 0,
    }

    def det_collapse_case(group, sub, lam, tag):
        rep = TwistedRep.regular(group, sub, coeff).twist(lam)
        dchar = rep.det_char()
        agree = verlagerung(rep, route="det") == verlagerung(dchar, route="formula")
        if not (rep.is_valid() and dchar.is_valid() and agree):
            failures.append("determinant collapse failed: %s" % tag)
        counts["det_collapse"] += 1

    zoo = _zoo()
    for group in (g for g in zoo if g.n <= 12):
        lam = [1] + [rng.randrange(1, coeff.ell) for _ in range(group.n - 1)]
        mu = d1(group, coeff, lam)
        if not is_cocycle(mu):
            failures.append("coboundary is not a cocycle on order %d" % group.n)
        counts["cocycles"] += 1
        subs = group.subgroups()
        for sub in subs:
            rep = check_ver_identities(group, sub, sub, coeff, seed=rng.randrange(1 << 30))
            if not rep["ok"]:
                failures.append("pair identities failed: order %d sub %r" % (group.n, sub))
            counts["exhaustive_pairs"] += 1
        for mid in subs:
            for sub in subs:
                if len(sub) >= len(mid) or not set(mid).issuperset(sub):
                    continue
                rep = check_ver_identities(group, mid, sub, coeff, seed=rng.randrange(1 << 30))
                if not rep["ok"]:
                    failures.append(
                        "chain identities failed: order %d mid %r sub %r" % (group.n, mid, sub)
                    )
                counts["exhaustive_chains"] += 1
        for sub in subs[:: max(1, len(subs) // 3)]:
            det_collapse_case(group, sub, lam, "order %d sub %r" % (group.n, sub))

    big = [g for g in zoo if g.n > 12]
    trials = 0
    while trials < min_randomized:
        group = big[rng.randrange(len(big))]
        gens = [rng.randrange(group.n) for _ in range(2)]
        sub = group.closure(gens)
        if len(sub) == group.n and rng.random() < 0.5:
            sub = group.closure([gens[0]])
        inner = group.closure([sub[rng.randrange(len(sub))]])
        rep = check_ver_identities(group, sub, inner, coeff, seed=rng.randrange(1 << 30))
        if not rep["ok"]:
            failures.append("randomized chain failed: order %d" % group.n)
        if group.n // len(sub) <= 12:
            lam = [1] + [rng.randrange(1, coeff.ell) for _ in range(group.n - 1)]
            mu = d1(group, coeff, lam)
            chi = char_rep(group, sub, mu, lam)
            if not chi.is_valid() or verlagerung(chi, route="det") != verlagerung(chi, route="formula"):
                failures.append("randomized character or routes failed: order %d" % group.n)
        trials += 1
        counts["randomized"] += 1

    return {"counts": counts, "failures": failures, "ok": not failures}
