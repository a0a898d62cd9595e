"""Projective representation layer: groups, multipliers, twisted algebra,
induction, coset signatures, and the two transfer routes."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsilon_lab import cli, twisted
from epsilon_lab.coeff import coeff_setup
from epsilon_lab.twisted import (
    FiniteGroup,
    Multiplier,
    TwistedRep,
    char_rep,
    check_ver_identities,
    d1,
    det,
    delta_char,
    induce,
    is_cocycle,
    run_twisted_suite,
    verlagerung,
)

C73 = coeff_setup(3, [8])
ELL = C73.ell


def product(a, b):
    """The direct product of two groups, (x, y) at index x * b.n + y."""
    n2 = b.n
    return FiniteGroup(
        [
            [a.table[x1][x2] * n2 + b.table[y1][y2] for x2 in range(a.n) for y2 in range(n2)]
            for x1 in range(a.n)
            for y1 in range(n2)
        ]
    )


def element_order(group, a):
    k = 1
    x = a
    while x != 0:
        x = group.table[x][a]
        k += 1
    return k


def multiplier(group, coeff, fn):
    """The multiplier with table fn(a, b) mod ell on every pair, built as
    the constructor takes it: a tuple of reduced row tuples."""
    ell, n = coeff.ell, group.n
    return Multiplier(group, coeff, tuple(tuple(fn(a, b) % ell for b in range(n)) for a in range(n)))


def same_mult(a, b):
    """Whether two multipliers are one function on one group's pairs."""
    return a.group is b.group and a.coeff is b.coeff and a.table == b.table


def klein():
    c2 = FiniteGroup.cyclic(2)
    return product(c2, c2)


def klein_multiplier(coeff):
    """Sign multiplier on the four-group: (-1)**(second coordinate of the
    left factor times first coordinate of the right)."""
    group = klein()
    return group, multiplier(group, coeff, lambda g, h: -1 if (g % 2) * (h // 2) % 2 else 1)


def pauli_rep(coeff):
    group, mu = klein_multiplier(coeff)
    mats = {
        0: [[1, 0], [0, 1]],
        1: [[1, 0], [0, -1]],
        2: [[0, 1], [1, 0]],
        3: [[0, -1], [1, 0]],
    }
    return group, mu, TwistedRep(group, (0, 1, 2, 3), mu, mats)


def twisted_algebra_mul(mult, a, b):
    """Product of formal combinations sum a[g] [g] in the algebra twisted
    by mult, where [x][y] = mu(x,y) [xy]; coefficients are ints mod ell."""
    group, ell = mult.group, mult.coeff.ell
    out = {}
    for g, cg in a.items():
        for h, ch in b.items():
            k = group.table[g][h]
            out[k] = (out.get(k, 0) + cg * ch * mult.table[g][h]) % ell
    return {k: v for k, v in out.items() if v}


def twisted_regular(group, mult):
    """Left multiplication on the twisted algebra basis: the matrix of k
    maps [g] to mu(k,g) [kg].  Satisfies the composition rule exactly when
    the multiplier is a cocycle, so it is built unchecked."""
    mats = {}
    for k in group.elements():
        rows = [[0] * group.n for _ in range(group.n)]
        for g in group.elements():
            rows[group.table[k][g]][g] = mult.table[k][g]
        mats[k] = tuple(map(tuple, rows))
    return TwistedRep._built(group, tuple(group.elements()), mult, mats)


def trace(rows):
    return sum(rows[i][i] for i in range(len(rows))) % ELL


def unit_cochain(group, rng):
    return [1] + [rng.randrange(1, ELL) for _ in range(group.n - 1)]


def lam_char(group, sub, lam):
    """Rank-1 representation of the subgroup carried by a global scalar
    function, twisted by its coboundary."""
    return char_rep(group, sub, d1(group, C73, lam), {h: lam[h] for h in sub})


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from epsilon_lab.twisted import *", namespace)
    assert set(twisted.__all__) <= set(namespace)


def test_rows_are_reduced_and_checked():
    group, mu, rep = pauli_rep(C73)
    assert rep.mats[1] == ((1, 0), (0, ELL - 1))
    assert det(rep.mats[3], ELL) == 1 and det(rep.mats[2], ELL) == ELL - 1
    assert det([[1, 2], [2, 4]], ELL) == 0
    for bad in ([[1, 0]], [[1, 0], [0]], [[1]]):
        mats = {g: (bad if g == 2 else m) for g, m in rep.mats.items()}
        with pytest.raises(ValueError, match="square"):
            TwistedRep(group, (0, 1, 2, 3), mu, mats)


def _leibniz(rows, ell):
    """Determinant mod ell as the signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % ell


def test_det_matches_leibniz_expansion():
    # elimination against the permutation sum on 1x1 to 4x4 integer rows,
    # entries outside 0..ell - 1 included; a quarter of them, of every size,
    # made singular: by an entry divisible by ell at 1x1, and above that by
    # a row that combines other rows
    rng = random.Random(73)
    singular = 0
    for trial in range(400):
        n = 1 + trial % 4
        rows = [[rng.randrange(-2 * ELL, 2 * ELL) for _ in range(n)] for _ in range(n)]
        if trial % 16 < 4:
            if n == 1:
                rows = [[ELL * rng.randrange(-2, 3)]]
            else:
                t = rng.randrange(n)
                others = [r for r in range(n) if r != t]
                i, j = rng.choice(others), rng.choice(others)
                k, m = rng.randrange(ELL), rng.randrange(ELL)
                rows[t] = [k * x + m * y for x, y in zip(rows[i], rows[j])]
        want = _leibniz(rows, ELL)
        assert det(rows, ELL) == want, rows
        singular += want == 0
    assert singular >= 100
    # block-monomial rows up to 6x6, the det route's inputs: one r x r block
    # per block row and column, entries in 0..ell - 1, a block singular now
    # and then; the zeros make some columns' pivot their only entry
    for trial in range(120):
        r = 1 + trial % 3
        idx = 1 + trial // 3 % (6 // r)
        perm = list(range(idx))
        rng.shuffle(perm)
        rows = [[0] * (r * idx) for _ in range(r * idx)]
        for c, c2 in enumerate(perm):
            block = [[rng.randrange(ELL) for _ in range(r)] for _ in range(r)]
            if trial % 8 == 0:
                block[0] = [0] * r
            for i in range(r):
                rows[c2 * r + i][c * r:(c + 1) * r] = block[i]
        assert det(rows, ELL) == _leibniz(rows, ELL), rows


def test_group_constructors():
    c6 = FiniteGroup.cyclic(6)
    assert c6.n == 6 and c6.table[4][5] == 3 and c6.inv[2] == 4
    assert element_order(c6, 1) == 6 and element_order(c6, 3) == 2

    d4 = FiniteGroup.dihedral(4)
    assert d4.n == 8
    r, s = 1, 4
    assert element_order(d4, r) == 4 and element_order(d4, s) == 2
    assert d4.table[s][r] == d4.table[d4.inv[r]][s]

    s3 = FiniteGroup.symmetric(3)
    assert s3.n == 6
    orders = sorted(element_order(s3, g) for g in s3.elements())
    assert orders == [1, 2, 2, 2, 3, 3]

    q8 = FiniteGroup.quaternion()
    assert q8.n == 8
    assert sorted(element_order(q8, g) for g in q8.elements()) == [1, 2, 4, 4, 4, 4, 4, 4]
    i, j, k, m1 = 1, 2, 3, 4
    assert q8.table[i][j] == k and q8.table[j][i] == k + 4
    assert q8.table[i][i] == m1

    v4 = klein()
    assert v4.n == 4 and all(element_order(v4, g) <= 2 for g in v4.elements())


def test_group_axiom_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])
    # a latin square that is not associative
    with pytest.raises(ValueError):
        FiniteGroup(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def latin_squares(n):
    """Every normalized Latin square of order n (row and column 0 read
    0..n-1), by backtracking over the other cells row by row."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    yield from fill(0)


def non_associative_triple(table):
    """The first (a, b, c) with (ab)c != a(bc), by a scan of all n^3."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def test_light_test_matches_a_brute_force_scan():
    # FiniteGroup checks associativity on a generating set of middles only;
    # on every normalized Latin square to order 6 it must refuse exactly the
    # non-associative ones, naming a triple that really fails (order 6 holds
    # 280 that the first middle alone passes, order 5 none)
    counts, groups = {}, {}
    for n in range(1, 7):
        for table in latin_squares(n):
            counts[n] = counts.get(n, 0) + 1
            if non_associative_triple(table) is None:
                assert FiniteGroup(table).table == table
                groups[n] = groups.get(n, 0) + 1
                continue
            with pytest.raises(ValueError, match="not associative") as err:
                FiniteGroup(table)
            a, b, c = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(err.value)).groups())
            assert table[table[a][b]][c] != table[a][table[b][c]]
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}
    # the group tables among them: each group once per relabeling of its
    # other elements up to automorphism, so C4 three times and V4 once, C5
    # 4!/4 times, C6 5!/2 and S3 5!/6 times
    assert groups == {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80}
    for group in twisted._zoo():
        assert FiniteGroup(group.table).table == group.table


def test_subgroup_enumeration():
    s3 = FiniteGroup.symmetric(3)
    subs = s3.subgroups()
    assert len(subs) == 6
    assert (0,) in subs and tuple(range(6)) in subs
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 3, 6]

    q8 = FiniteGroup.quaternion()
    sizes = sorted(len(s) for s in q8.subgroups())
    assert sizes == [1, 2, 4, 4, 4, 8]

    c12 = FiniteGroup.cyclic(12)
    assert sorted(len(s) for s in c12.subgroups()) == [1, 2, 3, 4, 6, 12]


def test_multiplier_validation():
    # the constructor stores a table as given; a broken one is a verdict
    v4 = klein()
    assert not is_cocycle(multiplier(v4, C73, lambda g, h: 0 if (g, h) == (2, 3) else 1))
    assert not is_cocycle(multiplier(v4, C73, lambda g, h: 2 if (g, h) == (0, 0) else 1))
    triv = Multiplier.trivial(v4, C73)
    assert is_cocycle(triv)
    assert same_mult(triv, triv ** 3) and same_mult(triv * triv, triv)


def test_multiplier_power_is_entrywise():
    s4 = FiniteGroup.symmetric(4)
    mu = d1(s4, C73, unit_cochain(s4, random.Random(59)))
    assert mu ** 1 is mu
    for m in (-1, 0, 1, 2, 5):
        want = [[pow(v, m, ELL) for v in row] for row in mu.table]
        assert same_mult(mu ** m, multiplier(s4, C73, lambda g, h: want[g][h]))


def test_multiplier_tables_are_built_reduced():
    # the constructor stores a table unchecked, so every builder must hand
    # it a tuple of n row tuples of units mod ell, 1 at the identity pair
    rng = random.Random(67)
    for group in (g for g in twisted._zoo() if g.n <= 12):
        n, t = group.n, group.table
        lams = [unit_cochain(group, rng) for _ in range(2)]

        def coboundary(lam):
            return [[lam[a] * lam[b] * pow(lam[t[a][b]], -1, ELL) % ELL for b in range(n)] for a in range(n)]

        # d1 takes any integer representatives of the scalar values
        mu, nu = (d1(group, C73, [v + ELL * rng.randrange(-2, 3) for v in lam]) for lam in lams)
        ref_mu, ref_nu = map(coboundary, lams)
        built = [
            (mu, ref_mu),
            (nu, ref_nu),
            (mu * nu, [[x * y % ELL for x, y in zip(r, s)] for r, s in zip(ref_mu, ref_nu)]),
            (Multiplier.trivial(group, C73), [[1] * n] * n),
        ]
        built += [(mu ** m, [[pow(v, m, ELL) for v in row] for row in ref_mu]) for m in (-1, 0, 2, 5)]
        for mult, want in built:
            table = mult.table
            assert type(table) is tuple and len(table) == n
            assert all(type(row) is tuple and len(row) == n for row in table)
            assert table[0][0] == 1 and all(0 < v < ELL for row in table for v in row)
            assert [list(row) for row in table] == want


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, ELL - 1), min_size=5, max_size=5))
def test_coboundary_is_cocycle_property(tail):
    group = FiniteGroup.symmetric(3)
    lam = [1] + tail
    mu = d1(group, C73, lam)
    assert is_cocycle(mu)
    assert all(mu.table[0][z] == 1 and mu.table[z][0] == 1 for z in range(group.n))


def test_d1_rejects_unnormalized():
    group = FiniteGroup.cyclic(3)
    with pytest.raises(ValueError):
        d1(group, C73, [2, 1, 1])
    with pytest.raises(ValueError):
        d1(group, C73, [1, 0, 1])


def test_klein_multiplier_is_cocycle_but_no_coboundary():
    group, mu = klein_multiplier(C73)
    assert is_cocycle(mu)
    # coboundaries on a commutative group are symmetric; this one is not
    assert mu.table[1][2] != mu.table[2][1]
    assert mu.table[1][2] == ELL - 1


def test_pauli_rep_satisfies_twisted_rule():
    group, mu, rep = pauli_rep(C73)
    assert rep.rank == 2 and rep.is_valid()
    det = rep.det_char()
    assert same_mult(det.mult, mu ** 2) and same_mult(mu ** 2, Multiplier.trivial(group, C73))
    assert [det.mats[g][0][0] for g in group.elements()] == [1, ELL - 1, ELL - 1, 1]
    # d1 of a rank-1 twisted representation recovers its multiplier
    lam = [1, 5, 17, 42]
    rank1 = char_rep(group, tuple(group.elements()), d1(group, C73, lam), lam)
    assert same_mult(d1(group, C73, [rank1.mats[g][0][0] for g in group.elements()]), rank1.mult)


def test_twisted_algebra_associativity_iff_cocycle():
    group, mu = klein_multiplier(C73)
    for x in group.elements():
        for y in group.elements():
            for z in group.elements():
                a, b, c = {x: 1}, {y: 1}, {z: 1}
                lhs = twisted_algebra_mul(mu, twisted_algebra_mul(mu, a, b), c)
                rhs = twisted_algebra_mul(mu, a, twisted_algebra_mul(mu, b, c))
                assert lhs == rhs
    # identity basis vector is neutral
    for g in group.elements():
        assert twisted_algebra_mul(mu, {0: 1}, {g: 7}) == {g: 7}

    broken = [list(row) for row in mu.table]
    broken[3][3] = 2
    bad = Multiplier(group, C73, tuple(map(tuple, broken)))
    assert not is_cocycle(bad)
    witness = False
    for x in group.elements():
        for y in group.elements():
            for z in group.elements():
                a, b, c = {x: 1}, {y: 1}, {z: 1}
                lhs = twisted_algebra_mul(bad, twisted_algebra_mul(bad, a, b), c)
                rhs = twisted_algebra_mul(bad, a, twisted_algebra_mul(bad, b, c))
                if lhs != rhs:
                    witness = True
    assert witness


def test_twisted_regular_valid_iff_cocycle():
    group, mu = klein_multiplier(C73)
    assert twisted_regular(group, mu).is_valid()
    broken = [list(row) for row in mu.table]
    broken[3][3] = 2
    bad = Multiplier(group, C73, tuple(map(tuple, broken)))
    assert not twisted_regular(group, bad).is_valid()
    # left multiplication in the algebra is exactly the regular matrix action
    reg = twisted_regular(group, mu)
    for k in group.elements():
        for g in group.elements():
            prod = twisted_algebra_mul(mu, {k: 1}, {g: 1})
            col = [reg.mats[k][i][g] for i in range(group.n)]
            assert prod == {group.table[k][g]: mu.table[k][g] % ELL}
            assert col[group.table[k][g]] == mu.table[k][g]


def test_induce_whole_group_and_trivial_subgroup():
    group, mu, rep = pauli_rep(C73)
    same = induce(rep)
    assert all(same.mats[g] == rep.mats[g] for g in group.elements())

    rng = random.Random(5)
    s3 = FiniteGroup.symmetric(3)
    lam = unit_cochain(s3, rng)
    mu3 = d1(s3, C73, lam)
    unit = char_rep(s3, (0,), mu3, {0: 1})
    ind = induce(unit)
    assert ind.is_valid()
    reg = twisted_regular(s3, mu3)
    assert all(ind.mats[g] == reg.mats[g] for g in s3.elements())


def dense_induce(rep, members):
    """The induced matrices built entry by entry as lists, the oracle for
    induce: representatives first come in ascending order, and the block
    of k at (c2, c) is mu(k, g_c) mu(g_c2, h)^-1 rho(h) where k g_c = g_c2 h."""
    group, mu, r = rep.group, rep.mult, rep.rank
    t, inv = group.table, group.inv
    reps = []
    for g in sorted(members):
        if all(t[inv[x]][g] not in rep.sub for x in reps):
            reps.append(g)
    size = r * len(reps)
    out = {}
    for k in members:
        rows = [[0] * size for _ in range(size)]
        for c, gc in enumerate(reps):
            kg = t[k][gc]
            c2 = next(i for i, x in enumerate(reps) if t[inv[x]][kg] in rep.sub)
            h = t[inv[reps[c2]]][kg]
            s = mu.table[k][gc] * pow(mu.table[reps[c2]][h], -1, ELL)
            for i in range(r):
                for j in range(r):
                    rows[c2 * r + i][c * r + j] = s * rep.mats[h][i][j] % ELL
        out[k] = rows
    return out


def conjugated(rep, rng):
    """A rank-2 rep conjugated by a random invertible P: the same
    multiplier, its matrices dense.  P^-1 is the adjugate over det P."""
    d = 0
    while not d:
        p = [[rng.randrange(ELL) for _ in range(2)] for _ in range(2)]
        d = det(p, ELL)
    d = pow(d, -1, ELL)
    p_inv = [[p[1][1] * d, -p[0][1] * d], [-p[1][0] * d, p[0][0] * d]]

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % ELL for col in zip(*b)] for row in a]

    mats = {h: mul(mul(p, m), p_inv) for h, m in rep.mats.items()}
    return TwistedRep(rep.group, rep.sub, rep.mult, mats)


def test_induce_matches_a_dense_build():
    # seeded rank-1 characters and rank-2 dense reps (a twisted regular rep
    # of an order-2 subgroup, conjugated), induced to the whole group and to
    # a proper intermediate subgroup
    rng = random.Random(61)
    seen = set()
    for group in [g for g in twisted._zoo() if g.n <= 12] + [FiniteGroup.symmetric(4)]:
        subs = group.subgroups()
        lam = unit_cochain(group, rng)
        for sub in subs[:: max(1, len(subs) // 4)]:
            reps = [lam_char(group, sub, lam)]
            if len(sub) == 2:
                reps.append(conjugated(TwistedRep.regular(group, sub, C73).twist(lam), rng))
            mids = [m for m in subs if set(sub) <= set(m) and len(m) < group.n]
            for rep in reps:
                for ambient in [None] + mids[-1:]:
                    members = tuple(ambient or group.elements())
                    ind = induce(rep, ambient)
                    assert set(ind.mats) == set(members)
                    for m in ind.mats.values():
                        assert type(m) is tuple and all(type(row) is tuple for row in m)
                        assert all(0 <= v < ELL for row in m for v in row)
                    assert {k: [list(row) for row in m] for k, m in ind.mats.items()} == dense_induce(
                        rep, members
                    )
                    seen.add((rep.rank, ambient is None))
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_induce_transitivity_traces_and_dets():
    rng = random.Random(11)
    s4 = FiniteGroup.symmetric(4)
    subs = s4.subgroups()
    mid = max((s for s in subs if len(s) == 6), key=sorted)
    inner = next(s for s in subs if len(s) == 2 and set(s) <= set(mid))
    lam = unit_cochain(s4, rng)
    chi = lam_char(s4, inner, lam)

    one_step = induce(chi)
    two_step = induce(induce(chi, ambient=mid))
    assert one_step.rank == two_step.rank == 12
    for g in s4.elements():
        assert trace(one_step.mats[g]) == trace(two_step.mats[g])
        assert det(one_step.mats[g], ELL) == det(two_step.mats[g], ELL)


def test_delta_char_small_examples():
    c2 = FiniteGroup.cyclic(2)
    assert delta_char(c2, (0,)) == {0: 1, 1: -1}

    s3 = FiniteGroup.symmetric(3)
    a3 = next(s for s in s3.subgroups() if len(s) == 3)
    delta = delta_char(s3, a3)
    # FiniteGroup.symmetric indexes the permutations in lexicographic order
    perms = list(itertools.permutations(range(3)))
    for g in s3.elements():
        perm = perms[g]
        parity = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    parity = -parity
        assert delta[g] == parity


def test_delta_composition_on_s4_chain():
    s4 = FiniteGroup.symmetric(4)
    subs = s4.subgroups()
    mid = max((s for s in subs if len(s) == 6), key=sorted)
    inner = next(s for s in subs if len(s) == 2 and set(s) <= set(mid))
    d_gk = delta_char(s4, inner)
    d_gh = delta_char(s4, mid)
    d_hk = delta_char(s4, inner, ambient=mid)
    moved = verlagerung(
        char_rep(s4, mid, Multiplier.trivial(s4, C73), {h: d_hk[h] % ELL for h in mid})
    )
    index = len(mid) // len(inner)
    for g in s4.elements():
        assert d_gk[g] % ELL == pow(d_gh[g], index, ELL) * moved[g] % ELL


def test_verlagerung_routes_agree():
    rng = random.Random(23)
    for group, size in [
        (FiniteGroup.dihedral(4), 4),
        (FiniteGroup.quaternion(), 2),
        (FiniteGroup.symmetric(3), 2),
    ]:
        sub = next(s for s in group.subgroups() if len(s) == size)
        lam = unit_cochain(group, rng)
        chi = lam_char(group, sub, lam)
        assert verlagerung(chi, route="formula") == verlagerung(chi, route="det")


def test_transfer_is_multiplicative_on_the_det_route():
    # the suite checks the transfer's routes against each other; this is
    # the one check that the transfer is a homomorphism on characters
    rng = random.Random(37)
    s4, d6 = FiniteGroup.symmetric(4), FiniteGroup.dihedral(6)
    s4_subs, d6_subs = s4.subgroups(), d6.subgroups()
    cases = [
        (s4, None, next(s for s in s4_subs if len(s) == 4)),
        (s4, next(s for s in s4_subs if len(s) == 12), next(s for s in s4_subs if len(s) == 3)),
        (d6, None, next(s for s in d6_subs if len(s) == 2)),
        (d6, next(s for s in d6_subs if len(s) == 6), next(s for s in d6_subs if len(s) == 3)),
    ]
    for group, ambient, sub in cases:
        assert ambient is None or set(sub) <= set(ambient)
        lam, lam2 = unit_cochain(group, rng), unit_cochain(group, rng)
        both = [a * b % ELL for a, b in zip(lam, lam2)]
        ver = [
            verlagerung(lam_char(group, sub, x), ambient=ambient, route="det")
            for x in (lam, lam2, both)
        ]
        assert set(ver[2]) == set(ambient or group.elements())
        for k in ver[2]:
            assert ver[2][k] == ver[0][k] * ver[1][k] % ELL


def test_verlagerung_cyclic_is_power_map():
    rng = random.Random(31)
    group = FiniteGroup.cyclic(12)
    for d in (2, 3, 4, 6):
        sub = group.closure([d])
        index = group.n // len(sub)
        z = pow(rng.randrange(2, ELL), (ELL - 1) // len(sub), ELL)
        values = {h: pow(z, h // d, ELL) for h in sub}
        chi = char_rep(group, sub, Multiplier.trivial(group, C73), values)
        ver = verlagerung(chi)
        for g in group.elements():
            power = g * index % group.n
            assert ver[g] == values[power]


def test_ver_equals_ver_of_det_rank_two():
    rng = random.Random(47)
    s3 = FiniteGroup.symmetric(3)
    sub = next(s for s in s3.subgroups() if len(s) == 2)
    lam = unit_cochain(s3, rng)
    mu = d1(s3, C73, lam)
    sign = delta_char(s3, (0,), ambient=sub)
    mats = {h: [[lam[h], 0], [0, lam[h] * sign[h]]] for h in sub}
    rep = TwistedRep(s3, sub, mu, mats)
    assert rep.rank == 2
    ver_direct = verlagerung(rep, route="formula")
    assert ver_direct == verlagerung(rep, route="det")
    assert ver_direct == verlagerung(rep.det_char(), route="formula")


def test_ver_identities_on_named_chains():
    s4 = FiniteGroup.symmetric(4)
    subs = s4.subgroups()
    mid = max((s for s in subs if len(s) == 6), key=sorted)
    inner = next(s for s in subs if len(s) == 2 and set(s) <= set(mid))
    report = check_ver_identities(s4, mid, inner, C73, seed=3)
    assert report["ok"], report
    assert report["indices"] == (4, 3)

    c12 = FiniteGroup.cyclic(12)
    report = check_ver_identities(c12, c12.closure([3]), c12.closure([6]), C73, seed=4)
    assert report["ok"], report

    q8 = FiniteGroup.quaternion()
    center = next(s for s in q8.subgroups() if len(s) == 2)
    four = next(s for s in q8.subgroups() if len(s) == 4 and set(s) >= set(center))
    report = check_ver_identities(q8, four, center, C73, seed=5)
    assert report["ok"], report


def test_representative_independence(monkeypatch):
    rng = random.Random(59)
    d6 = FiniteGroup.dihedral(6)
    sub = next(s for s in d6.subgroups() if len(s) == 4)
    lam = unit_cochain(d6, rng)
    chi = lam_char(d6, sub, lam)
    shuffled = list(d6.elements())
    rng.shuffle(shuffled)
    ver, ver_det = verlagerung(chi), verlagerung(chi, route="det")
    delta, base = delta_char(d6, sub), induce(chi)
    kept = twisted._pair(d6, tuple(d6.elements()), sub)

    def shuffled_pair(group, members, sub):
        """The record of the pair with representatives first come along shuffled."""
        reps, coset_of = twisted._cosets(group, members, sub, shuffled)
        walk = twisted._walk(group, members, reps, coset_of)
        return reps, coset_of, walk, twisted._signature(group, members, reps, coset_of)

    monkeypatch.setattr(twisted, "_pair", shuffled_pair)
    assert twisted._pair(d6, tuple(d6.elements()), sub)[0] != kept[0]
    assert verlagerung(chi) == ver and verlagerung(chi, route="det") == ver_det
    assert delta_char(d6, sub) == delta
    other = induce(chi)
    for g in d6.elements():
        assert trace(base.mats[g]) == trace(other.mats[g])
        assert det(base.mats[g], ELL) == det(other.mats[g], ELL)


def test_cosets_are_decomposed_once_per_group(monkeypatch):
    s4 = FiniteGroup.symmetric(4)
    assert s4.memo == {"pair": {}, "subgroup": {}}
    subs = s4.subgroups()
    mid = max((s for s in subs if len(s) == 6), key=sorted)
    inner = next(s for s in subs if len(s) == 2 and set(s) <= set(mid))
    whole = tuple(s4.elements())
    pairs = {(mid, inner), (whole, mid), (whole, inner)}
    calls = {"_cosets": [], "_walk": [], "_signature": []}

    def counting(name):
        real = getattr(twisted, name)

        def counted(group, members, *rest):
            out = real(group, members, *rest)
            calls[name].append(((members,) + rest, out))
            return out

        monkeypatch.setattr(twisted, name, counted)

    for name in calls:
        counting(name)
    records = s4.memo["pair"]

    def holders(outs, part):
        """The pairs whose memo record holds one of outs as its part, one
        entry per out that some record holds."""
        return sorted(key for out in outs for key in pairs if records[key][part] is out)

    assert check_ver_identities(s4, mid, inner, C73, seed=3)["ok"]
    default = [args for args, _out in calls["_cosets"] if len(args) == 2]
    # every default-order pair is decomposed, walked and signed once, and
    # its record keeps all three; the one shuffled order (representative
    # independence) is decomposed and walked apart, needs no signature, and
    # is kept in no record
    assert sorted(default) == sorted(set(default))
    assert set(default) == pairs
    assert len(calls["_cosets"]) == len(default) + 1
    assert len(calls["_walk"]) == len(pairs) + 1 and len(calls["_signature"]) == len(pairs)
    assert holders([out[1] for _args, out in calls["_cosets"]], 1) == sorted(pairs)
    assert holders([out for _args, out in calls["_walk"]], 2) == sorted(pairs)
    assert holders([out for _args, out in calls["_signature"]], 3) == sorted(pairs)
    # the memo holds one record per pair and one is_subgroup verdict per
    # member set, each map under its own key
    assert set(s4.memo) == {"pair", "subgroup"}
    assert set(records) == pairs
    assert s4.memo["subgroup"] == {mid: True, inner: True, whole: True}
    assert all(len(records[key]) == 4 for key in pairs)
    # one member set given in another order, or with a repeat, reuses its verdict
    assert s4.is_subgroup(tuple(reversed(mid)) + (0,))
    assert s4.memo["subgroup"] == {mid: True, inner: True, whole: True}
    before = {name: dict(kept) for name, kept in s4.memo.items()}

    # a second audit on the chain reads the kept records; only its shuffled
    # order is decomposed and walked again
    assert check_ver_identities(s4, mid, inner, C73, seed=4)["ok"]
    assert s4.memo == before and all(records[key] is before["pair"][key] for key in pairs)
    assert len(calls["_cosets"]) == len(default) + 2
    assert len(calls["_walk"]) == len(pairs) + 2 and len(calls["_signature"]) == len(pairs)

    # a signature handed out is the caller's own: changing it leaves the memo as it was
    signs = delta_char(s4, inner)
    expected = dict(signs)
    signs[next(iter(signs))] *= -1
    signs.clear()
    assert delta_char(s4, inner) == expected
    assert len(calls["_signature"]) == len(pairs)
    assert FiniteGroup.symmetric(4).memo == {"pair": {}, "subgroup": {}}


@pytest.mark.parametrize(
    "ambient, message",
    [((0, 1, 2, 3), "ambient must be a subgroup"), ((0, 3, 4), "domain must sit inside the ambient subgroup")],
    ids=["not-a-subgroup", "misses-the-domain"],
)
def test_every_transfer_entry_point_refuses_a_bad_ambient(ambient, message):
    # in S_3, (0, 1, 2, 3) is no subgroup, and the rotations (0, 3, 4) miss
    # the transposition 1 of the domain (0, 1): both transfer routes, the
    # coset signature and induction refuse alike, and no record is kept
    s3 = FiniteGroup.symmetric(3)
    chi = lam_char(s3, (0, 1), [1, 3, 9, 27, 31, 62])
    entry_points = [
        lambda: verlagerung(chi, ambient=ambient, route="formula"),
        lambda: verlagerung(chi, ambient=ambient, route="det"),
        lambda: delta_char(s3, (0, 1), ambient=ambient),
        lambda: induce(chi, ambient=ambient),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match=message):
            call()
    assert s3.memo["pair"] == {}


@pytest.mark.parametrize("domain", [(0, 1, 2), (0, 3), (0, 1, 3), (1, 2)])
def test_every_transfer_entry_point_refuses_a_domain_that_is_no_subgroup(domain):
    # in S_3, 1 and 2 are transpositions whose product is a 3-cycle, the
    # 3-cycle 3 needs its inverse 4, and (1, 2) lacks the identity; char_rep
    # hands each domain over as given, and the gate refuses it before any
    # record is kept
    s3 = FiniteGroup.symmetric(3)
    chi = lam_char(s3, domain, [1, 3, 9, 27, 31, 62])
    assert not chi.is_valid()
    entry_points = [
        lambda: verlagerung(chi, route="formula"),
        lambda: verlagerung(chi, route="det"),
        lambda: delta_char(s3, domain),
        lambda: induce(chi),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="domain must be a subgroup"):
            call()
    assert s3.memo["pair"] == {}


@pytest.mark.parametrize(
    "mid, sub, message",
    [
        ((0, 1, 2), (0,), "ambient must be a subgroup"),
        (tuple(range(6)), (), "domain must be a subgroup"),
        (tuple(range(6)), (0, 3), "domain must be a subgroup"),
        ((0, 3, 4), (0, 1), "domain must sit inside the ambient subgroup"),
    ],
    ids=["mid-no-subgroup", "empty-sub", "sub-no-subgroup", "not-nested"],
)
def test_check_ver_identities_refuses_a_bad_chain_at_the_gate(mid, sub, message):
    s3 = FiniteGroup.symmetric(3)
    with pytest.raises(ValueError, match=message):
        check_ver_identities(s3, mid, sub, C73, seed=1)
    assert s3.memo["pair"] == {}


def test_char_rep_rejects_wrong_multiplier_power():
    s3 = FiniteGroup.symmetric(3)
    lam = [1, 3, 9, 27, 31, 62]
    mu = d1(s3, C73, lam)
    chi = lam_char(s3, (0, 1), lam)
    inner = verlagerung(chi, ambient=(0, 1))
    assert not char_rep(s3, (0, 1), mu ** 5, {h: lam[h] for h in (0, 1)}).is_valid()
    # the transferred character really is a character for the squared twist
    stage = char_rep(s3, (0, 1), mu ** 1, inner)
    assert stage.is_valid()


def test_char_rep_refuses_a_multiplier_of_another_group():
    # a foreign multiplier is a bad argument, not a character that fails its audit
    s3, c2 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)
    with pytest.raises(ValueError, match="multiplier lives on a different group"):
        char_rep(s3, (0, 1), Multiplier.trivial(c2, C73), {0: 1, 1: 1})


def test_run_twisted_suite_smoke():
    report = run_twisted_suite(C73, seed=7, min_randomized=12)
    assert report["ok"], report["failures"][:4]
    counts = report["counts"]
    assert counts["exhaustive_pairs"] >= 80
    assert counts["exhaustive_chains"] >= 40
    assert counts["det_collapse"] >= 19
    assert counts["randomized"] == 12


def _on_second_value(change):
    """A mutant maker: the real function with change(value, *args) in
    place of the second value of the map it returns."""

    def make(real):
        def mutant(*args):
            out = real(*args)
            if len(out) > 1:
                k = list(out)[1]
                out[k] = change(out[k], *args)
            return out

        return mutant

    return make


def _double_d1_entry(real):
    def mutant(group, coeff, lam):
        mu = real(group, coeff, lam)
        if group.n <= 2:
            return mu
        table = [list(row) for row in mu.table]
        table[1][2] = 2 * table[1][2] % coeff.ell
        return Multiplier(group, coeff, tuple(map(tuple, table)))

    return mutant


# one break per derived value the suite audits, each a wrapper of the real function
MUTANTS = {
    "_transfer": _on_second_value(lambda v, rep, walk: 2 * v % rep.mult.coeff.ell),
    "_signature": _on_second_value(lambda v, *args: -v),
    "det": lambda real: lambda rows, ell: 2 * real(rows, ell) % ell,
    "_perm_sign": lambda real: lambda p: -real(p) if len(p) == 3 else real(p),
    "d1": _double_d1_entry,
}


@pytest.mark.parametrize("name", [None] + list(MUTANTS))
def test_twisted_check_reports_a_broken_route_as_a_failure(capsys, monkeypatch, name):
    # a broken transfer, signature, determinant or coboundary is a checked
    # identity that fails (exit 2, with failures), never malformed input
    if name is not None:
        monkeypatch.setattr(twisted, name, MUTANTS[name](getattr(twisted, name)))
    code = cli.main(["twisted-check", "--trials", "3", "--seed", "9"])
    report = json.loads(capsys.readouterr().out)
    failures = report["report"]["failures"] if "report" in report else None
    if name is None:
        assert (code, failures) == (0, [])
    else:
        assert code == 2 and failures, report


def corrupted(rep, g, i, j):
    """rep with the (i, j) entry of rho(g) moved by one."""
    rows = [list(r) for r in rep.mats[g]]
    rows[i][j] = (rows[i][j] + 1) % rep.mult.coeff.ell
    rep.mats[g] = tuple(map(tuple, rows))
    return rep


def s4_char():
    s4 = FiniteGroup.symmetric(4)
    return lam_char(s4, tuple(s4.elements()), unit_cochain(s4, random.Random(71)))


def s3_standard():
    """The 2-dimensional representation of S_3, which is not monomial:
    rotation [[0, -1], [1, -1]] at the 3-cycle (1, 2, 0), reflection
    [[0, 1], [1, 0]] at the transposition (0, 2, 1)."""
    s3 = FiniteGroup.symmetric(3)
    gens = {3: [[0, -1], [1, -1]], 1: [[0, 1], [1, 0]]}
    mats = {0: [[1, 0], [0, 1]]}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for g, m in gens.items():
            b = s3.table[a][g]
            if b not in mats:
                mats[b] = [[sum(x * y for x, y in zip(r, c)) for c in zip(*m)] for r in mats[a]]
                frontier.append(b)
    return TwistedRep(s3, tuple(s3.elements()), Multiplier.trivial(s3, C73), mats)


def s3_regular():
    s3 = FiniteGroup.symmetric(3)
    sub = next(s for s in s3.subgroups() if len(s) == 3)
    return TwistedRep.regular(s3, sub, C73)


@pytest.mark.parametrize(
    "build, g, i, j",
    [
        (s4_char, 13, 0, 0),
        (lambda: pauli_rep(C73)[2], 2, 0, 1),
        (s3_regular, 3, 1, 0),
        (s3_standard, 3, 0, 0),
        (s3_standard, 3, 0, 1),
        (s3_standard, 3, 1, 0),
        (s3_standard, 3, 1, 1),
    ],
    ids=[
        "rank1-char",
        "pauli-off-diagonal",
        "regular-s3",
        "dense-s3-00",
        "dense-s3-01",
        "dense-s3-10",
        "dense-s3-11",
    ],
)
def test_is_valid_rejects_one_wrong_entry(build, g, i, j):
    rep = build()
    assert rep.is_valid()
    assert not corrupted(rep, g, i, j).is_valid()


def test_rank_one_check_matches_the_general_path():
    """At rank 1 is_valid compares scalars; its verdict on each seeded
    case equals the row-at-a-time verdict on diag(v, v) under the same
    multiplier, for valid characters and for corrupted ones: one value
    scaled, the multiplier squared or moved at one pair, and a domain that
    is no subgroup."""
    rng = random.Random(83)

    def verdicts(group, dom, mult, vals):
        one = TwistedRep._built(group, dom, mult, {h: ((vals[h],),) for h in dom})
        two = TwistedRep._built(group, dom, mult, {h: ((vals[h], 0), (0, vals[h])) for h in dom})
        assert one.rank == 1 and two.rank == 2
        return one.is_valid(), two.is_valid()

    seen = set()
    for group in (g for g in twisted._zoo() if g.n <= 12):
        lam = unit_cochain(group, rng)
        mu = d1(group, C73, lam)
        for sub in group.subgroups():
            vals = {h: lam[h] for h in sub}
            assert verdicts(group, sub, mu, vals) == (True, True)
            seen.add(True)

            g = sub[rng.randrange(len(sub))]
            scaled = dict(vals)
            scaled[g] = vals[g] * rng.randrange(2, ELL) % ELL
            one, two = verdicts(group, sub, mu, scaled)
            assert one == two
            seen.add(one)

            one, two = verdicts(group, sub, mu ** 2, vals)
            assert one == two
            seen.add(one)

            # one multiplier value moved, at any pair but the identity pair
            if len(sub) > 1:
                g, h = 0, 0
                while g == h == 0:
                    g, h = sub[rng.randrange(len(sub))], sub[rng.randrange(len(sub))]
                table = [list(row) for row in mu.table]
                table[g][h] = table[g][h] * rng.randrange(2, ELL) % ELL
                one, two = verdicts(group, sub, Multiplier(group, C73, tuple(map(tuple, table))), vals)
                assert one == two
                seen.add(one)

            outside = [x for x in group.elements() if x not in sub]
            if outside:
                dom = tuple(sorted(sub + (outside[rng.randrange(len(outside))],)))
                if group.closure(dom) != dom:
                    assert verdicts(group, dom, mu, {h: lam[h] for h in dom}) == (False, False)
    assert seen == {True, False}
