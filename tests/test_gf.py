"""Field tower tests: frozen descriptors, field axioms, trace/norm, dlog,
norm compatible residue fields."""

import pytest
from hypothesis import given, settings, strategies as st

from epsilon_lab.gf import (
    CapExceeded,
    _is_prime,
    FieldDesc,
    LogField,
    Unsupported,
    dlog,
    find_embedding,
    fq_build,
    frobenius,
    fq_build as build,
    identity_embedding,
    norm,
    residue_field,
    trace,
)


def test_f3_descriptor():
    f3 = fq_build(3, 1)
    assert f3.modulus == (0, 1)
    assert f3.generator == (2,)


def test_f9_descriptor():
    f9 = fq_build(3, 2)
    # x^2 + 1 is the first irreducible in the scan, 1 + x its first generator
    assert f9.modulus == (1, 0, 1)
    assert f9.generator == (1, 1)
    g = f9.gen()
    seen = set()
    cur = f9.one()
    for _ in range(8):
        seen.add(cur.coeffs)
        cur = cur * g
    assert len(seen) == 8 and cur == f9.one()


def test_f4_descriptor():
    f4 = fq_build(2, 2)
    assert f4.modulus == (1, 1, 1)


def test_trace_norm_examples():
    f3 = fq_build(3, 1)
    f9 = fq_build(3, 2)
    assert trace(f9.one()) == 2
    n = norm(f9.gen(), find_embedding(f3, f9))
    # the norm of a generator generates the subfield's units
    assert n == f3.elem(2)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 10), (3, 2), (5, 3), (7, 2), (2, 17)])
def test_q_is_set_once(p, n):
    field = fq_build(p, n)
    assert field.q == p ** n
    assert FieldDesc.from_json(field.to_json()).q == p ** n


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        fq_build(2, 30)


def test_is_prime_agrees_with_a_sieve():
    n = 200000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for d in range(2, 448):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    assert [m for m in range(n) if _is_prime(m)] == [m for m in range(n) if sieve[m]]


@pytest.mark.parametrize(
    "n",
    [
        # the least strong pseudoprimes to the prime bases 2, 3, 5, ... in turn, up to 23
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        # Carmichael numbers
        561,
        41041,
        825265,
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


def test_is_prime_on_large_primes():
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 55 - 55) and _is_prime(1688848652304547)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_fq_build_keeps_each_descriptor_and_its_refusals():
    # 3.0 and True hash like 3 and 1, so they are refused before the cache
    assert fq_build(3, 1) is fq_build(3, 1)
    with pytest.raises(Unsupported) as err:
        fq_build(3, True)
    assert err.value.field == "n"
    with pytest.raises(TypeError):
        fq_build(3.0, 1)
    for p in (4, True):
        with pytest.raises(Unsupported) as err:
            fq_build(p, 1)
        assert err.value.field == "p"


@st.composite
def field_and_pair(draw):
    p, n = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]))
    f = fq_build(p, n)
    a = f.from_index(draw(st.integers(0, f.q - 1)))
    b = f.from_index(draw(st.integers(0, f.q - 1)))
    return f, a, b


@given(field_and_pair())
@settings(max_examples=120, deadline=None)
def test_field_axioms(fab):
    f, a, b = fab
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + f.one()) == a * b + a
    assert a + (-a) == f.zero()
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * b.inverse() == f.one()


@given(field_and_pair())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_additive_and_fixes_prime(fab):
    f, a, b = fab
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(f.elem(1)) == f.elem(1)
    assert frobenius(a, f.n) == a


def test_int_coercion():
    f9 = fq_build(3, 2)
    x = f9.gen()
    assert x + 1 == x + f9.one()
    assert 2 * x == x + x
    assert (1 + (-x)) + x == f9.one()


def test_dlog_roundtrip():
    fields = [fq_build(p, n) for p, n in [(3, 2), (5, 1), (7, 1), (2, 4), (2, 10)]]
    fields.append(residue_field(fq_build(3, 1), 4)[0])
    for f in fields:
        g = f.gen()
        for e in range(f.q - 1):
            assert dlog(f, (g ** e).index()) == e
        with pytest.raises(ValueError):
            dlog(f, 0)


def test_trace_norm_to_intermediate_field():
    # the norm as one power against the product of the Frobenius orbit
    # over the small field, inside the big field
    for p, n, d in [(3, 1, 2), (3, 2, 2), (2, 2, 3), (5, 1, 3)]:
        small = fq_build(p, n)
        big, emb = residue_field(small, d)
        for x in (big.gen(), big.gen() ** 7, big.zero()):
            orbit = big.one()
            for j in range(d):
                orbit = orbit * frobenius(x, n * j)
            got = norm(x, emb)
            assert got.field == small and emb.embed(got) == orbit


def test_residue_field_norm_compatible_generator():
    for p, n, d in [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2), (7, 1, 2)]:
        base = fq_build(p, n)
        big, emb = residue_field(base, d)
        assert norm(big.gen(), emb) == base.gen()


def test_embedding_is_ring_hom():
    base = fq_build(3, 1)
    big, emb = residue_field(base, 3)
    for i in range(3):
        for j in range(3):
            a, b = base.from_index(i), base.from_index(j)
            assert emb.embed(a * b) == emb.embed(a) * emb.embed(b)
            assert emb.embed(a + b) == emb.embed(a) + emb.embed(b)


def test_find_embedding_roots_modulus():
    small = fq_build(2, 2)
    big = fq_build(2, 4)
    emb = find_embedding(small, big)
    acc = big.zero()
    power = big.one()
    for c in small.modulus:
        acc = acc + power * c
        power = power * emb.root
    assert acc.is_zero()


@pytest.mark.parametrize("small, big", [((3, 1), (3, 2)), ((2, 2), (2, 4)), ((3, 2), (3, 4)), ((2, 1), (2, 3)), ((5, 1), (5, 2)), ((2, 3), (2, 6))])
def test_find_embedding_takes_the_first_root(small, big):
    # the local expansions depend on this choice: the first root of the
    # small modulus among 0, 1, g, g**2, ..., g of order small.q - 1
    small, big = fq_build(*small), fq_build(*big)
    g = big.gen() ** ((big.q - 1) // (small.q - 1))
    for x in [big.zero()] + [g ** k for k in range(small.q - 1)]:
        value = big.zero()
        for c in reversed(small.modulus):
            value = value * x + c
        if value.is_zero():
            break
    assert find_embedding(small, big).root == x


def test_json_roundtrip():
    f = fq_build(3, 2)
    assert FieldDesc.from_json(f.to_json()) == f


def test_identity_embedding():
    f = fq_build(3, 2)
    emb = identity_embedding(f)
    for k in range(f.q):
        x = f.from_index(k)
        assert emb.embed(x) == x
        assert emb.section(x) == x


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3)])
def test_product_sum_inverse_against_log_tables(p, n):
    # the tables walk by x on packed ints and multiply FqElems only for the
    # few coset leaders, so exp/log/Zech give every product, sum and inverse
    # by a route apart from the reduction rows
    field = fq_build(p, n)
    lf = LogField(field)
    exp, log, zech, m = lf.exp, lf.log, lf.zech, lf.order
    elems = [field.from_index(k) for k in range(field.q)]
    for a in elems:
        la = log[a.index()]
        if la >= 0:
            assert a.inverse().index() == exp[-la % m]
        for b in elems:
            lb = log[b.index()]
            want = 0 if la < 0 or lb < 0 else exp[(la + lb) % m]
            assert (a * b).index() == want
            if la < 0 or lb < 0:
                want = b.index() if la < 0 else a.index()
            else:
                z = zech[(lb - la) % m]
                want = 0 if z < 0 else exp[(la + z) % m]
            assert (a + b).index() == want


@pytest.mark.parametrize("small, big", [((3, 1), (3, 3)), ((2, 2), (2, 6)), ((3, 2), (3, 4)), ((5, 1), (5, 3))])
def test_embed_is_horner_in_the_root_and_section_inverts_it(small, big):
    small = fq_build(*small)
    for emb in (find_embedding(small, fq_build(*big)), residue_field(small, big[1] // small.n)[1]):
        for k in range(small.q):
            x = small.from_index(k)
            want = emb.big.zero()
            for c in reversed(x.coeffs):
                want = want * emb.root + c
            assert emb.embed(x) == want
            assert emb.section(emb.embed(x)) == x


@pytest.mark.parametrize("small, big", [((3, 1), (3, 2)), ((2, 2), (2, 4)), ((3, 2), (3, 4))])
def test_section_raises_exactly_off_the_image(small, big):
    # the image is the subfield: the elements fixed by the q-th power map
    small, big = fq_build(*small), fq_build(*big)
    emb = find_embedding(small, big)
    for k in range(big.q):
        y = big.from_index(k)
        if y ** small.q == y:
            assert emb.embed(emb.section(y)) == y
        else:
            with pytest.raises(ValueError, match="not in the embedded subfield"):
                emb.section(y)


def test_mismatched_fields_still_raise():
    f9, f4 = fq_build(3, 2), fq_build(2, 2)
    same = FieldDesc(3, 2, f9.modulus, f9.generator)
    assert same == f9 and hash(same) == hash(f9) and same is not f9
    assert same.gen() * f9.gen() == f9.gen() * f9.gen()
    with pytest.raises(ValueError):
        f9.gen() * f4.gen()
    with pytest.raises(ValueError):
        f9.gen() + f4.gen()
