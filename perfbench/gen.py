"""Seeded inputs for the four benchmark workloads.

Everything here is plain data (ints, lists, dicts) made from the seed
alone; nothing imports the library.  So the same seed gives the same inputs
at every commit, and the library sees only what these functions return.

Field elements use the library's index encoding: the base-p digits of the
index are the coefficients on the power basis of the modulus that
``fq_build`` picks, the lexicographically first monic irreducible.  The
worker checks that the library still picks that modulus before it uses
inputs made here.
"""

import json
import math
import random


# ---------------------------------------------------------------------------
# small finite fields, just enough to find irreducible polynomials


class SmallField:
    """F_{p^n} for n <= 2 on index-encoded elements."""

    def __init__(self, p, n):
        if n not in (1, 2):
            raise ValueError("only prime fields and quadratic extensions")
        self.p, self.n, self.q = p, n, p ** n
        self.modulus = first_modulus(p, n)

    def digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.n)]

    def index(self, digits):
        return sum(c * self.p ** i for i, c in enumerate(digits))

    def add(self, a, b):
        return self.index([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a, b):
        p = self.p
        x, y = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] = (prod[i + j] + xi * yj) % p
        m = self.modulus
        for k in range(len(prod) - 1, self.n - 1, -1):
            c = prod[k]
            if c:
                for i in range(self.n + 1):
                    prod[k - self.n + i] = (prod[k - self.n + i] - c * m[i]) % p
        return self.index(prod[: self.n])

    def evaluate(self, poly, x):
        acc = 0
        for c in reversed(poly):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def has_root(self, poly):
        return any(self.evaluate(poly, x) == 0 for x in range(self.q))

    def coeff_json(self, a):
        return self.digits(a) if self.n > 1 else a

    def poly_mul(self, f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return out


def first_modulus(p, n):
    """The monic irreducible of degree n over F_p that fq_build picks."""
    for k in range(p ** n):
        cand = [(k // p ** i) % p for i in range(n)] + [1]
        if n == 1 or not SmallField(p, 1).has_root(cand):
            return tuple(cand)
    raise ValueError("no irreducible found")


def random_irreducible(rng, field, degree):
    """A uniformly drawn monic irreducible of degree 1 to 3, constant term
    first.  Below degree 4 irreducible means root free."""
    if not 1 <= degree <= 3:
        raise ValueError("degree must be 1, 2 or 3")
    while True:
        poly = [rng.randrange(field.q) for _ in range(degree)] + [1]
        if degree == 1 or not field.has_root(poly):
            return poly


def rational_json(field, num, den=(1,)):
    return {"num": [field.digits(c) for c in num], "den": [field.digits(c) for c in den]}


def canonical_bytes(obj):
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


# Ops per second of --seconds.  A run does a fixed number of ops, sized to
# take about --seconds at the commit that defined the benchmark, so every
# run of a workload holds the same mix of ops.  Were the op count to follow
# host speed, op_p50_s and op_tail_s would jump between op kinds: the tail
# sits in the top ten ops of a run, among a handful of (field, swan) pairs
# or, with ten ops or fewer, on the fastest one.  twisted-suite and
# local-factors are the exceptions, for a steady median: suites take about
# 2 s each and vary by about 10 % from one to the next, and the median
# local op sits where op times climb steeply from one (field, swan) pair to
# the next, so they run about twice and one and a half times as many ops as
# --seconds holds.
OPS_PER_S = {
    "global-cold": 0.4,
    "global-warm": 9.0,
    "local-factors": 26.0,
    "twisted-suite": 0.55,
}


def cycle_ops(workload):
    """Ops in one cycle of a workload's inputs: each cold field and command
    once, each warm variant once, each local (field, swan) pair once plus
    one large field, one suite."""
    return {
        "global-cold": len(cold_schedule()),
        "global-warm": len(warm_variants()),
        "local-factors": len(local_pairs()) + 1,
        "twisted-suite": 1,
    }[workload]


def op_count(workload, seconds):
    """Whole cycles, at least one, so that the op mix of a run does not
    depend on where a seeded shuffle puts the costly ops."""
    cycle = cycle_ops(workload)
    return cycle * max(1, round(OPS_PER_S[workload] * seconds / cycle))


# ---------------------------------------------------------------------------
# global-cold: one spec/omega file pair per op, run through the CLI

# (base prime, determinant degree of the product-check spec).  The largest
# table either command builds is F_{p^D}: product-check walks degrees 1..D,
# eps-global audits one degree past its spec, so its spec sits at D - 1.
COLD_FIELDS = ((2, 15), (3, 10), (5, 7))
COLD_COMMANDS = ("product-check", "eps-global")


def cold_schedule():
    """Fixed op order: the commands alternate and the fields rotate, so
    every run of a given length sees the same mix."""
    out = []
    for i in range(2 * len(COLD_FIELDS)):
        p, top = COLD_FIELDS[i % len(COLD_FIELDS)]
        cmd = COLD_COMMANDS[i % 2]
        out.append((cmd, p, top if cmd == "product-check" else top - 1))
    return out


def cold_case(seed, i):
    """Spec and omega for op i: an additive polynomial a (t - c)^k of degree
    k prime to p, a tame Kummer datum at a finite puncture of degree e in
    {1, 2}, and infinity punctured; the determinant degree is e + k - 1.

    The additive polynomial has its zeros at one rational point on purpose:
    the CLI sizes its coefficient field from the residue fields of those
    zeros, so a random polynomial of degree 15 would swing an op by seconds
    depending on how it factors."""
    sched = cold_schedule()
    cmd, p, d = sched[i % len(sched)]
    rng = _rng("global-cold", seed * 1000003 + i)
    field = SmallField(p, 1)
    choices = [(e, d - e + 1) for e in (1, 2) if (d - e + 1) % p]
    e, k = rng.choice(choices)
    fpol = random_irreducible(rng, field, e)
    a, c = rng.randrange(1, p), rng.randrange(p)
    wild = [a * math.comb(k, j) * (-c) ** (k - j) % p for j in range(k + 1)]
    kexp = rng.randrange(1, p - 1) if p > 2 else 1
    spec = {
        "p": p,
        "n": 1,
        "wild": rational_json(field, wild),
        "kummer": [[rational_json(field, fpol), kexp]],
        "punctures": [{"type": "finite", "minpoly": fpol}, {"type": "infinity"}],
        "unram": rng.choice([1, 1, 2]),
    }
    pole = rng.randrange(p)
    omega = rational_json(field, [rng.randrange(1, p)], [pole, 1])
    return {
        "id": "cold-%d-%d" % (seed, i),
        "command": cmd,
        "p": p,
        "degree": d,
        "largest_field": p ** (d if cmd == "product-check" else d + 1),
        "spec": spec,
        "omega": omega,
    }


# ---------------------------------------------------------------------------
# global-warm: a product-formula corpus shaped like acceptance test_06

# (p, n, determinant degree): every extension the point walk builds has at
# most 3^9 elements, so per-op cost stays in the point walk, not in tables.
WARM_STRATA = (
    (3, 1, 2), (3, 1, 4), (3, 1, 6), (3, 1, 8),
    (2, 2, 2), (2, 2, 3), (2, 2, 5),
    (5, 1, 2), (5, 1, 3), (5, 1, 4),
    (7, 1, 2), (7, 1, 3),
    (3, 2, 2), (3, 2, 3),
)
WARM_PASSES = 3


def warm_options(p, q, d):
    """Ways to reach determinant degree d: ("poly", e, k) puts an additive
    polynomial of degree k at infinity (d = e + k - 1), ("pole", e, 1) a
    simple additive pole at the finite puncture (d = 2e - 1)."""
    emax = 3 if q <= 5 else 2
    out = [("poly", e, d - e + 1) for e in range(1, emax + 1) if d - e + 1 >= 1 and (d - e + 1) % p]
    out += [("pole", e, 1) for e in range(1, emax + 1) if 2 * e - 1 == d]
    return out


def warm_case(rng, p, n, d, variant, ident):
    field = SmallField(p, n)
    q = field.q
    shape, e, k = variant
    fpol = random_irreducible(rng, field, e)
    if shape == "poly":
        wild = rational_json(field, [rng.randrange(q) for _ in range(k)] + [rng.randrange(1, q)])
    else:
        wild = rational_json(field, [rng.randrange(1, q)], fpol)
    spec = {
        "p": p,
        "n": n,
        "wild": wild,
        "kummer": [[rational_json(field, fpol), rng.randrange(1, q - 1)]],
        "punctures": [
            {"type": "finite", "minpoly": [field.coeff_json(c) for c in fpol]},
            {"type": "infinity"},
        ],
        "unram": rng.choice([1, 1, 2, 3]),
    }
    num, den = [rng.randrange(1, q)], [1]
    degrees = {1, e}
    for _ in range(rng.randrange(1, 3)):
        deg = rng.randrange(1, 3)
        g = random_irreducible(rng, field, deg)
        ex = rng.choice([-2, -1, 1, 2])
        degrees.add(deg)
        for _ in range(abs(ex)):
            if ex > 0:
                num = field.poly_mul(num, g)
            else:
                den = field.poly_mul(den, g)
    return {
        "id": ident,
        "p": p,
        "n": n,
        "q": q,
        "degree": d,
        "puncture_degree": e,
        "swan": k,
        "shape": shape,
        "spec": spec,
        "omega": rational_json(field, num, den),
        "orders": sorted({q ** g - 1 for g in degrees}),
    }


def warm_variants():
    """Every (p, n, d, shape, puncture degree, swan) the strata allow."""
    return [(p, n, d) + opt for p, n, d in WARM_STRATA for opt in warm_options(p, p ** n, d)]


def warm_corpus(seed):
    """WARM_PASSES specs per variant, each pass a seeded permutation with
    seeded coefficients: every seed sees the same structural mix, so op
    times differ between seeds only through the coefficients.  The first
    pass holds every variant, so warming it up builds every table."""
    rng = _rng("global-warm", seed)
    out = []
    for _ in range(WARM_PASSES):
        variants = warm_variants()
        rng.shuffle(variants)
        for p, n, d, shape, e, k in variants:
            out.append(warm_case(rng, p, n, d, (shape, e, k), "warm-%d-%d" % (seed, len(out))))
    return out


# ---------------------------------------------------------------------------
# local-factors: eps_local over seeded characters and forms

LOCAL_FIELDS = (
    (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
    (2, 5), (7, 2), (2, 6), (3, 4), (5, 3), (2, 7), (3, 5), (2, 8),
)
# Unit sums up to this many terms; 3^12 is the largest q**(swan + 1) the
# fields above reach below about 5e5.
LOCAL_TERMS = 3 ** 12
# Fields past the 2^10 table cap; ramified characters there fail today.
LOCAL_LARGE = ((2, 11), (3, 7))


def local_pairs():
    """Admissible (p, n, swan): swan 0 or prime to p (a reduced wild datum
    never has a pole order divisible by p) with q**(swan + 1) in range."""
    out = []
    for p, n in LOCAL_FIELDS:
        q = p ** n
        s = 0
        while q ** (s + 1) <= LOCAL_TERMS:
            if s == 0 or s % p:
                out.append((p, n, s))
            s += 1
    return out


def local_case(rng, p, n, swan, ident):
    q = p ** n
    wild = []
    if swan:
        wild = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(swan - 1)]
    v = rng.randrange(-2, 3)
    rel = swan + 4
    form = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rel - 1)]
    return {
        "id": ident,
        "p": p,
        "n": n,
        "q": q,
        "swan": swan,
        "tame_e": rng.randrange(q - 1),
        "c_pi": rng.randrange(1, 1 << 30),
        "wild": wild,
        "form_v": v,
        "form": form,
        "kind": rng.choice(["shriek", "star"]),
    }


def local_cycle(seed, cycle):
    """Every admissible pair once plus one input from a large field (the
    two alternate between cycles), in a seeded order.  Whole cycles keep
    the (field, swan) mix uniform.

    One large input in 65 keeps the ops that fail today, which count as
    infinitely slow, well under the ten that would make op_tail_s
    unbounded in a run."""
    rng = _rng("local-factors", seed * 1000003 + cycle)
    pairs = local_pairs()
    p, n = LOCAL_LARGE[cycle % len(LOCAL_LARGE)]
    pairs.append((p, n, rng.choice([0, 1])))
    rng.shuffle(pairs)
    return [
        local_case(rng, p, n, s, "local-%d-%d-%d" % (seed, cycle, i))
        for i, (p, n, s) in enumerate(pairs)
    ]


def local_fields():
    return LOCAL_FIELDS + LOCAL_LARGE


# ---------------------------------------------------------------------------
# twisted-suite: successive suite seeds

TWISTED_TRIALS = 100
TWISTED_P = 3
TWISTED_ORDERS = (8,)


def twisted_seed(seed, i):
    return seed * 1000 + i
