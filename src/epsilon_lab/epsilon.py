"""Local epsilon factors of rank one objects on the formal disc.

The value reported everywhere is the factor evaluated at geometric
Frobenius, an invertible int mod ell that every engine wraps once, as a
CoeffElem, in an EpsilonResult, a plain record with the two conductors and
the engine's name.  Two flavours of object:

* a character chi of F_q((pi)) extended across the closed point by zero
  ("shriek") or by invariants ("star"),
* a punctual object, a finite list of Frobenius eigenvalues sitting at the
  closed point.

The local properties that characterise epsilon (change of form,
unramified twist, the exact sequence at the point, multiplicativity over
formal sums, independence of the uniformizer) are checked by the tests,
whose helpers build on eps_local alone.

For ramified chi both extensions agree and the factor is the finite sum

    eps(chi, w dpi) = (-1)**a * q**v(w) * sum over units u0 mod pi**(swan+1)
                      of chi**-1(c**-1 u0) psi(Tr(Res(c**-1 u0 w dpi)))

with a = swan + 1, c = pi**(a + v(w)).  The sum is independent of the
choice of c of that valuation; eps_tate_slow exposes the choice for testing
and is the definitional anchor.  eps_tate computes the same sum by a walk
over multiplicative coordinates whose character rows come from a closed
residue formula by table lookups, with no series evaluated per unit.

For wild chi a closed product formula avoids the sum entirely: writing h
for the negated wild datum of chi and dh for its differential, the factor
is chi(w/h') q**(...) times, at even swan, a quadratic Gauss constant
gamma_psi.  eps_closed_form computes it in one pass on packed indices, with
no series built and no character call.  Acceptance checks compare it
against the sum on random data, and eps_local takes it by default for
every wild character; tame characters take the walk.  Every engine but
the definitional eps_tate_slow holds F_q values as packed indices and logs.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import add, mul

from .gf import CapExceeded, dlog, int_ops, log_field, trace
from .chars import unit_keys
from .localfield import LaurentSeries, PrecisionError, quotient, residue

TATE_CAP = 1 << 22
# the engines eps_local takes, the CLI's --method choices
METHODS = ("auto", "tate", "tate_slow", "closed")


EpsilonResult = namedtuple("EpsilonResult", "value conductor_a conductor_a_omega method")


# ---------------------------------------------------------------------------
# quadratic Gauss constant


def gamma_counts(field, c):
    """How often each trace value e in F_p is Tr(c t**2 / 2), t over F_q,
    c a nonzero packed index: a tuple indexed by e.

    With b = log(c / 2), t = G**l gives Tr(G**(b + 2 l)): as l runs over
    the q - 1 logs, b + 2 l meets each log of b's parity twice (q - 1 is
    even), so the counts are one strided slice of the trace table doubled,
    plus t = 0.  The two tuples, one per parity, are built on the first
    call for a field and kept with its tables."""
    p = field.p
    if p == 2:
        raise ValueError("the quadratic constant needs odd characteristic")
    if not c:
        raise ValueError("the quadratic constant needs a nonzero scale")
    logs = log_field(field)
    if logs.gamma is None:
        slices = (Counter(logs.trace[b::2]) for b in (0, 1))
        logs.gamma = tuple(tuple(2 * k[e] + (e == 0) for e in range(p)) for k in slices)
    # p is odd, so the prime field element 2 has packed index 2, and q - 1
    # is even, so the parity of log(c / 2) is that of the difference
    return logs.gamma[(logs.log[c] - logs.log[2]) % 2]


def gamma_psi(coeff, field, c):
    """gamma_psi(c) = -sum over t in F_q of psi(Tr(c t**2 / 2)), p odd, c
    a nonzero packed index.

    Satisfies gamma_psi(c) / gamma_psi(1) = quadratic character of c and
    |gamma_psi| = sqrt(q) under any complex embedding.  The value is an int
    mod ell; for a complex rendering, coeff.root_sum reads the negated
    gamma_counts at the p-th roots of unity.
    """
    return gamma_from_counts(coeff, gamma_counts(field, c))


def gamma_from_counts(coeff, counts):
    """gamma_psi from its gamma_counts: minus the sum of counts[e] psi(e), mod ell."""
    ell, z = coeff.ell, coeff.zeta_p
    return -sum(k * pow(z, e, ell) for e, k in enumerate(counts)) % ell


# ---------------------------------------------------------------------------
# epsilon of a character, Tate sum


def _tate_shape(chi, omega):
    """(a, v(w), a + v(w)) of a unit sum over the units mod pi**a, a the
    conductor; refused for an unramified chi or past TATE_CAP terms."""
    if not chi.is_ramified():
        raise ValueError("the unit-sum formula applies to ramified characters")
    a = 1 + chi.swan()
    v_om = omega.w.valuation()
    if chi.field.q ** a > TATE_CAP:
        raise CapExceeded("unit sum would exceed %d terms" % TATE_CAP)
    return a, v_om, a + v_om


def _walk_shape(chi, omega):
    """_tate_shape, refused also for a residue field past the walk's 2^10
    table line, before any table is built."""
    shape = _tate_shape(chi, omega)
    q = chi.field.q
    if q > 1 << 10:
        raise CapExceeded("tables for q=%d exceed 2^10" % q)
    return shape


def eps_tate_slow(chi, omega, c_unit=None):
    """Definitional unit sum, one series evaluation per unit residue.

    c_unit, if given, replaces pi**a_omega by c_unit * pi**a_omega as the
    normalizing element; the result must not depend on it.
    """
    field, coeff, ell = chi.field, chi.coeff, chi.coeff.ell
    a, v_om, a_om = _tate_shape(chi, omega)
    margin = a_om + a + 2
    c = LaurentSeries.pi_power(field, a_om, margin)
    if c_unit is not None:
        c = c * c_unit
    cinv = c.inverse()
    inv = chi.inverse()
    total = 0
    for key in unit_keys(field, a):
        u0 = LaurentSeries.of(field, 0, key, a)
        x = cinv * u0
        total = (total + inv(x) * coeff.psi(trace(residue(x * omega.w)))) % ell
    value = (-1) ** a * pow(field.q, v_om, ell) * total
    return EpsilonResult(coeff.elem(value), a, a_om, "tate_slow")


def _unit_rows(inv, nu, logs, psi_pow):
    """T[i - 1][f] = inv(1 + G**f pi**i), 0 < i < nu, by table reads.  On
    u = 1 + c pi**i the tame part is 1 and Res(h du/u), h the wild datum, is
    the sum over t <= (nu - 1) / i of i (-1)**(t - 1) h_(-i t) c**t.

    A term a G**(l + t f) reads the traces of G**l, G**(l + t), ..., one
    strided slice of the trace table laid out nu times over."""
    log, m = logs.log, logs.order
    h, p = inv.wild_h, inv.field.p
    # t < nu, so l + t f < nu m for l < m and f < m
    tr = logs.trace * nu
    # a row adds fewer than nu traces, each below p
    psi_at = (psi_pow * nu).__getitem__
    T = []
    for i in range(1, nu):
        # log(h_(-i t)) plus the log of the prime field scalar, whose index
        # is its value
        a = [(t, log[h.at(-i * t)], log[i * (-1) ** (t - 1) % p]) for t in range(1, (nu - 1) // i + 1)]
        acc = [0] * m
        for t, l, s in a:
            if l >= 0 and s >= 0:
                l = (l + s) % m
                acc = list(map(add, acc, tr[l : l + t * m : t]))
        T.append(list(map(psi_at, acc)))
    return T


def eps_tate(chi, omega):
    """Table-driven walk computing the same unit sum as eps_tate_slow.

    Units are written a0 * prod (1 + c_i pi**i), and field elements are
    logs to the generator G, -1 standing for zero, so that products are
    sums of logs and additions are Zech lookups.  The character splits
    into level rows read off the tables by a residue formula (_unit_rows).
    The pairing <u, W> = sum u_j W[j] satisfies <u (1 + c pi**i), W> =
    <u, W'> with W'[j] = W[j] + c W[j + i], so the walk moves the window
    instead of the unit and a leaf pairs to W[0].  With g = chi**-1(G),
    substituting a0 = b / d folds the a0 sum to P(G**k) = g**-k P(1), and
    the last level is summed once per pairing value, by a Zech correlation.
    """
    field, coeff = chi.field, chi.coeff
    ell = coeff.ell
    q = field.q
    a, v_om, a_om = _walk_shape(chi, omega)
    logs = log_field(field)
    log, zech = logs.log, logs.zech
    m = q - 1
    inv = chi.inverse()

    # residue pairing window: W[j] multiplies the coefficient of pi**j in u0;
    # W[a - 1] is the leading coefficient of omega, never zero, never moved
    W = [log[omega.w.at(a_om - 1 - j)] for j in range(a)]

    # ginv[k] = g**-k, g**-1 = chi(G); P(G**k) = ginv[k] * P1 and P(0) = P0
    step = coeff.kummer_chi(chi.tame_e, 1, m)
    ginv = [1] * m
    for k in range(1, m):
        ginv[k] = ginv[k - 1] * step % ell
    psi_pow = [coeff.psi(t) for t in range(field.p)]
    P1 = sum(ginv[-e % m] * psi_pow[t] for e, t in enumerate(logs.trace)) % ell
    P0 = m % ell if step == 1 else 0

    if a == 1:
        total = ginv[W[0]] * P1
    else:
        T = _unit_rows(inv, a, logs, psi_pow)

        # S[e] = sum over c of T_last(c) P(G**e + c W_last), and S[-1], read
        # through the log -1 of zero, is the same sum at pairing 0.  With
        # c = G**f, G**e + c W_last = G**(e + zech[f + lw - e]), so S[e] is
        # a correlation of T_last against Z[t] = g**-zech[t], zero where
        # 1 + G**t = 0
        last = a - 1
        Tlast = T[last - 1]
        lw = W[last]
        t0 = zech.index(-1)
        Z = [ginv[z] if z >= 0 else 0 for z in zech] * 2

        def S_at(e):
            if e < 0:
                return (P0 + P1 * sum(map(mul, Tlast, (ginv * 2)[lw : lw + m]))) % ell
            s = (lw - e) % m
            corr = sum(map(mul, Tlast, Z[s : s + m]))
            return (ginv[e] * P1 * (1 + corr) + P0 * Tlast[(t0 - s) % m]) % ell

        # levels 1 .. last - 1 move the window; the leaves under the deepest
        # of them read only the pairing w[0] + c w[level], so it sums them
        def walk(level, w, pref):
            nonlocal total
            row = T[level - 1]
            if level == last - 1:
                x, y = w[0], w[level]
                acc = S[x]
                for f in range(m):
                    if y < 0:
                        d = x
                    elif x < 0:
                        d = (y + f) % m
                    else:
                        z = zech[(y + f - x) % m]
                        d = -1 if z < 0 else (x + z) % m
                    acc += row[f] * S[d]
                total += pref * acc
                return
            walk(level + 1, w, pref)
            for f in range(m):
                new = list(w)
                for j, y in enumerate(w[level:]):
                    if y < 0:
                        continue
                    y += f
                    x = w[j]
                    if x < 0:
                        new[j] = y % m
                    else:
                        z = zech[(y - x) % m]
                        new[j] = -1 if z < 0 else (x + z) % m
                walk(level + 1, new, pref * row[f] % ell)

        # at swan 1 the sum is the one entry S[W[0]]
        if last == 1:
            total = S_at(W[0])
        else:
            S = [S_at(e) for e in range(m)] + [S_at(-1)]
            total = 0
            walk(1, W, 1)

    value = (-1) ** a * pow(q, v_om, ell) * total * pow(chi.c_pi.value, a_om, ell)
    return EpsilonResult(coeff.elem(value), a, a_om, "tate")


# ---------------------------------------------------------------------------
# closed forms: unramified, punctual, wild


def eps_unramified(chi, omega, kind):
    """chi unramified: star keeps the full line (a = 0), shriek punches it
    out (a = 1); the factor is c_pi**(a + v(w)) q**v(w)."""
    if chi.is_ramified():
        raise ValueError("character is ramified")
    ell = chi.coeff.ell
    v_om = omega.w.valuation()
    a = 1 if kind == "shriek" else 0
    value = pow(chi.c_pi.value, a + v_om, ell) * pow(chi.field.q, v_om, ell)
    return EpsilonResult(chi.coeff.elem(value), a, a + v_om, "unramified")


def eps_punctual(coeff, eigenvalues):
    """Object concentrated at the closed point with the given Frobenius
    eigenvalues, ints: the factor is the inverse of their product mod ell
    and the conductor is minus the rank, blind to the 1-form."""
    ell, value = coeff.ell, 1
    for lam in eigenvalues:
        value = value * lam % ell
    r = len(eigenvalues)
    return EpsilonResult(coeff.elem(pow(value, -1, ell)), -r, -r, "punctual")


def eps_closed_form(chi, omega):
    """Product formula for wild chi, no unit sum.

    With h the negated wild datum (pole order n >= 1), the factor is
    chi(w/h') q**(v(w/h') - n // 2 - 1), times at even n a quadratic Gauss
    constant at the leading coefficient of h' (p is odd then: reduced data
    in characteristic 2 has odd n).

    One pass on packed indices, no series built: chi reads n + 1
    coefficients of the unit u = w / h' pi**-v and n of dlog u, both by
    long division, and pairs the latter with the datum as
    LocalCharacter.__call__ does.
    """
    n = chi.swan()
    if n == 0:
        raise ValueError("closed form needs a wild character")
    field, coeff = chi.field, chi.coeff
    ell, p = coeff.ell, field.p
    ops = int_ops(field)
    mul, fma = ops.mul, ops.fma
    w = omega.w
    # a zero w is refused as every engine refuses it, then a w too short
    # for chi(w / h'), whose window is w's moved by n + 1
    vr = w.valuation() + n + 1
    if len(w.coeffs) <= n:
        raise PrecisionError("character needs %d coefficients, series has %d" % (n + 1, len(w.coeffs)))
    # h = -datum is exact, so h', the sum of (n - j) datum_j pi**(j - n - 1),
    # is known to n + 1 coefficients, the last a known zero
    datum = chi.wild_h.coeffs[:n]
    dh = [mul(c, (n - j) % p) for j, c in enumerate(datum)] + [0]
    u = quotient(ops, w.coeffs, dh, n + 1)
    du = quotient(ops, [mul(c, k % p) for k, c in enumerate(u[1:], 1)], u, n)
    # datum_j sits at pi**(j - n), so it pairs with (dlog u)_(n - 1 - j)
    pairing = 0
    for j, c in enumerate(datum):
        if c:
            pairing = fma(c, du[n - 1 - j], pairing)
    value = pow(chi.c_pi.value, vr, ell) * pow(field.q, vr - n // 2 - 1, ell)
    if chi.tame_e:
        value = value * coeff.kummer_chi(chi.tame_e, dlog(field, u[0]), field.q - 1)
    value = value * pow(coeff.zeta_p, ops.trace(pairing), ell)
    if n % 2 == 0:
        value = value * gamma_psi(coeff, field, dh[0])
    a = 1 + n
    return EpsilonResult(coeff.elem(value), a, a + w.v, "closed_form")


# ---------------------------------------------------------------------------
# dispatch


def eps_local(chi, omega, kind="shriek", method="auto"):
    """Factor of a character extended across the point, any method.

    kind (shriek or star) and method (one of METHODS) are checked first.
    auto refuses what the walk refuses (past TATE_CAP terms, or a residue
    field over 2^10), then takes the closed form for a wild character and
    the walk for a tame one; tate, tate_slow and closed force a specific
    engine (closed needs wild ramification).
    """
    if kind not in ("shriek", "star"):
        raise ValueError("kind must be 'shriek' or 'star'")
    if method not in METHODS:
        raise ValueError("unknown method %r" % (method,))
    if not chi.is_ramified():
        return eps_unramified(chi, omega, kind)
    if method == "auto":
        _walk_shape(chi, omega)
        if chi.swan():
            return eps_closed_form(chi, omega)
        return eps_tate(chi, omega)
    if method == "tate":
        return eps_tate(chi, omega)
    if method == "tate_slow":
        return eps_tate_slow(chi, omega)
    return eps_closed_form(chi, omega)
