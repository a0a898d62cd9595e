"""The paper's local properties of epsilon, as checks for the tests.

Change of form, unramified twist, the exact sequence at the closed point,
local duality and multiplicativity over formal sums, with the two operations on
characters they need: the product and the unramified twist.  Each check
takes the engine of eps_local, so that both the walk and auto's choice
keep it.
"""

from epsilon_lab.chars import LocalCharacter
from epsilon_lab.epsilon import EpsilonResult, eps_local, eps_punctual
from epsilon_lab.localfield import Form
from uniformizer import add


def char_product(a, b):
    """The product of two characters of one field, piece by piece."""
    if b.field != a.field or b.coeff is not a.coeff:
        raise ValueError("characters live on different fields")
    return LocalCharacter(a.field, a.coeff, a.c_pi * b.c_pi, a.tame_e + b.tame_e, add(a.wild_h, b.wild_h))


def twist_unramified(chi, c):
    """chi times the unramified character sending pi to c."""
    c = chi.coeff.elem(c) if isinstance(c, int) else c
    return LocalCharacter(chi.field, chi.coeff, chi.c_pi * c, chi.tame_e, chi.wild_h)


def check_change_of_form(chi, omega, alpha, kind="shriek", method="auto"):
    """eps(chi, alpha w) == chi(alpha) q**v(alpha) eps(chi, w)."""
    ell = chi.coeff.ell
    scaled = Form(omega.w * alpha)
    lhs = eps_local(chi, scaled, kind, method).value.value
    rhs = chi(alpha) * pow(chi.field.q, alpha.valuation(), ell) * eps_local(chi, omega, kind, method).value.value
    return lhs == rhs % ell


def check_unramified_twist(chi, omega, c, kind="shriek", method="auto"):
    """eps(chi * unram(c), w) == c**a_omega(chi) eps(chi, w)."""
    base = eps_local(chi, omega, kind, method)
    twisted = eps_local(twist_unramified(chi, c), omega, kind, method)
    c = chi.coeff.elem(c) if isinstance(c, int) else c
    return twisted.value == c ** base.conductor_a_omega * base.value


def check_exact_sequence(chi, omega, method="auto"):
    """For unramified chi the star extension is the shriek extension plus
    the point stalk: factors multiply, conductors add."""
    star = eps_local(chi, omega, "star", method)
    shriek = eps_local(chi, omega, "shriek", method)
    if chi.is_ramified():
        return star.value == shriek.value and star.conductor_a == shriek.conductor_a
    stalk = eps_punctual(chi.coeff, [chi.c_pi.value])
    ok_value = star.value == shriek.value * stalk.value
    ok_a = star.conductor_a == shriek.conductor_a + stalk.conductor_a
    ok_aw = star.conductor_a_omega == shriek.conductor_a_omega + stalk.conductor_a_omega
    return ok_value and ok_a and ok_aw


def check_local_duality(chi, omega, method="auto"):
    """eps(chi, w) eps(chi**-1, -w) == q**(a + 2 v(w)) for ramified chi of
    conductor a, the local functional equation of Tate's thesis.

    In this code's normalisation, with c = pi**(a + v(w)),
    eps(chi, w) = (-1)**a q**v(w) G(chi, w), where
    G(chi, w) = sum over units u mod pi**a of chi**-1(x) psi(Res(x w)),
    x = u / c; chi**-1 also has conductor a.  Put y = x t in
    G(chi, w) G(chi**-1, -w) = sum over x, y of chi(y / x) psi(Res((x - y) w)):
    it is the sum over units t mod pi**a of chi(t) S(t), where S(t) sums
    psi(Res(u z)), z = (1 - t) w / c of valuation v(1 - t) - a, over the
    units u mod pi**a.  As a sum over O mod pi**a less one over pi O mod
    pi**a, each of a character trivial just when z pi**k has valuation at
    least 0, S(t) = q**a [t = 1] - q**(a - 1) [t in U^(a-1)].  chi is
    nontrivial on U^(a-1), its conductor being a, so the second part sums
    to 0, G G = q**a, and the signs (-1)**a cancel.
    """
    q = chi.coeff.elem(chi.field.q)
    res = eps_local(chi, omega, "shriek", method)
    dual = eps_local(chi.inverse(), Form(-omega.w), "shriek", method)
    return res.value * dual.value == q ** (res.conductor_a + 2 * omega.w.valuation())


def eps_virtual(parts):
    """Multiply factors of a formal sum of local objects.

    parts: iterable of (EpsilonResult, multiplicity); negative multiplicity
    divides.  Returns an EpsilonResult with summed conductors.
    """
    value = None
    a = 0
    aw = 0
    for res, m in parts:
        piece = res.value ** m
        value = piece if value is None else value * piece
        a += m * res.conductor_a
        aw += m * res.conductor_a_omega
    if value is None:
        raise ValueError("empty formal sum")
    return EpsilonResult(value, a, aw, "virtual")
