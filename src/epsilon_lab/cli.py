"""Command line front end: JSON in, canonical JSON report out.

Subcommands compute quadratic Gauss constants, local epsilon factors,
global Frobenius determinants, the product-formula audit, cover transfer
audits, and the projective-representation identity suite.  Reports are
deterministic for a fixed input and seed, so identical runs serialize to
identical bytes (wall time goes to stderr).  Exit codes: 0 pass, 2 a
checked identity failed, 3 unsupported or malformed input, a bad command
line included, 4 an enumeration cap was exceeded.
"""

import argparse
import json
import math
import re
import sys
import time
from importlib import resources

from . import epsilon as _epsilon
from . import gf as _gf
from .chars import LocalCharacter
from .coeff import coeff_setup, pinned_ell, root_sum, second_ell
from .curve import (
    SheafSpec,
    divisor_points,
    product_formula_check,
    transfer_constants,
)
from .epsilon import eps_local, eps_punctual, gamma_counts, gamma_from_counts
from .gf import CapExceeded, Unsupported, fq_build
from .localfield import Form, LaurentSeries, Point, Poly, RationalFunction

_KINDS = {"j!": "shriek", "j*": "star", "punctual": "punctual"}


def _bundled(name):
    return resources.files("epsilon_lab").joinpath("data", name)


def _need(ok, field, what):
    if not ok:
        raise Unsupported("%s must be %s" % (field, what), field=field)


def _load(path, field):
    """The JSON object in a file; field names the input in errors."""
    if hasattr(path, "read_text"):
        text = path.read_text(encoding="utf-8")
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    _need(isinstance(obj, dict), field, "a JSON object")
    return obj


def _field_record(obj, field):
    """A JSON object whose optional p and n, if present, are integers."""
    _need(isinstance(obj, dict), field, "a JSON object")
    for key in ("p", "n"):
        _need(type(obj.get(key, 0)) is int, key, "an integer")
    return obj


def _sheaf(obj, field):
    """SheafSpec from a JSON record whose shape is checked first."""
    return SheafSpec.from_json(_field_record(obj, field))


def _load_spec(path):
    """A spec file is either a bare sheaf record or a wrapper with
    optional coefficient settings; returns (spec, settings)."""
    obj = _load(path, "spec")
    if "spec" in obj:
        return _sheaf(obj["spec"], "spec"), obj.get("coeff", {})
    return _sheaf(obj, "spec"), {}


def _parse_orders(text):
    try:
        orders = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        orders = None
    _need(orders, "orders", "a comma list of integers")
    return orders


def _coeff_for(cfg, p, orders, ell, specs=()):
    """Coefficient field of a run.

    The input's coefficient settings cfg may set p, orders and ell, and an
    --ell flag (ell) wins over them.  Without a pinned prime the smallest
    admissible one is taken.  p must be the characteristic of the given
    sheaf data, and the prime must not divide any of their unramified
    scalings: a pinned prime that does is refused, a chosen one is moved
    up."""
    _need(isinstance(cfg, dict), "coeff", "a JSON object")
    p = cfg.get("p", p)
    orders = cfg.get("orders", orders)
    if ell is None:
        ell = cfg.get("ell")
    _need(type(p) is int, "p", "an integer")
    _need(all(p == spec.base.p for spec in specs), "p", "the characteristic of the sheaf data")
    _need(isinstance(orders, list) and all(type(o) is int for o in orders), "orders", "a list of integers")
    _need(ell is None or type(ell) is int, "ell", "an integer")
    coeff = coeff_setup(p, orders)
    unram = math.prod(spec.unram for spec in specs)
    if ell is None:
        return _prime_to(coeff, unram)
    try:
        coeff = pinned_ell(coeff, ell)
    except CapExceeded:
        raise
    except ValueError as err:
        raise Unsupported(str(err), field="ell")
    _need(unram % ell, "ell", "prime to the unramified scaling")
    return coeff


def _prime_to(coeff, unram):
    """coeff, or the next admissible field whose prime does not divide unram."""
    while unram % coeff.ell == 0:
        coeff = second_ell(coeff)
    return coeff


def _spec_orders(spec, extra_functions):
    """Character orders forced by the residue fields in play: one q**d - 1
    per puncture degree and per divisor point of each listed function."""
    q = spec.base.q
    degrees = {1}
    for pt in spec.punctures:
        degrees.add(pt.degree())
    for r in extra_functions:
        if r is not None:
            for pt, _m in divisor_points(r):
                degrees.add(pt.degree())
    return sorted(q ** d - 1 for d in degrees if q ** d > 2) or [1]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gauss(args):
    p, q = args.p, args.q
    _need(p >= 2, "p", "a prime")
    if p == 2:
        raise Unsupported("the quadratic constant needs odd characteristic", field="p")
    n = 1
    while p ** n < q:
        n += 1
    if p ** n != q:
        raise Unsupported("q=%d is not a power of p=%d" % (q, p), field="q")
    field = fq_build(p, n)
    try:
        coeffs = [int(v) for v in args.c.split(",")]
    except ValueError:
        raise Unsupported("c must be a comma list of integers", field="c")
    _need(len(coeffs) <= n, "c", "a list of at most %d integers" % n)
    c = field.elem(coeffs)
    if c.is_zero():
        raise Unsupported("the quadratic coefficient must be a unit", field="c")
    orders = [max(1, q - 1)] if args.orders is None else _parse_orders(args.orders)
    coeff = _coeff_for({}, p, orders, args.ell)
    counts = gamma_counts(field, c.index())
    z = root_sum([-k for k in counts], p)
    body = {
        "p": p,
        "q": q,
        "c": [int(v) for v in c.coeffs],
        "value": gamma_from_counts(coeff, counts),
        "complex": {"re": round(z.real, 10) + 0.0, "im": round(z.imag, 10) + 0.0, "abs": round(abs(z), 10)},
    }
    return body, coeff.ell, True


def cmd_eps_local(args):
    obj = _load(args.char if args.char is not None else _bundled("char_quadratic.json"), "char")
    kind = _KINDS.get(args.kind)
    if kind is None:
        raise Unsupported("kind must be one of %s" % sorted(_KINDS), field="kind")
    charobj = obj.get("char", {})
    _need(isinstance(charobj, dict), "char", "a JSON object")
    charfield = _field_record(charobj.get("field", {}), "field")
    fallback_p, fallback_n = charfield.get("p", 3), charfield.get("n", 1)
    # refused before the size p**n is formed
    _gf.check_cap(fallback_p, fallback_n)
    fallback_q = fallback_p ** fallback_n
    coeff = _coeff_for(obj.get("coeff", {}), fallback_p, [max(1, fallback_q - 1)], args.ell)
    if kind == "punctual":
        eigen = obj.get("eigenvalues")
        if not eigen:
            raise Unsupported("punctual kind needs eigenvalues", field="eigenvalues")
        _need(isinstance(eigen, list) and all(type(v) is int for v in eigen), "eigenvalues", "a list of integers")
        res = eps_punctual(coeff, eigen)
    else:
        chi = LocalCharacter.from_json(coeff, obj["char"])
        path = args.form if args.form is not None else _bundled("form_dlog.json")
        form = Form(LaurentSeries.from_json(_load(path, "form")))
        if form.w.field != chi.field:
            raise Unsupported("form and character live over different residue fields", field="form")
        res = eps_local(chi, form, kind, method=args.method)
    body = {
        "value": res.value.value,
        "a": res.conductor_a,
        "a_omega": res.conductor_a_omega,
        "method": res.method,
        "kind": kind,
    }
    return body, coeff.ell, True


def cmd_eps_global(args):
    spec, cfg = _load_spec(args.spec)
    coeff = _coeff_for(cfg, spec.base.p, _spec_orders(spec, [spec.wild]), args.ell, [spec])
    glob = spec.global_computation(coeff)
    audit = glob.audit()
    body = {
        "value": glob.cs[-1],
        "degree": glob.degree,
        "l_polynomial": glob.cs,
        "audit": audit,
    }
    return body, coeff.ell, audit["ok"]


def cmd_product_check(args):
    spec, cfg = _load_spec(args.spec if args.spec is not None else _bundled("product_spec.json"))
    omega_obj = _load(args.omega if args.omega is not None else _bundled("product_omega.json"), "omega")
    omega = RationalFunction.from_json(spec.base, omega_obj)
    if omega.num.degree() < 0:
        raise Unsupported("the global one-form must be nonzero", field="omega")
    coeff = _coeff_for(cfg, spec.base.p, _spec_orders(spec, [spec.wild, omega]), args.ell, [spec])
    report = product_formula_check(spec, coeff, omega, method=args.method)
    body = {"report": report}
    ok = report["ok"]
    if args.second_ell:
        twin = product_formula_check(spec, _prime_to(second_ell(coeff), spec.unram), omega, method=args.method)
        body["second"] = twin
        ok = ok and twin["ok"]
    return body, coeff.ell, ok


def cmd_induction_check(args):
    cover_obj = _load(args.cover if args.cover is not None else _bundled("induction_cover.json"), "cover")
    spec_obj = _load(args.spec if args.spec is not None else _bundled("induction_spec.json"), "spec")
    omega_obj = _load(args.omega if args.omega is not None else _bundled("induction_omega.json"), "omega")
    variants = spec_obj.get("variants")
    if not variants:
        raise Unsupported("cover audit needs a nonempty variants list", field="variants")
    _need(isinstance(variants, list) and all(isinstance(v, dict) for v in variants), "variants", "a list of objects")
    pairs = [(_sheaf(v["global"], "global"), _sheaf(v["local"], "local")) for v in variants]
    first_local = pairs[0][1]
    base = first_local.base
    if _field_record(cover_obj.get("field", {}), "field").get("p", base.p) != base.p:
        raise Unsupported("cover and sheaf data live over different fields", field="field")
    cover = RationalFunction.from_json(base, cover_obj)
    omega = RationalFunction.from_json(base, omega_obj)
    point = Point.from_json(base, spec_obj["point"])
    pulled = _pullback(omega, cover)
    specs = [spec for pair in pairs for spec in pair]
    coeff = _coeff_for(spec_obj.get("coeff", {}), base.p, _spec_orders(first_local, [pulled]), args.ell, specs)
    body = transfer_constants(coeff, pairs, point, pulled)
    body["point"] = point.to_json()
    ok = body["all_equal"] and body["conductor_ok"]
    return body, coeff.ell, ok


def _pullback(w, f):
    """The rational coefficient of dy in the pullback along t = f(y) of
    the form w(t) dt, namely w(f(y)) f'(y)."""

    def compose(poly, rf):
        acc = RationalFunction.from_poly(Poly.const(rf.field, 0))
        for c in reversed(poly.coeffs):
            acc = acc * rf + poly.field.from_index(c)
        return acc

    return compose(w.num, f) / compose(w.den, f) * f.derivative()


def cmd_twisted_check(args):
    from .twisted import run_twisted_suite  # the only subcommand that needs it

    _need(args.trials >= 0, "trials", "a non-negative integer")
    orders = [8] if args.orders is None else _parse_orders(args.orders)
    coeff = _coeff_for({}, args.p, orders, args.ell)
    report = run_twisted_suite(coeff, seed=args.seed, min_randomized=args.trials)
    return {"report": report, "seed": args.seed}, coeff.ell, report["ok"]


# ---------------------------------------------------------------------------
# plumbing


_COMMANDS = {
    "gauss": cmd_gauss,
    "eps-local": cmd_eps_local,
    "eps-global": cmd_eps_global,
    "product-check": cmd_product_check,
    "induction-check": cmd_induction_check,
    "twisted-check": cmd_twisted_check,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ell", type=int, default=None, help="pin the coefficient prime")
    common.add_argument("--json-out", default=None, help="also write the report to this path")
    # the engine of each local factor, in eps-local and product-check
    method_help = (
        "auto, tate, tate_slow, or closed (ignored if unramified); auto refuses what the walk (tate) "
        "refuses, then takes the closed form for a wild character and the walk for a tame one"
    )

    parser = argparse.ArgumentParser(
        prog="epsilon-lab",
        description="Exact local constants, conductors, global determinants, "
        "and transfer identities over function fields, with JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gauss", parents=[common], help="quadratic Gauss constant")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--c", required=True, help="quadratic coefficient (comma list of ints)")
    g.add_argument("--orders", default=None, help="character orders, comma list (default: q - 1)")

    el = sub.add_parser("eps-local", parents=[common], help="one local factor")
    el.add_argument("--char", default=None, help="character JSON (default: bundled quadratic)")
    el.add_argument("--form", default=None, help="local one-form JSON (default: bundled dpi/pi)")
    el.add_argument("--kind", default="j!", help="j!, j*, or punctual")
    el.add_argument("--method", default="auto", choices=_epsilon.METHODS, help=method_help)

    eg = sub.add_parser("eps-global", parents=[common], help="global determinant of the data")
    eg.add_argument("--spec", required=True, help="sheaf data JSON")

    pc = sub.add_parser("product-check", parents=[common], help="global vs product of local factors")
    pc.add_argument("--spec", default=None, help="sheaf data JSON (default: bundled Gauss data)")
    pc.add_argument("--omega", default=None, help="global one-form JSON (default: dt/t)")
    pc.add_argument("--second-ell", action="store_true", help="repeat at the next coefficient prime")
    pc.add_argument(
        "--method",
        default="auto",
        choices=_epsilon.METHODS,
        help=method_help + "; closed refuses any spec with a tame point",
    )

    ic = sub.add_parser("induction-check", parents=[common], help="cover transfer-factor audit")
    ic.add_argument("--cover", default=None, help="covering map JSON (default: bundled square map)")
    ic.add_argument("--spec", default=None, help="variant list JSON")
    ic.add_argument("--omega", default=None, help="downstairs one-form JSON")

    tc = sub.add_parser("twisted-check", parents=[common], help="projective representation suite")
    tc.add_argument("--p", type=int, default=3)
    tc.add_argument("--orders", default=None)
    tc.add_argument("--trials", type=int, default=100, help="randomized cases above order 12, at most 10^4")
    tc.add_argument("--seed", type=int, default=0, help="seed of the randomized cases")

    for each in (parser, *sub.choices.values()):
        each.error = _refuse
    return parser


def _refuse(message):
    """A bad command line is malformed input: exit 3 with a report, not
    argparse's usage line and exit 2, which means a failed identity.  The
    report's field is the option argparse names first, without dashes."""
    named = re.match(r"(?:argument|the following arguments are required:) -*([\w-]+)", message)
    raise Unsupported(message, field=named and named[1])


def _emit(report, json_out):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None):
    started = time.perf_counter()
    json_out = None
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads a subcommand only as the first word
    report = {"command": argv[0]} if argv and argv[0] in _COMMANDS else {}
    try:
        args = _build_parser().parse_args(argv)
        json_out = args.json_out
        # a bad path is refused before the command runs; appending keeps an
        # input given as the path intact until the report replaces it
        if json_out:
            try:
                open(json_out, "a", encoding="utf-8").close()
            except OSError as err:
                json_out = None
                raise Unsupported("cannot write %s: %s" % (args.json_out, err.strerror), field="json-out")
        body, ell, ok = _COMMANDS[args.command](args)
        report.update(body)
        report["ell"] = ell
        report["ok"] = ok
        code = 0 if ok else 2
    except CapExceeded as err:
        report.update({"ok": False, "error": str(err)})
        code = 4
    except Unsupported as err:
        report.update({"ok": False, "error": str(err)})
        if err.field:
            report["field"] = err.field
        code = 3
    except KeyError as err:
        report.update({"ok": False, "error": "missing field", "field": str(err.args[0])})
        code = 3
    except (ValueError, TypeError, ZeroDivisionError, OSError) as err:
        report.update({"ok": False, "error": str(err)})
        code = 3
    report["caps"] = {"field": _gf.FIELD_CAP, "unit_sum": _epsilon.TATE_CAP}
    _emit(report, json_out)
    sys.stderr.write("wall %.3fs\n" % (time.perf_counter() - started))
    return code


if __name__ == "__main__":
    sys.exit(main())
