"""Timing wrappers around the library's public functions, and the per-layer
metrics read off the spans they record.

The wrappers live in the benchmark, not in the library.  Each target is
found by object identity in every ``epsilon_lab`` module namespace that
binds it (``curve`` imports ``eps_local`` by name, ``cli`` imports
``product_formula_check``), and methods are replaced on their classes.  A
target missing at the current commit is reported as absent and its metrics
read as absent (zero); nothing crashes.

Spans stay in memory as (name, start, end, parent, op, extra) tuples and
are recorded only while an op is running, so set-up and output checks cost
nothing.  Hot methods get a call counter instead of a span, which keeps
their time inside the caller's self time.
"""

import importlib
import sys
import time

from stats import self_times

SPAN, COUNT = "span", "count"


def _table_q(args, _kwargs, _out):
    return args[1].q


def _method(_args, _kwargs, out):
    return out.method


def _unit_terms(args, _kwargs, _out):
    chi = args[0]
    return chi.field.q ** (chi.swan() + 1)


# (module, attribute path, kind, extra): extra maps (args, kwargs, result)
# to a number or label stored on the span.
TARGETS = (
    ("gf", "LogField.__init__", SPAN, _table_q),
    ("gf", "SmallFieldTables.__init__", SPAN, _table_q),
    ("gf", "residue_field", SPAN, None),
    ("gf", "dlog", SPAN, None),
    ("gf", "FqElem.__mul__", COUNT, None),
    ("coeff", "coeff_setup", SPAN, None),
    ("coeff", "second_ell", SPAN, None),
    ("coeff", "CoeffField.kummer_chi", SPAN, None),
    ("epsilon", "gamma_psi", SPAN, None),
    ("localfield", "expand_at", SPAN, None),
    ("localfield", "expand_form_at", SPAN, None),
    ("localfield", "factor_poly", SPAN, None),
    ("localfield", "LaurentSeries.__mul__", COUNT, None),
    ("chars", "LocalCharacter.__call__", SPAN, None),
    ("epsilon", "eps_local", SPAN, _method),
    ("epsilon", "eps_tate", SPAN, _unit_terms),
    ("epsilon", "eps_tate_slow", SPAN, _unit_terms),
    ("epsilon", "eps_closed_form", SPAN, None),
    ("curve", "SheafSpec.point_histogram", SPAN, None),
    ("curve", "conductor_profile", SPAN, None),
    ("curve", "local_character_at", SPAN, None),
    ("curve", "product_formula_check", SPAN, None),
    ("curve", "verify_gos", SPAN, None),
    ("curve", "l_polynomial", SPAN, None),
    ("curve", "global_epsilon", SPAN, None),
    ("twisted", "run_twisted_suite", SPAN, None),
    ("twisted", "check_ver_identities", SPAN, None),
    ("twisted", "verlagerung", SPAN, None),
    ("twisted", "induce", SPAN, None),
    ("twisted", "TwistedRep.is_valid", SPAN, None),
    ("twisted", "Matrix.__mul__", COUNT, None),
    ("cli", "main", SPAN, None),
)

TABLE_BUILDS = ("gf.LogField.__init__", "gf.SmallFieldTables.__init__")
HISTOGRAM = "curve.SheafSpec.point_histogram"

# metric -> span names whose self time it sums
SELF_TIME = {
    "gf.table_build_s": TABLE_BUILDS,
    "gf.residue_field_s": ("gf.residue_field",),
    "gf.dlog_s": ("gf.dlog",),
    "coeff.kummer_chi_s": ("coeff.CoeffField.kummer_chi",),
    "coeff.gamma_psi_s": ("epsilon.gamma_psi",),
    "coeff.setup_s": ("coeff.coeff_setup", "coeff.second_ell"),
    "localfield.expand_s": ("localfield.expand_at", "localfield.expand_form_at"),
    "localfield.factor_poly_s": ("localfield.factor_poly",),
    "chars.char_eval_s": ("chars.LocalCharacter.__call__",),
    "epsilon.eps_local_s": ("epsilon.eps_local",),
    "epsilon.tate_s": ("epsilon.eps_tate", "epsilon.eps_tate_slow"),
    "epsilon.closed_form_s": ("epsilon.eps_closed_form",),
    "curve.point_histogram_s": (HISTOGRAM,),
    "curve.local_character_at_s": ("curve.local_character_at",),
    "curve.global_self_s": (
        "curve.product_formula_check",
        "curve.verify_gos",
        "curve.l_polynomial",
        "curve.global_epsilon",
    ),
    "twisted.suite_self_s": ("twisted.run_twisted_suite",),
    "twisted.verlagerung_s": ("twisted.verlagerung",),
    "twisted.induce_s": ("twisted.induce",),
    "twisted.is_valid_s": ("twisted.TwistedRep.is_valid",),
    "cli.main_self_s": ("cli.main",),
}

# metric -> span names whose spans it counts
SPAN_CALLS = {
    "gf.dlog_calls": ("gf.dlog",),
    "coeff.kummer_chi_calls": ("coeff.CoeffField.kummer_chi",),
    "chars.char_eval_calls": ("chars.LocalCharacter.__call__",),
    "epsilon.eps_local_calls": ("epsilon.eps_local",),
    "curve.histogram_calls": (HISTOGRAM,),
    "curve.conductor_profile_calls": ("curve.conductor_profile",),
    "twisted.check_ver_identities_calls": ("twisted.check_ver_identities",),
    "twisted.verlagerung_calls": ("twisted.verlagerung",),
    "twisted.is_valid_calls": ("twisted.TwistedRep.is_valid",),
}

# metric -> counter-only target
COUNTERS = {
    "gf.fq_mul_calls": "gf.FqElem.__mul__",
    "localfield.series_mul_calls": "localfield.LaurentSeries.__mul__",
    "twisted.matrix_mul_calls": "twisted.Matrix.__mul__",
}

METHODS = ("tate", "closed_form", "unramified")

# metric -> (unit, target names it reads); derived metrics are listed here
# too so that absence can be reported for every one of them.
DERIVED = {
    "gf.table_builds": ("count", TABLE_BUILDS),
    "gf.table_elements": ("count", TABLE_BUILDS),
    "gf.table_build_s_per_elem": ("s/elem", TABLE_BUILDS),
    "gf.table_build_share": ("%", TABLE_BUILDS),
    "epsilon.method.tate": ("count", ("epsilon.eps_local",)),
    "epsilon.method.closed_form": ("count", ("epsilon.eps_local",)),
    "epsilon.method.unramified": ("count", ("epsilon.eps_local",)),
    "epsilon.unit_sum_terms": ("count", ("epsilon.eps_tate", "epsilon.eps_tate_slow")),
    "curve.points_enumerated": ("count", (HISTOGRAM,)),
    "curve.histogram_hit_ratio": ("ratio", (HISTOGRAM,)),
    "cli.startup_s": ("s", ("cli.main",)),
}


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SELF_TIME:
        units[name] = "s"
    for name in list(SPAN_CALLS) + list(COUNTERS):
        units[name] = "count"
    for name, (unit, _src) in DERIVED.items():
        units[name] = unit
    return dict(sorted(units.items()))


def metric_sources(metric):
    if metric in SELF_TIME:
        return SELF_TIME[metric]
    if metric in SPAN_CALLS:
        return SPAN_CALLS[metric]
    if metric in COUNTERS:
        return (COUNTERS[metric],)
    return DERIVED[metric][1]


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.op = None
        self.installed = []
        self.absent = []
        self.seen_results = {}

    # -- installation ---------------------------------------------------------

    def install(self, package="epsilon_lab", targets=TARGETS):
        for modname in sorted({t[0] for t in targets}):
            try:
                importlib.import_module("%s.%s" % (package, modname))
            except ImportError:
                pass  # its targets are reported absent below
        modules = {
            name[len(package) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(package + ".")
        }
        for modname, path, kind, extra in targets:
            name = "%s.%s" % (modname, path)
            owner, attr, original = _resolve(modules.get(modname), path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, kind, extra, original)
            if owner is not None:
                # a method: replace it once, on its class
                self._patch(owner, attr, original, wrapper)
            else:
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self.installed.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self.installed):
            setattr(holder, attr, original)
        self.installed = []

    def _wrap(self, name, kind, extra, fn):
        tracer = self
        if kind == COUNT:
            counts = self.counts

            def counted(*args, **kwargs):
                if tracer.op is not None:
                    counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return counted
        clock = time.perf_counter
        hist = name == HISTOGRAM

        def spanned(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, op, None)
            note = None
            if hist:
                note = tracer._histogram_note(op, args, out)
            elif extra is not None:
                try:
                    note = extra(args, kwargs, out)
                except Exception:  # an annotation must never break the op
                    note = None
            if note is not None:
                spans[idx] = (name, start, end, parent, op, note)
            return out

        return spanned

    def _histogram_note(self, op, args, out):
        """A histogram call is a hit when it hands back the very dict an
        earlier call on the same spec and degree returned; otherwise its
        points were enumerated."""
        key = (op, id(args[0]), args[1] if len(args) > 1 else None)
        if self.seen_results.get(key) is out:
            return "hit"
        self.seen_results[key] = out
        return sum(out.values()) if isinstance(out, dict) else 0

    # -- ops ------------------------------------------------------------------

    def begin(self, op):
        self.op = op

    def end(self):
        self.op = None
        self.seen_results = {}

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def _resolve(module, path):
    """(class or None, attribute, original object) for a dotted path."""
    if module is None:
        return None, None, None
    parts = path.split(".")
    if len(parts) == 1:
        return None, parts[0], getattr(module, parts[0], None)
    cls = getattr(module, parts[0], None)
    if cls is None or parts[1] not in vars(cls):
        return None, None, None
    return cls, parts[1], vars(cls)[parts[1]]


def layer_metrics(spans, counts, op_wall_s, main_wall_s=None):
    """Per-layer metrics over the spans recorded inside ops.

    op_wall_s is the summed wall time of the traced ops; main_wall_s, for
    ops that are CLI processes, the summed wall time of those processes,
    so that start-up shows as the part outside ``cli.main``."""
    spans = [tuple(s) for s in spans]
    selfs = self_times(spans)
    by_name = {}
    for s, st in zip(spans, selfs):
        by_name.setdefault(s[0], []).append((s, st))
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(st for n in names for _s, st in by_name.get(n, ()))
    for metric, names in SPAN_CALLS.items():
        out[metric] = sum(len(by_name.get(n, ())) for n in names)
    # a constructor that refused (over a cap) built no table
    tables = [s for n in TABLE_BUILDS for s, _st in by_name.get(n, ()) if s[5] is not None]
    out["gf.table_builds"] = len(tables)
    for metric, name in COUNTERS.items():
        out[metric] = counts.get(name, 0)
    elements = sum(s[5] for s in tables)
    out["gf.table_elements"] = elements
    out["gf.table_build_s_per_elem"] = out["gf.table_build_s"] / elements if elements else 0.0
    out["gf.table_build_share"] = 100.0 * out["gf.table_build_s"] / op_wall_s if op_wall_s else 0.0
    methods = [s[5] for s, _st in by_name.get("epsilon.eps_local", ())]
    for m in METHODS:
        out["epsilon.method." + m] = sum(1 for v in methods if v == m)
    out["epsilon.unit_sum_terms"] = sum(
        s[5] or 0 for n in ("epsilon.eps_tate", "epsilon.eps_tate_slow") for s, _st in by_name.get(n, ())
    )
    notes = [s[5] for s, _st in by_name.get(HISTOGRAM, ())]
    hits = sum(1 for v in notes if v == "hit")
    out["curve.points_enumerated"] = sum(v for v in notes if isinstance(v, int))
    out["curve.histogram_hit_ratio"] = hits / len(notes) if notes else 0.0
    main_s = sum(s[2] - s[1] for s, _st in by_name.get("cli.main", ()))
    out["cli.startup_s"] = max(0.0, main_wall_s - main_s) if main_wall_s and main_s else 0.0
    return dict(sorted(out.items()))


def absent_metrics(absent):
    """Metrics every one of whose sources is absent."""
    gone = set(absent)
    return sorted(m for m in layer_units() if all(n in gone for n in metric_sources(m)))
