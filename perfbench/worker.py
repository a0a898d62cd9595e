"""One fresh interpreter per in-process workload run.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace
    python3 perfbench/worker.py --cli-host SPANS.json -- <epsilon-lab arguments>

The worker imports the library from the checkout's ``src``, builds its
inputs from the seed, warms up, and prints ``@ready``; that line ends the
set-up the parent times.  The set-up is probed for host speed (see
hostspeed.py), and ``@ready`` carries the calibration and the time the
probes took.  In ``run`` mode it then runs the closed loop for the given
seconds, each op probed, and prints ``@result`` with one record per op.  In
``trace`` mode it runs a fixed list of ops twice, traced and then untraced,
and reports the per-layer metrics and the tracing overhead.  ``--cli-host``
is one traced ``global-cold`` op: it installs the wrappers, runs
``cli.main`` in-process and writes its spans to a file.

Output checks run after each op's clock stops.  An op that refuses with
``CapExceeded`` counts as failed; an op that raises anything else, or whose
answer fails its check, also counts as wrong.
"""

import argparse
import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# The benchmark's own imports, which a traced CLI op takes off its start-up.
# The standard modules above are not counted: the CLI imports them too.
_BENCH_IMPORT_START = time.perf_counter()
import gen  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH_IMPORT_S = time.perf_counter() - _BENCH_IMPORT_START


class BenchmarkInvalid(RuntimeError):
    """The measurement itself is not what the workload claims to measure."""


def emit(tag, payload=None):
    line = "@" + tag
    if payload is not None:
        line += " " + json.dumps(payload)
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# workloads


class GlobalWarm:
    """Product-formula corpus in one warm process: two coefficient primes
    and the degree audit per spec, every field table built in set-up."""

    warm = True
    trace_ops = len(gen.warm_variants())

    def __init__(self, seed):
        from epsilon_lab import coeff, curve, gf, localfield

        self.lib = (coeff, curve, localfield)
        self.corpus = gen.warm_corpus(seed)
        for p, n in sorted({(c["p"], c["n"]) for c in self.corpus}):
            if gf.fq_build(p, n).modulus != gen.first_modulus(p, n):
                raise BenchmarkInvalid("F_%d^%d no longer uses the modulus the inputs assume" % (p, n))
        # the warm pass: the ops of the first corpus pass, untimed; its
        # specs stay alive so that a timed op reusing one of them would be
        # caught by identity
        first = self.corpus[: len(gen.warm_variants())]
        self.warm_specs = [self.op(entry)[0] for entry in first]
        self.warm_ids = {id(s) for s in self.warm_specs}

    def inputs(self):
        return itertools.cycle(self.corpus)

    def prepare(self, entry):
        return entry

    def op(self, entry):
        coeff, curve, localfield = self.lib
        spec = curve.SheafSpec.from_json(entry["spec"])
        omega = localfield.RationalFunction.from_json(spec.base, entry["omega"])
        d_max = entry["degree"] + 2
        first = coeff.coeff_setup(entry["p"], entry["orders"], d_max=d_max)
        main = curve.product_formula_check(spec, first, omega)
        twin_field = coeff.second_ell(first, d_max=d_max)
        twin = curve.product_formula_check(spec, twin_field, omega)
        audit = curve.verify_gos(spec, first)
        return spec, main, twin, audit

    def check(self, entry, _prepared, out):
        spec, main, twin, audit = out
        if id(spec) in self.warm_ids:
            raise BenchmarkInvalid("a timed op reused a spec object from the warm pass")
        d = entry["degree"]
        for label, rep in (("first prime", main), ("second prime", twin), ("verify_gos", audit)):
            if not rep.get("ok"):
                return "%s not ok" % label
            if rep.get("degree") != d:
                return "%s degree %r, expected %d" % (label, rep.get("degree"), d)
        return None


class LocalFactors:
    """eps_local with method auto over seeded characters and forms, checked
    against the route the result did not use."""

    warm = True
    trace_ops = 2 * (len(gen.local_pairs()) + 1)

    def __init__(self, seed):
        from epsilon_lab import chars, coeff, epsilon, gf, localfield

        self.seed = seed
        self.chars, self.epsilon, self.localfield = chars, epsilon, localfield
        self.fields = {}
        self.coeffs = {}
        for p, n in gen.local_fields():
            field = gf.fq_build(p, n)
            self.fields[(p, n)] = field
            self.coeffs[(p, n)] = coeff.coeff_setup(p, [field.q - 1])
        # warm-up: one ramified op per field within the table cap builds its
        # tables; past the cap the op refuses before building anything
        for p, n in gen.LOCAL_FIELDS:
            field = self.fields[(p, n)]
            chi = chars.LocalCharacter(field, self.coeffs[(p, n)], 1, 1)
            omega = localfield.Form(localfield.LaurentSeries.make(field, 0, [field.one()], 2))
            epsilon.eps_local(chi, omega, "shriek")

    def inputs(self):
        for cycle in itertools.count():
            yield from gen.local_cycle(self.seed, cycle)

    def prepare(self, inp):
        LaurentSeries = self.localfield.LaurentSeries
        field = self.fields[(inp["p"], inp["n"])]
        coeff = self.coeffs[(inp["p"], inp["n"])]
        c_pi = coeff.elem(inp["c_pi"])
        if c_pi.is_zero():
            c_pi = coeff.one()
        wild = None
        if inp["swan"]:
            wild = LaurentSeries.make(field, -inp["swan"], [field.from_index(c) for c in inp["wild"]], 1)
        chi = self.chars.LocalCharacter(field, coeff, c_pi, inp["tame_e"], wild)
        v = inp["form_v"]
        w = LaurentSeries.make(field, v, [field.from_index(c) for c in inp["form"]], v + len(inp["form"]))
        return chi, self.localfield.Form(w), inp["kind"]

    def op(self, prepared):
        chi, omega, kind = prepared
        return self.epsilon.eps_local(chi, omega, kind, method="auto")

    def check(self, inp, prepared, res):
        chi, omega, kind = prepared
        eps = self.epsilon
        q = inp["q"]
        ramified = inp["swan"] > 0 or inp["tame_e"] % (q - 1) != 0
        a = inp["swan"] + 1 if ramified else (1 if kind == "shriek" else 0)
        if (res.conductor_a, res.conductor_a_omega) != (a, a + inp["form_v"]):
            return "conductor (%d, %d), expected (%d, %d)" % (
                res.conductor_a, res.conductor_a_omega, a, a + inp["form_v"])
        if res.method == "unramified":
            if ramified:
                return "unramified route on a ramified character"
            coeff = chi.coeff
            qv = coeff.elem(q) ** inp["form_v"]
            if kind == "star":
                expected = (chi.c_pi * coeff.elem(q)) ** inp["form_v"]
            else:
                expected = chi.c_pi ** (1 + inp["form_v"]) * qv
        elif res.method == "tate":
            if inp["swan"]:
                expected = eps.eps_closed_form(chi, omega).value
            else:
                expected = eps.eps_tate_slow(chi, omega).value
        elif res.method == "closed_form":
            expected = eps.eps_tate(chi, omega).value
        else:
            return "unknown method %r" % (res.method,)
        if res.value != expected:
            return "value %d, other route %d" % (res.value.value, expected.value)
        return None


class TwistedSuite:
    """The twisted-check default: the identity suite at successive seeds."""

    warm = False
    trace_ops = 2

    def __init__(self, seed):
        from epsilon_lab import coeff, twisted

        self.seed = seed
        self.twisted = twisted
        self.coeff = coeff.coeff_setup(gen.TWISTED_P, list(gen.TWISTED_ORDERS))

    def inputs(self):
        for i in itertools.count():
            yield {"id": "twisted-%d-%d" % (self.seed, i), "seed": gen.twisted_seed(self.seed, i)}

    def prepare(self, inp):
        return inp["seed"]

    def op(self, suite_seed):
        return self.twisted.run_twisted_suite(
            self.coeff, seed=suite_seed, min_randomized=gen.TWISTED_TRIALS
        )

    def check(self, _inp, _prepared, report):
        if not report.get("ok"):
            return "suite not ok: %s" % (report.get("failures") or [])[:3]
        got = report.get("counts", {}).get("randomized", 0)
        if got < gen.TWISTED_TRIALS:
            return "only %d randomized cases, asked for %d" % (got, gen.TWISTED_TRIALS)
        return None


WORKLOADS = {
    "global-warm": GlobalWarm,
    "local-factors": LocalFactors,
    "twisted-suite": TwistedSuite,
}


# ---------------------------------------------------------------------------
# loops


def run_one(wl, inp, tracer=None, op_id=None, probed=False):
    """One op, timed.  A probed op carries the host calibration around it
    and within it as ``cal`` (see hostspeed.Probed)."""
    prepared = wl.prepare(inp)
    if tracer is not None:
        tracer.begin(op_id)
    with hostspeed.Probed() if probed else Plain() as clock:
        try:
            out = wl.op(prepared)
            error = None
        except Exception as exc:  # a failed op is a result, not a crash
            out, error = exc, "%s: %s" % (type(exc).__name__, exc)
    if tracer is not None:
        tracer.end()
    # only a cap refusal is a known limit; any other exception is a defect
    refused = error is not None and is_refusal(out)
    rec = {"id": inp["id"], "t": clock.seconds, "ok": error is None,
           "wrong": error is not None and not refused, "error": error}
    if probed:
        rec["cal"] = clock.cal
    if error is None:
        problem = wl.check(inp, prepared, out)
        if problem is not None:
            rec.update(ok=False, wrong=True, error=problem)
    return rec


class Plain:
    """Times a block by the wall clock alone."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.seconds = time.perf_counter() - self.start
        return False


def is_refusal(exc):
    from epsilon_lab.gf import CapExceeded

    return isinstance(exc, CapExceeded)


def closed_loop(wl, count):
    """`count` ops back to back, each record with its calibration."""
    inputs = wl.inputs()
    return [run_one(wl, next(inputs), probed=True) for _ in range(count)]


def traced_pass(wl):
    """The traced ops run straight after the set-up, as the timed loop
    does, so that a table the warm-up missed is built, and counted, inside
    a traced op.  The same ops then run untraced for the overhead."""
    inputs = list(itertools.islice(wl.inputs(), wl.trace_ops))
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_one(wl, inp, tracer, i) for i, inp in enumerate(inputs)]
    finally:
        tracer.uninstall()
    plain = [run_one(wl, inp) for inp in inputs]
    traced_s = sum(r["t"] for r in traced)
    layers = layer_metrics(tracer.spans, tracer.counts, traced_s)
    if wl.warm and layers["gf.table_builds"]:
        raise BenchmarkInvalid(
            "warm-up self-check: %d field tables were built inside timed ops"
            % layers["gf.table_builds"]
        )
    return {
        "records": traced,
        "plain_s": sum(r["t"] for r in plain),
        "traced_s": traced_s,
        "layers": layers,
        "absent": tracer.absent,
    }


def cli_host(span_file, argv):
    """One traced CLI op.  The span file also holds ``bench_s``, the time
    this process spent on the benchmark's own work (its imports, installing
    and removing the wrappers, writing the spans), which is not start-up."""
    from epsilon_lab import cli

    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    bench_s = BENCH_IMPORT_S + time.perf_counter() - t0
    tracer.begin(0)
    try:
        code = cli.main(argv)
    finally:
        tracer.end()
        t0 = time.perf_counter()
        tracer.uninstall()
        body = json.dumps(tracer.dump())
        bench_s += time.perf_counter() - t0
        with open(span_file, "w", encoding="utf-8") as fh:
            fh.write('{"bench_s": %r, "trace": %s}' % (bench_s, body))
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--cli-host"]:
        if len(argv) < 3 or argv[2] != "--":
            sys.stderr.write("usage: worker.py --cli-host SPANS.json -- ARGS...\n")
            return 2
        return cli_host(argv[1], argv[3:])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    try:
        with hostspeed.Probed() as clock:
            wl = WORKLOADS[args.workload](args.seed)
        emit("ready", {"cal": clock.cal, "overhead_s": clock.overhead})
        if args.mode == "trace":
            emit("result", traced_pass(wl))
        elif args.mode == "run":
            count = gen.op_count(args.workload, args.seconds)
            emit("result", {"records": closed_loop(wl, count)})
    except BenchmarkInvalid as err:
        sys.stderr.write("benchmark invalid: %s\n" % err)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
