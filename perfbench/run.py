"""epsilon-lab benchmark: four seeded workloads, six end-to-end metrics each,
and a separate traced run with per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is global-cold, global-warm, local-factors, twisted-suite, or all.
Run it from anywhere; it benchmarks the library under ``src`` next to this
directory.  Human-readable lines go first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import hostspeed  # noqa: E402
import stats  # noqa: E402
from tracer import absent_metrics, layer_metrics, layer_units  # noqa: E402

WORKLOADS = ("global-cold", "global-warm", "local-factors", "twisted-suite")
# Set-ups per run, each in a fresh interpreter; setup_s is their median.  A
# run takes at least SETUP_SAMPLES, and more, up to SETUP_MAX_SAMPLES, while
# the set-ups so far took under SETUP_BUDGET_S, so a set-up that is little
# more than interpreter start-up gets enough samples to be steady.
SETUP_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 3.0
# Every run, traced or not, ends well inside three minutes.
RUN_LIMIT_S = 170.0
COLD_CASES = 2 * len(gen.cold_schedule())

# op_tail_s and fail_ratio are printed beside these but not gated: see
# README.md.
END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_META = {"trace.ops": "count", "trace.overhead_pct": "%"}


def per_layer_units():
    units = layer_units()
    units.update(TRACE_META)
    return dict(sorted(units.items()))


class Failure(RuntimeError):
    """The run cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def more_setups(setups, own=0):
    """Whether to take another set-up sample, given the (seconds, cal)
    samples so far and the `own` set-ups that the run itself does after
    them."""
    n = len(setups) + own
    if n < SETUP_SAMPLES:
        return True
    return n < SETUP_MAX_SAMPLES and sum(t for t, _cal in setups) < SETUP_BUDGET_S


def reap(proc, timeout):
    """Wait for the child, killing it after timeout seconds; returns
    (exit code, peak RSS in KB) read with wait4."""
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, usage.ru_maxrss


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


# ---------------------------------------------------------------------------
# in-process workloads, one worker interpreter per run


def worker(name, seed, seconds, mode, deadline):
    """Start a worker, time it to @ready, collect @result.  Returns the
    set-up as a (seconds, cal) sample, the result and the peak RSS.  The
    set-up is the wall time to @ready less the worker's probing, and cal
    the worker's calibration of it."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
    timer.start()
    setup = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@ready "):
                wall = time.perf_counter() - start
                ready = json.loads(line[len("@ready "):])
                setup = (wall - ready["overhead_s"], ready["cal"])
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        code, rss = reap(proc, deadline.left())
    if code != 0 or setup is None or (mode != "setup" and result is None):
        raise Failure("%s worker (%s) exited with code %d" % (name, mode, code))
    return setup, result, rss


def inprocess(name, args, deadline):
    if args.trace:
        _setup, result, _rss = worker(name, args.seed, args.seconds, "trace", deadline)
        return trace_summary(result["records"], result["plain_s"], result["traced_s"],
                             result["layers"], result["absent"])
    setups = []
    while more_setups(setups, own=1):
        setup, _res, _rss = worker(name, args.seed, args.seconds, "setup", deadline)
        setups.append(setup)
    setup, result, rss = worker(name, args.seed, args.seconds, "run", deadline)
    setups.append(setup)
    return run_summary(result["records"], setups, rss)


# ---------------------------------------------------------------------------
# global-cold: one CLI process per op, driven from here


def cold_files(workdir, seed):
    """Write every spec/omega pair of the run; returns the op list."""
    ops = []
    for i in range(COLD_CASES):
        case = gen.cold_case(seed, i)
        spec_path = os.path.join(workdir, "spec-%02d.json" % i)
        omega_path = os.path.join(workdir, "omega-%02d.json" % i)
        with open(spec_path, "wb") as fh:
            fh.write(gen.canonical_bytes(case["spec"]))
        with open(omega_path, "wb") as fh:
            fh.write(gen.canonical_bytes(case["omega"]))
        if case["command"] == "product-check":
            argv = ["product-check", "--second-ell", "--spec", spec_path, "--omega", omega_path]
        else:
            argv = ["eps-global", "--spec", spec_path]
        ops.append((case, argv))
    return ops


def cli_op(argv, workdir, deadline, host=None):
    """Run one CLI process; returns (seconds, cal, exit code, peak RSS KB,
    report).  By default the process is probed (cliprobe.py): seconds is
    its wall time less the probing, cal its calibration.  With a `host`
    span file it is traced instead (worker.py --cli-host); seconds is then
    the wall time and cal None."""
    out_path = os.path.join(workdir, "stdout.json")
    probe_path = os.path.join(workdir, "probes.json")
    if host is None:
        if os.path.exists(probe_path):
            os.remove(probe_path)
        cmd = [sys.executable, os.path.join(HERE, "cliprobe.py"), probe_path, "--"] + argv
    else:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--cli-host", host, "--"] + argv
    with open(out_path, "w") as out, open(os.devnull, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        code, rss = reap(proc, deadline.left())
        wall = time.perf_counter() - start
    try:
        with open(out_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except ValueError:
        report = None
    if host is not None:
        return wall, None, code, rss, report
    try:
        with open(probe_path, encoding="utf-8") as fh:
            probed = json.load(fh)
    except (OSError, ValueError):
        raise Failure("CLI process %s (exit code %d) wrote no probes" % (argv[0], code))
    return wall - probed["overhead_s"], probed["cal"], code, rss, report


def cold_check(case, code, report):
    """(ok, wrong, reason) for one CLI op."""
    if code != 0 or report is None:
        reason = "exit code %d" % code
        if report and report.get("error"):
            reason += ": " + report["error"]
        # exit 4 is a cap refusal, a known limit; any other exit (2, a
        # checked identity failed; 3, bad input; 1, a crash) is a defect
        return False, code != 4, reason
    d = case["degree"]
    if case["command"] == "product-check":
        parts = (("first prime", report.get("report") or {}), ("second prime", report.get("second") or {}))
        for label, rep in parts:
            if not rep.get("ok") or rep.get("degree") != d:
                return False, True, "%s: ok %r degree %r, expected %d" % (
                    label, rep.get("ok"), rep.get("degree"), d)
    else:
        audit = report.get("audit") or {}
        if not audit.get("ok") or report.get("degree") != d:
            return False, True, "verify_gos ok %r degree %r, expected %d" % (
                audit.get("ok"), report.get("degree"), d)
    if not report.get("ok"):
        return False, True, "report not ok"
    return True, False, None


def cold_record(case, wall, code, report):
    ok, wrong, reason = cold_check(case, code, report)
    return {"id": case["id"], "t": wall, "ok": ok, "wrong": wrong, "error": reason}


def cold_setup(workdir, seed, deadline):
    """Write the inputs and start the CLI once (its --help imports every
    module), so that the first timed op finds them byte-compiled.  Returns
    a (seconds, cal) sample, with the calibration of the CLI process, and
    the ops."""
    start = time.perf_counter()
    ops = cold_files(workdir, seed)
    files_s = time.perf_counter() - start
    seconds, cal, code, _rss, _rep = cli_op(["--help"], workdir, deadline)
    if code != 0:
        raise Failure("global-cold warm-up exited with code %d" % code)
    return (files_s + seconds, cal), ops


def global_cold(args, workdir, deadline):
    if args.trace:
        return cold_trace(args, workdir, deadline)
    setups = []
    while more_setups(setups):
        took, ops = cold_setup(workdir, args.seed, deadline)
        setups.append(took)
    records = []
    peak = 0
    for i in range(gen.op_count("global-cold", args.seconds)):
        case, argv = ops[i % len(ops)]
        seconds, cal, code, rss, report = cli_op(argv, workdir, deadline)
        records.append(cold_record(case, seconds, code, report))
        records[-1]["cal"] = cal
        peak = max(peak, rss)
    return run_summary(records, setups, peak)


def cold_trace(args, workdir, deadline):
    _took, ops = cold_setup(workdir, args.seed, deadline)
    ops = ops[: len(gen.cold_schedule())]
    plain = [cli_op(argv, workdir, deadline)[0] for _case, argv in ops]
    spans, counts, absent = [], {}, []
    records = []
    bench_s = 0.0
    for k, (case, argv) in enumerate(ops):
        host = os.path.join(workdir, "spans-%02d.json" % k)
        wall, _cal, code, _rss, report = cli_op(argv, workdir, deadline, host=host)
        records.append(cold_record(case, wall, code, report))
        try:
            with open(host, encoding="utf-8") as fh:
                hosted = json.load(fh)
        except (OSError, ValueError):
            continue  # the op failed before writing spans; its record says so
        bench_s += hosted["bench_s"]
        dump = hosted["trace"]
        base = len(spans)
        for s in dump["spans"]:
            name, t0, t1, parent, _op, note = s
            spans.append((name, t0, t1, parent + base if parent >= 0 else -1, k, note))
        for key, n in dump["counts"].items():
            counts[key] = counts.get(key, 0) + n
        absent = dump["absent"]
    traced_s = sum(r["t"] for r in records)
    # the hosts' own work (imports, wrapping, writing spans) is neither
    # start-up nor op time
    net_s = traced_s - bench_s
    layers = layer_metrics(spans, counts, net_s, main_wall_s=net_s)
    return trace_summary(records, sum(plain), traced_s, layers, absent)


# ---------------------------------------------------------------------------
# summaries


def run_summary(records, setups, peak_rss_kb):
    e2e = stats.end_to_end(records, setups, peak_rss_kb)
    if e2e["op_p50_s"] is None:
        raise Failure("op_p50_s is unbounded: %d of %d ops failed" % (e2e["failed"], e2e["attempted"]))
    _att, _failed, wrong, ids = stats.count_failures(records)
    return {
        "records": records,
        "wrong": wrong,
        "failed_ids": ids,
        "metrics": {k: e2e[k] for k in END_TO_END},
        "extra": e2e,
    }


def trace_summary(records, plain_s, traced_s, layers, absent):
    _att, _failed, wrong, ids = stats.count_failures(records)
    metrics = dict(layers)
    metrics["trace.ops"] = len(records)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
    return {
        "records": records,
        "wrong": wrong,
        "failed_ids": ids,
        "metrics": {k: metrics[k] for k in per_layer_units()},
        "absent": absent,
        "absent_metrics": absent_metrics(absent),
        "plain_s": plain_s,
        "traced_s": traced_s,
    }


def print_human(name, args, res):
    out = sys.stdout
    out.write("== %s  seed %d  seconds %g  trace %d\n" % (name, args.seed, args.seconds, args.trace))
    recs = res["records"]
    errors = {}
    for r in recs:
        if not r["ok"]:
            errors[r["id"]] = r["error"]
    if args.trace:
        units = per_layer_units()
        for key, value in res["metrics"].items():
            mark = "  (absent)" if key in res["absent_metrics"] else ""
            out.write("  %-36s %14.6g %s%s\n" % (key, value, units[key], mark))
        out.write("  tracing overhead: %.1f %% (%.3f s traced, %.3f s untraced, %d ops)\n"
                  % (res["metrics"]["trace.overhead_pct"], res["traced_s"], res["plain_s"], len(recs)))
        if res["absent"]:
            out.write("  absent wrappers: %s\n" % ", ".join(res["absent"]))
    else:
        ex = res["extra"]
        m = res["metrics"]
        raw = ex["op_p50_raw_s"]
        out.write("  %-12s %12.6g s    (host-normalised; raw wall time %s)\n"
                  % ("op_p50_s", m["op_p50_s"], "%.6g s" % raw if raw is not None else "unbounded"))
        tail = "%12.6g s" % ex["op_tail_s"] if ex["op_tail_s"] is not None else "   unbounded  "
        out.write("  %-12s %s    (p%.1f, %d of %d ops beyond; not gated)\n"
                  % ("op_tail_s", tail, ex["tail_percentile"], ex["tail_beyond"], ex["attempted"]))
        out.write("  %-12s %12.6g 1/s\n" % ("ops_per_s", m["ops_per_s"]))
        out.write("  %-12s %12.6g      (%d of %d ops failed; not gated)\n"
                  % ("fail_ratio", ex["fail_ratio"], ex["failed"], ex["attempted"]))
        out.write("  %-12s %12.6g ratio\n" % ("ok_ratio", m["ok_ratio"]))
        out.write("  %-12s %12.6g MB\n" % ("peak_rss_mb", m["peak_rss_mb"]))
        out.write("  %-12s %12.6g s    (median of %d set-ups)\n"
                  % ("setup_s", m["setup_s"], ex["setup_samples"]))
        cals = [r["cal"] for r in recs]
        out.write("  host probe: %.5f s at the first op, %.5f s at the last, median %.5f s, "
                  "reference %.5f s (context, not gated)\n"
                  % (cals[0], cals[-1], stats.median(cals), hostspeed.REF_S))
    for ident, err in errors.items():
        out.write("  failed %s: %s\n" % (ident, err))


def json_result(res, units):
    return {
        "correct": res["wrong"] == 0,
        "attempted": len(res["records"]),
        "failed": len(res["failed_ids"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }


def run_workload(name, args, workdir):
    deadline = Deadline(RUN_LIMIT_S)
    if name == "global-cold":
        res = global_cold(args, workdir, deadline)
    else:
        res = inprocess(name, args, deadline)
    print_human(name, args, res)
    return json_result(res, per_layer_units() if args.trace else END_TO_END)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "epsilon_lab", "__init__.py")):
        sys.stderr.write("perfbench: no library at %s; run from a full checkout\n" % SRC)
        return 2
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(name, args, workdir)
    except Failure as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    final = results[args.workload] if args.workload != "all" else results
    sys.stdout.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
