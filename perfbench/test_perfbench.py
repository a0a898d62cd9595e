"""Tests of the benchmark itself: input determinism, the tail and failure
arithmetic, span self time, and the tracer's wrappers.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)

INF = math.inf


# ---------------------------------------------------------------------------
# generators


def test_cold_files_are_byte_identical_per_seed():
    for i in range(len(gen.cold_schedule())):
        a, b = gen.cold_case(7, i), gen.cold_case(7, i)
        assert gen.canonical_bytes(a["spec"]) == gen.canonical_bytes(b["spec"])
        assert gen.canonical_bytes(a["omega"]) == gen.canonical_bytes(b["omega"])
    specs = {gen.canonical_bytes(gen.cold_case(s, 0)["spec"]) for s in range(8)}
    assert len(specs) > 1


def test_cold_sizes_stay_in_the_stated_range():
    for i in range(len(gen.cold_schedule())):
        case = gen.cold_case(3, i)
        assert 2 ** 15 <= case["largest_field"] <= 3 ** 11
        wild = case["spec"]["wild"]["num"]
        assert (len(wild) - 1) % case["p"] != 0


def test_warm_corpus_and_local_cycles_repeat_per_seed():
    assert gen.warm_corpus(5) == gen.warm_corpus(5)
    assert gen.warm_corpus(5) != gen.warm_corpus(6)
    assert gen.local_cycle(5, 2) == gen.local_cycle(5, 2)
    assert gen.local_cycle(5, 2) != gen.local_cycle(5, 3)


def test_local_cycles_cover_every_pair_once_plus_one_large_field():
    cycle = gen.local_cycle(1, 0)
    small = sorted((c["p"], c["n"], c["swan"]) for c in cycle if c["q"] <= 1 << 10)
    assert small == sorted(gen.local_pairs())
    large = [(c["p"], c["n"]) for c in cycle + gen.local_cycle(1, 1) if c["q"] > 1 << 10]
    assert sorted(large) == sorted(gen.LOCAL_LARGE)
    for p, n, s in gen.local_pairs():
        assert s == 0 or s % p
        assert (p ** n) ** (s + 1) <= gen.LOCAL_TERMS


def test_generator_moduli_match_the_library():
    from epsilon_lab.gf import fq_build

    for p, n in sorted({(c["p"], c["n"]) for c in gen.warm_corpus(0)}):
        assert fq_build(p, n).modulus == gen.first_modulus(p, n)


def test_op_counts_are_whole_cycles():
    assert [gen.op_count(w, 15) for w in run.WORKLOADS] == [6, 132, 390, 8]
    assert gen.op_count("global-cold", 1) == 6
    assert len(gen.local_cycle(0, 0)) == gen.cycle_ops("local-factors")


def test_warm_degrees_are_reachable():
    for p, n, d in gen.WARM_STRATA:
        assert gen.warm_options(p, p ** n, d), (p, n, d)
        assert 2 <= d <= 8


# ---------------------------------------------------------------------------
# tail percentile and failures


def test_tail_leaves_ten_ops_beyond():
    value, pct, beyond = stats.tail([float(t) for t in range(1, 31)])
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)


def test_tail_counts_failed_ops_as_infinitely_slow():
    times = [1.0] * 20 + [INF] * 10
    assert stats.tail(times)[0] == 1.0
    assert stats.tail(times + [INF])[0] == INF


def test_tail_with_too_few_ops_falls_back_to_the_fastest():
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)


def test_beta_cdf_known_values():
    for x in (0.1, 0.37, 0.9):
        assert stats.beta_cdf(x, 1.0, 1.0) == pytest.approx(x)
        assert stats.beta_cdf(x, 2.0, 1.0) == pytest.approx(x * x)
    for a in (1.5, 3.5, 195.5):
        assert stats.beta_cdf(0.5, a, a) == pytest.approx(0.5)


def test_hd_median_is_a_smoothed_median():
    assert stats.hd_median([4.0]) == 4.0
    assert stats.hd_median([3.0, 1.0, 2.0]) == pytest.approx(2.0)  # symmetric weights
    assert stats.hd_median([1.0, 2.0]) == pytest.approx(1.5)
    # a gap at the middle: the plain median jumps across it with one op,
    # the estimate moves by a fraction of the gap
    low = [1.0] * 50 + [2.0] * 51
    high = [1.0] * 51 + [2.0] * 50
    assert stats.median(low) - stats.median(high) == 1.0
    assert 0 < stats.hd_median(low) - stats.hd_median(high) < 0.2


def test_hd_median_counts_failed_ops_only_near_the_middle():
    ok = [0.01 * (i + 1) for i in range(384)]
    times = ok + [INF] * 6  # failures at the far tail, as in local-factors
    assert stats.hd_median(times) == pytest.approx(stats.median(times), rel=0.01)
    assert stats.hd_median([1.0, 2.0, INF, INF]) == INF
    assert stats.hd_median([1.0, 2.0, 3.0, 4.0, 5.0, INF]) == INF  # every op weighs


REF = hostspeed.REF_S


def _rec(ident, t, ok=True, wrong=False, cal=REF):
    return {"id": ident, "t": t, "cal": cal, "ok": ok, "wrong": wrong, "error": None if ok else "x"}


def test_failure_counting_and_ratios():
    recs = [_rec("a", 1.0), _rec("b", 2.0, ok=False), _rec("c", 1.0, ok=False, wrong=True), _rec("d", 4.0)]
    assert stats.count_failures(recs) == (4, 2, 1, ["b", "c"])
    e2e = stats.end_to_end(recs, [(0.5, REF), (0.7, REF), (0.6, REF)], 2048)
    assert e2e["fail_ratio"] == 0.5 and e2e["ok_ratio"] == 0.5
    assert e2e["ops_per_s"] == pytest.approx(2 / 8.0)
    assert e2e["op_p50_s"] is None  # half the ops failed: the median is unbounded
    assert e2e["setup_s"] == 0.6 and e2e["peak_rss_mb"] == 2.0


def test_times_are_normalised_by_the_calibration_around_them():
    # the same work on a host half as fast: raw times double, normalised
    # times stay
    fast = [_rec("a", 1.0), _rec("b", 3.0), _rec("c", 2.0)]
    slow = [_rec(r["id"], 2 * r["t"], cal=2 * REF) for r in fast]
    a = stats.end_to_end(fast, [(0.5, REF)], 1024)
    b = stats.end_to_end(slow, [(1.0, 2 * REF)], 1024)
    for key in ("op_p50_s", "ops_per_s", "setup_s"):
        assert a[key] == pytest.approx(b[key])
    assert b["op_p50_raw_s"] == 2 * a["op_p50_raw_s"] == 4.0


class _Toy:
    """A workload whose op sleeps for the given seconds."""

    def prepare(self, inp):
        return inp["sleep"]

    def op(self, seconds):
        time.sleep(seconds)

    def check(self, _inp, _prepared, _out):
        return None


def test_a_probed_op_is_probed_around_and_inside_and_pays_no_probe_time(monkeypatch):
    def slow_probe():
        time.sleep(0.01)
        return 0.002

    monkeypatch.setattr(hostspeed, "probe", slow_probe)
    monkeypatch.setattr(hostspeed, "PERIOD_S", 0.05)
    with hostspeed.Probed() as clock:
        start = time.thread_time()  # 0.3 s of work; the probes only sleep
        while time.thread_time() - start < 0.3:
            pass
    assert len(clock.probes) >= 2 + 4
    assert clock.cal == pytest.approx(0.002)
    assert clock.seconds == pytest.approx(0.3, abs=0.05)
    rec = worker.run_one(_Toy(), {"id": "a", "sleep": 0.12}, probed=True)
    assert rec["ok"] and rec["cal"] == pytest.approx(0.002)
    assert "cal" not in worker.run_one(_Toy(), {"id": "b", "sleep": 0.0})


def test_cold_check_separates_refusals_from_wrong_answers():
    case = {"command": "eps-global", "degree": 5}
    good = {"ok": True, "degree": 5, "audit": {"ok": True}}
    assert run.cold_check(case, 0, good) == (True, False, None)
    assert run.cold_check(case, 4, {"ok": False, "error": "cap"})[:2] == (False, False)
    assert run.cold_check(case, 2, {"ok": False})[:2] == (False, True)
    assert run.cold_check(case, 3, {"ok": False, "error": "bad input"})[:2] == (False, True)
    assert run.cold_check(case, 1, None)[:2] == (False, True)
    assert run.cold_check(case, 0, dict(good, degree=4))[:2] == (False, True)


def test_cheap_set_ups_get_more_samples():
    assert run.more_setups([(5.0, REF)], own=1)  # always at least SETUP_SAMPLES
    assert not run.more_setups([(5.0, REF)] * 2, own=1)
    assert run.more_setups([(0.1, REF)] * 3)
    assert not run.more_setups([(0.1, REF)] * run.SETUP_MAX_SAMPLES)


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_nested_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert stats.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 12.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakelab")
    mod = types.ModuleType("fakelab.mod")

    def inner(x):
        return x * 2

    class Thing:
        def __mul__(self, other):
            return 3

    mod.inner, mod.Thing = inner, Thing
    other = types.ModuleType("fakelab.other")
    other.inner = inner  # bound by name in a second namespace
    saved = dict(sys.modules)
    sys.modules.update({"fakelab": pkg, "fakelab.mod": mod, "fakelab.other": other})
    yield mod, other
    sys.modules.clear()
    sys.modules.update(saved)


def test_tracer_wraps_by_identity_and_reports_missing_targets(fake_package):
    mod, other = fake_package
    original = mod.inner
    targets = (
        ("mod", "inner", tracer.SPAN, None),
        ("mod", "Thing.__mul__", tracer.COUNT, None),
        ("mod", "gone", tracer.SPAN, None),
        ("missing", "f", tracer.SPAN, None),
    )
    tr = tracer.Tracer()
    tr.install(package="fakelab", targets=targets)
    try:
        assert mod.inner is not original and other.inner is mod.inner
        assert tr.absent == ["mod.gone", "missing.f"]
        other.inner(1)  # outside an op: nothing recorded
        assert tr.spans == []
        tr.begin(0)
        other.inner(2)
        mod.Thing() * mod.Thing()
        tr.end()
        assert [s[0] for s in tr.spans] == ["mod.inner"]
        assert tr.counts == {"mod.Thing.__mul__": 1}
    finally:
        tr.uninstall()
    assert mod.inner is original and other.inner is original


def test_absent_targets_read_as_absent_metrics():
    gone = [t[0] + "." + t[1] for t in tracer.TARGETS if t[0] == "twisted"]
    metrics = tracer.absent_metrics(gone)
    assert "twisted.is_valid_s" in metrics and "twisted.matrix_mul_calls" in metrics
    assert "gf.table_build_s" not in metrics
    out = tracer.layer_metrics([], {}, 1.0)
    assert set(out) == set(tracer.layer_units())
    assert out["twisted.is_valid_s"] == 0


def test_layer_metrics_from_toy_spans():
    spans = [
        ("curve.product_formula_check", 0.0, 4.0, -1, 0, None),
        ("curve.SheafSpec.point_histogram", 0.5, 1.5, 0, 0, 100),
        ("curve.SheafSpec.point_histogram", 1.5, 1.6, 0, 0, "hit"),
        ("gf.LogField.__init__", 2.0, 3.0, 0, 0, 50),
        ("gf.SmallFieldTables.__init__", 3.0, 3.5, 0, 0, None),  # refused
        ("epsilon.eps_local", 3.5, 3.9, 0, 0, "tate"),
    ]
    out = tracer.layer_metrics(spans, {"gf.FqElem.__mul__": 7}, 4.0)
    assert out["gf.table_builds"] == 1 and out["gf.table_elements"] == 50
    assert out["gf.table_build_s"] == pytest.approx(1.5)
    assert out["curve.global_self_s"] == pytest.approx(4.0 - 1.1 - 1.5 - 0.4)
    assert out["curve.points_enumerated"] == 100
    assert out["curve.histogram_hit_ratio"] == 0.5
    assert out["epsilon.method.tate"] == 1 and out["gf.fq_mul_calls"] == 7


class _Raises:
    warm = False

    def __init__(self, exc):
        self.exc = exc

    def prepare(self, inp):
        return inp

    def op(self, _prepared):
        raise self.exc

    def check(self, *_args):
        return None


def test_only_a_cap_refusal_is_not_a_wrong_answer():
    from epsilon_lab.gf import CapExceeded

    refused = worker.run_one(_Raises(CapExceeded("over the cap")), {"id": "a"})
    crashed = worker.run_one(_Raises(TypeError("bad operand")), {"id": "b"})
    assert (refused["ok"], refused["wrong"]) == (False, False)
    assert (crashed["ok"], crashed["wrong"]) == (False, True)
    assert stats.count_failures([refused, crashed]) == (2, 2, 1, ["a", "b"])


# ---------------------------------------------------------------------------
# warm-up self-check


class _BuildsInOp:
    """An op whose field table the set-up did not build: it goes through
    the library's own cache, so any earlier pass over the same input would
    hide the build."""

    warm = True
    trace_ops = 1
    KEY = (7, 3)

    def __init__(self):
        from epsilon_lab import curve
        from epsilon_lab.gf import fq_build

        self.curve = curve
        self.base = fq_build(self.KEY[0], 1)
        curve._EXT_CACHE.pop((self.base, self.KEY[1]), None)

    def inputs(self):
        return iter([{"id": "t-0"}])

    def prepare(self, inp):
        return inp

    def op(self, _prepared):
        return self.curve._extension_data(self.base, self.KEY[1])

    def check(self, *_args):
        return None


def test_table_build_inside_a_timed_op_fails_loudly():
    with pytest.raises(worker.BenchmarkInvalid):
        worker.traced_pass(_BuildsInOp())
