"""A standing fuzz of the command-line contract, run through cli.main in
process: the bundled inputs and the golden specs with one or two JSON nodes
replaced or deleted, pinned coefficient primes, among them primes
6 P Q + 1 with P and Q near 2^28, and one or two of the options of gauss
(--p, --q, --c, --orders) and twisted-check (--p, --orders, --trials,
--seed) set to drawn values.  Whatever the input, the exit code is 0, 2, 3
or 4, stdout is one JSON object with ok and caps, and no run outlasts an
alarm: no traceback and no hang.  A --trials past twisted.TRIALS_CAP exits
4 before any group is built."""

import contextlib
import io
import json
import signal
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from epsilon_lab.cli import main
from epsilon_lab.twisted import TRIALS_CAP

DATA = resources.files("epsilon_lab").joinpath("data")
GOLDEN = Path(__file__).parent / "data"
SECONDS = 10

# each input with the command line that reads it, the path appended
INPUTS = [
    (DATA / "char_quadratic.json", ["eps-local", "--char"]),
    (DATA / "form_dlog.json", ["eps-local", "--form"]),
    (GOLDEN / "punctual_char.json", ["eps-local", "--kind", "punctual", "--char"]),
    (DATA / "product_spec.json", ["product-check", "--second-ell", "--spec"]),
    (DATA / "product_omega.json", ["product-check", "--omega"]),
    (GOLDEN / "form_omega.json", ["product-check", "--omega"]),
    (GOLDEN / "infinity_spec.json", ["eps-global", "--spec"]),
    (GOLDEN / "f9_spec.json", ["product-check", "--spec"]),
    (DATA / "induction_cover.json", ["induction-check", "--cover"]),
    (DATA / "induction_spec.json", ["induction-check", "--spec"]),
    (DATA / "induction_omega.json", ["induction-check", "--omega"]),
]

# small integers keep a mutated field or degree small enough to answer at
# once; the rest are wrong types, empty containers and values past every cap
VALUES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([None, True, 1.5, "", "x", [], {}, [[]], [0], 10 ** 30, -(10 ** 30)]),
)

# ell - 1 = 6 P Q with P < Q primes near 2^28, admissible under gauss's
# step 6: a slow case for the factoring of ell - 1
PINNED_6PQ = [432346714205073919, 432835068056343727, 432598950725875267, 435280070328892963]

ELL_COMMANDS = [
    ["gauss", "--p", "3", "--q", "3", "--c", "1"],
    ["eps-local"],
    ["eps-local", "--kind", "punctual", "--char", str(GOLDEN / "punctual_char.json")],
]


# a cheap command line per command, and the options fuzzed on it
GAUSS_OPTIONS = (["gauss", "--p", "3", "--q", "9", "--c", "1,1"], ["--p", "--q", "--c", "--orders"])
TWISTED_OPTIONS = (["twisted-check", "--trials", "0"], ["--p", "--orders", "--trials", "--seed"])

# small, negative and huge integers, lists, and strings no option parses
MALFORMED = ["", "x", "1.5", "1,", ",", "1,,1", " "]
OPTION_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(MALFORMED + ["1,1", "2,0,1", "3,9", "65521,65519", str(10 ** 30), str(2 ** 61 - 1)]),
)
# a --trials within TRIALS_CAP runs that many randomized cases, about 1.2 ms
# each, so no count from 13 to the cap is drawn; past it, one is refused
TRIALS = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(TRIALS_CAP + 1, 10 ** 30).map(str),
    st.sampled_from(MALFORMED),
)


class Hang(BaseException):
    """A run outlasted the alarm; not an Exception, so main cannot catch it."""


def _hang(signum, frame):
    raise Hang()


def _paths(node, path=()):
    """The path to every node under node, node itself first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_inputs(draw):
    """(command line, document): an input with one or two nodes below its
    root replaced or deleted."""
    path, argv = draw(st.sampled_from(INPUTS))
    doc = json.loads(path.read_text())
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(list(_paths(doc))[1:] or [None]))
        if where is None:
            break
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = draw(VALUES)
    return argv, doc


def _check_contract(argv):
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except Hang:
        raise AssertionError("no answer within %d s: %s" % (SECONDS, argv)) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    report = json.loads(out.getvalue())
    assert code in (0, 2, 3, 4), (code, argv)
    assert isinstance(report, dict) and "caps" in report, argv
    assert report["ok"] is (code == 0), (code, argv)
    return code, report


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(mutated_inputs())
def test_mutated_inputs_keep_the_contract(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        _check_contract(argv + [str(path)])


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.sampled_from(ELL_COMMANDS), st.one_of(st.sampled_from(PINNED_6PQ), st.integers(-5, 1 << 62)))
def test_pinned_primes_keep_the_contract(argv, ell):
    _check_contract(argv + ["--ell", str(ell)])


@st.composite
def option_lines(draw, command):
    """The command line with one or two of its options set to a drawn value."""
    argv, options = command
    argv = list(argv)
    for option in draw(st.lists(st.sampled_from(options), min_size=1, max_size=2, unique=True)):
        value = draw(TRIALS if option == "--trials" else OPTION_VALUES)
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(option_lines(GAUSS_OPTIONS))
def test_gauss_options_keep_the_contract(argv):
    _check_contract(argv)


# fewer: every twisted-check that passes its checks runs the suite's
# exhaustive part, about 0.2 s; a count past the cap is always tried
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(option_lines(TWISTED_OPTIONS))
@example(["twisted-check", "--trials", str(TRIALS_CAP + 1)])
def test_twisted_check_options_keep_the_contract(argv):
    _check_contract(argv)


@pytest.mark.parametrize("trials", [TRIALS_CAP + 1, 10 ** 30])
def test_trials_past_their_cap_are_refused_before_any_group_is_built(monkeypatch, trials):
    # a trial costs about 1.2 ms, and a count past the cap once ran them all
    from epsilon_lab import twisted

    monkeypatch.setattr(twisted, "_zoo", lambda: pytest.fail("a group was built"))
    code, report = _check_contract(["twisted-check", "--trials", str(trials)])
    assert code == 4 and str(TRIALS_CAP) in report["error"]
