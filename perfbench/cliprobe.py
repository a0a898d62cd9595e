"""One global-cold op: the epsilon-lab CLI in a fresh interpreter, probed
for host speed from inside (see hostspeed.py).

    python3 perfbench/cliprobe.py PROBES.json -- <epsilon-lab arguments>

Runs ``epsilon_lab.cli`` as ``python -m epsilon_lab.cli`` would, and
writes to PROBES.json ``cal``, the mean probe time, and ``overhead_s``, the
time this process spent on anything but the CLI: its own imports, the
probes and the file.  The parent takes that off the process's wall time.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.stderr.write("usage: cliprobe.py PROBES.json -- ARGS...\n")
        return 2
    out_path = sys.argv[1]
    sys.argv = [sys.argv[0]] + sys.argv[3:]
    clock = hostspeed.Probed()
    code = 0
    try:
        with clock:
            runpy.run_module("epsilon_lab.cli", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
    finally:
        overhead = time.perf_counter() - _START - clock.seconds
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"cal": clock.cal, "overhead_s": overhead}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
