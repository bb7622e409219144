"""Rewrite the golden traces in this directory, or report their drift.

    python tests/golden/regen.py
    python tests/golden/regen.py --check

Both solve every shipped instance at the `vortexpair solve --quick`
settings.

Without flags, the script prints each instance's verdict and every row
whose text changed (old and new), and writes
tests/golden/<instance>.csv. Run it only for a change that is meant to
move a trace, and list its output with the change.

With --check it writes nothing. For each trace column it prints the
largest difference from the committed goldens (relative for the columns
the gate compares relatively, absolute for the others), the gate's
tolerance and the instance and row where it occurs, then every mismatch
the gate would report. It exits 1 when the gate fails on any instance.
"""

import argparse
import difflib
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

from vortexpair import instances, reporting  # noqa: E402
from test_golden import (ATOL, RTOL, golden_text, mismatches,  # noqa: E402
                         parse_golden, solve_quick)


def read_golden(name):
    path = os.path.join(HERE, name + ".csv")
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def drift(col, a, b):
    """Difference of one entry as the gate measures it."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else math.inf
    if col in RTOL:
        return abs(a - b) / abs(b) if b != 0.0 else (0.0 if a == 0.0
                                                     else math.inf)
    return abs(a - b)


def check():
    worst = {col: (0.0, "-") for col in reporting.CSV_COLUMNS}
    failures = []
    for name in instances.names():
        want, got = read_golden(name), golden_text(solve_quick(name))
        if not want:
            failures.append("%s: no golden file" % name)
            continue
        failures += ["%s: %s" % (name, m) for m in mismatches(want, got)]
        for i, (w, g) in enumerate(zip(parse_golden(want)[1],
                                       parse_golden(got)[1])):
            for col in reporting.CSV_COLUMNS:
                d = drift(col, g[col], w[col])
                if d > worst[col][0]:
                    worst[col] = (d, "%s row %d" % (name, i))
    print("%-17s %-9s %-11s %s" % ("column", "drift", "tolerance", "where"))
    for col in reporting.CSV_COLUMNS:
        tol = ("%.0e rel" % RTOL[col] if col in RTOL else
               "%.0e abs" % ATOL[col] if col in ATOL else "exact")
        d, where = worst[col]
        print("%-17s %-9.2g %-11s %s" % (col, d, tol, where))
    for line in failures:
        print(line)
    print("%d mismatch(es)" % len(failures))
    return 1 if failures else 0


def regen():
    for name in instances.names():
        old, new = read_golden(name), golden_text(solve_quick(name))
        print("%s: %s" % (name, new.split("\n", 1)[0].lstrip("# ")))
        for line in difflib.unified_diff(old.splitlines(), new.splitlines(),
                                         "old", "new", lineterm="", n=0):
            print("  " + line)
        with open(os.path.join(HERE, name + ".csv"), "wb") as fh:
            fh.write(new.encode("utf-8"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", action="store_true",
                    help="report drift from the goldens; write nothing")
    return check() if ap.parse_args(argv).check else regen()


if __name__ == "__main__":
    sys.exit(main())
