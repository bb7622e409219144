"""Rewrite the golden traces and certificates in this directory, or
report their drift.

    python tests/golden/regen.py
    python tests/golden/regen.py --check

Both solve every shipped instance at the `vortexpair solve --quick`
settings with full diagnostics.

Without flags, the script first solves every instance. When a verdict
differs from instances.EXPECTED_VERDICTS it prints each such instance
and exits 1 without writing anything: a change that moves a verdict is
a fault, not a new golden. Otherwise it prints each instance's verdict
and every row whose text changed (old and new), and writes
tests/golden/<instance>.csv and tests/golden/<instance>.cert.csv. Run
it only for a change that is meant to move a trace or a certificate,
and list its output with the change.

With --check it writes nothing. For each trace and certificate column
it prints the largest difference from the committed goldens (relative
for the columns the gate compares relatively, absolute for the others),
the gate's tolerance and the instance and row where it occurs, then
every mismatch the gate would report. An instance whose row count
differs from its golden's is named as such and left out of the drift
table, since its rows pair different eps stops. It exits 1 when the
gate fails on any instance.
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
from test_golden import (ATOL, CERT_COLUMNS, RTOL,  # noqa: E402
                         cert_mismatches, cert_text, golden_text,
                         mismatches, parse_cert, parse_golden, solve_quick)

# (file suffix, text of a report, rows of a text, mismatches, columns)
KINDS = [
    (".csv", golden_text, lambda text: parse_golden(text)[1], mismatches,
     reporting.CSV_COLUMNS),
    (".cert.csv", cert_text, parse_cert, cert_mismatches, CERT_COLUMNS[1:]),
]


def read_golden(name, suffix):
    path = os.path.join(HERE, name + suffix)
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
    columns = [col for kind in KINDS for col in kind[4]]
    worst = {col: (0.0, "-") for col in columns}
    failures, uncounted = [], []
    for name in instances.names():
        rep = solve_quick(name)
        pairs = []
        for suffix, text, rows, compare, cols in KINDS:
            want, got = read_golden(name, suffix), text(rep)
            if not want:
                failures.append("%s: no golden file %s" % (name, suffix))
                continue
            failures += ["%s%s: %s" % (name, suffix, m)
                         for m in compare(want, got)]
            pairs.append((rows(want), rows(got), cols))
        # rows of traces with different schedules do not correspond
        if any(len(w) != len(g) for w, g, _ in pairs):
            uncounted.append(name)
            continue
        for want_rows, got_rows, cols in pairs:
            for i, (w, g) in enumerate(zip(want_rows, got_rows)):
                for col in cols:
                    d = drift(col, g[col], w[col])
                    if d > worst[col][0]:
                        worst[col] = (d, "%s row %d" % (name, i))
    print("%-17s %-9s %-11s %s" % ("column", "drift", "tolerance", "where"))
    for col in columns:
        tol = ("%.0e rel" % RTOL[col] if col in RTOL else
               "%.0e abs" % ATOL[col] if col in ATOL else "exact")
        d, where = worst[col]
        print("%-17s %-9.2g %-11s %s" % (col, d, tol, where))
    if uncounted:
        print("row counts differ, not in the drift table: %s"
              % ", ".join(uncounted))
    for line in failures:
        print(line)
    print("%d mismatch(es)" % len(failures))
    return 1 if failures else 0


def regen():
    reps = {name: solve_quick(name) for name in instances.names()}
    moved = [(name, rep.verdict, instances.EXPECTED_VERDICTS[name])
             for name, rep in reps.items()
             if rep.verdict != instances.EXPECTED_VERDICTS[name]]
    for name, got, want in moved:
        print("%s: verdict %s, expected %s" % (name, got, want))
    if moved:
        print("a verdict changed; no golden file written")
        return 1
    for name, rep in reps.items():
        print("%s: %s" % (name, golden_text(rep).split("\n", 1)[0].lstrip("# ")))
        for suffix, text, _, _, _ in KINDS:
            old, new = read_golden(name, suffix), text(rep)
            for line in difflib.unified_diff(
                    old.splitlines(), new.splitlines(), "old" + suffix,
                    "new" + suffix, lineterm="", n=0):
                print("  " + line)
            with open(os.path.join(HERE, name + suffix), "wb") as fh:
                fh.write(new.encode("utf-8"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--check", action="store_true",
                    help="report drift from the goldens; write nothing")
    return check() if ap.parse_args(argv).check else regen()


if __name__ == "__main__":
    sys.exit(main())
