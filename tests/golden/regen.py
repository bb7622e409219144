"""Rewrite the golden traces in this directory.

    python tests/golden/regen.py

Solves every shipped instance at the `vortexpair solve --quick`
settings, prints each instance's verdict and every row whose text
changed (old and new), and writes tests/golden/<instance>.csv. Run it
only for a change that is meant to move a trace, and list its output
with the change.
"""

import difflib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

from vortexpair import instances  # noqa: E402
from test_golden import golden_text, solve_quick  # noqa: E402


def main():
    for name in instances.names():
        path = os.path.join(HERE, name + ".csv")
        new = golden_text(solve_quick(name))
        old = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                old = fh.read()
        print("%s: %s" % (name, new.split("\n", 1)[0].lstrip("# ")))
        for line in difflib.unified_diff(old.splitlines(), new.splitlines(),
                                         "old", "new", lineterm="", n=0):
            print("  " + line)
        with open(path, "wb") as fh:
            fh.write(new.encode("utf-8"))


if __name__ == "__main__":
    main()
