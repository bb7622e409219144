"""Golden-trace gate.

Every shipped instance is solved in process at the `vortexpair solve
--quick` settings (quick grid, eps_min = 1e-2, diagnostics off) and
compared with its committed trace in tests/golden/<instance>.csv:

- exactly: verdict, row count, newton_total, newton_iters per row and
  every non-finite entry (the eps = 0 apriori_margin is -inf);
- to a relative tolerance: eps, sup_log_f and apriori_margin;
- to an absolute floor: the roundoff-level columns residual_sup,
  energy_gap and cauchy_increment.

The tolerances were set once. Two solver changes that move only the
last bits were measured against these goldens, largest drift per
column over the 11 instances:

- the initial gauge built through one path: residual_sup 2.4e-12,
  energy_gap 3.2e-14, cauchy_increment 2.0e-15, sup_log_f 8.0e-16 and
  apriori_margin 5.6e-16 relative, eps none;
- every field-valued product routed through fiber.mm (measured against
  the traces before it): residual_sup 2.0e-12, energy_gap 2.7e-14,
  cauchy_increment 1.7e-15, sup_log_f 9.1e-16 relative, eps none.

Each tolerance is at least 3x those drifts, and the residual_sup floor
sits 100x below the 1e-9 polish acceptance (10 * newton_tol). The gate
does not absorb every last-bit change: replacing every np.fft call of
the solver by scipy.fft moves apriori_margin on torus-wave by 2.6e-12
relative and fails it. `python tests/golden/regen.py --check` prints
the current drift per column. Do not loosen the tolerances; a change
that moves a trace on purpose regenerates the goldens with
`python tests/golden/regen.py` and lists what changed.
"""

import math
import os

import pytest

from vortexpair import cli, instances, reporting
from vortexpair.continuation import run_continuation

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

RTOL = {"eps": 1e-12, "sup_log_f": 1e-12, "apriori_margin": 1e-12}
ATOL = {"residual_sup": 1e-11, "energy_gap": 1e-12,
        "cauchy_increment": 1e-13}


def solve_quick(name):
    """The report of `vortexpair solve --instance <name> --quick`."""
    args = cli.build_parser().parse_args(
        ["solve", "--instance", name, "--quick"])
    _, prob = cli.load_instance(args, {})
    return run_continuation(prob, cli.build_config(args, {})).report


def golden_text(rep):
    return ("# verdict=%s steps=%d newton_total=%d\n"
            % (rep.verdict, len(rep.trace), rep.newton_total)
            + reporting.trace_csv(rep.trace))


def parse_golden(text):
    """(header dict, list of row dicts) of a golden file."""
    lines = text.strip("\n").split("\n")
    head = dict(kv.split("=") for kv in lines[0].lstrip("# ").split())
    if lines[1].split(",") != reporting.CSV_COLUMNS:
        raise ValueError("unexpected golden columns: %s" % lines[1])
    rows = [dict(zip(reporting.CSV_COLUMNS, map(float, ln.split(","))))
            for ln in lines[2:]]
    return head, rows


def mismatches(want_text, got_text):
    """Every difference between two golden texts beyond the tolerances."""
    (hw, rw), (hg, rg) = parse_golden(want_text), parse_golden(got_text)
    out = ["%s: %s != %s" % (k, hg.get(k), hw[k])
           for k in ("verdict", "steps", "newton_total") if hg.get(k) != hw[k]]
    if len(rg) != len(rw):
        out.append("rows: %d != %d" % (len(rg), len(rw)))
    for i, (w, g) in enumerate(zip(rw, rg)):
        for col in reporting.CSV_COLUMNS:
            a, b = g[col], w[col]
            if not (math.isfinite(a) and math.isfinite(b)):
                ok = a == b or (math.isnan(a) and math.isnan(b))
            elif col in RTOL:
                ok = abs(a - b) <= RTOL[col] * abs(b)
            elif col in ATOL:
                ok = abs(a - b) <= ATOL[col]
            else:
                ok = a == b
            if not ok:
                out.append("row %d %s: %r != %r" % (i, col, a, b))
    return out


@pytest.mark.parametrize("name", instances.names())
def test_quick_trace_matches_golden(name):
    with open(os.path.join(GOLDEN_DIR, name + ".csv"), encoding="utf-8") as fh:
        want = fh.read()
    assert mismatches(want, golden_text(solve_quick(name))) == []
