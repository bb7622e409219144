"""Write the outputs of a fixed set of command-line runs into OUTDIR, so
that `diff -r` of two such directories shows whether a change keeps
every output byte.

    python tests/golden/outputs.py OUTDIR

The runs, each in its own subdirectory of OUTDIR:

- `solve --quick` on every shipped instance (`quick-<instance>`);
- a default-grid `solve` of rank2-extension, higgs-theta-zero and
  hopf-wave (`default-<instance>`);
- `sweep-tau` on torus-stable and hopf-stable (`sweep-<instance>`),
  with the brackets that the benchmark's rank1-sweep workload draws at
  seed 0;
- `verify` (`verify`).

Next to the files a run writes, its subdirectory holds `stdout.txt`
(its standard output, standard error and exit code) and `s-<k>.bin`,
the bytes of the final `s = log f` of its k-th solve. The only parts
that differ between two runs of the same code are normalised: the
`wall_time` of every run.json reads null, and the run's subdirectory
reads OUT in its standard output. Compare a change with its parent by
running this script from each checkout into two directories and
`diff -r` them.
"""

import contextlib
import io
import os
import re
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

from vortexpair import cli, instances  # noqa: E402
from vortexpair.pair import stability_window  # noqa: E402

DEFAULT_GRID_SOLVES = ("rank2-extension", "higgs-theta-zero", "hopf-wave")
SWEEPS = ("torus-stable", "hopf-stable")
WALL_TIME = re.compile(r'("wall_time": )[^,\n]+')


def sweep_brackets(seed=0):
    """(instance, tau_lo, tau_hi) as perfbench's rank1-sweep draws them:
    one generator, [0.8, 0.9] and [1.1, 1.2] times the analyzer's
    threshold, torus-stable first."""
    rng = np.random.default_rng(seed)
    for name in SWEEPS:
        prob = instances.make(name)
        tau_star = float(stability_window(prob.split, prob.geom)[0])
        lo = float(rng.uniform(0.8, 0.9)) * tau_star
        hi = float(rng.uniform(1.1, 1.2)) * tau_star
        yield name, lo, hi


def runs():
    """(label, argv) of every run, argv without --out."""
    for name in instances.names():
        yield "quick-" + name, ["solve", "--instance", name, "--quick"]
    for name in DEFAULT_GRID_SOLVES:
        yield "default-" + name, ["solve", "--instance", name]
    for name, lo, hi in sweep_brackets():
        yield "sweep-" + name, ["sweep-tau", "--instance", name,
                                "--tau-lo", repr(lo), "--tau-hi", repr(hi)]
    yield "verify", ["verify"]


def record(outdir, label, argv):
    """Run one command into outdir/label and write its normalised
    standard streams and final states next to its outputs."""
    rundir = os.path.join(outdir, label)
    os.makedirs(rundir)
    if argv[0] != "verify":
        argv = argv + ["--out", rundir]
    states = []
    solve = cli.run_continuation

    def keeping(*args, **kwargs):
        out = solve(*args, **kwargs)
        states.append(out.state)
        return out

    out, err = io.StringIO(), io.StringIO()
    cli.run_continuation = keeping
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.run_continuation = solve
    text = "%s%s\nexit %d\n" % (out.getvalue(), err.getvalue(), code)
    with open(os.path.join(rundir, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(text.replace(rundir, "OUT"))
    for k, st in enumerate(states):
        if st is not None:
            with open(os.path.join(rundir, "s-%d.bin" % k), "wb") as fh:
                fh.write(st.s.tobytes())
    for base, _, files in os.walk(rundir):
        if "run.json" in files:
            path = os.path.join(base, "run.json")
            with open(path, encoding="utf-8") as fh:
                doc = WALL_TIME.sub(r"\1null", fh.read())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = os.path.abspath(argv[0])
    for label, args in runs():
        record(outdir, label, args)
        print(label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
