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
- `verify` (`verify`);
- a library solve of rank2-extension at its default grid from the
  seeded constant gauge probe that the benchmark's rank2-solve workload
  starts from, without the Ritz probes, at seeds 0, 1 and 2
  (`start-rank2-extension-seed<k>`). Only these take `initial_gauge`'s
  path for a starting metric; their outputs are written by
  `reporting.write_run_outputs`.

Next to the files a run writes, its subdirectory holds `s-<k>.bin`,
the bytes of the final `s = log f` of its k-th solve, and for a
command `stdout.txt` (its standard output, standard error and exit
code). The only parts that differ between two runs of the same code
are normalised: the `wall_time` of every run.json reads null, and the
run's subdirectory reads OUT in its standard output. Compare a change
with its parent by running this script from each checkout into two
directories and `diff -r` them.
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

from vortexpair import cli, instances, reporting  # noqa: E402
from vortexpair.continuation import (ContinuationConfig,  # noqa: E402
                                     run_continuation)
from vortexpair.pair import stability_window  # noqa: E402

DEFAULT_GRID_SOLVES = ("rank2-extension", "higgs-theta-zero", "hopf-wave")
SWEEPS = ("torus-stable", "hopf-stable")
START_INSTANCE = "rank2-extension"
START_SEEDS = (0, 1, 2)
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


def write_states(rundir, states):
    """Write the bytes of each final s into rundir/s-<k>.bin."""
    for k, st in enumerate(states):
        if st is not None:
            with open(os.path.join(rundir, "s-%d.bin" % k), "wb") as fh:
                fh.write(st.s.tobytes())


def normalise_wall_time(rundir):
    """Set the wall_time of every run.json under rundir to null."""
    for base, _, files in os.walk(rundir):
        if "run.json" in files:
            path = os.path.join(base, "run.json")
            with open(path, encoding="utf-8") as fh:
                doc = WALL_TIME.sub(r"\1null", fh.read())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)


def record_start(outdir, label, seed):
    """Solve START_INSTANCE at its default grid from the constant gauge
    probe of default_rng(seed), with full_diagnostics off, and write
    its outputs and final state into outdir/label."""
    rundir = os.path.join(outdir, label)
    prob = instances.make(START_INSTANCE)
    h = instances.gauge_probe(prob.geom, prob.rank,
                              np.random.default_rng(seed), constant=True)
    cfg = ContinuationConfig(full_diagnostics=False)
    out = run_continuation(prob, cfg, h_start=h)
    reporting.write_run_outputs(rundir, START_INSTANCE, out, cfg)
    write_states(rundir, [out.state])
    normalise_wall_time(rundir)


def record_all(outdir):
    """Record every run into outdir, yielding each label once written."""
    for label, argv in runs():
        record(outdir, label, argv)
        yield label
    for seed in START_SEEDS:
        label = "start-%s-seed%d" % (START_INSTANCE, seed)
        record_start(outdir, label, seed)
        yield label


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
    write_states(rundir, states)
    normalise_wall_time(rundir)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    for label in record_all(os.path.abspath(argv[0])):
        print(label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
