"""The benchmark workloads: set-up from a seed, one pass, and the
correctness check of that pass.

Each workload's constructor is its set-up: it builds the shipped
instances (with their validation) and draws every input from the seed,
so the library only ever receives generated inputs. `run(outdir)` makes
one pass and returns (attempted solves, failed solves). A pass whose
check fails counts every solve it made as failed.

With corrupt=True each workload checks against a deliberately wrong
expectation, which the self-test uses to show that a wrong result
surfaces as failed solves rather than as a timing.
"""

import json
import math
import os

import numpy as np

from vortexpair import cli, continuation, instances
from vortexpair.continuation import ContinuationConfig
from vortexpair.pair import stability_window


class SolveRecorder:
    """Keeps the outcomes of the solves that cli subcommands make.

    cli.main returns only an exit code; the checks need verdicts and
    trace records, so cli's run_continuation is replaced by a pass-through
    that remembers each outcome. This is the only patch active in an
    untraced pass."""

    def __init__(self):
        self.outcomes = []
        self._orig = cli.run_continuation

        def recording(*args, **kwargs):
            out = self._orig(*args, **kwargs)
            self.outcomes.append(out)
            return out
        cli.run_continuation = recording

    def take(self):
        out, self.outcomes = self.outcomes, []
        return out


class Rank2Solve:
    """run_continuation on rank2-extension at its default grid from a
    seeded constant gauge probe, without the Ritz probes."""

    name = "rank2-solve"
    instance = "rank2-extension"

    def __init__(self, seed, recorder, corrupt=False):
        self.prob = instances.make(self.instance)
        rng = np.random.default_rng(seed)
        self.h_start = instances.gauge_probe(self.prob.geom, self.prob.rank,
                                             rng, constant=True)
        self.cfg = ContinuationConfig(full_diagnostics=False)
        self.expected = instances.EXPECTED_VERDICTS[self.instance]
        if corrupt:
            self.expected = "diverged"
        diag = np.diagonal(self.h_start[0, 0]).real
        self.inputs = {"instance": self.instance,
                       "h_start_diag": [float(x) for x in diag]}

    def run(self, outdir):
        rep = continuation.run_continuation(self.prob, self.cfg,
                                            h_start=self.h_start).report
        ok = (rep.verdict == self.expected
              and rep.final_residual <= 10.0 * self.cfg.newton_tol)
        return 1, 0 if ok else 1


class Rank1Sweep:
    """`vortexpair sweep-tau` on torus-stable, then hopf-stable, with a
    seeded bracket around the analyzer's threshold tau*."""

    name = "rank1-sweep"
    cases = ("torus-stable", "hopf-stable")

    def __init__(self, seed, recorder, corrupt=False):
        self.recorder = recorder
        rng = np.random.default_rng(seed)
        self.brackets = []
        for inst in self.cases:
            prob = instances.make(inst)
            tau_star = float(stability_window(prob.split, prob.geom)[0])
            lo = float(rng.uniform(0.8, 0.9)) * tau_star
            hi = float(rng.uniform(1.1, 1.2)) * tau_star
            expect = tau_star * (1.05 if corrupt else 1.0)
            self.brackets.append((inst, expect, lo, hi))
        self.inputs = {inst: {"tau_star": tau, "tau_lo": lo, "tau_hi": hi}
                       for inst, tau, lo, hi in self.brackets}

    def run(self, outdir):
        attempted = failed = 0
        for inst, tau_star, lo, hi in self.brackets:
            rc = cli.main(["sweep-tau", "--instance", inst,
                           "--tau-lo", repr(lo), "--tau-hi", repr(hi),
                           "--out", outdir])
            solves = self.recorder.take()
            path = os.path.join(outdir, "%s-sweep" % inst, "sweep.json")
            threshold = math.nan
            if rc == 0:
                with open(path, "r", encoding="utf-8") as fh:
                    threshold = json.load(fh)["threshold"]
            ok = rc == 0 and abs(threshold - tau_star) <= 0.01 * tau_star
            # a sweep that fails before its first solve still counts once
            n = max(len(solves), 1)
            attempted += n
            failed += 0 if ok else n
        return attempted, failed


class Higgs0Certify:
    """`vortexpair solve --instance higgs-theta-zero` with the default
    config: zero Newton iterations, the Ritz probes dominate. The seed
    is recorded but unused, since theta = 0 at lambda = 2 pi is the only
    input that keeps the exact reduction to the vortex operator."""

    name = "higgs0-certify"
    instance = "higgs-theta-zero"

    def __init__(self, seed, recorder, corrupt=False):
        self.recorder = recorder
        instances.make(self.instance)
        self.expected = "boundary" if corrupt else "converged"
        self.inputs = {"instance": self.instance}

    def run(self, outdir):
        rc = cli.main(["solve", "--instance", self.instance, "--out", outdir])
        solves = self.recorder.take()
        ok = rc == 0 and len(solves) == 1
        if ok:
            rep = solves[0].report
            # eps = 0 records carry no probe (NaN); every probed one counts
            ritz = [rec.min_ritz for rec in rep.trace if rec.eps > 0.0]
            ok = (rep.verdict == self.expected and len(ritz) > 0
                  and all(r > 0.0 for r in ritz))
        n = max(len(solves), 1)
        return n, 0 if ok else n


WORKLOADS = {cls.name: cls for cls in (Rank2Solve, Rank1Sweep, Higgs0Certify)}
