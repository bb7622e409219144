"""Outside-in span tracer for the vortexpair benchmark.

The library is not instrumented. Instead, `Tracer.install` replaces the
public entry points of its modules with wrappers that open a span on
entry and close it on exit, and `Tracer.uninstall` puts the originals
back. Names that a module imports by value (`from ._kernels import
apply_one` in `fiber`, `continuation` and `higgs`) are patched at every
import site, otherwise calls through those modules would bypass the
wrapper.

Spans are kept in memory and written out once the pass is over. Each
records its name, the span that caused it (the innermost span open at
entry), start and end; a span's self time is its duration minus the
durations of its direct children. Counters that a span alone cannot
express (GMRES matvecs, partial solves, line-search trials, halvings,
bytes written) are kept at the same boundaries.
"""

import functools
import statistics
import time
from collections import Counter

from scipy.sparse.linalg import LinearOperator

from vortexpair import (_kernels, cli, continuation, fiber, geometry, higgs,
                        pair, reporting)

from metrics import DETERMINISTIC_SUFFIXES, LAYERS, SCALAR_COUNTS


class Tracer:
    def __init__(self):
        # one row per span: [name, parent, start, end, child_time]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open_names = Counter()
        self._last_state = {}
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, 0.0])
        self._stack.append(idx)
        self._open_names[name] += 1
        return idx

    def _exit(self, idx):
        end = time.perf_counter()
        row = self.spans[idx]
        row[3] = end
        self._stack.pop()
        self._open_names[row[0]] -= 1
        if row[1] >= 0:
            self.spans[row[1]][4] += end - row[2]

    def span(self, name, fn, before=None, after=None, error=None):
        """Wrap fn in a span. before(idx, args, kwargs) runs inside the
        span before the call, after(idx, args, kwargs, result) after a
        return, error(idx, args, kwargs, exc) after a raise."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                if before is not None:
                    before(idx, args, kwargs)
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if error is not None:
                        error(idx, args, kwargs, exc)
                    raise
                if after is not None:
                    after(idx, args, kwargs, out)
                return out
            finally:
                tracer._exit(idx)
        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_span(self, owners, attr, name, **hooks):
        wrapped = self.span(name, getattr(owners[0], attr), **hooks)
        for owner in owners:
            self._patch(owner, attr, wrapped)

    def install(self):
        # fiber kernels: imported by name into fiber, continuation, higgs
        kernel_sites = {
            "eigh_batch": (_kernels, fiber),
            "apply_one": (_kernels, fiber, continuation, higgs),
            "apply_two": (_kernels, fiber, continuation),
        }
        for attr, owners in kernel_sites.items():
            self._patch_span(owners, attr, "fiber." + attr)

        self._patch_span((continuation,), "d2lhat_apply",
                         "continuation.linearization",
                         before=self._on_linearization)
        self._patch_span((pair.PairProblem,), "curvature_update",
                         "pair.curvature_update")
        self._patch_span((higgs.HiggsProblem,), "zero_order_lin",
                         "higgs.zero_order_lin")
        self._patch_span((continuation,), "residual_parts",
                         "continuation.residual", before=self._on_residual)
        # TorusBackend.d/dbar and HopfBackend.d/dbar delegate to these;
        # HopfBackend.lam_dbar_10 calls _d1 directly
        self._patch_span((geometry.TorusBackend,), "_deriv",
                         "geometry.fft_deriv")
        self._patch_span((geometry.HopfBackend,), "_d1",
                         "geometry.stencil_deriv")

        make_precond = continuation._precond_operator

        def precond_operator(*args, **kwargs):
            return self.span("continuation.precond",
                             make_precond(*args, **kwargs))
        self._patch(continuation, "_precond_operator", precond_operator)

        self._patch(continuation, "gmres",
                    self.span("continuation.gmres",
                              self._counting_gmres(continuation.gmres)))
        self._patch_span((continuation,), "newton_solve_at",
                         "continuation.newton", after=self._on_newton,
                         error=self._on_newton_error)
        self._patch_span((continuation,), "min_ritz_estimate",
                         "continuation.ritz")
        self._patch_span((continuation,), "diagnostics_check",
                         "continuation.diagnostics")
        self._patch_span((continuation,), "initial_gauge",
                         "continuation.gauge")
        # cli imports run_continuation by name
        self._patch_span((continuation,), "run_continuation",
                         "continuation.run", after=self._on_run)
        self._patch_span((cli,), "run_continuation", "continuation.run",
                         after=self._on_run)
        self._patch_span((cli,), "cmd_sweep_tau", "cli.sweep")
        self._patch_span((reporting,), "write_text", "reporting.write",
                         before=self._on_write)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- counters ------------------------------------------------------------

    def _counting_gmres(self, gmres):
        counts = self.counts

        def counting_gmres(amat, b, *args, **kwargs):
            matvec = amat.matvec

            def counted(x):
                counts["continuation.gmres.matvecs"] += 1
                return matvec(x)
            op = LinearOperator(amat.shape, matvec=counted, dtype=amat.dtype)
            x, info = gmres(op, b, *args, **kwargs)
            if info > 0:
                counts["continuation.gmres.partial"] += 1
            return x, info
        return counting_gmres

    def _on_linearization(self, idx, args, kwargs):
        if self._open_names["continuation.ritz"]:
            self.counts["continuation.ritz.matvecs"] += 1

    def _on_residual(self, idx, args, kwargs):
        # Newton evaluates the residual once at the top of every
        # iteration and once per line-search trial. An accepted trial
        # state is evaluated again at the top of the next iteration, so
        # the same state object twice in a row marks an acceptance.
        parent = self.spans[idx][1]
        if parent < 0 or self.spans[parent][0] != "continuation.newton":
            return
        st = args[2]
        self.counts["newton.residuals"] += 1
        if self._last_state.get(parent) is st:
            self.counts["linesearch.accepted"] += 1
        self._last_state[parent] = st

    def _on_newton(self, idx, args, kwargs, out):
        self.counts["continuation.newton.iters"] += out[1]
        self.counts["newton.calls"] += 1
        self._last_state.pop(idx, None)

    def _on_newton_error(self, idx, args, kwargs, exc):
        self.counts["newton.calls"] += 1
        self._last_state.pop(idx, None)
        # run_continuation halves the step on NewtonFailure at eps > 0;
        # at eps = 0 the same exception is the boundary verdict
        parent = self.spans[idx][1]
        if (isinstance(exc, continuation.NewtonFailure) and parent >= 0
                and self.spans[parent][0] == "continuation.run"
                and args[1] > 0.0):
            self.counts["continuation.halvings"] += 1

    def _on_run(self, idx, args, kwargs, out):
        self.counts["continuation.steps"] += len(out.report.trace)
        if self._open_names["cli.sweep"]:
            self.counts["cli.sweep.solves"] += 1

    def _on_write(self, idx, args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self.counts["reporting.write.bytes"] += len(text.encode("utf-8"))

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer metrics of everything traced so far, as plain numbers."""
        calls = Counter()
        total = Counter()
        self_time = Counter()
        for name, _parent, start, end, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child
        c = self.counts
        derived = {
            "calls": lambda n: calls[n],
            "self_s": lambda n: self_time[n],
            "ms_per_call": lambda n: 1e3 * total[n] / calls[n] if calls[n] else 0.0,
        }
        trials = c["newton.residuals"] - c["newton.calls"] - c["linesearch.accepted"]
        out = {}
        for prefix, fields in LAYERS.items():
            for fld in fields:
                key = "%s.%s" % (prefix, fld)
                if key == "continuation.newton.self_s":
                    out[key] = self_time["continuation.newton"]
                elif key == "continuation.linesearch.trials":
                    out[key] = trials
                elif key == "continuation.linesearch.accept_ratio":
                    out[key] = c["linesearch.accepted"] / trials if trials else 0.0
                elif fld in derived:
                    out[key] = derived[fld](prefix)
                else:
                    out[key] = c[key]
        for key in SCALAR_COUNTS:
            out[key] = c[key]
        return out

    def write_spans(self, path, pass_id):
        """Append this tracer's spans as CSV rows; pass_id groups the
        spans of one traced pass."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, parent, start, end, child) in enumerate(self.spans):
                fh.write("%d,%d,%d,%s,%.9f,%.9f,%.9f\n"
                         % (pass_id, i, parent, name, start, end,
                            end - start - child))


def deterministic_counts(metrics):
    return {k: v for k, v in metrics.items()
            if k.endswith(DETERMINISTIC_SUFFIXES)}


def median_layers(summaries):
    """Per-key median over the summaries of repeated traced passes;
    a value that repeats exactly is kept as it is."""
    out = {}
    for key in summaries[0]:
        vals = [s[key] for s in summaries]
        out[key] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out
