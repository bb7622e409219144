"""Command line front end.

Subcommands:
    solve       one continuation run on a shipped instance
    sweep-tau   bisection for the convergence threshold in tau
    stability   slope analyzer report for an instance's split model
    verify      fast invariant suite over all modules
    report      regenerate the SVG plot from a run directory

Exit codes: 0 success (solve: converged; verify: all checks pass),
2 scientific negative (diverged or boundary verdict), 1 operational
failure. Output directory precedence: --out, then VORTEXPAIR_OUT, then
the config file, then ./out.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, fiber, instances, reporting
from .continuation import (SCHEDULE_KEYS, ContinuationConfig,
                           linearization_apply, residual_L, run_continuation)
from .geometry import make_backend
from .higgs import vortex_reduction_twin
from .pair import SplitModel, mu_M, mu_m_phi, stability_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCIENCE = 2

CONFIG_KEYS = dict(instance=str, grid=int, tau=float, out=str,
                   tau_lo=float, tau_hi=float,
                   **dict.fromkeys(SCHEDULE_KEYS, float))


def parse_config(path):
    """Flat key = value file; # comments; unknown, empty and repeated
    keys are an error."""
    out, first = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value, got %r"
                                 % (path, lineno, raw.rstrip()))
            key, val = [part.strip() for part in line.split("=", 1)]
            if key not in CONFIG_KEYS:
                raise ValueError("%s:%d: unknown config key %r (known: %s)"
                                 % (path, lineno, key,
                                    ", ".join(sorted(CONFIG_KEYS))))
            if not val:
                raise ValueError("%s:%d: empty value for key %r"
                                 % (path, lineno, key))
            if key in first:
                raise ValueError("%s:%d: duplicate key %r (first set on "
                                 "line %d)" % (path, lineno, key, first[key]))
            first[key] = lineno
            try:
                out[key] = CONFIG_KEYS[key](val)
            except ValueError:
                raise ValueError("%s:%d: bad value %r for key %r"
                                 % (path, lineno, val, key))
    return out


def resolve_settings(args):
    """Fill in the parsed arguments from the --config file, once per
    command. A flag wins over the file; the output directory is --out,
    then VORTEXPAIR_OUT, then the file's out, then ./out. Under --quick
    an unset grid is the quick grid and an unset eps_min is 1e-2. Every
    config key ends up an attribute of args, None when nothing sets it."""
    conf = parse_config(args.config) if args.config else {}
    args.out = (args.out or os.environ.get("VORTEXPAIR_OUT")
                or conf.get("out", os.path.join(".", "out")))
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is None:
            setattr(args, key, conf.get(key))
    if not args.instance:
        raise ValueError("no instance given (flag or config)")
    if getattr(args, "quick", False):
        if args.grid is None:
            args.grid = instances.quick_grid(args.instance)
        if args.eps_min is None:
            args.eps_min = 1e-2


def build_config(args):
    kw = {key: getattr(args, key) for key in SCHEDULE_KEYS
          if getattr(args, key) is not None}
    return ContinuationConfig(full_diagnostics=not args.quick, **kw)


# ---------------------------------------------------------------------------

def cmd_solve(args):
    name = args.instance
    prob = instances.make(name, n=args.grid, tau=args.tau)
    cfg = build_config(args)
    outcome = run_continuation(prob, cfg)
    rep = outcome.report
    paths = reporting.write_run_outputs(args.out, name, outcome, cfg)
    print("%s: verdict=%s cause=%r eps_reached=%g residual=%.3e "
          "sup_log_f=%.4f steps=%d"
          % (name, rep.verdict, rep.cause, rep.eps_reached,
             rep.final_residual, rep.final_sup_log_f, len(rep.trace)))
    print("wrote %s" % ", ".join(sorted(paths.values())))
    if rep.verdict == "converged":
        return EXIT_OK
    if rep.verdict in ("diverged", "boundary"):
        return EXIT_SCIENCE
    return EXIT_FAIL


def cmd_sweep_tau(args):
    name, n, lo, hi = args.instance, args.grid, args.tau_lo, args.tau_hi
    for flag, val in (("--tau-lo", lo), ("--tau-hi", hi)):
        if val is None:
            raise ValueError("sweep-tau needs %s" % flag)
    if not lo < hi:
        raise ValueError("sweep needs tau_lo < tau_hi")
    # the sweep records only verdicts, so its solves skip the Ritz probe
    cfg = dataclasses.replace(build_config(args), full_diagnostics=False)

    runs = []

    def converged_at(tau):
        prob = instances.make(name, n=n, tau=tau)
        outcome = run_continuation(prob, cfg)
        runs.append({"tau": tau, "verdict": outcome.report.verdict,
                     "sup_log_f": outcome.report.final_sup_log_f,
                     "eps_reached": outcome.report.eps_reached})
        print("  tau=%.6f -> %s" % (tau, outcome.report.verdict))
        return outcome.report.verdict == "converged"

    ok_lo = converged_at(lo)
    ok_hi = converged_at(hi)
    if ok_lo == ok_hi:
        raise ValueError("both bracket endpoints %s"
                         % ("converge" if ok_lo else "fail to converge"))
    # orient so that lo fails and hi converges
    flip = ok_lo
    while (hi - lo) > 0.01 * (0.5 * (hi + lo)):
        mid = 0.5 * (lo + hi)
        good = converged_at(mid)
        if good != flip:
            hi = mid
        else:
            lo = mid
    midpoint = 0.5 * (lo + hi)

    prob = instances.make(name, n=n)
    analyzer = None
    if prob.split is not None:
        srep = stability_report(prob.split, prob.geom, tau=midpoint)
        analyzer = srep.to_dict()
    doc = {
        "schema": "vortexpair-sweep-1",
        "instance": name,
        "grid": n,
        "bracket": [lo, hi],
        "threshold": midpoint,
        "relative_width": (hi - lo) / midpoint,
        "analyzer": analyzer,
        "runs": runs,
    }
    path = os.path.join(args.out, "%s-sweep" % name, "sweep.json")
    reporting.write_text(path, reporting.dump_json(doc))
    print("threshold estimate %.6f (bracket [%.6f, %.6f]); wrote %s"
          % (midpoint, lo, hi, path))
    return EXIT_OK


def cmd_stability(args):
    name = args.instance
    prob = instances.make(name, tau=args.tau)
    if prob.split is None:
        raise ValueError("%s declares no split model; nothing to audit" % name)
    rep = stability_report(prob.split, prob.geom, tau=prob.tau)
    doc = {"schema": "vortexpair-stability-1", "instance": name,
           "tau": prob.tau, "report": rep.to_dict()}
    path = os.path.join(args.out, "%s-stability" % name, "stability.json")
    reporting.write_text(path, reporting.dump_json(doc))
    print(reporting.dump_json(doc).rstrip())
    print("wrote %s" % path)
    return EXIT_OK


def cmd_report(args):
    csv_path = os.path.join(args.rundir, "trace.csv")
    if not os.path.exists(csv_path):
        raise FileNotFoundError("no trace.csv under %s" % args.rundir)
    with open(csv_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    title = os.path.basename(os.path.abspath(args.rundir))
    json_path = os.path.join(args.rundir, "run.json")
    if os.path.exists(json_path):
        with open(json_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        result = doc.get("result", {}) if isinstance(doc, dict) else None
        if not isinstance(result, dict):
            raise ValueError("run.json is not a run report object")
        title = "%s [%s]" % (doc.get("instance", title),
                             result.get("verdict", "?"))
        print("instance=%s verdict=%s final_residual=%s"
              % (doc.get("instance"), result.get("verdict"),
                 result.get("final_residual")))
    svg = reporting.svg_from_csv(text, title=title)
    out_path = os.path.join(args.rundir, "run.svg")
    reporting.write_text(out_path, svg)
    print("wrote %s" % out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: fast invariant sweep across the modules

def _check_fiber_roundtrip(rng):
    for _ in range(40):
        r = int(rng.integers(1, 4))
        w = rng.uniform(-5.0, 5.0, size=r)
        v = np.linalg.qr(rng.standard_normal((r, r))
                         + 1j * rng.standard_normal((r, r)))[0]
        s = (v * w) @ v.conj().T
        s = fiber.herm_part(s)
        back = fiber.herm_log(fiber.herm_exp(s), what="verify")
        if fiber.sup_norm(back - s) > 1e-10 * max(1.0, fiber.sup_norm(s)):
            return False, "log(exp(s)) drifted"
    # exactly repeated rank-2 spectra reach the closed form's scalar branch
    for c in (0.0, 1.5, -4.0):
        s = np.diag([c, c]).astype(np.complex128)
        back = fiber.herm_log(fiber.herm_exp(s), what="verify")
        if fiber.sup_norm(back - s) > 1e-10 * max(1.0, abs(c)):
            return False, "log(exp(c I)) drifted at c = %g" % c
    return True, "40 spectra in [-5, 5], 3 repeated rank-2 spectra"


def _check_fiber_kernel(rng):
    # exp's derivative through the solver's own transform (as in
    # continuation.d2lhat_apply): closed-form eigh at rank 2, LAPACK's
    # at 3, and the written-out apply_two at both
    for r in (2, 3):
        for _ in range(10):
            s, a = [fiber.herm_part(rng.standard_normal((r, r))
                                    + 1j * rng.standard_normal((r, r)))
                    for _ in range(2)]
            t = 1e-6
            fd = (fiber.herm_exp(s + t * a)
                  - fiber.herm_exp(s - t * a)) / (2 * t)
            w, v = fiber.herm_eig(s)
            dd = fiber.apply_two(
                fiber.kernel_matrix(fiber.dexp_kernel, w), v, a)
            if fiber.sup_norm(fd - dd) > 1e-5 * max(1.0, fiber.sup_norm(dd)):
                return False, "dexp vs finite difference at rank %d" % r
    ok = abs(fiber.psi_kernel(0.0, 1.0) - (math.e - 1.0)) < 1e-12
    ok = ok and abs(fiber.psi_kernel(1.0, 1.0 + 1e-9)
                    - (1.0 + 5e-10)) < 1e-12
    return ok, "20 derivatives of exp at ranks 2 and 3 plus kernel pins"


def _check_geometry_calculus(rng):
    for kind, n in (("torus", 32), ("hopf", 128)):
        g = make_backend(kind, n)
        const = np.full(tuple(g.shape), 1.3)
        if abs(float(np.max(np.abs(g.p_op(const))))) > 1e-12:
            return False, "%s: P(const) != 0" % kind
        for _ in range(5):
            u = g.random_band_scalar(rng, kmax=3, amp=1.0)
            tot = abs(complex(g.integrate(g.p_op(u))).real)
            if tot > 1e-8 * max(1.0, float(np.max(np.abs(u)))):
                return False, "%s: integral of P(u) = %.2e" % (kind, tot)
    return True, "P(const) = 0 and integral P(u) = 0 on both backends"


def _check_max_principle(rng):
    """At the grid argmax of a smooth field, P(u) must not be strongly
    negative. A sign error in the contraction lands at about -sup|P|
    and fails."""
    for kind, n in (("torus", 64), ("hopf", 256)):
        g = make_backend(kind, n)
        for _ in range(8):
            u = g.random_band_scalar(rng, kmax=2, amp=1.0)
            pu = np.real(g.p_op(u))
            idx = np.unravel_index(np.argmax(np.real(u)), u.shape)
            slack = 0.25 * float(np.max(np.abs(pu))) + 1e-12
            if pu[idx] < -slack:
                return False, ("%s: P(u) = %.3e at the max of u (slack %.3e)"
                               % (kind, pu[idx], slack))
    return True, "sign calibration at field maxima, both backends"


def _check_pair_analyzer(rng):
    if mu_M(SplitModel((2.0, 0.0))) != 2.0:
        return False, "mu_M of (2,0)"
    sm = SplitModel((-1.0, 1.0, 2.0), 0)
    if mu_M(sm) != 2.0 or mu_m_phi(sm) != 1.0:
        return False, "three summand example"
    ext = SplitModel((0.0, 1.0), 0, ((0, 1),))
    if not math.isclose(mu_M(ext), 0.5):
        return False, "extension mask admissibility"
    return True, "slope examples and extension masks"


def _check_trivial_solve(rng):
    prob = instances.make("trivial", n=32)
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    outcome = run_continuation(prob, cfg)
    if outcome.report.verdict != "converged":
        return False, "verdict %s" % outcome.report.verdict
    err = fiber.sup_norm(outcome.metric - 2.0 * np.eye(1))
    if err > 1e-6:
        return False, "final metric off the closed form by %.2e" % err
    return True, "closed-form target hit to %.1e" % err


def _check_higgs_reduction(rng):
    hp = instances.make("higgs-theta-zero", n=16)
    tw = vortex_reduction_twin(hp)
    s = fiber.herm_part(rng.standard_normal((16, 16, 2, 2))
                        + 1j * rng.standard_normal((16, 16, 2, 2)))
    s *= 0.3
    f = fiber.herm_exp(s)
    dr = fiber.sup_norm(residual_L(hp, 0.37, f) - residual_L(tw, 0.37, f))
    v = fiber.herm_part(rng.standard_normal((16, 16, 2, 2))
                        + 1j * rng.standard_normal((16, 16, 2, 2)))
    dl = fiber.sup_norm(linearization_apply(hp, 0.37, f, v)
                        - linearization_apply(tw, 0.37, f, v))
    if max(dr, dl) > 1e-13:
        return False, "residual gap %.2e, linearization gap %.2e" % (dr, dl)
    return True, "theta = 0 equals the sectionless vortex operator"


def _check_reporting_determinism(rng):
    prob = instances.make("trivial", n=16)
    cfg = ContinuationConfig(eps_min=0.1, full_diagnostics=False)
    a = reporting.trace_csv(run_continuation(prob, cfg).report.trace)
    b = reporting.trace_csv(run_continuation(prob, cfg).report.trace)
    if a != b:
        return False, "two identical runs produced different CSV bytes"
    return True, "byte-identical trace CSV across repeat runs"


VERIFY_CHECKS = [
    ("fiber-roundtrip", _check_fiber_roundtrip),
    ("fiber-kernels", _check_fiber_kernel),
    ("geometry-calculus", _check_geometry_calculus),
    ("geometry-max-principle", _check_max_principle),
    ("pair-analyzer", _check_pair_analyzer),
    ("continuation-trivial", _check_trivial_solve),
    ("higgs-reduction", _check_higgs_reduction),
    ("reporting-determinism", _check_reporting_determinism),
]


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    failures = 0
    for name, fn in VERIFY_CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # noqa: BLE001 - report and keep sweeping
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        print("%-26s %s  %s" % (name, "ok " if ok else "FAIL", detail))
        failures += 0 if ok else 1
    if failures:
        print("%d verify check(s) failed" % failures)
        return EXIT_FAIL
    print("all %d verify checks passed" % len(VERIFY_CHECKS))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="vortexpair",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, solver=True):
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--instance", default=None,
                        choices=instances.names())
        if solver:
            sp.add_argument("--grid", type=int, default=None)
            sp.add_argument("--eps-min", dest="eps_min", type=float,
                            default=None)
            sp.add_argument("--quick", action="store_true",
                            help="small grids, relaxed schedule")

    sp = sub.add_parser("solve", help="run one continuation")
    common(sp)
    sp.add_argument("--tau", type=float, default=None)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("sweep-tau", help="bisect the tau threshold")
    common(sp)
    sp.add_argument("--tau-lo", dest="tau_lo", type=float, default=None)
    sp.add_argument("--tau-hi", dest="tau_hi", type=float, default=None)
    sp.set_defaults(fn=cmd_sweep_tau)

    sp = sub.add_parser("stability", help="slope analyzer report")
    common(sp, solver=False)
    sp.add_argument("--tau", type=float, default=None)
    sp.set_defaults(fn=cmd_stability)

    sp = sub.add_parser("verify", help="fast module invariant suite")
    sp.add_argument("--seed", type=int, default=2024,
                    help="RNG seed of the checks (default 2024)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("report", help="regenerate plots for a run directory")
    sp.add_argument("rundir")
    sp.set_defaults(fn=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "config" in args:  # the subcommands that solve or audit
            resolve_settings(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # fiber.ClampError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
