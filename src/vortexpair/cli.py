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
import json
import math
import os
import sys

import numpy as np

from . import __version__, fiber, instances, reporting
from .continuation import ContinuationConfig, run_continuation
from .pair import stability_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCIENCE = 2

CONFIG_KEYS = {
    "instance": str,
    "grid": int,
    "tau": float,
    "eps_min": float,
    "ratio": float,
    "newton_tol": float,
    "linear_rtol": float,
    "cap": float,
    "out": str,
    "tau_lo": float,
    "tau_hi": float,
}


def parse_config(path):
    """Flat key = value file; # comments; unknown keys are an error."""
    out = {}
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
            try:
                out[key] = CONFIG_KEYS[key](val)
            except ValueError:
                raise ValueError("%s:%d: bad value %r for key %r"
                                 % (path, lineno, val, key))
    return out


def _resolve(args, conf, key):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    return conf.get(key)


def resolve_out(args, conf):
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get("VORTEXPAIR_OUT")
    if env:
        return env
    if "out" in conf:
        return conf["out"]
    return os.path.join(".", "out")


def quick_grid(name):
    return 128 if name.startswith("hopf") else 32


def build_config(args, conf):
    kw = {}
    for key in ("eps_min", "ratio", "newton_tol", "linear_rtol", "cap"):
        val = _resolve(args, conf, key)
        if val is not None:
            kw[key] = val
    if getattr(args, "quick", False):
        kw.setdefault("eps_min", 1e-2)
        kw["full_diagnostics"] = False
    return ContinuationConfig(**kw)


def resolve_name_grid(args, conf):
    name = _resolve(args, conf, "instance")
    if not name:
        raise ValueError("no instance given (flag or config)")
    n = _resolve(args, conf, "grid")
    if n is None and getattr(args, "quick", False):
        n = quick_grid(name)
    return name, n


def load_instance(args, conf):
    name, n = resolve_name_grid(args, conf)
    tau = _resolve(args, conf, "tau")
    return name, instances.make(name, n=n, tau=tau)


# ---------------------------------------------------------------------------

def cmd_solve(args):
    conf = parse_config(args.config) if args.config else {}
    name, prob = load_instance(args, conf)
    cfg = build_config(args, conf)
    outdir = resolve_out(args, conf)
    outcome = run_continuation(prob, cfg)
    rep = outcome.report
    paths = reporting.write_run_outputs(outdir, name, outcome, cfg)
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
    conf = parse_config(args.config) if args.config else {}
    name, n = resolve_name_grid(args, conf)
    lo = _resolve(args, conf, "tau_lo")
    hi = _resolve(args, conf, "tau_hi")
    if lo is None or hi is None or not (lo < hi):
        raise ValueError("sweep needs tau_lo < tau_hi")
    cfg = build_config(args, conf)
    outdir = resolve_out(args, conf)

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
        print("bracket error: both endpoints %s"
              % ("converge" if ok_lo else "fail to converge"))
        return EXIT_FAIL
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
    base = os.path.join(outdir, "%s-sweep" % name)
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, "sweep.json")
    reporting.write_text(path, reporting.dump_json(doc))
    print("threshold estimate %.6f (bracket [%.6f, %.6f]); wrote %s"
          % (midpoint, lo, hi, path))
    return EXIT_OK


def cmd_stability(args):
    conf = parse_config(args.config) if args.config else {}
    name, prob = load_instance(args, conf)
    if prob.split is None:
        print("%s declares no split model; nothing to audit" % name)
        return EXIT_FAIL
    rep = stability_report(prob.split, prob.geom, tau=prob.tau)
    doc = {"schema": "vortexpair-stability-1", "instance": name,
           "tau": prob.tau, "report": rep.to_dict()}
    outdir = resolve_out(args, conf)
    base = os.path.join(outdir, "%s-stability" % name)
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, "stability.json")
    reporting.write_text(path, reporting.dump_json(doc))
    print(reporting.dump_json(doc).rstrip())
    print("wrote %s" % path)
    return EXIT_OK


def cmd_report(args):
    csv_path = os.path.join(args.rundir, "trace.csv")
    if not os.path.exists(csv_path):
        print("no trace.csv under %s" % args.rundir)
        return EXIT_FAIL
    with open(csv_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    title = os.path.basename(os.path.abspath(args.rundir))
    json_path = os.path.join(args.rundir, "run.json")
    if os.path.exists(json_path):
        with open(json_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        title = "%s [%s]" % (doc.get("instance", title),
                             doc.get("result", {}).get("verdict", "?"))
        print("instance=%s verdict=%s final_residual=%s"
              % (doc.get("instance"), doc.get("result", {}).get("verdict"),
                 doc.get("result", {}).get("final_residual")))
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
    return True, "40 spectra in [-5, 5]"


def _check_fiber_kernel(rng):
    ker = fiber.dd_kernel(np.exp, np.exp)
    for _ in range(20):
        s = fiber.herm_part(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        a = fiber.herm_part(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        t = 1e-6
        fd = (fiber.funcalc_one(np.exp, s + t * a)
              - fiber.funcalc_one(np.exp, s - t * a)) / (2 * t)
        dd = fiber.funcalc_two(ker, s=s, a=a)
        if fiber.sup_norm(fd - dd) > 1e-5 * max(1.0, fiber.sup_norm(dd)):
            return False, "divided-difference kernel vs finite difference"
    ok = abs(fiber.psi_kernel(0.0, 1.0) - (math.e - 1.0)) < 1e-12
    ok = ok and abs(fiber.psi_kernel(1.0, 1.0 + 1e-9)
                    - (1.0 + 5e-10)) < 1e-12
    return ok, "20 directional derivatives plus kernel pins"


def _check_geometry_calculus(rng):
    from .geometry import make_backend, random_band_scalar
    for kind, n in (("torus", 32), ("hopf", 128)):
        g = make_backend(kind, n)
        const = np.full(tuple(g.shape), 1.3)
        if abs(float(np.max(np.abs(g.p_op(const))))) > 1e-12:
            return False, "%s: P(const) != 0" % kind
        for _ in range(5):
            u = random_band_scalar(g, rng, kmax=3, amp=1.0)
            tot = abs(complex(g.integrate(g.p_op(u))).real)
            if tot > 1e-8 * max(1.0, float(np.max(np.abs(u)))):
                return False, "%s: integral of P(u) = %.2e" % (kind, tot)
    return True, "P(const) = 0 and integral P(u) = 0 on both backends"


def _check_max_principle(rng):
    """At the grid argmax of a smooth field, P(u) must not be strongly
    negative. A sign error in the contraction lands at about -sup|P|
    and fails."""
    from .geometry import make_backend, random_band_scalar
    for kind, n in (("torus", 64), ("hopf", 256)):
        g = make_backend(kind, n)
        for _ in range(8):
            u = random_band_scalar(g, rng, kmax=2, amp=1.0)
            pu = np.real(g.p_op(u))
            idx = np.unravel_index(np.argmax(np.real(u)), u.shape)
            slack = 0.25 * float(np.max(np.abs(pu))) + 1e-12
            if pu[idx] < -slack:
                return False, ("%s: P(u) = %.3e at the max of u (slack %.3e)"
                               % (kind, pu[idx], slack))
    return True, "sign calibration at field maxima, both backends"


def _check_pair_analyzer(rng):
    from .pair import SplitModel, mu_M, mu_m_phi
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
    from .continuation import final_metric_original_frame
    ffin = final_metric_original_frame(outcome.gauge, outcome.state)
    err = fiber.sup_norm(ffin - 2.0 * np.eye(1))
    if err > 1e-6:
        return False, "final metric off the closed form by %.2e" % err
    return True, "closed-form target hit to %.1e" % err


def _check_higgs_reduction(rng):
    from .continuation import linearization_apply, residual_L
    from .higgs import vortex_reduction_twin
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

    def common(sp, eps_min=True):
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--grid", type=int, default=None)
        if eps_min:
            sp.add_argument("--eps-min", dest="eps_min", type=float,
                            default=None)
        sp.add_argument("--quick", action="store_true",
                        help="small grids, relaxed schedule")
        sp.add_argument("--instance", default=None,
                        choices=instances.names())

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
    common(sp, eps_min=False)
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
        return args.fn(args)
    except (ValueError, KeyError, OSError, fiber.ClampError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
