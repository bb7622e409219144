"""Acceptance gate: thirteen numbered criteria, one test function each.

Run with -v to get one pass/fail line per criterion. Every tolerance
below is the contract value, not a tuned one; measured margins sit well
inside (recorded in the assertion messages). The eleven shipped
instances are solved once at their default grids (torus 64^2, circle
reduction 512) by a module fixture and reused by the criteria that
inspect whole runs.
"""

import math
import time

import numpy as np
import pytest

from vortexpair import continuation as C
from vortexpair import fiber, instances
from vortexpair.continuation import (ContinuationConfig, MetricState,
                                     run_continuation, uniqueness_probe)
from vortexpair.instances import gauge_probe
from vortexpair.geometry import TorusBackend
from vortexpair.pair import PairProblem, SplitModel

from conftest import rand_band_herm
from oracles import (fd_lhat, higgs_xi_derivative, nie_zhang_check,
                     plane_layout_guard, semipositivity_pair, xi_path)

FOUR_PI = 4.0 * math.pi
STABLE = ("torus-stable", "torus-wave", "hopf-stable", "hopf-wave",
          "rank2-extension")
UNSTABLE = ("torus-unstable", "hopf-unstable")


@pytest.fixture(scope="module")
def full_runs():
    """All shipped instances at default grids, default configuration.
    The runs go through the layout guard, so every criterion that reads
    them also proves that no strided entry reached the written-out
    product."""
    runs = {}
    with plane_layout_guard() as guard:
        for name in instances.names():
            out = run_continuation(instances.make(name))
            assert out.report.verdict == instances.EXPECTED_VERDICTS[name], (
                name, out.report.verdict, out.report.cause)
            runs[name] = out
    assert guard.calls > 0
    return runs


def _bisect_threshold(name, n, lo, hi):
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)

    def conv(tau):
        out = run_continuation(instances.make(name, n=n, tau=tau), cfg)
        return out.report.verdict == "converged"

    ok_lo, ok_hi = conv(lo), conv(hi)
    assert ok_lo != ok_hi, "bracket does not straddle the threshold"
    while (hi - lo) > 0.01 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if conv(mid) != ok_lo:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_c01_trivial_closed_form_metric():
    # degree zero, unit section, tau = 2: the limit metric is f = 2 id
    t0 = time.perf_counter()
    out = run_continuation(instances.make("trivial", n=64))
    wall = time.perf_counter() - t0
    assert out.report.verdict == "converged"
    err = float(fiber.sup_norm(out.metric - 2.0 * np.eye(1)))
    assert err <= 1e-8, "closed-form miss %.3e" % err
    assert wall < 5.0, "wall %.2fs" % wall


def test_c02_gauged_start_residual(full_runs):
    for name, out in full_runs.items():
        post = out.report.gauge_post_residual
        assert post <= 1e-10, "%s start residual %.3e" % (name, post)


def test_c03_threshold_kahler_backend():
    t0 = time.perf_counter()
    th = _bisect_threshold("torus-stable", 64, 10.0, 14.0)
    wall = time.perf_counter() - t0
    rel = abs(th - FOUR_PI) / FOUR_PI
    assert rel <= 0.05, "threshold %.6f vs %.6f (rel %.2e)" % (th, FOUR_PI, rel)
    assert wall < 600.0, "wall %.1fs" % wall


def test_c04_threshold_non_kahler_backend():
    # the analyzer's window edge for the weight-one instance
    p = instances.make("hopf-stable", n=512)
    lo_analyzer = 4.0 * math.pi * p.split.degrees[0] / p.geom.vol
    assert lo_analyzer == pytest.approx(2.0)
    t0 = time.perf_counter()
    th = _bisect_threshold("hopf-stable", 512, 1.5, 2.5)
    wall = time.perf_counter() - t0
    rel = abs(th - lo_analyzer) / lo_analyzer
    assert rel <= 0.05, "threshold %.6f vs %.6f (rel %.2e)" % (th, lo_analyzer, rel)
    assert wall < 300.0, "wall %.1fs" % wall


def test_c05_apriori_estimate_along_runs(full_runs):
    # sup|log f| <= sup|K0|/eps at every accepted state of converged runs
    tol = ContinuationConfig().newton_tol
    for name, out in full_runs.items():
        if out.report.verdict != "converged":
            continue
        # and the polish that made the run converged met Newton's band
        assert out.report.final_residual <= 10.0 * tol, name
        for rec in out.report.trace:
            if rec.eps > 0.0:
                assert rec.apriori_margin <= 1e-6, (
                    "%s at eps=%g: margin %.3e" % (name, rec.eps,
                                                   rec.apriori_margin))


def test_c06_stable_bound_unstable_cap(full_runs):
    # lowering the schedule floor must not move the delivered metric
    for name in STABLE:
        l2 = {}
        for em in (1e-1, 1e-3):
            cfg = ContinuationConfig(eps_min=em, full_diagnostics=False)
            out = run_continuation(instances.make(name), cfg)
            assert out.report.verdict == "converged", (name, em)
            l2[em] = out.report.trace[-1].l2_log_f
        var = abs(l2[1e-3] - l2[1e-1]) / l2[1e-3]
        assert var < 0.10, "%s: L2 varies %.3e" % (name, var)
    # unstable instances must hit the cap while eps is still above 1e-2
    for name in UNSTABLE:
        rep = full_runs[name].report
        assert rep.verdict == "diverged", name
        assert rep.eps_reached >= 1e-2, (name, rep.eps_reached)
        assert rep.cause.startswith("cap"), (name, rep.cause)


def test_c07_energy_identity_and_refinement(full_runs):
    # at the shipped grids every accepted state satisfies the identity
    worst = {}
    for name, out in full_runs.items():
        for rec in out.report.trace:
            rel = rec.energy_gap / rec.energy_scale
            assert rec.energy_gap <= 1e-4 * rec.energy_scale, (
                "%s at eps=%g: gap %.3e scale %.3e" % (name, rec.eps,
                                                       rec.energy_gap,
                                                       rec.energy_scale))
            worst[name] = max(worst.get(name, 0.0), rel)
    # one refinement step: near machine on the spectral backend,
    # second order on the finite-difference backend
    cfg = ContinuationConfig(full_diagnostics=False)
    out = run_continuation(instances.make("torus-wave", n=128), cfg)
    assert out.report.verdict == "converged"
    g128 = max(r.energy_gap / r.energy_scale for r in out.report.trace)
    assert g128 <= 1e-10, "spectral backend not at machine level: %.3e" % g128
    out = run_continuation(instances.make("hopf-wave", n=1024), cfg)
    assert out.report.verdict == "converged"
    g1024 = max(r.energy_gap / r.energy_scale for r in out.report.trace)
    g512 = worst["hopf-wave"]
    assert g1024 <= g512 / 2.5, (
        "refinement ratio %.2f below second order" % (g512 / max(g1024, 1e-300)))


def test_c08_contraction_identity_gap():
    # closed forms: constant deformations give a vanishing gap exactly,
    # on both backends and both ranks
    for name, n in (("torus-stable", 32), ("hopf-stable", 128)):
        p = instances.make(name, n=n)
        c = np.full(tuple(p.geom.shape) + (1, 1), 0.7, dtype=complex)
        g = nie_zhang_check(p, st=MetricState(c))
        assert g <= 1e-12, (name, g)
    p = instances.make("rank2-caseb", n=32)
    cm = np.zeros(tuple(p.geom.shape) + (2, 2), dtype=complex)
    cm[..., 0, 0] = 0.4
    cm[..., 1, 1] = -0.3
    assert nie_zhang_check(p, st=MetricState(cm)) <= 1e-12
    # spectral backend, random band-limited deformations: rank one at
    # the shipped grid sits at roundoff (measured ~6e-13)
    rng = np.random.default_rng(20250819)
    p = instances.make("torus-wave", n=64)
    for _ in range(3):
        u = p.geom.random_band_scalar(rng, kmax=3, amp=0.5)
        st = MetricState(u[..., None, None].astype(complex))
        g = nie_zhang_check(p, st=st)
        assert g <= 1e-8, "rank-1 gap %.3e" % g
    # rank two random fields: refinement convergent (measured
    # 1.1e-9 -> 7.1e-14 under one halving of h)
    gaps = {}
    for n in (32, 64):
        q = instances.make("rank2-extension", n=n)
        s = rand_band_herm(q.geom, np.random.default_rng(77), 2,
                           amp=0.4, kmax=2)
        gaps[n] = nie_zhang_check(q, st=MetricState(s))
    assert gaps[64] <= 1e-8, "rank-2 gap %.3e at the shipped grid" % gaps[64]
    assert gaps[64] < gaps[32] / 100.0, gaps
    # finite-difference backend: second-order decay of the gap
    fd = {}
    for n in (128, 256, 512):
        q = instances.make("hopf-wave", n=n)
        u = q.geom.random_band_scalar(np.random.default_rng(5), kmax=2,
                                      amp=0.5)
        fd[n] = nie_zhang_check(q, st=MetricState(
            u[..., None, None].astype(complex)))
    for a, b in ((128, 256), (256, 512)):
        ratio = fd[a] / fd[b]
        assert 3.5 < ratio < 4.5, (fd, ratio)


def test_c09_degree_well_defined_both_backends():
    rng = np.random.default_rng(20250819)
    # the mean-zero operator integrates to zero
    for name, n in (("torus-wave", 64), ("hopf-wave", 512)):
        p = instances.make(name, n=n)
        for _ in range(5):
            u = p.geom.random_band_scalar(rng, kmax=3, amp=1.0)
            tot = abs(complex(p.geom.integrate(p.geom.p_op(u))).real)
            assert tot <= 1e-8 * max(1.0, float(np.max(np.abs(u)))), (name, tot)
    # conformal change of the reference metric leaves the degree fixed
    p = instances.make("torus-wave", n=64)
    d0 = p.degree()
    for _ in range(3):
        u = p.geom.random_band_scalar(rng, kmax=3, amp=0.6)
        ilf = p.ilf0 + p.geom.p_op(u).real[..., None, None]
        q = PairProblem(p.geom, 1, ilf, [1.0], p.tau)
        assert abs(q.degree() - d0) <= 1e-8, abs(q.degree() - d0)
    h = instances.make("hopf-wave", n=512)
    d0 = h.degree()
    t = h.geom.coords()
    w0 = 2.0 * math.pi / h.geom.period
    # single-harmonic factor: the finite-difference degree sums are
    # exact for it (generic factors drift at O(h^2); see the pair tests)
    u = 0.4 * np.cos(2.0 * w0 * t + 0.7)
    ilf = h.ilf0 + h.geom.p_op(u).real[..., None, None]
    q = PairProblem(h.geom, 1, ilf, [1.0], h.tau)
    assert abs(q.degree() - d0) <= 1e-8, abs(q.degree() - d0)


def test_c10_split_instance_is_direct_sum(full_runs):
    out2 = full_runs["rank2-caseb"]
    f2 = out2.metric
    g = instances.make("rank2-caseb").geom
    # the two summand problems, solved independently at the same tau
    pa = PairProblem(g, 1, [[0.0]], [1.0], FOUR_PI)
    pb = PairProblem(g, 1, [[2.0 * math.pi]], [0.0], FOUR_PI)
    fsum = np.zeros_like(f2)
    for idx, q in ((0, pa), (1, pb)):
        out = run_continuation(q)
        assert out.report.verdict == "converged"
        fsum[..., idx, idx] = out.metric[..., 0, 0]
    err = float(fiber.sup_norm(f2 - fsum))
    assert err <= 1e-6, "block decomposition miss %.3e" % err


def test_c10_rank3_split_solve_is_the_direct_sum_bit_for_bit():
    # rank2-caseb with one more degree-one summand: the degree-zero block
    # is the rank-1 solve and the degree-one block stays I, with no
    # tolerance, and every rank-3 field is stored as entry planes
    g = TorusBackend(16)
    p = PairProblem(g, 3, np.diag([0.0, 2.0 * math.pi, 2.0 * math.pi]),
                    [1.0, 0.0, 0.0], FOUR_PI,
                    split=SplitModel((0.0, 1.0, 1.0), 0))
    cfg = ContinuationConfig(full_diagnostics=False)
    with plane_layout_guard() as guard:
        out = run_continuation(p, cfg)
    assert guard.calls > 0
    one = run_continuation(PairProblem(g, 1, [[0.0]], [1.0], FOUR_PI), cfg)
    for rep in (out.report, one.report):
        assert (rep.verdict, len(rep.trace), rep.newton_total) == (
            "converged", 22, 44)
    f = out.state.f
    assert np.array_equal(f[..., :1, :1], one.state.f)
    assert np.all(f[..., 1:, 1:] == np.eye(2))
    assert not np.any(f[..., :1, 1:]) and not np.any(f[..., 1:, :1])


def test_c11_uniqueness_from_independent_starts():
    cfg = ContinuationConfig(full_diagnostics=False)
    for name in ("torus-stable", "hopf-stable"):
        p = instances.make(name)
        dist, out_a, out_b = uniqueness_probe(
            p, cfg,
            h_a=gauge_probe(p.geom, 1, np.random.default_rng(5)),
            h_b=gauge_probe(p.geom, 1, np.random.default_rng(11)))
        assert dist < 1e-6, "%s: final metrics differ by %.3e" % (name, dist)


def test_c12_linearization_matches_finite_differences():
    eps_mix = (1.0, 0.7, 0.3, 0.05, 0.0)
    rng = np.random.default_rng(20250819)
    classes = (("torus-wave", 8, 1), ("rank2-extension", 8, 2),
               ("hopf-wave", 32, 1), ("higgs-nilpotent", 8, 2))
    for name, n, rank in classes:
        p = instances.make(name, n=n)
        for i in range(50):
            eps = eps_mix[i % len(eps_mix)]
            st = MetricState(rand_band_herm(p.geom, rng, rank, amp=0.4))
            v = rand_band_herm(p.geom, rng, rank, amp=0.3)
            got = C.d2lhat_apply(p, eps, st, v)
            want = fd_lhat(p, eps, st, v)
            rel = fiber.sup_norm(got - want) / max(1.0, fiber.sup_norm(want))
            assert rel < 1e-5, "%s probe %d at eps=%g: rel %.3e" % (
                name, i, eps, rel)


def test_c13_monotonicity_suites():
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 5))
        s = fiber.herm_part(rng.standard_normal((r, r))
                            + 1j * rng.standard_normal((r, r)))
        phi = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        inc = xi_path(phi, s, 1.0) - xi_path(phi, s, 0.0)
        worst = min(worst, inc)
    assert worst >= -1e-12, "fiber increment %.3e" % worst
    # matrix-field analogue: derivative nonnegative, curvature pairing
    # semipositive (no convergence claim is made for these instances)
    worst_pair = 0.0
    worst_xi = 0.0
    for _ in range(500):
        r = int(rng.integers(2, 5))
        th = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        th /= max(1.0, float(fiber.frob(th)))
        s = fiber.herm_part(rng.standard_normal((r, r))
                            + 1j * rng.standard_normal((r, r)))
        f = fiber.herm_exp(0.8 * s / max(1.0, float(fiber.frob(s))))
        eta = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        eta /= max(1.0, float(fiber.frob(eta)))
        pairing, nsq = semipositivity_pair(th, f, eta)
        worst_pair = min(worst_pair, pairing)
        worst_xi = min(worst_xi,
                       higgs_xi_derivative(th, s, float(rng.uniform())))
    assert worst_pair >= -1e-12, "curvature pairing %.3e" % worst_pair
    assert worst_xi >= -1e-12, "path derivative %.3e" % worst_xi
