import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexpair import continuation as C
from vortexpair import fiber, instances
from vortexpair.continuation import (ContinuationConfig, GaugeDomainError,
                                     HermPacker, MetricState, NewtonFailure,
                                     diagnostics_check, energy_identity_gap,
                                     final_metric_original_frame,
                                     initial_gauge, newton_solve_at,
                                     nie_zhang_check, residual_parts,
                                     run_continuation, uniqueness_probe)
from vortexpair.geometry import random_band_scalar
from vortexpair.instances import gauge_probe
from vortexpair.pair import PairProblem

from conftest import rand_band_herm


def _state_rank1(geom, rng, amp=0.5, kmax=2):
    u = random_band_scalar(geom, rng, kmax=kmax, amp=amp)
    return MetricState(u[..., None, None].astype(complex))


# ---------------------------------------------------------------------------
# config

@pytest.mark.parametrize("bad", [0.0, math.nan])
@pytest.mark.parametrize("name", ["eps_min", "newton_tol", "linear_rtol",
                                  "cap"])
def test_config_rejects_non_positive_values(name, bad):
    with pytest.raises(ValueError, match=name):
        ContinuationConfig(**{name: bad})


# ---------------------------------------------------------------------------
# packing

def test_herm_packer_roundtrip_and_isometry(rng):
    packer = HermPacker((6, 5), 3)
    h = rand_band_herm  # unused; direct random field below
    a = rng.standard_normal((6, 5, 3, 3)) + 1j * rng.standard_normal((6, 5, 3, 3))
    m = fiber.herm_part(a)
    x = packer.pack(m)
    assert x.dtype == np.float64
    assert x.shape == (packer.size,)
    back = packer.unpack(x)
    assert fiber.sup_norm(back - m) < 1e-14 * max(1.0, fiber.sup_norm(m))
    # packing preserves the Frobenius inner product
    frob2 = float(np.sum(fiber.frob(m) ** 2))
    assert np.dot(x, x) == pytest.approx(frob2, rel=1e-12)


def test_state_cache_follows_the_problem(rng):
    # f^-1 d0 f, the mean curvature and the Higgs adjoint depend on the
    # problem; a state reused across problems and calls must answer each
    # call as a fresh state does
    pa = instances.make("rank2-extension", n=8)
    pb = instances.make("rank2-caseb", n=8)
    assert pa.a10 is not None and pb.a10 is None
    # theta = 0 goes first: its zero adjoint, if kept, changes the
    # nilpotent matvec, while a kept nilpotent adjoint is multiplied
    # by theta = 0 and would not show
    hz = instances.make("higgs-theta-zero", n=8)
    hn = instances.make("higgs-nilpotent", n=8)
    s = rand_band_herm(pa.geom, rng, 2, amp=0.3)
    v = rand_band_herm(pa.geom, rng, 2, amp=0.3)
    for problems in ((pa, pb, pa), (hz, hn, hz)):
        shared = MetricState(s)
        for p in problems:
            assert np.array_equal(C.d2lhat_apply(p, 0.5, shared, v),
                                  C.d2lhat_apply(p, 0.5, MetricState(s), v))
            for got, want in zip(residual_parts(p, 0.5, shared),
                                 residual_parts(p, 0.5, MetricState(s))):
                assert np.array_equal(got, want)
            assert np.array_equal(C.lhat_raw(p, 0.5, shared),
                                  C.lhat_raw(p, 0.5, MetricState(s)))


def test_state_assembles_its_curvature_once(rng, monkeypatch):
    p = instances.make("rank2-extension", n=8)
    calls = []
    update = PairProblem.curvature_update

    def counted(self, f, finv=None):
        calls.append(self)
        return update(self, f, finv=finv)

    monkeypatch.setattr(PairProblem, "curvature_update", counted)
    st = MetricState(rand_band_herm(p.geom, rng, 2, amp=0.3))
    residual_parts(p, 0.5, st)
    for _ in range(3):
        C.d2lhat_apply(p, 0.5, st, rand_band_herm(p.geom, rng, 2, amp=0.3))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# scalar solve oracles

def test_newton_matches_scalar_root_eps_one():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    st, it = newton_solve_at(p, 1.0, st0, cfg)
    root = brentq(lambda f: 0.5 * f - 1.0 + math.log(f), 0.1, 5.0,
                  xtol=1e-14)
    assert fiber.sup_norm(st.f - root) < 1e-10
    assert it <= 10


def test_newton_matches_scalar_root_eps_half():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    st1, _ = newton_solve_at(p, 1.0, st0, cfg)
    st, _ = newton_solve_at(p, 0.5, st1, cfg)
    root = brentq(lambda f: 0.5 * f - 1.0 + 0.5 * math.log(f), 0.1, 5.0,
                  xtol=1e-14)
    assert fiber.sup_norm(st.f - root) < 1e-10


def test_newton_failure_and_best_effort():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12, newton_max=0)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    with pytest.raises(NewtonFailure):
        newton_solve_at(p, 1.0, st0, cfg)
    st, it = newton_solve_at(p, 1.0, st0, cfg, best_effort=True)
    assert it == 0 and fiber.sup_norm(st.s) == 0.0


def test_residual_public_vs_state_route(rng):
    p = instances.make("torus-wave", n=16)
    st = _state_rank1(p.geom, rng)
    r_state, skew = residual_parts(p, 0.3, st)
    r_pub = C.residual_L(p, 0.3, st.f)
    assert fiber.sup_norm(r_state - r_pub) < 1e-12
    assert C.residual_defect(p, 0.3, st.f) == pytest.approx(skew, rel=1e-10)


# ---------------------------------------------------------------------------
# linearization against finite differences

def _fd_lhat(p, eps, st, v, t=1e-6):
    x = st.finv @ v

    def lhat_at(sign):
        tx = sign * t * x
        e = (np.eye(p.rank) + tx + 0.5 * (tx @ tx)
             + (tx @ tx @ tx) / 6.0)
        f_t = fiber.herm_part(st.f @ e)
        return C.lhat_raw(p, eps, MetricState(fiber.herm_log(f_t)))

    return (lhat_at(1.0) - lhat_at(-1.0)) / (2.0 * t)


@pytest.mark.parametrize("name,n,rank", [
    ("torus-wave", 8, 1),
    ("rank2-extension", 8, 2),
    ("hopf-wave", 32, 1),
])
def test_linearization_matches_fd(rng, name, n, rank):
    p = instances.make(name, n=n)
    for _ in range(5):
        st = MetricState(rand_band_herm(p.geom, rng, rank, amp=0.4))
        v = rand_band_herm(p.geom, rng, rank, amp=0.3)
        for eps in (0.7, 0.0):
            got = C.d2lhat_apply(p, eps, st, v)
            want = _fd_lhat(p, eps, st, v)
            rel = fiber.sup_norm(got - want) / max(1.0, fiber.sup_norm(want))
            assert rel < 1e-5


# ---------------------------------------------------------------------------
# initial gauge

def test_gauge_identity_start_all_instances():
    # n = 32 on the torus: the wave instance needs the exponentiated
    # reference resolved, and spectral truncation collapses from ~1e-4
    # at n = 16 to ~1e-11 at n = 32
    for name in instances.names():
        if name.startswith("higgs"):
            continue
        n = 64 if name.startswith("hopf") else 32
        p = instances.make(name, n=n)
        g = initial_gauge(p)
        assert g.post_residual <= 1e-10, (name, g.post_residual)
        assert abs(g.degree_drift) <= 1e-6, name


def test_gauge_probe_starts():
    rng = np.random.default_rng(4)
    cases = [
        ("torus-stable", 32, dict()),
        ("rank2-caseb", 32, dict()),
        ("rank2-extension", 32, dict(constant=True)),
        ("hopf-stable", 64, dict()),
    ]
    for name, n, kw in cases:
        p = instances.make(name, n=n)
        h = gauge_probe(p.geom, p.rank, rng, **kw)
        g = initial_gauge(p, h=h)
        assert g.post_residual <= 1e-10, (name, g.post_residual)


def test_gauge_domain_guard_raises():
    rng = np.random.default_rng(4)
    p = instances.make("rank2-extension", n=16)
    # varying diagonal probe: the induced reference leaves the commutant
    # of the stored-coupling background
    with pytest.raises(GaugeDomainError):
        initial_gauge(p, h=gauge_probe(p.geom, 2, rng, constant=False))
    # mixing probe on the split model: same failure, different mechanism
    pb = instances.make("rank2-caseb", n=16)
    s = np.zeros(tuple(pb.geom.shape) + (2, 2), dtype=complex)
    s[..., 0, 1] = 0.3
    s[..., 1, 0] = 0.3
    with pytest.raises(GaugeDomainError):
        initial_gauge(pb, h=fiber.herm_exp(s))


# ---------------------------------------------------------------------------
# full continuation runs (small grids)

@pytest.fixture(scope="module")
def trivial_run():
    return run_continuation(instances.make("trivial", n=16))


@pytest.fixture(scope="module")
def stable_run():
    return run_continuation(instances.make("torus-stable", n=16))


def test_trivial_run_converges_to_two(trivial_run):
    out = trivial_run
    assert out.verdict == "converged"
    assert out.report.final_residual <= 1e-9
    m = final_metric_original_frame(out.gauge, out.state)
    assert fiber.sup_norm(m - 2.0) < 1e-8


def test_trace_schedule_and_diagnostics(stable_run):
    rep = stable_run.report
    assert stable_run.verdict == "converged"
    eps_seq = [r.eps for r in rep.trace]
    assert eps_seq[0] == 1.0
    assert eps_seq[-1] == 0.0
    assert eps_seq[-2] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(eps_seq[:-1], eps_seq[1:]))
    for r in rep.trace:
        assert r.apriori_margin <= 1e-6
        assert r.energy_gap <= 1e-4 * r.energy_scale
        assert r.monotone_gap >= -1e-12
        if r.eps > 0.0:
            assert r.min_ritz > 0.0
        assert r.calc_margin <= C.discretization_slack(
            stable_run.gauge.problem, stable_run.state)
    assert rep.gauge_post_residual <= 1e-10
    assert rep.newton_total > 0
    assert rep.window[0] == pytest.approx(4.0 * math.pi)


def test_unstable_run_caps_late():
    out = run_continuation(instances.make("torus-unstable", n=16))
    assert out.verdict == "diverged"
    assert out.report.cause.startswith("cap at eps=")
    # the cap must hit before the schedule reaches eps = 1e-2: the
    # blowup is the no-solution signal, not a late-schedule artifact
    assert out.report.eps_reached >= 1e-2


def test_polish_disabled_stops_at_eps_min():
    cfg = ContinuationConfig(eps_min=0.1, polish=False, full_diagnostics=False)
    out = run_continuation(instances.make("trivial", n=16), cfg=cfg)
    assert out.verdict == "converged"
    assert out.report.eps_reached == pytest.approx(0.1)
    assert out.report.trace[-1].eps == pytest.approx(0.1)


def test_uniqueness_two_starts():
    p = instances.make("torus-stable", n=24)
    rng = np.random.default_rng(12)
    dist, out_a, out_b = uniqueness_probe(
        p, h_b=gauge_probe(p.geom, 1, rng))
    assert out_a.verdict == "converged" and out_b.verdict == "converged"
    assert dist < 1e-6


# ---------------------------------------------------------------------------
# identities at states and solutions

def test_energy_identity_at_solution(stable_run):
    gp = stable_run.gauge.problem
    # recompute at the final eps_min state recorded before the polish
    rec = stable_run.report.trace[-2]
    assert rec.eps == pytest.approx(1e-3)
    gap, scale = energy_identity_gap(gp, rec.eps, stable_run.state)
    # state is the polished one; use the identity at eps = 0 as well
    gap0, scale0 = energy_identity_gap(gp, 0.0, stable_run.state)
    assert gap0 <= 1e-6 * scale0


def test_nie_zhang_closed_forms_and_refinement(rng):
    # constant deformations: both sides vanish identically
    p = instances.make("trivial", n=16)
    stc = MetricState(0.3 * np.ones(tuple(p.geom.shape) + (1, 1),
                                    dtype=complex))
    assert nie_zhang_check(p, st=stc) == 0.0
    ph = instances.make("hopf-stable", n=64)
    sth = MetricState(0.3 * np.ones(tuple(ph.geom.shape) + (1, 1),
                                    dtype=complex))
    assert nie_zhang_check(ph, st=sth) == 0.0
    # spectral backend at n = 64: machine level for band-limited fields
    p64 = instances.make("torus-wave", n=64)
    st = _state_rank1(p64.geom, rng)
    assert nie_zhang_check(p64, st=st) < 1e-12
    # finite differences: second order in the step
    gaps = {}
    for n in (128, 256):
        pn = instances.make("hopf-wave", n=n)
        rn = np.random.default_rng(11)
        gaps[n] = nie_zhang_check(pn, st=_state_rank1(pn.geom, rn))
    assert gaps[128] > 1e-3
    assert 3.5 < gaps[128] / gaps[256] < 4.5


def test_min_ritz_positive_at_stable_solution(stable_run):
    gp = stable_run.gauge.problem
    packer = HermPacker(gp.geom.shape, gp.rank)
    r = C.min_ritz_estimate(gp, 1e-3, stable_run.state, packer)
    assert r > 0.0


def test_diagnostics_record_fields(stable_run):
    gp = stable_run.gauge.problem
    rec = diagnostics_check(gp, 0.5, stable_run.state)
    assert rec.eps == 0.5
    assert rec.apriori_bound == pytest.approx(
        fiber.sup_norm(gp.k0_field()) / 0.5)
    assert math.isfinite(rec.min_ritz)
    row = rec.row()
    assert len(row) == 7


def test_cauchy_increment_symmetric_form(rng):
    # the recorded increment is sup|log(f_prev^(-1/2) f f_prev^(-1/2))|
    p = instances.make("trivial", n=16)
    st_prev = _state_rank1(p.geom, rng, amp=0.2)
    st = _state_rank1(p.geom, rng, amp=0.25)
    rec = diagnostics_check(p, 0.5, st, prev_st=st_prev,
                            cfg=ContinuationConfig(full_diagnostics=False))
    m = fiber.herm_part(st_prev.fsri @ st.f @ st_prev.fsri)
    want = fiber.sup_norm(fiber.herm_log(m))
    assert rec.cauchy_increment == pytest.approx(want, rel=1e-12)
