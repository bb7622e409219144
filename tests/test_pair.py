import math

import numpy as np
import pytest

from vortexpair import continuation, fiber, instances
from vortexpair import pair as pair_mod
from vortexpair.continuation import MetricState, residual_L
from vortexpair.geometry import make_backend
from vortexpair.pair import (PairProblem, SplitModel, classify, mu_M,
                             mu_m_phi, stability_report, stability_window)

from conftest import rand_band_herm
from oracles import (k0_field, nu_case1, nu_case2, nu_trace_oracle,
                     phi_simple_check)

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# split model bookkeeping

def test_split_model_validation():
    with pytest.raises(ValueError):
        SplitModel(())
    with pytest.raises(ValueError):
        SplitModel((1.0,), phi_summand=1)


def test_admissible_subsets_respect_coupling():
    sp = SplitModel((0.0, 1.0), 0, coupling_mask=((0, 1),))
    subs = list(sp.admissible_subsets(proper=True))
    assert (0,) in subs
    assert (1,) not in subs  # dbar leaks out of the second summand alone
    assert list(sp.admissible_subsets(proper=False))[-1] == (0, 1)


def test_mu_examples():
    assert mu_M(SplitModel((2.0, 0.0))) == pytest.approx(2.0)
    assert mu_M(SplitModel((-1.0, 0.0, 3.0))) == pytest.approx(3.0)
    # coupling removes the destabilizing summand from the audit
    assert mu_M(SplitModel((0.0, 1.0), 0, ((0, 1),))) == pytest.approx(0.5)
    assert mu_m_phi(SplitModel((-1.0, 1.0, 2.0), 0)) == pytest.approx(1.0)
    assert math.isinf(mu_m_phi(SplitModel((1.0,), 0)))
    assert math.isinf(mu_m_phi(SplitModel((1.0, 2.0))))


def test_stability_windows_and_classify():
    g = make_backend("torus", 16)
    line = SplitModel((1.0,), 0)
    lo, hi = stability_window(line, g)
    assert lo == pytest.approx(FOUR_PI, rel=1e-12)
    assert math.isinf(hi)
    assert classify(line, g, 1.2 * FOUR_PI) == "tau-stable"
    assert classify(line, g, 0.8 * FOUR_PI) == "unstable"
    assert classify(line, g, FOUR_PI) == "boundary"

    # degrees (0, 1) with the section downstairs: empty open window
    caseb = SplitModel((0.0, 1.0), 0)
    lo, hi = stability_window(caseb, g)
    assert lo == pytest.approx(FOUR_PI) and hi == pytest.approx(FOUR_PI)
    assert classify(caseb, g, FOUR_PI) == "boundary"
    assert classify(caseb, g, 0.9 * FOUR_PI) == "unstable"
    assert classify(caseb, g, 1.1 * FOUR_PI) == "unstable"

    # the extension coupling reopens it to (2 pi, 4 pi)
    ext = SplitModel((0.0, 1.0), 0, ((0, 1),))
    lo, hi = stability_window(ext, g)
    assert lo == pytest.approx(2.0 * math.pi) and hi == pytest.approx(FOUR_PI)
    assert classify(ext, g, 3.0 * math.pi) == "tau-stable"
    # its upper edge is a boundary too
    assert classify(ext, g, FOUR_PI) == "boundary"
    assert classify(ext, g, 1.01 * FOUR_PI) == "unstable"


def test_hopf_window_uses_volume():
    p = instances.make("hopf-stable", n=64)
    lo, hi = stability_window(p.split, p.geom)
    # threshold 4 pi deg / Vol with deg = Vol / 2 pi is exactly 2
    assert lo == pytest.approx(2.0, rel=1e-12)
    assert classify(p.split, p.geom, 2.4) == "tau-stable"
    assert classify(p.split, p.geom, 2.0) == "boundary"
    assert classify(p.split, p.geom, 0.5) == "unstable"


def test_stability_report_dict():
    p = instances.make("rank2-extension", n=16)
    rep = stability_report(p.split, p.geom, tau=p.tau)
    d = rep.to_dict()
    assert d["verdict"] == "tau-stable"
    assert d["tau"] == pytest.approx(3.0 * math.pi)
    assert "01" in d["audited"]
    assert d["window"][0] == pytest.approx(2.0 * math.pi)


# ---------------------------------------------------------------------------
# destabilization quantities

def test_nu_case1_forms_agree():
    g = make_backend("torus", 16)
    sp = SplitModel((1.0,), 0)
    a = nu_case1(0.7, sp, g, 0.8 * FOUR_PI)
    b = nu_case1(0.7, (1, 1.0), g, 0.8 * FOUR_PI)
    assert a == pytest.approx(b, rel=1e-14)
    assert a == pytest.approx(0.7 * (1.0 - 0.8), rel=1e-12)


def test_nu_case2_collapses_and_hand_value():
    g = make_backend("torus", 16)
    tau = 0.8 * FOUR_PI
    collapsed = nu_case2([0.7, 0.7], [1], [5.0], g, tau,
                         total_rank=2, total_slope=1.3)
    assert collapsed == pytest.approx(nu_case1(0.7, (2, 1.3), g, tau), rel=1e-13)
    # hand value: T = 0.5, nu = 2*2*(1-0.5) - (2-1)*1*(2-0.5) = 0.5
    val = nu_case2([1.0, 2.0], [1], [2.0], g, 2.0 * math.pi,
                   total_rank=2, total_slope=1.0)
    assert val == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        nu_case2([1.0, 2.0], [], [2.0], g, 1.0, total_rank=2, total_slope=1.0)
    with pytest.raises(TypeError):
        nu_case2([1.0, 2.0], [1], [2.0], g, 1.0)


def test_nu_trace_oracle_matches_case1():
    p = instances.make("torus-stable", n=16)
    for c in (1.0, 0.3, -2.0):
        want = nu_case1(c, p.split, p.geom, p.tau)
        got = nu_trace_oracle(p, c * np.eye(1))
        assert got == pytest.approx(want, rel=1e-12)
    # default tau 1.2 * 4 pi gives -0.2 per unit of u
    assert nu_trace_oracle(p, np.eye(1)) == pytest.approx(-0.2, rel=1e-12)


def test_nu_trace_oracle_rank2_whole_object():
    p = instances.make("rank2-extension", n=16)
    got = nu_trace_oracle(p, np.eye(2))
    want = nu_case1(1.0, (2, 0.5), p.geom, p.tau)
    assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# simplicity probe

def test_phi_simple_trivial_and_caseb():
    simple, nullity, sv = phi_simple_check(instances.make("trivial", n=16))
    assert simple and nullity == 0 and sv > 1e-6
    simple, nullity, _ = phi_simple_check(instances.make("rank2-caseb", n=16))
    assert not simple and nullity == 1
    # the extension coupling kills the split endomorphism
    simple, nullity, _ = phi_simple_check(instances.make("rank2-extension", n=16))
    assert simple and nullity == 0


def test_phi_simple_rejects_hopf():
    with pytest.raises(ValueError):
        phi_simple_check(instances.make("hopf-stable", n=64))


# ---------------------------------------------------------------------------
# problem construction and validation

def test_validation_rejects_bad_data():
    g = make_backend("torus", 16)
    with pytest.raises(ValueError):
        PairProblem(g, 1, [[0.5j]], [1.0], 1.0)  # skew curvature
    x, _ = g.coords()
    phi_bad = np.cos(2 * math.pi * x)[..., None]
    with pytest.raises(ValueError):
        PairProblem(g, 1, [[0.0]], phi_bad, 1.0)  # not holomorphic
    with pytest.raises(ValueError):
        PairProblem(g, 1, np.zeros((2, 2)), [1.0], 1.0)  # shape
    with pytest.raises(ValueError):
        PairProblem(g, 1, [[0.0]], [1.0, 0.0], 1.0)  # section shape
    for a01 in (np.zeros(2), np.zeros((3, 3)), np.zeros((4, 4, 2, 2))):
        with pytest.raises(ValueError, match="a01 shape"):
            PairProblem(g, 2, np.zeros((2, 2)), [1.0, 0.0], 1.0, a01=a01)
    with pytest.raises(ValueError):
        PairProblem(g, 1, [[0.0]], [1.0], 1.0, split=SplitModel((2.0,), 0))
    with pytest.raises(ValueError):
        PairProblem(g, 1, [[0.0]], [1.0], 1.0, split=SplitModel((0.0, 0.0)))
    # explicit tolerance turns the holomorphy failure into a pass
    p = PairProblem(g, 1, [[0.0]], phi_bad, 1.0, holomorphy_tol=100.0)
    assert p.holomorphy_defect() > 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["ilf0", "phi", "a01"])
def test_validation_rejects_non_finite_data(name, bad):
    g = make_backend("torus", 8)
    data = {"ilf0": np.zeros((8, 8, 1, 1)), "phi": np.ones((8, 8, 1)),
            "a01": np.zeros((8, 8, 1, 1))}
    PairProblem(g, 1, tau=1.0, **data)
    data[name] = data[name].astype(complex)
    data[name][3, 5, 0] = bad
    with pytest.raises(ValueError, match=name):
        PairProblem(g, 1, tau=1.0, **data)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["trivial", "higgs-theta-zero"])
def test_validation_rejects_non_finite_tau(name, bad):
    # the Higgs instances take lam through tau = 2 lam
    with pytest.raises(ValueError, match="tau"):
        instances.make(name, n=8, tau=bad)


def test_phi_l2_and_degree():
    p = instances.make("trivial", n=16)
    assert p.phi_l2 == pytest.approx(1.0, rel=1e-12)
    assert p.degree() == pytest.approx(0.0, abs=1e-12)
    p2 = instances.make("torus-wave", n=32)
    assert p2.degree() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# curvature assembly

def test_k0_field_trivial_hand_value():
    p = instances.make("trivial", n=16)
    k0 = k0_field(p)
    assert np.max(np.abs(k0 - (-0.5))) < 1e-14


def _diag_band_state(geom, rng, rank, amp=0.4):
    s = np.zeros(tuple(geom.shape) + (rank, rank), dtype=complex)
    for i in range(rank):
        s[..., i, i] = geom.random_band_scalar(rng, kmax=2, amp=amp)
    return MetricState(s)


def test_mean_curvature_deformed_hermiticity(rng):
    # the raw assembly is Hermitian with respect to the deformed metric,
    # i.e. f @ raw is Hermitian, up to derivative truncation; the
    # symmetrized residual is exactly Hermitian
    for name, n, tol in (("torus-wave", 32, 1e-7), ("rank2-caseb", 32, 1e-7),
                         ("hopf-wave", 64, 1e-12)):
        p = instances.make(name, n=n)
        st = _diag_band_state(p.geom, rng, p.rank)
        raw = p.mean_curvature_raw(st)
        fk = st.f @ raw
        assert fiber.skew_defect(fk) < tol * fiber.sup_norm(fk), name
        assert fiber.skew_defect(residual_L(p, 0.0, st.f)) == 0.0, name


def test_mean_curvature_skew_outside_gauge_domain(rng):
    # a deformation that mixes summands whose declared curvature has no
    # stored potential breaks the deformed-metric hermiticity at order
    # one, independent of resolution; downstream code symmetrizes and
    # tracks the defect instead of hiding it
    p = instances.make("rank2-extension", n=16)
    st = MetricState(rand_band_herm(p.geom, rng, 2, amp=0.3))
    fk = st.f @ p.mean_curvature_raw(st)
    assert fiber.skew_defect(fk) > 0.1


def test_curvature_update_preserves_degree(rng):
    # torus: spectral calculus makes any smooth conformal probe exact
    for name in ("torus-wave", "rank2-extension"):
        p = instances.make(name, n=16)
        st = _diag_band_state(p.geom, rng, p.rank)
        d1 = p.geom.degree(p.ilf0 + p.curvature_update(st))
        assert abs(d1 - p.degree()) < 1e-8, name
    # hopf centered differences: exact for single-harmonic conformal
    # factors (odd-power grid sums vanish identically)
    p = instances.make("hopf-wave", n=64)
    t = p.geom.coords()
    w0 = 2.0 * math.pi / p.geom.period
    u = 0.4 * np.cos(2 * w0 * t + 0.7)
    st = MetricState(u[..., None, None].astype(complex))
    d1 = p.geom.degree(p.ilf0 + p.curvature_update(st))
    assert abs(d1 - p.degree()) < 1e-10


def test_degree_drift_generic_hopf_factor_is_second_order(rng):
    # multi-harmonic conformal factors drift at O(h^2) on the
    # finite-difference backend; the drift is reported, not hidden, and
    # halving the step quarters it
    drifts = {}
    for n in (64, 128):
        p = instances.make("hopf-wave", n=n)
        r2 = np.random.default_rng(5)
        st = MetricState(rand_band_herm(p.geom, r2, 1, amp=0.4))
        drifts[n] = abs(p.geom.degree(p.ilf0 + p.curvature_update(st))
                        - p.degree())
    assert drifts[64] > 1e-5  # genuinely nonzero
    assert 3.5 < drifts[64] / drifts[128] < 4.5


def test_curvature_update_of_identity_is_zero():
    p = instances.make("rank2-extension", n=16)
    eye = MetricState(np.zeros(tuple(p.geom.shape) + (2, 2), dtype=complex))
    assert np.max(np.abs(p.curvature_update(eye))) < 1e-13


@pytest.mark.parametrize("name,twisted", [("torus-wave", False),
                                          ("rank2-extension", True)])
def test_rank_one_endomorphisms_carry_no_twist(monkeypatch, name, twisted):
    # the gauged problem always has an a01, but at rank 1 its commutator
    # with an endomorphism field is zero, and no derivative forms it
    calls = []
    comm = pair_mod.comm

    def counting(a, b):
        calls.append(a.shape)
        return comm(a, b)

    monkeypatch.setattr(pair_mod, "comm", counting)
    p = instances.make(name, n=instances.quick_grid(name))
    out = continuation.run_continuation(p, continuation.ContinuationConfig(
        eps_min=1e-2, full_diagnostics=False))
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert out.gauge.problem.a01 is not None
    assert (len(calls) > 0) == twisted
