import numpy as np
import pytest

from vortexpair import continuation as C
from vortexpair import fiber, instances
from vortexpair.continuation import MetricState, run_continuation
from vortexpair.geometry import make_backend
from vortexpair.higgs import HiggsProblem, vortex_reduction_twin

from conftest import rand_band_herm, rand_herm
from oracles import (fd_lhat, higgs_xi_derivative, higgs_xi_path,
                     semipositivity_pair)


def _rand_pos(rng, r, amp=0.8):
    return fiber.herm_exp(rand_herm(rng, (), r, amp=amp))


# ---------------------------------------------------------------------------
# bracket algebra

def test_bracket_oracle_nilpotent():
    hp = instances.make("higgs-nilpotent", n=16)
    b = hp.zero_order_id()
    # theta = E01: bracket is diag(1, -1), contraction doubles it on the
    # unit torus
    want = np.diag([2.0, -2.0])
    assert fiber.sup_norm(b - want) < 1e-14
    # pointwise trace free at the reference
    assert np.max(np.abs(np.trace(b, axis1=-2, axis2=-1))) < 1e-14


def test_adjoint_field_formula(rng):
    hp = instances.make("higgs-nilpotent", n=16)
    st = MetricState(rand_band_herm(hp.geom, rng, 2, amp=0.4))
    got = hp.adjoint_field(st)
    want = np.linalg.inv(st.f) @ hp.theta_dag @ st.f
    assert fiber.sup_norm(got - want) < 1e-12


def test_zero_order_at_identity_matches_id(rng):
    hp = instances.make("higgs-nilpotent", n=16)
    eye = MetricState(np.zeros(tuple(hp.geom.shape) + (2, 2), dtype=complex))
    assert fiber.sup_norm(hp.zero_order(eye) - hp.zero_order_id()) < 1e-13


def test_zero_order_is_deformed_hermitian(rng):
    # the bracket term with the deformed adjoint is f-Hermitian:
    # f @ zero_order(st) has no skew part beyond roundoff
    hp = instances.make("higgs-nilpotent", n=16)
    st = MetricState(rand_band_herm(hp.geom, rng, 2, amp=0.4))
    fk = st.f @ hp.zero_order(st)
    assert fiber.skew_defect(fk) < 1e-12 * fiber.sup_norm(fk)


# ---------------------------------------------------------------------------
# reduction to the vortex machinery at theta = 0

def test_theta_zero_reduction_residual_and_linearization(rng):
    hp = instances.make("higgs-theta-zero", n=16)
    twin = vortex_reduction_twin(hp)
    assert twin.tau == pytest.approx(hp.tau)
    s = rand_band_herm(hp.geom, rng, 2, amp=0.4)
    st = MetricState(s)
    v = rand_band_herm(hp.geom, rng, 2, amp=0.3)
    for eps in (1.0, 0.3, 0.0):
        ra = C.residual_parts(hp, eps, st)
        rb = C.residual_parts(twin, eps, st)
        assert fiber.sup_norm(ra - rb) < 1e-14
        la = C.d2lhat_apply(hp, eps, st, v)
        lb = C.d2lhat_apply(twin, eps, st, v)
        assert fiber.sup_norm(la - lb) < 1e-14


def test_theta_zero_run_converges_to_identity():
    out = run_continuation(instances.make("higgs-theta-zero", n=16))
    assert out.verdict == "converged"
    assert fiber.sup_norm(out.state.s) < 1e-10
    assert out.report.final_residual < 1e-10


def test_nilpotent_run_ends_boundary():
    # semistable but not polystable: the homotopy must walk the schedule
    # and then refuse to certify an eps = 0 solution
    out = run_continuation(instances.make("higgs-nilpotent", n=16))
    assert out.verdict == "boundary"
    assert out.report.eps_reached <= 1e-3 or out.report.cause.startswith(
        "polish")


# ---------------------------------------------------------------------------
# linearization of the bracket hook

def test_higgs_linearization_matches_fd(rng):
    hp = instances.make("higgs-nilpotent", n=8)
    for _ in range(5):
        st = MetricState(rand_band_herm(hp.geom, rng, 2, amp=0.4))
        v = rand_band_herm(hp.geom, rng, 2, amp=0.3)
        for eps in (0.7, 0.0):
            got = C.d2lhat_apply(hp, eps, st, v)
            want = fd_lhat(hp, eps, st, v)
            rel = fiber.sup_norm(got - want) / max(1.0, fiber.sup_norm(want))
            assert rel < 1e-5


# ---------------------------------------------------------------------------
# fiberwise property checks

def test_semipositivity_hand_case():
    th = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eta = np.diag([1.0, 0.0]).astype(complex)
    pairing, nsq = semipositivity_pair(th, np.eye(2, dtype=complex), eta)
    assert pairing == pytest.approx(1.0, rel=1e-14)
    assert nsq == pytest.approx(1.0, rel=1e-14)


def test_semipositivity_random_probes(rng):
    for _ in range(100):
        r = int(rng.integers(2, 5))
        th = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        f = _rand_pos(rng, r)
        eta = rand_herm(rng, (), r)
        pairing, nsq = semipositivity_pair(th, f, eta)
        assert pairing == pytest.approx(nsq, rel=1e-10, abs=1e-12)
        assert pairing >= -1e-12 * max(1.0, nsq)


def test_higgs_xi_derivative_matches_fd(rng):
    for _ in range(20):
        r = int(rng.integers(2, 4))
        th = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        s = rand_herm(rng, (), r)
        t = float(rng.uniform(0.0, 1.0))
        eps = 1e-6
        fd = (higgs_xi_path(th, s, t + eps)
              - higgs_xi_path(th, s, t - eps)) / (2 * eps)
        d = float(higgs_xi_derivative(th, s, t))
        assert d >= 0.0
        assert abs(fd - d) < 1e-5 * max(1.0, abs(fd))


def test_higgs_xi_increments_nonnegative(rng):
    worst = np.inf
    for _ in range(100):
        r = int(rng.integers(2, 4))
        th = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        s = rand_herm(rng, (), r)
        inc = higgs_xi_path(th, s, 1.0) - higgs_xi_path(th, s, 0.0)
        worst = min(worst, inc)
    assert worst >= -1e-12


# ---------------------------------------------------------------------------
# validation

def test_rejects_non_holomorphic_theta():
    g = make_backend("torus", 16)
    x, _ = g.coords()
    th = np.zeros(tuple(g.shape) + (2, 2), dtype=complex)
    th[..., 0, 1] = np.cos(2 * np.pi * x)
    with pytest.raises(ValueError):
        HiggsProblem(g, 2, np.zeros((2, 2)), th, 0.0)
    # explicit tolerance admits the same data
    hp = HiggsProblem(g, 2, np.zeros((2, 2)), th, 0.0, holomorphy_tol=100.0)
    assert hp.lam == 0.0 and hp.tau == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rejects_non_finite_theta(bad):
    g = make_backend("torus", 8)
    th = np.zeros(tuple(g.shape) + (2, 2), dtype=complex)
    th[2, 1, 0, 1] = bad
    with pytest.raises(ValueError, match="theta"):
        HiggsProblem(g, 2, np.zeros((2, 2)), th, 0.0)


def test_rejects_misshapen_theta():
    # the shape error names the Higgs field, not the curvature
    g = make_backend("torus", 8)
    with pytest.raises(ValueError, match=r"^higgs field shape \(3, 3\), "
                       r"want \(8, 8, 2, 2\)$"):
        HiggsProblem(g, 2, np.zeros((2, 2)), np.zeros((3, 3)), 0.0)


def test_registry_lam_mapping():
    hp = instances.make("higgs-theta-zero", n=16, tau=1.5)
    assert hp.lam == pytest.approx(1.5)
    assert hp.tau == pytest.approx(3.0)
