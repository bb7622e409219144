import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexpair import continuation as C
from vortexpair import cli, fiber, instances
from vortexpair import higgs as higgs_mod
from vortexpair.continuation import (ContinuationConfig, GaugeDomainError,
                                     HermPacker, MetricState, NewtonFailure,
                                     diagnostics_check, energy_identity_gap,
                                     final_metric_original_frame,
                                     initial_gauge, newton_solve_at,
                                     residual_parts, run_continuation,
                                     uniqueness_probe)
from vortexpair.instances import gauge_probe
from vortexpair.pair import PairProblem

from conftest import rand_band_herm, rand_herm
from oracles import (calc_inequality_margin, discretization_slack,
                     eps_term_through_inverse_psi, fd_lhat, lhat_raw,
                     monotone_gap, nie_zhang_check, tapped)


def _state_rank1(geom, rng, amp=0.5, kmax=2):
    u = geom.random_band_scalar(rng, kmax=kmax, amp=amp)
    return MetricState(u[..., None, None].astype(complex))


# ---------------------------------------------------------------------------
# config

@pytest.mark.parametrize("name,bad", [
    (name, bad) for name in ("eps_min", "newton_tol", "linear_rtol", "cap")
    for bad in (0.0, math.nan, math.inf)
] + [("eps_min", 1.0), ("eps_min", 5.0), ("newton_max", -1),
      ("newton_max", 2.5), ("ratio", 0.0), ("ratio", 1.0),
      ("ratio", math.nan), ("cap", C.CAP_MAX)])
def test_config_rejects_non_positive_values(name, bad):
    with pytest.raises(ValueError, match=name):
        ContinuationConfig(**{name: bad})


def test_config_bounds_the_number_of_stops():
    # the default and --quick schedules take 20 and 13 stops; the bound
    # is on log(eps_min) / log(ratio), the stops without the snap
    for cfg in (ContinuationConfig(), ContinuationConfig(eps_min=1e-2)):
        assert math.log(cfg.eps_min) / math.log(cfg.ratio) < 20
    ContinuationConfig(ratio=0.999, eps_min=0.999 ** (C.STOPS_MAX - 1))
    with pytest.raises(ValueError, match="over 10000 stops"):
        ContinuationConfig(ratio=0.999, eps_min=0.999 ** (C.STOPS_MAX + 1))
    with pytest.raises(ValueError, match="ratio 0.999999 needs over"):
        ContinuationConfig(ratio=0.999999, eps_min=0.5)


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


def test_herm_packer_round_trip_at_each_rank(rng):
    # pack reads the diagonal and the upper triangle, sqrt(2)-scaled,
    # and unpack writes them back, bit for bit at every rank
    for r in (1, 2, 3):
        packer = HermPacker((4, 3), r)
        x = rng.standard_normal(packer.size)
        h = packer.unpack(x)
        nd, no = 12 * r, 12 * packer.noff
        iu = np.triu_indices(r, 1)
        sq2 = math.sqrt(2.0)
        assert np.array_equal(
            np.diagonal(h, axis1=-2, axis2=-1).reshape(-1), x[:nd])
        off = x[nd:nd + no] / sq2 + 1j * (x[nd + no:] / sq2)
        assert np.array_equal(h[..., iu[0], iu[1]].reshape(-1), off)
        assert np.array_equal(h[..., iu[1], iu[0]].reshape(-1),
                              np.conjugate(off))
        m = rand_herm(rng, (4, 3), r)
        off = m[..., iu[0], iu[1]].reshape(-1)
        want = np.concatenate([
            np.diagonal(m, axis1=-2, axis2=-1).real.reshape(-1),
            (sq2 * off.real).reshape(-1), (sq2 * off.imag).reshape(-1)])
        assert np.array_equal(packer.pack(m), want)
        assert np.allclose(packer.pack(h), x, rtol=1e-15, atol=0.0)
        # pack reads the Hermitian part itself: the same floats as
        # packing herm_part, and a Hermitian field packs unchanged
        a = (rng.standard_normal((4, 3, r, r))
             + 1j * rng.standard_normal((4, 3, r, r)))
        assert np.array_equal(packer.pack(a), packer.pack(fiber.herm_part(a)))
        assert np.array_equal(packer.pack(fiber.herm_part(m)), want)


@pytest.mark.parametrize("name,n", [("rank2-extension", 8),
                                    ("torus-stable", 8), ("hopf-stable", 16)])
def test_operators_pack_the_hermitian_part_bit_for_bit(rng, name, n):
    # the Newton matvec and the preconditioner hand their raw field to
    # pack; the result equals packing its Hermitian part explicitly
    p = instances.make(name, n=n)
    eps = 0.3
    st = MetricState(rand_band_herm(p.geom, rng, p.rank, amp=0.3))
    packer = HermPacker(p.geom.shape, p.rank)
    x = packer.pack(rand_band_herm(p.geom, rng, p.rank, amp=0.3))

    out = C.d2lhat_apply(p, eps, st, packer.unpack(x))
    want = packer.pack(fiber.herm_part(fiber.mm(fiber.mm(st.fsri, out),
                                                st.fsri)))
    assert np.array_equal(C._newton_operator(p, eps, st, packer)(x), want)

    c = float(np.mean(np.trace(p.zero_order_id(),
                               axis1=-2, axis2=-1).real)) / p.rank
    sym = p.geom.p_symbol + (eps + max(c, 0.0) + 1e-12)
    axes = tuple(range(len(p.geom.shape)))
    hh = np.fft.fftn(packer.unpack(x), axes=axes)
    hh /= sym.reshape(sym.shape + (1, 1))
    want = packer.pack(fiber.herm_part(np.fft.ifftn(hh, axes=axes)))
    assert np.array_equal(C._precond_operator(p, eps, packer)(x), want)


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
    quiet = ContinuationConfig(full_diagnostics=False)
    for problems in ((pa, pb, pa), (hz, hn, hz)):
        shared = MetricState(s)
        for p in problems:
            assert np.array_equal(C.d2lhat_apply(p, 0.5, shared, v),
                                  C.d2lhat_apply(p, 0.5, MetricState(s), v))
            assert np.array_equal(residual_parts(p, 0.5, shared),
                                  residual_parts(p, 0.5, MetricState(s)))
            defect_got, defect_want = [
                diagnostics_check(p, 0.5, x, 0.0, None, 0, quiet).skew_defect
                for x in (shared, MetricState(s))]
            assert defect_got == defect_want
            assert np.array_equal(lhat_raw(p, 0.5, shared),
                                  lhat_raw(p, 0.5, MetricState(s)))


def test_state_assembles_its_curvature_once(rng, monkeypatch):
    # one state through the residual, three matvecs and the two
    # diagnostics builds its curvature, f^-1 d0 f and, for a Higgs
    # problem, the adjoint f^-1 theta^H f once each
    counts = Counter()
    update, d0_end = PairProblem.curvature_update, PairProblem.d0_end

    def counted_update(self, st):
        counts["update"] += 1
        return update(self, st)

    def counted_d0(self, x):
        counts["d0 f"] += x is st.f
        return d0_end(self, x)

    def counted_mm(a, b):
        # the product f^-1 theta^H that starts the adjoint
        counts["adjoint"] += a is st.finv and b is p.theta_dag
        return fiber.mm(a, b)

    monkeypatch.setattr(PairProblem, "curvature_update", counted_update)
    monkeypatch.setattr(PairProblem, "d0_end", counted_d0)
    monkeypatch.setattr(higgs_mod, "mm", counted_mm)
    for name in ("rank2-extension", "higgs-nilpotent"):
        p = instances.make(name, n=8)
        higgs = hasattr(p, "theta_dag")
        st = MetricState(rand_band_herm(p.geom, rng, 2, amp=0.3))
        counts.clear()
        residual_parts(p, 0.5, st)
        for _ in range(3):
            C.d2lhat_apply(p, 0.5, st, rand_band_herm(p.geom, rng, 2, amp=0.3))
        energy_identity_gap(p, 0.5, st)
        monotone_gap(p, st)
        assert (counts["update"], counts["d0 f"], counts["adjoint"]) \
            == (1, 1, int(higgs)), name


def test_state_builds_its_kernels_once(rng, monkeypatch):
    # the dexp kernel matrix depends only on the spectrum of s: one
    # state through several Newton matvecs and a Ritz probe builds it
    # once, and every matvec is the one a fresh state gives
    counts = Counter()
    dexp_kernel = fiber.dexp_kernel

    def counted_dexp(x, y):
        counts["dexp"] += 1
        return dexp_kernel(x, y)

    monkeypatch.setattr(fiber, "dexp_kernel", counted_dexp)
    eps = 0.5
    for name in ("rank2-extension", "torus-stable"):
        p = instances.make(name, n=8)
        packer = HermPacker(p.geom.shape, p.rank)
        s = rand_band_herm(p.geom, rng, p.rank, amp=0.3)
        st = MetricState(s)
        mv = C._newton_operator(p, eps, st, packer)
        xs = [rng.standard_normal(packer.size) for _ in range(3)]
        counts.clear()
        got = [mv(x) for x in xs]
        C.min_ritz_estimate(p, eps, st)
        assert counts["dexp"] == 1, name
        for x, y in zip(xs, got):
            fresh = C._newton_operator(p, eps, MetricState(s), packer)
            assert np.array_equal(y, fresh(x)), name


# ---------------------------------------------------------------------------
# scalar solve oracles

def test_newton_matches_scalar_root_eps_one():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    st, it, _ = newton_solve_at(p, 1.0, st0, cfg)
    root = brentq(lambda f: 0.5 * f - 1.0 + math.log(f), 0.1, 5.0,
                  xtol=1e-14)
    assert fiber.sup_norm(st.f - root) < 1e-10
    assert it <= 10


def test_newton_matches_scalar_root_eps_half():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    st1, _, _ = newton_solve_at(p, 1.0, st0, cfg)
    st, _, _ = newton_solve_at(p, 0.5, st1, cfg)
    root = brentq(lambda f: 0.5 * f - 1.0 + 0.5 * math.log(f), 0.1, 5.0,
                  xtol=1e-14)
    assert fiber.sup_norm(st.f - root) < 1e-10


def test_newton_failure_and_best_effort():
    p = instances.make("trivial", n=16)
    cfg = ContinuationConfig(newton_tol=1e-12, newton_max=0)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    # at s = 0 the residual is 1/2 - tau/2 = -1/2
    with pytest.raises(NewtonFailure, match=r"^newton budget exhausted at "
                       r"eps=1 \(residual 5\.000e-01\)$"):
        newton_solve_at(p, 1.0, st0, cfg)
    st, it, _ = newton_solve_at(p, 1.0, st0, cfg, best_effort=True)
    assert it == 0 and fiber.sup_norm(st.s) == 0.0
    # a give-up inside the 10x band of newton_tol returns the state, one
    # just outside it raises
    st, it, _ = newton_solve_at(
        p, 1.0, st0, ContinuationConfig(newton_tol=0.06, newton_max=0))
    assert st is st0 and it == 0
    with pytest.raises(NewtonFailure, match="budget"):
        newton_solve_at(p, 1.0, st0,
                        ContinuationConfig(newton_tol=0.04, newton_max=0))


# ---------------------------------------------------------------------------
# the linear solver

class _Dense:
    """A dense matrix as an operator object that counts its matvecs."""

    def __init__(self, mat):
        self.mat, self.calls = mat, 0
        self.shape, self.dtype = mat.shape, mat.dtype

    def matvec(self, x):
        self.calls += 1
        return self.mat @ x


def _spread_system(rng, n=200):
    # eigenvalues from 1 to 1000 and a small nonsymmetric part: GMRES
    # needs about 100 steps for 1e-10, more than its one cycle holds
    a = np.diag(np.linspace(1.0, 1000.0, n))
    a += 0.1 * rng.standard_normal((n, n)) / math.sqrt(n)
    return _Dense(a), _Dense(np.eye(n)), rng.standard_normal(n)


def test_gmres_matches_dense_solve(rng):
    n = 60
    a = np.eye(n) * 4.0 + rng.standard_normal((n, n)) / math.sqrt(n)
    a *= rng.uniform(0.5, 2.0, n)[:, None]
    amat = _Dense(a)
    mmat = _Dense(np.diag(1.0 / np.diag(a)))
    b = rng.standard_normal(n)
    rtol = 1e-10
    x, info = C.gmres(amat, b, rtol, C.GMRES_MAXITER, mmat)
    assert info == 0
    assert 0 < amat.calls == mmat.calls <= n
    bn = np.linalg.norm(b)
    assert np.linalg.norm(b - a @ x) <= rtol * bn * (1.0 + 1e-8)
    want = np.linalg.solve(a, b)
    cond = np.linalg.cond(a)
    assert np.linalg.norm(x - want) <= 10.0 * cond * rtol * np.linalg.norm(want)


def test_gmres_stops_after_one_cycle(rng):
    # a solve that needs more than GMRES_MAXITER steps spends exactly
    # that many, each one matvec and one preconditioner application, and
    # hands back the minimal residual over its one Krylov space
    amat, mmat, b = _spread_system(rng)
    m = C.GMRES_MAXITER
    x, info = C.gmres(amat, b, 1e-10, m, mmat)
    assert info == m
    assert amat.calls == mmat.calls == m
    res = np.linalg.norm(b - amat.mat @ x)
    assert res < np.linalg.norm(b)
    # the space span{b, A b, ..., A^(m-1) b}, orthonormalized twice
    basis = np.empty((m, b.size))
    basis[0] = b / np.linalg.norm(b)
    for j in range(1, m):
        w = amat.mat @ basis[j - 1]
        for _ in range(2):
            w -= (basis[:j] @ w) @ basis[:j]
        basis[j] = w / np.linalg.norm(w)
    c = np.linalg.lstsq(amat.mat @ basis.T, b, rcond=None)[0]
    assert res == pytest.approx(np.linalg.norm(b - amat.mat @ (basis.T @ c)),
                                rel=1e-6)


@pytest.mark.parametrize("maxiter", [1, 30, C.GMRES_MAXITER])
def test_gmres_partial_solve_spends_at_most_maxiter(rng, maxiter):
    amat, mmat, b = _spread_system(rng)
    x, info = C.gmres(amat, b, 1e-10, maxiter, mmat)
    assert info > 0
    assert amat.calls <= maxiter and mmat.calls <= maxiter
    # the partial step still lowers the residual
    assert np.linalg.norm(b - amat.mat @ x) < np.linalg.norm(b)


@pytest.mark.parametrize("maxiter", [0, -1])
def test_gmres_rejects_maxiter_below_one(maxiter):
    amat, mmat = _Dense(np.eye(3)), _Dense(np.eye(3))
    with pytest.raises(ValueError, match="maxiter >= 1"):
        C.gmres(amat, np.ones(3), 1e-8, maxiter, mmat)
    assert amat.calls == mmat.calls == 0


def test_gmres_zero_rhs_spends_no_matvec():
    amat, mmat = _Dense(np.eye(5)), _Dense(np.eye(5))
    x, info = C.gmres(amat, np.zeros(5), 1e-8, C.GMRES_MAXITER, mmat)
    assert info == 0 and amat.calls == mmat.calls == 0
    assert np.array_equal(x, np.zeros(5))


def test_gmres_identity_stops_after_one_matvec(rng):
    # the second Arnoldi vector vanishes: no division by its zero norm
    # (RuntimeWarning is an error under pytest)
    amat, mmat = _Dense(np.eye(7)), _Dense(np.eye(7))
    b = rng.standard_normal(7)
    x, info = C.gmres(amat, b, 1e-12, C.GMRES_MAXITER, mmat)
    assert info == 0 and amat.calls == mmat.calls == 1
    assert np.allclose(x, b, rtol=1e-14, atol=0.0)


def test_gmres_singular_operator_is_a_breakdown():
    amat, mmat = _Dense(np.zeros((4, 4))), _Dense(np.eye(4))
    _, info = C.gmres(amat, np.ones(4), 1e-8, C.GMRES_MAXITER, mmat)
    assert info < 0 and amat.calls == 1


def test_newton_turns_a_linear_breakdown_into_failure(monkeypatch):
    p = instances.make("trivial", n=16)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    monkeypatch.setattr(C, "gmres",
                        lambda amat, b, *args: (np.zeros_like(b), -1))
    with pytest.raises(NewtonFailure, match="breakdown"):
        newton_solve_at(p, 1.0, st0, ContinuationConfig())


def _stopping_short(gmres, calls=None):
    """gmres, except that the calls numbered in calls (all when None)
    hand back their x as a solve stopped at 5 matvecs."""
    seen = []

    def solve(amat, b, *args):
        x, info = gmres(amat, b, *args)
        seen.append(info)
        if calls is None or len(seen) in calls:
            return x, 5
        return x, info
    return solve


def test_newton_gives_up_on_a_partial_linear_solve(monkeypatch):
    p = instances.make("trivial", n=16)
    st0 = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    monkeypatch.setattr(C, "gmres", _stopping_short(C.gmres))
    with pytest.raises(NewtonFailure, match=r"^linear solve stopped at 5 "
                       r"matvecs at eps=1 \(residual "):
        newton_solve_at(p, 1.0, st0, ContinuationConfig())
    # the gauge polish keeps the state it stopped at
    out, it, rn = newton_solve_at(p, 1.0, st0, ContinuationConfig(),
                                  best_effort=True)
    assert out is st0 and it == 0
    assert rn == fiber.sup_norm(residual_parts(p, 1.0, st0))


def test_a_partial_linear_solve_halves_its_stop(monkeypatch):
    # the first linear solve of the first stop (eps 0.7) stops short:
    # the stop is halved to 0.85, and the run ends as it does unpatched
    p = instances.make("trivial", n=8)
    cfg = ContinuationConfig(full_diagnostics=False)
    want = run_continuation(p, cfg)
    monkeypatch.setattr(C, "gmres", _stopping_short(C.gmres, calls={1}))
    out = run_continuation(p, cfg)
    eps = [rec.eps for rec in out.report.trace]
    assert [rec.eps for rec in want.report.trace][:2] == [1.0, 0.7]
    assert eps[:2] == [1.0, 0.85]
    assert out.verdict == want.verdict == "converged"
    assert out.report.cause == want.report.cause
    assert eps[-2:] == [cfg.eps_min, 0.0]
    _assert_report_reads_its_trace(out)


@pytest.mark.parametrize("name", ["rank2-extension", "torus-stable"])
def test_newton_linear_solve_meets_the_true_residual(name, monkeypatch):
    # right preconditioning bounds |b - A x| itself; a left-preconditioned
    # solver bounds only |M (b - A x)|
    gauge = initial_gauge(instances.make(name, n=8))
    gp, st = gauge.problem, MetricState(gauge.s1)
    cfg = ContinuationConfig()
    solves, solve = [], C.gmres

    def recording(amat, b, *args):
        x, info = solve(amat, b, *args)
        solves.append((amat, b, x, info))
        return x, info

    monkeypatch.setattr(C, "gmres", recording)
    # the Armijo search may stall this far from the start; every linear
    # solve up to there counts
    newton_solve_at(gp, 0.5, st, cfg, best_effort=True)
    assert solves
    for amat, b, x, info in solves:
        assert info == 0
        res = np.linalg.norm(b - amat.matvec(x))
        assert res <= cfg.linear_rtol * np.linalg.norm(b) * (1.0 + 1e-6)


def test_residual_public_vs_state_route(rng):
    p = instances.make("torus-wave", n=16)
    st = _state_rank1(p.geom, rng)
    r_state = residual_parts(p, 0.3, st)
    r_pub = C.residual_L(p, 0.3, st.f)
    assert fiber.sup_norm(r_state - r_pub) < 1e-12


# ---------------------------------------------------------------------------
# linearization against finite differences

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
            want = fd_lhat(p, eps, st, v)
            rel = fiber.sup_norm(got - want) / max(1.0, fiber.sup_norm(want))
            assert rel < 1e-5


def _spectra_fields(rng, gshape, r):
    """Hermitian fields of rank r on gshape, named by their spectra:
    random and, from rank 2 on, the first two eigenvalues exactly equal
    or split by 1e-9, each rotated by a random unitary per point; the
    equal pair also unrotated, which at rank 2 is c I."""
    npts = int(np.prod(gshape))
    q = np.linalg.qr(rng.standard_normal((npts, r, r))
                     + 1j * rng.standard_normal((npts, r, r)))[0]
    w = rng.uniform(-3.0, 3.0, size=(npts, r))
    spectra = {"random": w}
    if r > 1:
        spectra["repeated"], spectra["split"] = w.copy(), w.copy()
        spectra["repeated"][:, 1] = w[:, 0]
        spectra["split"][:, 1] = w[:, 0] + 1e-9
    out = {k: fiber.herm_part((q * lam[:, None, :])
                              @ np.conjugate(np.swapaxes(q, -1, -2)))
           for k, lam in spectra.items()}
    if r > 1:
        out["diagonal repeated"] = np.zeros((npts, r, r), dtype=complex)
        out["diagonal repeated"][:, np.arange(r), np.arange(r)] = \
            spectra["repeated"]
    return {k: v.reshape(gshape + (r, r)) for k, v in out.items()}


def test_eps_term_is_the_inverse_psi_route(rng, monkeypatch):
    # in s-coordinates the eps term of the linearization is eps f vh;
    # an f-space solver writes it as eps f dlog_f[dexp_s[vh]] through
    # the 1/Psi kernel. Rank 1 gives the same floats; at ranks 2 and 3
    # the two routes agree to roundoff on every kind of spectrum
    products = []

    def tapped_mm(a, b):
        out = fiber.mm(a, b)
        products.append((a, b, out))
        return out

    monkeypatch.setattr(C, "mm", tapped_mm)
    wave = instances.make("torus-wave", n=8)
    problems = (wave, instances.make("rank2-extension", n=8),
                PairProblem(wave.geom, 3, np.zeros((3, 3)), np.zeros(3), 0.0))
    for p in problems:
        fields = _spectra_fields(rng, tuple(p.geom.shape), p.rank)
        for kind, s in fields.items():
            st = MetricState(s)
            vh = rand_herm(rng, tuple(p.geom.shape), p.rank)
            products.clear()
            C.d2lhat_apply(p, 0.4, st, vh)
            got = [out for a, b, out in products if a is st.f and b is vh]
            assert len(got) == 1, (p.rank, kind)
            want = eps_term_through_inverse_psi(st, vh)
            if p.rank == 1:
                assert np.array_equal(got[0], want), kind
            else:
                rel = fiber.sup_norm(got[0] - want) / fiber.sup_norm(want)
                assert rel <= 1e-13, (p.rank, kind, rel)


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
        assert abs(g.problem.degree() - p.degree()) <= 1e-6, name


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


def _assert_report_reads_its_trace(out):
    # the report's totals are those of its trace, and the last record is
    # that of the state the run hands back
    rep = out.report
    assert rep.newton_total == sum(rec.newton_iters for rec in rep.trace)
    if not rep.trace:
        assert math.isnan(rep.final_sup_log_f)
        return
    assert rep.final_sup_log_f == rep.trace[-1].sup_log_f
    assert rep.final_sup_log_f == fiber.sup_norm(out.state.s)


def _assert_failed_gauge(out, exc_name):
    rep = out.report
    assert out.verdict == "failed"
    assert rep.cause.startswith("gauge: %s: " % exc_name), rep.cause
    assert rep.trace == [] and rep.newton_total == 0
    assert math.isnan(rep.final_residual)
    assert math.isnan(rep.final_sup_log_f)
    assert out.gauge is None and out.state is None
    _assert_report_reads_its_trace(out)


def test_non_positive_start_is_a_failed_verdict():
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    out = run_continuation(instances.make("trivial", n=16), cfg, h_start=-1.0)
    _assert_failed_gauge(out, "ClampError")
    assert "not positive definite" in out.report.cause


def test_gauge_domain_error_is_a_failed_verdict():
    rng = np.random.default_rng(4)
    p = instances.make("rank2-extension", n=16)
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    out = run_continuation(p, cfg,
                           h_start=gauge_probe(p.geom, 2, rng, constant=False))
    _assert_failed_gauge(out, "GaugeDomainError")
    assert "sup|K| " in out.report.cause
    assert "out of the commutant" in out.report.cause


def test_non_hermitian_start_is_a_failed_verdict():
    # a 1e-3 anti-Hermitian part: the cause gives the skew defect
    skew = 1e-3 / math.sqrt(2.0) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = instances.make("rank2-caseb", n=8)
    h = np.broadcast_to(np.eye(2) + skew, tuple(p.geom.shape) + (2, 2))
    out = run_continuation(p, ContinuationConfig(full_diagnostics=False),
                           h_start=h)
    _assert_failed_gauge(out, "NotHermitianError")
    assert ("starting metric is not Hermitian: skew defect 1.000e-03"
            in out.report.cause)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["trivial", "rank2-caseb"])
def test_a_non_finite_start_is_a_failed_verdict(name, bad):
    # rejected as the input it is, before the rebasing sees it
    p = instances.make(name, n=6)
    h = np.zeros(tuple(p.geom.shape) + (p.rank, p.rank), dtype=complex)
    h[..., range(p.rank), range(p.rank)] = 1.0
    h[1, 2, 0, 0] = bad
    out = run_continuation(p, ContinuationConfig(full_diagnostics=False),
                           h_start=h)
    _assert_failed_gauge(out, "NotHermitianError")
    assert out.report.cause == ("gauge: NotHermitianError: starting metric "
                                "has non-finite entries")


@pytest.mark.parametrize("tau,scale,ksup", [
    (None, 1e30, "5.000e+29"), (None, 1e300, "nan"),
    (-1e6, None, "5.000e+05")], ids=["1e30", "1e300", "tau-1e6"])
def test_an_overflowing_rebasing_says_so(tau, scale, ksup):
    # exp(K) overflows (or K itself does, from the 1e300 start): the
    # cause gives sup|K|, not the clone's rejection of what the overflow
    # left in the rebased background
    kw = {} if tau is None else {"tau": tau}
    p = instances.make("trivial", n=8, **kw)
    h = None if scale is None else scale * np.ones(tuple(p.geom.shape)
                                                   + (1, 1))
    with pytest.warns(RuntimeWarning) as warned:
        out = run_continuation(p, ContinuationConfig(full_diagnostics=False),
                               h_start=h)
    assert any("overflow" in str(w.message) for w in warned)
    _assert_failed_gauge(out, "GaugeDomainError")
    assert out.report.cause == ("gauge: GaugeDomainError: the rebasing "
                                "exp(K) is not finite (sup|K| %s)" % ksup)


def test_a_rank1_skew_rebasing_gives_no_commutant_advice():
    # at rank 1 every field commutes: the skew part of this rebasing is
    # the size of exp(K), and the cause gives sup|K| instead
    p = instances.make("torus-stable", n=16)
    u = p.geom.random_band_scalar(np.random.default_rng(3), kmax=2, amp=0.5)
    out = run_continuation(p, ContinuationConfig(full_diagnostics=False),
                           h_start=np.exp(u)[..., None, None])
    _assert_failed_gauge(out, "GaugeDomainError")
    assert out.report.cause.startswith(
        "gauge: GaugeDomainError: rebased background curvature has "
        "non-Hermitian part ")
    assert out.report.cause.endswith(", sup|K| 4.433e+01)")


def test_a_ritz_probe_that_breaks_down_is_a_failed_verdict():
    # at tau = 1e300 the probe's Arnoldi matrix overflows and its SVD
    # does not converge: the run ends failed at the first record, with
    # the overflow warnings it raised on the way
    p = instances.make("rank2-caseb", n=8, tau=1e300)
    with pytest.warns(RuntimeWarning) as warned:
        out = run_continuation(p)
    assert any("overflow" in str(w.message) for w in warned)
    rep = out.report
    assert out.verdict == "failed"
    assert rep.cause == "ritz probe: SVD did not converge at eps=1"
    assert rep.trace == [] and math.isnan(rep.eps_reached)
    assert math.isnan(rep.final_residual)
    assert out.state is None
    _assert_report_reads_its_trace(out)


def test_a_probe_failure_after_the_first_stops_keeps_their_records(
        monkeypatch):
    # the third probe (the second stop) fails: the run hands back the
    # state of its last record, the first stop, and reports its eps
    calls = []

    def failing_third(p, eps, st):
        calls.append(eps)
        if len(calls) == 3:
            raise C.ProbeFailure("ritz probe: broken at eps=%g" % eps)
        return 1.0

    monkeypatch.setattr(C, "min_ritz_estimate", failing_third)
    out = run_continuation(instances.make("trivial", n=8))
    rep = out.report
    assert out.verdict == "failed"
    assert rep.cause == "ritz probe: broken at eps=0.49"
    assert [rec.eps for rec in rep.trace] == [1.0, 0.7]
    assert rep.eps_reached == rep.trace[-1].eps
    assert math.isnan(rep.final_residual)
    _assert_report_reads_its_trace(out)


# ---------------------------------------------------------------------------
# the schedule and the predictor

def _quick(name):
    args = cli.build_parser().parse_args(["solve", "--instance", name,
                                          "--quick"])
    cli.resolve_settings(args)
    return instances.make(name, n=args.grid), cli.build_config(args)


def test_schedule_snaps_a_target_next_to_eps_min():
    # 0.5 * 0.5 = 0.25 lies within EPS_MIN_SNAP of 0.2499: no stop at
    # 0.25 followed by a one-iteration stop at 0.2499
    cfg = ContinuationConfig(ratio=0.5, eps_min=0.2499,
                             full_diagnostics=False)
    out = run_continuation(instances.make("trivial", n=8), cfg)
    assert out.verdict == "converged"
    assert [rec.eps for rec in out.report.trace] == [1.0, 0.5, 0.2499, 0.0]


def test_predicted_start_is_closer_than_the_accepted_state(monkeypatch):
    prob, cfg = _quick("torus-wave")
    seen = []
    predict = C._predicted_start

    def recording(p, target, st, *args):
        start = predict(p, target, st, *args)
        seen.append([fiber.sup_norm(residual_parts(p, target, x))
                     for x in (start, st)] + [start is st])
        return start

    monkeypatch.setattr(C, "_predicted_start", recording)
    out = run_continuation(prob, cfg)
    assert out.verdict == "converged"
    # every stop but the first starts from a prediction, and the
    # prediction lowers the residual Newton starts from
    assert len(seen) == len(out.report.trace) - 2
    assert seen[0][2]
    for i, (r_start, r_accepted, same) in enumerate(seen[1:], 1):
        assert not same and r_start < r_accepted, (i, r_start, r_accepted)


def test_no_prediction_where_the_accepted_state_already_solves(monkeypatch):
    # theta = 0 makes s = 0 the solution at every eps: each stop keeps
    # the accepted state and builds no new one
    prob, cfg = _quick("higgs-theta-zero")
    built = Counter()

    class Counted(MetricState):
        __slots__ = ()

        def __init__(self, s):
            built["states"] += 1
            super().__init__(s)

    monkeypatch.setattr(C, "MetricState", Counted)
    out = run_continuation(prob, cfg)
    assert out.verdict == "converged" and out.report.newton_total == 0
    assert built["states"] == 4


def test_an_accepted_state_is_measured_once(monkeypatch):
    # Newton hands the residual it accepted to the diagnostics, and the
    # gauge the one at s1, so no record evaluates one. On
    # higgs-theta-zero (s = 0 solves every stop): the gauge's two, and
    # one Newton check at each of the 13 stops and the polish
    calls, inside = Counter(), []
    residual, check = C.residual_parts, C.diagnostics_check

    def counting(*args):
        calls["diagnostics" if inside else "elsewhere"] += 1
        return residual(*args)

    def flagged(*args):
        inside.append(True)
        try:
            return check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(C, "residual_parts", counting)
    monkeypatch.setattr(C, "diagnostics_check", flagged)
    name = "higgs-theta-zero"
    p = instances.make(name, n=instances.quick_grid(name))
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    out = run_continuation(p, cfg)
    assert out.verdict == "converged" and len(out.report.trace) == 15
    assert calls == {"elsewhere": 16}


@pytest.mark.parametrize("name,polished", [("torus-wave", True),
                                           ("rank2-extension", False)])
def test_the_first_record_reads_the_gauge_residual(name, polished):
    # the eps = 1 record takes the residual the gauge measured at s1, with
    # or without a polish: the same float as an evaluation at the state
    # that run_continuation rebuilds from s1
    prob, cfg = _quick(name)
    out = run_continuation(prob, cfg)
    gp, s1 = out.gauge.problem, out.gauge.s1
    assert (out.report.gauge_pre_residual > cfg.newton_tol) == polished
    want = fiber.sup_norm(residual_parts(gp, 1.0, MetricState(s1)))
    assert want > 0.0
    assert out.report.trace[0].residual_sup == want


def _trivial_stops(*eps_list):
    # accepted states of trivial (n=8) at each eps, each from the last
    p = instances.make("trivial", n=8)
    cfg = ContinuationConfig(newton_tol=1e-12, full_diagnostics=False)
    st = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    out = []
    for eps in eps_list:
        st, _, rn = newton_solve_at(p, eps, st, cfg)
        out.append((st, diagnostics_check(p, eps, st, rn, None, 0, cfg)))
    return p, cfg, out


def test_predictor_skip_rule_reads_the_record(monkeypatch):
    # the record bounds the residual at the new target; only where the
    # bounds straddle newton_tol is the residual itself evaluated
    p, cfg, [(st1, _), (st, rec)] = _trivial_stops(1.0, 0.5)
    hist = [(1.0, st1.s), (0.5, st.s)]
    loose = dataclasses.replace(rec, eps=0.75, residual_sup=1.0)
    assert C._predicted_start(p, 0.5, st, loose, hist, cfg) is st
    assert C._predicted_start(p, 0.4, st, loose, hist, cfg) is not st

    def no_residual(*args):
        raise AssertionError("the record decides")

    monkeypatch.setattr(C, "residual_parts", no_residual)
    solved = dataclasses.replace(rec, sup_log_f=0.0)
    assert C._predicted_start(p, 0.25, st, solved, hist, cfg) is st
    assert C._predicted_start(p, 0.25, st, rec, hist, cfg) is not st


def test_a_prediction_beyond_the_cap_is_not_used():
    # on trivial, s grows as eps falls, so the secant from eps 1 and 0.5
    # to 0.25 lies above the state at 0.5; a cap between the two drops
    # the prediction, and only a Newton iterate may then cross the cap
    p, tight, [(st1, _), (st, rec)] = _trivial_stops(1.0, 0.5)
    hist = [(1.0, st1.s), (0.5, st.s)]
    pred = C._predicted_start(p, 0.25, st, rec, hist, tight)
    assert np.array_equal(pred.s, st.s + 0.5 * (st.s - st1.s))
    assert fiber.sup_norm(pred.s) > fiber.sup_norm(st.s)

    cap = 0.5 * (fiber.sup_norm(st.s) + fiber.sup_norm(pred.s))
    cfg = ContinuationConfig(newton_tol=1e-12, newton_max=0, cap=cap)
    assert C._predicted_start(p, 0.25, st, rec, hist, cfg) is st
    with pytest.raises(C.CapExceeded):
        newton_solve_at(p, 0.25, pred, cfg)


def test_newton_applies_the_cap_unless_best_effort():
    # a start above cfg.cap raises CapExceeded; one at the cap does not,
    # and gives up on the budget instead. best_effort, the gauge polish,
    # takes no cap and hands the start back
    p = instances.make("trivial", n=8)
    st = MetricState(np.full(tuple(p.geom.shape) + (1, 1), 2.0,
                             dtype=complex))
    cfg = ContinuationConfig(newton_tol=1e-12, newton_max=0, cap=1.0)
    with pytest.raises(C.CapExceeded):
        newton_solve_at(p, 0.5, st, cfg)
    with pytest.raises(NewtonFailure, match="budget"):
        newton_solve_at(p, 0.5, st, dataclasses.replace(cfg, cap=2.0))
    out, it, rn = newton_solve_at(p, 0.5, st, cfg, best_effort=True)
    assert out is st and it == 0 and rn > cfg.newton_tol


@pytest.mark.parametrize("var,other", [(float, math.log), (math.log, float)],
                         ids=["eps", "log-eps"])
def test_the_quadratic_predictor_picks_the_variable_it_is_exact_in(var,
                                                                   other):
    # s on a quadratic in var(eps): the back-test finds var, and the
    # extrapolation through the newest three pairs hits the quadratic
    rng = np.random.default_rng(3)
    a, b, c = rng.standard_normal((3, 4, 5, 1, 1))
    eps_list = [1.0, 0.7, 0.49, 0.343]
    hist = [(e, a + b * var(e) + c * var(e) ** 2) for e in eps_list]
    assert C._eps_variable(hist) is var
    x = var(0.2401)
    exact = a + b * x + c * x ** 2
    miss = [fiber.sup_norm(C._quadratic(v, hist[1:], 0.2401) - exact)
            for v in (var, other)]
    assert miss[0] <= 1e-12 < 1e-2 < miss[1]


@pytest.mark.parametrize("name,var,other", [
    ("torus-unstable", math.log, float), ("trivial", float, math.log)])
def test_the_back_test_picks_the_cheaper_variable(monkeypatch, name, var,
                                                  other):
    # the unstable run grows like log(1/eps) until it crosses the cap;
    # the trivial solution is smooth in eps. Every quadratic stop picks
    # var, and forcing the other variable costs Newton iterations
    cfg = ContinuationConfig(full_diagnostics=False)
    pick = C._eps_variable
    picked = []

    def recording(hist):
        picked.append(pick(hist))
        return picked[-1]

    monkeypatch.setattr(C, "_eps_variable", recording)
    out = run_continuation(instances.make(name, n=8), cfg)
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert picked and set(picked) == {var}

    monkeypatch.setattr(C, "_eps_variable", lambda hist: other)
    forced = run_continuation(instances.make(name, n=8), cfg)
    assert [r.eps for r in forced.report.trace] == [
        r.eps for r in out.report.trace]
    assert out.report.newton_total < forced.report.newton_total


# ---------------------------------------------------------------------------
# full continuation runs (small grids)

@pytest.fixture(scope="module")
def trivial_run():
    return run_continuation(instances.make("trivial", n=16))


@pytest.fixture(scope="module")
def stable_tapped():
    return tapped(run_continuation, instances.make("torus-stable", n=16))


@pytest.fixture(scope="module")
def stable_run(stable_tapped):
    return stable_tapped[0]


def _check_state_certificates(taps):
    # the monotone pairing and the pointwise P-inequality at every
    # accepted state, which the run itself does not record
    for p, st, rec in taps:
        assert monotone_gap(p, st) >= -1e-12, rec.eps
        assert calc_inequality_margin(p, rec.eps, st) <= discretization_slack(
            p, st), rec.eps


def test_trivial_run_converges_to_two(trivial_run):
    out = trivial_run
    assert out.verdict == "converged"
    assert out.report.final_residual <= 1e-9
    m = final_metric_original_frame(out.gauge, out.state)
    assert fiber.sup_norm(m - 2.0) < 1e-8


def test_trace_schedule_and_diagnostics(stable_tapped):
    stable_run, taps = stable_tapped
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
        if r.eps > 0.0:
            assert r.min_ritz > 0.0
    assert [id(rec) for _, _, rec in taps] == [id(r) for r in rep.trace]
    _check_state_certificates(taps)
    assert rep.gauge_post_residual <= 1e-10
    assert rep.newton_total > 0
    _assert_report_reads_its_trace(stable_run)
    assert rep.window[0] == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("name", ["hopf-stable", "hopf-wave", "torus-wave",
                                  "rank2-extension", "higgs-nilpotent"])
def test_state_certificates_on_quick_runs(name):
    # the same checks at the `solve --quick` settings on the Hopf
    # torsion backend, at rank 2 and with a Higgs field
    out, taps = tapped(run_continuation, *_quick(name))
    assert out.verdict == instances.EXPECTED_VERDICTS[name]
    assert len(taps) == len(out.report.trace)
    _check_state_certificates(taps)


def test_unstable_run_caps_late():
    out = run_continuation(instances.make("torus-unstable", n=16))
    assert out.verdict == "diverged"
    assert out.report.cause.startswith("cap at eps=")
    # the cap must hit before the schedule reaches eps = 1e-2: the
    # blowup is the no-solution signal, not a late-schedule artifact
    assert out.report.eps_reached >= 1e-2
    _assert_report_reads_its_trace(out)


def test_newton_budget_exhaustion_fails_the_run():
    # with no Newton step allowed the first stop fails, and so does every
    # halving of it
    out = run_continuation(instances.make("trivial", n=8),
                           ContinuationConfig(newton_max=0))
    assert out.verdict == "failed"
    assert out.report.cause == ("newton: newton budget exhausted at "
                                "eps=0.998828 (residual 5.859e-04)")
    assert out.report.eps_reached == 1.0
    assert len(out.report.trace) == 1
    _assert_report_reads_its_trace(out)


def test_a_stalled_line_search_tries_eleven_steps(monkeypatch):
    # a zero Newton step leaves the residual where it is, so Armijo
    # rejects alpha = 1, 1/2, ..., 2^-10 (ARMIJO_MIN) and then stalls
    p = instances.make("trivial", n=8)
    st = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))
    monkeypatch.setattr(C, "gmres", lambda amat, b, *args: (0.0 * b, 0))
    evaluated = []
    residual = C.residual_parts

    def counting(p, eps, st):
        evaluated.append(st)
        return residual(p, eps, st)

    monkeypatch.setattr(C, "residual_parts", counting)
    with pytest.raises(NewtonFailure, match="line search stalled at eps=0.5"):
        newton_solve_at(p, 0.5, st, ContinuationConfig())
    assert evaluated[0] is st
    assert len(evaluated[1:]) == 11


def test_newton_gives_up_on_a_residual_that_is_not_finite(monkeypatch):
    # no linear solve is tried on a NaN right-hand side (GMRES would
    # spend its whole budget on it): the solve stops at once
    p = instances.make("trivial", n=8)
    st = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1)))

    def no_gmres(*args):
        raise AssertionError("no linear solve")

    monkeypatch.setattr(C, "gmres", no_gmres)
    monkeypatch.setattr(C, "residual_parts",
                        lambda p, eps, st: np.full(st.s.shape, math.nan))
    with pytest.raises(NewtonFailure, match=r"^residual not finite at "
                       r"eps=0\.5 \(residual nan\)$"):
        newton_solve_at(p, 0.5, st, ContinuationConfig())
    out, it, rn = newton_solve_at(p, 0.5, st, ContinuationConfig(),
                                  best_effort=True)
    assert out is st and it == 0 and math.isnan(rn)


@pytest.mark.parametrize("cap,verdict,cause,eps_reached", [
    (3.2, "diverged", "cap during polish", 0.0),
    (50.0, "boundary", "polish failed: line search stalled at eps=0 "
     "(residual 1.257e+00)", 0.5),
], ids=["cap", "stall"])
def test_polish_exits(cap, verdict, cause, eps_reached):
    # torus-unstable reaches eps_min = 0.5 below both caps; the eps = 0
    # polish then crosses the lower cap, or stalls under the default one
    cfg = ContinuationConfig(eps_min=0.5, cap=cap)
    out = run_continuation(instances.make("torus-unstable", n=8), cfg)
    rep = out.report
    assert (rep.verdict, rep.cause, rep.eps_reached) == (verdict, cause,
                                                         eps_reached)
    assert [rec.eps for rec in rep.trace] == [1.0, 0.7, 0.5]
    _assert_report_reads_its_trace(out)


def test_uniqueness_probe_needs_two_converged_runs():
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    with pytest.raises(NewtonFailure, match="got diverged/diverged"):
        uniqueness_probe(instances.make("torus-unstable", n=8), cfg)


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
    # the identity at eps = 0, at the polished final state
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
    r = C.min_ritz_estimate(gp, 1e-3, stable_run.state)
    assert r > 0.0


@pytest.mark.parametrize("name,n", [
    ("higgs-theta-zero", 4), ("trivial", 8), ("torus-stable", 8),
    ("hopf-stable", 16), ("rank2-extension", 4)])
@pytest.mark.parametrize("eps", [0.5, 0.01])
def test_min_ritz_bounds_dense_smallest_singular_value(name, n, eps):
    # the probe is sigma_min of the Arnoldi matrix over an orthonormal
    # Krylov basis, so it cannot lie below the smallest singular value
    # of the preconditioned Newton operator, assembled here densely
    gauge = initial_gauge(instances.make(name, n=n))
    gp, st = gauge.problem, MetricState(gauge.s1)
    packer = HermPacker(gp.geom.shape, gp.rank)
    assert packer.size <= 128
    amv = C._newton_operator(gp, eps, st, packer)
    mop = C._precond_operator(gp, eps, packer)
    dense = np.column_stack([mop(amv(e)) for e in np.eye(packer.size)])
    smin = np.linalg.svd(dense, compute_uv=False)[-1]
    assert smin > 0.0
    probe = C.min_ritz_estimate(gp, eps, st)
    assert probe >= smin * (1.0 - 1e-10), (probe, smin)


@pytest.mark.parametrize("name,n", [
    ("trivial", 8), ("torus-stable", 8), ("hopf-stable", 16),
    ("torus-unstable", 8), ("hopf-unstable", 16), ("rank2-caseb", 6),
    ("rank2-extension", 6), ("higgs-nilpotent", 6), ("higgs-theta-zero", 4)])
def test_newton_operator_bounded_below_by_eps(name, n):
    # the discrete openness step: at an accepted eps > 0 the packed
    # Newton operator A, assembled densely, has sigma_min(A) >= eps. Its
    # eps branch is eps times a symmetric map with eigenvalues >= 1, and
    # the rest is positive semidefinite in the continuum. Rank 1 checks
    # every eps > 0 state; rank 2 (64 or 144 matvecs per state) the
    # first, the middle and the last
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    _, taps = tapped(run_continuation, instances.make(name, n=n), cfg)
    states = [(p, st, rec.eps) for p, st, rec in taps if rec.eps > 0.0]
    if states[0][0].rank > 1:
        states = [states[0], states[len(states) // 2], states[-1]]
    for p, st, eps in states:
        packer = HermPacker(p.geom.shape, p.rank)
        amv = C._newton_operator(p, eps, st, packer)
        dense = np.column_stack([amv(e) for e in np.eye(packer.size)])
        smin = np.linalg.svd(dense, compute_uv=False)[-1]
        assert smin >= eps * (1.0 - 1e-8), (eps, smin / eps)


def test_min_ritz_floor_is_one_on_identity_operator(monkeypatch):
    # higgs-theta-zero has K0 = 0, so s = 0 at every eps and the
    # preconditioned Newton operator is the identity: each probe stops
    # at its invariant subspace after at most two matvecs, at 1
    matvecs, probes = [0], []
    newton_operator, probe = C._newton_operator, C.min_ritz_estimate

    def counting_operator(*args):
        mv = newton_operator(*args)

        def counted(x):
            matvecs[0] += 1
            return mv(x)
        return counted

    def recording_probe(*args):
        matvecs[0] = 0
        r = probe(*args)
        probes.append((r, matvecs[0]))
        return r

    monkeypatch.setattr(C, "_newton_operator", counting_operator)
    monkeypatch.setattr(C, "min_ritz_estimate", recording_probe)
    name = "higgs-theta-zero"
    p = instances.make(name, n=instances.quick_grid(name))
    out = run_continuation(p, ContinuationConfig(eps_min=1e-2))
    assert out.verdict == "converged"
    probed = [r.min_ritz for r in out.report.trace if r.eps > 0.0]
    assert len(probes) == len(probed) > 0
    assert [r for r, _ in probes] == probed
    for r, k in probes:
        assert abs(r - 1.0) <= 1e-8
        assert 1 <= k <= 2


def test_min_ritz_zero_operator_is_exactly_zero(monkeypatch):
    # an exact zero image breaks down at once: 0.0, not NaN or a
    # division by zero (RuntimeWarning is an error under pytest)
    p = instances.make("torus-stable", n=8)
    monkeypatch.setattr(C, "_newton_operator",
                        lambda *args: lambda x: np.zeros_like(x))
    st = MetricState(np.zeros(tuple(p.geom.shape) + (1, 1), dtype=complex))
    assert C.min_ritz_estimate(p, 0.5, st) == 0.0


def test_diagnostics_record_fields(stable_run):
    gp = stable_run.gauge.problem
    st = stable_run.state
    rn = fiber.sup_norm(residual_parts(gp, 0.5, st))
    rec = diagnostics_check(gp, 0.5, st, rn, None, 0, ContinuationConfig())
    assert rec.eps == 0.5
    assert rec.apriori_margin == (
        rec.sup_log_f - fiber.sup_norm(gp.k0_field()) / 0.5)
    assert math.isfinite(rec.min_ritz)


def test_cauchy_increment_symmetric_form(rng):
    # the recorded increment is sup|log(f_prev^(-1/2) f f_prev^(-1/2))|
    p = instances.make("trivial", n=16)
    st_prev = _state_rank1(p.geom, rng, amp=0.2)
    st = _state_rank1(p.geom, rng, amp=0.25)
    rn = fiber.sup_norm(residual_parts(p, 0.5, st))
    rec = diagnostics_check(p, 0.5, st, rn, st_prev, 0,
                            ContinuationConfig(full_diagnostics=False))
    m = fiber.herm_part(st_prev.fsri @ st.f @ st_prev.fsri)
    want = fiber.sup_norm(fiber.herm_log(m))
    assert rec.cauchy_increment == pytest.approx(want, rel=1e-12)
