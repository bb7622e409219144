"""Perturbed-equation continuation solver.

The equation family, in the frame where the reference metric is the
identity and f = exp(s):

    L_eps(f) = iLF0 + iL dbar_A(f^-1 d0 f) + (1/2) phi phi^H f
               - (tau/2) id + eps s

The solver works with the conjugated residual R(s) = f^(1/2) L_eps(f)
f^(-1/2), which is Hermitian in the continuum. Discretely the
conjugated first two terms pick up an anti-Hermitian truncation defect;
the residual operator returns the Hermitian part and the defect size is
tracked in the diagnostics. The eps s term commutes with f and is
exact.

Newton runs in s with the exact derivative of Lhat := f L_eps(f) along
the positive path f_t = f exp(t f^-1 v):

    d2Lhat[v] = v L_eps(f) + f iL dbar_A(f^-1 d0 v - f^-1 v f^-1 d0 f)
                + (1/2) f phi phi^H v + eps (f dlog_f[v])

where (f dlog_f[v]) has entries vhat_ij / Psi(l_i, l_j) in the
eigenbasis of s. The commonly quoted form replaces the last term by
eps v, which is only exact when [f, v] = 0; the exact kernel is what
makes the finite-difference consistency check pass at 1e-5.

Linear solves are GMRES on a real isometric packing of Hermitian
fields, preconditioned by the constant-coefficient symbol of the
dominant operator.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from . import fiber, pair as pair_mod
from ._kernels import apply_one, apply_two
from .fiber import frob, herm_part, sup_norm
from .pair import PairProblem

# Newton line search, linear solve and step control
ARMIJO_FACTOR = 0.5
ARMIJO_MIN = 2.0 ** -10
ARMIJO_C1 = 1e-4
GMRES_MAXITER = 400
HALVINGS_MAX = 8
RITZ_STEPS = 10                   # Arnoldi size for the injectivity probe


def _gmres(amat, b, rtol, maxiter, mmat):
    # scipy's maxiter counts restart cycles, not matvecs; convert so
    # maxiter bounds the total work
    restart = 80
    cycles = max(1, -(-maxiter // restart))
    return gmres(amat, b, rtol=rtol, atol=0.0, restart=restart,
                 maxiter=cycles, M=mmat)


@dataclass
class ContinuationConfig:
    eps_min: float = 1e-3
    ratio: float = 0.7            # geometric schedule factor
    newton_tol: float = 1e-10     # sup-norm residual acceptance
    newton_max: int = 50
    linear_rtol: float = 1e-8
    cap: float = 50.0             # sup|log f| divergence cap
    polish: bool = True           # final eps = 0 Newton
    full_diagnostics: bool = True

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("schedule ratio must be in (0, 1)")
        for name in ("eps_min", "newton_tol", "linear_rtol", "cap"):
            # written so that NaN fails too
            if not getattr(self, name) > 0:
                raise ValueError("%s must be positive" % name)


@dataclass
class DiagnosticsRecord:
    eps: float
    residual_sup: float
    sup_log_f: float
    apriori_bound: float          # sup|K0| / eps (inf at eps = 0)
    apriori_margin: float         # sup_log_f - apriori_bound, <= slack
    energy_gap: float
    energy_scale: float
    cauchy_increment: float       # sup|log(f_prev^-1 f)| between accepted states
    newton_iters: int
    min_ritz: float               # smallest Ritz singular value estimate
    skew_defect: float            # anti-Hermitian truncation defect of R
    monotone_gap: float           # pairing of section term increments, >= -tol
    l2_log_f: float
    calc_margin: float            # max pointwise violation of the P-inequality

    def row(self):
        return [self.eps, self.residual_sup, self.sup_log_f,
                self.apriori_margin, self.energy_gap,
                self.cauchy_increment, self.newton_iters]


@dataclass
class SolveReport:
    verdict: str                  # converged | diverged | boundary | failed
    cause: str
    final_residual: float
    final_sup_log_f: float
    degree: float
    phi_l2: float
    window: tuple
    eps_reached: float
    trace: list
    wall_time: float
    gauge_pre_residual: float
    gauge_post_residual: float
    newton_total: int

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "cause": self.cause,
            "final_residual": self.final_residual,
            "final_sup_log_f": self.final_sup_log_f,
            "degree": self.degree,
            "phi_l2": self.phi_l2,
            "window": list(self.window),
            "eps_reached": self.eps_reached,
            "wall_time": self.wall_time,
            "gauge_pre_residual": self.gauge_pre_residual,
            "gauge_post_residual": self.gauge_post_residual,
            "newton_total": self.newton_total,
            "steps": len(self.trace),
        }


@dataclass
class RunOutcome:
    report: SolveReport
    gauge: "GaugeResult"
    state: "MetricState"

    @property
    def verdict(self):
        return self.report.verdict


class MetricState:
    """One metric deformation point: s, its eigendecomposition, the
    powers of f = exp(s), and the fields of f that depend on a problem,
    each computed once for the last problem asked."""

    __slots__ = ("s", "w", "v", "f", "finv", "fsr", "fsri", "_p", "_memo")

    def __init__(self, s):
        self.s = s
        self.w, self.v = fiber.herm_eig(s, check=False)
        self.f = apply_one(np.exp(self.w), self.v)
        self.finv = apply_one(np.exp(-self.w), self.v)
        self.fsr = apply_one(np.exp(0.5 * self.w), self.v)
        self.fsri = apply_one(np.exp(-0.5 * self.w), self.v)
        self._p, self._memo = None, {}

    def field(self, p, name, build):
        """The field called name of this state for the problem p: build()
        runs once, and the memo starts over when another problem asks."""
        if self._p is not p:
            self._p, self._memo = p, {}
        if name not in self._memo:
            self._memo[name] = build()
        return self._memo[name]

    def g_field(self, p):
        """f^-1 d0 f."""
        return self.field(p, "g", lambda: self.finv @ p.d0_end(self.f))

    def kraw(self, p):
        """Raw mean curvature of the deformed metric f."""
        return self.field(p, "kraw", lambda: p.mean_curvature_raw(
            self.f, finv=self.finv))

    def sup_s(self):
        return sup_norm(self.s)


def lhat_raw(p, eps, st):
    """f L_eps(f), unsymmetrized."""
    out = st.f @ st.kraw(p)
    if eps != 0.0:
        out = out + eps * (st.f @ st.s)
    return out


def residual_parts(p, eps, st):
    """Hermitian residual and the anti-Hermitian truncation defect."""
    x = st.fsr @ st.kraw(p) @ st.fsri
    skew = fiber.skew_defect(x)
    r = herm_part(x)
    if eps != 0.0:
        r = r + eps * st.s
    return r, skew


def residual_L(p, eps, f):
    """Public residual: Hermitian part of f^(1/2) L_eps(f) f^(-1/2).

    Same zero set and sup-norm as the metric-frame residual; the
    anti-Hermitian remainder is discretization error, available from
    residual_defect.
    """
    st = MetricState(fiber.herm_log(f, what="residual_L"))
    return residual_parts(p, eps, st)[0]


def residual_defect(p, eps, f):
    st = MetricState(fiber.herm_log(f, what="residual_defect"))
    return residual_parts(p, eps, st)[1]


def d2lhat_apply(p, eps, st, v):
    """Exact derivative of Lhat at st along the path f exp(t f^-1 v)."""
    lraw = st.kraw(p)
    if eps != 0.0:
        lraw = lraw + eps * st.s
    t1 = v @ lraw
    d0v = p.d0_end(v)
    y = st.finv @ d0v - st.finv @ v @ st.g_field(p)
    t2 = st.f @ p.lam_dbar_end(y)
    t3 = st.f @ p.zero_order_lin(st, v)
    out = t1 + t2 + t3
    if eps != 0.0:
        kmat = 1.0 / fiber.psi_kernel(st.w[..., :, None], st.w[..., None, :])
        out = out + eps * apply_two(kmat, st.v, v)
    return out


def linearization_apply(p, eps, f, v):
    """Public matrix-free linearization (see d2lhat_apply)."""
    st = MetricState(fiber.herm_log(f, what="linearization_apply"))
    return d2lhat_apply(p, eps, st, v)


def dexp_direction(st, w_dir):
    """Derivative of exp at s along the Hermitian direction w_dir."""
    kmat = fiber.kernel_matrix(fiber.dexp_kernel, st.w)
    return apply_two(kmat, st.v, w_dir)


# ---------------------------------------------------------------------------
# real isometric packing of Hermitian fields

class HermPacker:
    def __init__(self, gshape, r):
        self.gshape = tuple(gshape)
        self.r = r
        self.npts = int(np.prod(gshape))
        self.iu = np.triu_indices(r, 1)
        self.noff = len(self.iu[0])
        self.size = self.npts * (r + 2 * self.noff)
        self._sq2 = math.sqrt(2.0)

    def pack(self, h):
        r = self.r
        flat = h.reshape(self.npts, r, r)
        parts = [flat[:, np.arange(r), np.arange(r)].real]
        if self.noff:
            off = flat[:, self.iu[0], self.iu[1]]
            parts.append(self._sq2 * off.real)
            parts.append(self._sq2 * off.imag)
        return np.concatenate([q.ravel() for q in parts])

    def unpack(self, x):
        r = self.r
        nd = self.npts * r
        out = np.zeros((self.npts, r, r), dtype=np.complex128)
        diag = x[:nd].reshape(self.npts, r)
        out[:, np.arange(r), np.arange(r)] = diag
        if self.noff:
            no = self.npts * self.noff
            re = x[nd:nd + no].reshape(self.npts, self.noff) / self._sq2
            im = x[nd + no:nd + 2 * no].reshape(self.npts, self.noff) / self._sq2
            off = re + 1j * im
            out[:, self.iu[0], self.iu[1]] = off
            out[:, self.iu[1], self.iu[0]] = np.conjugate(off)
        return out.reshape(self.gshape + (r, r))


class NewtonFailure(Exception):
    pass


class GaugeDomainError(ValueError):
    """Rebasing metric outside the model's gauge domain.

    Background curvature components without a stored potential only
    transform consistently under references that commute with them;
    a rebasing that mixes the declared summands leaves an order-one
    non-Hermitian part in the pushed background curvature, which no
    refinement removes."""


class CapExceeded(Exception):
    pass


def _newton_operator(p, eps, st, packer):
    def mv(x):
        vh = packer.unpack(x)
        w_dir = dexp_direction(st, vh)
        out = d2lhat_apply(p, eps, st, w_dir)
        out = herm_part(st.fsri @ out @ st.fsri)
        return packer.pack(out)
    return mv


def _precond_operator(p, eps, packer):
    """Entrywise preconditioner: division by the Fourier symbol of the
    constant-coefficient model operator P + eps + c."""
    c = float(np.mean(np.trace(p.zero_order_id(),
                               axis1=-2, axis2=-1).real)) / p.rank
    shift = max(eps, 0.0) + max(c, 0.0) + 1e-12
    sym = p.geom.p_symbol + shift
    axes = tuple(range(len(p.geom.shape)))
    denom = sym.reshape(sym.shape + (1, 1))

    def mv(x):
        h = packer.unpack(x)
        hh = np.fft.fftn(h, axes=axes)
        hh /= denom
        out = np.fft.ifftn(hh, axes=axes)
        return packer.pack(herm_part(out))
    return mv


def min_ritz_estimate(p, eps, st, packer):
    """Smallest Ritz singular value of the preconditioned Newton
    operator on a small Krylov space. A subspace quantity, so an
    overestimate of the true minimum; its sign is the useful part
    (strictly positive on every probe at an accepted state)."""
    amv = _newton_operator(p, eps, st, packer)
    mop = _precond_operator(p, eps, packer)

    def mv(x):
        return mop(amv(x))

    # a fixed start vector, so a state always gets the same estimate
    rng = np.random.default_rng(7)
    n = packer.size
    steps = min(RITZ_STEPS, n)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = [q]
    hmat = np.zeros((steps + 1, steps))
    for j in range(steps):
        w = mv(basis[j])
        for i in range(len(basis)):
            hmat[i, j] = np.dot(basis[i], w)
            w = w - hmat[i, j] * basis[i]
        nrm = np.linalg.norm(w)
        hmat[j + 1, j] = nrm
        if nrm < 1e-13:
            hmat = hmat[:j + 2, :j + 1]
            break
        basis.append(w / nrm)
    sv = np.linalg.svd(hmat, compute_uv=False)
    return float(sv[-1])


def newton_solve_at(p, eps, st, cfg, cap=None, best_effort=False):
    """Damped Newton at fixed eps from the state st. Returns (state, iters).

    Raises NewtonFailure when the Armijo search stalls or the iteration
    budget runs out, CapExceeded when sup|log f| crosses the cap. A
    stall or exhausted budget with the residual already inside the 10x
    acceptance band of the final polish counts as converged: on refined
    grids the roundoff floor of the gauged background sits near
    newton_tol and no step direction can beat it. With best_effort=True
    a stall or exhausted budget returns the current state instead of
    raising (used by the gauge polish, where hitting the truncation
    floor of the transformed data is not a failure).
    """
    packer = HermPacker(p.geom.shape, p.rank)
    mop = _precond_operator(p, eps, packer)
    for it in range(cfg.newton_max + 1):
        r, _ = residual_parts(p, eps, st)
        rn = sup_norm(r)
        if cap is not None and st.sup_s() > cap:
            raise CapExceeded(st.sup_s())
        if rn <= cfg.newton_tol:
            return st, it
        if it == cfg.newton_max:
            if best_effort or rn <= 10.0 * cfg.newton_tol:
                return st, it
            raise NewtonFailure("newton budget exhausted at eps=%g (residual %.3e)"
                                % (eps, rn))
        amat = LinearOperator((packer.size, packer.size),
                              matvec=_newton_operator(p, eps, st, packer),
                              dtype=np.float64)
        mmat = LinearOperator((packer.size, packer.size), matvec=mop,
                              dtype=np.float64)
        b = packer.pack(-r)
        x, info = _gmres(amat, b, cfg.linear_rtol, GMRES_MAXITER, mmat)
        # info > 0 is a partial solve: accept it, Armijo decides whether
        # it helps
        if info < 0:
            raise NewtonFailure("linear solver breakdown at eps=%g" % eps)
        step = packer.unpack(x)
        alpha = 1.0
        while True:
            cand = MetricState(st.s + alpha * step)
            rc, _ = residual_parts(p, eps, cand)
            if sup_norm(rc) <= (1.0 - ARMIJO_C1 * alpha) * rn:
                st = cand
                break
            alpha *= ARMIJO_FACTOR
            if alpha < ARMIJO_MIN:
                if best_effort or rn <= 10.0 * cfg.newton_tol:
                    return st, it
                raise NewtonFailure("line search stalled at eps=%g (residual %.3e)"
                                    % (eps, rn))
    raise NewtonFailure("unreachable")


# ---------------------------------------------------------------------------
# initial gauge

@dataclass
class GaugeResult:
    problem: PairProblem
    s1: np.ndarray
    h0: np.ndarray               # rebasing metric in the original frame
    pre_residual: float
    post_residual: float
    degree_drift: float


def initial_gauge(p, h=None, cfg=None):
    """Rebase the reference metric so eps = 1 has the exact solution.

    Given a starting metric h (PosHermField over the stored reference,
    default identity), computes the mean curvature K of h, rebases the
    reference to h exp(K), and returns the problem in the frame of the
    new reference together with s1 = log f1 = -K. In the continuum
    L_1(f1) = 0 identically; discretely the assembly leaves truncation
    residue, so a short eps = 1 Newton polish finishes the job. Reported:
    residuals before and after, and the degree drift of the rebased
    background.
    """
    if cfg is None:
        cfg = ContinuationConfig()
    geom = p.geom

    if h is None:
        khat = p.k0_field()
        wk, vk = fiber.herm_eig(khat)
        h0 = apply_one(np.exp(wk), vk)
        h0h = apply_one(np.exp(0.5 * wk), vk)
        h0hi = apply_one(np.exp(-0.5 * wk), vk)
        s1 = -khat
    else:
        h = np.broadcast_to(np.asarray(h, dtype=np.complex128),
                            tuple(geom.shape) + (p.rank, p.rank)).copy()
        wh, vh = fiber.herm_eig(h)
        if float(np.min(wh)) <= 0:
            raise fiber.ClampError("starting metric is not positive definite")
        hh = apply_one(np.sqrt(wh), vh)
        hhi = apply_one(1.0 / np.sqrt(wh), vh)
        kraw = p.mean_curvature_raw(h)
        khat = herm_part(hh @ kraw @ hhi)
        wk, vk = fiber.herm_eig(khat)
        ek = apply_one(np.exp(wk), vk)
        h0 = hh @ ek @ hh
        w0, v0 = fiber.herm_eig(h0)
        h0h = apply_one(np.sqrt(w0), v0)
        h0hi = apply_one(1.0 / np.sqrt(w0), v0)
        # f1 = exp(-K) as an endomorphism, pushed to the new frame
        f1 = hhi @ apply_one(np.exp(-wk), vk) @ hh
        f1p = herm_part(h0h @ f1 @ h0hi)
        s1 = fiber.herm_log(f1p, what="initial_gauge")

    # transform background data to the frame of the new reference
    upd = p.curvature_update(h0)
    push = h0h @ (p.ilf0 + upd) @ h0hi
    ilf0p = herm_part(push)
    # consistency guard: the pushed background curvature must be
    # Hermitian up to derivative truncation. An order-one skew part
    # means the rebasing mixes summands whose declared curvature has no
    # stored potential, and the transformed problem would be silently
    # wrong rather than slightly truncated.
    skew = sup_norm(push - ilf0p)
    scale = 1.0 + sup_norm(ilf0p)
    if geom.kind == "hopf":
        skew_tol = max(1e-3 * scale,
                       400.0 * geom.h ** 2 * (1.0 + sup_norm(khat)) ** 3)
    else:
        skew_tol = 1e-3 * scale
    if skew > skew_tol:
        raise GaugeDomainError(
            "rebased background curvature has non-Hermitian part %.3e "
            "(scale %.3e): the starting metric drives the reference out "
            "of the commutant of the declared background curvature; use "
            "summand-diagonal probes, constant ones when couplings are "
            "stored" % (skew, scale))
    db = geom.dbar(h0hi)
    a01p = h0h @ db
    if p.a01 is not None:
        a01p = a01p + (h0h @ np.broadcast_to(p.a01, upd.shape).copy()
                       @ h0hi)
    # the new frame again has an identity reference, so its Chern (1,0)
    # coefficient is pinned to the (0,1) one; pushing the old a10
    # forward instead would give the Chern connection of the old
    # reference, which is h0^{-1} in this frame, and the mean curvature
    # assembly would be inconsistent as soon as a01 and h0 fail to
    # commute
    a10p = -np.conjugate(np.swapaxes(a01p, -1, -2))
    phip = np.einsum("...ij,...j->...i", h0h, p.phi)
    if p.sec01 is None:
        sec01p = None  # sections keep inheriting the endomorphism twist
    else:
        sec01p = (h0h @ db
                  + h0h @ np.broadcast_to(p.sec01, upd.shape).copy() @ h0hi)

    # the transformed section data is holomorphic up to the backend's
    # derivative truncation: spectral leaves near machine level, the
    # circle backend leaves O(h^2) with a prefactor set by the rebasing
    # exponential's derivatives
    if geom.kind == "hopf":
        clone_tol = max(1e-8,
                        40.0 * geom.h ** 2 * (1.0 + sup_norm(khat)) ** 3)
    else:
        clone_tol = 1e-6
    gauged = p._transformed_clone(ilf0p, phip, a01p, a10p, sec01p,
                                  h0h, h0hi, clone_tol)

    st = MetricState(s1)
    r0, _ = residual_parts(gauged, 1.0, st)
    pre = sup_norm(r0)
    post = pre
    if pre > cfg.newton_tol:
        pcfg = ContinuationConfig(newton_tol=min(cfg.newton_tol, 1e-11),
                                  newton_max=8,
                                  linear_rtol=min(cfg.linear_rtol, 1e-10))
        st, _ = newton_solve_at(gauged, 1.0, st, pcfg, best_effort=True)
        post = sup_norm(residual_parts(gauged, 1.0, st)[0])
        s1 = st.s
    drift = abs(gauged.degree() - p.degree())
    return GaugeResult(gauged, s1, h0, pre, post, drift)


# ---------------------------------------------------------------------------
# runtime verification

def energy_identity_gap(p, eps, st):
    """Integral energy identity at a solution of L_eps(f) = 0:

        -eps ||s||_L2^2 = <iLF0 - tau/2, s> + <Psi(s)(dbar_A s), dbar_A s>
                          + (1/2) <phi phi^H f, s>

    all integrated. Returns (gap, scale). The section term carries the
    deformed metric factor f; with the reference-metric factor instead
    the identity fails already for constant rank-1 data.
    """
    geom = p.geom
    s = st.s
    eye = np.eye(p.rank)
    lhs = -eps * float(geom.integrate(frob(s) ** 2).real)
    t_bg = float(geom.integrate(np.einsum(
        "...ij,...ji->...", p.ilf0 - (p.tau / 2.0) * eye, s).real).real)
    bs = p.dbar_end(s)
    # the trace pairing tr((f^-1 d0 f) b) lands entry (i, j) of b on
    # psi(lam_j, lam_i), the column-first order of kernel_matrix
    psib = apply_two(fiber.kernel_matrix(fiber.psi_kernel, st.w), st.v, bs)
    t_nz = float(geom.integrate(geom.pair_01(psib, bs)).real)
    t_phi = float(geom.integrate(np.einsum(
        "...ij,...ji->...", p.zero_order(st.f, finv=st.finv), s).real).real)
    rhs = t_bg + t_nz + t_phi
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(t_bg), abs(t_nz), abs(t_phi), 1e-30)
    return gap, scale


def nie_zhang_check(p, st):
    """Integrated absolute gap of the pointwise contraction identity

        iL tr((f^-1 d0 f) wedge dbar_A s) = <Psi(s)(dbar_A s), dbar_A s>.
    """
    geom = p.geom
    g10 = st.g_field(p)
    bs = p.dbar_end(st.s)
    lhs = geom.lam_wedge_trace(g10, bs)
    psib = apply_two(fiber.kernel_matrix(fiber.psi_kernel, st.w), st.v, bs)
    rhs = geom.pair_01(psib, bs)
    return float(geom.integrate(np.abs(lhs - rhs)).real)


def monotone_gap(p, st):
    """Integrated pairing of the zero-order-term increment against s;
    nonnegative by the monotonicity of the fiberwise pairing path."""
    geom = p.geom
    inc = np.einsum("...ij,...ji->...",
                    p.zero_order(st.f, finv=st.finv) - p.zero_order_id(),
                    st.s).real
    return float(geom.integrate(inc).real)


def calc_inequality_margin(p, eps, st):
    """Max pointwise violation of (1/2) P(|s|^2) + eps |s|^2 <= |K0||s|."""
    geom = p.geom
    ns = frob(st.s)
    pterm = 0.5 * geom.p_op(ns ** 2).real
    k0n = frob(p.k0_field())
    lhs = pterm + eps * ns ** 2
    return float(np.max(lhs - k0n * ns))


def discretization_slack(p, st):
    """Self-declared slack for the pointwise inequality checks.

    Spectral backend: roundoff-level. Finite-difference backend: an
    O(h^2) envelope scaled by the field size. Engineering constant, not
    a theorem; documented with the check it guards."""
    if p.geom.kind == "torus":
        return 1e-8 * max(1.0, st.sup_s()) ** 2
    h = p.geom.h
    return 50.0 * h ** 2 * max(1.0, st.sup_s()) ** 3 * max(1.0, sup_norm(p.k0_field()))


def diagnostics_check(p, eps, st, prev_st=None, newton_iters=0, cfg=None):
    if cfg is None:
        cfg = ContinuationConfig()
    res, skew = residual_parts(p, eps, st)
    rsup = sup_norm(res)
    sup_s = st.sup_s()
    k0sup = sup_norm(p.k0_field())
    bound = math.inf if eps == 0.0 else k0sup / eps
    gap, scale = energy_identity_gap(p, eps, st)
    if prev_st is not None:
        # relative increment sup|log(f_prev^(-1/2) f f_prev^(-1/2))|,
        # the symmetric form of sup|log(f_prev^-1 f)|
        m = herm_part(prev_st.fsri @ st.f @ prev_st.fsri)
        cauchy = sup_norm(fiber.herm_log(m, what="cauchy increment"))
    else:
        cauchy = 0.0
    ritz = math.nan  # not probed (eps = 0 may be honestly singular)
    if cfg.full_diagnostics and eps > 0.0:
        packer = HermPacker(p.geom.shape, p.rank)
        ritz = min_ritz_estimate(p, eps, st, packer)
    l2 = math.sqrt(max(float(p.geom.integrate(frob(st.s) ** 2).real), 0.0))
    return DiagnosticsRecord(
        eps=eps,
        residual_sup=rsup,
        sup_log_f=sup_s,
        apriori_bound=bound,
        apriori_margin=sup_s - bound if math.isfinite(bound) else -math.inf,
        energy_gap=gap,
        energy_scale=scale,
        cauchy_increment=cauchy,
        newton_iters=newton_iters,
        min_ritz=ritz,
        skew_defect=skew,
        monotone_gap=monotone_gap(p, st),
        l2_log_f=l2,
        calc_margin=calc_inequality_margin(p, eps, st),
    )


# ---------------------------------------------------------------------------
# the homotopy driver

def run_continuation(p, cfg=None, h_start=None):
    """Continuation from eps = 1 to cfg.eps_min, then an eps = 0 polish.

    Verdicts: converged (polish met tolerance), diverged (cap crossed,
    the operational no-solution signal), boundary (schedule completed
    but the polish failed, the semistable signature), failed
    (operational error).
    """
    if cfg is None:
        cfg = ContinuationConfig()
    t0 = time.perf_counter()
    gauge = initial_gauge(p, h=h_start, cfg=cfg)
    gp = gauge.problem
    st = MetricState(gauge.s1)
    trace = []
    newton_total = 0

    window = (math.nan, math.nan)
    if p.split is not None:
        window = pair_mod.stability_window(p.split, p.geom)

    rec = diagnostics_check(gp, 1.0, st, None, 0, cfg)
    trace.append(rec)

    def build_report(verdict, cause, eps_reached, final_res):
        rep = SolveReport(
            verdict=verdict, cause=cause,
            final_residual=final_res,
            final_sup_log_f=st.sup_s(),
            degree=p.degree(), phi_l2=p.phi_l2, window=window,
            eps_reached=eps_reached, trace=trace,
            wall_time=time.perf_counter() - t0,
            gauge_pre_residual=gauge.pre_residual,
            gauge_post_residual=gauge.post_residual,
            newton_total=newton_total,
        )
        return RunOutcome(rep, gauge, st)

    eps_prev = 1.0
    while eps_prev > cfg.eps_min:
        target = max(eps_prev * cfg.ratio, cfg.eps_min)
        halvings = 0
        while True:
            try:
                st_new, iters = newton_solve_at(gp, target, st, cfg, cap=cfg.cap)
                break
            except CapExceeded:
                r_at, _ = residual_parts(gp, target, st)
                return build_report("diverged", "cap at eps=%.4g" % target,
                                    target, sup_norm(r_at))
            except NewtonFailure as e:
                halvings += 1
                if halvings > HALVINGS_MAX:
                    return build_report("failed", "newton: %s" % e, eps_prev,
                                        math.nan)
                target = eps_prev - 0.5 * (eps_prev - target)
        newton_total += iters
        rec = diagnostics_check(gp, target, st_new, st, iters, cfg)
        st = st_new
        trace.append(rec)
        if st.sup_s() > cfg.cap:
            return build_report("diverged", "cap at eps=%.4g" % target, target,
                                rec.residual_sup)
        eps_prev = target

    if not cfg.polish:
        return build_report("converged", "eps_min reached, polish disabled",
                            eps_prev, trace[-1].residual_sup)

    try:
        st_new, iters = newton_solve_at(gp, 0.0, st, cfg, cap=cfg.cap)
    except CapExceeded:
        return build_report("diverged", "cap during polish", 0.0, math.nan)
    except NewtonFailure as e:
        return build_report("boundary", "polish failed: %s" % e, eps_prev,
                            trace[-1].residual_sup)
    newton_total += iters
    rec = diagnostics_check(gp, 0.0, st_new, st, iters, cfg)
    st = st_new
    trace.append(rec)
    final_res = rec.residual_sup
    # the limit must be a small correction of the eps_min state; a polish
    # that travels a macroscopic metric distance is a runaway along a
    # residual valley, the semistable signature
    budget = max(1.0, 5.0 * trace[-2].cauchy_increment)
    if rec.cauchy_increment > budget:
        return build_report(
            "boundary", "polish left the continuation neighborhood "
            "(moved %.3g, budget %.3g)" % (rec.cauchy_increment, budget),
            0.0, final_res)
    if final_res <= 10.0 * cfg.newton_tol:
        return build_report("converged", "polish", 0.0, final_res)
    return build_report("boundary", "polish residual %.3e above threshold"
                        % final_res, 0.0, final_res)


def final_metric_original_frame(gauge, st):
    """Final deformed metric pulled back to the frame of the original
    problem: h0^(1/2) f h0^(1/2)."""
    w0, v0 = fiber.herm_eig(gauge.h0)
    h0h = apply_one(np.sqrt(w0), v0)
    return herm_part(h0h @ st.f @ h0h)


def uniqueness_probe(p, cfg=None, h_a=None, h_b=None):
    """Two continuations from independently gauged starts; sup distance
    of the final metrics in the common original frame."""
    out_a = run_continuation(p, cfg, h_start=h_a)
    out_b = run_continuation(p, cfg, h_start=h_b)
    if out_a.verdict != "converged" or out_b.verdict != "converged":
        raise NewtonFailure("uniqueness probe needs two converged runs, got %s/%s"
                            % (out_a.verdict, out_b.verdict))
    ma = final_metric_original_frame(out_a.gauge, out_a.state)
    mb = final_metric_original_frame(out_b.gauge, out_b.state)
    return sup_norm(ma - mb), out_a, out_b
