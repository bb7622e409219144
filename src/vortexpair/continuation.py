"""Perturbed-equation continuation solver.

The equation family, in the frame where the reference metric is the
identity and f = exp(s):

    L_eps(f) = iLF0 + iL dbar_A(f^-1 d0 f) + (1/2) phi phi^H f
               - (tau/2) id + eps s

The solver works with the conjugated residual R(s) = f^(1/2) L_eps(f)
f^(-1/2), which is Hermitian in the continuum. Discretely the
conjugated first two terms pick up an anti-Hermitian truncation defect;
the residual operator returns the Hermitian part and the diagnostics
record the defect size. The eps s term commutes with f and is
exact.

Newton runs in s with the exact derivative of Lhat := f L_eps(f) along
the path f_t = exp(s + t vh). With v = dexp_s[vh] the derivative of f,
entries vh_ij (e^l_i - e^l_j) / (l_i - l_j) in the eigenbasis of s,

    d2Lhat[vh] = v L_eps(f) + f iL dbar_A(f^-1 d0 v - f^-1 v f^-1 d0 f)
                 + (1/2) f phi phi^H v + eps f vh

The eps s term differentiates to eps (v s + f vh); v L_eps(f) carries
the first half, and the second needs no kernel in s-coordinates.

Linear solves are right-preconditioned GMRES on a real isometric
packing of Hermitian fields; the preconditioner divides by the
constant-coefficient symbol of the dominant operator.
"""

import functools
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import fiber, pair as pair_mod
from .fiber import (apply_one, apply_two, frob, herm_part, mm, skew_defect,
                    sup_norm)
from .pair import PairProblem

# Newton line search, linear solve and step control
ARMIJO_FACTOR = 0.5
ARMIJO_MIN = 2.0 ** -10
ARMIJO_C1 = 1e-4
GMRES_MAXITER = 80                # matvecs in a linear solve's one cycle
HALVINGS_MAX = 8
EPS_MIN_SNAP = 1.01               # a target below this x eps_min is eps_min
STOPS_MAX = 10000                 # bound on log(eps_min) / log(ratio)
CAP_MAX = math.log(sys.float_info.max)  # exp(s) overflows past it
RITZ_STEPS = 10                   # Arnoldi size for the injectivity probe


class _Operator:
    """GMRES's operator A: a square real linear map given by its matvec.
    shape and dtype are there only so that the benchmark's counting
    tracer can rebuild it; the preconditioner is a plain function."""

    __slots__ = ("matvec", "shape", "dtype")

    def __init__(self, matvec, n):
        self.matvec = matvec
        self.shape = (n, n)
        self.dtype = np.dtype(np.float64)


def gmres(amat, b, rtol, maxiter, mmat):
    """GMRES with right preconditioning (Saad & Schultz 1986): one
    Arnoldi cycle of at most maxiter matvecs solves A M y = b and
    returns x = M y. amat is an operator with a matvec, and mmat is
    the preconditioner as a function, called as mmat(v).

    Arnoldi on A M runs with modified Gram-Schmidt, and Givens rotations
    carry |b - A x| of the current iterate, which under right
    preconditioning is the true linear residual. The solve stops once
    that is at most rtol |b|. The cycle keeps z_j = M v_j, so x costs no
    further M application. Returns (x, info): info = 0 on convergence,
    the matvecs spent (> 0) when maxiter runs out first, -1 when A M is
    singular on the Krylov space. maxiter must be at least 1: raises
    ValueError otherwise."""
    if maxiter < 1:
        raise ValueError("gmres needs maxiter >= 1, got %r" % (maxiter,))
    beta = np.linalg.norm(b)
    tol = rtol * beta
    if beta <= tol:
        return np.zeros(b.size), 0
    basis, zs = [b / beta], []
    hmat = np.zeros((maxiter, maxiter))
    cs, sn, g = np.zeros(maxiter), np.zeros(maxiter), np.zeros(maxiter + 1)
    g[0] = beta
    for j in range(maxiter):
        zs.append(mmat(basis[j]))
        w = amat.matvec(zs[j])
        col = hmat[:, j]
        for i, v in enumerate(basis):
            col[i] = v @ w
            w = w - col[i] * v
        hnext = np.linalg.norm(w)
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  cs[i] * col[i + 1] - sn[i] * col[i])
        d = math.hypot(col[j], hnext)
        if d == 0.0:
            return np.zeros(b.size), -1
        cs[j], sn[j] = col[j] / d, hnext / d
        col[j] = d
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        # hnext = 0 makes g[j + 1] = 0: the space is invariant and x exact
        if abs(g[j + 1]) <= tol:
            break
        basis.append(w / hnext)
    k = len(zs)
    y = np.linalg.solve(hmat[:k, :k], g[:k])
    return y @ np.asarray(zs), (0 if abs(g[k]) <= tol else k)


# the schedule fields: a config file sets them, each must be positive and
# finite, and run.json echoes them
SCHEDULE_KEYS = ("eps_min", "ratio", "newton_tol", "linear_rtol", "cap")


@dataclass
class ContinuationConfig:
    eps_min: float = 1e-3
    ratio: float = 0.7            # geometric schedule factor
    newton_tol: float = 1e-10     # sup-norm residual acceptance
    newton_max: int = 50
    linear_rtol: float = 1e-8
    cap: float = 50.0             # sup|log f| divergence cap
    full_diagnostics: bool = True

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("schedule ratio must be in (0, 1)")
        for name in SCHEDULE_KEYS:
            # written so that NaN fails too; ratio passed a stricter test
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        if self.cap >= CAP_MAX:
            raise ValueError("cap %r must be below log(float max) = %.6g, "
                             "where exp(s) overflows" % (self.cap, CAP_MAX))
        if not (isinstance(self.newton_max, int) and self.newton_max >= 0):
            raise ValueError("newton_max must be an integer >= 0")
        if not self.eps_min < 1.0:
            raise ValueError("eps_min must be below 1, where the schedule "
                             "starts")
        if math.log(self.eps_min) / math.log(self.ratio) > STOPS_MAX:
            raise ValueError("ratio %r needs over %d stops to eps_min %r"
                             % (self.ratio, STOPS_MAX, self.eps_min))


@dataclass
class DiagnosticsRecord:
    eps: float
    residual_sup: float
    sup_log_f: float
    apriori_margin: float         # sup_log_f - sup|K0|/eps, -inf at eps = 0
    energy_gap: float
    energy_scale: float
    cauchy_increment: float       # sup|log(f_prev^-1 f)| between accepted states
    newton_iters: int
    min_ritz: float               # Krylov upper bound on sigma_min(M dL), NaN unprobed
    skew_defect: float            # anti-Hermitian truncation defect of R
    l2_log_f: float


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
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "trace"}
        out["steps"] = len(self.trace)
        return out


@dataclass
class RunOutcome:
    report: SolveReport
    gauge: "GaugeResult"          # None when the initial gauge failed
    state: "MetricState"          # None when the run recorded no state

    @property
    def verdict(self):
        return self.report.verdict

    @property
    def metric(self):
        """The final metric in the frame of the problem the run was
        given, h0^(1/2) f h0^(1/2) with h0 the gauge's reference; None
        when the run recorded no state. Computed on each access."""
        if self.state is None:
            return None
        h0h = self.gauge.h0h
        return herm_part(mm(mm(h0h, self.state.f), h0h))


class MetricState:
    """One metric deformation point: s, its eigendecomposition, the
    powers of f = exp(s), and one memo of what the solver asks of it,
    each computed once for the last problem asked: the fields (the
    curvature, f^-1 d0 f, the dexp kernel matrix of its spectrum) and
    the floats of its diagnostics that do not depend on eps.

    s must be exactly Hermitian, equal to conj(s^T) entry by entry, as
    every s the solver builds is: an apply_one output, a HermPacker
    unpack, or a real combination of those. It goes to the
    eigensolver unchecked, which reads only the real part of its
    diagonal and its lower triangle."""

    __slots__ = ("s", "w", "v", "f", "finv", "fsr", "fsri", "_p", "_memo")

    def __init__(self, s):
        self.s = s
        self.w, self.v = fiber.eigh_batch(np.asarray(s, dtype=np.complex128))
        self.f = apply_one(np.exp(self.w), self.v)
        self.finv = apply_one(np.exp(-self.w), self.v)
        self.fsr = apply_one(np.exp(0.5 * self.w), self.v)
        self.fsri = apply_one(np.exp(-0.5 * self.w), self.v)
        self._p, self._memo = None, {}

    def field(self, p, name, build):
        """The field or float called name of this state for the problem p:
        build() runs once, and the memo starts over when another problem
        asks."""
        if self._p is not p:
            self._p, self._memo = p, {}
        if name not in self._memo:
            self._memo[name] = build()
        return self._memo[name]

    def g_field(self, p):
        """f^-1 d0 f."""
        return self.field(p, "g", lambda: mm(self.finv, p.d0_end(self.f)))

    def kraw(self, p):
        """Raw mean curvature of the deformed metric f."""
        return self.field(p, "kraw", lambda: p.mean_curvature_raw(self))


def residual_parts(p, eps, st):
    """The Hermitian part r of R at st; its anti-Hermitian truncation
    defect is measured by diagnostics_check (the eps s term adds none)."""
    x = mm(mm(st.fsr, st.kraw(p)), st.fsri)
    r = herm_part(x)
    if eps != 0.0:
        r += np.multiply(eps, st.s, out=x)  # x is spent: it takes eps s
    return r


def residual_L(p, eps, f):
    """Public residual: Hermitian part of f^(1/2) L_eps(f) f^(-1/2).

    Same zero set and sup-norm as the metric-frame residual; the
    anti-Hermitian remainder is discretization error, the skew defect
    of the diagnostics record.
    """
    st = MetricState(fiber.herm_log(f, what="residual_L"))
    return residual_parts(p, eps, st)


def d2lhat_apply(p, eps, st, vh):
    """Exact derivative of Lhat at st along the path exp(s + t vh)."""
    kmat = st.field(p, "k_dexp",
                    lambda: fiber.kernel_matrix(fiber.dexp_kernel, st.w))
    v = apply_two(kmat, st.v, vh)
    lraw = st.kraw(p)
    if eps != 0.0:
        lraw = lraw + eps * st.s
    out = mm(v, lraw)
    y = mm(st.finv, p.d0_end(v))
    y -= mm(mm(st.finv, v), st.g_field(p))
    out += mm(st.f, p.lam_dbar_end(y))
    out += mm(st.f, p.zero_order_lin(st, v))
    if eps != 0.0:
        out += eps * mm(st.f, vh)
    return out


def linearization_apply(p, eps, f, v):
    """Public matrix-free linearization: the derivative of f L_eps(f)
    along exp(log f + t v), so v is a Hermitian direction of log f, not
    of f (see d2lhat_apply)."""
    st = MetricState(fiber.herm_log(f, what="linearization_apply"))
    return d2lhat_apply(p, eps, st, v)


# ---------------------------------------------------------------------------
# real isometric packing of Hermitian fields

class HermPacker:
    def __init__(self, gshape, r):
        self.gshape = tuple(gshape)
        self.r = r
        self.npts = int(np.prod(gshape))
        self._dg = np.arange(r)
        self.iu = np.triu_indices(r, 1)
        self.noff = len(self.iu[0])
        self.size = self.npts * (r + 2 * self.noff)
        self._sq2 = math.sqrt(2.0)

    def pack(self, h):
        """Packs the Hermitian part of h: the real diagonal and
        (h_ij + conj(h_ji)) / 2 above it, the same floats as
        pack(herm_part(h)) without forming the lower half."""
        r, npts, (i, j) = self.r, self.npts, self.iu
        flat = h.reshape(npts, r, r)
        out = np.empty(self.size)
        out[:npts * r].reshape(npts, r)[...] = flat.diagonal(0, 1, 2).real
        if self.noff:
            off = np.conjugate(flat[:, j, i])
            np.multiply(np.add(flat[:, i, j], off, out=off), 0.5, out=off)
            segs = out[npts * r:].reshape(2, npts, self.noff)
            np.multiply(self._sq2, off.real, out=segs[0])
            np.multiply(self._sq2, off.imag, out=segs[1])
        return out

    def unpack(self, x):
        r, dg = self.r, self._dg
        nd = self.npts * r
        # every entry is written below: the diagonal, then both triangles
        out = fiber.empty_field((self.npts,), (r, r))
        out[:, dg, dg] = x[:nd].reshape(self.npts, r)
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
    refinement removes. Rebased data that the problem's own validation
    rejects (a section no longer holomorphic to the clone tolerance on
    a coarse grid) raises it too, as does an exp(K) that is not finite."""


class CapExceeded(Exception):
    pass


class ProbeFailure(Exception):
    """The Ritz probe could not bound sigma_min at an accepted state."""


def _newton_operator(p, eps, st, packer):
    def mv(x):
        out = d2lhat_apply(p, eps, st, packer.unpack(x))
        return packer.pack(mm(mm(st.fsri, out), st.fsri))
    return mv


def _precond_operator(p, eps, packer):
    """Entrywise preconditioner: division by the Fourier symbol of the
    constant-coefficient model operator P + eps + c."""
    c = p.reference_constants[0]
    shift = max(eps, 0.0) + max(c, 0.0) + 1e-12
    sym = p.geom.p_symbol + shift
    denom = sym.reshape(sym.shape + (1, 1))

    def mv(x):
        h = packer.unpack(x)
        p.geom.fft(h, h)
        h /= denom
        return packer.pack(p.geom.fft(h, h, inverse=True))
    return mv


@functools.lru_cache(maxsize=8)
def _ritz_start(n):
    """The probe's fixed unit start vector of size n, read-only: built
    once, so that a state always gets the same estimate."""
    q = np.random.default_rng(7).standard_normal(n)
    q /= np.linalg.norm(q)
    q.flags.writeable = False
    return q


def min_ritz_estimate(p, eps, st):
    """Smallest singular value of the Arnoldi matrix H_k of the
    preconditioned Newton operator A = M dL of p at st on at most
    RITZ_STEPS Krylov vectors, in the packing of p's Hermitian fields.

    The basis V is kept orthonormal by classical Gram-Schmidt run twice,
    so A V_k = V_(k+1) H_k and sigma_min(H_k) = min |A V_k y| over unit
    y: an upper bound on sigma_min(A). Arnoldi stops when the new
    vector's remainder is at most 1e-12 |A q_j|, i.e. A q_j lies in the
    span and the Krylov space is invariant; an exact zero image stops
    there with the estimate 0.0. Strictly positive on every probe at an
    accepted state. A failed SVD (H_k not finite) raises ProbeFailure."""
    packer = HermPacker(p.geom.shape, p.rank)
    amv = _newton_operator(p, eps, st, packer)
    mop = _precond_operator(p, eps, packer)

    n = packer.size
    steps = min(RITZ_STEPS, n)
    basis = np.empty((steps + 1, n))
    basis[0] = _ritz_start(n)
    hmat = np.zeros((steps + 1, steps))
    for j in range(steps):
        w = mop(amv(basis[j]))
        wn = np.linalg.norm(w)
        vj = basis[:j + 1]
        for _ in range(2):
            c = vj @ w
            w -= c @ vj
            hmat[:j + 1, j] += c
        nrm = np.linalg.norm(w)
        hmat[j + 1, j] = nrm
        if nrm <= 1e-12 * wn:
            hmat = hmat[:j + 2, :j + 1]
            break
        basis[j + 1] = w / nrm
    try:
        sv = np.linalg.svd(hmat, compute_uv=False)
    except np.linalg.LinAlgError as e:
        raise ProbeFailure("ritz probe: %s at eps=%g" % (e, eps)) from e
    return float(sv[-1])


def newton_solve_at(p, eps, st, cfg, best_effort=False):
    """Damped Newton at fixed eps from the state st. Returns (state,
    iters, rn), rn the sup norm of the residual measured at that state.

    best_effort is the gauge polish, where the truncation floor of the
    transformed data is no failure. Every other solve raises CapExceeded
    when an iterate's sup|log f| crosses cfg.cap. Newton gives up when
    the Armijo search stalls, the budget runs out, the residual is not
    finite or the linear solve stops short of linear_rtol or breaks
    down: it then returns the current state if best_effort is set or
    the residual is inside the 10x acceptance band of the final polish
    (on refined grids the roundoff floor of the gauged background sits
    near newton_tol and no step can beat it), and raises NewtonFailure
    otherwise.
    """
    packer = HermPacker(p.geom.shape, p.rank)
    mmat = _precond_operator(p, eps, packer)
    for it in range(cfg.newton_max + 1):
        r = residual_parts(p, eps, st)
        rn = sup_norm(r)
        if not best_effort and sup_norm(st.s) > cfg.cap:
            raise CapExceeded(sup_norm(st.s))
        if rn <= cfg.newton_tol:
            return st, it, rn
        if not math.isfinite(rn):
            why = "residual not finite"
            break
        if it == cfg.newton_max:
            why = "newton budget exhausted"
            break
        amat = _Operator(_newton_operator(p, eps, st, packer), packer.size)
        b = packer.pack(-r)
        x, info = gmres(amat, b, cfg.linear_rtol, GMRES_MAXITER, mmat)
        if info:
            why = ("linear solve stopped at %d matvecs" % info if info > 0
                   else "linear solver breakdown")
            break
        step = packer.unpack(x)
        alpha = 1.0
        while alpha >= ARMIJO_MIN:
            # a trial past the float range of exp has a residual that is
            # not finite, and Armijo rejects it
            with np.errstate(over="ignore", invalid="ignore"):
                cand = MetricState(st.s + alpha * step)
                rc = sup_norm(residual_parts(p, eps, cand))
            if rc <= (1.0 - ARMIJO_C1 * alpha) * rn:
                st = cand
                break
            alpha *= ARMIJO_FACTOR
        else:
            why = "line search stalled"
            break
    if best_effort or rn <= 10.0 * cfg.newton_tol:
        return st, it, rn
    raise NewtonFailure("%s at eps=%g (residual %.3e)" % (why, eps, rn))


# ---------------------------------------------------------------------------
# initial gauge

@dataclass
class GaugeResult:
    problem: PairProblem
    h0h: np.ndarray              # h0^(1/2), h0 the rebasing metric
    pre_residual: float
    post_residual: float


def initial_gauge(p, h=None, cfg=None):
    """Rebase the reference metric so eps = 1 has the exact solution.

    Given a starting metric h (PosHermField over the stored reference,
    default identity), computes the mean curvature K of h, rebases the
    reference to h exp(K), and returns (GaugeResult, state): the
    problem in the frame of the new reference, and the MetricState of
    s1 = log f1 = -K. In the continuum L_1(f1) = 0 identically;
    discretely the assembly leaves truncation residue, so a short
    eps = 1 Newton polish finishes the job. The state is the one it
    accepts, or that of s1 when it needs no polish, and holds its
    curvature for the new problem in its memo already. The
    residuals before and after the polish go into the run report; the
    one after is the residual the polish returns with its state.
    """
    if cfg is None:
        cfg = ContinuationConfig()
    geom = p.geom

    # s = log h = 0 for the identity start, else a copy of h
    field = fiber.empty_field(geom.shape, (p.rank, p.rank))
    if h is None:
        field[...] = 0.0
        start = MetricState(field)
    else:
        field[...] = h
        wh, vh = fiber.herm_eig(field, what="starting metric")
        if float(np.min(wh)) <= 0:
            raise fiber.ClampError("starting metric is not positive definite")
        start = MetricState(apply_one(np.log(wh), vh))
    # K is the mean curvature of h, conjugated to be Hermitian; the new
    # reference is h0 = h^(1/2) exp(K) h^(1/2), and h seen from h0 in
    # the new frame is f1 = h0^(-1/2) h h0^(-1/2), exp(-K) up to a
    # unitary conjugation
    khat = residual_parts(p, 0.0, start)
    ksup = sup_norm(khat)
    if not (np.isfinite(khat).all()
            and np.isfinite(expk := fiber.herm_exp(khat)).all()):
        raise GaugeDomainError("the rebasing exp(K) is not finite "
                               "(sup|K| %.3e)" % ksup)
    ref = MetricState(fiber.herm_log(mm(mm(start.fsr, expk), start.fsr),
                                     what="initial_gauge"))
    h0h, h0hi = ref.fsr, ref.fsri
    s1 = fiber.herm_log(herm_part(mm(mm(h0hi, start.f), h0hi)),
                        what="initial_gauge")

    # transform background data to the frame of the new reference
    upd = p.curvature_update(ref)
    push = mm(mm(h0h, p.ilf0 + upd), h0hi)
    ilf0p = herm_part(push)
    # consistency guard: the pushed background curvature must be
    # Hermitian up to derivative truncation. An order-one skew part
    # means the rebasing mixes summands whose declared curvature has no
    # stored potential, and the transformed problem would be silently
    # wrong rather than slightly truncated.
    skew = sup_norm(push - ilf0p)
    scale = 1.0 + sup_norm(ilf0p)
    if skew > geom.rebase_skew_tol(scale, ksup):
        why = ("rebased background curvature has non-Hermitian part %.3e "
               "(scale %.3e, sup|K| %.3e)" % (skew, scale, ksup))
        if p.rank > 1:
            why += (": the starting metric drives the reference out of the "
                    "commutant of the declared background curvature; use "
                    "summand-diagonal probes, constant ones when couplings "
                    "are stored")
        raise GaugeDomainError(why)
    # only a01 is pushed forward: the new frame again has an identity
    # reference, so the clone pins its Chern (1,0) coefficient to
    # -a01p^H. Pushing the old a10 forward instead would give the Chern
    # connection of the old reference, which is h0^{-1} in this frame
    a01p = mm(h0h, geom.dbar(h0hi))
    if p.a01 is not None:
        a01p = a01p + mm(mm(h0h, p.a01), h0hi)
    phip = np.einsum("...ij,...j->...i", h0h, p.phi)

    # rebased section data is holomorphic up to the backend's truncation
    try:
        gauged = p._transformed_clone(ilf0p, phip, a01p, h0h, h0hi,
                                      geom.rebase_clone_tol(ksup))
    except ValueError as e:
        raise GaugeDomainError("rebased problem rejected: %s" % e) from e

    st = MetricState(s1)
    pre = post = sup_norm(residual_parts(gauged, 1.0, st))
    if pre > cfg.newton_tol:
        pcfg = ContinuationConfig(newton_tol=min(cfg.newton_tol, 1e-11),
                                  newton_max=8,
                                  linear_rtol=min(cfg.linear_rtol, 1e-10))
        st, _, post = newton_solve_at(gauged, 1.0, st, pcfg, best_effort=True)
    return GaugeResult(gauged, h0h, pre, post), st


# ---------------------------------------------------------------------------
# runtime verification

def _energy_terms(p, st):
    """(||s||_L2^2, t_bg, t_nz, t_phi), the eps-independent integrals of
    the energy identity at st, computed once per state."""
    def build():
        geom, s = p.geom, st.s
        bg = p.ilf0 - (p.tau / 2.0) * np.eye(p.rank)
        t_bg = float(geom.integrate(np.einsum(
            "...ij,...ji->...", bg, s).real).real)
        bs = p.dbar_end(s)
        # the trace pairing tr((f^-1 d0 f) b) lands entry (i, j) of b on
        # psi(lam_j, lam_i), the column-first order of kernel_matrix
        psib = apply_two(fiber.kernel_matrix(fiber.psi_kernel, st.w), st.v, bs)
        t_nz = float(geom.integrate(geom.pair_01(psib, bs)).real)
        t_phi = float(geom.integrate(np.einsum(
            "...ij,...ji->...", p.zero_order(st), s).real).real)
        return (float(geom.integrate(frob(s) ** 2).real), t_bg, t_nz, t_phi)
    return st.field(p, "energy", build)


def energy_identity_gap(p, eps, st):
    """Integral energy identity at a solution of L_eps(f) = 0:

        -eps ||s||_L2^2 = <iLF0 - tau/2, s> + <Psi(s)(dbar_A s), dbar_A s>
                          + (1/2) <phi phi^H f, s>

    all integrated. Returns (gap, scale). The section term carries the
    deformed metric factor f; with the reference-metric factor instead
    the identity fails already for constant rank-1 data. Only lhs
    depends on eps: the integrals are floats of st's memo.
    """
    s2, t_bg, t_nz, t_phi = _energy_terms(p, st)
    lhs = -eps * s2
    rhs = t_bg + t_nz + t_phi
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(t_bg), abs(t_nz), abs(t_phi), 1e-30)
    return gap, scale


def diagnostics_check(p, eps, st, residual_sup, prev_st, newton_iters, cfg):
    """The DiagnosticsRecord of the accepted state st at eps. residual_sup
    is the sup of the residual at st, as newton_solve_at returns it: the
    record evaluates no residual of its own.

    What does not depend on eps is computed once per state and kept as
    floats in st's memo: the energy identity's integrals (||s||_L2^2
    also gives l2_log_f), the skew defect of the conjugated curvature,
    and the Cauchy increment of st to itself, which a stop reads when
    Newton accepts its start unchanged. sup|K0| of the a-priori margin
    is computed once per problem. The Ritz probe depends on eps and runs
    at each eps > 0 when cfg.full_diagnostics is set."""
    sup_s = sup_norm(st.s)
    margin = -math.inf
    if eps > 0.0:
        margin = sup_s - p.reference_constants[1] / eps
    gap, scale = energy_identity_gap(p, eps, st)
    cauchy = 0.0
    if prev_st is st:
        cauchy = st.field(p, "cauchy_self", lambda: _cauchy(st, st))
    elif prev_st is not None:
        cauchy = _cauchy(prev_st, st)
    ritz = math.nan  # not probed (eps = 0 may be honestly singular)
    if cfg.full_diagnostics and eps > 0.0:
        ritz = min_ritz_estimate(p, eps, st)
    skew = st.field(p, "skew", lambda: skew_defect(
        mm(mm(st.fsr, st.kraw(p)), st.fsri)))
    return DiagnosticsRecord(
        eps=eps,
        residual_sup=residual_sup,
        sup_log_f=sup_s,
        apriori_margin=margin,
        energy_gap=gap,
        energy_scale=scale,
        cauchy_increment=cauchy,
        newton_iters=newton_iters,
        min_ritz=ritz,
        skew_defect=skew,
        l2_log_f=math.sqrt(max(_energy_terms(p, st)[0], 0.0)),
    )


def _cauchy(prev_st, st):
    """The relative increment sup|log(f_prev^(-1/2) f f_prev^(-1/2))|,
    the symmetric form of sup|log(f_prev^-1 f)|."""
    m = herm_part(mm(mm(prev_st.fsri, st.f), prev_st.fsri))
    return sup_norm(fiber.herm_log(m, what="cauchy increment"))


# ---------------------------------------------------------------------------
# the homotopy driver

def _quadratic(var, pairs, eps):
    """The quadratic in var(eps) through the three (eps, s) pairs, at eps."""
    (x0, s0), (x1, s1), (x2, s2) = [(var(e), s) for e, s in pairs]
    x = var(eps)
    return (((x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))) * s0
            + ((x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))) * s1
            + ((x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1))) * s2)


# Converged runs are smooth in eps; diverging and semistable runs grow
# like a power of 1/eps or like log(1/eps), so neither variable alone
# extrapolates well on both.
def _eps_variable(hist):
    """eps (float, the identity) or math.log, whichever predicts the
    newest s of the four (eps, s) pairs hist from the three before it
    with the smaller sup error; eps on a tie."""
    eps, s = hist[3]
    return min((float, math.log),
               key=lambda var: sup_norm(_quadratic(var, hist[:3], eps) - s))


def _predicted_start(p, target, st, rec, hist, cfg):
    """Newton's start at eps = target after the accepted state st, whose
    diagnostics record is rec. hist holds the last accepted (eps, s)
    pairs, oldest first, ending with st's: the start is the secant
    through the newest two (Allgower & Georg 2003, section 2), and from
    four pairs on the quadratic through the newest three in the
    variable that _eps_variable picks.

    st itself is the start at the first stop, when it already meets
    newton_tol at target, and when the prediction crosses cfg.cap, so
    that only a Newton iterate can make a run diverge. The residual at
    target is the one at eps plus (target - eps) s, so the record
    bounds its sup to within rec.residual_sup of |target - eps|
    rec.sup_log_f; it is evaluated only when those bounds straddle
    newton_tol."""
    if len(hist) < 2:
        return st
    eps, tol = rec.eps, cfg.newton_tol
    shift = abs(target - eps) * rec.sup_log_f
    if shift + rec.residual_sup <= tol:
        return st
    if (shift - rec.residual_sup <= tol
            and sup_norm(residual_parts(p, target, st)) <= tol):
        return st
    if len(hist) == 4:
        s = _quadratic(_eps_variable(hist), hist[1:], target)
    else:
        (eps_back, s_back), (eps, _) = hist[-2:]
        s = st.s + ((target - eps) / (eps - eps_back)) * (st.s - s_back)
    if sup_norm(s) > cfg.cap:
        return st
    return MetricState(s)


def run_continuation(p, cfg=None, h_start=None):
    """Continuation from eps = 1 to cfg.eps_min, then an eps = 0 polish.

    The stops follow the geometric schedule eps -> cfg.ratio * eps,
    with a target within EPS_MIN_SNAP of eps_min snapped to it, and a
    stop whose Newton solve fails is halved towards the last accepted
    eps. Newton starts from _predicted_start; the polish starts from the
    eps_min state itself, because the boundary verdict reads how far
    the polish moves from it.

    Verdicts: converged (polish met tolerance), diverged (cap crossed,
    the operational no-solution signal), boundary (schedule completed
    but the polish failed, the semistable signature), failed
    (operational error). A start the initial gauge cannot rebase or
    that is not Hermitian fails with an empty trace, NaN residuals and
    no gauge; a failed Ritz probe at the last recorded eps (NaN at eps
    = 1). One site records the eps = 1 state and every stop, and a run
    hands back the state of its last record, none if it recorded none.
    """
    if cfg is None:
        cfg = ContinuationConfig()
    t0 = time.perf_counter()
    window = (math.nan, math.nan)
    if p.split is not None:
        window = pair_mod.stability_window(p.split, p.geom)
    gauge = st = None
    trace = []

    def build_report(verdict, cause, eps_reached, final_res):
        # the last record is that of st, the last accepted state
        rep = SolveReport(
            verdict=verdict, cause=cause,
            final_residual=final_res,
            final_sup_log_f=trace[-1].sup_log_f if trace else math.nan,
            degree=p.degree(), phi_l2=p.phi_l2, window=window,
            eps_reached=eps_reached, trace=trace,
            wall_time=time.perf_counter() - t0,
            gauge_pre_residual=getattr(gauge, "pre_residual", math.nan),
            gauge_post_residual=getattr(gauge, "post_residual", math.nan),
            newton_total=sum(rec.newton_iters for rec in trace),
        )
        return RunOutcome(rep, gauge, st)

    try:
        gauge, new = initial_gauge(p, h=h_start, cfg=cfg)
    except (fiber.ClampError, fiber.NotHermitianError, GaugeDomainError) as e:
        return build_report("failed", "gauge: %s: %s" % (type(e).__name__, e),
                            math.nan, math.nan)
    gp = gauge.problem
    # the one record site for eps > 0 (eps is the last recorded eps); it
    # first records the state the gauge polish accepted at eps = 1
    eps, hist, iters, rn, target = math.nan, [], 0, gauge.post_residual, 1.0
    try:
        while True:
            trace.append(diagnostics_check(gp, target, new, rn, st, iters,
                                           cfg))
            eps, st, hist = target, new, hist[-3:] + [(target, new.s)]
            if eps <= cfg.eps_min:
                break
            target = eps * cfg.ratio
            if target < EPS_MIN_SNAP * cfg.eps_min:
                target = cfg.eps_min
            for _ in range(HALVINGS_MAX + 1):
                start = _predicted_start(gp, target, st, trace[-1], hist, cfg)
                try:
                    new, iters, rn = newton_solve_at(gp, target, start, cfg)
                    break
                except CapExceeded:
                    return build_report(
                        "diverged", "cap at eps=%.4g" % target, target,
                        sup_norm(residual_parts(gp, target, st)))
                except NewtonFailure as e:
                    why, target = e, eps - 0.5 * (eps - target)
            else:
                return build_report("failed", "newton: %s" % why, eps,
                                    math.nan)
    except ProbeFailure as e:
        return build_report("failed", str(e), eps, math.nan)

    try:
        new, iters, rn = newton_solve_at(gp, 0.0, st, cfg)
    except CapExceeded:
        return build_report("diverged", "cap during polish", 0.0, math.nan)
    except NewtonFailure as e:
        return build_report("boundary", "polish failed: %s" % e, eps,
                            trace[-1].residual_sup)
    st, rec = new, diagnostics_check(gp, 0.0, new, rn, st, iters, cfg)
    trace.append(rec)
    # the limit must be a small correction of the eps_min state; a polish
    # that travels a macroscopic metric distance is a runaway along a
    # residual valley, the semistable signature
    budget = max(1.0, 5.0 * trace[-2].cauchy_increment)
    if rec.cauchy_increment > budget:
        return build_report(
            "boundary", "polish left the continuation neighborhood "
            "(moved %.3g, budget %.3g)" % (rec.cauchy_increment, budget),
            0.0, rn)
    # Newton returns an eps = 0 state only inside its 10x newton_tol band,
    # and rn is the residual it measured there
    return build_report("converged", "polish", 0.0, rn)


def uniqueness_probe(p, cfg=None, h_a=None, h_b=None):
    """Two continuations from independently gauged starts; sup distance
    of the final metrics in the common original frame."""
    out_a = run_continuation(p, cfg, h_start=h_a)
    out_b = run_continuation(p, cfg, h_start=h_b)
    if out_a.verdict != "converged" or out_b.verdict != "converged":
        raise NewtonFailure("uniqueness probe needs two converged runs, got %s/%s"
                            % (out_a.verdict, out_b.verdict))
    return sup_norm(out_a.metric - out_b.metric), out_a, out_b
