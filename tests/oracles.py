"""Test-side oracles: the lemma checks and closed forms that the tests
compare the solver against. The library never calls them.

    fiber level      the pair path xi and its closed-form derivative,
                     the Higgs path and bracket derivative, the
                     curvature semipositivity pairing, herm_sqrt
    pair level       the destabilising quantities nu, the trace-pairing
                     cross-check, the simplicity probe
    solver level     the unsymmetrized f L_eps(f) and its central
                     difference along a direction of s = log f, the eps
                     term of the linearization through the 1/Psi kernel
                     of an f-space solver, the contraction of
                     tr(g10 wedge b01), the contraction identity gap,
                     the monotone pairing gap, the reference
                     metric's own curvature K0, the margin of the
                     pointwise P-inequality and the slack of the
                     pointwise inequality checks, a tap that hands
                     each accepted state of a run to these checks, and
                     a manufactured rank-1 problem with a known
                     solution
    layout           a guard on the written-out product mm_planes that
                     fails on an entry operand that is not a
                     C-contiguous grid plane
    plain forms      the plain expressions that the in-place forms of
                     the derivatives, the fiber helpers, the equation
                     hooks, the residual, the Newton matvec, the packer
                     and the preconditioner replaced
"""

import contextlib
import math
import types

import numpy as np
import pytest

from vortexpair import _kernels, continuation
from vortexpair._kernels import apply_one, apply_two
from vortexpair.fiber import (CLAMP_HARD_REL, EIG_FLOOR, ClampError, comm,
                              dexp_kernel, frob, herm_eig, herm_part,
                              kernel_matrix, mm, psi_kernel, skew_defect,
                              sup_norm)
from vortexpair.geometry import TorusBackend
from vortexpair.pair import PairProblem, SplitModel

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# fiber level

def herm_sqrt(f, what="herm_sqrt"):
    """Positive square root of a positive definite Hermitian field."""
    w, v = herm_eig(f)
    if float(np.min(w)) < -CLAMP_HARD_REL * max(1.0, float(np.max(np.abs(w)))):
        raise ClampError("%s: input is not positive definite" % what)
    return apply_one(np.sqrt(np.maximum(w, EIG_FLOOR)), v)


def _to_identity_frame(phi, s, h0):
    """Reduce (phi, s) over a general reference metric to the identity
    frame: s is h0-Hermitian, conjugation by h0^(1/2) makes it Hermitian."""
    w0, v0 = herm_eig(h0)
    if np.min(w0) <= 0:
        raise ClampError("reference metric is not positive definite")
    h0h = apply_one(np.sqrt(w0), v0)
    h0hi = apply_one(1.0 / np.sqrt(w0), v0)
    s_id = herm_part(h0h @ s @ h0hi)
    phi_id = np.einsum("...ij,...j->...i", h0h, phi)
    return phi_id, s_id


def xi_path(phi, s, t, h0=None):
    """Real scalar field xi(t) = h0 pairing of the section term against s
    along the metric path h0 exp(t s).

    With h0 the identity this is phi^H exp(t s) s phi.
    """
    if h0 is not None:
        phi, s = _to_identity_frame(phi, s, h0)
    w, v = herm_eig(s)
    es = apply_one(np.exp(t * w) * w, v)
    out = np.einsum("...i,...ij,...j->...", np.conjugate(phi), es, phi)
    return out.real


def xi_derivative(phi, s, t):
    """d/dt of xi_path at h0 = id, in closed form: |s exp(t s / 2) phi|^2
    pointwise."""
    w, v = herm_eig(s)
    m = apply_one(w * np.exp(0.5 * t * w), v)
    vec = np.einsum("...ij,...j->...i", m, phi)
    return np.sum(np.abs(vec) ** 2, axis=-1)


def higgs_xi_derivative(theta, s, t):
    """Pointwise |[s, exp(ts/2) theta exp(-ts/2)]|_F^2, the field analogue
    of xi_derivative for a bracket term instead of a section."""
    w, v = herm_eig(s)
    e = apply_one(np.exp(0.5 * t * w), v)
    ei = apply_one(np.exp(-0.5 * t * w), v)
    th = e @ theta @ ei
    br = s @ th - th @ s
    return np.sum(np.abs(br) ** 2, axis=(-2, -1))


def higgs_xi_path(theta_mat, s_mat, t):
    """Fiber pairing path xi(t) = Re tr(s (th_t th_t^H - th_t^H th_t))
    with th_t = exp(ts/2) theta exp(-ts/2); its derivative is the
    squared commutator norm computed by higgs_xi_derivative."""
    w, v = herm_eig(s_mat)
    ep = apply_one(np.exp(0.5 * t * w), v)
    em = apply_one(np.exp(-0.5 * t * w), v)
    th = ep @ theta_mat @ em
    thd = np.conjugate(np.swapaxes(th, -1, -2))
    b = th @ thd - thd @ th
    return float(np.real(np.trace(s_mat @ b)))


def semipositivity_pair(theta_mat, f_mat, eta):
    """Fiberwise curvature pairing against a probe endomorphism.

    With mtil = f^(1/2) theta f^(-1/2) and T(eta) = [mtil^H, [mtil, eta]],
    the pairing <T(eta), eta> equals |[mtil, eta]|_F^2, hence is
    nonnegative. Returns (pairing, norm_sq)."""
    fsr = herm_sqrt(f_mat, what="semipositivity probe")
    fsri = np.linalg.inv(fsr)
    mt = fsr @ theta_mat @ fsri
    c = mt @ eta - eta @ mt
    t_eta = np.conjugate(mt.T) @ c - c @ np.conjugate(mt.T)
    pairing = float(np.real(np.trace(t_eta @ np.conjugate(eta.T))))
    nsq = float(np.real(np.trace(c @ np.conjugate(c.T))))
    return pairing, nsq


# ---------------------------------------------------------------------------
# destabilization quantities and the simplicity probe

def nu_case1(lam, split_or_mu, geom, tau):
    """Single eigenvalue case: nu = lam * rank * (mu(E) - (tau/4pi) Vol)."""
    if isinstance(split_or_mu, SplitModel):
        r = split_or_mu.rank
        mu = sum(split_or_mu.degrees) / float(r)
    else:
        r, mu = split_or_mu
    t = tau * geom.vol / (4.0 * math.pi)
    return lam * r * (mu - t)


def nu_case2(lams, ranks, slopes, geom, tau, total_rank, total_slope):
    """Eigenvalue chain case.

    lams: increasing eigenvalues lam_1 < ... < lam_l of the limit object.
    ranks, slopes: R_i and mu_i of the partial subobjects for i < l
    (length l-1 each). total_rank, total_slope: R and mu of the whole
    object.

    nu = lam_l * R * (mu - T) - sum_i (lam_{i+1} - lam_i) R_i (mu_i - T)
    with T = tau Vol / 4 pi. Collapses to the single eigenvalue form
    when all lams coincide.
    """
    lams = list(lams)
    ranks = list(ranks)
    slopes = list(slopes)
    if len(ranks) != len(lams) - 1 or len(slopes) != len(lams) - 1:
        raise ValueError("chain lists must have length len(lams) - 1")
    t = tau * geom.vol / (4.0 * math.pi)
    out = lams[-1] * total_rank * (total_slope - t)
    for i in range(len(lams) - 1):
        out -= (lams[i + 1] - lams[i]) * ranks[i] * (slopes[i] - t)
    return out


def nu_trace_oracle(p, u_const):
    """Trace pairing (1/2pi) * integral of tr((iLF0 - tau/2) u) for a
    constant Hermitian u; equals the destabilization quantity when u is
    the limit object. Used as an independent cross-check."""
    eye = np.eye(p.rank)
    integrand = np.einsum("...ij,...ji->...", p.ilf0 - (p.tau / 2.0) * eye, u_const)
    return float(p.geom.integrate(integrand).real) / TWO_PI


def phi_simple_check(p):
    """Desk-scale simplicity check on constant-coefficient torus models.

    Audits the finite-dimensional space of constant endomorphisms that
    commute with the background (curvature and twists) and annihilate
    the section pointwise. Returns (simple, nullity, smallest_sv).
    """
    if not isinstance(p.geom, TorusBackend):
        raise ValueError("phi_simple_check supports the torus backend only")
    r = p.rank
    rows = []

    ilf = p.ilf0
    npts = int(np.prod(p.geom.shape))
    flat_ilf = ilf.reshape(npts, r, r)
    # subsample grid points for the commutation constraints
    take = np.linspace(0, npts - 1, min(npts, 32)).astype(int)

    def comm_rows(m):
        # rows of u -> m u - u m as a linear map on vec(u)
        eye = np.eye(r)
        return np.kron(m, eye) - np.kron(eye, m.T)

    for idx in take:
        rows.append(comm_rows(flat_ilf[idx]))
    if p.a01 is not None:
        a = p.a01 if p.a01.ndim == 2 else p.a01.reshape(npts, r, r)[0]
        rows.append(comm_rows(np.asarray(a)))
    if p.a10 is not None:
        a = p.a10 if p.a10.ndim == 2 else p.a10.reshape(npts, r, r)[0]
        rows.append(comm_rows(np.asarray(a)))

    flat_phi = p.phi.reshape(npts, r)
    for idx in take:
        v = flat_phi[idx]
        # u(phi) = 0: rows indexed by output component
        block = np.zeros((r, r * r), dtype=np.complex128)
        for i in range(r):
            block[i, i * r:(i + 1) * r] = v
        rows.append(block)

    mat = np.vstack(rows)
    sv = np.linalg.svd(mat, compute_uv=False)
    nullity = int(np.sum(sv < 1e-10 * max(1.0, sv[0])))
    smallest = float(sv[-1])
    return nullity == 0, nullity, smallest


# ---------------------------------------------------------------------------
# solver level

def lhat_raw(p, eps, st):
    """f L_eps(f), unsymmetrized."""
    out = mm(st.f, st.kraw(p))
    if eps != 0.0:
        out = out + eps * mm(st.f, st.s)
    return out


def fd_lhat(p, eps, st, v, t=1e-6):
    """Central difference of lhat_raw along s -> s + t v, the direction
    the linearization takes."""
    def lhat_at(sign):
        return lhat_raw(p, eps, continuation.MetricState(st.s + sign * t * v))

    return (lhat_at(1.0) - lhat_at(-1.0)) / (2.0 * t)


def eps_term_through_inverse_psi(st, vh):
    """The eps term of the linearization, divided by eps, by the route
    of an f-space solver: f dlog_f[v] for the metric direction
    v = dexp_s[vh], entries v_ij / Psi(l_i, l_j) in the eigenbasis of s.
    The 1/Psi kernel is taken row first, unlike kernel_matrix. Equal to
    f vh by the chain rule."""
    v = apply_two(kernel_matrix(dexp_kernel, st.w), st.v, vh)
    kinv = 1.0 / psi_kernel(st.w[..., :, None], st.w[..., None, :])
    return apply_two(kinv, st.v, v)


def lam_wedge_trace(geom, g10, b01):
    """Contraction of tr(g10 wedge b01) on geom, a complex scalar field."""
    g10 = np.asarray(g10)
    if g10.ndim > len(geom.shape) and g10.shape[-1] == g10.shape[-2]:
        c = np.einsum("...ij,...ji->...", g10, b01)
    else:
        c = g10 * b01
    return geom.cg * c


def nie_zhang_check(p, st):
    """Integrated absolute gap of the pointwise contraction identity

        iL tr((f^-1 d0 f) wedge dbar_A s) = <Psi(s)(dbar_A s), dbar_A s>.
    """
    geom = p.geom
    g10 = st.g_field(p)
    bs = p.dbar_end(st.s)
    lhs = lam_wedge_trace(geom, g10, bs)
    psib = apply_two(kernel_matrix(psi_kernel, st.w), st.v, bs)
    rhs = geom.pair_01(psib, bs)
    return float(geom.integrate(np.abs(lhs - rhs)).real)


def k0_field(p):
    """Mean curvature K0 = ilf0 + zero_order_id() - (tau/2) I of the
    reference metric itself, exactly Hermitian by assembly; the library
    keeps only its sup norm (PairProblem.reference_constants)."""
    return p.ilf0 + p.zero_order_id() - (p.tau / 2.0) * np.eye(p.rank)


def discretization_slack(p, st):
    """Self-declared slack for the pointwise inequality checks.

    Spectral backend: roundoff-level. Finite-difference backend: an
    O(h^2) envelope scaled by the field size. Engineering constant, not
    a theorem; documented with the check it guards."""
    if isinstance(p.geom, TorusBackend):
        return 1e-8 * max(1.0, sup_norm(st.s)) ** 2
    h = p.geom.h
    return 50.0 * h ** 2 * max(1.0, sup_norm(st.s)) ** 3 * max(1.0, sup_norm(k0_field(p)))


def monotone_gap(p, st):
    """Integrated pairing of the zero-order-term increment against s;
    nonnegative by the monotonicity of the fiberwise pairing path."""
    geom = p.geom
    inc = np.einsum("...ij,...ji->...",
                    p.zero_order(st) - p.zero_order_id(),
                    st.s).real
    return float(geom.integrate(inc).real)


def calc_inequality_margin(p, eps, st):
    """Max pointwise violation of (1/2) P(|s|^2) + eps |s|^2 <= |K0||s|."""
    geom = p.geom
    ns = frob(st.s)
    pterm = 0.5 * geom.p_op(ns ** 2).real
    k0n = frob(k0_field(p))
    lhs = pterm + eps * ns ** 2
    return float(np.max(lhs - k0n * ns))


def tapped(run, *args):
    """run(*args) with a tap on continuation.diagnostics_check. Returns
    the result and, for every accepted state the run records, the triple
    (problem, state, record), so tests can check certificates the record
    does not carry."""
    check = continuation.diagnostics_check
    taps = []

    def tap(p, eps, st, *rest):
        rec = check(p, eps, st, *rest)
        taps.append((p, st, rec))
        return rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "diagnostics_check", tap)
        return run(*args), taps


def manufactured(geom, tau, amp, seed):
    """A rank-1 problem with section 1 on geom whose discrete equation
    at eps = 0 has the known solution f* = exp(u), u a smooth random
    band scalar of sup amp (the method of manufactured solutions,
    Roache 2002). Returns (problem, f*): the background curvature is
    set to ilf0 = tau/2 - curvature_update(f*) - zero_order(f*),
    through the solver's own operators."""
    u = geom.random_band_scalar(np.random.default_rng(seed), kmax=2, amp=amp)
    st = continuation.MetricState(u[..., None, None].astype(complex))
    q = PairProblem(geom, 1, [[0.0]], [1.0], tau)
    ilf0 = herm_part(tau / 2.0 - q.curvature_update(st) - q.zero_order(st))
    return PairProblem(geom, 1, ilf0, [1.0], tau), st.f


# ---------------------------------------------------------------------------
# layout

@contextlib.contextmanager
def plane_layout_guard():
    """Wrap the written-out product _kernels.mm_planes (its one site) for
    the duration of the block, and fail at its end if any grid-sized
    entry operand was not a C-contiguous grid plane. Constant (0-d)
    entries are exempt. Yields a namespace whose calls counts the
    products seen, so a caller can check that the guard saw work;
    violations are recorded rather than raised, so no handler inside the
    solver can swallow them."""
    orig = _kernels.mm_planes
    seen = types.SimpleNamespace(calls=0, bad=0, first=None)

    def guarded(x, y, out, tmp):
        seen.calls += 1
        for name, ops in (("x", x), ("y", y), ("out", out)):
            for i, row in enumerate(ops):
                for j, e in enumerate(row):
                    if np.ndim(e) and not e.flags.c_contiguous:
                        seen.bad += 1
                        seen.first = seen.first or (
                            "%s[%d][%d] shape %s strides %s"
                            % (name, i, j, e.shape, e.strides))
        return orig(x, y, out, tmp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "mm_planes", guarded)
        yield seen
    if seen.bad:
        pytest.fail("%d strided entry operands reached mm_planes, first: %s"
                    % (seen.bad, seen.first))


# ---------------------------------------------------------------------------
# plain forms
#
# Each function below is the plain expression that a library function
# used before it built its result in place. Each calls the library only
# for the pieces the library function calls, so a test can compare the
# two bit for bit, one function at a time.

def deriv_plain(geom, u, conj):
    """TorusBackend._deriv: fft2, the symbol product, ifft2."""
    u = np.asarray(u, dtype=np.complex128)
    uh = np.fft.fft2(u, axes=(0, 1))
    sym = geom._sym_dbar if conj else geom._sym_d
    sym = sym.reshape(sym.shape + (1,) * (u.ndim - 2))
    return np.fft.ifft2(sym * uh, axes=(0, 1))


def lam_dbar_10_plain(geom, g10):
    if isinstance(geom, TorusBackend):
        return -geom.cg * geom.dbar(g10)
    return -(geom._d1(g10) + g10)


def frob_plain(a):
    a = np.asarray(a)
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def sup_norm_plain(a):
    return float(np.max(frob_plain(a)))


def herm_part_plain(a):
    return 0.5 * (a + np.conjugate(np.swapaxes(a, -1, -2)))


def skew_defect_plain(a):
    skew = 0.5 * (a - np.conjugate(np.swapaxes(a, -1, -2)))
    return float(np.max(frob_plain(skew))) if skew.size else 0.0


def comm_plain(a, b):
    return mm(a, b) - mm(b, a)


def psi_kernel_plain(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = y - x
    small = np.abs(t) < 1e-6
    ts = np.where(small, 0.0, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        main = np.expm1(ts) / ts
    series = 1.0 + t / 2.0 + t * t / 6.0
    return np.where(small, series, main)


def d0_end_plain(p, x):
    out = p.geom.d(x)
    if p.a10 is not None and p.rank > 1:
        out = out + comm(p.a10, x)
    return out


def lam_dbar_end_plain(p, g10):
    out = p.geom.lam_dbar_10(g10)
    if p.a01 is not None and p.rank > 1:
        out = out - p.geom.lam11(comm(p.a01, g10))
    return out


def mean_curvature_raw_plain(p, st):
    upd = p.curvature_update(st)
    eye = np.eye(p.rank)
    return p.ilf0 + upd + p.zero_order(st) - (p.tau / 2.0) * eye


def higgs_zero_order_lin_plain(p, st, v):
    m = p.adjoint_field(st)
    dm = mm(st.finv, mm(p.theta_dag, v) - mm(v, m))
    return p.geom.lam11(comm(p.theta, dm))


def residual_parts_plain(p, eps, st):
    """The Hermitian residual and, computed at once, its skew defect."""
    x = mm(mm(st.fsr, st.kraw(p)), st.fsri)
    skew = skew_defect(x)
    r = herm_part(x)
    if eps != 0.0:
        r = r + eps * st.s
    return r, skew


def d2lhat_apply_plain(p, eps, st, vh):
    v = apply_two(kernel_matrix(dexp_kernel, st.w), st.v, vh)
    lraw = st.kraw(p)
    if eps != 0.0:
        lraw = lraw + eps * st.s
    t1 = mm(v, lraw)
    d0v = p.d0_end(v)
    y = mm(st.finv, d0v) - mm(mm(st.finv, v), st.g_field(p))
    t2 = mm(st.f, p.lam_dbar_end(y))
    t3 = mm(st.f, p.zero_order_lin(st, v))
    out = t1 + t2 + t3
    if eps != 0.0:
        out = out + eps * mm(st.f, vh)
    return out


def pack_plain(packer, h):
    r, (i, j) = packer.r, packer.iu
    dg = np.arange(r)
    flat = h.reshape(packer.npts, r, r)
    parts = [flat[:, dg, dg].real]
    if packer.noff:
        off = 0.5 * (flat[:, i, j] + np.conjugate(flat[:, j, i]))
        parts.append(math.sqrt(2.0) * off.real)
        parts.append(math.sqrt(2.0) * off.imag)
    return np.concatenate([q.ravel() for q in parts])


def precond_plain(p, eps, packer):
    """continuation._precond_operator's matvec through fftn and ifftn."""
    c = float(np.mean(np.trace(p.zero_order_id(),
                               axis1=-2, axis2=-1).real)) / p.rank
    shift = max(eps, 0.0) + max(c, 0.0) + 1e-12
    sym = p.geom.p_symbol + shift
    axes = tuple(range(len(p.geom.shape)))
    denom = sym.reshape(sym.shape + (1, 1))

    def mv(x):
        hh = np.fft.fftn(packer.unpack(x), axes=axes)
        hh /= denom
        return packer.pack(np.fft.ifftn(hh, axes=axes))
    return mv
