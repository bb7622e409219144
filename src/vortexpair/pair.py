"""Holomorphic pair problems and the slope stability analyzer.

A PairProblem bundles the discretized background: geometry backend,
rank, background connection twists, contracted background curvature,
the holomorphic section, and the parameter tau. The reference fiber
metric is always the identity matrix in the stored frame; regauging is
done by frame transformations in the continuation module.

The stability analyzer works on split models only: declared line
summand degrees with optional extension coupling. It audits coordinate
sub-sums, which is an under-approximation of the full subsheaf lattice;
every report says so.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import comm

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SplitModel:
    """Split background: line summand degrees, which summand carries the
    section, and an optional strictly lower/upper coupling mask marking
    extension structure (entry (i, j) true when dbar of summand j leaks
    into summand i)."""
    degrees: tuple
    phi_summand: int | None = None
    coupling_mask: tuple = ()

    def __post_init__(self):
        if len(self.degrees) == 0:
            raise ValueError("split model needs at least one summand")
        if self.phi_summand is not None and not (0 <= self.phi_summand < len(self.degrees)):
            raise ValueError("phi summand index out of range")

    @property
    def rank(self):
        return len(self.degrees)

    def admissible(self, subset):
        """A coordinate sub-sum is an invariant subobject when dbar does
        not leak out of it: mask[i, j] and j in subset forces i in subset."""
        sub = set(subset)
        for (i, j) in self.coupling_mask:
            if j in sub and i not in sub:
                return False
        return True

    def admissible_subsets(self, proper=True):
        r = self.rank
        idx = range(r)
        top = r if proper else r + 1
        for k in range(1, top):
            for c in itertools.combinations(idx, k):
                if self.admissible(c):
                    yield c


@dataclass
class StabilityReport:
    mu_max: float
    mu_min_phi: float          # may be +inf
    window: tuple              # (tau_lo, tau_hi) open interval, tau units
    verdict: str               # for the tau supplied to classify
    tau: float | None
    audited: list              # subsets examined, for the report
    note: str = ("subsheaf audit restricted to coordinate sub-sums of the "
                 "declared split model")

    def to_dict(self):
        return {
            "mu_max": self.mu_max,
            "mu_min_phi": self.mu_min_phi,
            "window": [self.window[0], self.window[1]],
            "verdict": self.verdict,
            "tau": self.tau,
            "audited": ["".join(str(i) for i in s) for s in self.audited],
            "note": self.note,
        }


class PairProblem:
    """Problem instance. All fields are in the frame where the reference
    metric is the identity.

    geom        geometry backend
    rank        fiber rank r
    ilf0        contracted background curvature, Hermitian (r, r) matrix
                or matrix field
    phi         section field, shape grid + (r,)
    tau         equation parameter
    a01         optional (0,1) connection coefficient (matrix or field);
                acts on sections by multiplication, on endomorphisms by
                commutator
    a10         optional (1,0) connection coefficient; defaults to -a01^H,
                the Chern convention for an identity reference metric
    sec01       optional section twist when it differs from a01 (weight
                bookkeeping on the curved backend); None inherits a01
    split       optional SplitModel consistency declaration
    """

    def __init__(self, geom, rank, ilf0, phi, tau, a01=None, a10=None,
                 sec01=None, split=None, holomorphy_tol=None, check=True):
        self.geom = geom
        self.rank = int(rank)
        self.tau = float(tau)
        self.split = split

        gshape = tuple(geom.shape)
        self.ilf0 = self._expand_matrix(ilf0, gshape)
        self.phi = self._expand_section(phi, gshape)
        self.a01 = None if a01 is None else np.asarray(a01, dtype=np.complex128)
        if a10 is not None:
            self.a10 = np.asarray(a10, dtype=np.complex128)
        elif self.a01 is not None:
            self.a10 = -np.conjugate(np.swapaxes(self.a01, -1, -2))
        else:
            self.a10 = None
        self.sec01 = None if sec01 is None else np.asarray(sec01,
                                                           dtype=np.complex128)

        if holomorphy_tol is None:
            holomorphy_tol = geom.holomorphy_tol
        self.holomorphy_tol = holomorphy_tol

        # reject non-finite data before any field is derived from it
        if check:
            self._check_finite("tau", "ilf0", "phi", "a01", "a10", "sec01")
        self.phi_outer0 = fiber.phi_outer(self.phi)
        self.phi_l2 = float(geom.integrate(
            np.sum(np.abs(self.phi) ** 2, axis=-1)).real)

        if check:
            self._validate()

    def _expand_matrix(self, m, gshape):
        m = np.asarray(m, dtype=np.complex128)
        if m.shape == (self.rank, self.rank):
            out = np.empty(gshape + (self.rank, self.rank), dtype=np.complex128)
            out[...] = m
            return out
        want = gshape + (self.rank, self.rank)
        if m.shape != want:
            raise ValueError("curvature field shape %s, want %s" % (m.shape, want))
        return m

    def _expand_section(self, phi, gshape):
        phi = np.asarray(phi, dtype=np.complex128)
        if phi.shape == (self.rank,):
            out = np.empty(gshape + (self.rank,), dtype=np.complex128)
            out[...] = phi
            return out
        want = gshape + (self.rank,)
        if phi.shape != want:
            raise ValueError("section shape %s, want %s" % (phi.shape, want))
        return phi

    def _check_finite(self, *names):
        for name in names:
            val = getattr(self, name)
            if val is not None and not np.all(np.isfinite(val)):
                raise ValueError("%s has non-finite entries" % name)

    def _validate(self):
        fiber.assert_hermitian(self.ilf0, what="background curvature")
        d = self.holomorphy_defect()
        scale = max(1.0, math.sqrt(max(self.phi_l2, 0.0)))
        if d > self.holomorphy_tol * scale:
            raise ValueError(
                "section is not holomorphic for the background: defect %.3e "
                "exceeds tol %.3e" % (d, self.holomorphy_tol))
        if self.split is not None:
            if self.split.rank != self.rank:
                raise ValueError("split model rank mismatch")
            want = float(sum(self.split.degrees))
            got = self.degree()
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                raise ValueError(
                    "declared degrees sum to %g but curvature integrates to %g"
                    % (want, got))

    # -- background operators ------------------------------------------------

    def dbar_section(self, sec):
        tw = self.sec01 if self.sec01 is not None else self.a01
        out = self.geom.dbar(sec)
        if tw is not None:
            out = out + np.einsum("...ij,...j->...i", tw, sec)
        return out

    def holomorphy_defect(self):
        d = self.dbar_section(self.phi)
        return float(np.max(np.sqrt(np.sum(np.abs(d) ** 2, axis=-1))))

    def d0_end(self, x):
        """Background (1,0) derivative on endomorphism fields."""
        out = self.geom.d(x)
        if self.a10 is not None:
            out = out + comm(self.a10, x)
        return out

    def dbar_end(self, x):
        out = self.geom.dbar(x)
        if self.a01 is not None:
            out = out + comm(self.a01, x)
        return out

    def lam_dbar_end(self, g10):
        """Contraction of the twisted dbar on a (1,0) endomorphism field."""
        return self.geom.lam_dbar_10(g10, twist01=self.a01)

    def degree(self):
        return self.geom.degree(self.ilf0)

    def _transformed_clone(self, ilf0p, phip, a01p, a10p, sec01p, h0h, h0hi,
                           tol):
        """Rebuild the same kind of problem from frame-transformed data;
        subclasses transport their extra fields here."""
        return PairProblem(self.geom, self.rank, ilf0p, phip, self.tau,
                           a01=a01p, a10=a10p, sec01=sec01p, split=self.split,
                           holomorphy_tol=max(self.holomorphy_tol, tol),
                           check=True)

    # -- equation pieces -----------------------------------------------------

    def curvature_update(self, f, finv=None):
        """Contraction of dbar of f^{-1} d0 f: the curvature change when
        the identity reference metric deforms by f."""
        if finv is None:
            finv = np.linalg.inv(f)
        g = finv @ self.d0_end(f)
        return self.lam_dbar_end(g)

    # zero-order term hooks; the Higgs variant overrides all three

    def zero_order_id(self):
        return 0.5 * self.phi_outer0

    def zero_order(self, f, finv=None):
        return 0.5 * (self.phi_outer0 @ f)

    def zero_order_lin(self, st, v):
        """Derivative of zero_order(f) along f-direction v (st carries
        the powers of the base point f)."""
        return 0.5 * (self.phi_outer0 @ v)

    def k0_field(self):
        """Mean curvature of the reference metric itself. Exactly
        Hermitian by assembly."""
        eye = np.eye(self.rank)
        return self.ilf0 + self.zero_order_id() - (self.tau / 2.0) * eye

    def mean_curvature_raw(self, f, finv=None):
        """Mean curvature of the deformed metric, raw matrix assembly.

        Hermitian with respect to the deformed metric in the continuum;
        the discrete anti-Hermitian defect is truncation error and is
        tracked separately by the continuation module.
        """
        upd = self.curvature_update(f, finv=finv)
        eye = np.eye(self.rank)
        return self.ilf0 + upd + self.zero_order(f, finv=finv) \
            - (self.tau / 2.0) * eye


# ---------------------------------------------------------------------------
# slope stability analyzer (split models, coordinate sub-sums only)

def _slope(degrees, subset):
    return sum(degrees[i] for i in subset) / float(len(subset))


def mu_M(split):
    """Max slope over admissible coordinate sub-sums including the whole."""
    degrees = split.degrees
    best = _slope(degrees, range(split.rank))
    for s in split.admissible_subsets(proper=True):
        best = max(best, _slope(degrees, s))
    return best


def mu_m_phi(split):
    """Min quotient slope over proper admissible sub-sums containing the
    section summand; +inf when there is none (rank 1, or no section)."""
    if split.phi_summand is None:
        return math.inf
    degrees = split.degrees
    best = math.inf
    full = set(range(split.rank))
    for s in split.admissible_subsets(proper=True):
        if split.phi_summand not in s:
            continue
        quot = sorted(full - set(s))
        best = min(best, _slope(degrees, quot))
    return best


def stability_window(split, geom):
    """Open tau interval where the declared split model is stable."""
    lo = 4.0 * math.pi * mu_M(split) / geom.vol
    mm = mu_m_phi(split)
    hi = math.inf if math.isinf(mm) else 4.0 * math.pi * mm / geom.vol
    return (lo, hi)


def classify(split, geom, tau):
    """Verdict for tau against the audited window."""
    lo, hi = stability_window(split, geom)
    tol = 1e-9 * max(1.0, abs(tau))
    if abs(tau - lo) <= tol:
        return "boundary"
    if not math.isinf(hi) and abs(tau - hi) <= tol:
        return "boundary"
    if lo < tau and tau < hi:
        return "tau-stable"
    return "unstable"


def stability_report(split, geom, tau=None):
    lo, hi = stability_window(split, geom)
    verdict = classify(split, geom, tau) if tau is not None else "n/a"
    audited = list(split.admissible_subsets(proper=False))
    return StabilityReport(
        mu_max=mu_M(split),
        mu_min_phi=mu_m_phi(split),
        window=(lo, hi),
        verdict=verdict,
        tau=tau,
        audited=audited,
    )


# ---------------------------------------------------------------------------
# destabilization quantities

def nu_case1(lam, split_or_mu, geom, tau):
    """Single eigenvalue case: nu = lam * rank * (mu(E) - (tau/4pi) Vol)."""
    if isinstance(split_or_mu, SplitModel):
        r = split_or_mu.rank
        mu = _slope(split_or_mu.degrees, range(r))
    else:
        r, mu = split_or_mu
    t = tau * geom.vol / (4.0 * math.pi)
    return lam * r * (mu - t)


def nu_case2(lams, ranks, slopes, geom, tau, total_rank=None, total_slope=None):
    """Eigenvalue chain case.

    lams: increasing eigenvalues lam_1 < ... < lam_l of the limit object.
    ranks, slopes: R_i and mu_i of the partial subobjects for i < l
    (length l-1 each). total_rank / total_slope describe the whole
    object; they default to the last chain entry extended by nothing,
    so they must be supplied when l > 1.

    nu = lam_l * R * (mu - T) - sum_i (lam_{i+1} - lam_i) R_i (mu_i - T)
    with T = tau Vol / 4 pi. Collapses to the single eigenvalue form
    when all lams coincide.
    """
    lams = list(lams)
    ranks = list(ranks)
    slopes = list(slopes)
    if len(ranks) != len(lams) - 1 or len(slopes) != len(lams) - 1:
        raise ValueError("chain lists must have length len(lams) - 1")
    if total_rank is None or total_slope is None:
        raise ValueError("total rank and slope are required")
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


# ---------------------------------------------------------------------------
# simplicity probe

def phi_simple_check(p):
    """Desk-scale simplicity check on constant-coefficient torus models.

    Audits the finite-dimensional space of constant endomorphisms that
    commute with the background (curvature and twists) and annihilate
    the section pointwise. Returns (simple, nullity, smallest_sv).
    """
    if p.geom.kind != "torus":
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
