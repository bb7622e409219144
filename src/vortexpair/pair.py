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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber
from .fiber import comm, mm


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
    verdict: str               # classify at tau
    tau: float
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
    a01         optional (0,1) connection coefficient, an (r, r) matrix
                or a grid + (r, r) field, kept as given (a constant stays
                a constant); acts on sections by multiplication, on
                endomorphisms by commutator (zero at rank 1). The (1,0)
                one is a10 = -a01^H, the Chern convention for an
                identity reference metric
    split       optional SplitModel consistency declaration
    """

    def __init__(self, geom, rank, ilf0, phi, tau, a01=None, split=None,
                 holomorphy_tol=None):
        self.geom = geom
        self.rank = int(rank)
        self.tau = float(tau)
        self.split = split

        r = self.rank
        self.ilf0 = self._expand(ilf0, (r, r), "curvature field")
        self.phi = self._expand(phi, (r,), "section")
        self.a01 = None if a01 is None else self._checked(a01, (r, r), "a01")
        self.a10 = (None if a01 is None
                    else -np.conjugate(np.swapaxes(self.a01, -1, -2)))

        if holomorphy_tol is None:
            holomorphy_tol = geom.holomorphy_tol
        self.holomorphy_tol = holomorphy_tol

        # reject non-finite data before any field is derived from it
        self._check_finite("tau", "ilf0", "phi", "a01")
        self.phi_outer0 = fiber.phi_outer(self.phi)
        self.phi_l2 = float(geom.integrate(
            np.sum(np.abs(self.phi) ** 2, axis=-1)).real)
        self._validate()

    def _checked(self, x, tail, what):
        """x as a complex array, which must be a constant of shape tail
        or a field of shape grid + tail."""
        x = np.asarray(x, dtype=np.complex128)
        want = tuple(self.geom.shape) + tail
        if x.shape not in (tail, want):
            raise ValueError("%s shape %s, want %s" % (what, x.shape, want))
        return x

    def _expand(self, x, tail, what):
        """x checked and copied into a new grid field with fiber shape
        tail: a constant of shape tail goes to every point."""
        out = fiber.empty_field(self.geom.shape, tail)
        out[...] = self._checked(x, tail, what)
        return out

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
        out = self.geom.dbar(sec)
        if self.a01 is not None:
            out = out + np.einsum("...ij,...j->...i", self.a01, sec)
        return out

    def holomorphy_defect(self):
        d = self.dbar_section(self.phi)
        return float(np.max(np.sqrt(np.sum(np.abs(d) ** 2, axis=-1))))

    def d0_end(self, x):
        """Background (1,0) derivative on endomorphism fields."""
        out = self.geom.d(x)
        if self.a01 is not None and self.rank > 1:
            out += comm(self.a10, x)
        return out

    def dbar_end(self, x):
        out = self.geom.dbar(x)
        if self.a01 is not None and self.rank > 1:
            out = out + comm(self.a01, x)
        return out

    def lam_dbar_end(self, g10):
        """Contraction of the twisted dbar on a (1,0) endomorphism field."""
        out = self.geom.lam_dbar_10(g10)
        if self.a01 is not None and self.rank > 1:
            out -= self.geom.lam11(comm(self.a01, g10))
        return out

    def degree(self):
        return self.geom.degree(self.ilf0)

    def _transformed_clone(self, ilf0p, phip, a01p, h0h, h0hi, tol):
        """Rebuild the same kind of problem from frame-transformed data;
        subclasses transport their extra fields here."""
        return PairProblem(self.geom, self.rank, ilf0p, phip, self.tau,
                           a01=a01p, split=self.split,
                           holomorphy_tol=max(self.holomorphy_tol, tol))

    # -- equation pieces -----------------------------------------------------

    def curvature_update(self, st):
        """Contraction of dbar of f^{-1} d0 f: the curvature change when
        the identity reference metric deforms by f = st.f."""
        return self.lam_dbar_end(st.g_field(self))

    # zero-order term hooks; the Higgs variant overrides all three

    def zero_order_id(self):
        return 0.5 * self.phi_outer0

    def zero_order(self, st):
        return 0.5 * mm(self.phi_outer0, st.f)

    def zero_order_lin(self, st, v):
        """Derivative of zero_order(st) along the f-direction v."""
        return 0.5 * mm(self.phi_outer0, v)

    @functools.cached_property
    def reference_constants(self):
        """(c, sup|K0|), two floats from one zero_order_id() call, computed
        once per problem: c = mean tr(zero_order_id()) / r, the
        preconditioner's zero-order shift, and the sup norm of
        K0 = ilf0 + zero_order_id() - (tau/2) I, the mean curvature of
        the reference metric itself, which the a-priori margin reads."""
        zid = self.zero_order_id()
        c = float(np.mean(np.trace(zid, axis1=-2, axis2=-1).real)) / self.rank
        k0 = self.ilf0 + zid - (self.tau / 2.0) * np.eye(self.rank)
        return c, fiber.sup_norm(k0)

    def mean_curvature_raw(self, st):
        """Mean curvature of the deformed metric f = st.f, raw matrix
        assembly.

        Hermitian with respect to the deformed metric in the continuum;
        the discrete anti-Hermitian defect is truncation error and is
        tracked separately by the continuation module.
        """
        out = self.curvature_update(st)
        out += self.ilf0
        out += self.zero_order(st)
        return np.subtract(out, (self.tau / 2.0) * np.eye(self.rank), out=out)


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


def stability_report(split, geom, tau):
    lo, hi = stability_window(split, geom)
    audited = list(split.admissible_subsets(proper=False))
    return StabilityReport(
        mu_max=mu_M(split),
        mu_min_phi=mu_m_phi(split),
        window=(lo, hi),
        verdict=classify(split, geom, tau),
        tau=tau,
        audited=audited,
    )
