"""Higgs-bundle variant of the continuation problem.

The deformed equation is

    iL(F_h + [theta, theta*_h]) - lam id + eps log f = 0,    h = f,

with theta a holomorphic (1,0) endomorphism field and theta*_h its
adjoint for the deformed metric, theta*_h = f^-1 theta^H f. The
zero-order term iL[theta, theta*_h] replaces the section outer product
of the vortex equation; everything else (curvature update, Newton
driver, diagnostics) is shared through the zero-order hooks of
PairProblem.

No convergence claim is attached to Higgs runs. The shipped checks are
property level: adjoint-bracket algebra, reduction to the vortex
machinery at theta = 0, linearization consistency, fiberwise curvature
semipositivity, and monotonicity of the fiber pairing path.
"""

import numpy as np

from . import fiber
from ._kernels import apply_one
from .pair import PairProblem


class HiggsProblem(PairProblem):
    """Problem instance with a Higgs field instead of a section.

    theta   (r, r) matrix or matrix field, the (1,0) coefficient
    lam     constant right-hand side (the equation parameter); stored
            as tau = 2 lam so the shared assembly divides it back
    """

    def __init__(self, geom, rank, ilf0, theta, lam, a01=None, a10=None,
                 split=None, theta_tol=None, check=True):
        self.lam = float(lam)
        # placeholder so the parent validation can run; theta checks follow
        self.theta = None
        super().__init__(geom, rank, ilf0, np.zeros(int(rank)), 2.0 * lam,
                         a01=a01, a10=a10, split=split, check=check)
        self.theta = self._expand_matrix(theta, tuple(geom.shape))
        self.theta_dag = np.conjugate(np.swapaxes(self.theta, -1, -2))
        if theta_tol is None:
            theta_tol = geom.holomorphy_tol
        self.theta_tol = theta_tol
        if check:
            self._check_finite("theta")
            d = float(np.max(fiber.frob(self.dbar_end(self.theta))))
            scale = max(1.0, float(np.max(fiber.frob(self.theta))))
            if d > theta_tol * scale:
                raise ValueError(
                    "higgs field is not holomorphic for the background: "
                    "defect %.3e exceeds tol %.3e" % (d, theta_tol))

    # -- zero-order hooks ----------------------------------------------------

    def adjoint_field(self, f, finv=None):
        """theta*_h for h = f over the identity reference."""
        if finv is None:
            finv = np.linalg.inv(f)
        return finv @ self.theta_dag @ f

    def zero_order_id(self):
        b = self.theta @ self.theta_dag - self.theta_dag @ self.theta
        return self.geom.lam11(b)

    def zero_order(self, f, finv=None):
        m = self.adjoint_field(f, finv=finv)
        return self.geom.lam11(self.theta @ m - m @ self.theta)

    def zero_order_lin(self, st, v):
        m = st.field(self, "adjoint",
                     lambda: self.adjoint_field(st.f, finv=st.finv))
        dm = st.finv @ (self.theta_dag @ v - v @ m)
        return self.geom.lam11(self.theta @ dm - dm @ self.theta)

    # -- gauge transport -----------------------------------------------------

    def _transformed_clone(self, ilf0p, phip, a01p, a10p, sec01p, h0h, h0hi,
                           tol):
        thetap = h0h @ self.theta @ h0hi
        return HiggsProblem(self.geom, self.rank, ilf0p, thetap, self.lam,
                            a01=a01p, a10=a10p, split=self.split,
                            theta_tol=max(self.theta_tol, tol), check=True)


def vortex_reduction_twin(hp):
    """The vortex problem the Higgs machinery must reproduce at
    theta = 0: same background, no section, tau = 2 lam."""
    return PairProblem(hp.geom, hp.rank, hp.ilf0, np.zeros(hp.rank),
                       2.0 * hp.lam, a01=hp.a01, a10=hp.a10,
                       split=hp.split, check=False)


# ---------------------------------------------------------------------------
# fiber-level property checks

def semipositivity_pair(theta_mat, f_mat, eta):
    """Fiberwise curvature pairing against a probe endomorphism.

    With mtil = f^(1/2) theta f^(-1/2) and T(eta) = [mtil^H, [mtil, eta]],
    the pairing <T(eta), eta> equals |[mtil, eta]|_F^2, hence is
    nonnegative. Returns (pairing, norm_sq)."""
    fsr = fiber.herm_sqrt(f_mat, what="semipositivity probe")
    fsri = np.linalg.inv(fsr)
    mt = fsr @ theta_mat @ fsri
    c = mt @ eta - eta @ mt
    t_eta = np.conjugate(mt.T) @ c - c @ np.conjugate(mt.T)
    pairing = float(np.real(np.trace(t_eta @ np.conjugate(eta.T))))
    nsq = float(np.real(np.trace(c @ np.conjugate(c.T))))
    return pairing, nsq


def higgs_xi_path(theta_mat, s_mat, t):
    """Fiber pairing path xi(t) = Re tr(s (th_t th_t^H - th_t^H th_t))
    with th_t = exp(ts/2) theta exp(-ts/2); its derivative is the
    squared commutator norm computed by fiber.higgs_xi_derivative."""
    w, v = fiber.herm_eig(s_mat)
    ep = apply_one(np.exp(0.5 * t * w), v)
    em = apply_one(np.exp(-0.5 * t * w), v)
    th = ep @ theta_mat @ em
    thd = np.conjugate(np.swapaxes(th, -1, -2))
    b = th @ thd - thd @ th
    return float(np.real(np.trace(s_mat @ b)))
