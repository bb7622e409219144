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
# unused here; perfbench/tracer.py patches apply_one at this import
from .fiber import apply_one  # noqa: F401
from .fiber import mm
from .pair import PairProblem


class HiggsProblem(PairProblem):
    """Problem instance with a Higgs field instead of a section.

    theta   (r, r) matrix or matrix field, the (1,0) coefficient
    lam     constant right-hand side (the equation parameter); stored
            as tau = 2 lam so the shared assembly divides it back
    """

    def __init__(self, geom, rank, ilf0, theta, lam, a01=None, split=None,
                 holomorphy_tol=None):
        self.lam = float(lam)
        super().__init__(geom, rank, ilf0, np.zeros(int(rank)), 2.0 * lam,
                         a01=a01, split=split, holomorphy_tol=holomorphy_tol)
        self.theta = self._expand(theta, (self.rank, self.rank), "higgs field")
        self.theta_dag = np.conjugate(np.swapaxes(self.theta, -1, -2))
        self._check_finite("theta")
        d = float(np.max(fiber.frob(self.dbar_end(self.theta))))
        scale = max(1.0, float(np.max(fiber.frob(self.theta))))
        if d > self.holomorphy_tol * scale:
            raise ValueError(
                "higgs field is not holomorphic for the background: "
                "defect %.3e exceeds tol %.3e" % (d, self.holomorphy_tol))

    # -- zero-order hooks ----------------------------------------------------

    def adjoint_field(self, st):
        """theta*_h = f^-1 theta^H f for h = f = st.f over the identity
        reference, built once per state."""
        return st.field(self, "adjoint",
                        lambda: mm(mm(st.finv, self.theta_dag), st.f))

    def zero_order_id(self):
        return self.geom.lam11(fiber.comm(self.theta, self.theta_dag))

    def zero_order(self, st):
        m = self.adjoint_field(st)
        return self.geom.lam11(fiber.comm(self.theta, m))

    def zero_order_lin(self, st, v):
        t = mm(self.theta_dag, v)
        t -= mm(v, self.adjoint_field(st))
        return self.geom.lam11(fiber.comm(self.theta, mm(st.finv, t)))

    # -- gauge transport -----------------------------------------------------

    def _transformed_clone(self, ilf0p, phip, a01p, h0h, h0hi, tol):
        thetap = mm(mm(h0h, self.theta), h0hi)
        return HiggsProblem(self.geom, self.rank, ilf0p, thetap, self.lam,
                            a01=a01p, split=self.split,
                            holomorphy_tol=max(self.holomorphy_tol, tol))


def vortex_reduction_twin(hp):
    """The vortex problem the Higgs machinery must reproduce at
    theta = 0: same background, no section, tau = 2 lam."""
    return PairProblem(hp.geom, hp.rank, hp.ilf0, np.zeros(hp.rank),
                       2.0 * hp.lam, a01=hp.a01, split=hp.split)
