"""Shipped desk-scale problem instances.

Every acceptance check runs against instances from this registry, so
the data here is deterministic: fixed grids, fixed coefficients, no
RNG. Random fields for probe-style tests come from the gauge_probe
helper, seeded by the caller.

Degrees and thresholds at the defaults:
    torus unit cell, degree d line model: threshold tau* = 4 pi d
    hopf reduction, weight one line model: threshold tau* = 2
"""

import math

import numpy as np

from . import fiber
from .geometry import make_backend, random_band_scalar
from .higgs import HiggsProblem
from .pair import PairProblem, SplitModel

TORUS_N = 64
HOPF_N = 512
FOUR_PI = 4.0 * math.pi


def _torus(n):
    return make_backend("torus", TORUS_N if n is None else n)


def _hopf(n):
    return make_backend("hopf", HOPF_N if n is None else n)


def trivial(n, tau):
    """Degree zero, unit section, tau = 2: the closed-form target is
    f = 2 id."""
    g = _torus(n)
    return PairProblem(g, 1, [[0.0]], [1.0], 2.0 if tau is None else tau,
                       split=SplitModel((0.0,), 0))


def torus_stable(n, tau):
    g = _torus(n)
    return PairProblem(g, 1, [[2.0 * math.pi]], [1.0],
                       1.2 * FOUR_PI if tau is None else tau,
                       split=SplitModel((1.0,), 0))


def torus_unstable(n, tau):
    g = _torus(n)
    return PairProblem(g, 1, [[2.0 * math.pi]], [1.0],
                       0.8 * FOUR_PI if tau is None else tau,
                       split=SplitModel((1.0,), 0))


def torus_wave(n, tau):
    """Degree one with a spatially varying background: the constant
    curvature representative plus an exact potential bump, so the degree
    is unchanged but nothing is translation invariant."""
    g = _torus(n)
    x, y = g.coords()
    # p_op multiplies mode amplitudes by its symbol (about 40 here), so
    # the potential is small; the curvature bump ends up order one
    w = 0.02 * (np.cos(2.0 * math.pi * x) * np.cos(2.0 * math.pi * y)
                + 0.3 * np.cos(4.0 * math.pi * y))
    ilf = (2.0 * math.pi + g.p_op(w).real)[..., None, None]
    return PairProblem(g, 1, ilf, [1.0],
                       1.2 * FOUR_PI if tau is None else tau,
                       split=SplitModel((1.0,), 0))


def hopf_stable(n, tau):
    g = _hopf(n)
    deg = g.vol / (2.0 * math.pi)
    return PairProblem(g, 1, [[1.0]], [1.0], 2.4 if tau is None else tau,
                       split=SplitModel((deg,), 0))


def hopf_unstable(n, tau):
    g = _hopf(n)
    deg = g.vol / (2.0 * math.pi)
    return PairProblem(g, 1, [[1.0]], [1.0], 0.5 if tau is None else tau,
                       split=SplitModel((deg,), 0))


def hopf_wave(n, tau):
    """Weight one with a reflection-even potential bump; evenness keeps
    the finite-difference degree bookkeeping exact."""
    g = _hopf(n)
    t = g.coords()
    # small potential again: the symbol is about 20 at the base harmonic
    w = 0.02 * np.cos(2.0 * math.pi * t / g.period)
    ilf = (1.0 + g.p_op(w).real)[..., None, None]
    deg = g.vol / (2.0 * math.pi)
    return PairProblem(g, 1, ilf, [1.0], 2.4 if tau is None else tau,
                       split=SplitModel((deg,), 0))


def rank2_caseb(n, tau):
    """Block split of degrees (0, 1) with the section in the degree
    zero summand, run exactly at tau = 4 pi: the degree one block sits
    on the threshold and its factor stays identity, so the solution is
    the direct sum of the rank one solves."""
    g = _torus(n)
    ilf = np.diag([0.0, 2.0 * math.pi]).astype(complex)
    return PairProblem(g, 2, ilf, [1.0, 0.0],
                       FOUR_PI if tau is None else tau,
                       split=SplitModel((0.0, 1.0), 0))


def rank2_extension(n, tau):
    """Nonsplit extension model: degrees (0, 1) with coupling from the
    degree one summand into the degree zero one. The background
    curvature carries the wedge term of the coupling, which keeps the
    declared degrees equal to the honest subsheaf degrees."""
    g = _torus(n)
    coupling = np.zeros((2, 2), dtype=complex)
    coupling[0, 1] = 0.5
    wedge = g.cg * (coupling @ coupling.conj().T - coupling.conj().T @ coupling)
    ilf = np.diag([0.0, 2.0 * math.pi]).astype(complex) + wedge
    return PairProblem(g, 2, ilf, [1.0, 0.0],
                       3.0 * math.pi if tau is None else tau,
                       a01=coupling,
                       split=SplitModel((0.0, 1.0), 0, ((0, 1),)))


def higgs_nilpotent(n, lam):
    """Strictly triangular Higgs field on the trivial rank two
    background. Semistable but not polystable: the continuation is
    expected to end with a boundary verdict, not convergence."""
    g = _torus(n)
    th = np.zeros((2, 2), dtype=complex)
    th[0, 1] = 1.0
    return HiggsProblem(g, 2, np.zeros((2, 2)), th,
                        0.0 if lam is None else lam)


def higgs_theta_zero(n, lam):
    """Zero Higgs field; must reduce exactly to the vortex machinery
    with no section and tau = 2 lam."""
    g = _torus(n)
    ilf = np.diag([2.0 * math.pi, 2.0 * math.pi]).astype(complex)
    return HiggsProblem(g, 2, ilf, np.zeros((2, 2)),
                        2.0 * math.pi if lam is None else lam)


REGISTRY = {
    "trivial": trivial,
    "torus-stable": torus_stable,
    "torus-unstable": torus_unstable,
    "torus-wave": torus_wave,
    "hopf-stable": hopf_stable,
    "hopf-unstable": hopf_unstable,
    "hopf-wave": hopf_wave,
    "rank2-caseb": rank2_caseb,
    "rank2-extension": rank2_extension,
    "higgs-nilpotent": higgs_nilpotent,
    "higgs-theta-zero": higgs_theta_zero,
}

# instances whose continuation verdict is part of the shipped contract
EXPECTED_VERDICTS = {
    "trivial": "converged",
    "torus-stable": "converged",
    "torus-unstable": "diverged",
    "torus-wave": "converged",
    "hopf-stable": "converged",
    "hopf-unstable": "diverged",
    "hopf-wave": "converged",
    "rank2-caseb": "converged",
    "rank2-extension": "converged",
    "higgs-nilpotent": "boundary",
    "higgs-theta-zero": "converged",
}


def names():
    return sorted(REGISTRY)


def make(name, n=None, tau=None):
    if name not in REGISTRY:
        raise KeyError("unknown instance %r; shipped: %s"
                       % (name, ", ".join(names())))
    # a Higgs instance takes tau as its lam
    return REGISTRY[name](n, tau)


def gauge_probe(geom, rank, rng, constant=False):
    """Random positive metric field for regauging probes.

    Each scalar component is normalized so its curvature contribution
    (the Laplacian-type image, not the field itself) has sup about amp,
    0.5 on the torus and 0.05 on the circle reduction.
    Normalizing the field alone lets the operator symbol blow the
    rebased curvature up by two orders of magnitude, and the rebasing
    exponential overflows.

    Rank one is unrestricted. Rank two and up gets a summand-diagonal
    metric: the declared background curvature carries components with
    no stored potential (periodic potentials for nonzero degree do not
    exist), and the regauging chain is only consistent inside their
    commutant. Diagonal probes keep the probe itself there, but a
    stored coupling between summands feeds probe derivatives into the
    off-diagonal part of the induced reference, so for instances with
    off-diagonal twists pass constant=True: spatially constant
    diagonal probes keep the entire chain in the commutant."""
    amp = 0.5 if geom.kind == "torus" else 0.05
    kmax = 2 if geom.kind == "torus" else 1
    gshape = tuple(geom.shape)
    s = np.zeros(gshape + (rank, rank), dtype=complex)
    if constant:
        for i in range(rank):
            s[..., i, i] = amp * rng.uniform(-1.0, 1.0)
        return fiber.herm_exp(s)
    for i in range(rank):
        w = random_band_scalar(geom, rng, kmax=kmax, amp=1.0)
        w = w / (1.0 + np.max(np.abs(geom.p_op(w).real)))
        s[..., i, i] = amp * w
    return fiber.herm_exp(s)
