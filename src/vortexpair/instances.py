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
from .geometry import BACKENDS, make_backend
from .higgs import HiggsProblem
from .pair import PairProblem, SplitModel

FOUR_PI = 4.0 * math.pi


def trivial(g, tau):
    """Degree zero, unit section, tau = 2: the closed-form target is
    f = 2 id."""
    return PairProblem(g, 1, [[0.0]], [1.0], tau, split=SplitModel((0.0,), 0))


def torus_degree_one(g, tau):
    return PairProblem(g, 1, [[2.0 * math.pi]], [1.0], tau,
                       split=SplitModel((1.0,), 0))


def torus_wave(g, tau):
    """Degree one with a spatially varying background: the constant
    curvature representative plus an exact potential bump, so the degree
    is unchanged but nothing is translation invariant."""
    x, y = g.coords()
    # p_op multiplies mode amplitudes by its symbol (about 40 here), so
    # the potential is small; the curvature bump ends up order one
    w = 0.02 * (np.cos(2.0 * math.pi * x) * np.cos(2.0 * math.pi * y)
                + 0.3 * np.cos(4.0 * math.pi * y))
    ilf = (2.0 * math.pi + g.p_op(w).real)[..., None, None]
    return PairProblem(g, 1, ilf, [1.0], tau, split=SplitModel((1.0,), 0))


def hopf_weight_one(g, tau):
    deg = g.vol / (2.0 * math.pi)
    return PairProblem(g, 1, [[1.0]], [1.0], tau, split=SplitModel((deg,), 0))


def hopf_wave(g, tau):
    """Weight one with a reflection-even potential bump; evenness keeps
    the finite-difference degree bookkeeping exact."""
    t = g.coords()
    # small potential again: the symbol is about 20 at the base harmonic
    w = 0.02 * np.cos(2.0 * math.pi * t / g.period)
    ilf = (1.0 + g.p_op(w).real)[..., None, None]
    deg = g.vol / (2.0 * math.pi)
    return PairProblem(g, 1, ilf, [1.0], tau, split=SplitModel((deg,), 0))


def rank2_caseb(g, tau):
    """Block split of degrees (0, 1) with the section in the degree
    zero summand, run exactly at tau = 4 pi: the degree one block sits
    on the threshold and its factor stays identity, so the solution is
    the direct sum of the rank one solves."""
    ilf = np.diag([0.0, 2.0 * math.pi]).astype(complex)
    return PairProblem(g, 2, ilf, [1.0, 0.0], tau,
                       split=SplitModel((0.0, 1.0), 0))


def rank2_extension(g, tau):
    """Nonsplit extension model: degrees (0, 1) with coupling from the
    degree one summand into the degree zero one. The background
    curvature carries the wedge term of the coupling, which keeps the
    declared degrees equal to the honest subsheaf degrees."""
    coupling = np.zeros((2, 2), dtype=complex)
    coupling[0, 1] = 0.5
    wedge = g.cg * (coupling @ coupling.conj().T - coupling.conj().T @ coupling)
    ilf = np.diag([0.0, 2.0 * math.pi]).astype(complex) + wedge
    return PairProblem(g, 2, ilf, [1.0, 0.0], tau, a01=coupling,
                       split=SplitModel((0.0, 1.0), 0, ((0, 1),)))


def higgs_nilpotent(g, lam):
    """Strictly triangular Higgs field on the trivial rank two
    background. Semistable but not polystable: the continuation is
    expected to end with a boundary verdict, not convergence."""
    th = np.zeros((2, 2), dtype=complex)
    th[0, 1] = 1.0
    return HiggsProblem(g, 2, np.zeros((2, 2)), th, lam)


def higgs_theta_zero(g, lam):
    """Zero Higgs field; must reduce exactly to the vortex machinery
    with no section and tau = 2 lam."""
    ilf = np.diag([2.0 * math.pi, 2.0 * math.pi]).astype(complex)
    return HiggsProblem(g, 2, ilf, np.zeros((2, 2)), lam)


# name: (base, builder, default tau (lam of a Higgs instance), the
# continuation verdict that is part of the shipped contract)
REGISTRY = {
    "trivial": ("torus", trivial, 2.0, "converged"),
    "torus-stable": ("torus", torus_degree_one, 1.2 * FOUR_PI, "converged"),
    "torus-unstable": ("torus", torus_degree_one, 0.8 * FOUR_PI, "diverged"),
    "torus-wave": ("torus", torus_wave, 1.2 * FOUR_PI, "converged"),
    "hopf-stable": ("hopf", hopf_weight_one, 2.4, "converged"),
    "hopf-unstable": ("hopf", hopf_weight_one, 0.5, "diverged"),
    "hopf-wave": ("hopf", hopf_wave, 2.4, "converged"),
    "rank2-caseb": ("torus", rank2_caseb, FOUR_PI, "converged"),
    "rank2-extension": ("torus", rank2_extension, 3.0 * math.pi,
                        "converged"),
    "higgs-nilpotent": ("torus", higgs_nilpotent, 0.0, "boundary"),
    "higgs-theta-zero": ("torus", higgs_theta_zero, 2.0 * math.pi,
                         "converged"),
}

EXPECTED_VERDICTS = {name: row[3] for name, row in REGISTRY.items()}


def names():
    return sorted(REGISTRY)


def _row(name):
    if name not in REGISTRY:
        raise ValueError("unknown instance %r; shipped: %s"
                         % (name, ", ".join(names())))
    return REGISTRY[name]


def make(name, n=None, tau=None):
    """The named instance on n grid points (its base's default_n when
    None) at tau (the table default when None); a Higgs instance takes
    tau as its lam."""
    base, build, tau0, _ = _row(name)
    return build(make_backend(base, n), tau0 if tau is None else tau)


def quick_grid(name):
    """The --quick grid size of the named instance's base."""
    return BACKENDS[_row(name)[0]].quick_n


def gauge_probe(geom, rank, rng, constant=False):
    """Random positive metric field for regauging probes.

    Each scalar component is normalized so its curvature contribution
    (the Laplacian-type image, not the field itself) has sup about the
    backend's probe_amp, drawn from Fourier modes up to its probe_kmax.
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
    amp = geom.probe_amp
    s = fiber.empty_field(geom.shape, (rank, rank))
    s[...] = 0.0
    if constant:
        for i in range(rank):
            s[..., i, i] = amp * rng.uniform(-1.0, 1.0)
        return fiber.herm_exp(s)
    for i in range(rank):
        w = geom.random_band_scalar(rng, kmax=geom.probe_kmax, amp=1.0)
        w = w / (1.0 + np.max(np.abs(geom.p_op(w).real)))
        s[..., i, i] = amp * w
    return fiber.herm_exp(s)
