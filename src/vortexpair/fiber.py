"""Fiberwise functional calculus for Hermitian endomorphism fields.

Fields keep grid axes first and matrix axes last. Everything here is
pointwise in the grid: eigendecompositions, matrix exp/log, and the one
and two variable transforms built on eigenvalue kernels.

Norms: unless stated otherwise, pointwise norms are Frobenius norms and
sup norms are the grid max of the pointwise norm.
"""

import numpy as np

from ._kernels import apply_one, apply_two, eigh_batch

# positivity clamp policy for logarithms of metric factors:
# eigenvalues are floored at EIG_FLOOR before taking log. An eigenvalue
# below -CLAMP_HARD_REL * scale means the field is decisively not
# positive and raises ClampError instead of being papered over.
EIG_FLOOR = 1e-14
CLAMP_HARD_REL = 1e-10

HERM_TOL = 1e-12


class ClampError(ValueError):
    """A field that must be positive definite has a clearly negative eigenvalue."""


clamp_events = 0


def reset_clamp_counter():
    global clamp_events
    clamp_events = 0


def frob(a):
    """Pointwise Frobenius norm of a matrix field."""
    a = np.asarray(a)
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def sup_norm(a):
    """Grid sup of the pointwise Frobenius norm."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return float(np.max(np.abs(a))) if a.size else 0.0
    return float(np.max(frob(a)))


def herm_part(a):
    return 0.5 * (a + np.conjugate(np.swapaxes(a, -1, -2)))


def skew_defect(a):
    """Sup norm of the anti-Hermitian part."""
    skew = 0.5 * (a - np.conjugate(np.swapaxes(a, -1, -2)))
    return float(np.max(frob(skew))) if skew.size else 0.0


def assert_hermitian(a, what="field"):
    scale = max(1.0, float(np.max(frob(a)))) if a.size else 1.0
    d = skew_defect(a)
    if d > HERM_TOL * scale:
        raise ValueError("%s is not Hermitian: skew defect %.3e (tol %.3e, scale %.3e)"
                         % (what, d, HERM_TOL, scale))


def herm_eig(a, check=True):
    """Eigendecomposition (w, v) of a Hermitian matrix field."""
    if check:
        assert_hermitian(a)
    return eigh_batch(herm_part(np.asarray(a, dtype=np.complex128)))


# ---------------------------------------------------------------------------
# eigenvalue kernels, all stable near coincident arguments

def psi_kernel(x, y):
    """(e^(y-x) - 1) / (y - x), equal to 1 on the diagonal.

    Strictly positive. Near t = y - x = 0 the series 1 + t/2 + t^2/6 is
    used to avoid cancellation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = y - x
    small = np.abs(t) < 1e-6
    ts = np.where(small, 0.0, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        main = np.expm1(ts) / ts
    series = 1.0 + t / 2.0 + t * t / 6.0
    return np.where(small, series, main)


def inv_psi_kernel(x, y):
    """(y - x) / (e^(y-x) - 1), the reciprocal of psi_kernel."""
    return 1.0 / psi_kernel(x, y)


def dexp_kernel(x, y):
    """(e^x - e^y) / (x - y), the symmetric divided difference of exp."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # e^x * psi(x, y) is stable and symmetric up to roundoff; symmetrize
    # explicitly so the kernel matrix is exactly symmetric
    a = np.exp(x) * psi_kernel(x, y)
    b = np.exp(y) * psi_kernel(y, x)
    return 0.5 * (a + b)


def dd_kernel(g, dg):
    """Divided-difference kernel (g(x)-g(y))/(x-y) with derivative rule
    dg at the diagonal and a midpoint rule inside |x - y| < 1e-6."""
    def k(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        t = x - y
        small = np.abs(t) < 1e-6
        ts = np.where(small, 1.0, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            main = (g(x) - g(y)) / ts
        mid = dg(0.5 * (x + y))
        return np.where(small, mid, main)
    return k


# ---------------------------------------------------------------------------
# transforms

def funcalc_one(fn, a):
    """Apply a scalar function to a Hermitian field through its spectrum."""
    w, v = herm_eig(a)
    return apply_one(fn(w), v)


def kernel_matrix(fn, w):
    """Kernel matrix K[i, j] = fn(lambda_j, lambda_i) on eigenvalue pairs.

    Column-first argument order: entry (i, j) of a conjugated field gets
    multiplied by fn evaluated at (eigenvalue of column j, eigenvalue of
    row i). For symmetric fn the order is immaterial.
    """
    lam_i = w[..., :, None]
    lam_j = w[..., None, :]
    return fn(lam_j, lam_i)


def funcalc_two(fn, s, a):
    """Two variable transform of the field a in the eigenbasis of s.

    In the eigenbasis of s, entry (i, j) of a is multiplied by
    fn(lambda_j, lambda_i).
    """
    w, v = herm_eig(s)
    return apply_two(kernel_matrix(fn, w), v, a)


def comm(a, b):
    """Matrix commutator a b - b a, broadcasting over grid axes."""
    return a @ b - b @ a


def herm_exp(s):
    return funcalc_one(np.exp, s)


def herm_sqrt(f, what="herm_sqrt"):
    """Positive square root of a positive definite Hermitian field."""
    w, v = herm_eig(f)
    if float(np.min(w)) < -CLAMP_HARD_REL * max(1.0, float(np.max(np.abs(w)))):
        raise ClampError("%s: input is not positive definite" % what)
    return apply_one(np.sqrt(np.maximum(w, EIG_FLOOR)), v)


def herm_log(f, what="herm_log"):
    """Matrix log of a Hermitian positive definite field, with clamping.

    Eigenvalues in [-CLAMP_HARD_REL * scale, EIG_FLOOR) are floored at
    EIG_FLOOR and counted in clamp_events. Anything more negative raises
    ClampError.
    """
    global clamp_events
    w, v = herm_eig(f)
    wmin = float(np.min(w))
    scale = max(1.0, float(np.max(np.abs(w))))
    if wmin < -CLAMP_HARD_REL * scale:
        raise ClampError("%s: eigenvalue %.6e is negative beyond the clamp policy"
                         % (what, wmin))
    if wmin < EIG_FLOOR:
        clamp_events += int(np.count_nonzero(w < EIG_FLOOR))
        w = np.maximum(w, EIG_FLOOR)
    return apply_one(np.log(w), v)


# ---------------------------------------------------------------------------
# section pairings

def phi_outer(phi):
    """Section outer product phi phi^H as an endomorphism field.

    phi has shape (grid..., r). This is the section term at the
    reference metric, which the solver keeps at the identity; the
    deformed metric f enters as phi phi^H f.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    return phi[..., :, None] * np.conjugate(phi[..., None, :])


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
