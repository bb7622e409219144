"""Discretized geometry backends.

Two backends share one contract, GridBackend. Fields live on the grid
with grid axes first; matrix or section axes come last.

TorusBackend: flat square torus with one complex coordinate, spectral
derivatives (FFT), Nyquist mode zeroed in first derivatives. With the
default unit volume the contraction constant is cg = 2, the scalar
operator p_op has Fourier symbol 2 pi^2 (k^2 + l^2), and constants are
its only kernel.

HopfBackend: the invariant reduction of the standard non Kahler metric
on the quotient of punctured C^2 by z -> 2z. Invariant data depends on
t = log |z|^2 with period T = 2 log 2. The reduced scalar operator is
p_op(u) = -(u'' + u') built by composing centered differences (second
order), the measure is 4 pi^2 dt, and the total volume is 8 pi^2 log 2.
The contraction carries a zeroth order piece from the torsion of the
reduction, which is what makes this backend genuinely non Kahler.
"""

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


def trace_field(a):
    a = np.asarray(a)
    if a.ndim >= 2 and a.shape[-1] == a.shape[-2]:
        return np.trace(a, axis1=-2, axis2=-1)
    return a


class GridBackend:
    """The contract both backends share. A backend sets shape, cg (the
    contraction constant), cell (the quadrature weight of one grid cell),
    p_symbol (the Fourier symbol of its own p_op, in numpy FFT order) and
    the class attribute holomorphy_tol (the default floor of holomorphy
    checks on its grid), and defines coords, d, dbar, lam11 and
    lam_dbar_10."""

    def _twist(self, w, g10, twist01):
        """Add the commutator of a (0,1) connection coefficient twist01
        acting on an endomorphism valued (1,0) field g10."""
        if twist01 is None:
            return w
        return w + twist01 @ g10 - g10 @ twist01

    def lam_wedge_trace(self, g10, b01):
        """Contraction of tr(g10 wedge b01), a complex scalar field."""
        g10 = np.asarray(g10)
        if g10.ndim > len(self.shape) and g10.shape[-1] == g10.shape[-2]:
            c = np.einsum("...ij,...ji->...", g10, b01)
        else:
            c = g10 * b01
        return self.cg * c

    def pair_01(self, b1, b2):
        """Pointwise real inner product of two (0,1) coefficient fields."""
        b1 = np.asarray(b1)
        if b1.ndim > len(self.shape) and b1.shape[-1] == b1.shape[-2]:
            c = np.einsum("...ij,...ij->...", b1, np.conjugate(b2))
        else:
            c = b1 * np.conjugate(b2)
        return self.cg * c.real

    def p_op(self, u):
        """Scalar elliptic operator as the composition of the contraction
        with the two first order derivatives."""
        return self.lam_dbar_10(self.d(u))

    def integrate(self, u):
        u = np.asarray(u)
        return complex(np.sum(u)) * self.cell

    def degree(self, ilf):
        """Degree from a contracted curvature field."""
        val = self.integrate(trace_field(ilf))
        return val.real / TWO_PI


@dataclass
class TorusBackend(GridBackend):
    n: int
    period: float = 1.0
    vol: float = 1.0
    kind: str = field(default="torus", init=False)
    holomorphy_tol = 1e-8

    def __post_init__(self):
        if self.n % 2 != 0:
            raise ValueError("torus grid size must be even")
        self.g_zzbar = self.vol / (2.0 * self.period ** 2)
        self.cg = 1.0 / self.g_zzbar
        self.cell = self.vol / self.n ** 2
        k = TWO_PI * np.fft.fftfreq(self.n, d=self.period / self.n)
        k[self.n // 2] = 0.0  # Nyquist mode carries no odd derivative
        self._kx = k.copy()
        self._ky = k.copy()
        # d has symbol (i kx + ky) / 2 and dbar (i kx - ky) / 2
        self.p_symbol = self.cg * (self._kx[:, None] ** 2
                                   + self._ky[None, :] ** 2) / 4.0

    @property
    def shape(self):
        return (self.n, self.n)

    def coords(self):
        x = np.arange(self.n) * (self.period / self.n)
        return np.meshgrid(x, x, indexing="ij")

    def _expand(self, k, axis, ndim):
        shp = [1] * ndim
        shp[axis] = self.n
        return k.reshape(shp)

    def _deriv(self, u, conj):
        u = np.asarray(u, dtype=np.complex128)
        uh = np.fft.fft2(u, axes=(0, 1))
        kx = self._expand(self._kx, 0, u.ndim)
        ky = self._expand(self._ky, 1, u.ndim)
        if conj:
            sym = 0.5 * (1j * kx - ky)  # d/dzbar
        else:
            sym = 0.5 * (1j * kx + ky)  # d/dz
        return np.fft.ifft2(sym * uh, axes=(0, 1))

    def d(self, u):
        """(1,0) derivative coefficient of a field."""
        return self._deriv(u, conj=False)

    def dbar(self, u):
        """(0,1) derivative coefficient of a field."""
        return self._deriv(u, conj=True)

    def lam11(self, c):
        """Contraction of a (1,1) coefficient field."""
        return self.cg * np.asarray(c)

    def lam_dbar_10(self, g10, twist01=None):
        """Contraction of dbar acting on a (1,0) coefficient field.

        twist01 is an optional (0,1) connection coefficient acting by
        commutator on endomorphism valued fields.
        """
        return -self.cg * self._twist(self.dbar(g10), g10, twist01)


@dataclass
class HopfBackend(GridBackend):
    n: int
    kind: str = field(default="hopf", init=False)
    holomorphy_tol = 1e-6

    def __post_init__(self):
        self.period = 2.0 * np.log(2.0)
        self.h = self.period / self.n
        weight = 4.0 * np.pi ** 2
        self.vol = weight * self.period
        self.cell = weight * self.h
        self.cg = 1.0
        # P = -(D1 D1 + D1) and the centered difference D1 has symbol
        # i sin(w h) / h
        modes = TWO_PI * np.fft.fftfreq(self.n, d=self.h)
        sig = np.sin(modes * self.h) / self.h
        self.p_symbol = sig ** 2 - 1j * sig

    @property
    def shape(self):
        return (self.n,)

    def coords(self):
        return np.arange(self.n) * self.h

    def _d1(self, u):
        u = np.asarray(u, dtype=np.complex128)
        return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * self.h)

    def d(self, u):
        return self._d1(u)

    def dbar(self, u):
        return self._d1(u)

    def lam11(self, c):
        return np.asarray(c)

    def lam_dbar_10(self, g10, twist01=None):
        # the +g10 term is the torsion of the invariant reduction; it is
        # what breaks the Kahler identities on this backend
        return -self._twist(self._d1(g10) + g10, g10, twist01)


def make_backend(kind, n, **kw):
    if kind == "torus":
        return TorusBackend(n, **kw)
    if kind == "hopf":
        return HopfBackend(n, **kw)
    raise ValueError("unknown backend kind %r" % (kind,))


def random_band_scalar(geom, rng, kmax=3, amp=1.0):
    """Smooth real random scalar field from low Fourier modes."""
    if geom.kind == "torus":
        x, y = geom.coords()
        u = np.zeros(geom.shape)
        for _ in range(4):
            k = rng.integers(-kmax, kmax + 1, size=2)
            ph = rng.uniform(0, TWO_PI)
            u += rng.normal() * np.cos(TWO_PI * (k[0] * x + k[1] * y) / geom.period + ph)
    else:
        t = geom.coords()
        u = np.zeros(geom.shape)
        w0 = TWO_PI / geom.period
        for _ in range(4):
            k = int(rng.integers(1, kmax + 1))
            ph = rng.uniform(0, TWO_PI)
            u += rng.normal() * np.cos(k * w0 * t + ph)
    m = np.max(np.abs(u))
    if m > 0:
        u = u * (amp / m)
    return u
