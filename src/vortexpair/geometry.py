"""Discretized geometry backends.

Two backends share one contract, GridBackend. Fields live on the grid
with grid axes first; matrix or section axes come last. That is their
shape; their storage is entry-plane-major (fiber.empty_field, the only
allocator of fields, makes each entry a C-contiguous grid plane), and
the derivatives keep it: FFTs and elementwise products return their
input's layout. A backend is built from its grid size alone; everything
else about its base is a class constant or a method.

TorusBackend: the flat unit square torus with one complex coordinate,
spectral derivatives (FFT), Nyquist mode zeroed in first derivatives.
The contraction constant is cg = 2, the scalar operator p_op has
Fourier symbol 2 pi^2 (k^2 + l^2), and constants are its only kernel.

HopfBackend: the invariant reduction of the standard non Kahler metric
on the quotient of punctured C^2 by z -> 2z. Invariant data depends on
t = log |z|^2 with period T = 2 log 2. The reduced scalar operator is
p_op(u) = -(u'' + u') built by composing centered differences (second
order), the measure is 4 pi^2 dt, and the total volume is 8 pi^2 log 2.
The contraction carries a zeroth order piece from the torsion of the
reduction, which is what makes this backend genuinely non Kahler.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def trace_field(a):
    return np.trace(a, axis1=-2, axis2=-1)


class GridBackend:
    """The contract both backends share. A backend is built from its grid
    size n and sets shape, cell (the quadrature weight of one grid cell)
    and p_symbol (the Fourier symbol of its own p_op, in numpy FFT
    order). Its class constants are period and vol, cg (the contraction
    constant), holomorphy_tol (the default floor of holomorphy checks on
    its grid), default_n and quick_n (its default and --quick grid sizes)
    and probe_amp and probe_kmax (the curvature amplitude and Fourier
    band of its gauge probes). It defines coords, d, dbar, lam_dbar_10,
    the mode draw of random_band_scalar and the truncation floors of a
    background rebased by exp(K), ksup = sup|K|: rebase_skew_tol(scale,
    ksup) for its curvature's non-Hermitian part, rebase_clone_tol(ksup)
    for its section's holomorphy. The contractions act on plain fields; a
    bundle's connection twist is applied by PairProblem."""

    def lam11(self, c):
        """Contraction of a (1,1) coefficient field."""
        return self.cg * np.asarray(c)

    def pair_01(self, b1, b2):
        """Pointwise real inner product of two (0,1) coefficient fields;
        both are matrix fields (grid shape + (r, r))."""
        c = np.einsum("...ij,...ij->...", b1, np.conjugate(b2))
        return self.cg * c.real

    def p_op(self, u):
        """Scalar elliptic operator as the composition of the contraction
        with the two first order derivatives."""
        return self.lam_dbar_10(self.d(u))

    def fft(self, a, out, inverse=False):
        """fftn (ifftn) of a over the grid axes into out, which may be a:
        axis by axis in fftn's order, last axis first, so fftn's bits."""
        fn = np.fft.ifft if inverse else np.fft.fft
        for ax in reversed(range(len(self.shape))):
            a = fn(a, axis=ax, out=out)
        return out

    def integrate(self, u):
        u = np.asarray(u)
        return complex(np.sum(u)) * self.cell

    def degree(self, ilf):
        """Degree from a contracted curvature field."""
        val = self.integrate(trace_field(ilf))
        return val.real / TWO_PI

    def random_band_scalar(self, rng, kmax=3, amp=1.0):
        """Smooth real random scalar field, a sum of four cosine waves
        with Fourier modes up to kmax and random phases, scaled to sup
        amp."""
        xs = self.coords()
        u = np.zeros(self.shape)
        for _ in range(4):
            wave = self._band_wave(rng, kmax, xs)
            ph = rng.uniform(0, TWO_PI)
            u += rng.normal() * np.cos(wave + ph)
        m = np.max(np.abs(u))
        if m > 0:
            u = u * (amp / m)
        return u


class TorusBackend(GridBackend):
    # unit square: g_zzbar = vol / (2 period^2) = 1/2 and cg = 1/g_zzbar
    period = vol = 1.0
    cg = 2.0
    holomorphy_tol = 1e-8
    default_n, quick_n = 64, 32
    probe_amp, probe_kmax = 0.5, 2

    def __init__(self, n):
        if n < 2 or n % 2 != 0:
            raise ValueError("torus grid size must be even and at least 2, "
                             "got %d" % n)
        self.n = n
        self.shape = (n, n)
        self.cell = self.vol / n ** 2
        k = TWO_PI * np.fft.fftfreq(n, d=self.period / n)
        k[n // 2] = 0.0  # Nyquist mode carries no odd derivative
        kx, ky = k[:, None], k[None, :]
        self._sym_d = 0.5 * (1j * kx + ky)  # d/dz
        self._sym_dbar = 0.5 * (1j * kx - ky)  # d/dzbar
        self.p_symbol = self.cg * (kx ** 2 + ky ** 2) / 4.0

    def coords(self):
        x = np.arange(self.n) * (self.period / self.n)
        return np.meshgrid(x, x, indexing="ij")

    def _deriv(self, u, conj):
        u = np.asarray(u, dtype=np.complex128)
        uh = self.fft(u, np.empty_like(u))
        sym = self._sym_dbar if conj else self._sym_d
        np.multiply(sym.reshape(sym.shape + (1,) * (u.ndim - 2)), uh, out=uh)
        return self.fft(uh, uh, inverse=True)

    def d(self, u):
        """(1,0) derivative coefficient of a field."""
        return self._deriv(u, conj=False)

    def dbar(self, u):
        """(0,1) derivative coefficient of a field."""
        return self._deriv(u, conj=True)

    def lam_dbar_10(self, g10):
        """Contraction of dbar acting on a (1,0) coefficient field."""
        out = self.dbar(g10)
        return np.multiply(out, -self.cg, out=out)

    def _band_wave(self, rng, kmax, xy):
        # mode k in [-kmax, kmax]^2
        k = rng.integers(-kmax, kmax + 1, size=2)
        return TWO_PI * (k[0] * xy[0] + k[1] * xy[1]) / self.period

    # spectral derivatives truncate near machine level
    def rebase_skew_tol(self, scale, ksup):
        return 1e-3 * scale

    def rebase_clone_tol(self, ksup):
        return 1e-6


class HopfBackend(GridBackend):
    period = 2.0 * np.log(2.0)
    vol = 4.0 * np.pi ** 2 * period  # the measure is 4 pi^2 dt
    cg = 1.0
    holomorphy_tol = 1e-6
    default_n, quick_n = 512, 128
    probe_amp, probe_kmax = 0.05, 1

    def __init__(self, n):
        # below 3 points the centered difference is identically zero
        if n < 3:
            raise ValueError("circle grid size must be at least 3, got %d"
                             % n)
        self.n = n
        self.shape = (n,)
        self.h = self.period / n
        self.cell = 4.0 * np.pi ** 2 * self.h
        # P = -(D1 D1 + D1) and the centered difference D1 has symbol
        # i sin(w h) / h
        modes = TWO_PI * np.fft.fftfreq(n, d=self.h)
        sig = np.sin(modes * self.h) / self.h
        self.p_symbol = sig ** 2 - 1j * sig

    def coords(self):
        return np.arange(self.n) * self.h

    def _d1(self, u):
        # centered difference (u[i+1] - u[i-1]) / 2h, periodic in i
        u = np.asarray(u, dtype=np.complex128)
        out = np.empty_like(u)
        np.subtract(u[2:], u[:-2], out=out[1:-1])
        np.subtract(u[1:2], u[-1:], out=out[:1])
        np.subtract(u[:1], u[-2:-1], out=out[-1:])
        out /= 2.0 * self.h
        return out

    # d and dbar call _d1 through self, where a benchmark tracer can
    # patch it on the class
    def d(self, u):
        return self._d1(u)

    def dbar(self, u):
        return self._d1(u)

    def lam_dbar_10(self, g10):
        # the +g10 term is the torsion of the invariant reduction; it is
        # what breaks the Kahler identities on this backend
        out = self._d1(g10)
        return np.negative(np.add(out, g10, out=out), out=out)

    def _band_wave(self, rng, kmax, t):
        # mode k in [1, kmax]
        k = int(rng.integers(1, kmax + 1))
        return k * (TWO_PI / self.period) * t

    # O(h^2) truncation, with a prefactor set by the derivatives of exp(K)
    def rebase_skew_tol(self, scale, ksup):
        return max(1e-3 * scale, 400.0 * self.h ** 2 * (1.0 + ksup) ** 3)

    def rebase_clone_tol(self, ksup):
        return max(1e-8, 40.0 * self.h ** 2 * (1.0 + ksup) ** 3)


BACKENDS = {"torus": TorusBackend, "hopf": HopfBackend}


def make_backend(kind, n=None):
    """Backend of the given kind on n grid points, its default_n when n
    is None."""
    if kind not in BACKENDS:
        raise ValueError("unknown backend kind %r" % (kind,))
    cls = BACKENDS[kind]
    return cls(cls.default_n if n is None else n)
