import numpy as np
import pytest

from vortexpair.geometry import (HopfBackend, TorusBackend, make_backend,
                                 trace_field)
from vortexpair.pair import PairProblem

from conftest import rand_band_herm
from oracles import lam_wedge_trace

TWO_PI = 2.0 * np.pi


def _twisted_contraction(geom, g10, tw):
    """The contraction of the dbar twisted by the (0,1) coefficient tw,
    as the pair applies it: lam_dbar_10 plus the contracted commutator."""
    r = tw.shape[-1]
    p = PairProblem(geom, r, np.zeros((r, r)), np.zeros(r), 0.0, a01=tw)
    return p.lam_dbar_end(g10)


@pytest.fixture(params=["torus", "hopf"])
def geom(request):
    n = 64 if request.param == "torus" else 128
    return make_backend(request.param, n)


# ---------------------------------------------------------------------------
# constructor facts

def test_make_backend_rejects_unknown():
    with pytest.raises(ValueError):
        make_backend("sphere", 16)
    with pytest.raises(ValueError):
        make_backend("torus", 17)  # odd grid
    # too small: no torus modes, or a zero centered difference
    for kind, n in (("torus", 0), ("torus", -4), ("hopf", 2), ("hopf", 1),
                    ("hopf", 0)):
        with pytest.raises(ValueError, match="grid"):
            make_backend(kind, n)


def test_torus_constants():
    g = TorusBackend(32)
    assert g.cg == pytest.approx(2.0, abs=1e-15)
    assert complex(g.integrate(np.ones(g.shape))).real == pytest.approx(1.0)


def test_hopf_volume_and_period():
    g = HopfBackend(128)
    assert g.period == pytest.approx(2.0 * np.log(2.0), rel=1e-15)
    vol = complex(g.integrate(np.ones(g.shape))).real
    assert vol == pytest.approx(8.0 * np.pi ** 2 * np.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives

def test_torus_first_derivatives_on_modes():
    g = TorusBackend(64)
    x, y = g.coords()
    for k, l in ((1, 0), (0, 1), (3, -2)):
        u = np.exp(TWO_PI * 1j * (k * x + l * y))
        du = np.pi * (1j * k + l) * u
        dbu = np.pi * (1j * k - l) * u
        assert np.max(np.abs(g.d(u) - du)) < 1e-11 * max(1.0, np.max(np.abs(du)))
        assert np.max(np.abs(g.dbar(u) - dbu)) < 1e-11 * max(1.0, np.max(np.abs(dbu)))
    # hand pin: the (1,0) derivative of cos(2 pi x) is -pi sin(2 pi x)
    u = np.cos(TWO_PI * x)
    assert np.max(np.abs(g.d(u) + np.pi * np.sin(TWO_PI * x))) < 1e-11


def _fields(rng, gshape):
    """A complex scalar, section (..., 2) and endomorphism (..., 2, 2)
    field on a grid."""
    for tail in ((), (2,), (2, 2)):
        shp = gshape + tail
        yield rng.standard_normal(shp) + 1j * rng.standard_normal(shp)


@pytest.mark.parametrize("n", [2, 8])
def test_torus_derivatives_match_the_broadcast_symbol(rng, n):
    # d and dbar multiply by 0.5 (i kx +- ky), built here per call with
    # kx on axis 0 and ky on axis 1 broadcast to the operand's rank
    g = TorusBackend(n)
    k = TWO_PI * np.fft.fftfreq(n, d=g.period / n)
    k[n // 2] = 0.0
    for u in _fields(rng, g.shape):
        tail = (1,) * (u.ndim - 2)
        kx = k.reshape((n, 1) + tail)
        ky = k.reshape((1, n) + tail)
        uh = np.fft.fft2(u, axes=(0, 1))
        d = np.fft.ifft2(0.5 * (1j * kx + ky) * uh, axes=(0, 1))
        dbar = np.fft.ifft2(0.5 * (1j * kx - ky) * uh, axes=(0, 1))
        assert np.array_equal(g.d(u), d)
        assert np.array_equal(g.dbar(u), dbar)


@pytest.mark.parametrize("n", [3, 4, 16])
def test_hopf_derivatives_match_the_rolled_stencil(rng, n):
    g = HopfBackend(n)
    for u in _fields(rng, g.shape):
        want = (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * g.h)
        assert np.array_equal(g.d(u), want)
        assert np.array_equal(g.dbar(u), want)


def test_torus_nyquist_mode_dropped():
    g = TorusBackend(16)
    x, _ = g.coords()
    u = np.cos(np.pi * g.n * x)  # alternating +-1 on the grid
    assert np.max(np.abs(g.d(u))) < 1e-12
    assert np.max(np.abs(g.dbar(u))) < 1e-12


def test_torus_symbol_oracle():
    # p_op on the mode cos(2 pi (kx + ly) + ph) multiplies by
    # 2 pi^2 (k^2 + l^2) with the default unit cell
    g = TorusBackend(64)
    x, y = g.coords()
    for k, l, ph in ((1, 0, 0.0), (2, 2, 0.3), (3, -2, 0.7), (0, 4, 1.1)):
        u = np.cos(TWO_PI * (k * x + l * y) + ph)
        sym = 2.0 * np.pi ** 2 * (k ** 2 + l ** 2)
        err = np.max(np.abs(g.p_op(u).real - sym * u))
        assert err < 1e-10 * max(1.0, sym)


def test_hopf_operator_oracle_and_refinement():
    # p_op(u) = -(u'' + u'), centered differences, second order
    w0 = TWO_PI / (2.0 * np.log(2.0))

    def sup_err(n):
        g = HopfBackend(n)
        t = g.coords()
        u = np.cos(2 * w0 * t + 0.3) + 0.5 * np.sin(w0 * t)
        exact = ((2 * w0) ** 2 * np.cos(2 * w0 * t + 0.3)
                 + 2 * w0 * np.sin(2 * w0 * t + 0.3)
                 + 0.5 * w0 ** 2 * np.sin(w0 * t)
                 - 0.5 * w0 * np.cos(w0 * t))
        return float(np.max(np.abs(g.p_op(u).real - exact)))

    e256, e512, e1024 = sup_err(256), sup_err(512), sup_err(1024)
    assert e512 < 0.05
    assert 3.7 < e256 / e512 < 4.3
    assert 3.7 < e512 / e1024 < 4.3


def test_hopf_torsion_on_constants():
    # the contraction of a constant (1,0) coefficient is minus the
    # coefficient itself: the zeroth order torsion term survives
    g = HopfBackend(64)
    c = np.ones(g.shape, dtype=complex) * (0.7 + 0.2j)
    assert np.max(np.abs(g.lam_dbar_10(c) + c)) < 1e-14
    # on the torus the same input contracts to zero
    gt = TorusBackend(16)
    ct = np.ones(gt.shape, dtype=complex) * (0.7 + 0.2j)
    assert np.max(np.abs(gt.lam_dbar_10(ct))) < 1e-14


def test_lam_dbar_10_twist_commutator(rng, geom):
    # constant matrix data isolates the twist term: result is
    # -(torsion * g + [tw, g]) with torsion 1 on hopf and 0 on torus
    r = 2
    gmat = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    tmat = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    g10 = np.broadcast_to(gmat, tuple(geom.shape) + (r, r)).copy()
    tw = np.broadcast_to(tmat, tuple(geom.shape) + (r, r)).copy()
    out = _twisted_contraction(geom, g10, tw)
    torsion = 1.0 if isinstance(geom, HopfBackend) else 0.0
    want = -geom.cg * (torsion * gmat + tmat @ gmat - gmat @ tmat)
    assert np.max(np.abs(out - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# integral identities

def test_p_op_integrates_to_zero(rng, geom):
    u = geom.random_band_scalar(rng, kmax=3)
    scale = 1.0 + float(np.max(np.abs(geom.p_op(u).real)))
    assert abs(complex(geom.integrate(geom.p_op(u)))) < 1e-8 * scale


def test_p_op_kernel_is_constants(rng, geom):
    c = 1.3 * np.ones(geom.shape)
    assert np.max(np.abs(geom.p_op(c))) < 1e-12
    u = geom.random_band_scalar(rng, kmax=2)
    assert np.max(np.abs(geom.p_op(u))) > 1e-3


def test_dirichlet_positivity(rng, geom):
    # the quadratic form of p_op is nonnegative on real scalars; this is
    # the integral form of the maximum principle used downstream
    for _ in range(5):
        u = geom.random_band_scalar(rng, kmax=3)
        q = complex(geom.integrate(u * geom.p_op(u))).real
        assert q >= -1e-10 * (1.0 + abs(q))


def test_max_principle_at_discrete_argmax(rng, geom):
    # at the grid argmax the operator value is nonnegative up to an
    # O(h) offset between the grid argmax and the continuum maximum
    u = geom.random_band_scalar(rng, kmax=2)
    p = geom.p_op(u).real
    sup = float(np.max(np.abs(p)))
    h = geom.period / geom.n
    idx = np.unravel_index(np.argmax(u), u.shape)
    assert p[idx] >= -TWO_PI * 2 * h * sup


def test_p_symbol_is_the_symbol_of_p_op(rng, geom):
    # the Newton preconditioner divides by p_symbol, so it must be the
    # exact Fourier symbol of the discrete p_op
    axes = tuple(range(len(geom.shape)))
    for _ in range(3):
        u = geom.random_band_scalar(rng, kmax=3)
        want = geom.p_op(u)
        got = np.fft.ifftn(geom.p_symbol * np.fft.fftn(u, axes=axes),
                           axes=axes)
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_torus_contraction_image_has_zero_degree(rng):
    # images of the matrix contraction have traceless commutator part and
    # mean zero derivative part, so they never carry degree
    g = TorusBackend(32)
    g10 = rand_band_herm(g, rng, 2, amp=0.5)
    tw = rand_band_herm(g, rng, 2, amp=0.5)
    out = _twisted_contraction(g, g10, tw)
    assert abs(complex(g.integrate(trace_field(out)))) < 1e-10


# ---------------------------------------------------------------------------
# pairings

def test_pair_01_positive_and_conjugate_symmetric(rng, geom):
    r = 2
    b1 = rand_band_herm(geom, rng, r) + 1j * rand_band_herm(geom, rng, r)
    b2 = rand_band_herm(geom, rng, r) + 1j * rand_band_herm(geom, rng, r)
    p11 = geom.pair_01(b1, b1)
    assert np.min(p11) >= 0.0
    assert np.max(np.abs(geom.pair_01(b1, b2) - geom.pair_01(b2, b1))) < 1e-12
    # a scalar on the diagonal pairs to cg |s|^2
    s = geom.random_band_scalar(rng, kmax=2) + 0j
    mat = np.zeros(tuple(geom.shape) + (2, 2), dtype=complex)
    mat[..., 0, 0] = s
    want = geom.cg * np.abs(s) ** 2
    assert np.max(np.abs(geom.pair_01(mat, mat) - want)) < 1e-12


def test_lam_wedge_trace_scalar_vs_matrix(rng, geom):
    s1 = geom.random_band_scalar(rng, kmax=2) + 0j
    s2 = geom.random_band_scalar(rng, kmax=2) + 0j
    m1 = np.zeros(tuple(geom.shape) + (2, 2), dtype=complex)
    m2 = np.zeros_like(m1)
    m1[..., 0, 0] = s1
    m2[..., 0, 0] = s2
    a = lam_wedge_trace(geom, m1, m2)
    b = lam_wedge_trace(geom, s1, s2)
    assert np.max(np.abs(a - b)) < 1e-12 * (1.0 + np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# degree

def test_degree_of_constant_curvature(geom):
    # curvature fields carry explicit matrix axes, rank one included
    for deg in (0.0, 1.0, -2.0):
        c = TWO_PI * deg / geom.vol
        ilf = np.full(tuple(geom.shape) + (1, 1), c, dtype=complex)
        assert geom.degree(ilf) == pytest.approx(deg, abs=1e-12)
    # matrix field: degrees add over the diagonal
    ilf2 = np.zeros(tuple(geom.shape) + (2, 2), dtype=complex)
    ilf2[..., 0, 0] = TWO_PI * 1.0 / geom.vol
    ilf2[..., 1, 1] = TWO_PI * 3.0 / geom.vol
    assert geom.degree(ilf2) == pytest.approx(4.0, abs=1e-12)


def test_degree_ignores_mean_zero_part(rng, geom):
    ilf = np.full(tuple(geom.shape) + (1, 1), TWO_PI / geom.vol, dtype=complex)
    u = geom.random_band_scalar(rng, kmax=2)
    assert geom.degree(ilf + geom.p_op(u)[..., None, None]) == pytest.approx(
        1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# band scalars

def test_random_band_scalar_normalized(rng, geom):
    u = geom.random_band_scalar(rng, kmax=3, amp=0.7)
    assert np.isrealobj(u)
    assert float(np.max(np.abs(u))) == pytest.approx(0.7, rel=1e-12)
