import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vortexpair import _fiber_np, _kernels, fiber
from vortexpair.fiber import (ClampError, dexp_kernel, frob, herm_exp,
                              herm_log, herm_part, kernel_matrix,
                              psi_kernel, skew_defect, sup_norm)

from conftest import rand_herm
from oracles import herm_sqrt, xi_derivative, xi_path


def _herm_from_spectrum(rng, w):
    r = len(w)
    q = np.linalg.qr(rng.standard_normal((r, r))
                     + 1j * rng.standard_normal((r, r)))[0]
    return herm_part((q * w) @ q.conj().T)


# ---------------------------------------------------------------------------
# exp/log roundtrip

def test_roundtrip_500_spectra(rng):
    worst = 0.0
    for _ in range(500):
        r = int(rng.integers(1, 5))
        w = rng.uniform(-5.0, 5.0, size=r)
        s = _herm_from_spectrum(rng, w)
        back = herm_log(herm_exp(s))
        worst = max(worst, sup_norm(back - s) / max(1.0, sup_norm(s)))
    assert worst <= 1e-10


def test_roundtrip_repeated_eigenvalues(rng):
    for w in ([2.0, 2.0, -1.0], [0.0, 0.0, 0.0], [3.0, 3.0, 3.0, -3.0]):
        s = _herm_from_spectrum(rng, np.array(w))
        assert sup_norm(herm_log(herm_exp(s)) - s) < 1e-12


def test_roundtrip_gridded_field(rng):
    s = rand_herm(rng, (6, 5), 3, amp=1.5)
    assert sup_norm(herm_log(herm_exp(s)) - s) < 1e-11


def test_sqrt_squares_back(rng):
    s = rand_herm(rng, (4,), 3)
    f = herm_exp(s)
    q = herm_sqrt(f)
    assert sup_norm(q @ q - f) < 1e-12 * max(1.0, sup_norm(f))


# ---------------------------------------------------------------------------
# kernels

def test_psi_kernel_pins():
    assert abs(psi_kernel(0.0, 1.0) - (math.e - 1.0)) < 1e-12
    assert abs(psi_kernel(1.0, 1.0 + 1e-9) - (1.0 + 5e-10)) < 1e-12
    assert abs(psi_kernel(2.0, 2.0) - 1.0) == 0.0


def test_psi_kernel_positive(rng):
    x = rng.uniform(-6, 6, size=200)
    y = rng.uniform(-6, 6, size=200)
    assert np.all(psi_kernel(x, y) > 0)


def test_psi_kernel_series_branch_continuity():
    # values just inside and outside the series cutoff must agree
    for t in (9e-7, 1.1e-6):
        lo = psi_kernel(0.0, t)
        hi = np.expm1(t) / t
        assert abs(lo - hi) < 1e-13


def test_dexp_kernel_symmetric(rng):
    x = rng.uniform(-4, 4, size=100)
    y = rng.uniform(-4, 4, size=100)
    assert np.max(np.abs(dexp_kernel(x, y) - dexp_kernel(y, x))) == 0.0
    # closed form away from the diagonal
    d = (np.exp(x) - np.exp(y)) / (x - y)
    assert np.max(np.abs(dexp_kernel(x, y) - d)) < 1e-12 * np.max(np.abs(d))


def test_dexp_transform_matches_finite_difference(rng):
    # the transform continuation.d2lhat_apply runs; rank 2 takes the
    # closed-form eigh, rank 3 LAPACK's, and both the written-out apply_two
    for r in (2, 3):
        for _ in range(30):
            s = rand_herm(rng, (), r)
            a = rand_herm(rng, (), r)
            t = 1e-6
            fd = (herm_exp(s + t * a) - herm_exp(s - t * a)) / (2 * t)
            w, v = fiber.herm_eig(s)
            dd = fiber.apply_two(kernel_matrix(dexp_kernel, w), v, a)
            assert sup_norm(fd - dd) <= 1e-5 * max(1.0, sup_norm(dd)), r


def test_kernel_transform_against_hand_loop(rng):
    # pins the orientation: entry (i, j) in the eigenbasis of s gets
    # fn(lambda_j, lambda_i)
    def fn(x, y):
        return 1.0 / (1.0 + (x - 2.0 * y) ** 2)
    s = rand_herm(rng, (), 3)
    a = rand_herm(rng, (), 3)
    w, v = fiber.herm_eig(s)
    ah = v.conj().T @ a @ v
    out_hand = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            out_hand[i, j] = fn(w[j], w[i]) * ah[i, j]
    out_hand = v @ out_hand @ v.conj().T
    got = fiber.apply_two(kernel_matrix(fn, w), v, a)
    assert sup_norm(got - out_hand) < 1e-13


def test_dexp_kernel_near_degenerate():
    # two nearly equal eigenvalues: kernel must interpolate, not blow up
    close = dexp_kernel(np.array(1.0), np.array(1.0 + 1e-9))
    assert abs(close - math.e) < 1e-6


# ---------------------------------------------------------------------------
# monotone pairing path

def test_xi_monotone_1000_fibers(rng):
    worst = np.inf
    for _ in range(1000):
        r = int(rng.integers(1, 5))
        phi = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        s = rand_herm(rng, (), r, amp=2.0)
        d = xi_path(phi, s, 1.0) - xi_path(phi, s, 0.0)
        worst = min(worst, float(d))
    assert worst >= -1e-12


def test_xi_derivative_closed_form(rng):
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    s = rand_herm(rng, (), 3)
    t = 0.37
    eps = 1e-6
    fd = (xi_path(phi, s, t + eps) - xi_path(phi, s, t - eps)) / (2 * eps)
    assert abs(fd - xi_derivative(phi, s, t)) < 1e-5 * max(1.0, abs(fd))
    assert xi_derivative(phi, s, t) >= 0.0


def test_xi_general_reference_frame(rng):
    # independent route: with a general reference the pairing is
    # Re(phi^H h0 e^(t s) s phi), computable with a dense non-Hermitian
    # matrix exponential
    from scipy.linalg import expm
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h0 = herm_exp(rand_herm(rng, (), 2, amp=0.5))
    s_h = rand_herm(rng, (), 2)
    # make s h0-Hermitian the way the caller would hand it over
    s = np.linalg.inv(h0) @ herm_part(h0 @ s_h)
    t = 0.8
    a = float(xi_path(phi, s, t, h0=h0))
    direct = (phi.conj() @ h0 @ expm(t * s) @ s @ phi).real
    assert abs(a - direct) < 1e-11 * max(1.0, abs(direct))


def test_phi_outer_semipositive(rng):
    for _ in range(50):
        r = int(rng.integers(1, 5))
        phi = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        w = np.linalg.eigvalsh(fiber.phi_outer(phi))
        assert np.min(w) >= -1e-14 * max(1.0, np.max(w))


# ---------------------------------------------------------------------------
# clamp policy

def test_herm_log_raises_on_negative():
    bad = np.diag([1.0, -1e-6]).astype(complex)
    with pytest.raises(ClampError):
        herm_log(bad)


def test_herm_log_clamps_tiny_negative(monkeypatch):
    monkeypatch.setattr(fiber, "clamp_events", 0)
    nearly = np.diag([1.0, 1e-16]).astype(complex)
    out = herm_log(nearly)
    assert fiber.clamp_events >= 1
    assert out[1, 1].real == pytest.approx(math.log(fiber.EIG_FLOOR))


def test_herm_sqrt_raises_on_indefinite():
    with pytest.raises(ClampError):
        herm_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_assert_hermitian_catches_skew(rng):
    a = rand_herm(rng, (), 2)
    a[0, 1] += 1.0
    with pytest.raises(ValueError):
        fiber.assert_hermitian(a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
@pytest.mark.parametrize("r", [1, 2])
def test_assert_hermitian_rejects_non_finite_entries(rng, bad, r):
    # one non-finite entry fails before any defect is computed: a NaN
    # defect compares False, and an inf entry makes inf - inf (a
    # RuntimeWarning, an error under the suite's filter)
    a = rand_herm(rng, (3, 4), r)
    a[1, 2, r - 1, 0] = bad
    with pytest.raises(fiber.NotHermitianError,
                       match="^metric has non-finite entries$"):
        fiber.assert_hermitian(a, what="metric")


# ---------------------------------------------------------------------------
# norms and parts

def test_norms_and_parts(rng):
    a = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    h = herm_part(a)
    assert skew_defect(h) == 0.0
    assert sup_norm(h) == pytest.approx(float(np.max(frob(h))))
    # a rank-1 field's sup norm is its largest absolute entry
    x = np.array([1.0, -3.0])
    assert sup_norm(x[:, None, None]) == np.max(np.abs(x))


def test_sup_norm_is_the_max_of_frob_bit_for_bit(rng):
    # the root is taken after the max; sqrt is monotone and correctly
    # rounded, so the float is that of the grid max of frob, also where
    # the squares underflow or overflow to inf and where an entry is NaN
    for r in (1, 2, 3):
        for scale in (1e-300, 1e-160, 1e-3, 1.0, 1e3, 1e160, 1e300):
            a = scale * (rng.standard_normal((5, 6, r, r))
                         + 1j * rng.standard_normal((5, 6, r, r)))
            nan, inf = a.copy(), a.copy()
            nan[2, 3, 0, r - 1] = complex(math.nan, 1.0)
            inf[1, 4, r - 1, 0] = math.inf
            for x in (a, herm_part(a), nan, inf):
                with np.errstate(over="ignore", invalid="ignore"):
                    want = float(np.maximum.reduce(frob(x), axis=None))
                    got = sup_norm(x)
                assert (np.float64(got).tobytes()
                        == np.float64(want).tobytes()), (r, scale, got, want)
            with np.errstate(over="ignore", invalid="ignore"):
                assert math.isnan(sup_norm(nan)) and sup_norm(inf) == math.inf


# ---------------------------------------------------------------------------
# hypothesis edges

@settings(max_examples=60, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
def test_psi_kernel_bounds(x, y):
    p = float(psi_kernel(x, y))
    assert p > 0.0
    assert np.isfinite(p)
    # psi(x, y) * psi(y, x) = e^(y-x) * psi(y,x)^2 sanity: product equals
    # the symmetric function e^((y-x)/2) * (sinh(u)/u) with u=(y-x)/2
    u = 0.5 * (y - x)
    sym = math.exp(u) * (math.sinh(u) / u if abs(u) > 1e-8 else 1.0)
    assert abs(p - sym) <= 1e-9 * max(1.0, abs(sym))


@settings(max_examples=40, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(1e-12, 1.0))
def test_roundtrip_tiny_gaps(a, b, gap):
    rng = np.random.default_rng(7)
    s = _herm_from_spectrum(rng, np.array([a, b, b + gap]))
    assert sup_norm(herm_log(herm_exp(s)) - s) < 1e-9 * max(1.0, sup_norm(s))


# ---------------------------------------------------------------------------
# rank-1 fast paths against the generic kernels

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-15, -1e-15]),
    st.floats(-1e3, 1e3, allow_subnormal=False))


@st.composite
def _rank1_fields(draw):
    """Rank-1 fields on an (n,) or (n, n) grid: eigenvalues w, kernel k,
    a complex field b, and unit phases (any 1x1 unitary)."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(n,), (n, n)]))
    size = int(np.prod(shape))

    def field(elements):
        vals = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(vals, dtype=np.float64).reshape(shape + (1, 1))

    w, k = field(_VALUES), field(_VALUES)
    b = field(_VALUES) + 1j * field(_VALUES)
    phase = field(st.floats(0.0, 2.0 * math.pi))
    return w, k, b, phase


def _assert_close(x, y):
    np.testing.assert_allclose(x, y, rtol=1e-13, atol=1e-300)


@settings(max_examples=60, deadline=None)
@given(_rank1_fields())
def test_rank1_fast_paths_match_generic(fields):
    w, k, b, phase = fields
    a = w.astype(np.complex128)
    wf, vf = _kernels.eigh_batch(a)
    wn, vn = _fiber_np.eigh_batch(a)
    assert wf.shape == wn.shape and vf.shape == vn.shape
    _assert_close(wf, wn)
    # eigenvectors are only defined up to phase: compare v diag(w) v^H
    _assert_close(_fiber_np.apply_one(wf, vf), _fiber_np.apply_one(wn, vn))
    _assert_close(_fiber_np.apply_one(wf, vf), a)
    v = np.exp(1j * phase)
    g = w[..., 0]
    _assert_close(_kernels.apply_one(g, v), _fiber_np.apply_one(g, v))
    _assert_close(_kernels.apply_two(k, v, b), _fiber_np.apply_two(k, v, b))


# ---------------------------------------------------------------------------
# the batched product mm against np.matmul

_MM_VALUES = st.one_of(st.just(0.0), st.floats(1e-100, 1e3),
                       st.floats(-1e3, -1e-100))


@st.composite
def _mm_operands(draw, ranks=st.integers(1, 4)):
    """Two operands of a rank drawn from ranks (1 to 4 by default) on
    an (n,) or (n, n) grid: fields or a constant (r, r) on either side,
    each real or complex."""
    r = draw(ranks)
    n = draw(st.integers(1, 3))
    grid = draw(st.sampled_from([(n,), (n, n)]))
    layout = draw(st.sampled_from(["field-field", "const-field",
                                   "field-const"]))

    def operand(const):
        shape = (r, r) if const else grid + (r, r)
        x = draw(hnp.arrays(np.float64, shape, elements=_MM_VALUES))
        if draw(st.booleans()):
            x = x + 1j * draw(hnp.arrays(np.float64, shape,
                                         elements=_MM_VALUES))
        return x

    return (operand(layout == "const-field"),
            operand(layout == "field-const"))


def _assert_scaled(got, want, scale):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@settings(max_examples=150, deadline=None)
@given(_mm_operands(), st.sampled_from([0.0, 1e-9]), st.integers(0, 2 ** 32),
       st.sampled_from([2, 3, 4]))
# equal-shaped operands that are not square: @ raises, and so must mm
# instead of summing over the wrong index
@example(operands=(np.ones((3, 2, 3)), np.ones((3, 2, 3))), split=0.0,
         seed=0, r=2)
@example(operands=(np.ones((3, 2)), np.ones((3, 3, 2))), split=0.0,
         seed=0, r=3)
def test_mm_and_rank2_calculus_match_matmul(operands, split, seed, r):
    a, b = operands
    if a.shape[-2] != a.shape[-1]:
        for product in (np.matmul, fiber.mm):
            with pytest.raises(ValueError):
                product(a, b)
        return
    _assert_scaled(fiber.mm(a, b), np.matmul(a, b),
                   np.max(np.abs(a)) * np.max(np.abs(b)))

    # rank-2 to rank-4 functional calculus on exactly coincident and
    # 1e-9-split eigenvalues, against the same formulas written with @
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-3.0, 3.0, size=(3, 3, 1)) + split * np.arange(r)
    q = np.linalg.qr(rng.standard_normal((3, 3, r, r))
                     + 1j * rng.standard_normal((3, 3, r, r)))[0]
    qh = np.conjugate(np.swapaxes(q, -1, -2))
    w, v = _kernels.eigh_batch(herm_part((q * w0[..., None, :]) @ qh))
    vh = np.conjugate(np.swapaxes(v, -1, -2))
    g = np.exp(w)
    _assert_scaled(_kernels.apply_one(g, v),
                   (v * g[..., None, :]) @ vh, np.max(g))
    k = fiber.kernel_matrix(psi_kernel, w)
    c = rng.standard_normal((3, 3, r, r)) + 1j * rng.standard_normal((3, 3, r, r))
    _assert_scaled(_kernels.apply_two(k, v, c), v @ (k * (vh @ c @ v)) @ vh,
                   np.max(k) * np.max(np.abs(c)))


def _mm_four_lines(a, b):
    """The rank-2 product written as four entry expressions."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


@settings(max_examples=100, deadline=None)
@given(_mm_operands(ranks=st.just(2)))
def test_rank2_mm_is_bitwise_the_four_line_form(operands):
    # field-field, const-field and field-const, each side real or complex
    a, b = operands
    got, want = fiber.mm(a, b), _mm_four_lines(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# rank-2 closed forms against LAPACK and the @ formulas

_E40 = math.exp(40.0)


def _rank2_edge_points(rng):
    """One rank-2 Hermitian matrix per grid point: coincident, nearly
    coincident, diagonal, off-diagonal, widely split and generic
    spectra. The first eight points are diagonal."""
    def rotated(w):
        return _herm_from_spectrum(rng, np.array(w))

    off = np.array([[0.0, 2.0 - 1.0j], [2.0 + 1.0j, 0.0]])
    pts = [
        np.zeros((2, 2)),                    # the zero field
        2.5 * np.eye(2), -1e-3 * np.eye(2),  # c I
        np.diag([7.0, 7.0]),                 # diag(c, c)
        np.diag([3.0, -1.0]),                # a00 > a11
        np.diag([-1.0, 3.0]),                # a00 < a11
        np.diag([1.3, 1.3 + 1e-9]),          # a 1e-9 split
        np.diag([_E40, 1.0 / _E40]),         # e^40 and e^-40
        rotated([1.3, 1.3 + 1e-9]),
        rotated([-0.4, -0.4]),               # c I up to roundoff
        rotated([1.0 / _E40, _E40]),
        rotated([-_E40, 1.0 / _E40]),
        off, -off.conj(), 1e-200 * off,      # purely off-diagonal
        rotated([-2.0, 0.5]),
    ]
    return np.array(pts, dtype=np.complex128)


def _dagger(v):
    return np.conjugate(np.swapaxes(v, -1, -2))


def test_rank2_eigh_closed_form_matches_lapack(rng):
    a = _rank2_edge_points(rng)
    w, v = _kernels.eigh_batch(a)
    wn, _ = _fiber_np.eigh_batch(a)
    scale = frob(a)[:, None]
    tol = 8 * np.finfo(float).eps
    assert np.all(w[:, 0] <= w[:, 1])
    assert np.all(np.abs(w - wn) <= tol * scale)
    unitary = _dagger(v) @ v - np.eye(2)
    assert np.max(np.abs(unitary)) <= tol
    back = (v * w[..., None, :]) @ _dagger(v)
    assert np.all(frob(back - a) <= tol * frob(a))
    # on diagonal points each eigenvalue is accurate relative to itself,
    # e^-40 beside e^40 included, as LAPACK's are
    diag = np.sort(np.diagonal(a[:8].real, axis1=-2, axis2=-1), axis=-1)
    assert np.all(np.abs(w[:8] - diag) <= 2 * np.finfo(float).eps * np.abs(diag))
    assert np.array_equal(wn[:8], diag)
    # a scalar point is already diagonal: V = I exactly
    np.testing.assert_array_equal(v[:4], np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_rank2_calculus_on_edge_spectra_matches_generic(rng):
    a = _rank2_edge_points(rng)
    w, v = _kernels.eigh_batch(a)
    wn, vn = _fiber_np.eigh_batch(a)
    # eigenvalues carry an absolute error of order eps |A|; scaled by
    # |A| they are well conditioned, so both routes must agree
    scale = np.maximum(1.0, frob(a))[:, None]
    g, gn = w / scale, wn / scale
    got = _kernels.apply_one(g, v)
    assert np.array_equal(got[..., 1, 0], np.conjugate(got[..., 0, 1]))
    assert np.max(np.abs(got - (v * g[..., None, :]) @ _dagger(v))) <= 1e-15
    # v diag(g(w)) v^H does not depend on the choice of eigenvectors
    assert np.max(np.abs(got - _fiber_np.apply_one(gn, vn))) <= 1e-14
    c = (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
    k = fiber.kernel_matrix(psi_kernel, g)
    two = _kernels.apply_two(k, v, c)
    assert np.max(np.abs(two - v @ (k * (_dagger(v) @ c @ v)) @ _dagger(v))) \
        <= 1e-13 * np.max(k) * np.max(np.abs(c))
    kn = fiber.kernel_matrix(psi_kernel, gn)
    assert np.max(np.abs(two - _fiber_np.apply_two(kn, vn, c))) \
        <= 1e-13 * np.max(k) * np.max(np.abs(c))


def inv_psi_kernel(x, y):
    """(y - x) / (e^(y-x) - 1), a second kernel that is not symmetric."""
    return 1.0 / psi_kernel(x, y)


@pytest.mark.parametrize("kernel", [psi_kernel, inv_psi_kernel])
def test_rank2_apply_two_non_hermitian_and_non_symmetric_kernel(rng, kernel):
    # dbar s is not Hermitian, and psi and 1/psi are not symmetric
    s = rand_herm(rng, (5, 4), 2, amp=2.0)
    c = rng.standard_normal((5, 4, 2, 2)) + 1j * rng.standard_normal((5, 4, 2, 2))
    assert skew_defect(c) > 0.1
    w, v = _kernels.eigh_batch(s)
    k = fiber.kernel_matrix(kernel, w)
    assert np.max(np.abs(k - np.swapaxes(k, -1, -2))) > 0.1
    got = _kernels.apply_two(k, v, c)
    want = v @ (k * (_dagger(v) @ c @ v)) @ _dagger(v)
    scale = np.max(k) * np.max(np.abs(c))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    wn, vn = _fiber_np.eigh_batch(s)
    generic = _fiber_np.apply_two(fiber.kernel_matrix(kernel, wn), vn, c)
    assert np.max(np.abs(got - generic)) <= 1e-13 * scale


def test_rank2_eigh_non_finite_points_stay_local(rng):
    a = rand_herm(rng, (6,), 2)
    a[1, 0, 0] = np.nan
    a[3, 1, 0] = a[3, 0, 1] = np.inf
    a[4, 1, 1] = -np.inf
    bad = np.zeros(6, dtype=bool)
    bad[[1, 3, 4]] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = _kernels.eigh_batch(a)
        wn, vn = _fiber_np.eigh_batch(a)
    # the closed form leaves NaN at each non-finite point and only
    # there (LAPACK may return finite values at a NaN point)
    assert np.all(np.isnan(w[bad]))
    np.testing.assert_allclose(w[~bad], wn[~bad], rtol=0, atol=1e-14)
    assert np.all(np.isfinite(v[~bad]))
