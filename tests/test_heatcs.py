"""Heat kernels, coherent overlaps, resolution integrals."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from groupquant import groups as G
from groupquant import heat as H
from groupquant._kernels import itn_denominator
from groupquant.theta import theta3

RNG = np.random.default_rng(11)


def test_heat_kernel_u1_value():
    params = H.HeatParams(G.U1, 1.0)
    oracle = sum(math.exp(-j * j / 2.0) for j in range(-60, 61))
    assert abs(H.heat_kernel(params, 0.0) - oracle) < 1e-13
    assert abs(oracle - 2.5066282880429053) < 1e-12


def test_heat_kernel_normalized():
    params = H.HeatParams(G.U1, 0.8)
    quad = G.u1_quadrature(40)
    vals = np.array([H.heat_kernel(params, G.GroupElement.u1(p))
                     for p in quad.angles])
    assert abs(vals @ quad.weights - 1.0) < 1e-12
    ps = H.HeatParams(G.SU2, 1.0)
    quad2 = G.su2_quadrature(10)
    vals2 = np.array([H.heat_kernel(ps, G.GroupElement.su2(q))
                      for q in quad2.quats])
    assert abs(vals2 @ quad2.weights - 1.0) < 1e-12


def test_heat_kernel_positive():
    for group, t in ((G.U1, 0.4), (G.SU2, 0.7)):
        params = H.HeatParams(group, t)
        for _ in range(1000):
            if group == G.U1:
                g = G.GroupElement.u1(RNG.uniform(0, 2 * math.pi))
            else:
                g = G.GroupElement.su2(
                    G.quat_normalize(RNG.standard_normal(4)))
            assert H.heat_kernel(params, g) > 0.0


def test_su2_series_loop_oracle():
    # the SU(2) heat kernel and overlap series, summed term by term in n to
    # a fixed n = 200, independent of the library's series length
    t = 0.6
    params = H.HeatParams(G.SU2, t)
    for q in ([1, 0, 0, 0], [-1, 0, 0, 0], [0.3, 0.5, -0.2, 0.78]):
        q = G.quat_normalize(np.array(q, float))
        ang = 2.0 * math.acos(q[0])
        terms = []
        for n in range(1, 201):
            if q[0] == 1.0:
                chi = n
            elif q[0] == -1.0:
                chi = n * (-1) ** (n - 1)
            else:
                chi = math.sin(n * ang / 2.0) / math.sin(ang / 2.0)
            terms.append(n * math.exp(-t * (n * n - 1) / 8.0) * chi)
        val = H.heat_kernel(params, G.GroupElement.su2(q))
        assert abs(val - math.fsum(terms)) <= 1e-14 * sum(map(abs, terms))
    rng = np.random.default_rng(3)
    for _ in range(5):
        z, w = (H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                                 0.7 * rng.standard_normal(3))
                for _ in range(2))
        # mu from the trace: 2 cosh(mu) = tr W, W = (z^dag w)^{-1}
        W = np.linalg.inv(H._su2_complex_point(z).conj().T
                          @ H._su2_complex_point(w))
        mu = cmath.acosh(np.trace(W) / 2.0)
        # n sinh(n mu)/sinh(mu) e^{-t(n^2-1)/4}, one exponential per sign
        terms = [n * (cmath.exp(n * mu - t * (n * n - 1) / 4.0)
                      - cmath.exp(-n * mu - t * (n * n - 1) / 4.0))
                 / (2.0 * cmath.sinh(mu)) for n in range(1, 201)]
        ref = complex(math.fsum(x.real for x in terms),
                      math.fsum(x.imag for x in terms))
        val = H.coherent_overlap(params, z, w)
        assert abs(val - ref) <= 1e-14 * sum(map(abs, terms))


def test_su2_complex_point_expm_oracle():
    # z = g e^{iX} is U(g) exp((X . sigma)/2), X = 0 included
    from scipy.linalg import expm
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                      [[1, 0], [0, -1]]])
    rng = np.random.default_rng(7)
    q = G.quat_normalize(rng.standard_normal(4))
    u = rng.standard_normal(3)
    for X in (np.zeros(3), 1e-12 * u / np.linalg.norm(u), 0.7 * u,
              np.array([0.0, -2.3, 0.4])):
        ref = G.quat_to_su2(q) @ expm(np.einsum("k,kab->ab", X, sigma) / 2)
        val = H._su2_complex_point(H.PolarPoint.su2(q, X))
        assert np.abs(val - ref).max() < 1e-14 * np.abs(ref).max()


def _overlap_eigvals_oracle(params, z, zp):
    """SU(2) (Psi_z, Psi_z') with mu from an eigenvalue of (z^dag z')^{-1},
    independent of the library's trace route."""
    w = np.linalg.inv(H._su2_complex_point(z).conj().T
                      @ H._su2_complex_point(zp))
    ev = np.linalg.eigvals(w)  # e^{+-mu}
    return H.su2_norm_series(np.log(ev[np.argmax(np.abs(ev))]),
                             params.t)[0]


def test_su2_overlap_trace_vs_eigvals_oracle():
    # draws as in the benchmark's overlaps, plus z' = z and z' = -z; the
    # scale is the Cauchy-Schwarz bound |Psi_z| |Psi_z'|, since at z' = -z
    # the series cancels to far below it on either route
    rng = np.random.default_rng(12)
    worst = 0.0
    for k in range(600):
        params = H.HeatParams(G.SU2, rng.uniform(0.3, 1.5))
        z, w = (H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                                 0.7 * rng.standard_normal(3))
                for _ in range(2))
        if k % 3 == 1:
            w = z
        elif k % 3 == 2:
            w = H.PolarPoint.su2(-np.asarray(z.g.quat), z.X)
        ref = _overlap_eigvals_oracle(params, z, w)
        scale = math.sqrt(abs(_overlap_eigvals_oracle(params, z, z))
                          * abs(_overlap_eigvals_oracle(params, w, w)))
        val = H.coherent_overlap(params, z, w)
        worst = max(worst, abs(val - ref) / scale)
    assert worst < 1e-11


def _antipode_series_mp(eps, s):
    """(value, sum of |terms|) of sum_n n e^{-s(n^2-1)/4} chi_n(i(pi - eps))
    at 40 digits, chi_n(i(pi - eps)) = (-1)^{n-1} sin(n eps)/sin(eps): the
    value from theta_4 (sum_n (-1)^{n-1} n q^{n^2} sin(n eps) =
    theta_4'(eps/2, q)/4, and theta_4''(0, q)/8 with n^2 at eps = 0), the
    scale from mpmath.nsum."""
    with mpmath.workdps(40):
        eps, q = mpmath.mpf(eps), mpmath.exp(-mpmath.mpf(s) / 4)
        if eps == 0:
            val = mpmath.jtheta(4, 0, q, 2) / 8
            chi = mpmath.mpf
        else:
            val = mpmath.jtheta(4, eps / 2, q, 1) / (4 * mpmath.sin(eps))
            chi = lambda n: mpmath.sin(n * eps) / mpmath.sin(eps)  # noqa: E731
        scale = mpmath.nsum(lambda n: abs(n * chi(n)) * q ** (n * n),
                            [1, mpmath.inf])
        return val / q, scale / q


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_su2_overlap_antipode(t):
    # (Psi_z, Psi_z') at z' = -z and 1e-7 from it, X = 0: the continued
    # heat kernel at -1, where sinh(mu) vanishes
    params = H.HeatParams(G.SU2, t)
    rng = np.random.default_rng(5)
    for eps in (0.0, 1e-7):
        q = G.quat_normalize(rng.standard_normal(4))
        r = np.array([math.cos(eps), 0.0, 0.0, math.sin(eps)])
        z = H.PolarPoint.su2(q, np.zeros(3))
        zp = H.PolarPoint.su2(G.quat_mul(-q, r), np.zeros(3))
        ref, scale = _antipode_series_mp(eps, t)
        val = H.coherent_overlap(params, z, zp)
        assert abs(val - float(ref)) <= 1e-14 * float(scale)


@pytest.mark.parametrize("t", [0.6, 2.0])
def test_su2_heat_kernel_near_antipode(t):
    # rho_t(g) within 1e-7 of -1 is positive and matches theta_4
    params = H.HeatParams(G.SU2, t)
    for axis in ([0, 0, 1], [0.6, -0.8, 0], [1, 1, 1]):
        v = 1e-7 * np.asarray(axis, float) / np.linalg.norm(axis)
        q = np.array([-math.sqrt(1.0 - v @ v), *v])
        with mpmath.workdps(40):
            # pi - (half angle) of the float quaternion
            eps = mpmath.pi - mpmath.atan2(
                mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for x in v)),
                mpmath.mpf(q[0]))
        ref, scale = _antipode_series_mp(eps, t / 2.0)
        val = H.heat_kernel(params, q)
        assert val > 0.0
        assert abs(val - float(ref)) <= 1e-14 * float(scale)


def test_u1_heat_kernel_antipode():
    # rho_t(pi) = theta_3(pi/2, e^{-t/2}) = sum_j (-1)^j e^{-t j^2/2}. Its
    # Poisson-dual sum sqrt(2 pi/t) sum_k e^{-(pi - 2 pi k)^2/(2t)} / (2 pi)
    # has positive terms only, so there sum |terms| is the value itself
    t = 0.2
    with mpmath.workdps(40):
        ref = mpmath.jtheta(3, mpmath.pi / 2, mpmath.exp(-mpmath.mpf(t) / 2))
    val = H.heat_kernel(H.HeatParams(G.U1, t), math.pi)
    assert abs(val - float(ref)) <= 1e-14 * float(ref)


def test_u1_overlap_theta_identity():
    t, l = 0.7, 0.45
    params = H.HeatParams(G.U1, t)
    z = H.PolarPoint.u1(1.1, l)
    ov = H.coherent_overlap(params, z, z)
    direct = sum(math.exp(-t * j * j) * math.exp(2 * j * l)
                 for j in range(-50, 51))
    theta = theta3(1j * l / math.pi, 1j * t / math.pi)
    assert abs(ov - direct) < 1e-11 * abs(direct)
    assert abs(ov - theta) < 1e-11 * abs(theta)
    # positive norm at the identity
    z0 = H.PolarPoint.u1(0.0, 0.0)
    assert H.coherent_overlap(params, z0, z0).real > 0


def test_u1_overlap_overflow_raises():
    # (Psi_z, Psi_z) at t = 0.5, l = 30 is theta3(30i/pi | 0.5i/pi), of
    # log 1800.9 by mpmath: past the double range, so OverflowError
    z = H.PolarPoint.u1(0.0, 30.0)
    with pytest.raises(OverflowError):
        H.coherent_overlap(H.HeatParams(G.U1, 0.5), z, z)


def test_su2_overlap_norm_series():
    t = 0.8
    params = H.HeatParams(G.SU2, t)
    for p in (0.15, 0.45, 1.1):
        h = 2.0 * p  # |X| = 2p in the sinh(2np)/sinh(2p) convention
        z = H.PolarPoint.su2([1, 0, 0, 0], [0.0, 0.0, h])
        ov = H.coherent_overlap(params, z, z)
        series = sum(n * math.exp(-t * (n * n - 1) / 4.0)
                     * math.sinh(2 * n * p) / math.sinh(2 * p)
                     for n in range(1, 60))
        assert abs(ov - series) < 1e-11 * series
        # closed theta'-form of the same series:
        # e^{t/4} theta3'(h/(2 pi i) | i t/(4 pi)) / (4 pi i sinh h / 2) ...
        from groupquant.theta import theta3_dz
        closed = math.exp(t / 4.0) * theta3_dz(
            h / (2j * math.pi), 1j * t / (4 * math.pi)) \
            / (2j * math.pi * 2.0 * math.sinh(h))
        assert abs(ov - closed) < 1e-10 * series


def test_overlap_hermiticity_and_positivity():
    params = H.HeatParams(G.SU2, 0.9)
    pts = []
    for _ in range(40):
        q = G.quat_normalize(RNG.standard_normal(4))
        X = 0.7 * RNG.standard_normal(3)
        pts.append(H.PolarPoint.su2(q, X))
    for i in range(0, 40, 5):
        z, w = pts[i], pts[(i + 7) % 40]
        o1 = H.coherent_overlap(params, z, w)
        o2 = H.coherent_overlap(params, w, z)
        assert abs(o1 - np.conj(o2)) < 1e-11 * max(1.0, abs(o1))
        d = H.coherent_overlap(params, z, z)
        assert d.real > 0 and abs(d.imag) < 1e-11 * d.real
    # the benchmark's draws: seed 1 holds a pair at which mu taken from an
    # eigenvalue of (z^dag z')^{-1} breaks hermiticity by 7.2e-11
    rng = np.random.default_rng(1)
    for _ in range(3000):
        params = H.HeatParams(G.SU2, rng.uniform(0.3, 1.5))
        z, w = (H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                                 0.7 * rng.standard_normal(3))
                for _ in range(2))
        o1 = H.coherent_overlap(params, z, w)
        o2 = H.coherent_overlap(params, w, z)
        assert abs(o1 - np.conj(o2)) < 1e-11 * max(1.0, abs(o1))


def test_resolution_constant_u1():
    for t in (0.5, 1.0, 2.0):
        val = H.resolution_constant_u1(t)
        assert abs(val - t) / t < 1e-4


def _theta3_cosine(x, t):
    """Oracle: theta3(x | i pi/t) for real x by its cosine series,
    1 + 2 sum_{n>=1} e^{-pi^2 n^2/t} cos(2 pi n x), to terms below 1e-18."""
    x = np.asarray(x, float)
    out = np.ones_like(x)
    n = 1
    while 2.0 * math.exp(-math.pi ** 2 * n * n / t) >= 1e-18:
        out = out + 2.0 * math.exp(-math.pi ** 2 * n * n / t) \
            * np.cos(2 * math.pi * n * x)
        n += 1
    return out


@pytest.mark.parametrize("t, tol", [(0.5, 1e-15), (1.0, 1e-15),
                                    (2.0, 1e-15), (6.0, 1e-13)])
def test_theta3_real_frame_against_cosine_series(t, tol):
    # the denominator of the U(1) resolution integrand on an array of nodes;
    # t = 6 evaluates in the -1/tau frame, whose Gaussian prefactor and
    # quasi-period multiplier have logarithms up to about 80 in size and
    # cancel to a value of order 1, which costs about 3e-14 relative
    x = np.linspace(-9.0, 9.0, 601) / math.sqrt(t)
    ref = _theta3_cosine(x, t)
    val = theta3(x, 1j * math.pi / t)
    assert val.shape == x.shape
    assert np.max(np.abs(val.real - ref) / ref) < tol
    assert np.max(np.abs(val.imag)) < 1e-14 * np.max(ref)


def test_resolution_constant_shift_invariance():
    # the integrand reduction used l -> l + t j invariance (theta period);
    # check the unreduced integrand integrates to the same value for j = 1
    t, j = 0.8, 1
    from groupquant.heat import _panel_gl
    width = 10 * math.sqrt(t)

    def f_shift(l):
        return np.exp(-(l + t * j) ** 2 / t) / _theta3_cosine(l / t, t)

    val = math.sqrt(t / math.pi) * _panel_gl(
        f_shift, -width - t * j, width - t * j, 64)
    assert abs(val - H.resolution_constant_u1(t)) < 1e-9


def _panel_gl_loop(f, a, b, n_panels):
    """Oracle: the composite 24-point rule panel by panel, one integrand
    call per panel."""
    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        total += half * np.sum(w * f(mid + half * x))
    return total


@pytest.mark.parametrize("n_panels", [1, 16, 128])
def test_panel_gl_oracle(n_panels):
    from groupquant.heat import _panel_gl
    t = 0.8
    width = 9.0 * math.sqrt(t)

    def f_u1(l):
        return np.exp(-l * l / t) / _theta3_cosine(l / t, t)

    cases = [(f_u1, -width, width)]
    for t2, n in ((0.3, 1), (1.3, 2), (4.0, 5)):
        center, w2 = t2 * n / 2.0, 13.0 * math.sqrt(t2)

        def f_su2(p, t2=t2, center=center):
            return (p * p * np.exp(-(p - center) ** 2 / t2)
                    / itn_denominator(p, t2))

        cases += [(f_su2, center - w2, 0.0), (f_su2, 0.0, center + w2)]
    for f, a, b in cases:
        ref = _panel_gl_loop(f, a, b, n_panels)
        assert abs(_panel_gl(f, a, b, n_panels) - ref) <= 1e-14 * abs(ref)


def test_itn_table_cells():
    assert abs(H.resolution_integral_su2(1.0, 1) - 0.125) < 1e-9
    assert abs(H.resolution_integral_su2(2.0, 4) - 4.0) < 1e-6
    assert abs(H.resolution_integral_su2(math.pi, 1) - 3.87578) < 2e-4 * 3.87578
    assert abs(H.resolution_integral_su2(math.e, 5) - 12.5535) < 2e-3


def test_itn_imag_residual_and_theta_route():
    val, resid = H.resolution_integral_su2(math.pi, 3,
                                           return_imag_residual=True)
    assert resid < 1e-8
    # theta'-integrand equals the real reduced form pointwise
    t, n = 2.0, 2
    for p in (1.1, 2.0, 3.3):
        zth = H.itn_theta_integrand(p, t, n)
        S = itn_denominator(np.array([p]), t)[0]
        fre = p * p * math.exp(-(p - t * n / 2.0) ** 2 / t) / S
        assert abs(zth.real - fre) < 1e-12 * abs(fre)
        assert abs(zth.imag) < 1e-12 * abs(fre)


def test_itn_linearity_cubic_closed_laws():
    ts = [1.0, 2.0, math.e, math.pi, 4.0]
    vals = {(t, n): H.resolution_integral_su2(t, n)
            for t in ts for n in range(1, 6)}
    for t in ts:
        for n in range(1, 6):
            v = vals[(t, n)]
            assert abs(v - n * vals[(t, 1)]) / v < 1e-4
            assert abs(v - t ** 3 * vals[(1.0, n)]) / v < 1e-4
            assert abs(v - t ** 3 * n / 8.0) / (t ** 3 * n / 8.0) < 1e-4


def test_itn_convergence_error():
    with pytest.raises(ValueError):
        H.resolution_integral_su2(-1.0, 1)


def test_schur_residual():
    A1, r1 = H.schur_residual_su2(1.0, 1)
    assert r1 == 0.0
    for n in (2, 3):
        A, r = H.schur_residual_su2(1.0, n)
        assert r < 1e-6
        diag = np.diag(A).real
        assert np.abs(diag - diag.mean()).max() < 1e-6 * abs(diag.mean())


def test_measure_equiv_ratio():
    assert abs(H.measure_equiv_ratio(0.1, [0, 0, 0]) - 1.0) < 0.05
    X = [0.3, 0.2, 0.4]
    # monotone approach: closer to 1 at t = 0.01 than at t = 0.5
    # (both are at rounding level, so allow a tolerance floor)
    d_small = abs(H.measure_equiv_ratio(0.01, X) - 1.0)
    d_mid = abs(H.measure_equiv_ratio(0.5, X) - 1.0)
    assert d_small <= d_mid + 1e-10
    # the measurable regime: theta-image corrections decay in t
    d4 = abs(H.measure_equiv_ratio(4.0, X) - 1.0)
    d2 = abs(H.measure_equiv_ratio(2.0, X) - 1.0)
    assert d4 > 1e-5 and d2 < d4 and d_mid < d2
    # positivity
    for t in (0.05, 0.5, 2.0):
        assert H.measure_equiv_ratio(t, [1.1, -0.4, 0.2]) > 0
