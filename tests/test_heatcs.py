"""Heat kernels, coherent overlaps, resolution integrals."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from groupquant import groups as G
from groupquant import heat as H
from groupquant import orbits as O
from groupquant._kernels import (ITN_T_MAX, _gauss_legendre, itn_denominator,
                                 su2_norm_series)
from groupquant.theta import theta3
from groupquant.wigner import wigner_D_euler_grid
from oracles import quat_to_su2, su2_complex_point

RNG = np.random.default_rng(11)


def heat_kernel(params, g):
    """rho_t(g) = sum_pi d_pi e^{-t lam_pi / 2} chi_pi(g); on SU(2) from the
    half angle atan2(|v|, w) of q = (w, v), accurate next to 1 and -1."""
    t = params.t
    if params.group == G.U1:
        phi = g.angle if isinstance(g, G.GroupElement) else float(g)
        return theta3(phi / (2 * math.pi), 1j * t / (2 * math.pi)).real
    q = np.asarray(g.quat if isinstance(g, G.GroupElement) else g, float)
    half = math.atan2(float(np.linalg.norm(q[1:])), float(q[0]))
    return float(su2_norm_series(1j * half, t / 2.0)[0].real)


def test_heat_kernel_u1_value():
    params = H.HeatParams(G.U1, 1.0)
    oracle = sum(math.exp(-j * j / 2.0) for j in range(-60, 61))
    assert abs(heat_kernel(params, 0.0) - oracle) < 1e-13
    assert abs(oracle - 2.5066282880429053) < 1e-12


def test_heat_kernel_normalized():
    params = H.HeatParams(G.U1, 0.8)
    quad = G.u1_quadrature(40)
    vals = np.array([heat_kernel(params, G.GroupElement.u1(p))
                     for p in quad.angles])
    assert abs(vals @ quad.weights - 1.0) < 1e-12
    ps = H.HeatParams(G.SU2, 1.0)
    quad2 = G.su2_quadrature(10)
    vals2 = np.array([heat_kernel(ps, G.GroupElement.su2(q))
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
            assert heat_kernel(params, g) > 0.0


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
        val = heat_kernel(params, G.GroupElement.su2(q))
        assert abs(val - math.fsum(terms)) <= 1e-14 * sum(map(abs, terms))
    rng = np.random.default_rng(3)
    for _ in range(5):
        z, w = (H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                                 0.7 * rng.standard_normal(3))
                for _ in range(2))
        # mu from the trace: 2 cosh(mu) = tr W, W = (z^dag w)^{-1}
        W = np.linalg.inv(su2_complex_point(z).conj().T
                          @ su2_complex_point(w))
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
        ref = quat_to_su2(q) @ expm(np.einsum("k,kab->ab", X, sigma) / 2)
        val = su2_complex_point(H.PolarPoint.su2(q, X))
        assert np.abs(val - ref).max() < 1e-14 * np.abs(ref).max()


def _overlap_eigvals_oracle(params, z, zp):
    """SU(2) (Psi_z, Psi_z') with mu from an eigenvalue of (z^dag z')^{-1},
    independent of the library's trace route."""
    w = np.linalg.inv(su2_complex_point(z).conj().T
                      @ su2_complex_point(zp))
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


def _random_point(rng, h_max=None):
    """A PolarPoint.su2 with a random unit quaternion and X drawn as in the
    benchmark's overlaps (0.7 N(0, I_3)), or of a uniform modulus up to
    h_max in a random direction."""
    q = G.quat_normalize(rng.standard_normal(4))
    if h_max is None:
        return H.PolarPoint.su2(q, 0.7 * rng.standard_normal(3))
    u = rng.standard_normal(3)
    return H.PolarPoint.su2(q, rng.uniform(0.0, h_max) * u / np.linalg.norm(u))


def test_su2_half_trace_matrix_oracle():
    # tr(z^dag z')/2 in closed form against the 2x2 matrices of z and z'.
    # The scale is e^{(|X| + |X'|)/2} = ||z|| ||z'||, which bounds the half
    # trace: where it cancels, neither route keeps relative digits of it
    rng = np.random.default_rng(13)
    zero = H.PolarPoint.su2(G.quat_normalize(rng.standard_normal(4)),
                            np.zeros(3))
    pairs = [(zero, zero), (zero, H.PolarPoint.su2(-np.asarray(
        zero.g.quat), np.zeros(3))), (zero, _random_point(rng))]
    for k in range(600):
        z, w = _random_point(rng, 3.0), _random_point(rng, 3.0)
        if k % 3 == 1:
            w = z
        elif k % 3 == 2:
            w = H.PolarPoint.su2(-np.asarray(z.g.quat), z.X)
        pairs.append((z, w))
    for z, w in pairs:
        m = su2_complex_point(z).conj().T @ su2_complex_point(w)
        scale = math.exp((np.linalg.norm(z.X) + np.linalg.norm(w.X)) / 2.0)
        val = H._su2_half_trace(z, w)
        assert abs(val - np.trace(m) / 2.0) <= 1e-14 * scale


def _overlap_mp(t, z, zp):
    """SU(2) (Psi_z, Psi_z') at 30 digits from the 2x2 matrices of z and z'
    in mpmath: sum_n n e^{-t(n^2-1)/4} U_{n-1}(c), c = tr(z^dag z')/2 and
    U_{n-1}(cosh mu) = sinh(n mu)/sinh(mu) by the Chebyshev recurrence, to
    terms below 1e-40 of the sum; no mu and no float rounding of c."""
    with mpmath.workdps(30):
        def matrix(p):
            q0, q1, q2, q3 = (mpmath.mpf(float(c)) for c in p.g.quat)
            x1, x2, x3 = (mpmath.mpf(float(c)) for c in p.X)
            h = mpmath.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            c = mpmath.cosh(h / 2)
            s = mpmath.sinh(h / 2) / h if h else mpmath.mpf(0.5)
            U = mpmath.matrix([[q0 - 1j * q3, -q2 - 1j * q1],
                               [q2 - 1j * q1, q0 + 1j * q3]])
            return U * mpmath.matrix([[c + s * x3, s * (x1 - 1j * x2)],
                                      [s * (x1 + 1j * x2), c - s * x3]])

        m = matrix(z).H * matrix(zp)
        c, t = (m[0, 0] + m[1, 1]) / 2, mpmath.mpf(t)
        u_prev, u, total, n = mpmath.mpf(0), mpmath.mpf(1), 0, 1
        while True:
            term = n * mpmath.exp(-t * (n * n - 1) / 4) * u
            total += term
            if n > 10 and abs(term) < mpmath.mpf(10) ** -40 * abs(total):
                return complex(total)
            u_prev, u, n = u, 2 * c * u - u_prev, n + 1


def test_su2_overlap_mpmath_oracle():
    # 20 draws as in the benchmark's overlaps, every fourth pair z' = z,
    # z' 1e-7 from -z or z' = -z, on the Cauchy-Schwarz scale of
    # test_su2_overlap_trace_vs_eigvals_oracle; the worst error is 4.4e-16
    # (6.5e-16 by the 2x2 matrix route and numpy's arccosh)
    rng = np.random.default_rng(21)
    r = np.array([math.cos(1e-7), 0.0, 0.0, math.sin(1e-7)])
    for k in range(20):
        t = rng.uniform(0.3, 1.5)
        z, w = _random_point(rng), _random_point(rng)
        if k % 4 == 1:
            w = z
        elif k % 4 == 2:
            w = H.PolarPoint.su2(G.quat_mul(-np.asarray(z.g.quat), r), z.X)
        elif k % 4 == 3:
            w = H.PolarPoint.su2(-np.asarray(z.g.quat), z.X)
        ref = _overlap_mp(t, z, w)
        scale = math.sqrt(abs(_overlap_mp(t, z, z))
                          * abs(_overlap_mp(t, w, w)))
        val = H.coherent_overlap(H.HeatParams(G.SU2, t), z, w)
        assert abs(val - ref) <= 1e-14 * scale


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
        val = heat_kernel(params, q)
        assert val > 0.0
        assert abs(val - float(ref)) <= 1e-14 * float(scale)


def test_u1_heat_kernel_antipode():
    # rho_t(pi) = theta_3(pi/2, e^{-t/2}) = sum_j (-1)^j e^{-t j^2/2}. Its
    # Poisson-dual sum sqrt(2 pi/t) sum_k e^{-(pi - 2 pi k)^2/(2t)} / (2 pi)
    # has positive terms only, so there sum |terms| is the value itself
    t = 0.2
    with mpmath.workdps(40):
        ref = mpmath.jtheta(3, mpmath.pi / 2, mpmath.exp(-mpmath.mpf(t) / 2))
    val = heat_kernel(H.HeatParams(G.U1, t), math.pi)
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


def test_su2_overlap_hermiticity_is_exact():
    # swapping z and z' conjugates every term of the half trace exactly:
    # 1000 draws as in the benchmark's overlaps, and the cancellation case
    # t = 0.32, |X| = |X'| = 2.1, at a random pair, at g' = -g, where the
    # half trace is real and below -1, and at X = X' = 0
    rng = np.random.default_rng(2)
    cases = [(rng.uniform(0.3, 1.5), _random_point(rng), _random_point(rng))
             for _ in range(1000)]
    for _ in range(20):
        z, w = (H.PolarPoint.su2(p.g.quat, 2.1 * p.X / np.linalg.norm(p.X))
                for p in (_random_point(rng), _random_point(rng)))
        cases += [(0.32, z, w),
                  (0.32, z, H.PolarPoint.su2(-np.asarray(z.g.quat), w.X)),
                  (0.32, H.PolarPoint.su2(z.g.quat, np.zeros(3)),
                   H.PolarPoint.su2(w.g.quat, np.zeros(3)))]
    for t, z, w in cases:
        params = H.HeatParams(G.SU2, t)
        o1 = H.coherent_overlap(params, z, w)
        assert o1 == np.conj(H.coherent_overlap(params, w, z))


def test_resolution_constant_u1():
    for t in (0.5, 1.0, 2.0):
        val = H.resolution_constant_u1(t)
        assert abs(val - t) / t < 1e-4


@pytest.mark.parametrize("t", [300.0, 1000.0])
def test_resolution_constant_u1_large_t(t):
    # the integrand stays near sqrt(pi/t) out to |l| ~ t/2, beyond the
    # 9 sqrt(t) Gaussian window that small t needs
    assert abs(H.resolution_constant_u1(t) - t) / t < 1e-8


def test_resolution_constant_u1_underflow_raises():
    # at t = 1e4, theta3 underflows to 0 where the integrand crosses over
    with pytest.raises(H.QuadratureConvergenceError):
        H.resolution_constant_u1(1e4)


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_resolution_rejects_t_that_is_not_finite_and_positive(t):
    # nan used to reach an int() of the panel count ("cannot convert float
    # NaN to integer"); each integral names its own range instead
    with pytest.raises(ValueError, match="C_t needs a finite t > 0"):
        H.resolution_constant_u1(t)
    with pytest.raises(ValueError, match=r"I\(t, n\) needs a finite t > 0"):
        H.resolution_integral_su2(t, 1)


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
        f_shift, [[(-width - t * j, width - t * j, 64)]])[0]
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
        val = _panel_gl(f, [[(a, b, n_panels)]])[0]
        assert abs(val - ref) <= 1e-14 * abs(ref)
    # several levels in one call: the two sides of p = 0 as one level, each
    # side as its own, and the two sides at twice the panels
    for (f, lo, mid), (_, _, hi) in zip(cases[1::2], cases[2::2]):
        levels = [[(lo, mid, n_panels), (mid, hi, n_panels)],
                  [(lo, mid, n_panels)], [(mid, hi, n_panels)],
                  [(lo, mid, 2 * n_panels), (mid, hi, 2 * n_panels)]]
        for val, level in zip(_panel_gl(f, levels), levels):
            ref = sum(_panel_gl_loop(f, *seg) for seg in level)
            assert abs(val - ref) <= 1e-14 * abs(ref)


def _linspace_panels(a, b, n_panels):
    """(24-point nodes, half widths) of n_panels equal panels of [a, b] from
    np.linspace's edges: the per-segment construction that the batched
    levels replaced."""
    x, _ = _gauss_legendre(24)
    edges = np.linspace(a, b, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x).ravel(), half


def _panel_gl_level(f, a, b, n_panels):
    """One segment by the per-level route: one call of f on its nodes."""
    nodes, half = _linspace_panels(a, b, n_panels)
    return half @ (f(nodes).reshape(n_panels, -1) @ _gauss_legendre(24)[1])


def test_panel_gl_nodes_are_linspace_nodes():
    # the one vectorised panel construction puts every node where the
    # per-segment np.linspace edges put it, last edge b included, to the
    # last bit
    rng = np.random.default_rng(17)
    for _ in range(200):
        segs = [(a, a + rng.uniform(1e-3, 60.0), int(k)) for a, k in zip(
            rng.uniform(-40.0, 40.0, 4), rng.integers(1, 140, 4))]
        seen = []
        H._panel_gl(lambda p: seen.append(p) or np.ones_like(p),
                    [segs[:2], segs[2:]])
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.concatenate(
            [_linspace_panels(*seg)[0] for seg in segs]))


def _first_agreeing(levels, tol):
    """The refinement loop: the first level within tol (relative above 1)
    of the one before it."""
    prev = math.inf
    for val in levels:
        diff, prev = abs(val - prev), val
        if diff <= tol * max(1.0, abs(val)):
            return val
    raise H.QuadratureConvergenceError("no two levels agree", diff)


def _itn_per_level(t, n, return_imag_residual=False):
    """resolution_integral_su2 with one `_panel_gl_level` call per side of
    p = 0 and per level; H.itn_denominator is read at each call."""
    center, width = t * n / 2.0, 13.0 * math.sqrt(t)
    lo, hi = center - width, center + width

    def f(p):
        return p * p * np.exp(-(p - center) ** 2 / t) / H.itn_denominator(p, t)

    def level(npan):
        if lo < 0.0 < hi:
            k = max(1, int(round(npan * (0.0 - lo) / (hi - lo))))
            return (_panel_gl_level(f, lo, 0.0, k) +
                    _panel_gl_level(f, 0.0, hi, npan - k + 1))
        return _panel_gl_level(f, lo, hi, npan)

    val = _first_agreeing(map(level, (16, 32, 64, 128)), 1e-9)
    if not return_imag_residual:
        return val
    sample = np.linspace(center - 2 * math.sqrt(t), center + 2 * math.sqrt(t),
                         7)
    vals = H.itn_theta_integrand(
        sample[np.abs(sample) > 1e-6 * math.sqrt(t)], t, n)
    return val, np.abs(vals.imag).max() / np.abs(vals.real).max()


@pytest.mark.parametrize("t", [1.0, 2.0, math.e, math.pi, 4.0, 8.0, 16.0])
def test_itn_batched_levels_match_per_level_route(t):
    # one integrand call for the levels of 16 and 32 panels leaves every
    # node value and every panel sum as it was: equal to the last bit
    for n in range(1, 6):
        assert H.resolution_integral_su2(t, n) == _itn_per_level(t, n)
        assert (H.resolution_integral_su2(t, n, return_imag_residual=True)
                == _itn_per_level(t, n, return_imag_residual=True))


def test_itn_later_levels_match_per_level_route(monkeypatch):
    # a denominator off by 1e-6 relative, oscillating far faster than the
    # finest panels resolve, keeps every two levels apart, so the levels of
    # 64 and 128 panels (65 and 129 with p = 0 an edge) run too, one call
    # each; the last difference is the same to the last bit on both routes
    exact, sizes, achieved = H.itn_denominator, [], []

    def noisy(p, t):
        sizes.append(np.size(p))
        return exact(p, t) * (1.0 + 1e-6 * np.sin(1e5 * np.asarray(p)))

    monkeypatch.setattr(H, "itn_denominator", noisy)
    for route in (H.resolution_integral_su2, _itn_per_level):
        with pytest.raises(H.QuadratureConvergenceError) as err:
            route(2.0, 3)
        achieved.append(err.value.achieved)
    assert sizes[:3] == [24 * (17 + 33), 24 * 65, 24 * 129]
    assert achieved[0] == achieved[1]


def _u1_per_level(t):
    """resolution_constant_u1 with one `_panel_gl_level` call per level."""
    width = t / 2.0 + 9.0 * math.sqrt(t)
    scale = max(1, math.ceil(width / 256.0))

    def f(l):
        return np.exp(-l * l / t) / theta3(l / t, 1j * math.pi / t).real

    return _first_agreeing((math.sqrt(t / math.pi)
                            * _panel_gl_level(f, -width, width, scale * npan)
                            for npan in (8, 16, 32, 64, 128)), 1e-8)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 100.0])
def test_resolution_constant_batched_levels_match_per_level_route(t):
    # at t = 100 the levels of 32 and 64 panels run after the batched pair
    assert H.resolution_constant_u1(t) == _u1_per_level(t)


@pytest.mark.parametrize("name, func, args, nodes", [
    ("itn_denominator", H.resolution_integral_su2, (2.0, 3),
     24 * (17 + 33)),
    ("theta3", H.resolution_constant_u1, (1.0,), 24 * (8 + 16)),
])
def test_first_two_levels_make_one_integrand_call(monkeypatch, name, func,
                                                  args, nodes):
    # I(2, 3) converges at 32 panels (17 and 33 with p = 0 an edge), C_t at
    # t = 1 at 16: one call, on the nodes of both levels
    exact, sizes = getattr(H, name), []

    def spy(x, *a):
        sizes.append(np.size(x))
        return exact(x, *a)

    monkeypatch.setattr(H, name, spy)
    func(*args)
    assert sizes == [nodes]


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


@pytest.mark.parametrize("t, n", [(1000.0, 5), (150.0, 1)])
def test_itn_rejects_t_above_denominator_range(t, n):
    # itn_denominator is checked up to ITN_T_MAX; (1000, 5) used to return
    # inf and (150, 1) not to converge
    with pytest.raises(ValueError, match="t <="):
        H.resolution_integral_su2(t, n)
    assert math.isfinite(H.resolution_integral_su2(ITN_T_MAX, n))


@pytest.mark.parametrize("name, func, args", [
    ("theta3", H.resolution_constant_u1, (1.0,)),
    ("itn_denominator", H.resolution_integral_su2, (2.0, 1)),
])
def test_convergence_error_reports_last_difference(monkeypatch, name, func,
                                                   args):
    # noise of 1e-6 relative in the integrand's denominator keeps every two
    # refinement levels apart: the error reports their last difference
    value = func(*args)
    exact = getattr(H, name)
    rng = np.random.default_rng(5)

    def noisy(*a):
        v = exact(*a)
        return v * (1.0 + 1e-6 * rng.standard_normal(np.shape(v)))

    monkeypatch.setattr(H, name, noisy)
    with pytest.raises(H.QuadratureConvergenceError) as err:
        func(*args)
    assert err.value.achieved > 1e-9 * abs(value)


def test_schur_residual():
    A1, r1 = H.schur_residual_su2(1.0, 1)
    assert r1 == 0.0
    for n in (2, 3):
        A, r = H.schur_residual_su2(1.0, n)
        assert r < 1e-6
        diag = np.diag(A).real
        assert np.abs(diag - diag.mean()).max() < 1e-6 * abs(diag.mean())


@pytest.mark.parametrize("t", [0.5, 1.0, 1.3, 2.0])
def test_schur_scalar_is_resolution_integral(t):
    # Schur's lemma makes A a multiple of 1 whatever the radial weight, so
    # the residual cannot see the heat kernel; the multiple is Table 1's
    # integral, tr A / n = 4 pi e^{t (n^2 - 1) / 4} I(t, n) / n
    for n in range(1, 9):
        A, _ = H.schur_residual_su2(t, n)
        ref = (4 * math.pi * math.exp(t * (n * n - 1) / 4.0)
               * H.resolution_integral_su2(t, n) / n)
        assert abs(np.trace(A) / n - ref) < 1e-13 * ref


def sphere_grid(l_exact):
    """(theta, phi) product grid integrating spherical harmonics l <= l_exact
    exactly; returns (theta, phi, weights) with sum(weights) = 4 pi."""
    n_theta = l_exact // 2 + 1
    n_phi = l_exact + 1
    x, wx = _gauss_legendre(n_theta)
    theta = np.arccos(x)
    phi = 2 * math.pi * np.arange(n_phi) / n_phi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    W = np.repeat(wx[:, None], n_phi, axis=1) * (2 * math.pi / n_phi)
    return T.ravel(), P.ravel(), W.ravel()


def _schur_radial_weights(t, n):
    """The radial factors of schur_residual_su2's operator, one row per
    radial node and one column per weight m = j..-j: w_r h_r^2 e^{2 h_r m}
    / N(h_r)."""
    h_max = t * n / 2.0 + 12.0 * math.sqrt(t) + 2.0
    x, wx = _gauss_legendre(80)
    h = (x + 1.0) * h_max / 2.0
    wh = wx * h_max / 2.0
    m = np.arange(n - 1, -n, -2) / 2.0
    return (h * h * wh / su2_norm_series(h, t))[:, None] * np.exp(
        2.0 * np.outer(h, m))


def _schur_operator_sphere_grid(t, n):
    """The resolution operator of schur_residual_su2 assembled on a sphere
    grid exact to degree 2(n - 1) + 4, with the Wigner D matrices at its
    nodes and a (radial x angle) sum: D diag(e^{2 h m}) D^dagger."""
    twoj = n - 1
    theta, phi, wsph = sphere_grid(2 * twoj + 4)
    D = wigner_D_euler_grid(twoj, phi, theta, np.zeros_like(phi))
    ang = np.einsum("s,sma,sna->amn", wsph, D, D.conj())
    return np.einsum("ra,amn->mn", _schur_radial_weights(t, n), ang)


def _schur_operator_orbit_grid(t, n):
    """The resolution operator of schur_residual_su2 as an operator-field
    integral on the orbit's product grid: 4 pi / n times the integral of
    the field 1 against OrbitSpec(n - 1)'s operator table of the summed
    radial weights R, every entry of A, exact to degree 2n against the
    entries' 2(n - 1)."""
    spec = O.OrbitSpec(n - 1)
    R = _schur_radial_weights(t, n).sum(axis=0)
    return (4 * math.pi / n) * O._from_field(
        *spec._operator_tables(R), np.ones(spec.n_nodes),
        spec.weights).reshape(n, n)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_schur_operator_sphere_grid_oracle(t):
    for n in range(1, 9):
        A, _ = H.schur_residual_su2(t, n)
        ref = _schur_operator_sphere_grid(t, n)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_schur_operator_orbit_grid_oracle(t):
    # the library keeps only the diagonal that the alpha integral leaves;
    # the operator-field integral on the orbit tables, which it used to
    # take, forms every entry of A from the orbits module's own tables
    for n in range(1, 9):
        A, _ = H.schur_residual_su2(t, n)
        ref = _schur_operator_orbit_grid(t, n)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("t, n, message", [
    (0.0, 2, "require t > 0"), (-1.0, 2, "require t > 0"),
    (1.0, 0, "require an integer n >= 1"),
    (1.0, 2.5, "require an integer n >= 1")])
def test_schur_residual_rejects_bad_input(t, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        H.schur_residual_su2(t, n)


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
